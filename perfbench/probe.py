"""The host probe: a fixed task that scales the benchmark's times.

A shared host's speed can drift by up to a half over tens of seconds, in
the probe and the program alike. So the probe runs after every timed
operation (and about once a second inside a long one, with its time taken
out), and the end-to-end metrics are scaled to a host on which the probe
takes ``PROBE_NOMINAL_S``: a round's time is multiplied by
``PROBE_NOMINAL_S`` over the mean of the round's probes. The probe mixes
Python text work with numpy sorting, as ctiv does, and does not touch
ctiv, so a change to ctiv cannot move it.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy

_VALUES = [i * 0.37 for i in range(50_000)]
_ARRAY = numpy.random.default_rng(0).random(200_000)
PROBE_NOMINAL_S = 0.05


def host_probe() -> float:
    """Seconds to round-trip 50,000 floats through CSV text in Python,
    then argsort and cumsum 200,000 floats in numpy."""
    enabled = gc.isenabled()
    gc.disable()        # a collection would time the program's heap
    try:
        start = perf_counter()
        text = ",".join(f"{x:.6g}" for x in _VALUES)
        sum(map(float, text.split(",")))
        numpy.argsort(_ARRAY, kind="stable")
        numpy.cumsum(_ARRAY)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
