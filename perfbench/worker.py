"""One workload in its own process: set up, say READY, measure, report.

``run.py`` starts this script once per set-up sample (``--setup-only``) and
once for the measured run, with ``src`` on ``PYTHONPATH`` and the BLAS
thread count pinned. It prints ``READY`` when the inputs exist, times the
host probe, then runs the closed loop for ``--seconds`` and prints one
JSON object of raw measurements as its last line.

With ``--trace 1`` rounds alternate: untraced, traced, untraced, ..., all
on the workload's first input, so per-round counts repeat exactly for a
seed. The per-layer numbers come from the traced rounds; the tracing
overhead is the median over (untraced, traced) pairs of traced time over
untraced time, minus one.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import PROBE_NOMINAL_S, host_probe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# throughput metric reported for each operation kind
_KIND_METRIC = {
    "simulate": "cli_simulate_rows_per_s",
    "fit": "cli_fit_rows_per_s",
    "predict": "cli_predict_rows_per_s",
    "fit_ctiv": "fit_rows_per_s",
}


def measure(workload, seconds: float, tracer: Tracer | None = None) -> dict:
    """Closed loop of rounds within ``seconds``; at least two if tracing.

    A round starts only if a round of the median length so far, checks
    and probes included, still ends within ``seconds``, so a run does not
    overrun its time by most of a round.
    """
    trace = tracer is not None
    rounds: list[tuple[bool, list]] = []
    walls: list[float] = []
    start = perf_counter()
    while (not rounds or (trace and len(rounds) < 2)
           or perf_counter() - start + statistics.median(walls) <= seconds):
        began = perf_counter()
        traced = trace and len(rounds) % 2 == 1
        # tracing repeats the first input, so per-round counts are exact
        index = 0 if trace else len(rounds)
        if traced:
            tracer.install()
        try:
            ops = workload.run_round(index, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, ops))
        walls.append(perf_counter() - began)
    return summarize(workload, rounds, tracer)


def summarize(workload, rounds, tracer) -> dict:
    """Raw result of a run. End-to-end numbers use untraced rounds only.

    Throughput is the rows of one round over the median round time, so one
    slow round on a shared machine moves it little. ``rows_per_s`` scales
    each round's time by ``PROBE_NOMINAL_S`` over the mean of the round's
    host probes (see ``probe.py``); ``wall_rows_per_s`` is unscaled.
    """
    all_ops = [op for _, ops in rounds for op in ops]
    plain = [ops for traced, ops in rounds if not traced]
    good = [ops for ops in plain
            if all(op.error is None for op in ops)] or plain
    round_s = [sum(op.seconds for op in ops) for ops in good]
    host_s = [statistics.fmean(p for op in ops for p in op.probes) for ops in good]
    scaled_s = [PROBE_NOMINAL_S * t / h for t, h in zip(round_s, host_s)]
    rows = sum(op.rows for op in good[0])

    named: dict[str, dict] = {}
    by_kind = defaultdict(list)
    for op in (op for ops in good for op in ops):
        by_kind[op.kind].append(op)
    for kind, ops in by_kind.items():
        if kind in _KIND_METRIC:
            med = statistics.median(op.seconds for op in ops)
            named[_KIND_METRIC[kind]] = {"value": ops[0].rows / med,
                                         "unit": "rows/s", "samples": len(ops)}
    sweeps = by_kind["sweep"]
    cells = [s for op in sweeps for s in op.cell_seconds]
    if cells:
        named["sweep_cells_per_s"] = {
            "value": statistics.median(len(op.cell_seconds) / op.seconds
                                       for op in sweeps),
            "unit": "cells/s", "samples": len(sweeps)}
        named["sweep_cell_p50_ms"] = {"value": 1000 * statistics.median(cells),
                                      "unit": "ms", "samples": len(cells)}
        if len(cells) >= 100:       # at least ten cells beyond p90
            named["sweep_cell_p90_ms"] = {
                "value": 1000 * statistics.quantiles(cells, n=10)[8],
                "unit": "ms", "samples": len(cells)}
        named["bench.min_mean_gap_pct"] = {"value": workload.min_mean_gap_pct,
                                           "unit": "%", "samples": len(sweeps)}

    round_seconds = [sum(op.seconds for op in ops) for _, ops in rounds]
    out = {
        "attempted": len(all_ops),
        "failed": sum(op.error is not None for op in all_ops),
        "errors": sorted({op.error for op in all_ops if op.error})[:5],
        "rounds": len(rounds),
        "round_seconds": round_seconds,
        "metrics": {
            "rows_per_s": rows / statistics.median(scaled_s),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "round_samples": len(round_s),
        "host_probe_s": host_s,
        "wall_rows_per_s": rows / statistics.median(round_s),
        "named": named,
    }
    if tracer is not None:
        # rounds alternate untraced, traced on the same input: compare pairs
        ratios = [b / a for a, b in zip(round_seconds[0::2], round_seconds[1::2])]
        traced = round_seconds[1::2]
        per_layer = tracer.per_layer(len(traced))
        per_layer["bench.min_mean_gap_pct"] = getattr(workload, "min_mean_gap_pct", 0.0)
        out["trace"] = {
            "traced_rounds": len(traced),
            "overhead_frac": statistics.median(ratios) - 1,
            "traced_round_mean_s": statistics.fmean(traced),
            "per_layer": per_layer,
            "stages": tracer.stage_split(len(traced)),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", required=True, help="directory for outputs")
    p.add_argument("--digests", required=True, help="pinned digests JSON")
    p.add_argument("--spans", help="where to write spans when tracing")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    digests = {}
    if args.seed == 0:
        pinned = json.loads(Path(args.digests).read_text(encoding="utf-8"))
        digests = pinned.get(args.workload, {})
    workload = WORKLOADS[args.workload](args.seed, Path(args.scratch), digests)
    workload.setup()
    print("READY", flush=True)
    # the host's speed just after set-up, to scale this process's set-up time
    setup_probe_s = statistics.median(host_probe() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_probe_s": setup_probe_s}), flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    result = measure(workload, args.seconds, tracer)
    result["setup_probe_s"] = setup_probe_s
    result["env"] = {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "covariate_bytes": workload.covariate_bytes}
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
