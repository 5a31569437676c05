"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the package's own test suite (pytest collects ``test_*.py``
only), so the tier-1 run stays fast.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ctiv.cli  # noqa: E402
import ctiv.tree  # noqa: E402
import run  # noqa: E402
from probe import PROBE_NOMINAL_S  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from worker import measure, summarize  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, BenchSweep, CliRoundtrip, FitDeep, Op, _ProgressSink)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str, scratch: Path, digests=None):
    digests = digests or {}
    if name == "cli-roundtrip":
        return CliRoundtrip(3, scratch, digests, rows=2000)
    if name == "fit-deep":
        return FitDeep(3, scratch, digests, rows=4000)
    return BenchSweep(3, scratch, digests,
                      grid=("--designs", "1,2", "--sizes", "500", "--seeds", "2"))


def test_run_knows_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    wl = tiny(name, tmp_path)
    wl.setup()
    tracer = Tracer()
    result = measure(wl, 0.0, tracer)
    assert result["failed"] == 0, result["errors"]
    assert result["rounds"] == 2

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        final = run.compose(result, 0.5, trace)
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in final["metrics"].items()}
        assert got == want
        for value in final["metrics"].values():
            assert isinstance(value["value"], float)
            assert math.isfinite(value["value"])
    for value in result["metrics"].values():
        assert value > 0
    # the tracer put every original function back
    assert not hasattr(ctiv.cli.main, "__wrapped__")
    assert not hasattr(ctiv.tree.grow, "__wrapped__")
    assert not hasattr(ctiv.tree.CausalTree.assign_leaves, "__wrapped__")


def test_traced_round_counts_its_layers(tmp_path):
    wl = tiny("fit-deep", tmp_path)
    wl.setup()
    tracer = Tracer()
    result = measure(wl, 0.0, tracer)
    layer = result["trace"]["per_layer"]
    assert layer["tree.grow.calls"] == 1
    assert layer["tree.regrow.self_s"] > 0
    assert layer["tree.prune_path.elements"] == layer["tree.holdout_loss.calls"]
    assert layer["propensity.fit_logistic.calls"] == 1
    assert layer["effects.estimate_leaf.calls"] == layer["tree.leaves"]
    assert layer["dataset.load_csv.self_s"] == 0.0


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    root = tracer.open("root")
    for _ in range(3):
        child = tracer.open("child")
        grandchild = tracer.open("grandchild")
        sum(range(20000))
        tracer.close(grandchild)
        sum(range(10000))
        tracer.close(child)
    sum(range(10000))
    tracer.close(root)
    spans = [tuple(s) for s in tracer.spans]
    own = self_times(spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(spans[root][2] - spans[root][1], abs=1e-12)


def test_self_times_of_a_traced_round_add_up(tmp_path):
    wl = tiny("cli-roundtrip", tmp_path)
    tracer = Tracer()
    measure(wl, 0.0, tracer)
    spans = [tuple(s) for s in tracer.spans]
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] is None]
    assert [spans[i][0] for i in roots] == ["op.simulate", "op.fit", "op.predict"]

    def top(i):
        while spans[i][3] is not None:
            i = spans[i][3]
        return i

    for r in roots:
        total = sum(t for i, t in enumerate(own) if top(i) == r)
        assert total == pytest.approx(spans[r][2] - spans[r][1], rel=1e-9)


@pytest.mark.parametrize("name,artefact,wrong", [
    ("fit-deep", "tree_json", ["0" * 64] * FitDeep.pool),
    ("cli-roundtrip", "predict_csv", "0" * 64),
    ("bench-sweep", "results_csv", "0" * 64)])
def test_wrong_digest_counts_as_failed(name, artefact, wrong, tmp_path):
    wl = tiny(name, tmp_path, {artefact: wrong})
    wl.setup()
    result = measure(wl, 0.0)
    assert result["failed"] == 1
    assert any(artefact in e for e in result["errors"])
    final = run.compose(result, 0.5, False)
    assert final["correct"] is False
    assert final["failed"] / final["attempted"] > 0


def test_round_times_are_scaled_by_the_host_probe():
    # the probe ran at twice its nominal time: the host was half as fast
    slow = 2 * PROBE_NOMINAL_S
    rounds = [(False, [Op("fit", seconds, 1000, probes=[slow])])
              for seconds in (1.0, 2.0, 3.0)]
    result = summarize(None, rounds, None)
    assert result["wall_rows_per_s"] == pytest.approx(500.0)
    assert result["metrics"]["rows_per_s"] == pytest.approx(1000.0)


def test_probes_inside_a_sweep_stay_out_of_cell_times():
    sink = _ProgressSink(probe=True)
    sink.last_probe -= 10.0     # due for a probe at the first cell
    sink.write("  done design 1 n 500 seed 0\n")
    sink.write("  done design 1 n 500 seed 1\n")
    assert len(sink.probes) == 1
    assert sink.paused >= sink.probes[0] > 0
    assert len(sink.cell_seconds) == 2
    assert all(t < sink.probes[0] for t in sink.cell_seconds)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-deep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
