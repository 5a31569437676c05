"""ctiv benchmark: one workload, one seed, closed loop, checked outputs.

    python3 perfbench/run.py --workload cli-roundtrip --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all      # the three in turn

Run from the root of a checkout; it imports ``ctiv`` from ``src`` and
writes only under ``.perfbench_tmp`` (scratch, removed afterwards) and
``.perfbench_out`` (the full report, and spans when tracing).

Workloads (see ``workloads.py``); each is one client in a closed loop:

- ``cli-roundtrip``: ``ctiv simulate`` (design 2, 50,000 rows), then
  ``fit`` (iv-unconfounded, depth 4) and ``predict`` on that CSV, each
  through in-process ``ctiv.cli.main``. The only workload with CSV I/O.
- ``fit-deep``: in-process ``fit_ctiv`` at depth 10, ``min_leaf_fraction``
  0.0005, on a pool of 50,000-row design-2 samples. No I/O; deep growth and
  a long pruning path.
- ``bench-sweep``: the default ``ctiv bench`` grid (150 cells, 300 fits,
  one worker). Many small fits, so per-call overhead dominates.

End-to-end metrics:

- ``rows_per_s``: input rows of one round over the median time of the run's
  untraced rounds, each round's time scaled by the host probe (see
  ``probe.py``). A round is one simulate-fit-predict round trip
  (3 x 50,000 rows), one fit (50,000 rows) or one sweep (2n rows per cell,
  650,000 rows). The report also prints the unscaled ``wall_rows_per_s``.
- ``peak_rss_mb``: ``ru_maxrss`` of the workload's process.
- ``setup_s``: see below.

Each workload runs in its own process, so ``setup_s`` and ``peak_rss_mb``
are its own. ``setup_s`` is the time from starting that process to its
first timed operation: interpreter start, ``import ctiv`` and building the
inputs, scaled by the host probe timed right after. It is the median over
``SETUP_SAMPLES`` processes, started before and after the measuring one.

``BENCHMARK.json`` gates ``cli-roundtrip`` and ``bench-sweep`` only:
three workloads at 45 s do not fit the time allowed for a full check, and
a ``fit-deep`` round is one long ``fit_ctiv`` call, too long for the probe
after it to track the host's speed. ``fit-deep`` stays here for local
comparisons of growth and pruning; those layers are still traced on the
other two workloads.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones. BLAS and OpenMP run on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import PROBE_NOMINAL_S  # noqa: E402
from tracing import PER_LAYER_METRICS  # noqa: E402

WORKLOAD_NAMES = ("cli-roundtrip", "fit-deep", "bench-sweep")
# (metric, unit) reported by every workload with --trace 0
END_TO_END_METRICS = (
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MiB"),
)
# BLAS/OpenMP threads: at most nproc on any machine; the digests in
# digests.json were taken with this setting
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
TIMEOUT_S = 170


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def _cache_bytes(text: str) -> int | None:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return None


def environment(seed: int, covariate_bytes: int) -> dict:
    """Machine, software and workload facts recorded with every run."""
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(4):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _read(f"{base}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/size")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    l2, l3 = (_cache_bytes(caches.get(k, "")) for k in ("L2", "L3"))
    fits = ("unknown" if l2 is None or l3 is None else
            "fits L2" if covariate_bytes <= l2 else
            "exceeds L2 but not L3" if covariate_bytes <= l3 else "exceeds L3")
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "blas_threads": int(THREADS), "commit": commit, "seed": seed,
            "covariate_vs_cache": fits}


def _worker_cmd(workload: str, args, extra: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", str(ROOT / ".perfbench_tmp"),
            "--digests", str(HERE / "digests.json"), *extra]


def _start(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it said READY."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line.strip()!r}")
    return proc, ready


def compose(result: dict, setup_s: float, trace: bool) -> dict:
    """The final JSON line from a worker's raw result."""
    if trace:
        values = result["trace"]["per_layer"]
        spec = PER_LAYER_METRICS
    else:
        values = {**result["metrics"], "setup_s": setup_s}
        spec = END_TO_END_METRICS
    return {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }


def report_lines(workload: str, result: dict, setup_s: float,
                 setup_samples: list[tuple[float, float]], env: dict) -> list[str]:
    """Human-readable summary printed before the JSON line."""
    out = [f"workload {workload} seed {env['seed']}: {result['rounds']} rounds, "
           f"{result['attempted']} operations, {result['failed']} failed",
           "env " + json.dumps({**env, **result["env"]}, sort_keys=True)]
    frac = result["failed"] / result["attempted"]
    out.append(f"  failed_ops_frac = {frac:.6g} ratio")
    for err in result["errors"]:
        out.append(f"  error: {err}")
    out.append(f"  setup_s = {setup_s:.6g} s (median of {len(setup_samples)}, "
               f"scaled; wall {statistics.median(r for r, _ in setup_samples):.6g} s)")
    for name, unit in END_TO_END_METRICS[1:]:
        out.append(f"  {name} = {result['metrics'][name]:.6g} {unit}")
    probes = result["host_probe_s"]
    out.append(f"  wall_rows_per_s = {result['wall_rows_per_s']:.6g} rows/s "
               f"(unscaled; host probe median {1000 * statistics.median(probes):.4g} ms, "
               f"range {1000 * min(probes):.4g}-{1000 * max(probes):.4g} ms, "
               f"nominal {1000 * PROBE_NOMINAL_S:.4g} ms)")
    for name, m in result["named"].items():
        out.append(f"  {name} = {m['value']:.6g} {m['unit']} "
                   f"({m['samples']} samples)")
    if "trace" in result:
        tr = result["trace"]
        out.append(f"  tracing overhead = {100 * tr['overhead_frac']:.2f}% "
                   f"(median of {tr['traced_rounds']} traced/untraced pairs)")
        total = tr["traced_round_mean_s"]
        staged = sum(tr["stages"].values())
        out.append(f"  stage split of the mean traced round ({total:.4g} s):")
        for stage, secs in [*tr["stages"].items(), ("other", total - staged)]:
            out.append(f"    {stage:<16} {secs:10.4f} s {100 * secs / total:6.1f}%")
    return out


def run_workload(workload: str, args, env: dict) -> int:
    """Measure one workload in its own processes; print report and JSON."""
    scratch, out_dir = ROOT / ".perfbench_tmp", ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    spans = out_dir / f"{stem}.spans.jsonl"

    started = perf_counter()
    setups = []
    proc = None
    try:
        # the middle process measures; the others stop after set-up, half
        # before it and half after, so the set-up samples span the run
        for i in range(SETUP_SAMPLES):
            measured = i == SETUP_SAMPLES // 2
            extra = ["--spans", str(spans)] if measured else ["--setup-only"]
            proc, ready = _start(_worker_cmd(workload, args, extra), env)
            stdout, _ = proc.communicate(
                timeout=max(1.0, TIMEOUT_S - (perf_counter() - started)))
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}")
            last = json.loads(stdout.strip().splitlines()[-1])
            setups.append((ready, last["setup_probe_s"]))
            if measured:
                result = last
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)

    machine = environment(args.seed, result["env"]["covariate_bytes"])
    setup_s = statistics.median(PROBE_NOMINAL_S * ready / probe
                                for ready, probe in setups)
    final = compose(result, setup_s, bool(args.trace))
    lines = report_lines(workload, result, setup_s, setups, machine)
    if args.trace:
        lines.append(f"  spans written to {spans.relative_to(ROOT)}")
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"env": {**machine, **result["env"]},
         "setup_samples_s": [ready for ready, _ in setups],
         "setup_probes_s": [probe for _, probe in setups],
         "result": result, "final": final}, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(final), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
                   help="one workload, or all three in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ctiv" / "__init__.py").is_file():
        print(f"no ctiv sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = {**os.environ, **{v: THREADS for v in THREAD_VARS}}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args, env) for name in names)


if __name__ == "__main__":
    sys.exit(main())
