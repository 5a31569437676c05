"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``setup`` and then runs
``run_round`` repeatedly in a closed loop: one client, and each operation
starts when the previous one has finished. Round ``index`` returns one
:class:`Op` per operation, with its wall time and, if the operation raised
or a check on its output failed, the reason.

After each operation, and about once a second inside a sweep, the host
probe of ``probe.py`` runs outside the timed span, so the harness can
scale round times to the host's speed.

Checks run after the timer stops. They call the ctiv functions bound here
at import time, so a tracer installed later does not record them.

Pinned digests are sha256 of artefacts at seed 0 and the default sizes,
taken with one BLAS thread. ``run.json`` is not pinned: it embeds paths.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import ctiv.cli
import ctiv.tree
from ctiv import (
    AssignmentRegime,
    GrowthConfig,
    RegimeKind,
    design_spec,
    export_json,
    generate,
    holdout_split,
    load_json,
)
from probe import host_probe

# seconds of sweep between two host probes inside it
PROBE_EVERY_S = 1.0
CLI_ROWS = 50_000
FIT_ROWS = 50_000
FEATURES = ",".join(f"x{i}" for i in range(1, 11))


@dataclass
class Op:
    kind: str
    seconds: float
    rows: int
    error: str | None = None
    cell_seconds: list[float] = field(default_factory=list)
    # host probe times taken inside and right after the operation
    probes: list[float] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_digests(digests: dict[str, str], files: dict[str, Path]) -> list[str]:
    """Mismatches between pinned digests and the named files."""
    bad = []
    for name, path in files.items():
        want = digests.get(name)
        if want is not None and sha256_file(path) != want:
            bad.append(f"{name} digest differs from the pinned value")
    return bad


class _ProgressSink(io.TextIOBase):
    """Stands in for stdout; times cells from `ctiv bench` progress lines.

    `ctiv bench` prints one progress line when a cell finishes. With
    ``probe`` set, the sink also runs the host probe after a cell once
    ``PROBE_EVERY_S`` has passed since the last one, and keeps its time
    (``paused``) out of the cell times.
    """

    def __init__(self, probe: bool):
        self.probe = probe
        self.cell_seconds: list[float] = []
        self.probes: list[float] = []
        self.paused = 0.0
        self.start()

    def start(self) -> None:
        self.cell_started = self.last_probe = perf_counter()

    def write(self, text: str) -> int:
        for _ in range(text.count("  done design ")):
            now = perf_counter()
            self.cell_seconds.append(now - self.cell_started)
            if self.probe and now - self.last_probe >= PROBE_EVERY_S:
                self.probes.append(host_probe())
                self.last_probe = perf_counter()
                self.paused += self.last_probe - now
            self.cell_started = perf_counter()
        return len(text)


def _cli(argv: list[str], stdout=None) -> str | None:
    """Run one in-process CLI command; None on success, else the error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout or io.StringIO()), \
            contextlib.redirect_stderr(err):
        # looked up on each call, so an installed tracer sees it
        code = ctiv.cli.main(argv)
    if code != 0:
        return f"exit {code}: {err.getvalue().strip()}"
    return None


def _timed(kind: str, rows: int, run, tracer) -> Op:
    """Time ``run()``, then the host probe; an exception ``run`` raises
    becomes the op's error."""
    sid = tracer.open(f"op.{kind}") if tracer else None
    start = perf_counter()
    try:
        error = run()
    except Exception as exc:    # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer:
        tracer.close(sid)
    return Op(kind, seconds, rows, error, probes=[host_probe()])


def _fail(op: Op, problems: list[str]) -> None:
    if problems and op.error is None:
        op.error = "; ".join(problems)


class CliRoundtrip:
    """`ctiv simulate`, then `fit`, then `predict`, through `ctiv.cli.main`."""

    name = "cli-roundtrip"

    def __init__(self, seed: int, scratch: Path, digests: dict[str, str],
                 rows: int = CLI_ROWS):
        self.seed, self.scratch, self.digests, self.rows = (
            seed, scratch, digests, rows)

    def setup(self) -> None:
        pass

    @property
    def covariate_bytes(self) -> int:
        return self.rows * 10 * 8

    def run_round(self, index: int, tracer=None) -> list[Op]:
        d = Path(tempfile.mkdtemp(prefix="roundtrip-", dir=self.scratch))
        try:
            return self._round(d, tracer)
        finally:
            shutil.rmtree(d)

    def _round(self, d: Path, tracer) -> list[Op]:
        s = str(self.seed)
        sample, fit_dir, pred = d / "sample.csv", d / "fit", d / "pred.csv"
        simulate = _timed("simulate", self.rows, lambda: _cli([
            "simulate", "--design", "2", "--n", str(self.rows), "--seed", s,
            "--out", str(sample)]), tracer)
        if simulate.error is None:
            _fail(simulate, _check_digests(self.digests, {"simulate_csv": sample}))
            with open(sample, "rb") as fh:
                n_lines = sum(block.count(b"\n")
                              for block in iter(lambda: fh.read(1 << 20), b""))
            if n_lines != self.rows + 1:
                _fail(simulate, [f"simulate wrote {n_lines - 1} rows"])

        fit = _timed("fit", self.rows, lambda: _cli([
            "fit", "--input", str(sample), "--regime", "iv-unconfounded",
            "--features", FEATURES, "--max-depth", "4",
            "--min-leaf-fraction", "0.02", "--seed", s,
            "--out-dir", str(fit_dir)]), tracer)
        leaf_ids: set[str] = set()
        if fit.error is None:
            _fail(fit, _check_digests(self.digests, {
                "tree_json": fit_dir / "tree.json",
                "tree_dot": fit_dir / "tree.dot",
                "leaf_report_csv": fit_dir / "leaf_report.csv"}))
            text = (fit_dir / "tree.json").read_text(encoding="utf-8")
            tree = load_json(text)
            if export_json(tree) != text:
                _fail(fit, ["tree.json does not re-export to the same bytes"])
            leaf_ids = {str(i) for i in tree.leaf_map}

        predict = _timed("predict", self.rows, lambda: _cli([
            "predict", "--tree", str(fit_dir / "tree.json"),
            "--input", str(sample), "--output", str(pred)]), tracer)
        if predict.error is None:
            _fail(predict, _check_digests(self.digests, {"predict_csv": pred}))
            lines = pred.read_text(encoding="utf-8").splitlines()[1:]
            if len(lines) != self.rows:
                _fail(predict, [f"predict wrote {len(lines)} rows, "
                                f"expected {self.rows}"])
            stray = {line.split(",", 1)[0] for line in lines} - leaf_ids
            if stray:
                _fail(predict, [f"leaf ids {sorted(stray)[:5]} are not leaves"])
        return [simulate, fit, predict]


class FitDeep:
    """In-process `fit_ctiv` on a deep tree; no I/O.

    Set-up draws a pool of samples, and operation i fits sample i mod the
    pool size, so the median over a run's fits spans many samples and
    moves little between seeds, although tree size depends on the sample.
    """

    name = "fit-deep"
    pool = 12

    def __init__(self, seed: int, scratch: Path, digests: dict[str, list[str]],
                 rows: int = FIT_ROWS):
        self.seed, self.digests, self.rows = seed, digests, rows

    @property
    def covariate_bytes(self) -> int:
        return self.rows * 10 * 8

    def setup(self) -> None:
        self.cfg = GrowthConfig(
            regime=AssignmentRegime(RegimeKind.IV_UNCONFOUNDED), max_depth=10,
            min_leaf_fraction=0.0005, min_arm_count=10)
        self.samples = []
        for i in range(self.pool):
            seed = self.seed * self.pool + i
            ds = generate(design_spec(2, self.rows, seed)).dataset
            self.samples.append(
                (seed, ds, holdout_split(ds, (0.5, 0.5, 0.0), seed=seed)))

    def run_round(self, index: int, tracer=None) -> list[Op]:
        index %= self.pool
        seed, ds, split = self.samples[index]
        fitted = []

        def fit():
            # looked up on each call, so an installed tracer sees it
            fitted.append(ctiv.tree.fit_ctiv(ds, self.cfg, split, seed))

        op = _timed("fit_ctiv", self.rows, fit, tracer)
        if op.error is None:
            text = export_json(fitted[0])
            pinned = self.digests.get("tree_json")
            if pinned and hashlib.sha256(text.encode()).hexdigest() != pinned[index]:
                _fail(op, [f"tree_json of sample {index} differs from the pinned value"])
            if export_json(load_json(text)) != text:
                _fail(op, ["tree does not re-export to the same bytes"])
        return [op]


class BenchSweep:
    """The default `ctiv bench` grid, serial, through `ctiv.cli.main`."""

    name = "bench-sweep"

    def __init__(self, seed: int, scratch: Path, digests: dict[str, str],
                 grid: tuple[str, ...] = ()):
        # ``grid`` adds `ctiv bench` options; empty runs the default grid
        self.seed, self.scratch, self.digests, self.grid = (
            seed, scratch, digests, list(grid))
        self.min_mean_gap_pct = 0.0     # set by each sweep's output check

    def setup(self) -> None:
        pass

    # the largest cell of the default grid draws 2 x 5000 rows
    covariate_bytes = 10_000 * 10 * 8

    def run_round(self, index: int, tracer=None) -> list[Op]:
        d = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        try:
            return [self._sweep(d, tracer)]
        finally:
            shutil.rmtree(d)

    def _sweep(self, d: Path, tracer) -> Op:
        # no probes inside a traced sweep: they would count as ctiv's time
        sink = _ProgressSink(probe=tracer is None)

        def sweep():
            sink.start()
            return _cli(["bench", "--base-seed", str(self.seed),
                         "--out-dir", str(d), *self.grid], stdout=sink)

        op = _timed("sweep", 0, sweep, tracer)
        op.seconds -= sink.paused
        op.probes[:0] = sink.probes
        if op.error is not None:
            return op
        op.cell_seconds = sink.cell_seconds
        _fail(op, _check_digests(self.digests, {"results_csv": d / "results.csv"}))
        _fail(op, self.check_results(d, op))
        return op

    def check_results(self, d: Path, op: Op) -> list[str]:
        """Zero failed cells, and CT-IV ahead of CT in every (design, n) mean.

        Also sets ``op.rows`` to the rows the sweep drew: 2n per cell.
        """
        problems = []
        run = json.loads((d / "run.json").read_text(encoding="utf-8"))
        if run["resolved"]["n_failures"]:
            problems.append(f"{run['resolved']['n_failures']} cells failed")
        gaps = defaultdict(list)
        rows = (d / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
        for line in rows:
            design, n, _, _, _, gap, *_ = line.split(",")
            gaps[(design, int(n))].append(float(gap))
            op.rows += 2 * int(n)
        if len(rows) != run["resolved"]["n_cells"]:
            problems.append(f"results.csv has {len(rows)} cells")
        means = {key: sum(v) / len(v) for key, v in gaps.items()}
        self.min_mean_gap_pct = min(means.values()) if means else 0.0
        losing = sorted(key for key, m in means.items() if not m > 0.0)
        if losing:
            problems.append(f"mean relative gap <= 0 in {losing}")
        return problems


WORKLOADS = {w.name: w for w in (CliRoundtrip, FitDeep, BenchSweep)}
