"""Command line frontend.

Subcommands: fit, predict, simulate, bench. ``fit`` grows on a
``--train-frac`` share of the units and prices complexity on the rest.
Exit codes: 0 success, 1 usage problems, 2 data/validation problems
(and failed file access or memory allocation), 3 estimation failures.
Failures print a one-line JSON object to stderr so callers can parse
them. Every command writes its fully resolved configuration next to its
outputs; re-running the same invocation reproduces the outputs byte for
byte, and nothing time-dependent is ever written. One host dependence
remains: BLAS sums in an order that follows its thread count, one per
CPU by default, so the last digits of ``tree.json`` and
``leaf_report.csv`` can differ between CPU counts unless
``OPENBLAS_NUM_THREADS=1`` (or ``OMP_NUM_THREADS=1``) is set.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bench import DESIGN_LABELS, format_summary, results_csv, run_sweep
from .dataset import check_split, holdout_split, load_csv, read_csv_columns, save_csv
from .effects import WEAK_F_THRESHOLD
from .errors import CtivError, EstimationError, InputError, reading
from .synth import DESIGN_IDS, SCENARIOS, design_spec, generate
from .transform import RegimeKind
from .tree import GrowthConfig, export_dot, export_json, fit_ctiv, load_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ESTIMATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this package reserves 2 for
    # data errors, so usage problems are rerouted to exit code 1
    def error(self, message):
        raise _UsageError(message)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _parse_id_list(raw: str, allowed: set[str], what: str) -> list[str]:
    """Accepts '1,3,s1' and ascending ranges like '1-4' (or '3-3')."""
    items: list[str] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk and chunk not in allowed:
            lo, _, hi = chunk.partition("-")
            try:
                ids = [str(i) for i in range(int(lo), int(hi) + 1)]
            except ValueError:
                ids = []
            if not ids:                  # unparsable, or reversed like '5-4'
                raise _UsageError(f"bad {what} range '{chunk}'")
            items.extend(ids)
        else:
            items.append(chunk)
    for item in items:
        if item not in allowed:
            raise _UsageError(f"unknown {what} '{item}'")
    return _distinct(items, what)


def _distinct(items: list, what: str) -> list:
    # a repeated design or size would count its draws again as replicates
    if not items:
        raise _UsageError(f"no {what}s given")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise _UsageError(f"{what} '{item}' is given more than once")
    return items


def _add_growth_options(p) -> None:
    """The options fit and bench share, with GrowthConfig's defaults."""
    p.add_argument("--max-depth", type=int, default=GrowthConfig.max_depth)
    p.add_argument("--min-leaf-fraction", type=float,
                   default=GrowthConfig.min_leaf_fraction)
    p.add_argument("--min-arm-count", type=int, default=GrowthConfig.min_arm_count)


def _add_fit_parser(sub) -> None:
    p = sub.add_parser("fit", help="fit a tree on a CSV file")
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--regime", required=True,
                   choices=[k.value for k in RegimeKind])
    p.add_argument("--y-col", default="y")
    p.add_argument("--w-col", default="w")
    p.add_argument("--z-col", default="z")
    p.add_argument("--features", default=None,
                   help="comma-separated feature columns (default: all others)")
    _add_growth_options(p)
    p.add_argument("--alpha", type=float, default=None,
                   help="skip holdout selection and prune at this complexity price")
    p.add_argument("--ridge", type=float, default=GrowthConfig.ridge_lambda)
    p.add_argument("--trim-lo", type=float, default=GrowthConfig.trim_lo)
    p.add_argument("--trim-hi", type=float, default=GrowthConfig.trim_hi)
    p.add_argument("--train-frac", type=float, default=0.5,
                   help="share of the units to grow on; the rest validate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")


def _cmd_fit(args) -> int:
    # every check that needs no data runs before the file is read
    fractions = (args.train_frac, 1.0 - args.train_frac)
    check_split(fractions, args.seed)
    cfg = GrowthConfig(
        regime=args.regime,
        max_depth=args.max_depth,
        min_leaf_fraction=args.min_leaf_fraction,
        min_arm_count=args.min_arm_count,
        alpha_override=args.alpha,
        ridge_lambda=args.ridge,
        trim_lo=args.trim_lo,
        trim_hi=args.trim_hi,
    )
    features = None
    if args.features:
        features = [c.strip() for c in args.features.split(",") if c.strip()]
    ds = load_csv(args.input, y_col=args.y_col, w_col=args.w_col, z_col=args.z_col,
                  feature_cols=features)
    split = holdout_split(ds, fractions, seed=args.seed)
    tree = fit_ctiv(ds, cfg, split, args.seed)
    out = Path(args.out_dir)
    _write(out / "tree.json", export_json(tree))
    _write(out / "tree.dot", export_dot(tree))
    report = "node_id,n,itt_hat,pi_c_hat,cace_hat,cace_se,first_stage_f\n"
    for est in tree.estimates:
        report += (f"{est.leaf_id},{est.n},{est.itt_hat!r},{est.pi_c_hat!r},"
                   f"{est.cace_hat!r},{est.cace_se!r},{est.first_stage_f!r}\n")
    _write(out / "leaf_report.csv", report)
    config = _resolved_config(args)
    prop = tree.propensity
    config["resolved"] = {
        "alpha": tree.alpha,
        "n_input": tree.n_input,
        "n_trimmed": tree.n_trimmed,
        "n_omega": tree.n_omega,
        "adjust_covariates": tree.adjust_covariates,
        "overall_cace": tree.overall_cace,
        "n_leaves": tree.root.n_leaves(),
        # the logistic solver's state; null under iv-randomized, which fits none
        "propensity_converged": None if prop is None else prop.converged,
        "propensity_iterations": None if prop is None else prop.iterations,
    }
    _write(out / "run.json", json.dumps(config, sort_keys=True, indent=1))
    print(f"fitted {args.regime} tree: {tree.root.n_leaves()} leaves, "
          f"alpha={tree.alpha:.6g}, trimmed {tree.n_trimmed}/{tree.n_input}")
    print(f"overall CACE (complier-weighted): {tree.overall_cace:.4f}")
    weak = [est.leaf_id for est in tree.estimates if est.weak_instrument]
    if weak:
        print(f"weak-instrument leaves (first-stage F < {WEAK_F_THRESHOLD:g}): {weak}")
    for est in tree.estimates:
        print(f"  node {est.leaf_id}: n={est.n} itt={est.itt_hat:.4f} "
              f"pi_c={est.pi_c_hat:.4f} cace={est.cace_hat:.4f} "
              f"se={est.cace_se:.4f} F={est.first_stage_f:.1f}")
    return EXIT_OK


def _add_predict_parser(sub) -> None:
    p = sub.add_parser("predict", help="assign rows of a CSV to leaves")
    p.add_argument("--tree", required=True, help="tree.json from fit")
    p.add_argument("--input", required=True, help="CSV with feature columns")
    p.add_argument("--output", required=True, help="output CSV path")


def _cmd_predict(args) -> int:
    """Write each input row's leaf and its estimates. The header must name
    every feature the tree was fitted on, but only the columns its splits
    test are parsed, so a bad cell, or a repeated header name, in another
    column is no error; a tree of one leaf parses none and only counts the
    rows and their cells. An error in reading either file starts with its
    path."""
    with reading(args.tree):
        # one leading byte-order mark is skipped, as in a CSV
        tree = load_json(Path(args.tree).read_text(encoding="utf-8-sig"))
    names = list(tree.feature_names)
    used = tree.split_features()

    def choose(header: list[str]) -> list[str]:
        missing = [c for c in names if c not in header]
        if missing:
            raise InputError(f"missing feature columns {missing}; the tree "
                             f"expects {len(names)} features {names}")
        return [names[f] for f in used]

    _, columns = read_csv_columns(args.input, choose)
    # assign_leaves reads no other column: those stay zeros, column-major
    # so that their pages are never touched
    x = np.zeros((columns.shape[0], len(names)), order="F")
    x[:, used] = columns
    line = {est.leaf_id: f"{est.leaf_id},{est.itt_hat!r},{est.cace_hat!r},{est.cace_se!r}\n"
            for est in tree.estimates}
    text = "leaf_id,itt_hat,cace_hat,cace_se\n"
    text += "".join(map(line.__getitem__, tree.assign_leaves(x).tolist()))
    _write(Path(args.output), text)
    print(f"wrote {x.shape[0]} predictions to {args.output}")
    return EXIT_OK


def _add_simulate_parser(sub) -> None:
    p = sub.add_parser("simulate", help="draw one synthetic benchmark sample")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--design", type=int, choices=DESIGN_IDS)
    group.add_argument("--scenario", type=int, choices=SCENARIOS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cor-wz", type=float, default=None,
                   help="override the Cor(W,Z) target")
    p.add_argument("--cor-weta", type=float, default=None,
                   help="override the Cor(W,eta) target")
    p.add_argument("--out", required=True, help="output CSV path")


def _cmd_simulate(args) -> int:
    # a scenario is a twist on design 2
    spec = design_spec(args.design or 2, args.n, args.seed, args.cor_wz,
                       args.cor_weta, args.scenario)
    sample = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(sample.dataset, out, extra_columns={"true_cate": sample.true_cate})
    sidecar = asdict(spec) | {
        "k": spec.k,
        "error_dist": spec.error_dist,
        "realized_cor_wz": sample.realized_cor_wz,
        "realized_cor_weta": sample.realized_cor_weta,
        "true_cate_column": "true_cate",
    }
    _write(out.with_suffix(out.suffix + ".meta.json"),
           json.dumps(sidecar, sort_keys=True, indent=1))
    print(f"wrote {spec.n} units to {out} "
          f"(Cor(W,Z)={sample.realized_cor_wz:.3f}, "
          f"Cor(W,eta)={sample.realized_cor_weta:.3f})")
    return EXIT_OK


def _add_bench_parser(sub) -> None:
    p = sub.add_parser("bench", help="paired CT vs CT-IV sweep")
    p.add_argument("--designs", default="1-5",
                   help="e.g. '1-5', '2', '1,3,s1,s2'")
    p.add_argument("--sizes", default="500,1000,5000")
    p.add_argument("--seeds", type=int, default=10, help="replicates per cell")
    p.add_argument("--base-seed", type=int, default=0)
    _add_growth_options(p)
    p.add_argument("--out-dir", default=".")


def _cmd_bench(args) -> int:
    designs = _parse_id_list(args.designs, DESIGN_LABELS.keys(), "design")
    try:
        sizes = _distinct([int(s) for s in args.sizes.split(",") if s.strip()], "size")
    except ValueError:
        raise _UsageError(f"bad --sizes '{args.sizes}'") from None

    def progress(label, n, rep):
        print(f"  done design {label} n={n} rep {rep}", flush=True)

    results, failures = run_sweep(
        designs, sizes, args.seeds, base_seed=args.base_seed,
        max_depth=args.max_depth, min_leaf_fraction=args.min_leaf_fraction,
        min_arm_count=args.min_arm_count, progress=progress)
    summary = format_summary(results) if results else "no successful cells\n"
    out = Path(args.out_dir)
    _write(out / "results.csv", results_csv(results))
    _write(out / "summary.txt", summary)
    config = _resolved_config(args)
    config["resolved"] = {"designs": designs, "sizes": sizes,
                          "n_cells": len(results) + len(failures),
                          "n_failures": len(failures)}
    if failures:
        config["failures"] = failures
    _write(out / "run.json", json.dumps(config, sort_keys=True, indent=1))
    print(summary, end="")
    if failures:
        print(f"{len(failures)} cell(s) failed; see run.json")
    return EXIT_OK


def _resolved_config(args) -> dict:
    options = {k: v for k, v in vars(args).items() if k != "command"}
    return {"command": args.command, "version": __version__, "options": options}


_COMMANDS = {"fit": _cmd_fit, "predict": _cmd_predict, "simulate": _cmd_simulate,
             "bench": _cmd_bench}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctiv",
                     description="causal trees with instrumented assignment")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_fit_parser(sub)
    _add_predict_parser(sub)
    _add_simulate_parser(sub)
    _add_bench_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _emit_error("UsageError", str(exc))
        return EXIT_USAGE
    except EstimationError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_ESTIMATION
    except CtivError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_DATA
    except OSError as exc:
        _emit_error("OSError", str(exc))
        return EXIT_DATA
    except MemoryError as exc:          # numpy's _ArrayMemoryError too
        _emit_error("MemoryError", str(exc))
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
