"""Golden bytes: sha256 of every CLI artefact, pinned against the reference
implementation (per-cell CSV parse and write, per-node argsort growth).

The rerun tests elsewhere compare two runs of the same code, so they cannot
see a change that alters output bytes consistently. These digests can. The
tied fit reads covariates rounded to one decimal, so many rows share a value
(and some are -0.0): that exercises the stable ordering of equal values in
the split search. The bench digests were taken from a serial sweep with
``np.isin`` as the 0/1 check, set operations for the split positions and a
per-row lookup of leaf effects; any worker count must reproduce them.
"""

import csv
import hashlib
import json

import pytest

import ctiv.parallel
import ctiv.tree
from ctiv.cli import EXIT_OK, main

FEATURES = ",".join(f"x{i}" for i in range(1, 11))

SIMULATE_CSV = "82a348978fe17d2dbbb939e6b776414d9747f9b913da726d23dd62590ac9e06f"
ROUNDED_CSV = "c0f30dbefd0ecf89adf2997da6cea52b87e1a0ea5fdc47c81ab670eb40451f57"

# (input, regime, extra fit flags) -> artefact digests
FITS = {
    "iv": ("sample.csv", "iv-unconfounded", (), {
        "tree.json": "5400601e2fdace66cddea32baa5cc316e3c9a4b7af81dc7cf0e13b3c0f135f5c",
        "tree.dot": "d74966bc9f331d56cb108891d3155b42c97e8d9da5f650905c8cbb9567c27172",
        "leaf_report.csv": "617686fe5f2de0445732c177b13034960fba05e4544dfd48d22d9ad6b2cda339",
        "predict.csv": "02b358053bb0a4190766a7a90218bd7b9f086b6ee5774a19f9c3f9b134ab49ba",
    }),
    "ct": ("sample.csv", "ct", ("--alpha", "0"), {
        "tree.json": "a4b77c061758f021ad7bf45aa91706069d505b7ad509f52fc684e126a159ead5",
        "tree.dot": "9a928dc58b33d8bd25c0f3f9ef823b44f04895960913f0c9fb0afea67c5ecd7b",
        "leaf_report.csv": "0f7d0f1231569c5768156825de3b67eed50fb74f3519419b8538eeef8ffc212c",
        "predict.csv": "3802aa2d8bda2e2116f196f23d25a4524eedd7702000a02b162cbce9b00cb643",
    }),
    # the one regime whose leaf TSLS is otherwise pinned nowhere: grown on
    # assignment, unadjusted; 13 leaves at alpha 0
    "ivr": ("sample.csv", "iv-randomized", ("--alpha", "0"), {
        "tree.json": "c25ff6ba9fab782ca8dffc4e1d3404f441286c2d5ad1e1bdf3cc6fc7220df6ab",
        "tree.dot": "bd58c7aec3471cb697ed8d939b19ebd8b086d0319ce1b8622a3bb023157a691e",
        "leaf_report.csv": "9c90e2b982a908430b9e9120a496b61abfce22069c781a62ae5d6a76912ecc74",
        "predict.csv": "78ec1a6e4340e898648fa7b2c12bdb72d0c0053a47310a87ad20dd69eff171d2",
    }),
    "tied": ("rounded.csv", "iv-unconfounded", ("--alpha", "0"), {
        "tree.json": "2251b01a866a2dd6067871711bfa777c6a734fd08582b20f89cdb9f8406f9d98",
        "tree.dot": "64500ac864c30b46a0f3613528bbd42aa7b62b558d3d9d339e3be1b5536804ea",
        "leaf_report.csv": "e916ae52dbaecba42d71958dfd1d86b6218807572cc5df95ec8550cbabd11d23",
        "predict.csv": "095eccefdcce470e990ba7e2d70175ce863edfba95f66bc5f34bd35f541d819d",
    }),
    # trims rows: the pooled rows are a copy of the kept ones, and the
    # holdout's parts are copied from them. The digests were taken with
    # --val-frac 0.6, the option that validation being the rest replaced
    "trimmed": ("sample.csv", "ct", ("--train-frac", "0.4",
                                     "--trim-lo", "0.4", "--trim-hi", "0.6"), {
        "tree.json": "3474fd5ddbc324e879a8eff93349af15051ee898ff26147aa16cf2a200b3fce9",
        "tree.dot": "9522bb259c74cf6942a5f692ca3f35ab912c226e617c38461e3bd804b7ebe59c",
        "leaf_report.csv": "aa16d43fa274f18b45931da8d1ff8277444fecadddc7db584413e97b5e7ca435",
        "predict.csv": "5406240413788a9c1236e9a001d7b26b458a7f36765d0d12db0fea57e67df373",
    }),
    # the same trim at alpha 0 keeps a grown tree, so its split labels and
    # the routing of the trimmed rows that predict scores are pinned too
    "trimmed-grown": ("sample.csv", "ct", ("--train-frac", "0.4", "--trim-lo", "0.4",
                                           "--trim-hi", "0.6", "--alpha", "0"), {
        "tree.json": "00a743c8a121a69abdb942032b29709974dfbc7009b0e32e502796fe7838cd27",
        "tree.dot": "eded45b39849507fe20d0427a1759188824420f6ead0b17fa3ae8e001390f915",
        "leaf_report.csv": "73ee5c8abd1db497188e224b93480ebf819eeb1ce0f846e6ddd8b67fe67b443d",
        "predict.csv": "6858af8f497316ff181bbae503c7472bb815b7ee3c2bd550b9759d30a8409e9a",
    }),
}


# `ctiv bench --designs 1-5,s1,s2 --sizes 300,600 --seeds 2`
BENCH = {
    "results.csv": "53d88028f412843d2368bc761a8cc080220714e6c60a7ba1ddd8487b2ae90bfc",
    "summary.txt": "7b483eac5cd9fed4aa4bb8c308aa97077ed4e8089374cd6062a311156eb0a01d",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == EXIT_OK, err


def write_rounded(src, dst):
    """Copy of ``src`` with every x column rounded to one decimal."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    lines = [",".join(header)]
    for row in rows[1:]:
        lines.append(",".join(
            repr(round(float(cell), 1)) if name.startswith("x") else cell
            for name, cell in zip(header, row)))
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    code = main(["simulate", "--design", "2", "--n", "3000", "--seed", "0",
                 "--out", str(d / "sample.csv")])
    assert code == EXIT_OK
    write_rounded(d / "sample.csv", d / "rounded.csv")
    return d


def test_simulate_bytes(inputs):
    assert sha256(inputs / "sample.csv") == SIMULATE_CSV
    assert sha256(inputs / "rounded.csv") == ROUNDED_CSV


@pytest.mark.parametrize("tag", sorted(FITS))
def test_fit_and_predict_bytes(inputs, tmp_path, capsys, tag):
    source, regime, extra, digests = FITS[tag]
    out = tmp_path / tag
    cli(capsys, "fit", "--input", str(inputs / source), "--regime", regime,
        "--features", FEATURES, "--max-depth", "4",
        "--min-leaf-fraction", "0.02", "--seed", "0", "--out-dir", str(out),
        *extra)
    cli(capsys, "predict", "--tree", str(out / "tree.json"),
        "--input", str(inputs / source), "--output", str(out / "predict.csv"))
    got = {name: sha256(out / name) for name in digests}
    assert got == digests
    if tag.startswith("trimmed"):       # rows were trimmed, and every kept one pooled
        resolved = json.loads((out / "run.json").read_text())["resolved"]
        assert 0 < resolved["n_trimmed"]
        assert resolved["n_omega"] == resolved["n_input"] - resolved["n_trimmed"]
        assert (resolved["n_leaves"] > 1) == (tag == "trimmed-grown")


@pytest.mark.skipif(not ctiv.parallel.fork_is_safe(), reason="cannot fork here")
def test_iv_fit_bytes_with_the_holdout_tree_grown_in_a_worker(
        inputs, tmp_path, capsys, monkeypatch):
    pools = []
    real = ctiv.parallel.ProcessPoolExecutor
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor",
                        lambda n, **kw: pools.append(n) or real(n, **kw))
    monkeypatch.setattr(ctiv.tree, "_OVERLAP_ROWS", 0)
    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: 2)
    test_fit_and_predict_bytes(inputs, tmp_path, capsys, "iv")
    assert pools == [1]                 # the CSV text is too small to share


def test_bench_bytes(tmp_path, capsys):
    cli(capsys, "bench", "--designs", "1-5,s1,s2", "--sizes", "300,600",
        "--seeds", "2", "--out-dir", str(tmp_path))
    assert {name: sha256(tmp_path / name) for name in BENCH} == BENCH
