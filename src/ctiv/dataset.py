"""Immutable observational dataset plus CSV loading, splitting and trimming.

A unit carries a real outcome ``y``, a binary treatment receipt ``w``, a
binary assignment ``z`` and a numeric covariate row. Arrays are
normalised to fixed dtypes (float64 outcomes/covariates, int8 arms) so a
save/load round trip reproduces the dataset bit for bit.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDatasetError,
    InputError,
    MissingValueError,
    SchemaError,
    SplitError,
    ValidationError,
    require_binary,
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """N units with covariates, assignment z, receipt w and outcome y."""

    covariates: np.ndarray
    z: np.ndarray
    w: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        cov = np.asarray(self.covariates, dtype=np.float64)
        if cov.ndim != 2:
            raise InputError("covariates must be a 2-D array")
        n, k = cov.shape
        if n < 1 or k < 1:
            raise EmptyDatasetError("dataset needs at least one unit and one feature")
        if not np.isfinite(cov).all():
            raise ValidationError("covariates contain non-finite values")
        y = np.asarray(self.y, dtype=np.float64)
        if y.shape != (n,) or not np.isfinite(y).all():
            raise ValidationError("y must be a finite length-N vector")
        z = require_binary(self.z, "z").astype(np.int8)
        w = require_binary(self.w, "w").astype(np.int8)
        if z.shape != (n,) or w.shape != (n,):
            raise InputError("z and w must be length-N vectors")
        names = tuple(str(c) for c in self.feature_names)
        if len(names) != k or len(set(names)) != k:
            raise SchemaError("feature_names must be unique and match covariate columns")
        for arr in (cov, y, z, w):
            arr.setflags(write=False)
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_features(self) -> int:
        return self.covariates.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset holding the given rows (order as given)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise EmptyDatasetError("subset selects no rows")
        return Dataset(self.covariates[idx], self.z[idx], self.w[idx],
                       self.y[idx], self.feature_names)

    def equals(self, other: "Dataset") -> bool:
        """Exact field-wise equality, dtypes included."""
        return (
            self.feature_names == other.feature_names
            and self.covariates.dtype == other.covariates.dtype
            and np.array_equal(self.covariates, other.covariates)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.w, other.w)
            and np.array_equal(self.y, other.y)
        )


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/validation/test row indices into one dataset."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class ColumnSchema:
    """Maps CSV columns onto dataset roles.

    ``feature_cols=None`` means every column that is not y/w/z is a
    feature, in file order.
    """

    y_col: str = "y"
    w_col: str = "w"
    z_col: str = "z"
    feature_cols: tuple[str, ...] | None = None


def _parse_cell(raw: str, column: str, row_number: int) -> float:
    text = raw.strip() if raw is not None else ""
    if text == "":
        raise MissingValueError(
            f"blank value for column '{column}' at data row {row_number}")
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"non-numeric value '{text}' for column '{column}' at data row {row_number}"
        ) from None


# data lines numpy parses at a time; bounds the text held in memory
_READ_LINES = 8192
# rows save_csv formats at a time; each row's cells are Python strings
_WRITE_ROWS = 1024
_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})


def _read_header(reader, path: Path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, no header row") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: header row: {exc}") from None
    return [h.strip() for h in header]


def _numpy_rows(lines, width: int, cols: list[int],
                binary: tuple[int, ...]) -> np.ndarray | None:
    """One chunk of data lines parsed by numpy, or None if it is irregular.

    A regular chunk has no quote, exactly ``width - 1`` commas per line, no
    line longer than csv's field limit and no blank line, and its 0/1
    columns hold only 0 and 1. Any other chunk, and any ValueError, is left
    to the per-cell parser, which also words every error message.
    """
    if ('"' in "".join(lines)
            or set(map(str.count, lines, repeat(","))) != {width - 1}
            or any(map(_BLANK_LINES.__contains__, lines))
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    # comments=None: numpy would cut text at '#'. The blank lines numpy
    # would skip, csv.reader reports as rows of 0 cells (excluded above).
    block = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                       usecols=cols, ndmin=2)
    flags = block[:, list(binary)]
    if not ((flags == 0.0) | (flags == 1.0)).all():
        return None
    return block


def _reference_rows(path: Path, columns: list[str],
                    binary: tuple[int, ...]) -> np.ndarray:
    """Per-cell parse of every data row; the reference for values and errors.

    A row's 0/1 columns are checked as soon as the last of them is parsed.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        idx = [header.index(c) for c in columns]
        check_at = max(binary, default=-1)
        rows = []
        try:
            for i, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise ValidationError(f"{path}: data row {i} has {len(row)} "
                                          f"cells, expected {len(header)}")
                values = []
                for k, (j, name) in enumerate(zip(idx, columns)):
                    values.append(_parse_cell(row[j], name, i))
                    if k == check_at:
                        for b in binary:
                            if values[b] not in (0.0, 1.0):
                                raise ValidationError(
                                    f"{path}: column '{columns[b]}' must be 0/1 "
                                    f"but data row {i} has {values[b]:g}")
                rows.append(values)
        except csv.Error as exc:        # e.g. a cell over csv's field size limit
            raise ValidationError(
                f"{path}: data row {len(rows) + 1}: {exc}") from None
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(columns))


def read_csv_columns(path: str | Path,
                     choose: Callable[[list[str]], list[str]],
                     binary: tuple[int, ...] = ()) -> tuple[list[str], np.ndarray]:
    """The columns ``choose(header)`` names, as a float matrix with one row
    per data row.

    ``choose`` gets the stripped header and returns the column names to
    read, raising if the header does not fit. ``binary`` are positions in
    that list whose cells must be 0 or 1. Regular text is parsed by numpy,
    a chunk of lines at a time; any other file is re-read cell by cell.
    Row numbers in error messages are 1-based over data rows. A file that
    is not UTF-8 raises ValidationError.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = _read_header(csv.reader(fh), path)
            columns = choose(header)
            cols = [header.index(c) for c in columns]
            blocks = []
            regular = True
            try:
                while regular and (lines := list(islice(fh, _READ_LINES))):
                    blocks.append(_numpy_rows(lines, len(header), cols, binary))
                    regular = blocks[-1] is not None
            except ValueError:          # UnicodeDecodeError included
                regular = False
        if not regular:
            return columns, _reference_rows(path, columns, binary)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not blocks:
        return columns, np.empty((0, len(columns)))
    return columns, np.concatenate(blocks)


def load_csv(path: str | Path, schema: ColumnSchema = ColumnSchema()) -> Dataset:
    """Read a UTF-8 CSV with a header row into a Dataset.

    Row numbers in error messages are 1-based over data rows (the header
    is row 0).
    """
    path = Path(path)

    def choose(header: list[str]) -> list[str]:
        for role, col in (("y", schema.y_col), ("w", schema.w_col), ("z", schema.z_col)):
            if col not in header:
                raise SchemaError(f"{path}: missing required {role} column '{col}'")
        reserved = {schema.y_col, schema.w_col, schema.z_col}
        if schema.feature_cols is None:
            feature_cols = [c for c in header if c not in reserved]
        else:
            feature_cols = list(schema.feature_cols)
            for col in feature_cols:
                if col not in header:
                    raise SchemaError(f"{path}: missing feature column '{col}'")
        if not feature_cols:
            raise SchemaError(f"{path}: no feature columns remain")
        return [schema.y_col, schema.w_col, schema.z_col, *feature_cols]

    columns, data = read_csv_columns(path, choose, binary=(1, 2))
    if data.shape[0] == 0:
        raise EmptyDatasetError(f"{path}: no data rows")
    return Dataset(
        covariates=np.ascontiguousarray(data[:, 3:]),
        z=data[:, 2].astype(np.int8),
        w=data[:, 1].astype(np.int8),
        y=np.ascontiguousarray(data[:, 0]),
        feature_names=tuple(columns[3:]),
    )


def save_csv(ds: Dataset, path: str | Path,
             extra_columns: dict[str, np.ndarray] | None = None) -> None:
    """Write a dataset as CSV (columns: y, w, z, features, extras).

    Floats are written with ``repr`` so a reload reproduces every bit. The
    bytes are those ``csv.writer`` writes: CRLF line ends, arms as 0/1.
    """
    path = Path(path)
    extras = extra_columns or {}
    for name, col in extras.items():
        if len(col) != ds.n_units:
            raise InputError(f"extra column '{name}' has wrong length")
    # .tolist() gives Python ints for the arms and Python floats, whose str
    # is their repr; numpy 2 writes repr(np.float64(0.1)) as 'np.float64(0.1)'
    columns = [ds.y, ds.w, ds.z, *ds.covariates.T]
    columns += [np.asarray(col, dtype=np.float64) for col in extras.values()]
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["y", "w", "z", *ds.feature_names, *extras.keys()])
        for start in range(0, ds.n_units, _WRITE_ROWS):
            cells = [map(str, col[start:start + _WRITE_ROWS].tolist()) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def holdout_split(ds: Dataset | int,
                  fractions: tuple[float, float, float],
                  seed: int) -> SplitIndices:
    """Random disjoint train/validation/test partition of all rows.

    Validation and test sizes are floor(fraction * N); the remainder
    goes to train. Every declared-nonzero part must receive at least one
    unit.
    """
    n = ds if isinstance(ds, int) else ds.n_units
    f_tr, f_va, f_te = fractions
    if min(f_tr, f_va, f_te) < 0 or abs(f_tr + f_va + f_te - 1.0) > 1e-9:
        raise SplitError("fractions must be nonnegative and sum to 1")
    if f_tr <= 0:
        raise SplitError("train fraction must be positive")
    n_va = int(np.floor(f_va * n))
    n_te = int(np.floor(f_te * n))
    n_tr = n - n_va - n_te
    for name, frac, size in (("train", f_tr, n_tr), ("validation", f_va, n_va),
                             ("test", f_te, n_te)):
        if frac > 0 and size < 1:
            raise SplitError(
                f"{name} fraction {frac:g} yields no units at N={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return SplitIndices(
        train=np.sort(perm[:n_tr]).astype(np.int64),
        validation=np.sort(perm[n_tr:n_tr + n_va]).astype(np.int64),
        test=np.sort(perm[n_tr + n_va:]).astype(np.int64),
    )


def trim_by_propensity(ds: Dataset, e_hat: np.ndarray,
                       lo: float = 0.1, hi: float = 0.9) -> tuple[Dataset, np.ndarray]:
    """Drop units with extreme estimated propensities.

    Keeps rows with lo <= e_hat <= hi (closed bounds) and returns the
    trimmed dataset plus the kept row indices. Applying the same bounds
    to an already-trimmed dataset changes nothing.
    """
    if not (0.0 <= lo < hi <= 1.0):
        raise InputError(f"invalid trim bounds [{lo}, {hi}]")
    e = np.asarray(e_hat, dtype=np.float64)
    if e.shape != (ds.n_units,):
        raise InputError("e_hat must be a length-N vector")
    if not np.isfinite(e).all():
        raise InputError("e_hat contains non-finite values")
    kept = np.flatnonzero((e >= lo) & (e <= hi)).astype(np.int64)
    if kept.size == 0:
        raise EmptyDatasetError(
            f"no units with propensity inside [{lo}, {hi}]")
    return ds.subset(kept), kept
