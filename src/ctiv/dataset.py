"""Immutable observational dataset plus CSV loading, splitting and trimming.

A unit carries a real outcome ``y``, a binary treatment receipt ``w``, a
binary assignment ``z`` and a numeric covariate row. Arrays are
normalised to fixed dtypes (float64 outcomes/covariates, int8 arms) so a
save/load round trip reproduces the dataset bit for bit.
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import InputError, SchemaError, ValidationError, require_binary
from .parallel import fan_out, fork_workers


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
            raise ValidationError("dataset needs at least one unit and one feature")
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
        for name, arr in (("covariates", cov), ("y", y), ("z", z), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The dataset holding the given rows, in the order given.

        Every row in order is this dataset itself, and nothing is copied: a
        Dataset is frozen and its arrays are read-only, so no caller can
        tell the two apart. Any other rows (a permutation, a proper subset,
        a repeated row) are copied into a new Dataset.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValidationError("subset selects no rows")
        n = self.n_units
        if idx.shape == (n,) and (idx == np.arange(n)).all():
            return self
        return Dataset(self.covariates[idx], self.z[idx], self.w[idx],
                       self.y[idx], self.feature_names)


def _parse_cell(raw: str, column: str, row_number: int) -> float:
    text = raw.strip() if raw is not None else ""
    if text == "":
        raise ValidationError(
            f"blank value for column '{column}' at data row {row_number}")
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"non-numeric value '{text}' for column '{column}' at data row {row_number}"
        ) from None


# rows save_csv formats at a time: the text a worker hands back at once
_WRITE_ROWS = 1024
_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})
# bytes a read takes at a time, about a piece, and the least a process
# shares: text under twice this stays in one. Timed on design-2 files, one
# process against shared on 2 CPUs (medians of 15, alternating): save_csv
# gains from about 1.2 MiB (2.1 MiB: 161 ms against 123), load_csv breaks
# even at 2-3 MiB (2.6 MiB: 92 against 86) and gains by 4 (145 against 121)
_SHARE_BYTES = 1 << 20
# bytes save_csv writes per cell when it counts its workers: a float's
# repr is 17 to 24 characters
_CELL_BYTES = 20


def _pieces(fb, at: int = 0) -> Iterator[tuple[int, int, bytes]]:
    """The bytes of the binary stream ``fb`` from its offset ``at`` on, as
    pieces ``(start, stop, data)`` that tile them. ``fb`` is read
    ``_SHARE_BYTES`` at a time, and a piece ends after the last ``\\n`` of a
    read, else after its last ``\\r`` that a byte follows in it, else after
    a ``\\r`` that ended the read before; a read with none of these grows
    the piece. So every piece but the last ends where csv sees a line end
    too, and none parts a CRLF."""
    held = []                           # bytes read but in no piece: none is a \n
    while block := fb.read(_SHARE_BYTES):
        cut = block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, -1) + 1
        if cut or held and held[-1].endswith(b"\r"):
            data = b"".join([*held, memoryview(block)[:cut]])
            yield at, at + len(data), data
            at, held = at + len(data), [block[cut:]]
        else:
            held.append(block)
    if data := b"".join(held):
        yield at, at + len(data), data


def _read_header(path: Path, pieces: Iterator[tuple[int, int, bytes]]
                 ) -> tuple[list[str], Iterator[tuple[int, int, bytes]]]:
    """The stripped header row at the start of ``pieces`` (see
    ``_pieces``), and the pieces of the data rows after it. One leading
    byte-order mark is skipped: it is not part of the first cell."""
    held = []
    text = _lines(pieces, held)
    first = next(text, "").removeprefix("\ufeff")
    reader = csv.reader(chain([first] if first else [], text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, no header row") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: header row: {exc}") from None
    (start, stop, data), used = held
    rest = [(start + used, stop, data[used:])] if used < len(data) else []
    return [h.strip() for h in header], chain(rest, pieces)


def _lines(pieces: Iterable[tuple[int, int, bytes]], held: list) -> Iterator[str]:
    """The lines of ``pieces``, each decoded as it is reached: a line that
    is not UTF-8 raises UnicodeDecodeError after the lines before it.
    ``held`` is set to the piece of the last line yielded and its bytes up
    to that line's end."""
    for piece in pieces:
        used = 0
        for line in piece[2].splitlines(keepends=True):
            used += len(line)
            held[:] = piece, used
            yield line.decode("utf-8")


def _numpy_rows(lines, width: int, cols: list[int],
                binary: tuple[int, ...]) -> np.ndarray | None:
    """A piece's data lines parsed by numpy, or None if they are irregular.

    Regular lines have no quote, exactly ``width - 1`` commas per line, no
    line longer than csv's field limit and no blank line, and its 0/1
    columns hold only 0 and 1. Any other lines, and any ValueError, are left
    to the per-cell parser, which also words every error message.
    """
    if ('"' in "".join(lines)
            or set(map(str.count, lines, repeat(","))) != {width - 1}
            or any(map(_BLANK_LINES.__contains__, lines))
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    # comments=None: numpy would cut text at '#'. The blank lines numpy
    # would skip, csv.reader reports as rows of 0 cells (excluded above).
    try:
        block = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                           usecols=cols, ndmin=2)
    except ValueError:
        return None
    flags = block[:, list(binary)]
    if not ((flags == 0.0) | (flags == 1.0)).all():
        return None
    return block


def _reference_rows(rows: Iterator[list[str]], path: Path, header: list[str],
                    columns: list[str], binary: tuple[int, ...],
                    done: int) -> np.ndarray:
    """Per-cell parse of the data rows ``rows`` yields, numbered from
    ``done + 1``; the reference for values and errors.

    A row's 0/1 columns are checked as soon as the last of them is parsed.
    """
    idx = [header.index(c) for c in columns]
    check_at = max(binary, default=-1)
    parsed = []
    try:
        for i, row in enumerate(rows, start=done + 1):
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
            parsed.append(values)
    except csv.Error as exc:            # e.g. a cell over csv's field size limit
        raise ValidationError(
            f"{path}: data row {done + len(parsed) + 1}: {exc}") from None
    return np.asarray(parsed, dtype=np.float64).reshape(len(parsed), len(columns))


def _parse_piece(parse: Callable, path: Path, piece: tuple[int, int, bytes | None]):
    """``parse`` of the lines of ``piece``, a ``(start, stop, data)`` of
    ``_pieces`` whose data, where None, is read here from ``path``; or
    ``piece`` itself if they are irregular or not UTF-8."""
    start, stop, data = piece
    if data is None:
        with path.open("rb") as fb:
            fb.seek(start)
            data = fb.read(stop - start)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return piece
    block = parse(io.StringIO(text, newline="").readlines())
    return piece if block is None else block


def read_csv_columns(path: str | Path,
                     choose: Callable[[list[str]], list[str]],
                     binary: tuple[int, ...] = ()) -> tuple[list[str], np.ndarray]:
    """The columns ``choose(header)`` names, as a float matrix with one row
    per data row.

    ``choose`` gets the stripped header and returns the column names to
    read, raising if the header does not fit (SchemaError if it names
    one of them twice). ``binary`` are positions in
    that list whose cells must be 0 or 1. Regular text is parsed by numpy,
    in the pieces ``_pieces`` cuts: forked workers parse those of a regular
    file of at least twice ``_SHARE_BYTES`` and more than one piece, each
    reading its own span (see ``parallel.fan_out``), and this process those
    of other text, a pipe among them. From the first piece that is
    irregular or not UTF-8 on, this process parses the rows cell by cell,
    reading on from that piece's first byte, so no row is parsed twice and
    a pipe reads as a file does. A line that is not UTF-8 raises ValidationError once the
    rows before it are parsed. Then the first non-finite cell in row order
    raises ValidationError. Row numbers in error messages are 1-based over
    data rows. One leading byte-order mark is skipped.
    """
    path = Path(path)
    try:
        with path.open("rb") as fb:
            header, pieces = _read_header(path, _pieces(fb))
            columns = choose(header)
            twice = [name for name in columns if header.count(name) > 1]
            if twice:
                raise SchemaError(f"{path}: the header names column '{twice[0]}' more than once")
            parse = partial(_numpy_rows, width=len(header),
                            cols=[header.index(c) for c in columns], binary=binary)
            # a pipe's size reads as 0, or as the little it buffers; text of
            # one piece, which ends at the end of the file, stays in this process
            size = os.fstat(fb.fileno()).st_size
            first = next(pieces, None)
            shares = fork_workers(size // _SHARE_BYTES) if first and first[1] < size else 1
            pieces = chain([first] if first else [], pieces)
            tasks = pieces if shares == 1 else ((start, stop, None) for start, stop, _ in pieces)
            blocks, part = [], None
            with fan_out(partial(_parse_piece, parse, path), tasks, shares) as parts:
                for part in parts:
                    if isinstance(part, tuple):     # the first irregular piece
                        break
                    # copied as handed over: the pool's result thread unpickles into
                    # its own malloc arena, which so holds a piece or two, not them all
                    blocks.append(part.copy())
            if isinstance(part, tuple):
                # read on from its first byte here, a worker's span from the file
                pieces = _pieces(fb, fb.seek(part[0])) if part[2] is None else chain([part], pieces)
                blocks.append(_reference_rows(csv.reader(_lines(pieces, [])), path, header,
                                              columns, binary, sum(map(len, blocks))))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    data = np.concatenate([np.empty((0, len(columns))), *blocks])
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValidationError(f"{path}: non-finite value {float(data[row, col])!r} for "
                              f"column '{columns[col]}' at data row {row + 1}")
    return columns, data


def load_csv(path: str | Path, y_col: str = "y", w_col: str = "w", z_col: str = "z",
             feature_cols: Sequence[str] | None = None) -> Dataset:
    """Read a UTF-8 CSV with a header row into a Dataset; a leading
    byte-order mark is skipped.

    ``y_col``, ``w_col`` and ``z_col`` name the outcome, receipt and
    assignment columns, three distinct ones. ``feature_cols=None`` makes
    every other column a feature, in file order; else the features are the
    columns named, in that order, none of them twice or a role column.
    Row numbers in error messages are 1-based over data rows (the header
    is row 0).
    """
    path = Path(path)

    def choose(header: list[str]) -> list[str]:
        roles = (("y", y_col), ("w", w_col), ("z", z_col))
        for i, (role, col) in enumerate(roles):
            if col not in header:
                raise SchemaError(f"{path}: missing required {role} column '{col}'")
            for other, taken in roles[:i]:
                if col == taken:
                    raise SchemaError(f"{path}: the {other} and {role} roles "
                                      f"both name column '{col}'")
        if feature_cols is None:
            features = [c for c in header if c not in (y_col, w_col, z_col)]
        else:
            features = list(feature_cols)
            for i, col in enumerate(features):
                if col not in header:
                    raise SchemaError(f"{path}: missing feature column '{col}'")
                if col in features[:i]:
                    raise SchemaError(f"{path}: feature column '{col}' is named twice")
            for role, col in roles:
                if col in features:
                    raise SchemaError(f"{path}: feature column '{col}' is the {role} column")
        if not features:
            raise SchemaError(f"{path}: no feature columns remain")
        return [y_col, w_col, z_col, *features]

    columns, data = read_csv_columns(path, choose, binary=(1, 2))
    if data.shape[0] == 0:
        raise ValidationError(f"{path}: no data rows")
    return Dataset(
        covariates=np.ascontiguousarray(data[:, 3:]),
        z=data[:, 2].astype(np.int8),
        w=data[:, 1].astype(np.int8),
        y=np.ascontiguousarray(data[:, 0]),
        feature_names=tuple(columns[3:]),
    )


def _format_rows(columns: list[np.ndarray], piece: tuple[int, int]) -> str:
    """The CSV text of rows ``piece[0]`` to ``piece[1]``."""
    cells = [map(str, col[slice(*piece)].tolist()) for col in columns]
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def save_csv(ds: Dataset, path: str | Path,
             extra_columns: dict[str, np.ndarray] | None = None) -> None:
    """Write a dataset as CSV (columns: y, w, z, features, extras).

    Floats are written with ``repr`` so a reload reproduces every bit. The
    bytes are those ``csv.writer`` writes: CRLF line ends, arms as 0/1.
    Rows are formatted ``_WRITE_ROWS`` at a time, by forked workers when
    the text is large (see ``parallel.fan_out``), while this process
    writes each piece in order.
    """
    path = Path(path)
    header = ["y", "w", "z", *ds.feature_names]
    extras = {name: np.asarray(col) for name, col in (extra_columns or {}).items()}
    # each check keeps a file that load_csv would refuse from being written
    for name, col in extras.items():
        if name in header:
            raise InputError(f"extra column '{name}' repeats a column name")
        if col.shape != (ds.n_units,):
            raise InputError(f"extra column '{name}' has wrong length: shape {col.shape}, "
                             f"not ({ds.n_units},)")
        if col.dtype.kind not in "biuf" or not np.isfinite(col).all():
            raise InputError(f"extra column '{name}' must hold finite numbers")
    # .tolist() gives Python ints for the arms and Python floats, whose str
    # is their repr; numpy 2 writes repr(np.float64(0.1)) as 'np.float64(0.1)'
    columns = [ds.y, ds.w, ds.z, *ds.covariates.T]
    columns += [np.asarray(col, dtype=np.float64) for col in extras.values()]
    header += extras.keys()
    n = ds.n_units
    pieces = [(start, min(start + _WRITE_ROWS, n)) for start in range(0, n, _WRITE_ROWS)]
    workers = n * len(columns) * _CELL_BYTES // _SHARE_BYTES
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        with fan_out(partial(_format_rows, columns), pieces, workers) as texts:
            fh.writelines(texts)


def check_split(fractions: tuple[float, ...], seed: int) -> None:
    """Reject a negative seed, fractions that are not two numbers (or
    three, the third 0), or train and validation fractions that no
    sample size can partition by."""
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    try:
        f = np.asarray(fractions)
    except ValueError:                       # a ragged nesting
        f = np.empty(0)
    if f.shape not in ((2,), (3,)) or f.dtype.kind not in "biuf":
        raise InputError("fractions must be two numbers, (train, validation), "
                         "or those two and 0")
    if not np.isfinite(f).all():     # NaN passes every test below
        raise InputError("fractions must be finite")
    f_tr, f_va, *rest = f.tolist()
    if rest not in ([], [0.0]):
        raise InputError("a split has two parts: a third fraction must be 0")
    if min(f_tr, f_va) < 0 or abs(f_tr + f_va - 1.0) > 1e-9:
        raise InputError("fractions must be nonnegative and sum to 1")
    if f_tr <= 0:
        raise InputError("train fraction must be positive")


def holdout_split(ds: Dataset, fractions: tuple[float, ...],
                  seed: int) -> np.ndarray:
    """Random partition of the rows of ``ds`` into train and validation,
    as a read-only boolean mask over its rows that is True for train.

    ``fractions`` is (train, validation), summing to 1 (see
    ``check_split``). Validation gets floor((1 - train) * N) rows and
    train the rest: the train fraction alone sizes the split, as it does
    for ``ctiv fit --train-frac``. A part with a nonzero fraction must
    get at least one unit.
    """
    check_split(fractions, seed)
    n = ds.n_units
    f_tr = fractions[0]
    n_va = int(np.floor((1.0 - f_tr) * n))
    n_tr = n - n_va
    for name, frac, size in (("train", f_tr, n_tr), ("validation", 1.0 - f_tr, n_va)):
        if frac > 0 and size < 1:
            raise InputError(f"{name} fraction {frac:g} yields no units at N={n}")
    in_train = np.zeros(n, dtype=bool)
    in_train[np.random.default_rng(seed).permutation(n)[:n_tr]] = True
    in_train.setflags(write=False)
    return in_train


def check_trim_bounds(lo: float, hi: float) -> None:
    """Reject trim bounds other than 0 <= lo < hi <= 1 (NaN included)."""
    if not (0.0 <= lo < hi <= 1.0):
        raise InputError(f"invalid trim bounds [{lo}, {hi}]")


def trim_by_propensity(ds: Dataset, e_hat: np.ndarray,
                       lo: float, hi: float) -> tuple[Dataset, np.ndarray]:
    """Drop units with extreme estimated propensities.

    Keeps rows with lo <= e_hat <= hi (closed bounds) and returns the
    trimmed dataset plus the kept row indices. Applying the same bounds
    to an already-trimmed dataset changes nothing. When every row is kept
    the trimmed dataset is ``ds`` itself (see ``Dataset.subset``).
    """
    check_trim_bounds(lo, hi)
    e = np.asarray(e_hat, dtype=np.float64)
    if e.shape != (ds.n_units,):
        raise InputError("e_hat must be a length-N vector")
    if not np.isfinite(e).all():
        raise InputError("e_hat contains non-finite values")
    kept = np.flatnonzero((e >= lo) & (e <= hi)).astype(np.int64)
    if kept.size == 0:
        raise ValidationError(
            f"no units with propensity inside [{lo}, {hi}]")
    return ds.subset(kept), kept
