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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
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
        raise ValidationError(
            f"blank value for column '{column}' at data row {row_number}")
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"non-numeric value '{text}' for column '{column}' at data row {row_number}"
        ) from None


# data lines one process parses at a time, which bound the text it holds
_READ_LINES = 8192
# rows save_csv formats at a time: the text a worker hands back at once
_WRITE_ROWS = 1024
_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})
# bytes of CSV text in a read's piece, and the least a process shares, so
# text under twice this stays in one process. Timed on design-2 files, one
# process against shared on 2 CPUs (medians of 15, alternating): save_csv
# gains from about 1.2 MiB (2.1 MiB: 161 ms against 123), load_csv breaks
# even at 2-3 MiB (2.6 MiB: 92 against 86) and gains by 4 (145 against 121)
_SHARE_BYTES = 1 << 20
# bytes save_csv writes per cell when it counts its workers: a float's
# repr is 17 to 24 characters
_CELL_BYTES = 20


def _read_header(fh, path: Path) -> tuple[list[str], int]:
    """The stripped header row of ``fh``, open as text at its start, and
    the lines it spans; ``fh`` is left just past it. One leading
    byte-order mark is skipped: it is not part of the first cell."""
    first = fh.readline().removeprefix("\ufeff")
    reader = csv.reader(chain([first] if first else [], fh))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, no header row") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: header row: {exc}") from None
    return [h.strip() for h in header], reader.line_num


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


def _data_pieces(path: Path, fh, header_lines: int) -> list[tuple[int, int]]:
    """Byte spans ``(start, stop)`` of the data rows, about ``_SHARE_BYTES``
    each: the first from the header's end, every other just after a
    ``\\n``, where a line and UTF-8 decoding can start. ``fh`` is ``path``
    open as text just past its header of ``header_lines`` lines, and is
    left there."""
    size = os.fstat(fh.fileno()).st_size
    fh.seek(0)
    # read from the start, the header text keeps a byte-order mark's 3 bytes
    start = len("".join(islice(fh, header_lines)).encode("utf-8"))
    cuts = [start]
    with path.open("rb") as fb:
        for at in range(start + _SHARE_BYTES, size, _SHARE_BYTES):
            if at >= cuts[-1]:          # else the last cut is the one here too
                fb.seek(at)
                while (line := fb.readline(1 << 16)) and not line.endswith(b"\n"):
                    pass
                cuts.append(fb.tell())
    cuts = [cut for cut in cuts if cut < size]
    return list(zip(cuts, cuts[1:] + [size]))


def _parse_piece(parse: Callable, path: Path, piece: tuple[int, int]) -> np.ndarray | None:
    """A worker's piece of ``path``: ``parse`` of its lines, or None if
    they are irregular or not UTF-8."""
    with path.open("rb") as fb:
        fb.seek(piece[0])
        data = fb.read(piece[1] - piece[0])
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return parse(io.StringIO(text, newline="").readlines())


def _shared_rows(parse: Callable, path: Path, fh,
                 header_lines: int) -> list[np.ndarray] | None:
    """The data rows of ``path``, ``parse`` of each of its pieces in
    forked workers (see ``parallel.fan_out``), or None if the text is read
    in one process: small text, a pipe (whose size reads as 0, or as the
    little it buffers), a host where forking is unsafe, text that is one
    piece (no ``\\n`` to cut at), or an irregular piece. ``fh`` is as for
    ``_data_pieces`` and is left there."""
    shares = fork_workers(os.fstat(fh.fileno()).st_size // _SHARE_BYTES)
    pieces = _data_pieces(path, fh, header_lines) if shares > 1 else []
    if len(pieces) < 2:
        return None
    with fan_out(partial(_parse_piece, parse, path), pieces, shares) as parts:
        # copied as handed over: the pool's result thread unpickles into
        # its own malloc arena, which so holds a piece or two, not them all
        blocks = [part if part is None else part.copy() for part in parts]
    return None if any(block is None for block in blocks) else blocks


def _lines_then(lines: list[str], exc: Exception) -> Iterator[str]:
    """``lines``, then ``exc`` raised."""
    yield from lines
    raise exc


def _streamed_rows(parse: Callable, fh) -> tuple[list[np.ndarray], Iterable[str] | None]:
    """The lines left in ``fh``, read ``_READ_LINES`` at a time, each chunk
    parsed by ``parse``: (blocks, None).

    Once a chunk is irregular, it returns the blocks before it and the
    rest of ``fh``'s lines from that chunk's first one on. Text that is
    not UTF-8 ends a chunk: its rest is the chunk's lines decoded before
    it, then the UnicodeDecodeError.
    """
    blocks = []
    while True:
        lines = []
        try:
            for line in islice(fh, _READ_LINES):
                lines.append(line)
        except UnicodeDecodeError as exc:
            return blocks, _lines_then(lines, exc)
        if not lines:
            return blocks, None
        block = parse(lines)
        if block is None:
            return blocks, chain(lines, fh)
        blocks.append(block)


def read_csv_columns(path: str | Path,
                     choose: Callable[[list[str]], list[str]],
                     binary: tuple[int, ...] = ()) -> tuple[list[str], np.ndarray]:
    """The columns ``choose(header)`` names, as a float matrix with one row
    per data row.

    ``choose`` gets the stripped header and returns the column names to
    read, raising if the header does not fit (SchemaError if it names
    one of them twice). ``binary`` are positions in
    that list whose cells must be 0 or 1. Regular text is parsed by numpy.
    Text that ``_shared_rows`` shares is cut into byte pieces of about
    ``_SHARE_BYTES`` at line starts; forked workers parse them and hand
    their arrays back (see ``parallel.fan_out``), and this process parses
    none. Other text, and all text once a piece is irregular, this process
    reads to the end of the open file, a chunk of lines at a time; from the
    first irregular chunk on, the rows are parsed cell by cell from the
    same open file, so a pipe reads as a file does. Then the first
    non-finite cell in row order raises ValidationError. Row numbers in
    error messages are 1-based over data rows. Text that is not UTF-8
    raises ValidationError; one leading byte-order mark is skipped.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header, header_lines = _read_header(fh, path)
            columns = choose(header)
            twice = [name for name in columns if header.count(name) > 1]
            if twice:
                raise SchemaError(f"{path}: the header names column '{twice[0]}' more than once")
            parse = partial(_numpy_rows, width=len(header),
                            cols=[header.index(c) for c in columns], binary=binary)
            blocks = _shared_rows(parse, path, fh, header_lines)
            if blocks is None:
                blocks, rest = _streamed_rows(parse, fh)
                if rest is not None:
                    blocks.append(_reference_rows(csv.reader(rest), path, header, columns,
                                                  binary, sum(map(len, blocks))))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    data = np.concatenate([np.empty((0, len(columns))), *blocks])
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValidationError(f"{path}: non-finite value {float(data[row, col])!r} for "
                              f"column '{columns[col]}' at data row {row + 1}")
    return columns, data


def load_csv(path: str | Path, schema: ColumnSchema = ColumnSchema()) -> Dataset:
    """Read a UTF-8 CSV with a header row into a Dataset; a leading
    byte-order mark is skipped.

    Row numbers in error messages are 1-based over data rows (the header
    is row 0).
    """
    path = Path(path)

    def choose(header: list[str]) -> list[str]:
        roles = (("y", schema.y_col), ("w", schema.w_col), ("z", schema.z_col))
        for i, (role, col) in enumerate(roles):
            if col not in header:
                raise SchemaError(f"{path}: missing required {role} column '{col}'")
            for other, taken in roles[:i]:
                if col == taken:
                    raise SchemaError(f"{path}: the {other} and {role} roles "
                                      f"both name column '{col}'")
        if schema.feature_cols is None:
            reserved = {col for _, col in roles}
            feature_cols = [c for c in header if c not in reserved]
        else:
            feature_cols = list(schema.feature_cols)
            for col in feature_cols:
                if col not in header:
                    raise SchemaError(f"{path}: missing feature column '{col}'")
            for role, col in roles:
                if col in feature_cols:
                    raise SchemaError(f"{path}: feature column '{col}' is the {role} column")
        if not feature_cols:
            raise SchemaError(f"{path}: no feature columns remain")
        return [schema.y_col, schema.w_col, schema.z_col, *feature_cols]

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
    extras = extra_columns or {}
    for name, col in extras.items():
        if len(col) != ds.n_units:
            raise InputError(f"extra column '{name}' has wrong length")
    # .tolist() gives Python ints for the arms and Python floats, whose str
    # is their repr; numpy 2 writes repr(np.float64(0.1)) as 'np.float64(0.1)'
    columns = [ds.y, ds.w, ds.z, *ds.covariates.T]
    columns += [np.asarray(col, dtype=np.float64) for col in extras.values()]
    header = ["y", "w", "z", *ds.feature_names, *extras.keys()]
    n = ds.n_units
    pieces = [(start, min(start + _WRITE_ROWS, n)) for start in range(0, n, _WRITE_ROWS)]
    workers = fork_workers(n * len(columns) * _CELL_BYTES // _SHARE_BYTES)
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


def holdout_split(ds: Dataset | int, fractions: tuple[float, ...],
                  seed: int) -> np.ndarray:
    """Random partition of all rows into train and validation, as a
    read-only boolean mask over the rows that is True for train.

    ``fractions`` is (train, validation), summing to 1 (see
    ``check_split``). Validation gets floor((1 - train) * N) rows and
    train the rest: the train fraction alone sizes the split, as it does
    for ``ctiv fit --train-frac``. A part with a nonzero fraction must
    get at least one unit.
    """
    check_split(fractions, seed)
    n = ds if isinstance(ds, int) else ds.n_units
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
