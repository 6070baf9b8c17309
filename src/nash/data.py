"""Data ingestion, standardization and back-transformation of coefficients.

All model fitting happens on a standardized design (centered response,
centered predictor columns scaled to squared norm n-1); the helpers here
map between raw and standardized coordinates and load the CSV inputs the
command-line tools accept.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantColumnError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteError,
    ParseError,
)


@dataclass(frozen=True)
class Dataset:
    """Raw regression data: response ``y`` (length n) and predictors ``X`` (n x p)."""

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatchError("X must be a two-dimensional matrix")
        n, p = X.shape
        if n < 2 or p < 1:
            raise DimensionMismatchError(f"need n >= 2 rows and p >= 1 columns, got {n} x {p}")
        if y.ndim != 1 or y.shape[0] != n:
            raise LengthMismatchError(f"y has shape {y.shape}, expected ({n},)")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise NonFiniteError("non-finite entries in input data")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class StandardizedDesign:
    """Centered/scaled design: every column of ``Xs`` has mean 0 and squared norm n-1."""

    Xs: np.ndarray
    ys: np.ndarray
    y_mean: float
    col_means: np.ndarray
    col_scales: np.ndarray

    @property
    def n(self) -> int:
        return self.Xs.shape[0]

    @property
    def p(self) -> int:
        return self.Xs.shape[1]


@dataclass(frozen=True)
class SideInfo:
    """Per-covariate side information: nothing, a feature matrix, or a graph."""

    kind: str  # "none" | "features" | "graph"
    D: np.ndarray | None = None
    graph: object | None = None

    @classmethod
    def none(cls) -> "SideInfo":
        return cls(kind="none")

    @classmethod
    def from_features(cls, D: np.ndarray) -> "SideInfo":
        D = np.asarray(D, dtype=float)
        if D.ndim != 2:
            raise DimensionMismatchError("side-information features must form a 2-d matrix")
        if not np.isfinite(D).all():
            raise NonFiniteError("non-finite side-information entries")
        return cls(kind="features", D=D)

    @classmethod
    def from_graph(cls, graph) -> "SideInfo":
        return cls(kind="graph", graph=graph)

    def check_p(self, p: int) -> None:
        if self.kind == "features" and self.D.shape[0] != p:
            raise DimensionMismatchError(
                f"side information has {self.D.shape[0]} rows but the design has {p} columns"
            )
        if self.kind == "graph" and self.graph.p != p:
            raise DimensionMismatchError(
                f"graph has {self.graph.p} nodes but the design has {p} columns"
            )


def standardize(dataset: Dataset) -> StandardizedDesign:
    """Center y; center each column of X and scale it to sample standard deviation 1.

    After scaling every column satisfies x_j^T x_j = n - 1, the convention the
    coordinate updates in the engine rely on.  ``Xs`` is written straight into
    one Fortran-ordered array, so each column is contiguous for the engine's
    BLAS calls.  Columns with zero sample variance are a hard error (see
    ``drop_constant_columns`` for the permissive path).
    """
    X, y = dataset.X, dataset.y
    col_means = X.mean(axis=0)
    col_scales = X.std(axis=0, ddof=1)
    bad = np.flatnonzero(col_scales == 0.0)
    if bad.size:
        raise ConstantColumnError(int(bad[0]))
    Xs = np.empty(X.shape, order="F")
    np.subtract(X, col_means, out=Xs)
    Xs /= col_scales
    y_mean = float(y.mean())
    ys = y - y_mean
    return StandardizedDesign(Xs=Xs, ys=ys, y_mean=y_mean, col_means=col_means, col_scales=col_scales)


def unstandardize(b_scaled: np.ndarray, design: StandardizedDesign) -> tuple[np.ndarray, float]:
    """Map coefficients from standardized coordinates back to raw units.

    Returns ``(coefficients, intercept)`` such that raw-space predictions
    X @ coefficients + intercept equal standardized-space predictions plus
    the response mean.
    """
    b_scaled = np.asarray(b_scaled, dtype=float)
    if b_scaled.shape != (design.p,):
        raise LengthMismatchError(f"expected {design.p} coefficients, got shape {b_scaled.shape}")
    coefficients = b_scaled / design.col_scales
    intercept = design.y_mean - float(coefficients @ design.col_means)
    return coefficients, intercept


def drop_constant_columns(dataset: Dataset) -> tuple[Dataset, np.ndarray]:
    """Return a copy of the dataset without zero-variance columns plus the kept indices."""
    scales = dataset.X.std(axis=0, ddof=1)
    kept = np.flatnonzero(scales > 0.0)
    if kept.size == 0:
        raise ConstantColumnError(0)
    if kept.size == dataset.p:
        return dataset, kept
    return Dataset(y=dataset.y, X=dataset.X[:, kept]), kept


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

# Excel's "CSV UTF-8" export starts the file with a byte-order mark
CSV_ENCODING = "utf-8-sig"


def _parse_float(token: str, line: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"cannot parse {token!r} as a number", line, column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", line, column)
    return value


def _open_csv(path: str):
    try:
        return open(path, newline="", encoding=CSV_ENCODING)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _read_rows(fh) -> list[list[str]]:
    """The non-empty rows of an open CSV file, through the csv module."""
    try:
        return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise ParseError(f"cannot read {fh.name}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{fh.name} is not UTF-8 text") from None


def _looks_numeric(row: list[str]) -> bool:
    for token in row:
        try:
            float(token)
        except ValueError:
            return False
    return True


def _next_line(fh) -> tuple[int, str]:
    """Offset and text of the next non-empty line; the text is empty at end of file."""
    while True:
        offset = fh.tell()
        line = fh.readline()
        if not line or line.rstrip("\r\n"):
            return offset, line


def _load_plain_csv(fh) -> tuple[np.ndarray, list[str] | None] | None:
    """One ``np.loadtxt`` pass over a plain numeric CSV, or None to leave it to ``_read_rows``.

    Gives up wherever the result could differ from the field-by-field parse:
    on a quote in the first row, on no data rows, on any field ``loadtxt``
    rejects (quoted fields, ``1_000``, ragged rows, undecodable bytes...), on
    a header of another width and on non-finite entries.
    """
    try:
        offset, line = _next_line(fh)
        if not line or '"' in line:
            return None
        header = line.rstrip("\r\n").split(",")
        if _looks_numeric(header):
            header = None
        else:
            offset, line = _next_line(fh)
            if not line:
                return None
        fh.seek(offset)
        data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if (header is not None and data.shape[1] != len(header)) or not np.isfinite(data).all():
        return None
    return data, header


def load_matrix_csv(path: str) -> tuple[np.ndarray, list[str] | None]:
    """Read a numeric CSV matrix, tolerating an optional header row.

    The header is detected by the first row failing to parse as numbers.
    A header-only file yields a 0 x p matrix.  A plain numeric file is read
    in one ``np.loadtxt`` pass; anything else, and any file that cannot be
    read twice (a pipe), goes field by field through the csv module and
    ``float``, which report the line and column of the first bad field.
    """
    with _open_csv(path) as fh:
        if fh.seekable():
            plain = _load_plain_csv(fh)
            if plain is not None:
                return plain
            fh.seek(0)
        rows = _read_rows(fh)
    if not rows:
        raise ParseError(f"{path} is empty")
    header: list[str] | None = None
    start = 0
    if not _looks_numeric(rows[0]):
        header = rows[0]
        start = 1
    width = len(header) if header else len(rows[start]) if len(rows) > start else 0
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise ParseError(f"expected {width} fields, found {len(row)}", line=i + 1)
        for j, token in enumerate(row):
            data[i - start, j] = _parse_float(token, i + 1, j + 1)
    return data, header


def load_response_csv(path: str) -> np.ndarray:
    """Read the response vector: the first column of the file."""
    matrix, _ = load_matrix_csv(path)
    if matrix.shape[0] == 0:
        raise ParseError(f"{path} contains no response rows")
    return matrix[:, 0].copy()


def one_hot_encode(values: list[str]) -> tuple[np.ndarray, list[str]]:
    """Encode a categorical column as one indicator column per category.

    Categories are ordered lexicographically so the encoding is deterministic.
    """
    categories = sorted(set(values))
    index = {c: k for k, c in enumerate(categories)}
    out = np.zeros((len(values), len(categories)))
    for i, v in enumerate(values):
        out[i, index[v]] = 1.0
    return out, categories


def _side_has_header(rows: list[list[str]]) -> bool:
    """A side-info header exists when some column is text in row one but numeric below.

    Purely categorical columns are ambiguous, so a consistent first row counts
    as data.
    """
    if len(rows) < 2 or _looks_numeric(rows[0]):
        return False
    for j, token in enumerate(rows[0]):
        if not _looks_numeric([token]) and _looks_numeric([row[j] for row in rows[1:] if j < len(row)]):
            return True
    return False


def load_side_csv(path: str) -> tuple[np.ndarray, list[str]]:
    """Read per-covariate side features; non-numeric columns are one-hot encoded."""
    with _open_csv(path) as fh:
        rows = _read_rows(fh)
    if not rows:
        raise ParseError(f"{path} is empty")
    header: list[str] | None = None
    start = 0
    if _side_has_header(rows):
        header = rows[0]
        start = 1
    body = rows[start:]
    if not body:
        raise ParseError(f"{path} has no data rows")
    width = len(body[0])
    for i, row in enumerate(body):
        if len(row) != width:
            raise ParseError(f"expected {width} fields, found {len(row)}", line=start + i + 1)
    blocks: list[np.ndarray] = []
    labels: list[str] = []
    for j in range(width):
        col = [row[j] for row in body]
        name = header[j] if header else f"c{j}"
        if _looks_numeric(col):
            parsed = np.array([_parse_float(v, start + i + 1, j + 1) for i, v in enumerate(col)])
            blocks.append(parsed[:, None])
            labels.append(name)
        else:
            encoded, categories = one_hot_encode(col)
            blocks.append(encoded)
            labels.extend(f"{name}={c}" for c in categories)
    return np.hstack(blocks), labels
