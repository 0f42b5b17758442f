"""Exact sparse linear algebra over Q(i).

Matrices keep only their nonzero entries, and every operation walks those
alone; module operators shift weight, so almost all of their entries are 0.
Products, sums, scalings and elimination steps all accumulate a row at a time
through the one update loop ``scalars.axpy``.  There is no dense form and no
transpose: module operators are stored once, row j the image of basis vector
j, and every product and check reads those rows.

Everything is deterministic: pivoting always takes the first nonzero entry,
so reduced row echelon form (and therefore every reported basis) is canonical.
Equality of row spaces can be tested as equality of ``reduce_rows`` outputs,
and ``kernel`` bases are reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .errors import NoSolutionError
from .scalars import GaussianRational, ONE, ZERO, axpy


class QMatrix:
    """A rows x cols matrix of GaussianRationals that stores only its nonzeros.

    ``QMatrix(rows, cols, {row: {col: value}})`` is the one public
    constructor; results built here are adopted unchecked by ``_wrap``.  The
    entries live in that form, the row format that ``reduce_rows`` consumes;
    a stored value is never zero and a stored row is never empty, so equal
    matrices have equal storage.  Instances are immutable, and the row
    dictionaries are never mutated once wrapped, which lets operations share
    untouched rows between their operands and result and lets the hash be
    computed once and kept in ``_hash``.
    """

    __slots__ = ("rows", "cols", "_data", "_hash")

    def __init__(self, rows: int, cols: int, data: Mapping):
        """Build from ``{row: {col: value}}``; zero values may be present and
        are dropped, indices must lie inside the shape."""
        out: dict[int, dict] = {}
        for i, row in data.items():
            if not 0 <= i < rows:
                raise ValueError(f"row index {i} outside 0..{rows - 1}")
            kept = {}
            for j, e in row.items():
                if not 0 <= j < cols:
                    raise ValueError(f"column index {j} outside 0..{cols - 1}")
                v = GaussianRational.coerce(e)
                if v:
                    kept[j] = v
            if kept:
                out[i] = kept
        _init(self, rows, cols, out)

    @classmethod
    def _wrap(cls, rows: int, cols: int, data: dict) -> "QMatrix":
        """Adopt ``data`` as storage: no zero values, no empty rows, in range."""
        self = object.__new__(cls)
        _init(self, rows, cols, data)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls._wrap(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._wrap(n, n, {k: {k: ONE} for k in range(n)})

    @classmethod
    def diagonal(cls, values: Sequence) -> "QMatrix":
        n = len(values)
        return cls(n, n, {k: {k: v} for k, v in enumerate(values)})

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} outside shape ({self.rows}, {self.cols})")
        row = self._data.get(i)
        return row.get(j, ZERO) if row else ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, frozenset(self.nonzero_entries())))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "QMatrix") -> "QMatrix":
        """The sum; a row stored in only one operand is shared with it."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in +")
        data = dict(self._data)
        for i, brow in other._data.items():
            row = data.get(i)
            if row is None:
                data[i] = brow
                continue
            row = dict(row)
            axpy(row, ONE, brow)
            if row:
                data[i] = row
            else:
                del data[i]
        return QMatrix._wrap(self.rows, self.cols, data)

    def scale(self, c) -> "QMatrix":
        """c times this matrix; by 1 that is this matrix itself, as it is
        immutable."""
        c = GaussianRational.coerce(c)
        if not c:
            return QMatrix.zeros(self.rows, self.cols)
        if c == ONE:
            return self
        data: dict[int, dict] = {}
        for i, row in self._data.items():
            data[i] = scaled = {}
            axpy(scaled, c, row)
        return QMatrix._wrap(self.rows, self.cols, data)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in @")
        data: dict[int, dict] = {}
        for i, row in self._data.items():
            acc = vecmat(row, other)
            if acc:
                data[i] = acc
        return QMatrix._wrap(self.rows, other.cols, data)

    def is_zero(self) -> bool:
        return not self._data

    def nonzero_entries(self):
        """(i, j, value) for every nonzero entry, row-major order."""
        for i in sorted(self._data):
            row = self._data[i]
            for j in sorted(row):
                yield i, j, row[j]


def _init(m: QMatrix, rows: int, cols: int, data: dict) -> None:
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "_data", data)
    object.__setattr__(m, "_hash", None)


def vecmat(vec: Mapping, m: QMatrix) -> dict:
    """The sparse row vector ``vec @ m``: the sum of vec[k] times row k of m,
    as a new {col: value} dict."""
    out: dict = {}
    rows = m._data
    for k, a in vec.items():
        row = rows.get(k)
        if row is not None:
            axpy(out, a, row)
    return out


def kronecker(a: QMatrix, b: QMatrix) -> QMatrix:
    """Kronecker product; index (i, j) of the product space is i * b.dim + j."""
    data: dict[int, dict] = {}
    for i, arow in a._data.items():
        for j, brow in b._data.items():
            data[i * b.rows + j] = {
                k * b.cols + l: va * vb
                for k, va in arow.items()
                for l, vb in brow.items()
            }
    return QMatrix._wrap(a.rows * b.rows, a.cols * b.cols, data)


def insert_row(pivots: dict, row: Mapping, steps: list | None = None) -> dict | None:
    """One forward elimination step against echelon rows {pivot column: row}.

    While the leading column of (a copy of) ``row`` has a pivot row, that
    row's multiple is subtracted.  A leftover is scaled to 1 at its lead,
    stored in ``pivots`` and returned; None means the row was dependent.
    Stored rows are not back-substituted.  A ``steps`` list receives
    (pivot column, factor) for each step, the factor being the multiple of
    that pivot row added to the row, and, when the row is kept, a last
    (lead, scale) pair, so the same steps can be replayed elsewhere by adding.
    """
    row = dict(row)
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            inv = row[c].inverse()
            if steps is not None:
                steps.append((c, inv))
            pivots[c] = scaled = {}
            axpy(scaled, inv, row)
            return scaled
        f = -row.pop(c)
        if steps is not None:
            steps.append((c, f))
        axpy(row, f, piv, c)
    return None


def reduce_rows(rows: Iterable[Mapping]) -> dict:
    """Reduced row echelon form of sparse rows ({column: coefficient}).

    Returns {pivot column: reduced row}; each reduced row has coefficient 1 at
    its pivot column and zeros at every other pivot column.  The result is the
    canonical RREF of the row space, independent of input order.
    """
    pivots: dict[int, dict] = {}
    for r in rows:
        insert_row(pivots, r)
    # Back-substitute; descending order makes one pass sufficient.
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for cc in sorted(k for k in row if k != c and k in pivots):
            axpy(row, -row.pop(cc), pivots[cc], cc)
    return pivots


def rank(m: QMatrix) -> int:
    return len(reduce_rows(list(m._data.values())))


def kernel(rows: Iterable[Mapping], cols: int) -> list[dict]:
    """Canonical basis of the right null space of the sparse rows ``rows``
    over columns 0..cols-1, as {column: value} vectors.

    One vector per free column f: coefficient 1 at f, zero at the other free
    columns, pivot coordinates determined by the RREF.  Each vector's keys
    are in increasing order, since a pivot row holds entries only after its
    pivot.
    """
    pivots = reduce_rows(list(rows))
    vectors = {f: {} for f in range(cols) if f not in pivots}
    for c in sorted(pivots):
        for f, w in pivots[c].items():
            if f != c:
                vectors[f][c] = -w
    for f, vector in vectors.items():
        vector[f] = ONE
    return list(vectors.values())


def solve_matrix(rows: list[Mapping], n: int) -> dict:
    """The echelon solution {unknown: value} of the augmented sparse rows
    ``rows`` over unknowns 0..n-1, whose right-hand side is column n; free
    unknowns are 0, and unknowns at 0 are left out.

    Raises NoSolutionError if the right-hand side is outside the column space.
    """
    solution = {}
    for c, row in reduce_rows(rows).items():
        if c >= n:
            raise NoSolutionError("inconsistent linear system")
        v = row.get(n)
        if v is not None:
            solution[c] = v
    return solution
