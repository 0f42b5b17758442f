"""Module helpers for the tests: direct sums, operators in the column
convention, the JSON dump of a module, the dense matrix forms (builder,
transpose, text) that only the tests use, the reference construction of
the even simples as the image of the canonical map, the general inverse
of a spin's columns, and the earlier forms of ``qsl2.tensor`` (Kronecker
products of the operators with identities and K diagonals) and of
``qsl2._generating_spin`` (the greedy pass and prune alone).

A ``QMod`` stores each operator with row j the image of basis vector j.  The
column convention is its transpose: entry [i, j] is the coefficient of v_i in
the image of v_j, so that X @ op_m == op_n @ X for an intertwiner X: m -> n.
"""

from __future__ import annotations

from collections.abc import Sequence

from qsatake.errors import NoSolutionError
from qsatake.linalg import QMatrix, kronecker, reduce_rows
from qsatake.qsl2 import QMod, Spin
from qsatake.scalars import I, ONE, i_power


def dense_matrix(rows: int, cols: int, entries: Sequence) -> QMatrix:
    """The rows x cols matrix of a dense row-major sequence of values."""
    if len(entries) != rows * cols:
        raise ValueError("entry count must equal rows * cols")
    data: dict[int, dict] = {}
    for k, v in enumerate(entries):
        i, j = divmod(k, cols)
        data.setdefault(i, {})[j] = v
    return QMatrix(rows, cols, data)


def transpose(m: QMatrix) -> QMatrix:
    data: dict[int, dict] = {}
    for i, j, v in m.nonzero_entries():
        data.setdefault(j, {})[i] = v
    return QMatrix(m.cols, m.rows, data)


def dense_str(m: QMatrix) -> str:
    """Every entry, rows joined by "; ": "[a b; c d]"."""
    body = "; ".join(
        " ".join(str(m[i, j]) for j in range(m.cols)) for i in range(m.rows)
    )
    return f"[{body}]"


def block_diag(a: QMatrix, b: QMatrix) -> QMatrix:
    data: dict[int, dict] = {}
    for i, j, v in a.nonzero_entries():
        data.setdefault(i, {})[j] = v
    for i, j, v in b.nonzero_entries():
        data.setdefault(a.rows + i, {})[a.cols + j] = v
    return QMatrix(a.rows + b.rows, a.cols + b.cols, data)


def direct_sum(m: QMod, n: QMod) -> QMod:
    pairs = zip(m.operators(), n.operators())
    return QMod(
        m.weights + n.weights, *(block_diag(a, b) for (_, a), (_, b) in pairs)
    )


def column_operators(m: QMod) -> tuple:
    """(name, matrix) for E, F, E2, F2 in the column convention."""
    return tuple((name, transpose(op)) for name, op in m.operators())


def from_column_operators(weights: tuple, *ops: QMatrix) -> QMod:
    """The module with E, F, E2, F2 given in the column convention."""
    return QMod(weights, *(transpose(op) for op in ops))


def to_json_dict(m: QMod) -> dict:
    """Weights and the dense operators in the column convention, E[i][j] the
    coefficient of v_i in E v_j, every entry as its ``str``."""
    out: dict = {"weights": list(m.weights)}
    for name, op in m.operators():
        out[name] = [[str(op[j, i]) for j in range(op.rows)] for i in range(op.cols)]
    return out


def rows_of(m: QMatrix) -> list[dict]:
    """The rows of m as {col: value} dicts, empty rows included."""
    rows: list[dict] = [{} for _ in range(m.rows)]
    for i, j, v in m.nonzero_entries():
        rows[i][j] = v
    return rows


def reference_solve_matrix(a: QMatrix, b: QMatrix) -> QMatrix:
    """The unique echelon solution X of a @ X = b (free variables set to 0);
    NoSolutionError if any column of b is outside the column space."""
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    n = a.cols
    rows = []
    for i in sorted(a._data.keys() | b._data.keys()):
        row = dict(a._data.get(i, {}))
        for j, v in b._data.get(i, {}).items():
            row[n + j] = v
        if row:
            rows.append(row)
    pivots = reduce_rows(rows)
    data = {}
    for c, row in pivots.items():
        if c >= n:
            raise NoSolutionError("inconsistent linear system")
        sol = {j - n: v for j, v in row.items() if j >= n}
        if sol:
            data[c] = sol
    return QMatrix(n, b.cols, data)


def reference_restrict_to_span(m: QMod, columns: list[QMatrix]) -> QMod:
    """The submodule of m on the given weight-homogeneous, operator-stable
    columns, with each operator solved for in the new basis by
    ``reference_solve_matrix``."""
    if not columns:
        z = QMatrix.zeros(0, 0)
        return QMod((), z, z, z, z)
    weights = []
    stacked: dict[int, dict] = {}
    for k, col in enumerate(columns):
        (w,) = {m.weights[i] for i, _, _ in col.nonzero_entries()}
        weights.append(w)
        for i, _, v in col.nonzero_entries():
            stacked.setdefault(i, {})[k] = v
    b = QMatrix(m.dim, len(columns), stacked)
    return from_column_operators(
        tuple(weights),
        *(reference_solve_matrix(b, op @ b) for _, op in column_operators(m)),
    )


def reference_image(x: QMatrix) -> list[QMatrix]:
    """Canonical basis of the column space of x, in reduced column echelon
    form.  reference_restrict_to_span(dual_weyl(n), reference_image(
    canonical_map(n))) is the image of the canonical map as a module, the
    construction of the even simples before they were built in closed form."""
    pivots = reduce_rows(rows_of(transpose(x)))
    return [
        QMatrix(x.rows, 1, {i: {0: v} for i, v in pivots[c].items()})
        for c in sorted(pivots)
    ]


def reference_back(pivots: dict, dim: int) -> tuple:
    """Each basis vector c written over the echelon columns {lead: column} that
    span all dim coordinates, as {lead: coefficient}: row c of the reduced
    [columns | identity] is [e_c | e_c over the columns].  This general
    inverse is what ``qsl2._spun_source`` used before it back-substituted."""
    reduced = reduce_rows([{**col, dim + lead: ONE} for lead, col in pivots.items()])
    return tuple(
        {j - dim: v for j, v in reduced[c].items() if j >= dim} for c in range(dim)
    )


def k_matrix(m: QMod, power: int = 1) -> QMatrix:
    """The matrix of K**power on m: diagonal i^(power * weight)."""
    return QMatrix.diagonal([i_power(power * w) for w in m.weights])


def reference_tensor(m: QMod, n: QMod) -> QMod:
    """``qsl2.tensor`` as Kronecker products of the operators, identities and
    K diagonals, summed term by term.  The Kronecker products act on rows, so
    EK and FK^-1 appear as K E and K^-1 F."""
    id_m = QMatrix.identity(m.dim)
    id_n = QMatrix.identity(n.dim)
    k_m = k_matrix(m)
    kinv_n = k_matrix(n, -1)
    e = kronecker(m.e, id_n) + kronecker(k_m, n.e)
    f = kronecker(m.f, kinv_n) + kronecker(id_m, n.f)
    e2 = (
        kronecker(m.e2, id_n)
        + kronecker((k_m @ m.e).scale(I), n.e)
        + kronecker(k_matrix(m, 2), n.e2)
    )
    f2 = (
        kronecker(m.f2, k_matrix(n, -2))
        + kronecker(m.f.scale(I), kinv_n @ n.f)
        + kronecker(id_m, n.f2)
    )
    weights = tuple(wm + wn for wm in m.weights for wn in n.weights)
    return QMod(weights, e, f, e2, f2)


def reference_generating_spin(m: QMod) -> Spin:
    """``qsl2._generating_spin`` by its rule alone: greedy in index order, a
    basis vector joining when it lies outside the span spun up from those
    before it, then each chosen vector, in order, dropped if the remaining
    ones still span m, each trial spun from scratch."""
    spin = Spin(m)
    for i in range(m.dim):
        if len(spin.pivots) == m.dim:
            break
        spin.add([{i: ONE}])
    for seed in list(spin.seeds):
        rest = [s for s in spin.seeds if s is not seed]
        if not rest:
            break
        trial = Spin(m)
        trial.add(rest)
        if len(trial.pivots) == m.dim:
            spin = trial
    return spin
