"""Weight-graded modules over divided-power quantum sl2 at q = i.

A module is stored as its weight list together with the four operator
matrices E, F, E2 = E^(2), F2 = F^(2); the torus generator K is never stored
since it acts on a weight-w vector by i^w.  At a fourth root of unity [2] = 0,
so E and F square to zero and the divided squares carry independent
information; the five operator identities in ``integrity_violations`` pin the
structure down completely for the generator set used here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .characters import WeightCharacter
from .errors import DomainError, InternalInconsistencyError
from .linalg import (
    QMatrix,
    block_diag,
    image,
    kernel,
    kronecker,
    rank,
    solve_matrix,
)
from .scalars import GaussianRational, I, ZERO, gauss_binomial, i_power, qint


@dataclass(frozen=True)
class QMod:
    """A finite-dimensional weight-graded module at q = i."""

    weights: tuple[int, ...]
    e: QMatrix
    f: QMatrix
    e2: QMatrix
    f2: QMatrix

    def __post_init__(self):
        d = len(self.weights)
        for op in (self.e, self.f, self.e2, self.f2):
            if op.rows != d or op.cols != d:
                raise ValueError("operator shape does not match weight count")

    @property
    def dim(self) -> int:
        return len(self.weights)

    def k_matrix(self, power: int = 1) -> QMatrix:
        """The matrix of K**power: diagonal i^(power * weight)."""
        return QMatrix.diagonal([i_power(power * w) for w in self.weights])

    def operators(self):
        return (("E", self.e), ("F", self.f), ("E2", self.e2), ("F2", self.f2))

    def to_json_dict(self) -> dict:
        def dump(m: QMatrix) -> list:
            return [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]

        return {
            "weights": list(self.weights),
            "E": dump(self.e),
            "F": dump(self.f),
            "E2": dump(self.e2),
            "F2": dump(self.f2),
        }


OP_WEIGHT_SHIFT = {"E": 2, "F": -2, "E2": 4, "F2": -4}


def integrity_violations(m: QMod) -> list[str]:
    """All failures of the five operator identities; empty when m is a module.

    1. each operator shifts weights by its fixed amount,
    2. E@E = 0 and F@F = 0,
    3. E@F - F@E = diag([w]),
    4. E@E2 = E2@E and F@F2 = F2@F,
    5. E@F2 - F2@E = F @ diag([w - 1]).
    """
    out = []
    for name, op in m.operators():
        shift = OP_WEIGHT_SHIFT[name]
        for i, j, _ in op.nonzero_entries():
            if m.weights[i] != m.weights[j] + shift:
                out.append(
                    f"{name}[{i},{j}] maps weight {m.weights[j]} to "
                    f"{m.weights[i]}, expected shift {shift}"
                )
    if not (m.e @ m.e).is_zero():
        out.append("E@E != 0")
    if not (m.f @ m.f).is_zero():
        out.append("F@F != 0")
    h = QMatrix.diagonal([qint(w) for w in m.weights])
    if m.e @ m.f - m.f @ m.e != h:
        out.append("E@F - F@E != diag([w])")
    if m.e @ m.e2 != m.e2 @ m.e:
        out.append("E@E2 != E2@E")
    if m.f @ m.f2 != m.f2 @ m.f:
        out.append("F@F2 != F2@F")
    hm1 = QMatrix.diagonal([qint(w - 1) for w in m.weights])
    if m.e @ m.f2 - m.f2 @ m.e != m.f @ hm1:
        out.append("E@F2 - F2@E != F@diag([w-1])")
    return out


@lru_cache(maxsize=None)
def weyl(n: int) -> QMod:
    """Weyl module with basis v_0 ... v_n generated by the highest weight vector.

    F^(r) v_j = [j+r, r] v_{j+r} and E^(r) v_j = [n-j+r, r] v_{j-r} in the
    divided-power basis; K v_j = q^(n-2j) v_j.
    """
    if n < 0:
        raise DomainError(f"weyl requires n >= 0, got {n}")
    d = n + 1
    e = [ZERO] * (d * d)
    f = [ZERO] * (d * d)
    e2 = [ZERO] * (d * d)
    f2 = [ZERO] * (d * d)
    for j in range(d):
        if j >= 1:
            e[(j - 1) * d + j] = gauss_binomial(n - j + 1, 1)
        if j >= 2:
            e2[(j - 2) * d + j] = gauss_binomial(n - j + 2, 2)
        if j + 1 < d:
            f[(j + 1) * d + j] = gauss_binomial(j + 1, 1)
        if j + 2 < d:
            f2[(j + 2) * d + j] = gauss_binomial(j + 2, 2)
    return QMod(
        tuple(n - 2 * j for j in range(d)),
        QMatrix(d, d, e),
        QMatrix(d, d, f),
        QMatrix(d, d, e2),
        QMatrix(d, d, f2),
    )


@lru_cache(maxsize=None)
def dual_weyl(n: int) -> QMod:
    """Contravariant dual of weyl(n): transpose and exchange E <-> F, E2 <-> F2."""
    if n < 0:
        raise DomainError(f"dual_weyl requires n >= 0, got {n}")
    w = weyl(n)
    return QMod(
        w.weights,
        w.f.transpose(),
        w.e.transpose(),
        w.f2.transpose(),
        w.e2.transpose(),
    )


def intertwiner_basis(m: QMod, n: QMod) -> list[QMatrix]:
    """Canonical basis of weight-preserving maps commuting with all four operators.

    Unknowns are the weight-matched entries X[a, b] of X: n.dim x m.dim
    (row-major).  Each operator's equations X @ op_M - op_N @ X = 0 are
    assembled from its nonzeros: unknown X[a, c] meets op_M[c, b], and unknown
    X[c, b] meets op_N[a, c], both in equation (a, b).  Equations that receive
    no term, or whose terms cancel, are never built; the rest are kept in
    (operator, a, b) order.  The kernel is read off the canonical RREF, so the
    basis is exactly that of one big dense solve over all n.dim * m.dim
    entries of X with X[a, b] = 0 added wherever the weights differ.
    """
    positions = [
        (a, b)
        for a in range(n.dim)
        for b in range(m.dim)
        if n.weights[a] == m.weights[b]
    ]
    if not positions:
        return []
    rows = []
    for (_, op_m), (_, op_n) in zip(m.operators(), n.operators()):
        op_m_rows = [op_m.row(c) for c in range(m.dim)]
        op_n_t = op_n.transpose()
        op_n_cols = [op_n_t.row(c) for c in range(n.dim)]
        eqs: dict[tuple[int, int], dict] = {}
        for k, (a, c) in enumerate(positions):
            for b, v in op_m_rows[c].items():
                row = eqs.setdefault((a, b), {})
                cur = row.get(k)
                row[k] = v if cur is None else cur + v
        for k, (c, b) in enumerate(positions):
            for a, v in op_n_cols[c].items():
                row = eqs.setdefault((a, b), {})
                cur = row.get(k)
                row[k] = -v if cur is None else cur - v
        for key in sorted(eqs):
            row = {k: v for k, v in eqs[key].items() if v}
            if row:
                rows.append(row)
    system = QMatrix.from_row_dicts(len(rows), len(positions), dict(enumerate(rows)))
    basis = []
    for vec in kernel(system):
        x: dict[int, dict] = {}
        for k, _, v in vec.nonzero_entries():
            a, b = positions[k]
            x.setdefault(a, {})[b] = v
        basis.append(QMatrix.from_row_dicts(n.dim, m.dim, x))
    return basis


def canonical_map(n: int) -> QMatrix:
    """The intertwiner weyl(n) -> dual_weyl(n), highest weight vector to
    highest weight vector with coefficient 1.

    The intertwiner space is one-dimensional for every n; anything else is an
    internal inconsistency.
    """
    if n < 0:
        raise DomainError(f"canonical_map requires n >= 0, got {n}")
    basis = intertwiner_basis(weyl(n), dual_weyl(n))
    if len(basis) != 1:
        raise InternalInconsistencyError(
            f"Hom(weyl({n}), dual_weyl({n})) has dimension {len(basis)}, expected 1"
        )
    x = basis[0]
    top = x[0, 0]
    if not top:
        raise InternalInconsistencyError(
            f"canonical map for n={n} kills the highest weight vector"
        )
    return x.scale(top.inverse())


def restrict_to_span(m: QMod, columns: list[QMatrix]) -> QMod:
    """The submodule of m spanned by the given (weight-homogeneous,
    operator-stable) column vectors, with operators in the new basis."""
    if not columns:
        z = QMatrix.zeros(0, 0)
        return QMod((), z, z, z, z)
    weights = []
    for col in columns:
        seen = {m.weights[i] for i, _, v in col.nonzero_entries() if v}
        if len(seen) != 1:
            raise InternalInconsistencyError(
                "submodule basis vector is not weight-homogeneous"
            )
        weights.append(seen.pop())
    b = QMatrix.hstack(columns)
    ops = [solve_matrix(b, op @ b) for _, op in m.operators()]
    return QMod(tuple(weights), *ops)


@lru_cache(maxsize=None)
def simple(n: int) -> QMod:
    """Simple module of highest weight n: the image of the canonical map.

    For odd n the canonical map is invertible and the Weyl module itself is
    returned; for even n = 2m the image inside dual_weyl(n) has dimension
    m + 1 with weights 2m, 2m-4, ..., -2m.
    """
    if n < 0:
        raise DomainError(f"simple requires n >= 0, got {n}")
    x = canonical_map(n)
    if rank(x) == n + 1:
        return weyl(n)
    return restrict_to_span(dual_weyl(n), image(x))


@lru_cache(maxsize=None)
def frobenius_simple(m: int) -> QMod:
    """Pullback of the classical (m+1)-dimensional irreducible along quantum
    Frobenius: weights doubled, E = F = 0, divided squares act classically."""
    if m < 0:
        raise DomainError(f"frobenius_simple requires m >= 0, got {m}")
    d = m + 1
    zero = QMatrix.zeros(d, d)
    e2 = [ZERO] * (d * d)
    f2 = [ZERO] * (d * d)
    for j in range(d):
        if j >= 1:
            e2[(j - 1) * d + j] = GaussianRational(m - j + 1)
        if j + 1 < d:
            f2[(j + 1) * d + j] = GaussianRational(j + 1)
    return QMod(
        tuple(2 * m - 4 * j for j in range(d)),
        zero,
        zero,
        QMatrix(d, d, e2),
        QMatrix(d, d, f2),
    )


def tensor(m: QMod, n: QMod) -> QMod:
    """Tensor product along the fixed divided-power coproduct.

    E -> E(x)1 + K(x)E,  F -> F(x)K^-1 + 1(x)F,
    E2 -> E2(x)1 + q EK(x)E + K^2(x)E2,
    F2 -> F2(x)K^-2 + q F(x)FK^-1 + 1(x)F2,  with q = i.
    Basis index (a, b) maps to a * n.dim + b; weights add.
    """
    id_m = QMatrix.identity(m.dim)
    id_n = QMatrix.identity(n.dim)
    k_m = m.k_matrix()
    kinv_n = n.k_matrix(-1)
    e = kronecker(m.e, id_n) + kronecker(k_m, n.e)
    f = kronecker(m.f, kinv_n) + kronecker(id_m, n.f)
    e2 = (
        kronecker(m.e2, id_n)
        + kronecker((m.e @ k_m).scale(I), n.e)
        + kronecker(m.k_matrix(2), n.e2)
    )
    f2 = (
        kronecker(m.f2, n.k_matrix(-2))
        + kronecker(m.f.scale(I), n.f @ kinv_n)
        + kronecker(id_m, n.f2)
    )
    weights = tuple(wm + wn for wm in m.weights for wn in n.weights)
    return QMod(weights, e, f, e2, f2)


def direct_sum(m: QMod, n: QMod) -> QMod:
    return QMod(
        m.weights + n.weights,
        block_diag(m.e, n.e),
        block_diag(m.f, n.f),
        block_diag(m.e2, n.e2),
        block_diag(m.f2, n.f2),
    )


def char(m: QMod) -> WeightCharacter:
    """Weight multiset of m."""
    return WeightCharacter(Counter(m.weights))
