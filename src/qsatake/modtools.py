"""Module-theoretic analysis: Hom spaces, projectives, Jordan-Holder data,
submodule closures, socles, and the small-endomorphism indecomposability test.

Hom bases are cached per (source, target) object pair; all inputs are
immutable and the cache is append-only, so a projective's Hom spaces are
solved once and reused by every later truncation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import qsl2
from .errors import (
    DomainError,
    NoSolutionError,
    NotACharacterError,
    UnsupportedCaseError,
)
from .linalg import QMatrix, insert_row, solve_matrix
from .qsl2 import QMod
from .scalars import Fraction, GaussianRational, ZERO


@dataclass(frozen=True)
class HomBasis:
    """Canonical basis of the intertwiner space source -> target."""

    source: QMod
    target: QMod
    basis: tuple[QMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


_HOM_CACHE: dict = {}


def hom(m: QMod, n: QMod) -> HomBasis:
    """Solve for all weight-preserving maps commuting with E, F, E2, F2."""
    key = (id(m), id(n))
    cached = _HOM_CACHE.get(key)
    if cached is not None and cached.source is m and cached.target is n:
        return cached
    hb = HomBasis(m, n, tuple(qsl2.intertwiner_basis(m, n)))
    _HOM_CACHE[key] = hb
    return hb


def projective(two_n: int) -> QMod:
    """Indecomposable projective of the even block: simple(2n+1) tensor simple(1)."""
    if two_n < 0 or two_n % 2 != 0:
        raise DomainError(f"projective requires an even label >= 0, got {two_n}")
    return _projective_cached(two_n)


_PROJ_CACHE: dict[int, QMod] = {}


def _projective_cached(two_n: int) -> QMod:
    p = _PROJ_CACHE.get(two_n)
    if p is None:
        p = qsl2.tensor(qsl2.simple(two_n + 1), qsl2.simple(1))
        _PROJ_CACHE[two_n] = p
    return p


def jh(m: QMod) -> Counter:
    """Jordan-Holder multiset of highest-weight labels, from the character.

    Simple characters are triangular in leading weight, so greedy elimination
    determines the multiplicities without building composition series.
    """
    work = {e: c for e, c in qsl2.char(m).poly.terms()}
    out: Counter = Counter()
    while work:
        w = max(work)
        mult = work[w]
        if w < 0 or mult < 0:
            raise NotACharacterError(
                f"weight multiset is not a sum of simple characters (weight {w})"
            )
        for e, c in qsl2.simple_weight_poly(w).terms():
            v = work.get(e, 0) - mult * c
            if v:
                work[e] = v
            else:
                work.pop(e, None)
        out[w] += mult
    return out


def _split_by_weight(m: QMod, vec: QMatrix) -> list[tuple[int, dict]]:
    parts: dict[int, dict] = {}
    for i, _, v in vec.nonzero_entries():
        parts.setdefault(m.weights[i], {})[i] = v
    return sorted(parts.items())


def submodule_closure(m: QMod, vectors: list[QMatrix]) -> QMod:
    """Smallest operator-stable graded subspace containing the vectors.

    Seeds are split into weight components, then the four operators are
    iterated to a fixed point.  Per-weight bases are kept in column echelon
    form with lead 1 (``linalg.insert_row``, not back-substituted), so the
    result is deterministic.
    """
    bases: dict[int, dict[int, dict]] = {}
    queue: list[tuple[int, dict]] = []

    def add(weight: int, col: dict) -> None:
        added = insert_row(bases.setdefault(weight, {}), col)
        if added is not None:
            queue.append((weight, added))

    for vec in vectors:
        for weight, col in _split_by_weight(m, vec):
            add(weight, col)
    # Row j of an operator's transpose holds the nonzeros of its column j.
    ops = [
        (shift, op.transpose())
        for (_, op), shift in zip(m.operators(), (2, -2, 4, -4))
    ]
    while queue:
        weight, col = queue.pop()
        for shift, op_t in ops:
            out: dict[int, GaussianRational] = {}
            for j, v in col.items():
                for i, a in op_t.row(j).items():
                    s = out.get(i, ZERO) + a * v
                    if s:
                        out[i] = s
                    else:
                        out.pop(i, None)
            if out:
                add(weight + shift, out)
    columns = []
    for weight in bases:
        for lead in bases[weight]:
            columns.append((lead, weight))
    columns.sort()
    cols = [
        QMatrix.from_row_dicts(
            m.dim, 1, {i: {0: v} for i, v in bases[weight][lead].items()}
        )
        for lead, weight in columns
    ]
    return qsl2.restrict_to_span(m, cols)


def socle_dims(m: QMod, upto: int) -> dict[int, int]:
    """dim Hom(simple(n), m) for 0 <= n <= upto: the socle isotypic dimensions."""
    return {n: hom(qsl2.simple(n), m).dim for n in range(upto + 1)}


@dataclass(frozen=True)
class EndAlgebra:
    """Endomorphism algebra with basis and structure constants over Q(i)."""

    module: QMod
    basis: tuple[QMatrix, ...]
    mult_table: tuple  # mult_table[i][j] = coords of basis[i] @ basis[j]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _vec(m: QMatrix) -> QMatrix:
    """m as one column, row-major."""
    return m.reshape(m.rows * m.cols, 1)


def _flatten(mats: list[QMatrix]) -> QMatrix:
    return QMatrix.hstack([_vec(m) for m in mats])


def coords_in_basis(basis: list[QMatrix], target: QMatrix) -> tuple:
    """Coordinates of target in the span of basis (exact; raises if outside)."""
    if not basis:
        if not target.is_zero():
            raise NoSolutionError("nonzero element of a zero-dimensional space")
        return ()
    a = _flatten(list(basis))
    x = solve_matrix(a, _vec(target))
    return tuple(x[i, 0] for i in range(x.rows))


def end_algebra(m: QMod) -> EndAlgebra:
    basis = hom(m, m).basis
    table = tuple(
        tuple(coords_in_basis(list(basis), bi @ bj) for bj in basis) for bi in basis
    )
    return EndAlgebra(m, basis, table)


def is_indecomposable_local(m: QMod) -> bool:
    """Local-endomorphism test for the small End algebras arising here.

    dim End = 1 is scalars; dim End = 2 is local iff the non-scalar basis
    element B, with B@B = alpha*B + beta*I, satisfies (B - alpha/2)^2 = 0.
    Dimensions 3 and 4 only arise from decomposables in this corpus; anything
    larger is outside the supported regime.
    """
    basis = hom(m, m).basis
    d = len(basis)
    if d > 4:
        raise UnsupportedCaseError(
            f"End algebra has dimension {d} > 4; desk-scale assumption violated"
        )
    if d == 1:
        return True
    if d != 2:
        return False
    ident = QMatrix.identity(m.dim)
    b = next((c for c in basis if c != ident.scale(c[0, 0])), None)
    if b is None:
        return False
    a = _flatten([b, ident])
    x = solve_matrix(a, _vec(b @ b))
    alpha = x[0, 0]
    nil = b - ident.scale(alpha * Fraction(1, 2))
    return (nil @ nil).is_zero()


def radical_element(m: QMod) -> QMatrix:
    """The nilpotent part of a two-dimensional local End algebra, scaled so its
    first nonzero entry is 1."""
    basis = hom(m, m).basis
    if len(basis) != 2:
        raise UnsupportedCaseError(
            f"radical_element expects dim End = 2, got {len(basis)}"
        )
    ident = QMatrix.identity(m.dim)
    b = next(c for c in basis if c != ident.scale(c[0, 0]))
    a = _flatten([b, ident])
    x = solve_matrix(a, _vec(b @ b))
    alpha = x[0, 0]
    nil = b - ident.scale(alpha * Fraction(1, 2))
    if not (nil @ nil).is_zero() or nil.is_zero():
        raise UnsupportedCaseError("End algebra is not local of dimension 2")
    _, _, lead = next(nil.nonzero_entries())
    return nil.scale(lead.inverse())
