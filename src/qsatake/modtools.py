"""Module-theoretic analysis: Hom spaces, projectives, Jordan-Holder data,
submodule closures, socles, and the radical of an End algebra from its trace
form, which decides whether End is local.

Modules are immutable values, so ``hom`` and ``projective`` are memoized
with ``functools.lru_cache`` keyed by the modules and labels themselves: a
projective's Hom spaces are solved once and reused by every later truncation,
and equal modules built separately share one entry.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from . import qsl2
from .characters import jh_weight_character
from .errors import DomainError, NoSolutionError, VerificationError
from .linalg import QMatrix, kernel, solve_matrix
from .qsl2 import QMod
from .record import Record


class HomBasis(Record):
    """Canonical basis of an intertwiner space: ``basis`` is a tuple of
    ``QMatrix``."""

    __slots__ = ("basis",)

    @property
    def dim(self) -> int:
        return len(self.basis)


# hom_quiver(N) asks for all (N+1)^2 pairs row-major, N = 0, 1, ...; an LRU
# smaller than one cycle evicts each pair before its reuse at N+1.  4096
# entries cover every N <= 63, well above the --max guard of 24.
@lru_cache(maxsize=4096)
def hom(m: QMod, n: QMod) -> HomBasis:
    """All weight-preserving maps m -> n commuting with E, F, E2, F2, from
    ``qsl2.intertwiner_basis``: the spin of m from its generators replayed on
    n's side, in reduced echelon form from the right over row-major entries."""
    return HomBasis(tuple(qsl2.intertwiner_basis(m, n)))


@lru_cache(maxsize=None)
def projective(two_n: int) -> QMod:
    """Indecomposable projective of the even block: simple(2n+1) tensor simple(1)."""
    if two_n < 0 or two_n % 2 != 0:
        raise DomainError(f"projective requires an even label >= 0, got {two_n}")
    return qsl2.tensor(qsl2.simple(two_n + 1), qsl2.simple(1))


def jh(m: QMod) -> Counter:
    """Jordan-Holder multiset of highest-weight labels, from the character."""
    return jh_weight_character(qsl2.char(m))


def _split_by_weight(m: QMod, vec: QMatrix) -> list[tuple[int, dict]]:
    parts: dict[int, dict] = {}
    for i, _, v in vec.nonzero_entries():
        parts.setdefault(m.weights[i], {})[i] = v
    return sorted(parts.items())


def submodule_closure(m: QMod, vectors: list[QMatrix]) -> QMod:
    """Smallest operator-stable graded subspace containing the vectors.

    Seeds are split into weight components and spun up under the four
    operators (``qsl2.Spin``, the spin ``intertwiner_basis`` replays): the
    closure is that spin with no target.  The span's columns are kept in
    echelon form with lead 1 (``linalg.insert_row``, not back-substituted)
    and taken in order of their leads, so the result is deterministic.
    """
    spin = qsl2.Spin(m)
    spin.add([col for vec in vectors for _, col in _split_by_weight(m, vec)])
    cols = [
        QMatrix.from_row_dicts(m.dim, 1, {i: {0: v} for i, v in spin.pivots[lead].items()})
        for lead in sorted(spin.pivots)
    ]
    return qsl2.restrict_to_span(m, cols)


def socle_dims(m: QMod, upto: int) -> dict[int, int]:
    """dim Hom(simple(n), m) for 0 <= n <= upto: the socle isotypic dimensions."""
    return {n: hom(qsl2.simple(n), m).dim for n in range(upto + 1)}


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


def radical(basis) -> list[QMatrix]:
    """Basis of the radical of the unital algebra spanned by ``basis``.

    In characteristic 0 the radical is the kernel of the trace form
    (x, y) -> Tr(L_xy) (Dickson): with structure constants c[i][j][k] and
    t_k = Tr(L_k) = sum_j c[k][j][j], its Gram matrix is
    T_ij = sum_k c[i][j][k] t_k.  Each vector is scaled to lead 1.
    """
    d = len(basis)
    c = [[coords_in_basis(list(basis), bi @ bj) for bj in basis] for bi in basis]
    t = [sum(c[k][j][j] for j in range(d)) for k in range(d)]
    gram = QMatrix.from_rows(
        [[sum(c[i][j][k] * t[k] for k in range(d)) for j in range(d)] for i in range(d)]
    )
    out = []
    for v in kernel(gram):
        x = (_flatten(list(basis)) @ v).reshape(basis[0].rows, basis[0].cols)
        _, _, lead = next(x.nonzero_entries())
        out.append(x.scale(lead.inverse()))
    return out


def is_indecomposable_local(m: QMod) -> bool:
    """End(m) is local, i.e. End/rad is one-dimensional (all simples here
    are split)."""
    basis = hom(m, m).basis
    return len(basis) - len(radical(basis)) == 1


def radical_element(basis) -> QMatrix:
    """The one radical vector of the algebra spanned by ``basis``, lead 1."""
    rad = radical(basis)
    if len(rad) != 1:
        raise VerificationError(
            f"End algebra has a {len(rad)}-dimensional radical, expected 1"
        )
    return rad[0]
