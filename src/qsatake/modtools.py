"""Module-theoretic analysis: Hom spaces, projectives, Jordan-Holder data,
socles, and the radical of an End algebra from its trace form, which decides
whether End is local.

``hom`` solves its Hom space at every call; it keeps no memo.  The zigzag
suite asks for each pair once, since ``equivalence.hom_quiver`` extends the
quiver of N - 1 by the pairs that involve the new projective.
``projective`` is memoized by label.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from . import qsl2
from .characters import jh_weight_character
from .errors import DomainError, NoSolutionError, VerificationError
from .linalg import QMatrix, kernel, solve_matrix
from .qsl2 import QMod
from .scalars import ZERO


def hom(m: QMod, n: QMod) -> tuple[QMatrix, ...]:
    """A basis of all weight-preserving maps m -> n commuting with E, F, E2,
    F2, from ``qsl2.intertwiner_basis``: the spin of m from its generators
    replayed on n's side, in reduced echelon form from the right over
    row-major entries."""
    return tuple(qsl2.intertwiner_basis(m, n))


# One entry per even label.  The zigzag sweep builds each P(2a) once and
# keeps it in its quiver, so the memo serves a quiver built from scratch
# (after a failed truncation, or by a caller without ``prev``), which asks
# again for every label up to 2N: 64 entries cover --max 63.
@lru_cache(maxsize=64)
def projective(two_n: int) -> QMod:
    """Indecomposable projective of the even block: simple(2n+1) tensor simple(1)."""
    if two_n < 0 or two_n % 2 != 0:
        raise DomainError(f"projective requires an even label >= 0, got {two_n}")
    return qsl2.tensor(qsl2.simple(two_n + 1), qsl2.simple(1))


def jh(m: QMod) -> Counter:
    """Jordan-Holder multiset of highest-weight labels, from the character."""
    return jh_weight_character(qsl2.char(m))


def socle_dims(m: QMod, upto: int) -> dict[int, int]:
    """dim Hom(simple(n), m) for 0 <= n <= upto: the socle isotypic dimensions."""
    return {n: len(hom(qsl2.simple(n), m)) for n in range(upto + 1)}


def coords_in_basis(basis: list[QMatrix], target: QMatrix) -> tuple:
    """Coordinates of target in the span of basis (exact; raises if outside)."""
    if not basis:
        if not target.is_zero():
            raise NoSolutionError("nonzero element of a zero-dimensional space")
        return ()
    # One equation per entry (i, j) of the matrices, at row i * cols + j,
    # with target in column n.
    cols, n = target.cols, len(basis)
    rows: dict[int, dict] = {}
    for k, m in enumerate((*basis, target)):
        for i, j, v in m.nonzero_entries():
            rows.setdefault(i * cols + j, {})[k] = v
    x = solve_matrix([rows[p] for p in sorted(rows)], n)
    return tuple(x.get(k, ZERO) for k in range(n))


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
    gram = [
        {j: v for j in range(d) if (v := sum(c[i][j][k] * t[k] for k in range(d)))}
        for i in range(d)
    ]
    out = []
    for v in kernel(gram, d):
        x = QMatrix.zeros(basis[0].rows, basis[0].cols)
        for k, w in v.items():
            x = x + basis[k].scale(w)
        _, _, lead = next(x.nonzero_entries())
        out.append(x.scale(lead.inverse()))
    return out


def is_indecomposable_local(m: QMod) -> bool:
    """End(m) is local, i.e. End/rad is one-dimensional (all simples here
    are split)."""
    basis = hom(m, m)
    return len(basis) - len(radical(basis)) == 1


def radical_element(basis) -> QMatrix:
    """The one radical vector of the algebra spanned by ``basis``, lead 1."""
    rad = radical(basis)
    if len(rad) != 1:
        raise VerificationError(
            f"End algebra has a {len(rad)}-dimensional radical, expected 1"
        )
    return rad[0]
