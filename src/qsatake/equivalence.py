"""Truncated comparison between the Hom algebra of the quantum projectives
P(0), P(2), ..., P(2N) and the presented zigzag algebra on vertices 0..N.

``hom_quiver`` solves every pairwise Hom space exactly and checks the
2/1/0 dimension pattern.  ``gauge_fix`` rescales generators so the
two-step composites through neighbouring vertices agree, extending the gauge
of N - 1 when it is given and its quiver is unchanged, and
``compare_zigzag`` then demands exact equality of every product of
gauge-fixed generators with the zigzag multiplication table, computing each
product once per value of the matrices it reads.  Everything
is exact arithmetic over Q(i); a failed relation is report content, while a
wrong Hom dimension pattern is a hard verification error.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from . import modtools, qsl2, zigzag
from .characters import (
    classical_char,
    conv,
    jh_decompose,
    jh_weight_character,
    psi_double,
    simple_char,
)
from .errors import (
    DomainError,
    InternalInconsistencyError,
    NoSolutionError,
    NotACharacterError,
    VerificationError,
)
from .linalg import QMatrix, reduce_rows
from .modtools import HomBasis, coords_in_basis
from .record import Record
from .satake import expected_clebsch_gordan
from .zigzag import Label, label_str


class HomQuiver(Record):
    """All Hom bases among P(0) ... P(2N).

    ``modules`` is P(0), P(2), ..., P(2N) and ``homs[a][b]`` the
    ``HomBasis`` of P(2a) -> P(2b).  Composites are not stored:
    ``compare_zigzag`` multiplies the gauge-fixed generators itself.
    """

    __slots__ = ("n", "modules", "homs")

    def hom(self, a: int, b: int) -> HomBasis:
        return self.homs[a][b]

    def dim_matrix(self) -> list[list[int]]:
        return [
            [self.homs[a][b].dim for b in range(self.n + 1)] for a in range(self.n + 1)
        ]


def _expected_dim(a: int, b: int) -> int:
    if a == b:
        return 2
    if abs(a - b) == 1:
        return 1
    return 0


def hom_quiver(n: int) -> HomQuiver:
    """Solve all (N+1)^2 intertwiner systems among P(0) ... P(2N).

    Raises VerificationError unless dim Hom(P(2a), P(2b)) is 2 for a = b,
    1 for |a - b| = 1 and 0 otherwise.
    """
    if n < 0:
        raise DomainError(f"hom_quiver requires N >= 0, got {n}")
    modules = tuple(modtools.projective(2 * a) for a in range(n + 1))
    homs = tuple(
        tuple(modtools.hom(modules[a], modules[b]) for b in range(n + 1))
        for a in range(n + 1)
    )
    for a in range(n + 1):
        for b in range(n + 1):
            got = homs[a][b].dim
            want = _expected_dim(a, b)
            if got != want:
                raise VerificationError(
                    f"dim Hom(P({2 * a}), P({2 * b})) = {got}, expected {want}"
                )
    return HomQuiver(n, modules, homs)


def _extends(hq: HomQuiver, prev) -> bool:
    """Whether ``prev`` = (quiver, gauge) of N - 1 >= 1 can be extended to
    ``hq``: its modules and every Hom basis among them are those of ``hq``."""
    if prev is None:
        return False
    old = prev[0]
    k = old.n + 1
    return (
        old.n >= 1
        and old.n == hq.n - 1
        and old.modules == hq.modules[:k]
        and old.homs == tuple(row[:k] for row in hq.homs[:k])
    )


def gauge_fix(
    hq: HomQuiver, prev: tuple[HomQuiver, dict[Label, QMatrix]] | None = None
) -> dict[Label, QMatrix]:
    """Choose based generators matching the zigzag presentation.

    e_a is the identity of End P(2a) and x_a the solver's basis vector of
    Hom(P(2a), P(2a+2)).  y_1 keeps its solver normalization and defines
    z_0 = y_1 x_0; each later y_{a+1} is rescaled so that y_{a+1} x_a equals
    x_{a-1} y_a, which then defines z_a.  At the top vertex z_N = x_{N-1} y_N;
    at N = 0 the loop z_0 is the radical of End P(0), read from the quiver's
    Hom basis; a radical of another dimension is a VerificationError.

    ``prev`` may hold the quiver of N - 1 and its gauge as ``gauge_fix``
    returned it.  For N >= 2, if that quiver's modules and Hom bases are
    those of ``hq`` (compared by value), its matrices are kept as they are,
    the same objects, and only e_N, x_{N-1}, the loop step at vertex N - 1
    (which gauges y_N and keeps the old top loop as z_{N-1}) and z_N are
    added.  Otherwise the gauge is built from scratch; so is every N <= 1,
    since z_0 at N = 0 is the radical, not y_1 x_0.
    """
    n = hq.n
    if n == 0:
        return {
            ("e", 0): QMatrix.identity(hq.modules[0].dim),
            ("z", 0): modtools.radical_element(hq.hom(0, 0).basis),
        }
    reuse = _extends(hq, prev)
    gauge: dict[Label, QMatrix] = dict(prev[1]) if reuse else {}
    old = n if reuse else 0  # vertices 0..old-1 are already gauged
    for a in range(old, n + 1):
        gauge[("e", a)] = QMatrix.identity(hq.modules[a].dim)
    for a in range(max(old - 1, 0), n):
        gauge[("x", a)] = hq.hom(a, a + 1).basis[0]
    if not reuse:
        gauge[("y", 1)] = hq.hom(1, 0).basis[0]
        z0 = gauge[("y", 1)] @ gauge[("x", 0)]
        if z0.is_zero():
            raise VerificationError("composite y1*x0 vanishes; no loop at vertex 0")
        gauge[("z", 0)] = z0
    for a in range(max(old - 1, 1), n):
        if ("z", a) in gauge:  # the top loop x_{a-1} y_a of the gauge of N - 1
            fixed = gauge[("z", a)]
        else:
            fixed = gauge[("x", a - 1)] @ gauge[("y", a)]
        raw = hq.hom(a + 1, a).basis[0]
        unscaled = raw @ gauge[("x", a)]
        if fixed.is_zero() or unscaled.is_zero():
            raise VerificationError(
                f"a loop composite at vertex {a} vanishes; cannot gauge y{a + 1}"
            )
        try:
            (lam,) = coords_in_basis([unscaled], fixed)
        except NoSolutionError:
            raise VerificationError(
                f"x{a - 1}*y{a} and y{a + 1}*x{a} are not proportional at vertex {a}"
            )
        gauge[("y", a + 1)] = raw.scale(lam)
        gauge[("z", a)] = fixed
    zn = gauge[("x", n - 1)] @ gauge[("y", n)]
    if zn.is_zero():
        raise VerificationError(f"composite x{n - 1}*y{n} vanishes at vertex {n}")
    gauge[("z", n)] = zn
    return gauge


def _gauge_basis(gauge: dict[Label, QMatrix], src: int, tgt: int):
    """The gauge-fixed basis (labels and matrices) of Hom(P(2 src), P(2 tgt))."""
    if src == tgt:
        labels = [("e", src), ("z", src)]
    elif tgt == src + 1:
        labels = [("x", src)]
    elif tgt == src - 1:
        labels = [("y", src)]
    else:
        labels = []
    return labels, tuple(gauge[lab] for lab in labels)


# The memos below are keyed by matrices, never by labels, so a corrupted
# quiver or gauge can only meet its own entries.  The suite over N = 0..M
# meets 3 M + 3 distinct gauge bases and 16 M + 5 distinct products; both
# bounds cover M = 63.
@lru_cache(maxsize=1024)
def _independent(mats: tuple[QMatrix, ...]) -> bool:
    """Whether the matrices are linearly independent."""
    rows = [{i * m.cols + j: v for i, j, v in m.nonzero_entries()} for m in mats]
    return len(reduce_rows(rows)) == len(rows)


@lru_cache(maxsize=4096)
def _product_matches(u: QMatrix, v: QMatrix, terms: tuple) -> bool:
    """Whether u @ v equals the sum of c * m over the (m, c) in ``terms``."""
    prod = u @ v
    want = QMatrix.zeros(prod.rows, prod.cols)
    for m, c in terms:
        want = want + m.scale(c)
    return prod == want


def _solved_lhs(prod: QMatrix, labels: list, mats: tuple) -> str:
    """``prod`` written in the gauge basis, by solving for its coordinates."""
    if not mats:
        return "0" if prod.is_zero() else "<outside hom space>"
    try:
        coords = coords_in_basis(list(mats), prod)
    except NoSolutionError:
        return "<not in gauge span>"
    return zigzag.element_str({lab: c for lab, c in zip(labels, coords) if c})


def compare_zigzag(hq: HomQuiver, gauge: dict[Label, QMatrix] | None = None) -> list[dict]:
    """Recompute every product of gauge-fixed generators against the table.

    One report item per ordered basis pair of ZigzagAlgebra(N); ``lhs`` is the
    quantum composite expressed in the gauge basis, ``rhs`` the table value.
    Without ``gauge``, ``gauge_fix(hq)`` is used.

    An item is decided by whether gauge[u] @ gauge[v] equals the table's
    value written in gauge matrices.  That test is memoized by the matrices
    it reads (those of u, v and of the table's terms), so a truncation whose
    gauge extends the one of N - 1 (``gauge_fix`` with ``prev``) computes
    only the products of its new matrices.  ``lhs`` is solved for only on
    FAIL: on PASS the product equals the table's terms, which are labels of
    the gauge basis of its Hom space, and when that basis is linearly
    independent (checked once per basis) they are its only coordinates, so
    ``lhs`` is ``rhs``.  A dependent basis is solved for as on FAIL.
    """
    n = hq.n
    algebra = zigzag.make(n)
    if gauge is None:
        gauge = gauge_fix(hq)
    items = []
    for u in algebra.basis:
        for v in algebra.basis:
            expected = algebra.mult[(u, v)]
            rhs = zigzag.element_str(expected)
            relation = f"{label_str(u)}*{label_str(v)}"
            if zigzag.source(u) != zigzag.target(v):
                items.append(
                    {
                        "relation": relation,
                        "lhs": "0",
                        "rhs": rhs,
                        "pass": not expected,
                    }
                )
                continue
            labels, mats = _gauge_basis(gauge, zigzag.source(v), zigzag.target(u))
            terms = tuple((gauge[w], c) for w, c in expected.items())
            ok = _product_matches(gauge[u], gauge[v], terms)
            if ok and _independent(mats):
                lhs = rhs
            else:
                lhs = _solved_lhs(gauge[u] @ gauge[v], labels, mats)
            items.append({"relation": relation, "lhs": lhs, "rhs": rhs, "pass": ok})
    return items


def _labels_str(c: Counter) -> str:
    return "{" + ", ".join(f"{k}:{c[k]}" for k in sorted(c, reverse=True)) + "}"


def frobenius_action_check(n: int, m: int) -> list[dict]:
    """Match the two module actions at the level of characters.

    Character side: decompose the convolution of the weight-doubled classical
    character of V(n) with the odd simple character of 2m+1, then relabel
    2k+1 -> 2k.  Quantum side: Jordan-Holder labels of
    char(frobenius_simple(n)) * char(simple(2m)), the character of their
    tensor product since weights add.  No tensor module is built: this is a
    statement about characters, not a proof that the tensor product is
    semisimple.  Both must equal the two-line decomposition 2(n+m),
    2(n+m)-4, ..., 2|n-m|; a quantum side that is not a character fails.
    """
    if n < 0 or m < 0:
        raise DomainError("frobenius_action_check requires n, m >= 0")
    char_side_signed = jh_decompose(
        conv(psi_double(classical_char(n)), simple_char(2 * m + 1, "+"))
    )
    char_side: Counter = Counter()
    for (label, sign), mult in char_side_signed.items():
        if sign != "+" or label % 2 != 1:
            raise InternalInconsistencyError(
                f"unexpected factor ({label}, {sign}) on the character side"
            )
        char_side[label - 1] += mult
    try:
        quantum_side = jh_weight_character(
            qsl2.char(qsl2.frobenius_simple(n)) * qsl2.char(qsl2.simple(2 * m))
        )
        rhs = _labels_str(quantum_side)
    except NotACharacterError as exc:
        quantum_side, rhs = None, f"<{exc}>"
    want = expected_clebsch_gordan(n, m)
    ok = char_side == quantum_side == want
    return [
        {
            "relation": f"frobenius({n},{m}) == {_labels_str(want)}",
            "lhs": _labels_str(char_side),
            "rhs": rhs,
            "pass": bool(ok),
        }
    ]
