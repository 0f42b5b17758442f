"""Truncated comparison between the Hom algebra of the quantum projectives
P(0), P(2), ..., P(2N) and the presented zigzag algebra on vertices 0..N.

``hom_quiver`` solves every pairwise Hom space exactly, extending the
quiver of N - 1 by the 2N + 1 pairs that involve P(2N) when it is given, and
checks each dimension against the zigzag algebra's basis labels of that Hom
space (``_hom_labels``).  ``gauge_fix`` rescales generators so the two-step
composites through neighbouring vertices agree, extending the gauge of N - 1
when it is given and its quiver is unchanged, and
``compare_zigzag`` then demands exact equality of every product of
gauge-fixed generators with the zigzag algebra's nonzero products (0 for a
pair that has none).  Each product is computed once per value of the
matrices it reads, in a dict memo that the zigzag sweep owns and drops with
the sweep; a passing relation prints the table's terms.  Only composable
pairs and pairs the table stores need that work; the structural zeros
between them, 0 on both sides, are reported as runs, one item standing for
a stretch of passing pairs.  ``frobenius_action_check``
is the frobenius sweep: for every pair n, m <= max_n it compares convolution
with a Satake image against tensoring with a Frobenius pullback, as
characters, building each label's inputs once.  Everything is exact
arithmetic over Q(i); a failed relation is report content, while a Hom
dimension other than its label count is a hard verification error.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from . import modtools, qsl2, zigzag
from .characters import (
    classical_char,
    product_jh,
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
from .linalg import QMatrix
from .modtools import coords_in_basis
from .record import Record
from .satake import expected_clebsch_gordan
from .zigzag import Label, label_str


class HomQuiver(Record):
    """All Hom bases among P(0) ... P(2N).

    ``modules`` is P(0), P(2), ..., P(2N) and ``homs[a][b]`` the tuple of
    basis matrices of Hom(P(2a), P(2b)).  Composites are not stored:
    ``compare_zigzag`` multiplies the gauge-fixed generators itself.
    """

    __slots__ = ("n", "modules", "homs")

    def hom(self, a: int, b: int) -> tuple[QMatrix, ...]:
        return self.homs[a][b]

    def dim_matrix(self) -> list[list[int]]:
        return [
            [len(self.homs[a][b]) for b in range(self.n + 1)] for a in range(self.n + 1)
        ]


def _hom_labels(basis: tuple[Label, ...]) -> dict[tuple[int, int], list[Label]]:
    """The zigzag algebra's ``basis`` by Hom space: (a, b) maps to the labels
    from vertex a to vertex b in basis order (e_a, z_a for a = b).  A pair
    with no entry has no label."""
    labels: dict[tuple[int, int], list[Label]] = {}
    for u in basis:
        labels.setdefault((zigzag.source(u), zigzag.target(u)), []).append(u)
    return labels


def hom_quiver(n: int, prev: HomQuiver | None = None) -> HomQuiver:
    """The Hom bases among P(0) ... P(2N).

    Without ``prev`` all (N+1)^2 intertwiner systems are solved.  ``prev``
    may be the quiver of N - 1: its modules and Hom bases are kept, the same
    objects, and only the 2N + 1 pairs that involve P(2N) are solved.
    Raises VerificationError unless dim Hom(P(2a), P(2b)) is the number of
    zigzag basis labels from vertex a to vertex b, and DomainError when
    ``prev`` is not of N - 1.
    """
    if n < 0:
        raise DomainError(f"hom_quiver requires N >= 0, got {n}")
    if prev is not None and prev.n != n - 1:
        raise DomainError(f"hom_quiver({n}) cannot extend the quiver of N = {prev.n}")
    modules, homs = (prev.modules, list(prev.homs)) if prev else ((), [])
    for c in range(len(modules), n + 1):  # add P(2c) and its 2c + 1 new pairs
        modules += (modtools.projective(2 * c),)
        top = modules[c]
        homs = [row + (modtools.hom(m, top),) for row, m in zip(homs, modules)]
        homs.append(tuple(modtools.hom(top, m) for m in modules))
    labels = _hom_labels(zigzag.make(n).basis)
    for a in range(n + 1):
        for b in range(n + 1):
            got = len(homs[a][b])
            want = len(labels.get((a, b), ()))
            if got != want:
                raise VerificationError(
                    f"dim Hom(P({2 * a}), P({2 * b})) = {got}, expected {want}"
                )
    return HomQuiver(n, modules, tuple(homs))


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

    Vertices a = 1..N are added in order, each with e_a (the identity of
    End P(2a)), x_{a-1} (the solver's basis vector of Hom(P(2a-2), P(2a)))
    and y_a.  y_1 keeps its solver normalization and defines z_0 = y_1 x_0;
    each later y_a is rescaled so that y_a x_{a-1} equals z_{a-1}.  Then
    z_a = x_{a-1} y_a, and the top loop z_N must be nonzero.  At N = 0 the
    loop z_0 is the radical of End P(0), read from the quiver's Hom basis; a
    radical of another dimension is a VerificationError.

    ``prev`` may hold the quiver of N - 1 and its gauge as ``gauge_fix``
    returned it.  For N >= 2, if that quiver's modules and Hom bases are
    those of ``hq`` (compared by value), its matrices are kept as they are,
    the same objects, and only vertex N is added, with y_N gauged against the
    old top loop z_{N-1}.  Otherwise the gauge is built from scratch; so is
    every N <= 1, since z_0 at N = 0 is the radical, not y_1 x_0.
    """
    n = hq.n
    if _extends(hq, prev):
        gauge, start = dict(prev[1]), n
    else:
        gauge, start = {("e", 0): QMatrix.identity(hq.modules[0].dim)}, 1
    if n == 0:
        gauge[("z", 0)] = modtools.radical_element(hq.hom(0, 0))
        return gauge
    for a in range(start, n + 1):  # add vertex a
        gauge[("e", a)] = QMatrix.identity(hq.modules[a].dim)
        x = gauge[("x", a - 1)] = hq.hom(a - 1, a)[0]
        raw = hq.hom(a, a - 1)[0]
        if a == 1:
            z0 = raw @ x
            if z0.is_zero():
                raise VerificationError("composite y1*x0 vanishes; no loop at vertex 0")
            gauge[("y", 1)], gauge[("z", 0)] = raw, z0
        else:
            fixed = gauge[("z", a - 1)]
            unscaled = raw @ x
            if fixed.is_zero() or unscaled.is_zero():
                raise VerificationError(
                    f"a loop composite at vertex {a - 1} vanishes; cannot gauge y{a}"
                )
            try:
                (lam,) = coords_in_basis([unscaled], fixed)
            except NoSolutionError:
                raise VerificationError(
                    f"x{a - 2}*y{a - 1} and y{a}*x{a - 1} are not proportional "
                    f"at vertex {a - 1}"
                )
            gauge[("y", a)] = raw.scale(lam)
        gauge[("z", a)] = x @ gauge[("y", a)]
    if gauge[("z", n)].is_zero():
        raise VerificationError(f"composite x{n - 1}*y{n} vanishes at vertex {n}")
    return gauge


def _product_matches(u: QMatrix, v: QMatrix, terms: tuple) -> bool:
    """Whether u @ v equals the sum of c * m over the (m, c) in ``terms``.

    The sum is built from the terms alone: no terms is the zero matrix, and
    a term of another shape than u @ v is a value it cannot equal."""
    prod = u @ v
    if not terms:
        return prod.is_zero()
    if any(m.rows != prod.rows or m.cols != prod.cols for m, _ in terms):
        return False
    (m, c), *rest = terms
    want = m.scale(c)
    for m, c in rest:
        want = want + m.scale(c)
    return prod == want


def _solved_lhs(prod: QMatrix, labels: list[Label], gauge: dict) -> str:
    """``prod`` written in the gauge basis ``labels``, by solving for its
    coordinates in their gauge matrices."""
    if not labels:
        return "0" if prod.is_zero() else "<outside hom space>"
    try:
        coords = coords_in_basis([gauge[lab] for lab in labels], prod)
    except NoSolutionError:
        return "<not in gauge span>"
    return zigzag.element_str({lab: c for lab, c in zip(labels, coords) if c})


def compare_zigzag(
    hq: HomQuiver, gauge: dict[Label, QMatrix] | None = None, memo: dict | None = None
) -> list[dict]:
    """Recompute every product of gauge-fixed generators against the table.

    The report covers every ordered basis pair (u, v) of ZigzagAlgebra(N), u
    major and v minor in basis order, with the relation ``u*v``; ``lhs`` is
    the quantum composite expressed in the gauge basis and ``rhs`` the
    stored product of the pair, or 0 when none is stored.  Without
    ``gauge``, ``gauge_fix(hq)`` is used.

    Only two kinds of pair get an item of their own: the composable ones
    (v ends where u starts, at most four per u) and any other pair the table
    stores.  Every other pair is a structural zero, 0 on both sides with
    nothing to compute, and each stretch of them between two items of one u
    is a single **run** item: ``{"relation": "u*", "run": (v names...),
    "lhs": "0", "rhs": "0", "pass": True}`` stands for the passing items
    ``u*v`` of those v, in order.  A run is never empty.

    A composable item is decided by whether gauge[u] @ gauge[v] equals the
    table's value written in gauge matrices.  Each decision is kept in
    ``memo`` (a fresh dict when None) under the matrices it reads, those of
    u, v and of the table's terms, never under labels, so a corrupted gauge
    meets only its own entries.  A sweep that passes one dict to every
    truncation, each gauge extending the one of N - 1 (``gauge_fix`` with
    ``prev``), computes only the products of the new matrices, and drops
    them all with the dict.  On PASS ``lhs`` is ``rhs``: the product equals
    the table's terms, labels of the gauge basis of its Hom space.  On FAIL
    ``lhs`` is the product solved for its coordinates in that basis.
    """
    n = hq.n
    algebra = zigzag.make(n)
    if gauge is None:
        gauge = gauge_fix(hq)
    if memo is None:
        memo = {}
    basis, mult = algebra.basis, algebra.mult
    names = tuple(label_str(u) for u in basis)
    position = {u: k for k, u in enumerate(basis)}
    ending_at: dict[int, list[int]] = {}
    for k, v in enumerate(basis):
        ending_at.setdefault(zigzag.target(v), []).append(k)
    stored: dict[Label, list[int]] = {}
    for u, v in mult:
        if u in position and v in position:
            stored.setdefault(u, []).append(position[v])
    items = []
    for u, u_name in zip(basis, names):
        u_source, u_target = zigzag.source(u), zigzag.target(u)
        start = 0
        for k in sorted({*ending_at[u_source], *stored.get(u, ())}):
            if start < k:
                items.append(_zero_run(u_name, names[start:k]))
            start = k + 1
            v = basis[k]
            expected = mult.get((u, v), {})
            rhs = zigzag.element_str(expected)
            relation = f"{u_name}*{names[k]}"
            if zigzag.target(v) != u_source:
                items.append(
                    {
                        "relation": relation,
                        "lhs": "0",
                        "rhs": rhs,
                        "pass": not expected,
                    }
                )
                continue
            terms = tuple((gauge[w], c) for w, c in expected.items())
            key = (gauge[u], gauge[v], terms)
            ok = memo.get(key)
            if ok is None:
                ok = memo[key] = _product_matches(*key)
            if ok:
                lhs = rhs
            else:
                labels = _hom_labels(basis).get((zigzag.source(v), u_target), [])
                lhs = _solved_lhs(gauge[u] @ gauge[v], labels, gauge)
            items.append({"relation": relation, "lhs": lhs, "rhs": rhs, "pass": ok})
        if start < len(basis):
            items.append(_zero_run(u_name, names[start:]))
    return items


def _zero_run(u_name: str, v_names: tuple[str, ...]) -> dict:
    """The run of passing structural zeros ``u*v``, v in ``v_names``."""
    return {
        "relation": f"{u_name}*",
        "run": v_names,
        "lhs": "0",
        "rhs": "0",
        "pass": True,
    }


def _labels_str(c: Counter) -> str:
    return "{" + ", ".join(f"{k}:{c[k]}" for k in sorted(c, reverse=True)) + "}"


def frobenius_action_check(max_n: int) -> Iterator[dict]:
    """Match the two module actions at the level of characters: one item
    ``frobenius(n,m)`` for every pair n, m <= max_n, n major.

    Character side: decompose the convolution of the weight-doubled classical
    character of V(n) with the odd simple character of 2m+1, then relabel
    2k+1 -> 2k.  Quantum side: Jordan-Holder labels of
    char(frobenius_simple(n)) * image_char(2m), the character of the tensor
    product of frobenius_simple(n) with the image of the solved canonical map
    weyl(2m) -> dual_weyl(2m), since weights add.  No tensor module is built:
    this is a statement about characters, not a proof that the tensor product
    is semisimple.  Both must equal the two-line decomposition 2(n+m),
    2(n+m)-4, ..., 2|n-m|; a quantum side that is not a character fails.

    Each label is built once: image_char(2m), one canonical-map solve, and
    simple_char(2m+1, "+") before the first item, n's two characters per n.
    """
    if max_n < 0:
        raise DomainError(f"frobenius_action_check requires max_n >= 0, got {max_n}")
    labels = range(max_n + 1)
    images = [qsl2.image_char(2 * m) for m in labels]
    odd = [simple_char(2 * m + 1, "+") for m in labels]
    for n in labels:
        pullback = qsl2.char(qsl2.frobenius_simple(n))
        doubled = psi_double(classical_char(n))
        for m in labels:
            char_side: Counter = Counter()
            for (k, sign), mult in product_jh(doubled, odd[m]).items():
                if sign != "+" or k % 2 != 1:
                    raise InternalInconsistencyError(
                        f"unexpected factor ({k}, {sign}) on the character side"
                    )
                char_side[k - 1] += mult
            try:
                quantum_side = product_jh(pullback, images[m])
                rhs = _labels_str(quantum_side)
            except NotACharacterError as exc:
                quantum_side, rhs = None, f"<{exc}>"
            want = expected_clebsch_gordan(n, m)
            yield {
                "relation": f"frobenius({n},{m}) == {_labels_str(want)}",
                "lhs": _labels_str(char_side),
                "rhs": rhs,
                "pass": char_side == quantum_side == want,
            }
