"""The presented zigzag algebra on vertices 0..N with its nonzero products,
and an exhaustive self-verifier.

Basis per truncation N: idempotents e_a and loops z_a at every vertex,
arrows x_a: a -> a+1 (a < N) and y_a: a -> a-1 (a >= 1).  Nonzero products
beyond the unit laws are exactly y_{a+1} x_a = z_a and x_{a-1} y_a = z_a; all
two-step paths between vertices two or more apart vanish, as do all products
with a loop on the open side.  z_0 stays a basis element even at truncations
where its factorization is invisible (N = 0), and products not forced nonzero
by the relations are zero.  Coefficients are integers.
"""

from __future__ import annotations

from collections import Counter

from .errors import DomainError
from .record import Record

Label = tuple[str, int]
Element = dict[Label, int]


def source(label: Label) -> int:
    kind, a = label
    return a


def target(label: Label) -> int:
    kind, a = label
    if kind == "x":
        return a + 1
    if kind == "y":
        return a - 1
    return a


def label_str(label: Label) -> str:
    return f"{label[0]}{label[1]}"


def element_str(elem: Element) -> str:
    if not elem:
        return "0"
    parts = []
    for label in sorted(elem):
        c = elem[label]
        parts.append(label_str(label) if c == 1 else f"{c}*{label_str(label)}")
    return " + ".join(parts)


class ZigzagAlgebra(Record):
    """Truncation with vertices 0..n; dimension 4n + 2.

    ``basis`` is a tuple of labels and ``mult`` maps a pair (u, v) of them
    to the product {w: coeff} exactly when u·v is nonzero; a pair that is
    not stored has product 0.
    """

    __slots__ = ("n", "basis", "mult")

    @property
    def dim(self) -> int:
        return len(self.basis)


def make(n: int) -> ZigzagAlgebra:
    """Build the basis and the nonzero products for vertices 0..n."""
    if n < 0:
        raise DomainError(f"zigzag truncation requires N >= 0, got {n}")
    basis: list[Label] = []
    basis.extend(("e", a) for a in range(n + 1))
    basis.extend(("z", a) for a in range(n + 1))
    basis.extend(("x", a) for a in range(n))
    basis.extend(("y", a) for a in range(1, n + 1))
    # Only pairs where u starts at the end of v can be nonzero.
    mult: dict = {}
    ending_at: dict = {}
    for v in basis:
        ending_at.setdefault(target(v), []).append(v)
    for u in basis:
        for v in ending_at[source(u)]:
            if u[0] == "e":
                mult[(u, v)] = {v: 1}
            elif v[0] == "e":
                mult[(u, v)] = {u: 1}
            elif u[0] == "y" and v[0] == "x" and u[1] == v[1] + 1:
                mult[(u, v)] = {("z", v[1]): 1}
            elif u[0] == "x" and v[0] == "y" and u[1] == v[1] - 1:
                mult[(u, v)] = {("z", v[1]): 1}
    return ZigzagAlgebra(n, tuple(basis), mult)


def _table_sum(mult: dict, pairs) -> Element:
    """The sum of the products of ``pairs`` of labels in ``mult``, a missing
    pair being 0, with zero coefficients dropped: the bilinear extension of
    the table."""
    out: Element = {}
    for pair in pairs:
        for w, c in mult.get(pair, {}).items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def _violation(relation: str, lhs: Element, rhs: Element) -> dict:
    return {
        "relation": relation,
        "lhs": element_str(lhs),
        "rhs": element_str(rhs),
        "pass": False,
    }


def _check_associativity(algebra: ZigzagAlgebra, violations: list[dict]) -> int:
    """Compare (uv)w with u(vw) for every basis triple; return the triple count.

    With L(u) the left multiplication w -> uw and b_k the basis label at
    position k, (uv)w = u(vw) for all w is the operator identity
    L(uv) = L(u)·L(v), and L(uv) is the combination of the L(b_m) by the
    coefficients of uv.  ``cols[j]`` lists the nonzero columns of L(b_j),
    (k, terms of b_j·b_k) with terms (position, nonzero coeff), read once
    from the stored products of ``algebra.mult``.  For a pair (i, j) the
    left side is nonzero only when b_i·b_j is, and the right side only when
    some column of L(b_j) has a term at an m with b_i·b_m nonzero; every
    other pair has both sides 0 in every column.  A pair whose operators differ yields one violation
    per differing column k, in ascending k.
    """
    basis = algebra.basis
    dim = len(basis)
    index = {label: k for k, label in enumerate(basis)}
    cols: list[list] = [[] for _ in range(dim)]
    for (u, v), prod in algebra.mult.items():
        terms = tuple((index[w], c) for w, c in prod.items() if c)
        if terms:
            cols[index[u]].append((index[v], terms))
    users: list[set[int]] = [set() for _ in range(dim)]
    for j, col in enumerate(cols):
        for _, terms in col:
            for m, _ in terms:
                users[m].add(j)

    for i, col_i in enumerate(cols):
        row_i = dict(col_i)
        pairs = set(row_i)
        for m in row_i:
            pairs |= users[m]
        for j in sorted(pairs):
            lhs: dict[tuple[int, int], int] = {}
            for m, c in row_i.get(j, ()):
                for k, terms in cols[m]:
                    for p, d in terms:
                        lhs[k, p] = lhs.get((k, p), 0) + c * d
            rhs: dict[tuple[int, int], int] = {}
            for k, terms in cols[j]:
                for m, c in terms:
                    for p, d in row_i.get(m, ()):
                        rhs[k, p] = rhs.get((k, p), 0) + c * d
            lhs = {kp: s for kp, s in lhs.items() if s}
            rhs = {kp: s for kp, s in rhs.items() if s}
            if lhs != rhs:
                _column_violations(basis, i, j, lhs, rhs, violations)
    return dim**3


def _column_violations(basis, i: int, j: int, lhs: dict, rhs: dict, violations):
    """One violation per column k where the {(k, position): coeff} operators
    ``lhs`` = L(b_i b_j) and ``rhs`` = L(b_i)·L(b_j) differ, in ascending k."""

    def column(op: dict, k: int) -> Element:
        return {basis[p]: c for (kk, p), c in op.items() if kk == k}

    for k in sorted({k for k, _ in lhs.keys() | rhs.keys()}):
        left, right = column(lhs, k), column(rhs, k)
        if left != right:
            violations.append(
                _violation(
                    f"assoc ({label_str(basis[i])}*{label_str(basis[j])})"
                    f"*{label_str(basis[k])}",
                    left,
                    right,
                )
            )


def _check_relations(algebra: ZigzagAlgebra, violations: list[dict]) -> int:
    """Check the fixed relations, reading every product from ``algebra.mult``;
    return the check count.

    They are the orthogonal idempotents e_a·e_b, the unit 1·u and u·1 with
    1 = e_0 + ... + e_N (a sum of N + 1 table entries, ``_table_sum``), the
    loop factorizations x·y = z and y·x = z, and the vanishing products z·z,
    x·z, y·z, x·x and y·y.  A product of two labels is its stored entry, or 0
    when none is stored, without zero coefficients.  A relation text is formatted only on failure.
    """
    n = algebra.n
    mult = algebra.mult
    checks = 0

    def expect(lhs: Element, rhs: Element, relation: str, *args):
        nonlocal checks
        checks += 1
        if lhs != rhs:
            violations.append(_violation(relation.format(*args), lhs, rhs))

    def product(u: Label, v: Label) -> Element:
        return _table_sum(mult, ((u, v),))

    for a in range(n + 1):
        for b in range(n + 1):
            want: Element = {("e", a): 1} if a == b else {}
            expect(product(("e", a), ("e", b)), want, "e{}*e{}", a, b)
    units = [("e", a) for a in range(n + 1)]
    for u in algebra.basis:
        expect(_table_sum(mult, [(e, u) for e in units]), {u: 1}, "1*{}{}", *u)
        expect(_table_sum(mult, [(u, e) for e in units]), {u: 1}, "{}{}*1", *u)

    for a in range(n + 1):
        z: Element = {("z", a): 1}
        if a >= 1:
            xy = product(("x", a - 1), ("y", a))
            expect(xy, z, "x{}*y{} == z{}", a - 1, a, a)
        if a <= n - 1:
            yx = product(("y", a + 1), ("x", a))
            expect(yx, z, "y{}*x{} == z{}", a + 1, a, a)
        expect(product(("z", a), ("z", a)), {}, "z{}*z{}", a, a)
        if a <= n - 1:
            expect(product(("x", a), ("z", a)), {}, "x{}*z{}", a, a)
        if a >= 1:
            expect(product(("y", a), ("z", a)), {}, "y{}*z{}", a, a)
    for a in range(n - 1):
        expect(product(("x", a + 1), ("x", a)), {}, "x{}*x{}", a + 1, a)
    for a in range(2, n + 1):
        expect(product(("y", a - 1), ("y", a)), {}, "y{}*y{}", a - 1, a)
    return checks


def verify_algebra(algebra: ZigzagAlgebra) -> dict:
    """Exhaustively check the type invariants; violations are report content.

    Covers: dimension count, orthogonal idempotents summing to the identity,
    the loop relations, vanishing of all paths between distant vertices, and
    associativity over every basis triple.

    Each check formats its relation text only when it fails, and reads its
    products from ``algebra.mult``.  The fixed relations are checked by
    ``_check_relations``.  The gap >= 2 scan counts its pairs from how many
    labels end and start at each vertex, and looks for violations among the
    stored products only.  Associativity compares L(uv) with L(u)·L(v) over the
    nonzero columns of the table (see ``_check_associativity``); every one of
    the dim**3 triples is counted in ``checks``.
    """
    n = algebra.n
    violations: list[dict] = []
    checks = 1  # the dimension count
    if algebra.dim != 4 * n + 2:
        violations.append(
            {
                "relation": f"dim == {4 * n + 2}",
                "lhs": str(algebra.dim),
                "rhs": str(4 * n + 2),
                "pass": False,
            }
        )
    checks += _check_relations(algebra, violations)

    # Distant vertices: every product landing across a gap >= 2 must vanish.
    # Each pair (u, v) with v starting 2 or more from the end of u is a check;
    # only a stored product can be nonzero, reported in basis order of (u, v).
    ending = Counter(target(u) for u in algebra.basis)
    starting = Counter(source(v) for v in algebra.basis)
    checks += sum(
        ending[t] * starting[s] for t in ending for s in starting if abs(t - s) >= 2
    )
    index = {label: k for k, label in enumerate(algebra.basis)}
    far = [
        (index[u], index[v], u, v, prod)
        for (u, v), prod in algebra.mult.items()
        if abs(target(u) - source(v)) >= 2 and any(prod.values())
    ]
    for _, _, u, v, prod in sorted(far):
        violations.append(
            _violation(
                f"{label_str(u)}*{label_str(v)} (gap >= 2)",
                {w: c for w, c in prod.items() if c},
                {},
            )
        )

    checks += _check_associativity(algebra, violations)

    return {"checks": checks, "violations": violations}
