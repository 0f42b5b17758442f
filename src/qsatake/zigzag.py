"""The presented zigzag algebra on vertices 0..N with its full multiplication
table, and an exhaustive self-verifier.

Basis per truncation N: idempotents e_a and loops z_a at every vertex,
arrows x_a: a -> a+1 (a < N) and y_a: a -> a-1 (a >= 1).  Nonzero products
beyond the unit laws are exactly y_{a+1} x_a = z_a and x_{a-1} y_a = z_a; all
two-step paths between vertices two or more apart vanish, as do all products
with a loop on the open side.  z_0 stays a basis element even at truncations
where its factorization is invisible (N = 0), and products not forced nonzero
by the relations are zero.  Coefficients are integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

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


@dataclass(frozen=True)
class ZigzagAlgebra:
    """Truncation with vertices 0..n; dimension 4n + 2."""

    n: int
    basis: tuple[Label, ...]
    mult: dict  # (u, v) -> {w: coeff} for u, v in basis

    @property
    def dim(self) -> int:
        return len(self.basis)


def make(n: int) -> ZigzagAlgebra:
    """Build the basis and the total multiplication table for vertices 0..n."""
    if n < 0:
        raise DomainError(f"zigzag truncation requires N >= 0, got {n}")
    basis: list[Label] = []
    basis.extend(("e", a) for a in range(n + 1))
    basis.extend(("z", a) for a in range(n + 1))
    basis.extend(("x", a) for a in range(n))
    basis.extend(("y", a) for a in range(1, n + 1))
    mult: dict = {}
    for u in basis:
        for v in basis:
            prod: Element = {}
            if source(u) == target(v):
                if u[0] == "e":
                    prod = {v: 1}
                elif v[0] == "e":
                    prod = {u: 1}
                elif u[0] == "y" and v[0] == "x" and u[1] == v[1] + 1:
                    prod = {("z", v[1]): 1}
                elif u[0] == "x" and v[0] == "y" and u[1] == v[1] - 1:
                    prod = {("z", v[1]): 1}
            mult[(u, v)] = prod
    return ZigzagAlgebra(n, tuple(basis), mult)


def multiply(algebra: ZigzagAlgebra, u, v) -> Element:
    """Bilinear extension of the table; accepts labels or {label: coeff} dicts."""
    ue: Element = {u: 1} if isinstance(u, tuple) else dict(u)
    ve: Element = {v: 1} if isinstance(v, tuple) else dict(v)
    out: Element = {}
    for lu, cu in ue.items():
        for lv, cv in ve.items():
            for w, cw in algebra.mult[(lu, lv)].items():
                s = out.get(w, 0) + cu * cv * cw
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


def _sum_terms(pairs) -> dict[int, int]:
    """Sum of c * t over (c, t) pairs, t a tuple of (position, coeff); zeros dropped."""
    out: dict[int, int] = {}
    for c, terms in pairs:
        for k, d in terms:
            out[k] = out.get(k, 0) + c * d
    return {k: s for k, s in out.items() if s}


def _check_associativity(algebra: ZigzagAlgebra, violations: list[dict]) -> int:
    """Compare (uv)w with u(vw) for every basis triple; return the triple count.

    ``table[i][j]`` copies ``algebra.mult[(basis[i], basis[j])]`` as a tuple
    of (position, nonzero coeff).  When u·v is the empty sum, (uv)w is 0 for
    every w, so only the w with v·w nonzero can give a nonzero u(vw).
    """
    basis = algebra.basis
    dim = len(basis)
    index = {label: k for k, label in enumerate(basis)}
    table = [
        [
            tuple((index[w], c) for w, c in algebra.mult[(u, v)].items() if c)
            for v in basis
        ]
        for u in basis
    ]
    nonzero = [[k for k in range(dim) if row[k]] for row in table]

    def labelled(elem: dict[int, int]) -> Element:
        return {basis[k]: c for k, c in elem.items()}

    for i, row_i in enumerate(table):
        for j, uv in enumerate(row_i):
            row_j = table[j]
            for k in range(dim) if uv else nonzero[j]:
                lhs = _sum_terms((c, table[m][k]) for m, c in uv)
                rhs = _sum_terms((c, row_i[m]) for m, c in row_j[k])
                if lhs != rhs:
                    violations.append(
                        _violation(
                            f"assoc ({label_str(basis[i])}*{label_str(basis[j])})"
                            f"*{label_str(basis[k])}",
                            labelled(lhs),
                            labelled(rhs),
                        )
                    )
    return dim**3


def verify_algebra(algebra: ZigzagAlgebra) -> dict:
    """Exhaustively check the type invariants; violations are report content.

    Covers: dimension count, orthogonal idempotents summing to the identity,
    the loop relations, vanishing of all paths between distant vertices, and
    associativity over every basis triple.

    Associativity reads ``algebra.mult`` once into a table indexed by basis
    position and evaluates both (uv)w and u(vw) exactly from it.  A triple
    where u·v and v·w are both the empty sum has both sides 0 and needs no
    sum.  Every one of the dim**3 triples is counted in ``checks``.
    """
    n = algebra.n
    violations: list[dict] = []
    checks = 0

    def expect(relation: str, lhs: Element, rhs: Element):
        nonlocal checks
        checks += 1
        if lhs != rhs:
            violations.append(_violation(relation, lhs, rhs))

    checks += 1
    if algebra.dim != 4 * n + 2:
        violations.append(
            {
                "relation": f"dim == {4 * n + 2}",
                "lhs": str(algebra.dim),
                "rhs": str(4 * n + 2),
                "pass": False,
            }
        )

    for a in range(n + 1):
        for b in range(n + 1):
            want: Element = {("e", a): 1} if a == b else {}
            expect(
                f"e{a}*e{b}",
                multiply(algebra, ("e", a), ("e", b)),
                want,
            )
    one: Element = {("e", a): 1 for a in range(n + 1)}
    for u in algebra.basis:
        expect(f"1*{label_str(u)}", multiply(algebra, one, u), {u: 1})
        expect(f"{label_str(u)}*1", multiply(algebra, u, one), {u: 1})

    for a in range(n + 1):
        z: Element = {("z", a): 1}
        if a >= 1:
            expect(
                f"x{a - 1}*y{a} == z{a}",
                multiply(algebra, ("x", a - 1), ("y", a)),
                z,
            )
        if a <= n - 1:
            expect(
                f"y{a + 1}*x{a} == z{a}",
                multiply(algebra, ("y", a + 1), ("x", a)),
                z,
            )
        expect(f"z{a}*z{a}", multiply(algebra, ("z", a), ("z", a)), {})
        if a <= n - 1:
            expect(f"x{a}*z{a}", multiply(algebra, ("x", a), ("z", a)), {})
        if a >= 1:
            expect(f"y{a}*z{a}", multiply(algebra, ("y", a), ("z", a)), {})
    for a in range(n - 1):
        expect(f"x{a + 1}*x{a}", multiply(algebra, ("x", a + 1), ("x", a)), {})
    for a in range(2, n + 1):
        expect(f"y{a - 1}*y{a}", multiply(algebra, ("y", a - 1), ("y", a)), {})

    # Distant vertices: every product landing across a gap >= 2 must vanish.
    for u in algebra.basis:
        for v in algebra.basis:
            if abs(target(u) - source(v)) >= 2:
                expect(
                    f"{label_str(u)}*{label_str(v)} (gap >= 2)",
                    multiply(algebra, u, v),
                    {},
                )

    checks += _check_associativity(algebra, violations)

    return {"checks": checks, "violations": violations}
