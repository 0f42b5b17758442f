from __future__ import annotations

from itertools import product
from unittest import mock

import pytest

from qsatake import zigzag
from qsatake.errors import DomainError
from qsatake.zigzag import (
    ZigzagAlgebra,
    element_str,
    label_str,
    make,
    source,
    target,
    verify_algebra,
)


def multiply(algebra: ZigzagAlgebra, u, v) -> dict:
    """Bilinear extension of the table, a pair that is not stored being 0;
    accepts labels or {label: coeff} dicts.  The reference product of these
    tests: ``verify_algebra`` reads the same sums from ``algebra.mult``
    itself."""
    ue = {u: 1} if isinstance(u, tuple) else dict(u)
    ve = {v: 1} if isinstance(v, tuple) else dict(v)
    out = {}
    for lu, cu in ue.items():
        for lv, cv in ve.items():
            for w, cw in algebra.mult.get((lu, lv), {}).items():
                s = out.get(w, 0) + cu * cv * cw
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
    return out


def reference_table(basis) -> dict:
    """The product of every pair (u, v) of basis labels, zero products
    included, in basis order, by the rule for composable paths (u starts
    where v ends); the double loop ``make`` once ran."""
    mult = {}
    for u in basis:
        for v in basis:
            prod = {}
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
    return mult


class TestMake:
    def test_dimension(self):
        for n in range(8):
            assert make(n).dim == 4 * n + 2

    def test_basis_n1(self):
        a = make(1)
        assert set(a.basis) == {
            ("e", 0),
            ("e", 1),
            ("z", 0),
            ("z", 1),
            ("x", 0),
            ("y", 1),
        }

    def test_loop_factorizations(self):
        a = make(1)
        assert a.mult[(("y", 1), ("x", 0))] == {("z", 0): 1}
        assert a.mult[(("x", 0), ("y", 1))] == {("z", 1): 1}

    def test_loop_annihilation(self):
        a = make(1)
        assert (("x", 0), ("z", 0)) not in a.mult
        assert (("y", 1), ("z", 1)) not in a.mult

    def test_table_golden_entries(self):
        mult = make(1).mult
        assert (("z", 0), ("z", 0)) not in mult
        assert mult[(("e", 0), ("e", 0))] == {("e", 0): 1}
        assert len(mult) == 12

    def test_table_stable_across_rebuilds(self):
        first, second = make(3), make(3)
        assert first.basis == second.basis
        assert list(first.mult.items()) == list(second.mult.items())

    @pytest.mark.parametrize("n", range(7))
    def test_table_matches_the_pairwise_rule(self, n):
        a = make(n)
        nonzero = [item for item in reference_table(a.basis).items() if item[1]]
        assert list(a.mult.items()) == nonzero
        # Each product is its own dict.
        assert len({id(prod) for prod in a.mult.values()}) == len(a.mult)

    def test_stores_only_nonzero_products(self):
        for n in range(65):
            for prod in make(n).mult.values():
                assert prod and all(prod.values()), (n, prod)
        # The dense table held (4N + 2)^2 entries: 2,500 and 66,564.
        assert len(make(12).mult) == 111
        assert len(make(64).mult) == 579

    def test_domain_error(self):
        with pytest.raises(DomainError):
            make(-1)


class TestMultiply:
    def test_idempotents(self):
        a = make(2)
        assert multiply(a, ("e", 1), ("e", 1)) == {("e", 1): 1}
        assert multiply(a, ("e", 0), ("e", 1)) == {}

    def test_z_squares_to_zero(self):
        a = make(2)
        for v in range(3):
            assert multiply(a, ("z", v), ("z", v)) == {}

    def test_two_step_paths_vanish(self):
        a = make(2)
        assert multiply(a, ("x", 1), ("x", 0)) == {}
        assert multiply(a, ("y", 1), ("y", 2)) == {}

    def test_bilinear(self):
        a = make(1)
        u = {("x", 0): 2, ("e", 0): 1}
        v = {("y", 1): 3}
        # (2 x0 + e0)(3 y1) = 6 x0 y1 + 3 e0 y1 = 6 z1 + 3 y1
        assert multiply(a, u, v) == {("z", 1): 6, ("y", 1): 3}

    def test_unit_element(self):
        a = make(2)
        one = {("e", v): 1 for v in range(3)}
        for u in a.basis:
            assert multiply(a, one, u) == {u: 1}
            assert multiply(a, u, one) == {u: 1}


class TestSourceTarget:
    def test_arrows(self):
        assert source(("x", 2)) == 2 and target(("x", 2)) == 3
        assert source(("y", 2)) == 2 and target(("y", 2)) == 1
        assert source(("z", 2)) == 2 and target(("z", 2)) == 2

    def test_render(self):
        assert label_str(("x", 0)) == "x0"
        assert element_str({}) == "0"
        assert element_str({("z", 1): 1, ("e", 0): 2}) == "2*e0 + z1"


class TestVerifyAlgebra:
    def test_passes_up_to_ten(self):
        for n in range(11):
            report = verify_algebra(make(n))
            assert report["violations"] == [], f"N={n}: {report['violations']}"

    def test_hom_dimension_pattern(self):
        a = make(6)
        for s in range(7):
            for t in range(7):
                count = sum(
                    1 for u in a.basis if source(u) == s and target(u) == t
                )
                expected = 2 if s == t else (1 if abs(s - t) == 1 else 0)
                assert count == expected

    def test_distant_vertices_have_zero_products(self):
        a = make(5)
        for u in a.basis:
            for v in a.basis:
                if abs(target(u) - source(v)) >= 2:
                    assert multiply(a, u, v) == {}

    def test_detects_injected_violation(self):
        a = make(1)
        mult = dict(a.mult)
        mult[(("z", 0), ("z", 0))] = {("e", 0): 1}  # z0^2 := e0
        bad = ZigzagAlgebra(a.n, a.basis, mult)
        report = verify_algebra(bad)
        assert report["violations"]
        relations = [v["relation"] for v in report["violations"]]
        assert "z0*z0" in relations
        # associativity also pinpoints a failing triple involving z0
        assert any(r.startswith("assoc") and "z0" in r for r in relations)


def reference_associativity(algebra, violations):
    """Associativity by four ``multiply`` calls per basis triple: the plain
    loop that ``zigzag._check_associativity`` must agree with exactly."""
    checks = 0
    for u in algebra.basis:
        for v in algebra.basis:
            for w in algebra.basis:
                lhs = multiply(algebra, multiply(algebra, u, v), w)
                rhs = multiply(algebra, u, multiply(algebra, v, w))
                checks += 1
                if lhs != rhs:
                    violations.append(
                        {
                            "relation": f"assoc ({label_str(u)}*{label_str(v)})"
                            f"*{label_str(w)}",
                            "lhs": element_str(lhs),
                            "rhs": element_str(rhs),
                            "pass": False,
                        }
                    )
    return checks


def reference_relations(algebra, violations):
    """The fixed relations by ``multiply``, with the unit 1 as an element:
    the checks that ``zigzag._check_relations`` must agree with exactly."""
    n = algebra.n
    checks = 0

    def expect(lhs, rhs, relation):
        nonlocal checks
        checks += 1
        if lhs != rhs:
            violations.append(
                {
                    "relation": relation,
                    "lhs": element_str(lhs),
                    "rhs": element_str(rhs),
                    "pass": False,
                }
            )

    for a in range(n + 1):
        for b in range(n + 1):
            want = {("e", a): 1} if a == b else {}
            expect(multiply(algebra, ("e", a), ("e", b)), want, f"e{a}*e{b}")
    one = {("e", a): 1 for a in range(n + 1)}
    for u in algebra.basis:
        expect(multiply(algebra, one, u), {u: 1}, f"1*{label_str(u)}")
        expect(multiply(algebra, u, one), {u: 1}, f"{label_str(u)}*1")
    for a in range(n + 1):
        z = {("z", a): 1}
        if a >= 1:
            expect(multiply(algebra, ("x", a - 1), ("y", a)), z, f"x{a - 1}*y{a} == z{a}")
        if a <= n - 1:
            expect(multiply(algebra, ("y", a + 1), ("x", a)), z, f"y{a + 1}*x{a} == z{a}")
        expect(multiply(algebra, ("z", a), ("z", a)), {}, f"z{a}*z{a}")
        if a <= n - 1:
            expect(multiply(algebra, ("x", a), ("z", a)), {}, f"x{a}*z{a}")
        if a >= 1:
            expect(multiply(algebra, ("y", a), ("z", a)), {}, f"y{a}*z{a}")
    for a in range(n - 1):
        expect(multiply(algebra, ("x", a + 1), ("x", a)), {}, f"x{a + 1}*x{a}")
    for a in range(2, n + 1):
        expect(multiply(algebra, ("y", a - 1), ("y", a)), {}, f"y{a - 1}*y{a}")
    return checks


def reference_report(algebra):
    with mock.patch.object(
        zigzag, "_check_associativity", reference_associativity
    ), mock.patch.object(zigzag, "_check_relations", reference_relations):
        return verify_algebra(algebra)


def corrupted(algebra, key, entry):
    return ZigzagAlgebra(algebra.n, algebra.basis, {**algebra.mult, key: entry})


def single_entry_corruptions(algebra, graded_only):
    """Every basis pair's product, a missing pair read as {}: a nonzero one
    set to {}, each coefficient doubled, each coefficient stored as 0, and
    each label swapped for another basis label.  A zero product u*v gets each
    basis label with coefficient 1; with ``graded_only``, only labels with
    the endpoints of the path v then u."""
    for u, v in product(algebra.basis, repeat=2):
        entry = algebra.mult.get((u, v), {})
        if entry:
            yield (u, v), {}
        for w, c in entry.items():
            yield (u, v), {**entry, w: 2 * c}
            yield (u, v), {**entry, w: 0}
            for other in algebra.basis:
                if other not in entry:
                    swapped = {other if x == w else x: d for x, d in entry.items()}
                    yield (u, v), swapped
        if not entry:
            for other in algebra.basis:
                if not graded_only or (
                    source(other) == source(v) and target(other) == target(u)
                ):
                    yield (u, v), {other: 1}


class TestAssociativityTable:
    @pytest.mark.parametrize("n, graded_only, count", [(1, False, 240), (2, True, 334)])
    def test_corruptions_reach_every_basis_pair(self, n, graded_only, count):
        a = make(n)
        cases = list(single_entry_corruptions(a, graded_only))
        assert len(cases) == count
        assert any(key not in a.mult for key, _ in cases)

    @pytest.mark.parametrize("n", range(5))
    def test_matches_reference(self, n):
        a = make(n)
        assert verify_algebra(a) == reference_report(a)

    @pytest.mark.parametrize("n, graded_only", [(1, False), (2, True)])
    def test_matches_reference_on_single_entry_corruptions(self, n, graded_only):
        a = make(n)
        failing = 0
        for key, entry in single_entry_corruptions(a, graded_only):
            bad = corrupted(a, key, entry)
            got, want = [], []
            checks = zigzag._check_associativity(bad, got)
            assert checks == reference_associativity(bad, want), (key, entry)
            assert got == want, (key, entry)
            failing += bool(got)
        assert failing > 0

    @pytest.mark.parametrize("n, graded_only", [(1, False), (2, True)])
    def test_relations_match_reference_on_single_entry_corruptions(
        self, n, graded_only
    ):
        a = make(n)
        failing = 0
        for key, entry in single_entry_corruptions(a, graded_only):
            bad = corrupted(a, key, entry)
            got, want = [], []
            checks = zigzag._check_relations(bad, got)
            assert checks == reference_relations(bad, want), (key, entry)
            assert got == want, (key, entry)
            failing += bool(got)
        assert failing > 0

    def test_corruption_only_associativity_sees(self):
        a = make(2)
        bad = corrupted(a, (("z", 1), ("x", 0)), {("x", 0): 1})  # z1*x0 := x0
        report = verify_algebra(bad)
        relations = [v["relation"] for v in report["violations"]]
        assert len(relations) == 5
        assert all(r.startswith("assoc ") for r in relations)
        assert relations[0] == "assoc (z1*z1)*x0"
        assert report["checks"] == verify_algebra(a)["checks"]
        assert report == reference_report(bad)

    def test_corruption_far_from_the_diagonal(self):
        a = make(6)
        bad = corrupted(a, (("x", 0), ("x", 5)), {("z", 3): 1})  # x0*x5 := z3
        report = verify_algebra(bad)
        assert report == reference_report(bad)
        relations = [v["relation"] for v in report["violations"]]
        assert "x0*x5 (gap >= 2)" in relations
        assert "assoc (x0*x5)*e5" in relations

    def test_gap_violation_text_and_position(self):
        a = make(4)
        # z0*e3 := 2*z0, with a stored zero that multiply drops as well
        bad = corrupted(a, (("z", 0), ("e", 3)), {("z", 0): 2, ("x", 1): 0})
        got = verify_algebra(bad)["violations"]
        want = reference_report(bad)["violations"]
        item = {"relation": "z0*e3 (gap >= 2)", "lhs": "2*z0", "rhs": "0"}
        item["pass"] = False
        assert got.index(item) == want.index(item)
        assert got == want
        # an entry of stored zeros is the empty product
        zeros = corrupted(a, (("z", 0), ("e", 3)), {("x", 1): 0})
        assert verify_algebra(zeros) == verify_algebra(a)

    def test_gap_violations_in_basis_order(self):
        # Stored against basis order, which a sparse table keeps as it is.
        a = make(6)
        bad = corrupted(a, (("x", 4), ("e", 0)), {("z", 4): 1})  # x4*e0 := z4
        bad = corrupted(bad, (("z", 0), ("e", 3)), {("z", 0): 2})  # z0*e3 := 2*z0
        report = verify_algebra(bad)
        relations = [v["relation"] for v in report["violations"]]
        gaps = [r for r in relations if r.endswith("(gap >= 2)")]
        assert gaps == ["z0*e3 (gap >= 2)", "x4*e0 (gap >= 2)"]
        assert report["checks"] == 18121 == verify_algebra(a)["checks"]
