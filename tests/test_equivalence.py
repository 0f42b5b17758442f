from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

import jsonschema
import pytest

from key_jh import reference_key_jh
from qsatake import characters, cli, equivalence, modtools, qsl2, zigzag
from qsatake.equivalence import (
    HomQuiver,
    compare_zigzag,
    frobenius_action_check,
    gauge_fix,
    hom_quiver,
)
from qsatake.errors import (
    DomainError,
    InternalInconsistencyError,
    NoSolutionError,
    NotACharacterError,
    VerificationError,
)
from qsatake.linalg import QMatrix
from qsatake.modtools import coords_in_basis, jh
from qsatake.satake import expected_clebsch_gordan
from qsatake.scalars import GaussianRational
from qsatake.zigzag import label_str
from reports import expand_runs, render_items


@lru_cache(maxsize=None)
def quiver(n: int) -> HomQuiver:
    """hom_quiver(n), built once per test session by extending N - 1."""
    return hom_quiver(n, quiver(n - 1) if n else None)


def reference_gauge_fix(hq: HomQuiver) -> dict:
    """Gauge fixing from scratch at every N, as before the incremental gauge."""
    n = hq.n
    gauge = {}
    for a in range(n + 1):
        gauge[("e", a)] = QMatrix.identity(hq.modules[a].dim)
    if n == 0:
        gauge[("z", 0)] = modtools.radical_element(hq.hom(0, 0))
        return gauge
    for a in range(n):
        gauge[("x", a)] = hq.hom(a, a + 1)[0]
    gauge[("y", 1)] = hq.hom(1, 0)[0]
    z0 = gauge[("y", 1)] @ gauge[("x", 0)]
    if z0.is_zero():
        raise VerificationError("composite y1*x0 vanishes; no loop at vertex 0")
    gauge[("z", 0)] = z0
    for a in range(1, n):
        fixed = gauge[("x", a - 1)] @ gauge[("y", a)]
        raw = hq.hom(a + 1, a)[0]
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


def reference_compare_zigzag(hq: HomQuiver, gauge: dict | None = None) -> list[dict]:
    """One item per basis pair, every product computed afresh and every lhs
    solved for its coordinates, as before the runs, the memo and the
    solve-on-FAIL rule."""
    n = hq.n
    algebra = zigzag.make(n)
    if gauge is None:
        gauge = reference_gauge_fix(hq)
    items = []
    for u in algebra.basis:
        for v in algebra.basis:
            expected = algebra.mult.get((u, v), {})
            rhs = zigzag.element_str(expected)
            relation = f"{label_str(u)}*{label_str(v)}"
            if zigzag.source(u) != zigzag.target(v):
                items.append(
                    {"relation": relation, "lhs": "0", "rhs": rhs, "pass": not expected}
                )
                continue
            prod = gauge[u] @ gauge[v]
            labels = [
                w
                for w in algebra.basis
                if zigzag.source(w) == zigzag.source(v)
                and zigzag.target(w) == zigzag.target(u)
            ]
            mats = [gauge[w] for w in labels]
            want = QMatrix.zeros(prod.rows, prod.cols)
            for w, c in expected.items():
                want = want + gauge[w].scale(c)
            ok = prod == want
            if not mats:
                lhs = "0" if prod.is_zero() else "<outside hom space>"
            else:
                try:
                    coords = coords_in_basis(mats, prod)
                    lhs = zigzag.element_str(
                        {lab: c for lab, c in zip(labels, coords) if c}
                    )
                except NoSolutionError:
                    lhs = "<not in gauge span>"
                    ok = False
            items.append(
                {"relation": relation, "lhs": lhs, "rhs": rhs, "pass": bool(ok)}
            )
    return items


def scrambled_quiver(n: int, seed: int = 20240817) -> HomQuiver:
    """hom_quiver(n) with every Hom basis element rescaled by a pseudo-random
    unit; gauge fixing must absorb the scalars."""
    rng = random.Random(seed)
    hq = quiver(n)

    def scramble(basis: tuple) -> tuple:
        scaled = []
        for b in basis:
            c = GaussianRational(rng.randint(1, 5), rng.randint(-4, 4))
            scaled.append(b.scale(c))
        return tuple(scaled)

    homs = tuple(
        tuple(scramble(hq.hom(a, b)) for b in range(n + 1)) for a in range(n + 1)
    )
    return HomQuiver(n, hq.modules, homs)


def y2_scaled_gauge(hq: HomQuiver) -> dict:
    gauge = gauge_fix(hq)
    gauge[("y", 2)] = gauge[("y", 2)].scale(2)
    return gauge


class TestHomQuiver:
    def test_single_vertex(self):
        hq = hom_quiver(0)
        assert hq.dim_matrix() == [[2]]

    def test_dimension_matrix(self):
        hq = hom_quiver(2)
        assert hq.dim_matrix() == [[2, 1, 0], [1, 2, 1], [0, 1, 2]]

    def test_composition_associative(self):
        # (h o g) o f == h o (g o f) over every basis triple of every path
        hq = hom_quiver(2)
        n = hq.n
        for a in range(n + 1):
            for b in range(n + 1):
                for c in range(n + 1):
                    for d in range(n + 1):
                        for f in hq.hom(a, b):
                            for g in hq.hom(b, c):
                                for h in hq.hom(c, d):
                                    assert (h @ g) @ f == h @ (g @ f)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hom_quiver(-1)

    def test_extension_keeps_prev_and_equals_a_fresh_quiver(self):
        prev = hom_quiver(0)
        for n in range(1, 5):
            hq = hom_quiver(n, prev)
            assert hq == hom_quiver(n)
            assert all(hq.modules[a] is m for a, m in enumerate(prev.modules))
            for a, row in enumerate(prev.homs):
                assert all(hq.homs[a][b] is h for b, h in enumerate(row))
            prev = hq

    def test_prev_of_another_truncation_is_an_error(self):
        with pytest.raises(DomainError, match="cannot extend the quiver of N = 1"):
            hom_quiver(3, hom_quiver(1))

    def test_checked_label_counts_are_the_zigzag_pattern(self):
        # The count hom_quiver checks: 2 for a = b, 1 for |a - b| = 1, else 0.
        for n in range(25):
            labels = equivalence._hom_labels(zigzag.make(n).basis)
            for a in range(n + 1):
                for b in range(n + 1):
                    want = 2 if a == b else (1 if abs(a - b) == 1 else 0)
                    assert len(labels.get((a, b), ())) == want, (n, a, b)

    def test_extension_checks_the_kept_pairs(self):
        # A kept Hom basis with the wrong dimension still fails the pattern.
        prev = hom_quiver(1)
        homs = (((), prev.homs[0][1]), prev.homs[1])
        bad = HomQuiver(1, prev.modules, homs)
        with pytest.raises(VerificationError, match=r"Hom\(P\(0\), P\(0\)\) = 0"):
            hom_quiver(2, bad)


class TestGaugeFix:
    def test_identity_laws(self):
        hq = hom_quiver(2)
        g = gauge_fix(hq)
        assert g[("e", 1)] @ g[("x", 0)] == g[("x", 0)]
        assert g[("x", 0)] @ g[("e", 0)] == g[("x", 0)]

    def test_z0_nonzero(self):
        hq = hom_quiver(1)
        g = gauge_fix(hq)
        z0 = g[("y", 1)] @ g[("x", 0)]
        assert not z0.is_zero()
        assert g[("z", 0)] == z0

    def test_interior_composites_agree(self):
        hq = hom_quiver(3)
        g = gauge_fix(hq)
        for a in range(1, 3):
            down_up = g[("x", a - 1)] @ g[("y", a)]
            up_down = g[("y", a + 1)] @ g[("x", a)]
            assert down_up == up_down
            assert g[("z", a)] == down_up

    @pytest.mark.parametrize("entry", range(8))
    def test_doubled_arrow_entry_fails_at_vertex_1(self, with_doubled_arrow, entry):
        # x0 has 8 nonzeros; doubling any one of them breaks the loop
        # relation x0*y1 ~ y2*x1 at the next vertex.
        bad = with_doubled_arrow(hom_quiver(2), entry)
        with pytest.raises(VerificationError, match="at vertex 1"):
            gauge_fix(bad)

    def test_incremental_gauge_equals_scratch(self):
        prev = None
        for n in range(13):
            hq = hom_quiver(n)
            gauge = gauge_fix(hq, prev)
            assert gauge == gauge_fix(hq) == reference_gauge_fix(hq), n
            if n >= 2:
                # The gauge of N - 1 was extended, not rebuilt.
                assert all(gauge[lab] is m for lab, m in prev[1].items()), n
            prev = (hq, gauge)

    def test_previous_gauge_of_another_quiver_is_not_reused(self, with_doubled_arrow):
        bad = with_doubled_arrow(hom_quiver(1))
        prev = (bad, gauge_fix(bad))
        got = gauge_fix(hom_quiver(2), prev)
        assert got == gauge_fix(hom_quiver(2))
        assert got[("x", 0)] is not prev[1][("x", 0)]

    def test_previous_gauge_of_another_truncation_is_not_reused(self):
        hq2 = hom_quiver(2)
        prev = (hq2, gauge_fix(hq2))
        got = gauge_fix(hom_quiver(4), prev)
        assert got == gauge_fix(hom_quiver(4))
        assert got[("y", 2)] is not prev[1][("y", 2)]

    def test_single_vertex_radical(self):
        hq = hom_quiver(0)
        g = gauge_fix(hq)
        z0 = g[("z", 0)]
        assert not z0.is_zero()
        assert (z0 @ z0).is_zero()


class TestCompareZigzag:
    def test_small_truncations_pass(self):
        for n in range(5):
            hq = hom_quiver(n)
            items = expand_runs(compare_zigzag(hq))
            assert len(items) == (4 * n + 2) ** 2
            failures = [it for it in items if not it["pass"]]
            assert failures == []

    def test_report_schema(self, schemas):
        items = expand_runs(compare_zigzag(hom_quiver(1)))
        jsonschema.validate(items, schemas["report"])

    def test_key_relations_present(self):
        items = expand_runs(compare_zigzag(hom_quiver(2)))
        items = {it["relation"]: it for it in items}
        assert items["z1*z1"]["lhs"] == "0"
        assert items["x1*x0"]["lhs"] == "0"
        assert items["y1*x0"]["lhs"] == "z0"
        assert items["x0*y1"]["lhs"] == "z1"
        assert items["e0*x0"]["rhs"] == "0"  # not composable: x0 lands at vertex 1

    def test_rescaled_bases_give_same_verdict(self):
        items = compare_zigzag(scrambled_quiver(3))
        assert all(it["pass"] for it in items)

    def test_corrupted_gauge_scalar_fails_only_its_relations(self):
        hq = hom_quiver(2)
        items = compare_zigzag(hq, y2_scaled_gauge(hq))
        assert [it for it in items if not it["pass"]] == [
            {"relation": "x1*y2", "lhs": "2*z2", "rhs": "z2", "pass": False},
            {"relation": "y2*x1", "lhs": "2*z1", "rhs": "z1", "pass": False},
        ]

    def test_corrupted_identity_fails_only_its_products(self):
        # e1 with one diagonal entry 2 is no identity, so every product with
        # it is multiplied in full, also after a clean run filled the memo.
        hq = hom_quiver(2)
        memo: dict = {}
        assert all(it["pass"] for it in compare_zigzag(hq, memo=memo))
        gauge = gauge_fix(hq)
        e1 = gauge[("e", 1)]
        diagonal = {i: {i: 2 if i == 1 else 1} for i in range(e1.rows)}
        gauge[("e", 1)] = QMatrix(e1.rows, e1.cols, diagonal)
        items = compare_zigzag(hq, gauge, memo)
        assert [it["relation"] for it in items if not it["pass"]] == [
            "e1*e1", "e1*z1", "e1*x0", "e1*y2", "z1*e1", "x1*e1", "y1*e1"
        ]

    def test_failure_prints_solved_coordinates(self):
        # y2 scaled by 1 + i: a failing lhs is the solved coordinate, not rhs.
        hq = hom_quiver(3)
        gauge = gauge_fix(hq)
        gauge[("y", 2)] = gauge[("y", 2)].scale(GaussianRational(1, 1))
        items = compare_zigzag(hq, gauge)
        failures = {it["relation"]: it["lhs"] for it in items if not it["pass"]}
        assert failures == {"x1*y2": "1+1*i*z2", "y2*x1": "1+1*i*z1"}

    def test_corrupted_table_fails(self, monkeypatch):
        # One composable and one non-composable pair of the table corrupted.
        real = zigzag.make

        def corrupted_make(n):
            algebra = real(n)
            mult = dict(algebra.mult)
            mult[(("y", 1), ("x", 0))] = {("z", 0): 2}  # y1*x0 := 2*z0
            mult[(("e", 0), ("x", 0))] = {("x", 0): 1}  # e0*x0 := x0
            return zigzag.ZigzagAlgebra(algebra.n, algebra.basis, mult)

        monkeypatch.setattr(equivalence.zigzag, "make", corrupted_make)
        items = compare_zigzag(hom_quiver(2))
        assert [it for it in items if not it["pass"]] == [
            {"relation": "e0*x0", "lhs": "0", "rhs": "x0", "pass": False},
            {"relation": "y1*x0", "lhs": "z0", "rhs": "2*z0", "pass": False},
        ]

    def test_memo_is_keyed_by_value(self):
        # A clean run first fills the product memo; the corrupted gauge shares
        # every label with it, reads the same memo and must still fail.
        hq = hom_quiver(2)
        memo: dict = {}
        assert all(it["pass"] for it in compare_zigzag(hq, memo=memo))
        items = compare_zigzag(hq, y2_scaled_gauge(hq), memo)
        assert [it["relation"] for it in items if not it["pass"]] == ["x1*y2", "y2*x1"]


def compared(hq: HomQuiver, gauge: dict | None = None) -> list[dict]:
    """``compare_zigzag`` with its runs expanded into items."""
    return expand_runs(compare_zigzag(hq, gauge))


class TestAgainstReference:
    """The runs, the memo and the solve-on-FAIL rule give the items of the
    reference that lists every pair and solves every product afresh, on
    passing and failing inputs; only over a dependent gauge basis does a
    passing lhs differ, being the table's terms."""

    @pytest.mark.parametrize("n", range(13))
    def test_clean(self, n):
        hq = quiver(n)
        assert compared(hq) == reference_compare_zigzag(hq)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_doubled_arrow(self, with_doubled_arrow, n):
        bad = with_doubled_arrow(quiver(n))
        if n == 1:
            # One vertex pair: the gauge exists and the loops fail.
            got = compared(bad)
            assert got == reference_compare_zigzag(bad)
            assert not all(it["pass"] for it in got)
            return
        with pytest.raises(VerificationError) as got:
            compare_zigzag(bad)
        with pytest.raises(VerificationError) as want:
            reference_compare_zigzag(bad)
        assert str(got.value) == str(want.value)
        # The clean gauge with the doubled arrow put in fails item by item.
        clean = quiver(n)
        gauge = gauge_fix(clean)
        gauge[("x", 0)] = bad.hom(0, 1)[0]
        items = compared(clean, gauge)
        assert items == reference_compare_zigzag(clean, gauge)
        assert not all(it["pass"] for it in items)

    def test_rescaled_bases(self):
        for n in range(13):
            hq = scrambled_quiver(n)
            assert compared(hq) == reference_compare_zigzag(hq), n

    @pytest.mark.parametrize("n", range(2, 13))
    def test_y2_scaled_gauge(self, n):
        hq = quiver(n)
        gauge = y2_scaled_gauge(hq)
        assert compared(hq, gauge) == reference_compare_zigzag(hq, gauge)

    def test_dependent_gauge_basis_is_solved(self):
        # z0 = 2 e0 makes the basis of End P(0) dependent.  A passing lhs is
        # the table's terms, an exact expression of the product in that
        # basis; only the failing z0*z0 is solved, as by the reference, which
        # solves every lhs.
        hq = hom_quiver(0)
        gauge = gauge_fix(hq)
        gauge[("z", 0)] = gauge[("e", 0)].scale(2)
        items = compared(hq, gauge)
        assert items == [
            {"relation": "e0*e0", "lhs": "e0", "rhs": "e0", "pass": True},
            {"relation": "e0*z0", "lhs": "z0", "rhs": "z0", "pass": True},
            {"relation": "z0*e0", "lhs": "z0", "rhs": "z0", "pass": True},
            {"relation": "z0*z0", "lhs": "4*e0", "rhs": "0", "pass": False},
        ]
        reference = reference_compare_zigzag(hq, gauge)
        assert [{**it, "lhs": None} for it in items] == [
            {**it, "lhs": None} for it in reference
        ]
        assert [it["lhs"] for it in reference if not it["pass"]] == ["4*e0"]


def with_stored_product(monkeypatch, u, v, value) -> None:
    """Make ``zigzag.make``, as ``equivalence`` reads it, store u*v := value
    in every truncation that has both labels."""
    real = zigzag.make

    def make(n):
        algebra = real(n)
        if u not in algebra.basis or v not in algebra.basis:
            return algebra
        return zigzag.ZigzagAlgebra(n, algebra.basis, {**algebra.mult, (u, v): value})

    monkeypatch.setattr(equivalence.zigzag, "make", make)


class TestRuns:
    """Structural zeros come as runs between the items that need work."""

    @pytest.mark.parametrize("n", range(7))
    def test_only_composable_pairs_stand_alone(self, n):
        hq = quiver(n)
        algebra = zigzag.make(n)
        dim = algebra.dim
        single = {
            f"{label_str(u)}*{label_str(v)}"
            for u in algebra.basis
            for v in algebra.basis
            if zigzag.source(u) == zigzag.target(v)
        }
        items = compare_zigzag(hq)
        runs = [it for it in items if "run" in it]
        assert {it["relation"] for it in items if "run" not in it} == single
        assert all(it["run"] for it in runs)
        assert {(it["lhs"], it["rhs"], it["pass"]) for it in runs} <= {("0", "0", True)}
        # At most one run before, between and after the composable pairs of u.
        assert len(runs) <= 5 * dim
        assert len(expand_runs(items)) == dim * dim

    # Basis of N = 4: e0..e4, z0..z4, x0..x3, y1..y4.  Each pair is stored in
    # a run of structural zeros of the clean table.
    @pytest.mark.parametrize(
        "u, v",
        [
            (("e", 2), ("e", 0)),  # first pair of its row, in the run e0, e1
            (("e", 0), ("x", 1)),  # inside the run z1..z4, x0..x3
            (("z", 1), ("y", 4)),  # last pair of its row, in the run y3, y4
        ],
        ids=["first-of-row", "inside-run", "last-of-row"],
    )
    def test_stored_non_composable_pair_fails_at_its_place(
        self, monkeypatch, capsys, u, v
    ):
        with_stored_product(monkeypatch, u, v, {("x", 0): 1})
        hq = quiver(4)
        items = compared(hq)
        assert items == reference_compare_zigzag(hq)
        basis = zigzag.make(4).basis
        where = basis.index(u) * len(basis) + basis.index(v)
        relation = f"{label_str(u)}*{label_str(v)}"
        assert [(k, it) for k, it in enumerate(items) if not it["pass"]] == [
            (where, {"relation": relation, "lhs": "0", "rhs": "x0", "pass": False})
        ]
        # The report, checks count and exit code are those of the items
        # written one by one; the pair fails in each truncation that has it.
        having = sum({u, v} <= set(zigzag.make(n).basis) for n in range(5))
        for fmt in ("text", "json"):
            code = cli.main(["verify", "zigzag", "--max", "4", "--format", fmt])
            out = capsys.readouterr().out
            assert code == 1
            assert out == render_items("zigzag", cli._suite_zigzag(4), fmt)
        assert out.count('"pass":false') == having


class TestProductCheck:
    """``_product_matches`` builds its expected value from the terms alone."""

    @staticmethod
    def reference(u, v, terms) -> bool:
        prod = u @ v
        want = QMatrix.zeros(prod.rows, prod.cols)
        for m, c in terms:
            want = want + m.scale(c)
        return prod == want

    def test_agrees_with_the_full_sum(self):
        g = gauge_fix(quiver(2))
        e0, z0, x0 = g[("e", 0)], g[("z", 0)], g[("x", 0)]
        e1, y1 = g[("e", 1)], g[("y", 1)]
        cases = [
            (z0, z0, ()),  # no terms, product 0
            (e0, z0, ()),  # no terms, product z0
            (y1, x0, ((z0, 1),)),  # one unit term
            (e1, x0, ((x0, 1),)),
            (e0, z0, ((z0, 2),)),  # one non-unit term
            (e0, z0, ((z0, GaussianRational(1, 1)),)),
            (e0, z0, ((z0, 2), (z0, -1))),  # two terms
            (e0, z0, ((z0, 1), (e0, 1))),
            (e0, e0, ((z0, 1), (e0, 1))),
        ]
        for u, v, terms in cases:
            got = equivalence._product_matches(u, v, terms)
            assert got == self.reference(u, v, terms), terms
        assert [equivalence._product_matches(*case) for case in cases] == [
            True, False, True, True, False, False, True, False, False
        ]

    def test_wrong_values_fail(self):
        g = gauge_fix(quiver(2))
        e1, x0, z0 = g[("e", 1)], g[("x", 0)], g[("z", 0)]
        # A gauge matrix scaled by 2 against the table's unit term.
        assert not equivalence._product_matches(e1, x0.scale(2), ((x0, 1),))
        assert not equivalence._product_matches(e1, x0, ((x0.scale(2), 1),))
        # A table with z0*z0 = z0.
        assert not equivalence._product_matches(z0, z0, ((z0, 1),))

    def test_term_of_another_shape_fails(self):
        g = gauge_fix(quiver(2))
        # y1*x0 is an endomorphism of P(0); x0 maps P(0) to P(2).
        y1, x0 = g[("y", 1)], g[("x", 0)]
        assert not equivalence._product_matches(y1, x0, ((x0, 1),))


def frobenius_items(max_n: int) -> dict:
    """The items of the frobenius sweep to max_n by pair (n, m), after
    checking that it yields one per pair, n major."""
    items = list(frobenius_action_check(max_n))
    pairs = [(n, m) for n in range(max_n + 1) for m in range(max_n + 1)]
    relations = [item["relation"].split(" == ")[0] for item in items]
    assert relations == [f"frobenius({n},{m})" for n, m in pairs]
    return dict(zip(pairs, items))


class TestFrobeniusAction:
    def test_unit_cases(self):
        items = frobenius_items(5)
        for m in range(4):
            item = items[0, m]
            assert item["pass"]
            assert f"{2 * m}:1" in item["lhs"]

    def test_frozen_examples(self):
        assert expected_clebsch_gordan(1, 1) == Counter({4: 1, 0: 1})
        assert expected_clebsch_gordan(2, 1) == Counter({6: 1, 2: 1})
        items = frobenius_items(5)
        assert items[1, 1]["pass"]
        assert items[2, 1]["pass"]

    def test_grid(self):
        assert all(item["pass"] for item in frobenius_items(5).values())

    def test_quantum_side_matches_tensor(self):
        # The check reads characters only; the tensor module stays the reference.
        items = frobenius_items(5)
        for n in range(4):
            for m in range(4):
                want = jh(qsl2.tensor(qsl2.frobenius_simple(n), qsl2.simple(2 * m)))
                labels = ", ".join(f"{k}:{want[k]}" for k in sorted(want, reverse=True))
                assert items[n, m]["rhs"] == "{" + labels + "}"

    def test_shifted_weight_fails(self, monkeypatch):
        real = qsl2.frobenius_simple

        def shifted(n):
            fs = real(n)
            weights = (fs.weights[0] + 2,) + fs.weights[1:]
            return qsl2.QMod(weights, fs.e, fs.f, fs.e2, fs.f2)

        monkeypatch.setattr(qsl2, "frobenius_simple", shifted)
        for item in frobenius_items(5).values():
            assert not item["pass"], item

    def test_wrong_product_coefficient_names_the_per_key_error(self, monkeypatch):
        # The top coefficient of every weight-character product raised by
        # one.  At (0, 0) that is the only one, so the quantum side reads
        # two copies of L(0); otherwise it is no character, and the item
        # carries the error the per-key routine raises on the same
        # coefficients.
        true = characters._packed_product

        def bumped(a, b):
            low, step, coeffs = true(a, b)
            if isinstance(a, characters.WeightCharacter):
                coeffs = [*coeffs[:-1], coeffs[-1] + 1]
            return low, step, coeffs

        monkeypatch.setattr(characters, "_packed_product", bumped)
        items = frobenius_items(5)
        item = items[0, 0]
        assert not item["pass"] and item["rhs"] == "{0:2}"
        for n, m in [(1, 1), (2, 1), (3, 2)]:
            item = items[n, m]
            fs, sm = qsl2.char(qsl2.frobenius_simple(n)), qsl2.char(qsl2.simple(2 * m))
            low, step, coeffs = bumped(fs, sm)
            product = {low + step * i: c for i, c in enumerate(coeffs) if c}
            with pytest.raises(NotACharacterError) as exc:
                reference_key_jh(product, False)
            assert not item["pass"]
            assert item["rhs"] == f"<{exc.value}>"
            assert item["lhs"] == item["relation"].split(" == ")[1]
        assert item["rhs"] == "<multiplicity -1 at -10: not a character>"

    def test_identity_canonical_map_fails(self, monkeypatch):
        # The quantum side reads each label's own solved map: taking the one
        # of weyl(4) as the identity, its image is all of weyl(4), which is
        # not simple, and only the items of m = 2 fail.
        real = qsl2.canonical_map

        def identity_at_4(n):
            return QMatrix.identity(n + 1) if n == 4 else real(n)

        monkeypatch.setattr(qsl2, "canonical_map", identity_at_4)
        for (n, m), item in frobenius_items(4).items():
            assert item["pass"] == (m != 2), (n, m)

    def test_character_side_factor_of_sign_minus_is_an_error(self, monkeypatch):
        # Convolving with the odd simples of sign - gives factors of sign -.
        real = equivalence.simple_char
        monkeypatch.setattr(equivalence, "simple_char", lambda n, sign: real(n, "-"))
        with pytest.raises(InternalInconsistencyError, match="on the character side"):
            list(frobenius_action_check(1))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            list(frobenius_action_check(-1))
