from __future__ import annotations

import random
from collections import Counter

import jsonschema
import pytest

from qsatake import qsl2
from qsatake.equivalence import (
    HomQuiver,
    compare_zigzag,
    frobenius_action_check,
    gauge_fix,
    hom_quiver,
)
from qsatake.errors import DomainError, VerificationError
from qsatake.modtools import HomBasis, jh
from qsatake.satake import expected_clebsch_gordan
from qsatake.scalars import GaussianRational


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
                        for f in hq.hom(a, b).basis:
                            for g in hq.hom(b, c).basis:
                                for h in hq.hom(c, d).basis:
                                    assert (h @ g) @ f == h @ (g @ f)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hom_quiver(-1)


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
            items = compare_zigzag(hq)
            assert len(items) == (4 * n + 2) ** 2
            failures = [it for it in items if not it["pass"]]
            assert failures == []

    def test_report_schema(self, schemas):
        items = compare_zigzag(hom_quiver(1))
        jsonschema.validate(items, schemas["report"])

    def test_key_relations_present(self):
        items = {it["relation"]: it for it in compare_zigzag(hom_quiver(2))}
        assert items["z1*z1"]["lhs"] == "0"
        assert items["x1*x0"]["lhs"] == "0"
        assert items["y1*x0"]["lhs"] == "z0"
        assert items["x0*y1"]["lhs"] == "z1"
        assert items["e0*x0"]["rhs"] == "0"  # not composable: x0 lands at vertex 1

    def test_rescaled_bases_give_same_verdict(self):
        # Deterministically pseudo-random unit rescalings of every Hom basis
        # element; gauge fixing must absorb them.
        rng = random.Random(20240817)
        hq = hom_quiver(3)

        def scramble(hb: HomBasis) -> HomBasis:
            scaled = []
            for b in hb.basis:
                c = GaussianRational(rng.randint(1, 5), rng.randint(-4, 4))
                scaled.append(b.scale(c))
            return HomBasis(tuple(scaled))

        homs = tuple(
            tuple(scramble(hq.hom(a, b)) for b in range(4)) for a in range(4)
        )
        scrambled = HomQuiver(3, hq.modules, homs)
        items = compare_zigzag(scrambled)
        assert all(it["pass"] for it in items)


    def test_corrupted_gauge_scalar_fails_only_its_relations(self):
        hq = hom_quiver(2)
        gauge = gauge_fix(hq)
        gauge[("y", 2)] = gauge[("y", 2)].scale(2)
        failures = [it for it in compare_zigzag(hq, gauge) if not it["pass"]]
        assert failures
        for it in failures:
            assert "y2" in it["relation"].split("*"), it["relation"]


class TestFrobeniusAction:
    def test_unit_cases(self):
        for m in range(4):
            item = frobenius_action_check(0, m)[0]
            assert item["pass"]
            assert f"{2 * m}:1" in item["lhs"]

    def test_frozen_examples(self):
        assert expected_clebsch_gordan(1, 1) == Counter({4: 1, 0: 1})
        assert expected_clebsch_gordan(2, 1) == Counter({6: 1, 2: 1})
        assert frobenius_action_check(1, 1)[0]["pass"]
        assert frobenius_action_check(2, 1)[0]["pass"]

    def test_grid(self):
        for n in range(4):
            for m in range(4):
                assert frobenius_action_check(n, m)[0]["pass"]

    def test_quantum_side_matches_tensor(self):
        # The check reads characters only; the tensor module stays the reference.
        for n in range(4):
            for m in range(4):
                want = jh(qsl2.tensor(qsl2.frobenius_simple(n), qsl2.simple(2 * m)))
                labels = ", ".join(f"{k}:{want[k]}" for k in sorted(want, reverse=True))
                assert frobenius_action_check(n, m)[0]["rhs"] == "{" + labels + "}"

    def test_shifted_weight_fails(self, monkeypatch):
        real = qsl2.frobenius_simple

        def shifted(n):
            fs = real(n)
            weights = (fs.weights[0] + 2,) + fs.weights[1:]
            return qsl2.QMod(weights, fs.e, fs.f, fs.e2, fs.f2)

        monkeypatch.setattr(qsl2, "frobenius_simple", shifted)
        for n in range(3):
            for m in range(3):
                item = frobenius_action_check(n, m)[0]
                assert not item["pass"], item

    def test_domain_error(self):
        with pytest.raises(DomainError):
            frobenius_action_check(-1, 0)
