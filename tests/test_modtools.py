from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from modules import column_operators, dense_matrix, dense_str, direct_sum, to_json_dict
from qsatake.errors import DomainError, NotACharacterError
from qsatake.linalg import QMatrix
from qsatake.modtools import (
    hom,
    is_indecomposable_local,
    jh,
    projective,
    radical,
    radical_element,
    socle_dims,
)
from qsatake.qsl2 import (
    char,
    dual_weyl,
    frobenius_simple,
    simple,
    submodule,
    tensor,
    weyl,
)
from qsatake.scalars import GaussianRational


def unit_vector(dim, k):
    return dense_matrix(dim, 1, [1 if i == k else 0 for i in range(dim)])


class TestHom:
    def test_schur(self):
        assert len(hom(weyl(1), weyl(1))) == 1

    def test_end_of_projective(self):
        p2 = projective(2)
        assert len(hom(p2, p2)) == 2

    def test_distant_projectives(self):
        assert len(hom(projective(0), projective(4))) == 0

    def test_basis_elements_are_intertwiners(self):
        m, n = projective(0), projective(2)
        (x,) = hom(m, n)
        for (_, op_m), (_, op_n) in zip(column_operators(m), column_operators(n)):
            assert x @ op_m == op_n @ x

    def test_zigzag_dimension_pattern(self):
        for a in range(7):
            for b in range(7):
                expected = 2 if a == b else (1 if abs(a - b) == 1 else 0)
                assert len(hom(projective(2 * a), projective(2 * b))) == expected

    def test_projective_to_simple(self):
        for n in range(7):
            for m in range(7):
                got = len(hom(projective(2 * n), simple(2 * m)))
                assert got == (1 if n == m else 0)

    @pytest.mark.parametrize(
        "a, b, digest",
        [
            (2, 4, "4942820382a51df570778c3965153083c9e880e18eeba15d7e1d3e6ab5ef452d"),
            (4, 6, "82b0602b287dff7c960c4ff140540206f1c737941a50ef44cab4d6f2e408e9f3"),
            (22, 24, "4f06066af6a0fa008bd43effd29fe10df4c0f9c4e8372507325458d5dc8f0efe"),
        ],
    )
    def test_basis_bytes_are_pinned(self, a, b, digest):
        # These bases have non-integral entries, so their text goes through
        # the scalars' reduced-denominator path.  Digests were recorded while
        # GaussianRational still stored a pair of Fractions.
        text = "\n".join(dense_str(x) for x in hom(projective(a), projective(b)))
        assert "/" in text
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestProjective:
    def test_dimensions(self):
        for n in range(7):
            assert projective(2 * n).dim == 2 * (2 * n + 2)

    def test_jh_content(self):
        assert jh(projective(0)) == Counter({0: 2, 2: 1})
        assert jh(projective(2)) == Counter({2: 2, 0: 1, 4: 1})
        assert jh(projective(4)) == Counter({4: 2, 2: 1, 6: 1})
        for n in range(1, 7):
            assert jh(projective(2 * n)) == Counter(
                {2 * n: 2, 2 * n - 2: 1, 2 * n + 2: 1}
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            projective(3)
        with pytest.raises(DomainError):
            projective(-2)


class TestJh:
    def test_odd_weyl_is_simple(self):
        assert jh(weyl(3)) == Counter({3: 1})

    def test_even_weyl(self):
        assert jh(weyl(2)) == Counter({2: 1, 0: 1})

    def test_tensor_square(self):
        assert jh(tensor(simple(1), simple(1))) == Counter({2: 1, 0: 2})

    def test_steinberg_tensor_is_simple(self):
        for m in range(7):
            assert jh(tensor(simple(1), frobenius_simple(m))) == Counter(
                {2 * m + 1: 1}
            )

    def test_exactness_surrogate(self):
        # dim Hom(P(2n), M) equals the multiplicity of 2n in jh(M).
        corpus = [
            weyl(2),
            weyl(4),
            dual_weyl(2),
            dual_weyl(4),
            simple(2),
            simple(4),
            projective(0),
            projective(2),
            tensor(simple(2), simple(2)),
        ]
        for m in corpus:
            content = jh(m)
            for n in range(4):
                assert len(hom(projective(2 * n), m)) == content.get(2 * n, 0)

    def test_rejects_non_characters(self):
        from qsatake.qsl2 import QMod

        z = QMatrix.zeros(1, 1)
        bad = QMod((-1,), z, z, z, z)  # lone negative weight
        with pytest.raises(NotACharacterError):
            jh(bad)


class TestSubmoduleClosure:
    def test_highest_weight_vector_generates_weyl(self):
        w = weyl(2)
        sub = submodule(w, unit_vector(3, 0))
        assert sub.dim == 3

    def test_lowest_weight_vector_of_dual_weyl_generates_simple(self):
        # The [2] = 0 degeneracy sits at the bottom of the dual Weyl module,
        # so its lowest weight vector generates only L(2).
        d = dual_weyl(2)
        sub = submodule(d, unit_vector(3, 2))
        assert sub.dim == 2
        assert sorted(sub.weights) == [-2, 2]
        assert jh(sub) == Counter({2: 1})

    def test_lowest_weight_vector_of_weyl_generates_everything(self):
        # By the fixed action formulas E v_2 = [1] v_1 in weyl(2), so the
        # closure is the whole module (contrast with the dual above).
        sub = submodule(weyl(2), unit_vector(3, 2))
        assert sub.dim == 3

    def test_zero_vector(self):
        sub = submodule(weyl(2), QMatrix.zeros(3, 1))
        assert sub.dim == 0

    def test_non_homogeneous_seed_splits(self):
        w = weyl(2)
        seed = dense_matrix(3, 1, [0, 1, 1])  # weight-0 plus weight-(-2) parts
        sub = submodule(w, seed)
        assert sub.dim == 3

    def test_closure_is_operator_stable(self):
        p = projective(2)
        seed = unit_vector(p.dim, p.dim - 1)
        sub = submodule(p, seed)
        assert 0 < sub.dim <= p.dim
        from qsatake.qsl2 import integrity_violations

        assert integrity_violations(sub) == []


    def test_closure_bases_are_pinned(self):
        # sha256 of every unit-seed closure, recorded before the closure's
        # elimination step moved into linalg.insert_row.
        corpus = [
            projective(0),
            projective(2),
            projective(4),
            dual_weyl(6),
            weyl(5),
            tensor(simple(3), simple(2)),
        ]
        dumps = [
            to_json_dict(submodule(m, unit_vector(m.dim, i)))
            for m in corpus
            for i in range(m.dim)
        ]
        text = json.dumps(dumps, sort_keys=True, separators=(",", ":"))
        assert len(dumps) == 45
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "9da711b9b885c95812fe71947a8645c4645450b77672374edf85be2de5c61174"
        )


class TestSocle:
    def test_projective_socle_is_its_label(self):
        for n in range(5):
            dims = socle_dims(projective(2 * n), 2 * n + 4)
            assert dims[2 * n] == 1
            assert all(v == 0 for k, v in dims.items() if k != 2 * n)

    def test_dual_weyl_socle(self):
        assert socle_dims(dual_weyl(2), 2) == {0: 0, 1: 0, 2: 1}

    def test_weyl_socle_is_at_the_bottom(self):
        # weyl(2) has the trivial module span{v_1} as its unique simple
        # submodule under the fixed action formulas.
        assert socle_dims(weyl(2), 2) == {0: 1, 1: 0, 2: 0}

    def test_simple_socle(self):
        for n in range(5):
            dims = socle_dims(simple(n), n + 2)
            assert dims[n] == 1
            assert sum(dims.values()) == 1


class TestIndecomposable:
    def test_simple_is_indecomposable(self):
        assert is_indecomposable_local(simple(3))

    def test_projective_is_indecomposable(self):
        assert is_indecomposable_local(projective(2))
        assert is_indecomposable_local(projective(0))

    def test_direct_sum_of_equal_simples(self):
        assert not is_indecomposable_local(direct_sum(simple(0), simple(0)))

    def test_direct_sum_of_distinct_simples(self):
        assert not is_indecomposable_local(direct_sum(simple(0), simple(2)))

    def test_two_projectives_are_not_local(self):
        # End has dimension 8 and a 4-dimensional radical.
        big = direct_sum(projective(0), projective(0))
        assert len(radical(hom(big, big))) == 4
        assert not is_indecomposable_local(big)

    def test_radical_dimensions(self):
        for n in range(4):
            p = projective(2 * n)
            assert len(radical(hom(p, p))) == 1
        s = direct_sum(simple(0), simple(2))
        assert radical(hom(s, s)) == []

    def test_radical_element_squares_to_zero(self):
        for n in range(4):
            p = projective(2 * n)
            z = radical_element(hom(p, p))
            assert not z.is_zero()
            assert (z @ z).is_zero()
            _, _, lead = next(z.nonzero_entries())
            assert lead == GaussianRational(1)


class TestTensorAssociativity:
    def test_hom_dimension_matrices_agree(self):
        triples = [
            (simple(1), simple(2), simple(1)),
            (simple(2), simple(1), frobenius_simple(1)),
        ]
        for a, b, c in triples:
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            assert char(left) == char(right)
            top = max(left.weights)
            for n in range(top + 1):
                assert len(hom(simple(n), left)) == len(hom(simple(n), right))
                assert len(hom(left, simple(n))) == len(hom(right, simple(n)))
