from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from laurent import LaurentPoly, gauss_binomial_poly, qint_poly
from modules import (
    column_operators,
    dense_matrix,
    direct_sum,
    reference_back,
    reference_image,
    reference_restrict_to_span,
    rows_of,
    to_json_dict,
    transpose,
)
from qsatake.characters import WeightCharacter, simple_weights
from qsatake import qsl2
from qsatake.cli import MAX_GUARD
from qsatake.errors import DomainError, InternalInconsistencyError
from qsatake.linalg import QMatrix, kernel, rank, vecmat
from qsatake.modtools import projective
from qsatake.qsl2 import (
    QMod,
    Spin,
    canonical_map,
    char,
    dual_weyl,
    frobenius_simple,
    image_char,
    integrity_violations,
    intertwiner_basis,
    simple,
    tensor,
    weyl,
)
from qsatake.scalars import I, ONE, ZERO, gauss_binomial, i_power

# ---------------------------------------------------------------------------
# Generic-q oracle: the action formulas and the coproduct convention are
# verified symbolically over Z[q, q^-1] before anything is trusted at q = i.
# The matrices below are built directly from the divided-power formulas,
# independent of the package's specialized constructors.
# ---------------------------------------------------------------------------

ZERO_P = LaurentPoly.zero()
TWO = qint_poly(2)


def pmat(rows):
    return [list(r) for r in rows]


def pzeros(r, c):
    return [[ZERO_P for _ in range(c)] for _ in range(r)]


def pmul(a, b):
    r, k, c = len(a), len(b), len(b[0])
    out = pzeros(r, c)
    for i in range(r):
        for t in range(k):
            x = a[i][t]
            if not x:
                continue
            for j in range(c):
                y = b[t][j]
                if y:
                    out[i][j] = out[i][j] + x * y
    return out


def padd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def psub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def pscale(s, a):
    return [[s * x for x in row] for row in a]


def pzero_matrix(a):
    return all(not x for row in a for x in row)


def pdiag(values):
    n = len(values)
    out = pzeros(n, n)
    for i, v in enumerate(values):
        out[i][i] = v
    return out


def generic_weyl(n):
    """Operator matrices of the generic-q Weyl module in the divided basis."""
    d = n + 1
    e, f, e2, f2 = pzeros(d, d), pzeros(d, d), pzeros(d, d), pzeros(d, d)
    for j in range(d):
        if j >= 1:
            e[j - 1][j] = gauss_binomial_poly(n - j + 1, 1)
        if j >= 2:
            e2[j - 2][j] = gauss_binomial_poly(n - j + 2, 2)
        if j + 1 < d:
            f[j + 1][j] = gauss_binomial_poly(j + 1, 1)
        if j + 2 < d:
            f2[j + 2][j] = gauss_binomial_poly(j + 2, 2)
    weights = [n - 2 * j for j in range(d)]
    return weights, e, f, e2, f2


def generic_tensor(n, m):
    """Coproduct-built operators on weyl(n) (x) weyl(m) at generic q."""
    wn, en, fn, e2n, f2n = generic_weyl(n)
    wm, em, fm, e2m, f2m = generic_weyl(m)
    dn, dm = len(wn), len(wm)
    q = LaurentPoly.monomial(1)

    def kron(a, b):
        out = pzeros(dn * dm, dn * dm)
        for i in range(dn):
            for k in range(dn):
                if not a[i][k]:
                    continue
                for j in range(dm):
                    for l in range(dm):
                        if b[j][l]:
                            out[i * dm + j][k * dm + l] = a[i][k] * b[j][l]
        return out

    iden_n = pdiag([LaurentPoly.one()] * dn)
    iden_m = pdiag([LaurentPoly.one()] * dm)
    k_n = pdiag([LaurentPoly.monomial(w) for w in wn])
    k2_n = pdiag([LaurentPoly.monomial(2 * w) for w in wn])
    kinv_m = pdiag([LaurentPoly.monomial(-w) for w in wm])
    kinv2_m = pdiag([LaurentPoly.monomial(-2 * w) for w in wm])

    weights = [a + b for a in wn for b in wm]
    e = padd(kron(en, iden_m), kron(k_n, em))
    f = padd(kron(fn, kinv_m), kron(iden_n, fm))
    e2 = padd(
        padd(kron(e2n, iden_m), pscale(q, kron(pmul(en, k_n), em))),
        kron(k2_n, e2m),
    )
    f2 = padd(
        padd(kron(f2n, kinv2_m), pscale(q, kron(fn, pmul(fm, kinv_m)))),
        kron(iden_n, f2m),
    )
    return weights, e, f, e2, f2


def assert_generic_module(weights, e, f, e2, f2):
    """The five operator identities at generic q (E^2 = [2] E2 replaces E^2 = 0)."""
    assert pzero_matrix(psub(pmul(e, e), pscale(TWO, e2)))
    assert pzero_matrix(psub(pmul(f, f), pscale(TWO, f2)))
    h = pdiag([qint_poly(w) for w in weights])
    assert pzero_matrix(psub(psub(pmul(e, f), pmul(f, e)), h))
    assert pzero_matrix(psub(pmul(e, e2), pmul(e2, e)))
    assert pzero_matrix(psub(pmul(f, f2), pmul(f2, f)))
    hm1 = pdiag([qint_poly(w - 1) for w in weights])
    lhs = psub(pmul(e, f2), pmul(f2, e))
    assert pzero_matrix(psub(lhs, pmul(f, hm1)))


class TestGenericQOracle:
    def test_weyl_formulas_satisfy_relations(self):
        for n in range(7):
            assert_generic_module(*generic_weyl(n))

    def test_coproduct_squares_to_divided_powers(self):
        for n, m in [(1, 1), (1, 2), (2, 2), (3, 1), (2, 3)]:
            assert_generic_module(*generic_tensor(n, m))

    def test_divided_power_commutation_identity(self):
        # [j+2, 2][n-j-1] == [n-j+1][j+1, 2] + [j+1][n-2j-1] in Z[q, q^-1],
        # with [n, r] read as zero for r > n.
        def gb(n, r):
            return gauss_binomial_poly(n, r) if r <= n else ZERO_P

        for n in range(12):
            for j in range(n + 1):
                lhs = gb(j + 2, 2) * qint_poly(n - j - 1)
                rhs = gb(j + 1, 2) * qint_poly(n - j + 1) + qint_poly(
                    j + 1
                ) * qint_poly(n - 2 * j - 1)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# Specialized modules at q = i.
# ---------------------------------------------------------------------------


def assert_module(m: QMod):
    assert integrity_violations(m) == []


class TestWeyl:
    def test_trivial(self):
        w = weyl(0)
        assert w.dim == 1 and w.weights == (0,)
        for _, op in w.operators():
            assert op.is_zero()

    def test_two_dimensional(self):
        ops = dict(column_operators(weyl(1)))
        assert ops["E"][0, 1] == 1
        assert ops["F"][1, 0] == 1
        assert ops["E2"].is_zero() and ops["F2"].is_zero()

    def test_three_dimensional_degeneracy(self):
        ops = dict(column_operators(weyl(2)))
        assert ops["E"][0, 1] == 0  # [2] = 0
        assert ops["E"][1, 2] == 1
        assert ops["E2"][0, 2] == 1

    def test_characters(self):
        for n in range(13):
            assert char(weyl(n)) == WeightCharacter(
                {n - 2 * j: 1 for j in range(n + 1)}
            )

    def test_integrity(self):
        for n in range(9):
            assert_module(weyl(n))
            assert_module(dual_weyl(n))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            weyl(-1)


class TestDualWeyl:
    def test_small_duals_equal_weyl(self):
        assert dual_weyl(0) == weyl(0)
        assert dual_weyl(1) == weyl(1)

    def test_transpose_structure(self):
        # Up to 49, the largest Weyl label homdim builds (simple(49) for
        # P(48)): dual_weyl is written from its own formula, and checked here
        # against the transposed and swapped weyl.
        for n in range(50):
            w, d = weyl(n), dual_weyl(n)
            assert d.e == transpose(w.f), n
            assert d.f == transpose(w.e), n
            assert d.e2 == transpose(w.f2), n
            assert d.f2 == transpose(w.e2), n
            assert d.weights == w.weights

    def test_lowest_weight_vector_killed_by_e(self):
        # In dual_weyl(2) the [2] = 0 degeneracy moves to the bottom: the
        # lowest weight vector generates only the two-dimensional simple.
        ops = dict(column_operators(dual_weyl(2)))
        assert (ops["E"] @ dense_matrix(3, 1, [0, 0, 1])).is_zero()
        assert ops["E2"][0, 2] == 1


class TestCanonicalMap:
    def test_trivial(self):
        assert canonical_map(0) == QMatrix.identity(1)

    def test_odd_invertible(self):
        # Up to the largest Weyl label homdim and verify build without
        # --force: simple(n) = weyl(n) for odd n rests on this.
        for m in range(MAX_GUARD + 1):
            x = canonical_map(2 * m + 1)
            assert rank(x) == 2 * m + 2

    def test_image_char_is_the_simple_character(self):
        for n in range(2 * MAX_GUARD + 2):
            assert image_char(n) == char(simple(n)), n

    def test_even_frozen_example(self):
        x = canonical_map(2)
        assert x == QMatrix.diagonal([1, 0, 1])
        assert rank(x) == 2

    def test_normalization(self):
        for n in range(8):
            assert canonical_map(n)[0, 0] == 1

    def test_is_intertwiner(self):
        for n in range(7):
            x = canonical_map(n)
            ops_w, ops_d = column_operators(weyl(n)), column_operators(dual_weyl(n))
            for (_, op_w), (_, op_d) in zip(ops_w, ops_d):
                assert x @ op_w == op_d @ x


class TestSimple:
    def test_trivial(self):
        assert simple(0).dim == 1

    def test_odd_equals_weyl(self):
        assert simple(3) == weyl(3)
        assert simple(3).dim == 4

    def test_even_structure(self):
        s = simple(2)
        assert s.weights == (2, -2)
        ops = dict(column_operators(s))
        assert ops["E"].is_zero() and ops["F"].is_zero()
        assert ops["E2"] == dense_matrix(2, 2, [0, 1, 0, 0])
        assert ops["F2"] == dense_matrix(2, 2, [0, 0, 1, 0])

    def test_even_dimensions_and_weights(self):
        for m in range(7):
            s = simple(2 * m)
            assert s.dim == m + 1
            assert s.weights == tuple(2 * m - 4 * j for j in range(m + 1))

    def test_integrity(self):
        for n in range(9):
            assert_module(simple(n))

    def test_weight_poly_closed_form(self):
        for n in range(11):
            assert char(simple(n)) == WeightCharacter(dict.fromkeys(simple_weights(n), 1))


class TestFrobeniusSimple:
    def test_trivial(self):
        assert frobenius_simple(0).dim == 1

    def test_endomorphisms_are_the_scalars(self):
        for m in range(7):
            fs = frobenius_simple(m)
            assert intertwiner_basis(fs, fs) == [QMatrix.identity(m + 1)]

    def test_integrity(self):
        for m in range(7):
            assert_module(frobenius_simple(m))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            frobenius_simple(-2)


class TestTensor:
    def test_unit(self):
        for m in (weyl(2), simple(4), frobenius_simple(2)):
            assert tensor(weyl(0), m) == m

    def test_weights_add(self):
        t = tensor(simple(1), simple(1))
        assert t.dim == 4
        assert t.weights == (2, 0, 0, -2)

    def test_char_multiplicative(self):
        for a, b in [(weyl(2), weyl(3)), (simple(2), simple(1)), (weyl(1), simple(4))]:
            assert char(tensor(a, b)) == char(a) * char(b)

    def test_steinberg_character(self):
        for m in range(7):
            t = tensor(simple(1), frobenius_simple(m))
            assert char(t) == char(weyl(2 * m + 1))

    def test_integrity_of_tensors(self):
        mods = [simple(1), simple(2), simple(3), weyl(2), frobenius_simple(2)]
        for a in mods:
            for b in mods:
                assert_module(tensor(a, b))

    def test_integrity_of_projectives(self):
        for a in range(13):
            assert_module(projective(2 * a))


class TestDirectSum:
    def test_integrity_and_char(self):
        s = direct_sum(weyl(2), simple(1))
        assert_module(s)
        assert s.dim == 5
        assert char(s) == WeightCharacter({2: 1, 1: 1, 0: 1, -1: 1, -2: 1})


def formula_images(n: int, dual: bool) -> dict[str, list[dict]]:
    """The images of v_0 .. v_n under E, F, E2, F2 by the action formulas
    in the docstrings: in weyl(n), E^(r) v_j = [n-j+r, r] v_{j-r} and
    F^(r) v_j = [j+r, r] v_{j+r}; in dual_weyl(n), E^(r) v_j = [j, r] v_{j-r}
    and F^(r) v_j = [n-j, r] v_{j+r}."""

    def image(j: int, r: int, raising: bool) -> dict:
        k = j - r if raising else j + r
        if not 0 <= k <= n:
            return {}
        if dual:
            top = j if raising else n - j
        else:
            top = n - j + r if raising else j + r
        c = gauss_binomial(top, r)
        return {k: c} if c else {}

    ops = {"E": (1, True), "F": (1, False), "E2": (2, True), "F2": (2, False)}
    return {
        name: [image(j, r, raising) for j in range(n + 1)]
        for name, (r, raising) in ops.items()
    }


def coproduct_images(m_weights, m_images, n_weights, n_images) -> dict:
    """The images of v_a (x) v_b, at index a * len(n_weights) + b, by the
    coproduct in ``tensor``'s docstring applied to vectors, from the images
    of the basis vectors of each factor."""
    dn = len(n_weights)
    out: dict[str, list[dict]] = {name: [] for name in m_images}
    for a, wa in enumerate(m_weights):
        for b, wb in enumerate(n_weights):
            va, vb = {a: ONE}, {b: ONE}
            mi = {name: images[a] for name, images in m_images.items()}
            ni = {name: images[b] for name, images in n_images.items()}
            terms = {
                "E": [(mi["E"], vb, ONE), (va, ni["E"], i_power(wa))],
                "F": [(mi["F"], vb, i_power(-wb)), (va, ni["F"], ONE)],
                "E2": [
                    (mi["E2"], vb, ONE),
                    (mi["E"], ni["E"], I * i_power(wa)),
                    (va, ni["E2"], i_power(2 * wa)),
                ],
                "F2": [
                    (mi["F2"], vb, i_power(-2 * wb)),
                    (mi["F"], ni["F"], I * i_power(-wb)),
                    (va, ni["F2"], ONE),
                ],
            }
            for name, parts in terms.items():
                total: dict = {}
                for x, y, c in parts:
                    for i, u in x.items():
                        for k, v in y.items():
                            key = i * dn + k
                            total[key] = total.get(key, ZERO) + c * u * v
                out[name].append({k: v for k, v in total.items() if v})
    return out


class TestOrientation:
    """Row j of each stored operator is the image of basis vector v_j."""

    @staticmethod
    def assert_rows(m: QMod, images: dict) -> None:
        for name, op in m.operators():
            assert rows_of(op) == images[name], name

    def test_weyl_and_dual_weyl(self):
        for n in range(13):
            self.assert_rows(weyl(n), formula_images(n, dual=False))
            self.assert_rows(dual_weyl(n), formula_images(n, dual=True))

    def test_frobenius_simple(self):
        # E2 v_j = (n-j+1) v_{j-1} and F2 v_j = (j+1) v_{j+1}; E = F = 0.
        for n in range(13):
            d = n + 1
            self.assert_rows(
                frobenius_simple(n),
                {
                    "E": [{}] * d,
                    "F": [{}] * d,
                    "E2": [{j - 1: n - j + 1} if j else {} for j in range(d)],
                    "F2": [{j + 1: j + 1} if j < n else {} for j in range(d)],
                },
            )

    def test_even_simple(self):
        # simple(2n) is frobenius_simple(n), whose rows test_frobenius_simple
        # pins.
        for n in range(13):
            assert simple(2 * n) is frobenius_simple(n)

    def test_projective(self):
        # P(6) = simple(7) (x) simple(1), and both factors are Weyl modules.
        images = coproduct_images(
            weyl(7).weights,
            formula_images(7, dual=False),
            weyl(1).weights,
            formula_images(1, dual=False),
        )
        self.assert_rows(projective(6), images)


class TestJsonDump:
    def test_shape_and_entry_format(self):
        d = to_json_dict(weyl(1))
        assert d["weights"] == [1, -1]
        assert d["E"][0][1] == "1"
        t = to_json_dict(tensor(simple(1), simple(1)))
        flat = [x for row in t["E"] for x in row]
        assert "0+1*i" in flat  # K(x)E contributes a coefficient i


class TestIntegrityMutations:
    E_IDENTITIES = {
        "E@E != 0",
        "E@F - F@E != diag([w])",
        "E@E2 != E2@E",
        "E@F2 - F2@E != F@diag([w-1])",
        "E2@F - F@E2 != diag([w-1])@E",
    }

    @staticmethod
    def with_e(m: QMod, e: QMatrix) -> QMod:
        """m with E replaced by e, given in the column convention."""
        return QMod(m.weights, transpose(e), m.f, m.e2, m.f2)

    def test_changed_e_entry_names_the_broken_identities(self):
        p = projective(2)
        assert integrity_violations(p) == []
        e = dict(column_operators(p))["E"]
        entries = list(e.nonzero_entries())
        assert entries
        for i, j, v in entries:
            rows = dict(enumerate(rows_of(e)))
            rows[i][j] = v * 2
            bad = self.with_e(p, QMatrix(p.dim, p.dim, rows))
            # F@F = 0 and F@F2 = F2@F do not involve E and must still hold.
            # E2@F2 - F2@E2 meets E only through F@diag([w-2])@E, and [w-2]
            # is 0 at the even weights of P(2).
            assert set(integrity_violations(bad)) == self.E_IDENTITIES, (i, j)

    def test_misplaced_e_entry_names_the_weight_shift(self):
        p = projective(2)
        e = dict(column_operators(p))["E"]
        i, j, v = next(e.nonzero_entries())
        rows = dict(enumerate(rows_of(e)))
        rows[i].pop(j)
        rows.setdefault(j, {})[j] = v
        found = integrity_violations(
            self.with_e(p, QMatrix(p.dim, p.dim, rows))
        )
        w = p.weights[j]
        assert f"E[{j},{j}] maps weight {w} to {w}, expected shift 2" in found

    def test_weight_shift_messages_follow_the_column_convention(self):
        # Stored rows 0 and 1 hold E's entries [0, 3] and [1, 2], which act on
        # columns as E[3,0] and E[2,1]: the messages come in the row-major
        # order of the latter, the reverse of the stored one.
        w = weyl(3)
        e = QMatrix(4, 4, {0: {3: 1}, 1: {2: 1}})
        assert integrity_violations(QMod(w.weights, e, w.f, w.e2, w.f2)) == [
            "E[2,1] maps weight 1 to -1, expected shift 2",
            "E[3,0] maps weight 3 to -3, expected shift 2",
            "E@F - F@E != diag([w])",
            "E@E2 != E2@E",
            "E2@F2 - F2@E2 != F@diag([w-2])@E + diag([w choose 2])",
        ]

    # Both keep the character and pass identities 1-6; only E2@F2 - F2@E2
    # (Lusztig's rule at r = s = 2) sees them.
    E2_F2 = "E2@F2 - F2@E2 != F@diag([w-2])@E + diag([w choose 2])"

    def test_frobenius_simple_without_f2(self):
        fs = frobenius_simple(3)
        bad = QMod(fs.weights, fs.e, fs.f, fs.e2, QMatrix.zeros(fs.dim, fs.dim))
        assert integrity_violations(bad) == [self.E2_F2]

    def test_frobenius_simple_with_doubled_e2(self):
        fs = frobenius_simple(3)
        bad = QMod(fs.weights, fs.e, fs.f, fs.e2.scale(2), fs.f2)
        assert integrity_violations(bad) == [self.E2_F2]


def reference_intertwiner_basis(m: QMod, n: QMod) -> list[QMatrix]:
    """The big sparse solve ``intertwiner_basis`` made before the spin-up.

    Unknowns are the weight-matched entries X[a, b] of X: n.dim x m.dim
    (row-major).  Each operator's equations X @ op_M - op_N @ X = 0 are
    assembled from its nonzeros: unknown X[a, c] meets op_M[c, b], and unknown
    X[c, b] meets op_N[a, c], both in equation (a, b).  Equations that receive
    no term, or whose terms cancel, are never built; the rest are kept in
    (operator, a, b) order, and the basis is read off by ``linalg.kernel``.
    """
    positions = [
        (a, b)
        for a in range(n.dim)
        for b in range(m.dim)
        if n.weights[a] == m.weights[b]
    ]
    if not positions:
        return []
    rows = []
    for (_, op_m), (_, op_n) in zip(column_operators(m), column_operators(n)):
        op_m_rows = rows_of(op_m)
        op_n_cols = rows_of(transpose(op_n))
        eqs: dict[tuple[int, int], dict] = {}
        for k, (a, c) in enumerate(positions):
            for b, v in op_m_rows[c].items():
                row = eqs.setdefault((a, b), {})
                cur = row.get(k)
                row[k] = v if cur is None else cur + v
        for k, (c, b) in enumerate(positions):
            for a, v in op_n_cols[c].items():
                row = eqs.setdefault((a, b), {})
                cur = row.get(k)
                row[k] = -v if cur is None else cur - v
        for key in sorted(eqs):
            row = {k: v for k, v in eqs[key].items() if v}
            if row:
                rows.append(row)
    basis = []
    for vec in kernel(rows, len(positions)):
        x: dict[int, dict] = {}
        for k, v in vec.items():
            a, b = positions[k]
            x.setdefault(a, {})[b] = v
        basis.append(QMatrix(n.dim, m.dim, x))
    return basis


def dense_intertwiner_basis(m: QMod, n: QMod) -> list[QMatrix]:
    """Reference solve: every entry of X is an unknown (index a * m.dim + b),
    the four systems X @ op_M - op_N @ X = 0 are stacked, and X[a, b] = 0 is
    added wherever the weights differ."""
    size = n.dim * m.dim
    rows = []
    for (_, op_m), (_, op_n) in zip(column_operators(m), column_operators(n)):
        for a in range(n.dim):
            for b in range(m.dim):
                row = [ZERO] * size
                for c in range(m.dim):
                    row[a * m.dim + c] += op_m[c, b]
                for c in range(n.dim):
                    row[c * m.dim + b] -= op_n[a, c]
                rows.append(row)
    for a in range(n.dim):
        for b in range(m.dim):
            if n.weights[a] != m.weights[b]:
                row = [ZERO] * size
                row[a * m.dim + b] = ONE
                rows.append(row)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return [
        dense_matrix(n.dim, m.dim, [v.get(j, ZERO) for j in range(size)])
        for v in kernel(sparse, size)
    ]


class TestIntertwinerBasis:
    def assert_matches_dense(self, m: QMod, n: QMod) -> int:
        got = intertwiner_basis(m, n)
        assert got == dense_intertwiner_basis(m, n)
        return len(got)

    def test_weyl_to_dual_weyl_and_simple_to_weyl(self):
        for k in range(7):
            assert self.assert_matches_dense(weyl(k), dual_weyl(k)) == 1
            # An even simple with k > 0 is the head of weyl(k), not a submodule.
            want = 1 if k % 2 or k == 0 else 0
            assert self.assert_matches_dense(simple(k), weyl(k)) == want

    def test_projectives(self):
        dims = [
            [
                self.assert_matches_dense(projective(2 * a), projective(2 * b))
                for b in range(3)
            ]
            for a in range(3)
        ]
        assert dims == [[2, 1, 0], [1, 2, 1], [0, 1, 2]]

    def test_frobenius_to_even_simple(self):
        # The even simple as the image of the canonical map, not as
        # simple(2k), which is frobenius_simple(k) itself.
        for k in range(4):
            columns = reference_image(canonical_map(2 * k))
            image = reference_restrict_to_span(dual_weyl(2 * k), columns)
            assert self.assert_matches_dense(frobenius_simple(k), image) == 1

    def test_projectives_below_the_diagonal_solve_nothing(self, monkeypatch):
        # P(2b) has no weight 2a for a >= b + 2, so there are no unknowns.
        def fail(*args):
            raise AssertionError("elimination on a target with no unknowns")

        for a in range(2, 8):
            qsl2._spun_source(projective(2 * a))  # the source side eliminates once
        monkeypatch.setattr(qsl2, "reduce_rows", fail)
        monkeypatch.setattr(qsl2, "insert_row", fail)
        for a in range(2, 8):
            for b in range(a - 1):
                assert intertwiner_basis(projective(2 * a), projective(2 * b)) == []


# Sources and targets for the reference comparison: every constructor, small
# tensors, and direct sums, which need one generator per summand.
CORPUS = (
    [weyl(k) for k in range(6)]
    + [dual_weyl(k) for k in range(6)]
    + [simple(k) for k in range(7)]
    + [projective(2 * a) for a in range(3)]
    + [frobenius_simple(k) for k in range(4)]
    + [
        tensor(simple(1), simple(1)),
        tensor(simple(2), simple(1)),
        tensor(simple(1), frobenius_simple(1)),
        direct_sum(simple(0), simple(0)),
        direct_sum(simple(0), simple(2)),
        direct_sum(weyl(2), simple(1)),
        direct_sum(projective(0), simple(2)),
        direct_sum(projective(0), projective(0)),
    ]
)
corpus_modules = st.sampled_from(CORPUS)


def generators(m: QMod) -> list[int]:
    """Indices of the basis vectors the Hom solver takes as generators of m."""
    return [min(seed) for seed in qsl2._generating_spin(m).seeds]


class TestSpunIntertwiners:
    @given(corpus_modules, corpus_modules)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, m, n):
        assert intertwiner_basis(m, n) == reference_intertwiner_basis(m, n)

    def test_matches_reference_wherever_the_replay_pins_an_unknown(self):
        # The replay ends with one free unknown per dimension of Hom, so it
        # pinned an unknown exactly where Hom is smaller than the unknown
        # count.  These pairs cover the fold of a pinned unknown into the
        # others and a word that pins several.
        pinned = []
        for m in CORPUS:
            weights = [m.weights[g] for g in generators(m)]
            for n in CORPUS:
                got = intertwiner_basis(m, n)
                unknowns = sum(n.weights.count(w) for w in weights)
                if 0 < len(got) < unknowns:
                    assert got == reference_intertwiner_basis(m, n)
                    pinned.append(unknowns - len(got))
        assert len(pinned) == 58
        assert sum(p >= 2 for p in pinned) == 17

    def test_replay_applies_each_word_once_after_a_pin(self, monkeypatch):
        # Hom(P(2a), P(2a + 2)) has two unknowns, and the fourth word of the
        # spin pins one, so every later word is replayed for one unknown.
        sources = [projective(2 * a) for a in range(8)]
        words = sum(len(qsl2._spun_source(p)[1]) for p in sources)
        calls = []
        real = qsl2.vecmat

        def counted(vec, op):
            calls.append(1)
            return real(vec, op)

        monkeypatch.setattr(qsl2, "vecmat", counted)
        for a, p in enumerate(sources):
            assert len(intertwiner_basis(p, projective(2 * a + 2))) == 1
        assert len(calls) < 1.1 * words

    def test_back_inverts_the_spun_columns(self):
        for m in CORPUS:
            pivots = qsl2._generating_spin(m).pivots
            assert qsl2._spun_source(m)[2] == reference_back(pivots, m.dim)

    def test_reference_pairs_include_zero_homs_and_several_generators(self):
        zero = [(m, n) for m in CORPUS for n in CORPUS if not intertwiner_basis(m, n)]
        assert len(zero) > len(CORPUS)
        assert all(reference_intertwiner_basis(m, n) == [] for m, n in zero)
        assert sum(len(generators(m)) >= 2 for m in CORPUS) >= 5

    def test_projective_is_generated_by_its_first_weight_2a_vector(self):
        for a in range(25):
            p = projective(2 * a)
            assert generators(p) == [p.weights.index(2 * a)]

    def test_direct_sums_take_one_generator_per_summand(self):
        assert generators(direct_sum(simple(0), simple(0))) == [0, 1]
        assert generators(direct_sum(projective(0), projective(0))) == [1, 5]
        assert generators(direct_sum(weyl(2), simple(1))) == [0, 3]

    def test_generators_that_do_not_span_are_an_error(self, monkeypatch):
        m = direct_sum(projective(0), simple(2))
        real = qsl2._generating_spin
        assert len(real(m).seeds) == 2

        def first_generator_only(mod):
            spin = Spin(mod)
            spin.add(real(mod).seeds[:1])
            return spin

        monkeypatch.setattr(qsl2, "_generating_spin", first_generator_only)
        qsl2._spun_source.cache_clear()
        with pytest.raises(InternalInconsistencyError, match="spin up 4 of 6"):
            intertwiner_basis(m, m)

    def test_source_cache_is_bounded(self):
        assert qsl2._spun_source.cache_info().maxsize is not None

    def test_equal_sources_share_one_spin(self, monkeypatch):
        p2 = projective(2)
        first = qsl2._spun_source(p2)
        rebuilt = tensor(simple(3), simple(1))
        assert rebuilt is not p2 and rebuilt == p2
        spins = []
        real = qsl2._generating_spin
        monkeypatch.setattr(
            qsl2, "_generating_spin", lambda m: spins.append(1) or real(m)
        )
        assert qsl2._spun_source(rebuilt) is first
        assert spins == []


class TestSpin:
    def test_words_replay_to_the_spun_columns(self):
        # Replaying the recorded words on the source itself rebuilds each
        # pivot column, and every dependent word reduces to 0.
        m = direct_sum(projective(2), simple(2))
        spin = Spin(m)
        spin.add([{0: ONE}, {m.dim - 1: ONE}])
        ops = [op for _, op in m.operators()]
        cols: dict[int, dict] = {}
        for source, op, steps, lead, scale in spin.words:
            if source is None:
                out = dict(spin.seeds[op])
            else:
                out = vecmat(cols[source], ops[op])
            for c, f in steps:
                for i, v in cols[c].items():
                    out[i] = out.get(i, ZERO) + f * v
            out = {i: v for i, v in out.items() if v}
            if lead is None:
                assert out == {}
            else:
                cols[lead] = {i: scale * v for i, v in out.items()}
        assert cols == spin.pivots
        assert len(spin.pivots) < m.dim

    def test_seeds_inside_the_span_are_dropped(self):
        spin = Spin(weyl(3))
        spin.add([{0: ONE}, {0: 2 * ONE}])
        assert len(spin.pivots) == 4
        spin.add([{2: ONE}])
        assert spin.seeds == [{0: ONE}]
        assert [w for w in spin.words if w[0] is None] == [(None, 0, (), 0, ONE)]


class TestSubmodule:
    """The image of the canonical map, a submodule of dual_weyl(n)."""

    def test_even_simples_match_the_image_of_the_canonical_map(self):
        # simple(2m), built in closed form, is isomorphic to the image: one
        # intertwiner, of full rank.
        for m in range(MAX_GUARD + 1):
            n = 2 * m
            columns = reference_image(canonical_map(n))
            image = reference_restrict_to_span(dual_weyl(n), columns)
            basis = intertwiner_basis(simple(n), image)
            assert len(basis) == 1 and rank(basis[0]) == m + 1, m
