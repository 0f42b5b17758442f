from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from qsatake.errors import NoSolutionError
from qsatake.linalg import (
    QMatrix,
    block_diag,
    insert_row,
    kernel,
    kronecker,
    rank,
    reduce_rows,
    solve_matrix,
)
from qsatake.scalars import GaussianRational, I, ONE, ZERO

MI = GaussianRational(0, -1)  # -i


def mat(rows):
    return QMatrix(len(rows), len(rows[0]) if rows else 0, [v for r in rows for v in r])


def column(values):
    return QMatrix(len(values), 1, values)


def rows_of(m):
    return [dict(m.row(i)) for i in range(m.rows)]


def augmented(a, rhs):
    """The sparse rows of [a | rhs], the right-hand side in column a.cols."""
    rows = rows_of(a)
    for i, v in enumerate(rhs):
        if v:
            rows[i][a.cols] = GaussianRational.coerce(v)
    return rows


def as_column(vector, n):
    """A {row: value} vector as an n x 1 QMatrix."""
    return QMatrix.from_row_dicts(n, 1, {i: {0: v} for i, v in vector.items()})


def as_vector(col):
    """The {row: value} entries of a column QMatrix."""
    return {i: v for i, _, v in col.nonzero_entries()}


# The QMatrix-based solvers linalg had before ``kernel`` and ``solve_matrix``
# took sparse rows, kept as references for them.
def reference_kernel(m: QMatrix) -> list[QMatrix]:
    """Canonical basis of the right null space, as column vectors."""
    pivots = reduce_rows(rows_of(m))
    vectors = {f: {f: {0: ONE}} for f in range(m.cols) if f not in pivots}
    for c, row in pivots.items():
        for f, w in row.items():
            if f != c:
                vectors[f][c] = {0: -w}
    return [QMatrix.from_row_dicts(m.cols, 1, vectors[f]) for f in sorted(vectors)]


def reference_solve_matrix(a: QMatrix, b: QMatrix) -> QMatrix:
    """The unique echelon solution X of a @ X = b (free variables set to 0);
    NoSolutionError if any column of b is outside the column space."""
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    n = a.cols
    rows = []
    for i in sorted(a._data.keys() | b._data.keys()):
        row = dict(a._data.get(i, {}))
        for j, v in b._data.get(i, {}).items():
            row[n + j] = v
        if row:
            rows.append(row)
    pivots = reduce_rows(rows)
    data = {}
    for c, row in pivots.items():
        if c >= n:
            raise NoSolutionError("inconsistent linear system")
        sol = {j - n: v for j, v in row.items() if j >= n}
        if sol:
            data[c] = sol
    return QMatrix.from_row_dicts(n, b.cols, data)


small_entries = st.builds(
    GaussianRational,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)


# Half zeros, so that sums and products cancel often enough to matter.
sparse_entries = st.one_of(st.just(ZERO), small_entries)


@st.composite
def small_matrices(draw, max_dim=4, rows=None, cols=None, entries=small_entries):
    r = rows if rows is not None else draw(st.integers(min_value=1, max_value=max_dim))
    c = cols if cols is not None else draw(st.integers(min_value=1, max_value=max_dim))
    values = draw(st.lists(entries, min_size=r * c, max_size=r * c))
    return QMatrix(r, c, values)


def dense(m):
    """Row lists of m, read from the dense ``entries`` view."""
    e = m.entries
    return [list(e[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def assert_stores_no_zero(m):
    for i, row in m._data.items():
        assert 0 <= i < m.rows and row
        for j, v in row.items():
            assert 0 <= j < m.cols and v


def assert_matches(m, rows):
    assert_stores_no_zero(m)
    assert dense(m) == rows
    assert m == mat(rows)


class TestQMatrix:
    def test_identity_is_multiplicative_unit(self):
        a = mat([[1, I], [2, 0]])
        assert QMatrix.identity(2) @ a == a
        assert a @ QMatrix.identity(2) == a

    def test_transpose_involution(self):
        a = mat([[1, I, 0], [2, 0, 3]])
        assert a.transpose().transpose() == a

    @given(small_matrices(), small_matrices())
    @settings(max_examples=40)
    def test_kronecker_mixed_product(self, a, b):
        # (A (x) B)(A' (x) B') == AA' (x) BB' with square factors
        a2 = a @ a.transpose()
        b2 = b @ b.transpose()
        assert kronecker(a2, b2) @ kronecker(a2, b2) == kronecker(a2 @ a2, b2 @ b2)

    def test_block_diag(self):
        a = mat([[1]])
        b = mat([[2, 3], [4, 5]])
        c = block_diag(a, b)
        assert c.rows == 3 and c.cols == 3
        assert c[0, 0] == ONE and c[1, 1] == GaussianRational(2)
        assert c[0, 1] == ZERO and c[2, 0] == ZERO


class TestSparseStorage:
    @given(small_matrices(entries=sparse_entries), st.data(), sparse_entries)
    @settings(max_examples=80)
    def test_operations_match_dense_reference(self, a, data, c):
        b = data.draw(small_matrices(rows=a.rows, cols=a.cols, entries=sparse_entries))
        p = data.draw(small_matrices(rows=a.cols, entries=sparse_entries))
        da, db, dp = dense(a), dense(b), dense(p)
        r, k, q = a.rows, a.cols, p.cols
        assert_matches(
            a + b, [[da[i][j] + db[i][j] for j in range(k)] for i in range(r)]
        )
        assert_matches(
            a - b, [[da[i][j] - db[i][j] for j in range(k)] for i in range(r)]
        )
        assert_matches(-a, [[-x for x in row] for row in da])
        assert_matches(a.scale(c), [[c * x for x in row] for row in da])
        assert_matches(
            a @ p,
            [
                [sum((da[i][t] * dp[t][j] for t in range(k)), ZERO) for j in range(q)]
                for i in range(r)
            ],
        )
        assert_matches(a.transpose(), [[da[i][j] for i in range(r)] for j in range(k)])
        assert_matches(
            kronecker(a, p),
            [
                [
                    da[i // p.rows][j // q] * dp[i % p.rows][j % q]
                    for j in range(k * q)
                ]
                for i in range(r * p.rows)
            ],
        )
        assert_matches(
            block_diag(a, p),
            [row + [ZERO] * q for row in da] + [[ZERO] * k + row for row in dp],
        )

    @given(small_matrices(entries=sparse_entries))
    @settings(max_examples=40)
    def test_cancellation_leaves_the_zero_matrix(self, a):
        zero = QMatrix.zeros(a.rows, a.cols)
        assert a - a == zero
        assert hash(a - a) == hash(zero)
        assert_stores_no_zero(a - a)
        assert (a - a).is_zero()

    @given(small_matrices(entries=sparse_entries), st.data())
    @settings(max_examples=40)
    def test_hash_agrees_with_equality(self, a, data):
        b = data.draw(small_matrices(rows=a.rows, cols=a.cols, entries=sparse_entries))
        assert a + b == b + a
        assert hash(a + b) == hash(b + a)
        assert (a + b) - b == a
        assert hash((a + b) - b) == hash(a)

    def test_dense_zeros_equal_zeros(self):
        for r, c in ((1, 1), (2, 3), (4, 2)):
            z = QMatrix(r, c, [0] * (r * c))
            assert z == QMatrix.zeros(r, c)
            assert hash(z) == hash(QMatrix.zeros(r, c))
            assert_stores_no_zero(z)
        assert QMatrix.zeros(2, 3) != QMatrix.zeros(3, 2)

    def test_out_of_range_index(self):
        a = mat([[1, 0], [0, 2]])
        with pytest.raises(IndexError):
            a[2, 0]
        with pytest.raises(ValueError):
            QMatrix.from_row_dicts(2, 2, {0: {2: ONE}})


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel(rows_of(QMatrix.identity(2)), 2) == []

    def test_zero_row_matrix(self):
        assert kernel([{}], 2) == [{0: ONE}, {1: ONE}]

    def test_rank_one_gaussian_matrix(self):
        # row2 = -i * row1, so the kernel is spanned by (-i, 1).
        a = mat([[1, I], [MI, 1]])
        vecs = kernel(rows_of(a), 2)
        assert vecs == [{0: MI, 1: ONE}]
        assert (a @ as_column(vecs[0], 2)).is_zero()

    @given(small_matrices())
    @settings(max_examples=60)
    def test_rank_nullity(self, a):
        vecs = kernel(rows_of(a), a.cols)
        assert rank(a) + len(vecs) == a.cols
        for v in vecs:
            assert (a @ as_column(v, a.cols)).is_zero()


class TestRankRref:
    def test_rank_examples(self):
        assert rank(QMatrix.identity(4)) == 4
        assert rank(QMatrix.zeros(3, 2)) == 0
        assert rank(mat([[1, 2], [2, 4]])) == 1

    def test_rref_canonical_for_row_space(self):
        a = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        b = mat([[0, 1, 1], [1, 3, 4], [1, 2, 3]])  # same row space, reordered
        assert reduce_rows(rows_of(a)) == reduce_rows(rows_of(b))

    def test_rref_idempotent(self):
        a = mat([[2, 4], [1, 3]])
        r = reduce_rows(rows_of(a))
        assert reduce_rows(r.values()) == r

    def test_rref_drops_dependent_rows(self):
        a = mat([[1, 2], [2, 4], [3, 6]])
        assert reduce_rows(rows_of(a)) == {0: {0: ONE, 1: GaussianRational(2)}}

    def test_insert_row_keeps_echelon_rows_without_back_substitution(self):
        pivots = {}
        first = {0: GaussianRational(2), 1: GaussianRational(4)}
        assert insert_row(pivots, first) == {0: ONE, 1: GaussianRational(2)}
        assert first == {0: GaussianRational(2), 1: GaussianRational(4)}
        assert insert_row(pivots, {0: ONE, 1: GaussianRational(3)}) == {1: ONE}
        # The first row keeps its entry in the later pivot column 1.
        assert pivots == {0: {0: ONE, 1: GaussianRational(2)}, 1: {1: ONE}}
        assert insert_row(pivots, {0: I, 1: I}) is None
        assert insert_row(pivots, {}) is None

    def test_insert_row_records_its_steps(self):
        pivots = {0: {0: ONE, 2: GaussianRational(2)}}
        row = {0: GaussianRational(3), 1: I, 2: GaussianRational(6)}
        steps = []
        assert insert_row(pivots, row, steps) == {1: ONE}
        # Subtract 3 * pivot 0, then scale the leftover i at lead 1 by 1/i.
        assert steps == [(0, GaussianRational(3)), (1, MI)]
        steps = []
        assert insert_row(pivots, {0: I, 1: ONE, 2: 2 * I}, steps) is None
        assert steps == [(0, I), (1, ONE)]


class TestSolveImage:
    def test_solve_unique(self):
        a = mat([[1, 1], [0, 1]])
        x = solve_matrix(augmented(a, [3, 1]), 2)
        assert x == {0: GaussianRational(2), 1: ONE}
        assert a @ as_column(x, 2) == column([3, 1])

    def test_solve_inconsistent(self):
        a = mat([[1, 1], [1, 1]])
        with pytest.raises(NoSolutionError):
            solve_matrix(augmented(a, [1, 2]), 2)

    def test_solve_underdetermined_sets_free_to_zero(self):
        x = solve_matrix(augmented(mat([[1, 1]]), [5]), 2)
        assert x == {0: GaussianRational(5)}

    @given(small_matrices(), st.data())
    @settings(max_examples=40)
    def test_solve_matrix_round_trip(self, a, data):
        x = data.draw(small_matrices(rows=a.cols, cols=1))
        b = a @ x
        y = solve_matrix(augmented(a, [b[i, 0] for i in range(b.rows)]), a.cols)
        assert a @ as_column(y, a.cols) == b


class TestAgainstReference:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=150)
    def test_row_solvers_match_the_matrix_solvers(self, r, c, consistent, data):
        a = data.draw(small_matrices(rows=r, cols=c, entries=sparse_entries))
        if consistent and c:
            b = a @ data.draw(small_matrices(rows=c, cols=1, entries=sparse_entries))
        else:
            # Random right-hand sides: inconsistent unless a has full row rank.
            b = data.draw(small_matrices(rows=r, cols=1, entries=sparse_entries))
        rows = rows_of(a)
        vecs = kernel(rows, c)
        assert vecs == [as_vector(v) for v in reference_kernel(a)]
        assert all(list(v) == sorted(v) for v in vecs)
        assert rows == rows_of(a)
        system = augmented(a, [b[i, 0] for i in range(r)])
        try:
            want = reference_solve_matrix(a, b)
        except NoSolutionError:
            with pytest.raises(NoSolutionError):
                solve_matrix(system, c)
        else:
            assert solve_matrix(system, c) == as_vector(want)
