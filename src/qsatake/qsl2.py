"""Weight-graded modules over divided-power quantum sl2 at q = i.

A module is stored as its weight list together with the four operator
matrices E, F, E2 = E^(2), F2 = F^(2); the torus generator K is never stored
since it acts on a weight-w vector by i^w.  At a fourth root of unity [2] = 0,
so E and F square to zero and the divided squares carry independent
information; the five operator identities in ``integrity_violations`` pin the
structure down completely for the generator set used here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import lru_cache

from .characters import WeightCharacter
from .errors import DomainError, InternalInconsistencyError
from .linalg import (
    QMatrix,
    block_diag,
    insert_row,
    kernel,
    kronecker,
    rank,
    reduce_rows,
)
from .record import Record
from .scalars import GaussianRational, I, ONE, axpy, gauss_binomial, i_power, qint


class QMod(Record):
    """A finite-dimensional weight-graded module at q = i.

    ``weights`` is a tuple of ints; ``e``, ``f``, ``e2``, ``f2`` are the
    square ``QMatrix`` operators on it.
    """

    __slots__ = ("weights", "e", "f", "e2", "f2")

    def __post_init__(self):
        d = len(self.weights)
        for op in (self.e, self.f, self.e2, self.f2):
            if op.rows != d or op.cols != d:
                raise ValueError("operator shape does not match weight count")

    @property
    def dim(self) -> int:
        return len(self.weights)

    def k_matrix(self, power: int = 1) -> QMatrix:
        """The matrix of K**power: diagonal i^(power * weight)."""
        return QMatrix.diagonal([i_power(power * w) for w in self.weights])

    def operators(self):
        return (("E", self.e), ("F", self.f), ("E2", self.e2), ("F2", self.f2))

    def to_json_dict(self) -> dict:
        def dump(m: QMatrix) -> list:
            return [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]

        return {
            "weights": list(self.weights),
            "E": dump(self.e),
            "F": dump(self.f),
            "E2": dump(self.e2),
            "F2": dump(self.f2),
        }


OP_WEIGHT_SHIFT = {"E": 2, "F": -2, "E2": 4, "F2": -4}


def integrity_violations(m: QMod) -> list[str]:
    """All failures of the five operator identities; empty when m is a module.

    1. each operator shifts weights by its fixed amount,
    2. E@E = 0 and F@F = 0,
    3. E@F - F@E = diag([w]),
    4. E@E2 = E2@E and F@F2 = F2@F,
    5. E@F2 - F2@E = F @ diag([w - 1]).
    """
    out = []
    for name, op in m.operators():
        shift = OP_WEIGHT_SHIFT[name]
        for i, j, _ in op.nonzero_entries():
            if m.weights[i] != m.weights[j] + shift:
                out.append(
                    f"{name}[{i},{j}] maps weight {m.weights[j]} to "
                    f"{m.weights[i]}, expected shift {shift}"
                )
    if not (m.e @ m.e).is_zero():
        out.append("E@E != 0")
    if not (m.f @ m.f).is_zero():
        out.append("F@F != 0")
    h = QMatrix.diagonal([qint(w) for w in m.weights])
    if m.e @ m.f - m.f @ m.e != h:
        out.append("E@F - F@E != diag([w])")
    if m.e @ m.e2 != m.e2 @ m.e:
        out.append("E@E2 != E2@E")
    if m.f @ m.f2 != m.f2 @ m.f:
        out.append("F@F2 != F2@F")
    hm1 = QMatrix.diagonal([qint(w - 1) for w in m.weights])
    if m.e @ m.f2 - m.f2 @ m.e != m.f @ hm1:
        out.append("E@F2 - F2@E != F@diag([w-1])")
    return out


# Keyed by highest weight.  Every sweep reads weyl(n) and dual_weyl(n) again
# only inside the simple(n) that builds them (canonical_map, then the rank
# test), with no other label in between, so 64 entries cover every --max.
@lru_cache(maxsize=64)
def weyl(n: int) -> QMod:
    """Weyl module with basis v_0 ... v_n generated by the highest weight vector.

    F^(r) v_j = [j+r, r] v_{j+r} and E^(r) v_j = [n-j+r, r] v_{j-r} in the
    divided-power basis; K v_j = q^(n-2j) v_j.
    """
    if n < 0:
        raise DomainError(f"weyl requires n >= 0, got {n}")
    d = n + 1
    ops = (
        {j - 1: {j: gauss_binomial(n - j + 1, 1)} for j in range(1, d)},
        {j + 1: {j: gauss_binomial(j + 1, 1)} for j in range(d - 1)},
        {j - 2: {j: gauss_binomial(n - j + 2, 2)} for j in range(2, d)},
        {j + 2: {j: gauss_binomial(j + 2, 2)} for j in range(d - 2)},
    )
    return QMod(
        tuple(n - 2 * j for j in range(d)),
        *(QMatrix.from_row_dicts(d, d, op) for op in ops),
    )


@lru_cache(maxsize=64)
def dual_weyl(n: int) -> QMod:
    """Contravariant dual of weyl(n): transpose and exchange E <-> F, E2 <-> F2."""
    if n < 0:
        raise DomainError(f"dual_weyl requires n >= 0, got {n}")
    w = weyl(n)
    return QMod(
        w.weights,
        w.f.transpose(),
        w.e.transpose(),
        w.f2.transpose(),
        w.e2.transpose(),
    )


# Keyed by every module that is spun up (Spin) or replayed onto (the target
# of intertwiner_basis, which reads it only when the pair has unknowns).  The
# zigzag sweep reads at most three other modules between two reads of one:
# weyl(2N + 1) and dual_weyl(2N + 1) for simple(2N + 1), then the targets
# near P(2N).  The frobenius sweep reads each module once.  So 16 entries
# cover every --max.
@lru_cache(maxsize=16)
def _columns(m: QMod) -> tuple:
    """The columns of m's operators, in ``m.operators()`` order: entry j of
    each is column j, read-only {row: value}, as row j of the transpose."""
    return tuple(
        tuple(op_t.row(j) for j in range(m.dim))
        for op_t in (op.transpose() for _, op in m.operators())
    )


def _apply(columns: tuple, col: Mapping) -> dict:
    """op @ col for a sparse column {index: value}, given op's columns."""
    out: dict[int, GaussianRational] = {}
    for j, v in col.items():
        axpy(out, v, columns[j])
    return out


class Spin:
    """The spin-up of vectors of a module under E, F, E2, F2: the smallest
    operator-stable subspace containing them (the MeatAxe spin-up; Parker
    1984, Holt, Eick and O'Brien 2005, ch. 7).

    ``pivots`` holds the span in column echelon form, {lead index: column}
    with lead 1, not back-substituted (``linalg.insert_row``).  ``seeds``
    lists the seed columns that were outside the span when added; a seed
    inside it is dropped.  ``words`` records every insertion in order as
    (source, op, steps, lead, scale): the column was ``seeds[op]`` when
    ``source`` is None, else operator ``op`` of ``m.operators()`` applied to
    the pivot column led by ``source``; ``steps`` are the (pivot lead,
    factor) subtractions made; a kept column was scaled by ``scale`` and
    stored under ``lead``, and a dependent one has ``lead`` None.  Seed
    columns must be weight-homogeneous.
    """

    def __init__(self, m: QMod):
        self.pivots: dict[int, dict] = {}
        self.seeds: list[dict] = []
        self.words: list[tuple] = []
        self._ops = _columns(m)

    def add(self, seeds) -> None:
        """Insert the seed columns, then apply the operators to every new
        column until the span is stable (last in, first out)."""
        queue: list[int] = []
        for seed in seeds:
            if self._insert(None, len(self.seeds), seed, queue):
                self.seeds.append(seed)
        while queue:
            source = queue.pop()
            col = self.pivots[source]
            for op, columns in enumerate(self._ops):
                self._insert(source, op, _apply(columns, col), queue)

    def _insert(self, source, op, col, queue) -> bool:
        steps: list = []
        if insert_row(self.pivots, col, steps) is None:
            if source is not None:
                self.words.append((source, op, steps, None, None))
            return False
        lead, scale = steps.pop()
        queue.append(lead)
        self.words.append((source, op, steps, lead, scale))
        return True

    def module(self, m: QMod) -> QMod:
        """The spun subspace of m as a module, on the pivot columns in order
        of lead, with each operator read off the words: operator ``op`` sends
        the column led by ``source`` to the sum of f * (column led by c) over
        ``steps``, plus (column led by ``lead``) / ``scale`` when the column
        was kept.  Stored columns never change, so these are exact."""
        index = {lead: k for k, lead in enumerate(sorted(self.pivots))}
        ops: list[dict[int, dict]] = [{} for _ in self._ops]
        for source, op, steps, lead, scale in self.words:
            if source is None:
                continue
            j = index[source]
            for c, f in steps:
                ops[op].setdefault(index[c], {})[j] = f
            if lead is not None:
                ops[op].setdefault(index[lead], {})[j] = scale.inverse()
        d = len(index)
        return QMod(
            tuple(m.weights[lead] for lead in index),
            *(QMatrix.from_row_dicts(d, d, op) for op in ops),
        )


def _generating_spin(m: QMod) -> Spin:
    """The spin of m from basis vectors that generate it, chosen by one rule.

    Greedy in index order: a basis vector joins when it lies outside the span
    spun up from those before it.  Then each chosen vector, in order, is
    dropped if the remaining ones still span m.
    """
    spin = Spin(m)
    for i in range(m.dim):
        if len(spin.pivots) == m.dim:
            break
        spin.add([{i: ONE}])
    for seed in list(spin.seeds):
        rest = [s for s in spin.seeds if s is not seed]
        if not rest:
            break
        trial = Spin(m)
        trial.add(rest)
        if len(trial.pivots) == m.dim:
            spin = trial
    return spin


# Every Hom solve out of a source replays its spin, so the spin is kept per
# source module.  The zigzag sweep replays every P(2a), a < N, into P(2N) at
# each N, after spinning weyl(2N + 1) for simple(2N + 1) and P(2N) itself, so
# at most N other sources come between two reads of one: 256 entries cover
# --max 255.
@lru_cache(maxsize=256)
def _spun_source(m: QMod) -> tuple:
    """The spin of m from its generators, independent of any target:
    (generator weights, words, back).  ``words`` are those of ``Spin.words``
    with each step's factor negated, (pivot lead, -factor), as the replay
    adds them; ``back[c]`` writes basis vector c as {pivot lead: coefficient}
    over the spun columns.

    Raises InternalInconsistencyError when the generators do not span m.
    """
    spin = _generating_spin(m)
    if len(spin.pivots) != m.dim:
        raise InternalInconsistencyError(
            f"{len(spin.seeds)} generators spin up {len(spin.pivots)} of "
            f"{m.dim} dimensions"
        )
    # Row c of the reduced [columns | identity] is [e_c | e_c in the columns].
    reduced = reduce_rows(
        [{**col, m.dim + lead: ONE} for lead, col in spin.pivots.items()]
    )
    back = tuple(
        {j - m.dim: v for j, v in reduced[c].items() if j >= m.dim}
        for c in range(m.dim)
    )
    weights = tuple(m.weights[min(seed)] for seed in spin.seeds)
    words = tuple(
        (source, op, tuple((c, -f) for c, f in steps), lead, scale)
        for source, op, steps, lead, scale in spin.words
    )
    return weights, words, back


def _standard_map(back: tuple, image: dict, dim: int) -> dict:
    """X in the standard basis, {a * dim + b: X[a, b]}, from the images of the
    spun columns and each basis vector b written over them in ``back[b]``."""
    x: dict[int, GaussianRational] = {}
    for b, column in enumerate(back):
        for lead, c in column.items():
            axpy(x, c, {i * dim + b: v for i, v in image[lead].items()})
    return x


def intertwiner_basis(m: QMod, n: QMod) -> list[QMatrix]:
    """Canonical basis of weight-preserving maps X: m -> n commuting with all
    four operators, for modules m and n.

    An intertwiner is fixed by where it sends generators of m, and each
    generator g goes into n's weight space at g's weight: those coordinates
    are the unknowns, and a target with no such weight has none.  The spin of
    m from its generators (``_generating_spin``, kept per source by
    ``_spun_source``) is replayed on n's side, carrying each spun column's
    image as a function of the unknowns.  Every word that reduces to 0 in m
    gives linear equations on the unknowns; once they force all unknowns to
    0 the replay stops.  Each solution is written in the standard basis
    through the spun columns, and the solutions are returned in reduced
    echelon form from the right over the entries X[a, b] in row-major order:
    each has 1 at its last nonzero entry and 0 there in the others, in
    increasing order of that entry.  This is exactly the basis
    ``linalg.kernel`` reads off the system of all weight-matched entries of X.
    """
    weights, words, back = _spun_source(m)
    unknowns = [
        (g, a) for g, w in enumerate(weights) for a in range(n.dim) if n.weights[a] == w
    ]
    if not unknowns:
        return []
    ops = _columns(n)
    # images[k][lead]: the image of the spun column ``lead`` when unknown k is
    # 1 and the others are 0.
    images: list[dict[int, dict]] = [{} for _ in unknowns]
    equations: dict[int, dict] = {}
    for source, op, negated, lead, scale in words:
        rows: dict[int, dict] = {}
        for k, (g, a) in enumerate(unknowns):
            image = images[k]
            if source is None:
                out = {a: ONE} if op == g else {}
            else:
                out = _apply(ops[op], image[source])
            for c, f in negated:
                axpy(out, f, image[c])
            if lead is not None:
                image[lead] = scaled = {}
                axpy(scaled, scale, out)
            else:
                for i, v in out.items():
                    rows.setdefault(i, {})[k] = v
        for row in rows.values():
            insert_row(equations, row)
        if len(equations) == len(unknowns):
            return []
    maps: dict[int, dict] = {}  # unknown k -> its X as {a * m.dim + b: value}
    solutions = []
    for sol in kernel(equations.values(), len(unknowns)):
        row: dict[int, GaussianRational] = {}
        for k, t in sol.items():
            if k not in maps:
                # Negated positions: reduce_rows pivots on the last entry.
                x = _standard_map(back, images[k], m.dim)
                maps[k] = {-p: v for p, v in x.items()}
            axpy(row, t, maps[k])
        solutions.append(row)
    reduced = reduce_rows(solutions)
    basis = []
    for key in sorted(reduced, reverse=True):
        data: dict[int, dict] = {}
        for p, v in reduced[key].items():
            i, b = divmod(-p, m.dim)
            data.setdefault(i, {})[b] = v
        basis.append(QMatrix.from_row_dicts(n.dim, m.dim, data))
    return basis


def canonical_map(n: int) -> QMatrix:
    """The intertwiner weyl(n) -> dual_weyl(n), highest weight vector to
    highest weight vector with coefficient 1.

    The intertwiner space is one-dimensional for every n; anything else is an
    internal inconsistency.
    """
    if n < 0:
        raise DomainError(f"canonical_map requires n >= 0, got {n}")
    basis = intertwiner_basis(weyl(n), dual_weyl(n))
    if len(basis) != 1:
        raise InternalInconsistencyError(
            f"Hom(weyl({n}), dual_weyl({n})) has dimension {len(basis)}, expected 1"
        )
    x = basis[0]
    top = x[0, 0]
    if not top:
        raise InternalInconsistencyError(
            f"canonical map for n={n} kills the highest weight vector"
        )
    return x.scale(top.inverse())


def submodule(m: QMod, x: QMatrix) -> QMod:
    """The smallest submodule of m containing the columns of x, on the
    columns of its spin (``Spin.module``).  Each column of x is split into
    its weight components, in increasing order of weight, to seed the spin."""
    columns: dict[int, dict[int, dict]] = {}
    for i, j, v in x.nonzero_entries():
        columns.setdefault(j, {}).setdefault(m.weights[i], {})[i] = v
    spin = Spin(m)
    spin.add([col[w] for _, col in sorted(columns.items()) for w in sorted(col)])
    return spin.module(m)


# Keyed by highest weight.  The frobenius sweep reads simple(2m), m = 0..M,
# once for each n, so M + 1 labels cycle: 256 entries cover --max 255.  The
# zigzag sweep reads simple(1) and one new odd label at each N.
@lru_cache(maxsize=256)
def simple(n: int) -> QMod:
    """Simple module of highest weight n: the image of the canonical map.

    For odd n the canonical map is invertible and the Weyl module itself is
    returned; for even n = 2m the image is the submodule of dual_weyl(n)
    spun up from the columns of the map, of dimension m + 1 with weights
    2m, 2m-4, ..., -2m.
    """
    if n < 0:
        raise DomainError(f"simple requires n >= 0, got {n}")
    x = canonical_map(n)
    if rank(x) == n + 1:
        return weyl(n)
    return submodule(dual_weyl(n), x)


# Keyed by label.  The frobenius sweep reads frobenius_simple(n) once for
# each m = 0..M, in a row with no other label in between (at --max 9, 90 hits
# and 10 misses), so each label is built once and 64 entries cover every --max.
@lru_cache(maxsize=64)
def frobenius_simple(m: int) -> QMod:
    """Pullback of the classical (m+1)-dimensional irreducible along quantum
    Frobenius: weights doubled, E = F = 0, divided squares act classically."""
    if m < 0:
        raise DomainError(f"frobenius_simple requires m >= 0, got {m}")
    d = m + 1
    zero = QMatrix.zeros(d, d)
    return QMod(
        tuple(2 * m - 4 * j for j in range(d)),
        zero,
        zero,
        QMatrix.from_row_dicts(d, d, {j - 1: {j: m - j + 1} for j in range(1, d)}),
        QMatrix.from_row_dicts(d, d, {j + 1: {j: j + 1} for j in range(d - 1)}),
    )


def tensor(m: QMod, n: QMod) -> QMod:
    """Tensor product along the fixed divided-power coproduct.

    E -> E(x)1 + K(x)E,  F -> F(x)K^-1 + 1(x)F,
    E2 -> E2(x)1 + q EK(x)E + K^2(x)E2,
    F2 -> F2(x)K^-2 + q F(x)FK^-1 + 1(x)F2,  with q = i.
    Basis index (a, b) maps to a * n.dim + b; weights add.
    """
    id_m = QMatrix.identity(m.dim)
    id_n = QMatrix.identity(n.dim)
    k_m = m.k_matrix()
    kinv_n = n.k_matrix(-1)
    e = kronecker(m.e, id_n) + kronecker(k_m, n.e)
    f = kronecker(m.f, kinv_n) + kronecker(id_m, n.f)
    e2 = (
        kronecker(m.e2, id_n)
        + kronecker((m.e @ k_m).scale(I), n.e)
        + kronecker(m.k_matrix(2), n.e2)
    )
    f2 = (
        kronecker(m.f2, n.k_matrix(-2))
        + kronecker(m.f.scale(I), n.f @ kinv_n)
        + kronecker(id_m, n.f2)
    )
    weights = tuple(wm + wn for wm in m.weights for wn in n.weights)
    return QMod(weights, e, f, e2, f2)


def direct_sum(m: QMod, n: QMod) -> QMod:
    return QMod(
        m.weights + n.weights,
        block_diag(m.e, n.e),
        block_diag(m.f, n.f),
        block_diag(m.e2, n.e2),
        block_diag(m.f2, n.f2),
    )


def char(m: QMod) -> WeightCharacter:
    """Weight multiset of m."""
    return WeightCharacter(Counter(m.weights))
