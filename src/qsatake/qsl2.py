"""Weight-graded modules over divided-power quantum sl2 at q = i.

A module is stored as its weight list together with the four operators
E, F, E2 = E^(2), F2 = F^(2), each as the matrix whose row j is the image of
basis vector j (the row-vector convention of the MeatAxe); the torus
generator K is never stored since it acts on a weight-w vector by i^w.  At a
fourth root of unity [2] = 0, so E and F square to zero and the divided
squares carry independent information.  ``integrity_violations`` checks the
weight shifts and seven defining relations among the four operators.
"""

from __future__ import annotations

from collections import Counter

from .characters import WeightCharacter
from .errors import DomainError, InternalInconsistencyError
from .linalg import QMatrix, insert_row, reduce_rows, vecmat
from .record import Record
from .scalars import GaussianRational, ONE, ZERO, axpy, gauss_binomial, i_power, qint


class QMod(Record):
    """A finite-dimensional weight-graded module at q = i.

    ``weights`` is a tuple of ints; ``e``, ``f``, ``e2``, ``f2`` are the
    square ``QMatrix`` operators on it, row j the image of basis vector j.
    ``_spin`` is filled by the first Hom solve out of it (see ``_spun_source``).
    """

    __slots__ = ("weights", "e", "f", "e2", "f2", "_spin")

    def __post_init__(self):
        d = len(self.weights)
        for op in (self.e, self.f, self.e2, self.f2):
            if op.rows != d or op.cols != d:
                raise ValueError("operator shape does not match weight count")

    @property
    def dim(self) -> int:
        return len(self.weights)

    def operators(self):
        return (("E", self.e), ("F", self.f), ("E2", self.e2), ("F2", self.f2))


OP_WEIGHT_SHIFT = {"E": 2, "F": -2, "E2": 4, "F2": -4}


def integrity_violations(m: QMod) -> list[str]:
    """All failures of these identities, in this order, for the operators as
    matrices acting on columns (the transposes of m's):

    1. each operator shifts weights by its fixed amount,
    2. E@E = 0 and F@F = 0,
    3. E@F - F@E = diag([w]),
    4. E@E2 = E2@E and F@F2 = F2@F,
    5. E@F2 - F2@E = F @ diag([w - 1]),
    6. E2@F - F@E2 = diag([w - 1]) @ E,
    7. E2@F2 - F2@E2 = F @ diag([w - 2]) @ E + diag([w choose 2]), where
       [w choose 2] = [1 - w choose 2] for w < 0 and is 0 at w = 0, 1.

    6 and 7 are Lusztig's commutation rule for E^(r) F^(s) at (r, s) = (2, 1)
    and (2, 2).  Each is checked on m's rows as its transpose, products
    reversed and differences written as sums.  A module has none; the list is
    not claimed to be complete, so an empty one does not prove that m is a
    module.
    """
    out = []
    for name, op in m.operators():
        shift = OP_WEIGHT_SHIFT[name]
        # Entry [i, j] acting on columns is stored at [j, i].
        for i, j in sorted((i, j) for j, i, _ in op.nonzero_entries()):
            if m.weights[i] != m.weights[j] + shift:
                out.append(
                    f"{name}[{i},{j}] maps weight {m.weights[j]} to "
                    f"{m.weights[i]}, expected shift {shift}"
                )
    e, f, e2, f2 = m.e, m.f, m.e2, m.f2
    if not (e @ e).is_zero():
        out.append("E@E != 0")
    if not (f @ f).is_zero():
        out.append("F@F != 0")
    h = QMatrix.diagonal([qint(w) for w in m.weights])
    if f @ e != e @ f + h:
        out.append("E@F - F@E != diag([w])")
    if e2 @ e != e @ e2:
        out.append("E@E2 != E2@E")
    if f2 @ f != f @ f2:
        out.append("F@F2 != F2@F")
    hm1 = QMatrix.diagonal([qint(w - 1) for w in m.weights])
    if f2 @ e != e @ f2 + hm1 @ f:
        out.append("E@F2 - F2@E != F@diag([w-1])")
    if f @ e2 != e2 @ f + e @ hm1:
        out.append("E2@F - F@E2 != diag([w-1])@E")
    hm2 = QMatrix.diagonal([qint(w - 2) for w in m.weights])
    c2 = QMatrix.diagonal([_binomial2(w) for w in m.weights])
    if f2 @ e2 != e2 @ f2 + e @ hm2 @ f + c2:
        out.append("E2@F2 - F2@E2 != F@diag([w-2])@E + diag([w choose 2])")
    return out


def _binomial2(w: int) -> GaussianRational:
    """[w choose 2] at q = i, for every integer w."""
    top = w if w >= 0 else 1 - w
    return gauss_binomial(top, 2) if top >= 2 else ZERO


def _divided_powers(n: int, e_n, f_n) -> QMod:
    """The module on v_0 ... v_n, v_j of weight n - 2j, with E^(r) v_j =
    [e_n(j, r), r] v_{j-r} and F^(r) v_j = [f_n(j, r), r] v_{j+r}."""
    d = n + 1
    e, e2 = (
        QMatrix(d, d, {j: {j - r: gauss_binomial(e_n(j, r), r)} for j in range(r, d)})
        for r in (1, 2)
    )
    f, f2 = (
        QMatrix(d, d, {j: {j + r: gauss_binomial(f_n(j, r), r)} for j in range(d - r)})
        for r in (1, 2)
    )
    return QMod(tuple(n - 2 * j for j in range(d)), e, f, e2, f2)


def weyl(n: int) -> QMod:
    """Weyl module with basis v_0 ... v_n generated by the highest weight vector.

    F^(r) v_j = [j+r, r] v_{j+r} and E^(r) v_j = [n-j+r, r] v_{j-r} in the
    divided-power basis; K v_j = q^(n-2j) v_j.
    """
    if n < 0:
        raise DomainError(f"weyl requires n >= 0, got {n}")
    return _divided_powers(n, lambda j, r: n - j + r, lambda j, r: j + r)


def dual_weyl(n: int) -> QMod:
    """Contravariant dual of weyl(n): transpose and exchange E <-> F, E2 <-> F2.

    F^(r) v_j = [n-j, r] v_{j+r} and E^(r) v_j = [j, r] v_{j-r}.
    """
    if n < 0:
        raise DomainError(f"dual_weyl requires n >= 0, got {n}")
    return _divided_powers(n, lambda j, r: j, lambda j, r: n - j)


class Spin:
    """The spin-up of vectors of a module under E, F, E2, F2: the smallest
    operator-stable subspace containing them (the MeatAxe spin-up; Parker
    1984, Holt, Eick and O'Brien 2005, ch. 7).

    Vectors are sparse {index: value} dicts, called columns.  ``pivots``
    holds the span in echelon form, {lead index: column} with lead 1, not
    back-substituted (``linalg.insert_row``).  ``seeds`` lists the seed
    columns that were outside the span when added; a seed inside it is
    dropped.  ``words`` records every insertion in order as
    (source, op, steps, lead, scale): the column was ``seeds[op]`` when
    ``source`` is None, else operator ``op`` of ``m.operators()`` applied to
    the pivot column led by ``source``; ``steps`` are the (pivot lead,
    factor) pairs of ``insert_row``, each adding factor times that pivot
    column; a kept column was scaled by ``scale`` and stored under ``lead``,
    and a dependent one has ``lead`` None.  Seed columns must be
    weight-homogeneous.
    """

    def __init__(self, m: QMod):
        self.pivots: dict[int, dict] = {}
        self.seeds: list[dict] = []
        self.words: list[tuple] = []
        self._ops = tuple(op for _, op in m.operators())

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
            for op, matrix in enumerate(self._ops):
                self._insert(source, op, vecmat(col, matrix), queue)

    def _insert(self, source, op, col, queue) -> bool:
        steps: list = []
        if insert_row(self.pivots, col, steps) is None:
            if source is not None:
                self.words.append((source, op, tuple(steps), None, None))
            return False
        lead, scale = steps.pop()
        queue.append(lead)
        self.words.append((source, op, tuple(steps), lead, scale))
        return True


def _generating_spin(m: QMod) -> Spin:
    """The spin of m from basis vectors that generate it, chosen by one rule.

    Greedy in index order: a basis vector joins when it lies outside the span
    spun up from those before it.  Then each chosen vector, in order, is
    dropped if the remaining ones still span m.

    That rule keeps a single vector exactly when one of the chosen ones spans
    m alone, and then the first such.  So each vector is first spun alone as
    it is chosen, and the first single spin that covers m is the result; the
    first failed one is the greedy spin to which the later vectors are
    added.  A projective is spun from its first basis vector, which spans a
    proper submodule, and from its second, which is kept, and never again.
    """
    spin = Spin(m)
    for i in range(m.dim):
        if len(spin.pivots) == m.dim:
            break
        seed = {i: ONE}
        if insert_row(dict(spin.pivots), seed) is None:
            continue  # inside the span so far
        single = Spin(m)
        single.add([seed])
        if len(single.pivots) == m.dim:
            return single
        if spin.seeds:
            spin.add([seed])
        else:
            spin = single
    for seed in list(spin.seeds):
        rest = [s for s in spin.seeds if s is not seed]
        if not rest:
            break
        trial = Spin(m)
        trial.add(rest)
        if len(trial.pivots) == m.dim:
            spin = trial
    return spin


def _spun_source(m: QMod) -> tuple:
    """The spin of m from its generators, independent of any target:
    (generator weights, words, back).  ``words`` are ``Spin.words``;
    ``back[c]`` writes basis vector c as {pivot lead: coefficient} over the
    spun columns.  Every Hom solve out of m replays it, so the first one
    keeps it in m's ``_spin`` slot (m is immutable, so it never goes stale).

    Raises InternalInconsistencyError when the generators do not span m.
    """
    try:
        return m._spin
    except AttributeError:
        pass
    spin = _generating_spin(m)
    if len(spin.pivots) != m.dim:
        raise InternalInconsistencyError(
            f"{len(spin.seeds)} generators spin up {len(spin.pivots)} of "
            f"{m.dim} dimensions"
        )
    # Every spun column has 1 at its lead and entries only after it, so basis
    # vector c is column c less the later basis vectors it holds: back-
    # substitution from the last lead writes them all.
    back: list[dict] = [{}] * m.dim
    for c in range(m.dim - 1, -1, -1):
        back[c] = row = {c: ONE}
        for j, v in spin.pivots[c].items():
            if j != c:
                axpy(row, -v, back[j])
    weights = tuple(m.weights[min(seed)] for seed in spin.seeds)
    spun = weights, tuple(spin.words), tuple(back)
    object.__setattr__(m, "_spin", spun)
    return spun


def _standard_map(back: tuple, image: dict, dim: int) -> dict:
    """X in the standard basis at negated positions, {-(a * dim + b): X[a, b]},
    from the images of the spun columns and each basis vector b written over
    them in ``back[b]``."""
    x: dict[int, GaussianRational] = {}
    for b, column in enumerate(back):
        for lead, c in column.items():
            axpy(x, c, {-(i * dim + b): v for i, v in image[lead].items()})
    return x


def intertwiner_basis(m: QMod, n: QMod) -> list[QMatrix]:
    """Canonical basis of weight-preserving maps X: m -> n commuting with all
    four operators, for modules m and n.  X is n.dim x m.dim and acts on
    columns: X[a, b] is the coefficient of n's basis vector a in the image of
    m's basis vector b.

    An intertwiner is fixed by where it sends generators of m, and each
    generator g goes into n's weight space at g's weight: those coordinates
    are the unknowns, and a target with no such weight has none.  The spin of
    m from its generators (``_generating_spin``, kept on m by
    ``_spun_source``) is replayed on n's side for each free unknown, carrying
    each spun column's image under the map at which that unknown is 1, the
    other free ones 0, and the pinned ones as the equations so far fix them.
    A word that reduces to 0 in m must give 0 in n; every coordinate where
    it does not is an equation, which pins its first unknown: that unknown's
    images are folded into the others' and it is dropped, so a relation that
    holds costs nothing more, and once no unknown is free the replay stops.
    The free unknowns left span the solutions.  Each is written in the
    standard basis through the spun columns, and the solutions are returned
    in reduced echelon form from the right over the entries X[a, b] in
    row-major order: each has 1 at its last nonzero entry and 0 there in the
    others, in increasing order of that entry.  This is exactly the basis
    ``linalg.kernel`` reads off the system of all weight-matched entries of X.
    """
    weights, words, back = _spun_source(m)
    unknowns = [
        (g, a) for g, w in enumerate(weights) for a in range(n.dim) if n.weights[a] == w
    ]
    ops = tuple(op for _, op in n.operators())
    # images[k][lead]: the image of the spun column ``lead`` under the map of
    # free unknown k.  A pinned unknown's generator was seeded before the word
    # that pinned it, so a seed word sends generator g to the coordinates of
    # g's own unknowns alone, whatever was folded.
    images: dict[int, dict[int, dict]] = {k: {} for k in range(len(unknowns))}
    for source, op, steps, lead, scale in words:
        if not images:
            return []
        outs: dict[int, dict] = {}
        for k, image in images.items():
            if source is None:
                g, a = unknowns[k]
                out = {a: ONE} if op == g else {}
            else:
                out = vecmat(image[source], ops[op])
            for c, f in steps:
                axpy(out, f, image[c])
            if lead is not None:
                image[lead] = scaled = {}
                axpy(scaled, scale, out)
            elif out:
                outs[k] = out
        while outs:
            # Solve coordinate i of the word for its first unknown k0, and
            # fold k0 into each unknown met there, which clears i in them.
            k0 = min(outs)
            out0 = outs.pop(k0)
            image0 = images.pop(k0)
            i, v = next(iter(out0.items()))
            pivot = -v.inverse()
            for k, out in list(outs.items()):
                if i in out:
                    c = out[i] * pivot
                    image = images[k]
                    for j, column in image0.items():
                        axpy(image[j], c, column)
                    axpy(out, c, out0)
                    if not out:
                        del outs[k]
    # At negated positions the first entry reduce_rows pivots on is the last
    # entry of X.
    reduced = reduce_rows([_standard_map(back, x, m.dim) for x in images.values()])
    basis = []
    for key in sorted(reduced, reverse=True):
        data: dict[int, dict] = {}
        for p, v in reduced[key].items():
            i, b = divmod(-p, m.dim)
            data.setdefault(i, {})[b] = v
        basis.append(QMatrix._wrap(n.dim, m.dim, data))
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


def image_char(n: int) -> WeightCharacter:
    """Weight multiset of the image of canonical_map(n), the simple module of
    highest weight n.

    The map is weight-preserving and weyl(n) has one basis vector per weight,
    so the image has weight n - 2j exactly when the entry (j, j) is nonzero.
    """
    x = canonical_map(n)
    return WeightCharacter(Counter(n - 2 * j for j in range(n + 1) if x[j, j]))


def simple(n: int) -> QMod:
    """Simple module of highest weight n, by Lusztig's tensor product theorem
    at q = i: weyl(n) for odd n, frobenius_simple(n // 2) for even n."""
    if n < 0:
        raise DomainError(f"simple requires n >= 0, got {n}")
    return weyl(n) if n % 2 else frobenius_simple(n // 2)


def frobenius_simple(m: int) -> QMod:
    """Pullback of the classical (m+1)-dimensional irreducible along quantum
    Frobenius: weights doubled, E = F = 0, divided squares act classically,
    E2 v_j = (m-j+1) v_{j-1} and F2 v_j = (j+1) v_{j+1}."""
    if m < 0:
        raise DomainError(f"frobenius_simple requires m >= 0, got {m}")
    d = m + 1
    zero = QMatrix.zeros(d, d)
    return QMod(
        tuple(2 * m - 4 * j for j in range(d)),
        zero,
        zero,
        QMatrix(d, d, {j: {j - 1: m - j + 1} for j in range(1, d)}),
        QMatrix(d, d, {j: {j + 1: j + 1} for j in range(d - 1)}),
    )


def tensor(m: QMod, n: QMod) -> QMod:
    """Tensor product along the fixed divided-power coproduct.

    E -> E(x)1 + K(x)E,  F -> F(x)K^-1 + 1(x)F,
    E2 -> E2(x)1 + q EK(x)E + K^2(x)E2,
    F2 -> F2(x)K^-2 + q F(x)FK^-1 + 1(x)F2,  with q = i.
    Basis index (a, b) maps to a * n.dim + b; weights add.  Each operator's
    rows are written straight from its coproduct terms (``_coproduct``), K
    acting as i^w on the stored weights; no Kronecker product, identity or K
    matrix is built, and the result is the Kronecker form for any operators.
    """
    ops = (
        ((m.e, None, lambda wa, wb: 0), (None, n.e, lambda wa, wb: wa)),
        ((m.f, None, lambda wa, wb: -wb), (None, n.f, lambda wa, wb: 0)),
        (
            (m.e2, None, lambda wa, wb: 0),
            (m.e, n.e, lambda wa, wb: 1 + wa),
            (None, n.e2, lambda wa, wb: 2 * wa),
        ),
        (
            (m.f2, None, lambda wa, wb: -2 * wb),
            (m.f, n.f, lambda wa, wb: 1 - wb),
            (None, n.f2, lambda wa, wb: 0),
        ),
    )
    weights = tuple(wm + wn for wm in m.weights for wn in n.weights)
    return QMod(weights, *(_coproduct(m, n, terms) for terms in ops))


def _coproduct(m: QMod, n: QMod, terms) -> QMatrix:
    """The sum over ``terms`` (x, y, power) of x(x)y with row (a, b) scaled
    by i^power(weight of a, weight of b), x or y None standing for the
    identity.  In the row convention a K factor scales the row of the basis
    vector it acts on, so EK and FK^-1 are E and F with their rows scaled.
    Only the stored rows of x and y are read; terms that meet at a position
    add, and a row that cancels is dropped."""
    dn, mw, nw = n.dim, m.weights, n.weights
    data: dict[int, dict] = {}

    def add(p: int, exponent: int, vec: dict) -> None:
        """Row p += i^exponent * vec; a new row at a factor of 1 is vec."""
        row = data.get(p)
        if row is None and not exponent % 4:
            data[p] = vec
        else:
            axpy(data.setdefault(p, {}), i_power(exponent), vec)

    for x, y, power in terms:
        if y is None:
            for a, xrow in x._data.items():
                for b, wb in enumerate(nw):
                    vec = {k * dn + b: v for k, v in xrow.items()}
                    add(a * dn + b, power(mw[a], wb), vec)
        elif x is None:
            for b, yrow in y._data.items():
                for a, wa in enumerate(mw):
                    vec = {a * dn + l: v for l, v in yrow.items()}
                    add(a * dn + b, power(wa, nw[b]), vec)
        else:
            for a, xrow in x._data.items():
                for b, yrow in y._data.items():
                    vec = {
                        k * dn + l: u * v for k, u in xrow.items() for l, v in yrow.items()
                    }
                    add(a * dn + b, power(mw[a], nw[b]), vec)
    d = m.dim * dn
    return QMatrix._wrap(d, d, {p: row for p, row in data.items() if row})


def char(m: QMod) -> WeightCharacter:
    """Weight multiset of m."""
    return WeightCharacter(Counter(m.weights))
