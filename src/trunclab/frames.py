"""Finite pointed frames and step-valued frame reals.

A finite frame is a finite distributive lattice; its Heyting implication,
pseudocomplements, rather-below relation and complemented part are derived
tables.  A frame real is a partition of the top into complemented cells,
each carrying a rational value (extended reals allowed for the D-type used
by drop/lift computations); the cell containing the designated point
carries 0.  It is kept as its values at the frame's points.  Sups and
drop/lift squares are certified at the points of the spectrum.  Induced
operations are computed point by point and certified against the
join-of-meets formula, decided value by value; surjections carry their
adjoints, with density decided exactly.
"""

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm

from .elements import OPS, SimpleElement, StepValues, apply_op, is_unital_component
from .errors import (BudgetError, SpaceMismatchError, StructureError,
                     UnsupportedOperationError, certify)
from .gba import (Lattice, ValidationReport, _distributive_lattice, _law_sweep,
                  _restricted, _set_tables, _unpreserved, _up_sets, order_lattice)
from .rat import (NEG_INF, POS_INF, as_fraction, format_label, format_rational,
                  is_finite, label_repr, sorted_labels)
from .records import record
from .spaces import PointedBooleanSpace

E0Q_MAX_FRAME = 12  # bounds e0q_exhaustive's search over partitions of the source


def _frame_tables(labels, leq_pairs):
    """gba.order_lattice, then distributivity by gba._distributive_lattice;
    a failure is named by the first violation gba._law_sweep lists, which
    in a lattice is a distributivity witness (a, b, c)."""
    out, tables = order_lattice(labels, leq_pairs)
    if not out:
        labels, up, join, meet = tables
        bot = up.index((1 << len(up)) - 1)
        if not _distributive_lattice(join, meet, bot):
            report = ValidationReport()
            _law_sweep(report, labels, join, meet, bot)
            out = report.violations[:1]
    return out, None if out else tables


class FiniteFrame(Lattice):
    """Validated finite frame with all derived tables precomputed."""

    def __init__(self, labels, leq_pairs=None, *, _tables=None):
        """Validate labels under leq_pairs, or trust _tables = (join, meet), the
        index tables of a distributive lattice on labels in sorted_labels order."""
        if _tables is None or not labels:
            violations, tables = _frame_tables(labels, leq_pairs)
            if violations:
                raise StructureError(f"not a finite frame: {violations[:3]}")
            labels, up, self._join, self._meet = tables
        else:
            self._join, self._meet = _tables
            up = _up_sets(self._join)
        self.labels = tuple(labels)
        self._up = up  # bit j of _up[i] is set iff labels[i] <= labels[j]
        self._bot = bot = up.index((1 << len(up)) - 1)
        # the pseudocomplement of i joins every k with i ^ k = bottom
        pseudo = [self._join_of([k for k, m in enumerate(row) if m == bot])
                  for row in self._meet]
        self.pseudo = dict(zip(self.labels, map(self.labels.__getitem__, pseudo)))
        self.complemented = frozenset(x for x, row, p in zip(self.labels, self._join, pseudo)
                                      if row[p] == self._top)

    @classmethod
    def from_sets(cls, family):
        """The frame of a set family under union and intersection, on
        gba._set_tables (an unclosed family takes the order path)."""
        labels, _, join, meet = _set_tables(family)
        if any(-1 in row for row in join + meet):
            return cls(labels, {(a, b) for a in labels for b in labels if a <= b})
        return cls(labels, _tables=(join, meet))

    @classmethod
    def chain(cls, size):
        """0 < 1 < ... < size - 1, in sorted_labels order (10 before 2)."""
        labels = sorted_labels(range(size))
        at = {x: i for i, x in enumerate(labels)}
        return cls(labels, _tables=[[[at[op(a, b)] for b in labels] for a in labels]
                                    for op in (max, min)])

    @classmethod
    def product(cls, a, b):
        """Pairs in itertools.product order, which is sorted_labels order."""
        n = len(b)
        return cls(list(itertools.product(a.labels, b.labels)), _tables=[
            [[x * n + y for x in ta[i] for y in tb[j]] for i in range(len(a)) for j in range(n)]
            for ta, tb in ((a._join, b._join), (a._meet, b._meet))])

    def subframe(self, labels):
        """The frame on labels closed under this frame's join and meet: these
        tables restricted to them, in this frame's order.  Unclosed labels
        take the order path."""
        keep = sorted({self.index[x] for x in labels})
        labels = [self.labels[k] for k in keep]
        try:
            return FiniteFrame(labels, _tables=_restricted(keep, self._join, self._meet))
        except KeyError:  # a join or meet outside labels
            return FiniteFrame(labels, {(a, b) for a in labels for b in labels
                                        if self.leq(a, b)})

    def join_all(self, xs):
        return reduce(self.join, xs, self.bottom)

    def complement(self, x):
        if x not in self.complemented:
            raise StructureError(f"{label_repr(x)} is not complemented")
        return self.pseudo[x]


class PointedFiniteFrame:
    """A finite frame with a frame map onto 2, given by its true-filter."""

    def __init__(self, frame, focus=None, true_set=None):
        self.frame = frame
        if true_set is None:
            if focus is None:
                raise StructureError("need a focal element or an explicit filter")
            if focus not in frame.index:
                raise StructureError(f"unknown frame element {label_repr(focus)}")
            up = frame._up[frame.index[focus]]
            true_set = (x for i, x in enumerate(frame.labels) if up >> i & 1)
        self.true_set = frozenset(true_set)
        self._validate()

    def point(self, x):
        return x in self.true_set

    @cached_property
    def spectrum(self):
        """The points as a pointed space on frame indices: frame.points,
        based at the basepoint."""
        return PointedBooleanSpace(frozenset(self.frame.points), self.frame.points[self._star])

    @cached_property
    def _star(self):
        """The basepoint's position in frame.points: the join-prime whose
        up-set is the true set."""
        return self.frame.points.index(self.frame._up.index(self._true))

    def _validate(self):
        """The true-set t must be a prime filter: some up-set whose complement's
        join g lies outside it.  Only a failing point is scanned for a witness."""
        fr = self.frame
        if not self.point(fr.top) or self.point(fr.bottom):
            raise StructureError("point must send top to top and bottom to bottom")
        self._true = t = sum(1 << i for i, x in enumerate(fr.labels) if x in self.true_set)
        g = fr._join_of(i for i in range(len(fr)) if not t >> i & 1)
        if t not in fr._up or t >> g & 1:
            bad = _unpreserved(fr, [t >> i & 1 for i in range(len(fr))],
                               [("meet", fr._meet, ((0, 0), (0, 1))),
                                ("join", fr._join, ((0, 1), (1, 1)))])
            raise StructureError("point not {}-preserving at ({},{})".format(*bad))

    def __eq__(self, other):
        return (isinstance(other, PointedFiniteFrame)
                and self.frame == other.frame and self.true_set == other.true_set)

    def __hash__(self):
        return hash((self.frame, self.true_set))

    def __repr__(self):
        return f"PointedFiniteFrame({len(self.frame)} elements)"


@record(frozen=True)
class OpenInterval:
    """An open rational interval; its ends may be -inf and +inf."""

    lo: object
    hi: object

    def __repr__(self):
        return f"({self.lo},{self.hi})"


def ray_below(r):
    return OpenInterval(NEG_INF, as_fraction(r))


def ray_above(r):
    return OpenInterval(as_fraction(r), POS_INF)


class FrameReal(StepValues):
    """Step-valued frame real: disjoint complemented cells with join top.

    extended=True admits +/-inf cells (the D-type); pointed=False skips
    the basepoint-cell rule, for deliberately unpointed test elements.
    A finite frame is spatial, so a real is its values at the frame's
    points: _nums holds one integer numerator, or +/-inf, per join-prime of
    frame.points, over one denominator _den > 0 in lowest terms.  The cell
    of a value is the join of the points that carry it; cells, values and
    eval give Fractions and labels.

    The public constructor validates the cells; the pointwise operation
    results go through _canonical, which checks only the basepoint value:
    every tag maps (0, 0) to 0, so pointed operands always pass it.
    """

    def __init__(self, pframe, cells, extended=False, pointed=True):
        fr = pframe.frame
        items = []
        for value, cell in cells:
            if is_finite(value):
                value = as_fraction(value)
            elif not extended:
                raise StructureError("infinite values need a D-type frame real")
            if cell not in fr.index:
                raise StructureError(f"unknown frame element {label_repr(cell)}")
            if fr.index[cell] != fr._bot:
                items.append((value, fr.index[cell]))
        # in lowest terms, as every cell but bottom holds a point
        den = lcm(*(v.denominator for v, _ in items if is_finite(v)))
        merged = {}  # a numerator over den, or +/-inf, to the join of its cells
        for v, c in items:
            n = v.numerator * (den // v.denominator) if is_finite(v) else v
            merged[n] = fr._join[merged[n]][c] if n in merged else c
        items = sorted(merged.items())
        for i, (_, c) in enumerate(items):
            for _, d in items[i + 1:]:
                if fr._meet[c][d] != fr._bot:
                    raise StructureError(f"cells {label_repr(fr.labels[c])} and "
                                         f"{label_repr(fr.labels[d])} are not disjoint")
        if fr._join_of(c for _, c in items) != fr._top:
            raise StructureError("cells do not cover the frame")
        # each point lies below exactly one cell of the partition
        self._nums = tuple(n for p in fr.points for n, c in items if fr._up[p] >> c & 1)
        if pointed and self._nums[pframe._star] != 0:
            raise StructureError("the cell containing the designated point must carry 0")
        self.pframe, self._den, self.extended, self.pointed = pframe, den, extended, pointed

    @classmethod
    def _canonical(cls, pframe, nums, den):
        """A finite pointed real from its numerators over den at frame.points."""
        nums = tuple(nums)
        g = gcd(den, *nums)
        if g != 1:
            nums, den = tuple(n // g for n in nums), den // g
        if nums[pframe._star] != 0:
            raise StructureError("the cell containing the designated point must carry 0")
        e = object.__new__(cls)
        e.pframe, e._nums, e._den, e.extended, e.pointed = pframe, nums, den, False, True
        return e

    @classmethod
    def zero(cls, pframe):
        return cls._canonical(pframe, (0,) * len(pframe.frame.points), 1)

    def _cell_map(self):
        """Each numerator, or +/-inf, to the index of its cell: the join of
        the points that carry it, in the order of frame.points."""
        fr = self.pframe.frame
        join, out = fr._join, {}
        for p, n in zip(fr.points, self._nums):
            out[n] = join[out[n]][p] if n in out else p
        return out

    @property
    def cells(self):
        labels, den = self.pframe.frame.labels, self._den
        return tuple((Fraction(n, den) if is_finite(n) else n, labels[c])
                     for n, c in sorted(self._cell_map().items()))

    def values(self):
        return [v for v, _ in self.cells]

    def grid_values(self):
        """Every finite value: the cuts of the frame Dini report."""
        return [Fraction(n, self._den) for n in set(self._nums) if is_finite(n)]

    def max_value(self):
        """The last value: inf when there is a +inf cell."""
        return self.values()[-1]

    def to_json(self):
        """The report form: each cell value to its frame element."""
        return {format_rational(v): format_label(c) for v, c in self.cells}

    def finite_part_join(self):
        return self.eval(OpenInterval(NEG_INF, POS_INF))

    def eval(self, interval):
        """The frame element assigned to an open interval: the join of the
        points whose finite value lies in it, compared as integers over _den."""
        lo, hi, den = interval.lo, interval.hi, self._den
        if is_finite(lo):
            lo = lo.numerator * den // lo.denominator
        if is_finite(hi):
            hi = -(-hi.numerator * den // hi.denominator)
        fr = self.pframe.frame
        return fr.labels[fr._join_of(p for p, n in zip(fr.points, self._nums) if is_finite(n)
                                     and (lo is NEG_INF or lo < n) and (hi is POS_INF or n < hi))]

    def at(self, p):
        """The value at the point p, a join-prime of the frame."""
        n = self._nums[self.pframe.frame.points.index(p)]
        return Fraction(n, self._den) if is_finite(n) else n

    def _point_nums(self):
        """The numerators, or +/-inf, at frame.points, the basepoint among them."""
        return self._nums

    def to_simple(self):
        """The image on the spectrum, without the basepoint value an unpointed
        real may have; a real with an infinite cell has none."""
        if not all(map(is_finite, self._nums)):
            raise UnsupportedOperationError("a frame real with an infinite cell has no image")
        spectrum = self.pframe.spectrum
        return SimpleElement(spectrum, {p: self.at(p) for p in spectrum.nonstar})

    def _finite(self):
        if self.extended:
            raise UnsupportedOperationError("arithmetic needs finite-valued operands")
        return self._nums, self._den

    def _aligned(self, other):
        if not isinstance(other, FrameReal):
            raise SpaceMismatchError(f"{other!r} is not a frame real")
        if self.pframe is not other.pframe and self.pframe != other.pframe:
            raise SpaceMismatchError("frame reals over different pointed frames")
        return super()._aligned(other)

    def _renum(self, nums, den):
        return self._canonical(self.pframe, nums, den)

    def __eq__(self, other):
        return (isinstance(other, FrameReal) and self._nums == other._nums
                and self._den == other._den and self.pframe == other.pframe)

    def __hash__(self):
        return hash((self.pframe, self._nums, self._den))

    def __repr__(self):
        inner = ", ".join(f"{v}:{c}" for v, c in self.cells)
        return f"FrameReal[{inner}]"


# --- induced operations and the join-of-meets oracle ---------------------

def induced_op(tag, operands, param=None):
    """Induced operation on frame reals: apply_op, certified.

    The cell-wise result is checked against the join-of-meets formula at
    every value of the formula and the result; disagreement raises.
    """
    operands = list(operands)
    if any(g.extended for g in operands):
        raise UnsupportedOperationError("induced operations act on finite-valued reals")
    result = apply_op(tag, operands, param)
    mismatch = oracle_mismatch(tag, operands, result, param)
    certify(mismatch is None, "join-of-meets oracle disagrees", mismatch)
    return result


def oracle_mismatch(tag, operands, result, param=None):
    """The tight open around the lowest value where the join-of-meets
    formula and result differ, or None.

    The formula joins, over boxes of opens whose image lies inside V, the
    meets of the operand evaluations.  For step-valued operands it suffices
    to consider one tight box around each tuple of operand values: general
    opens decompose into intervals and frame distributivity splits their
    contributions, while a tight box around a value tuple realizes the meet
    of the corresponding cells, which are the operands' own cells.  Every
    tag is continuous, so a tight enough box maps inside an open V exactly
    when the tuple's value lies in V: V receives the join, over the values
    w in V, of F(w), the join of the meets of the tuples of value w, and
    result.eval(V) the join of the result's cells there.  So the two agree
    on every open iff they agree at each value w of either side (a missing
    one is bottom): the tight open around w, its ends the midpoints to the
    neighbouring values or +/-inf, holds w alone.  The values are integer
    numerators over one denominator, with the tags' scalars in OPS; only
    the witness open is made of Fractions.
    """
    fr = operands[0].pframe.frame
    meet, join, bot = fr._meet, fr._join, fr._bot
    scalar = OPS[tag].scalar
    params = () if param is None else (as_fraction(param),)
    # every value of either side is an integer numerator over den: a wrong
    # result may carry a denominator that no operand has
    den = lcm(*(g._den for g in operands)) * (params[0].denominator if params else 1)
    den = lcm(den, result._den)

    def cells_over_den(g):
        s = den // g._den
        return [(n * s, c) for n, c in g._cell_map().items()]

    formula = {}
    for combo in itertools.product(*map(cells_over_den, operands)):
        m = fr._top
        for _, c in combo:
            m = meet[m][c]
        if m != bot:
            w = scalar(den, *(v for v, _ in combo), *params)
            formula[w] = join[formula.get(w, bot)][m]
    cells = dict(cells_over_den(result))
    values = sorted(formula.keys() | cells.keys())
    for i, w in enumerate(values):
        if formula.get(w, bot) != cells.get(w, bot):
            return OpenInterval(Fraction(values[i - 1] + w, 2 * den) if i else NEG_INF,
                                Fraction(w + values[i + 1], 2 * den)
                                if i + 1 < len(values) else POS_INF)
    return None


# --- characteristic functions and unital components ----------------------

def chi(pframe, x):
    """Characteristic frame real of a complemented element avoiding the point."""
    complement = pframe.frame.complement(x)
    if pframe.point(x):
        raise StructureError("characteristic functions need a cell avoiding the point")
    return FrameReal(pframe, [(Fraction(1), x), (Fraction(0), complement)])


def frame_uc_check(u):
    """True with the complemented witness coz u iff u = truncate(2u)."""
    if not is_unital_component(u):
        return False, None
    witness = u.eval(ray_above(0))
    certify(witness in u.pframe.frame.complemented,
            "coz u of a unital component must be complemented", witness)
    certify(not u.pframe.point(witness),
            "coz u of a unital component must avoid the point", witness)
    return True, witness


# --- surjections, drops and lifts -----------------------------------------

class FrameSurjection:
    """A pointed frame surjection with its precomputed adjoint."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._f = f = self._validate()  # the map on indices
        fs, ft = source.frame, target.frame
        self.adjoint = {y: fs.labels[fs._join_of(x for x, fx in enumerate(f)
                                                 if ft._up[fx] >> j & 1)]
                        for j, y in enumerate(ft.labels)}
        self.dense = f.count(ft._bot) == 1

    def _validate(self):
        """The map listed by the source's indices, once it is checked."""
        fs, ft = self.source.frame, self.target.frame
        for x in fs.labels:
            if x not in self.mapping or self.mapping[x] not in ft.index:
                raise StructureError(f"map not total at {label_repr(x)}")
        if self.mapping[fs.top] != ft.top or self.mapping[fs.bottom] != ft.bottom:
            raise StructureError("map must preserve top and bottom")
        f = [ft.index[self.mapping[x]] for x in fs.labels]
        bad = _unpreserved(fs, f, [("join", fs._join, ft._join), ("meet", fs._meet, ft._meet)])
        if bad:
            raise StructureError("map not {}-preserving at ({},{})".format(*bad))
        if set(self.mapping.values()) != set(ft.labels):
            raise StructureError("map not surjective")
        for x in fs.labels:
            if self.target.point(self.mapping[x]) != self.source.point(x):
                raise StructureError(f"map not pointed at {label_repr(x)}")
        return f

    def __call__(self, x):
        return self.mapping[x]

    def __eq__(self, other):
        return (isinstance(other, FrameSurjection) and self.source == other.source
                and self.target == other.target and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.source, self.target))

    def galois_failure(self):
        """A pair (x, y) where q(x) <= y and x <= adjoint(y) disagree, or None."""
        fs, ft = self.source.frame, self.target.frame
        return next(((x, y) for x in fs.labels for y in ft.labels
                     if ft.leq(self.mapping[x], y) != fs.leq(x, self.adjoint[y])),
                    None)


def surjection_tools(q):
    """Adjoint table and exact density flag, with the Galois law certified."""
    failure = q.galois_failure()
    certify(failure is None, "adjoint must satisfy the Galois law", failure)
    return {"adjoint": dict(q.adjoint), "dense": q.dense}


@record
class DropResult:
    ok: bool
    result: object = None  # FrameReal on the target when ok
    condition_value: object = None  # q(h'(-inf, inf)) when refused

    def __repr__(self):
        if self.ok:
            return f"DropResult(ok, {self.result!r})"
        return f"DropResult(refused, condition={self.condition_value!r})"


def drop(q, h_prime):
    """Push a D-type frame real along q when q(h'(-inf,inf)) = top.

    On success the finite-value cells map through q (infinite cells are
    forced to bottom) and the commuting square q o h' = h o p is verified
    at the points of the target; otherwise the failed condition value is returned.
    """
    if h_prime.pframe != q.source:
        raise SpaceMismatchError("h' must live on the source of q")
    ft = q.target.frame
    condition = q(h_prime.finite_part_join())
    if condition != ft.top:
        return DropResult(False, condition_value=condition)
    cells = [(v, q(c)) for v, c in h_prime.cells if is_finite(v)]
    for v, c in h_prime.cells:
        if not is_finite(v):
            certify(q(c) == ft.bottom,
                    "infinite cells must collapse under the condition", (v, c))
    h = FrameReal(q.target, cells, pointed=h_prime.pointed)
    _certify_square(q, h_prime, h, "drop square q o h' = h o p fails")
    return DropResult(True, result=h)


@record
class LiftResult:
    ok: bool
    witness: object = None  # FrameReal on the source when ok
    method: str = None
    note: str = None

    def __repr__(self):
        if self.ok:
            return f"LiftResult(ok via {self.method}, {self.witness!r})"
        return f"LiftResult(refuted: {self.note})"


def _certify_square(q, h_prime, h, message):
    """Certify q o h' = h o p on every open U of the extended line (h finite);
    the witness is the first failing point of the target.  The target is
    spatial, so both sides agree on U iff each point t lies below both or
    neither.  The x with t <= q(x) are a completely prime filter (q keeps
    meets and joins, t is join-prime): the up-set of a join-prime p.  So
    t <= q(h'(U)) iff p <= h'(U) iff h'.at(p) is in U, and t <= h(U n R) iff
    h.at(t) is; distinct extended values have opens that tell them apart, so
    the square holds iff h'.at(p) == h.at(t) at every t."""
    fs, ft, f = q.source.frame, q.target.frame, q._f
    for t in sorted(q.target.spectrum.points):
        p = reduce(lambda a, x: fs._meet[a][x],
                   (x for x, fx in enumerate(f) if ft._up[t] >> fx & 1), fs._top)
        certify(h_prime.at(p) == h.at(t), message, ft.labels[t])


def e0q_member(q, h):
    """Find h' on the source with q o h' = h o p, or refute it.

    All step reals on finite frames are bounded, so a single factorization
    of h itself suffices, and the adjoint q_* decides it.  The square at a
    tight open around each value maps a lift's cell there onto h's cell c
    (by density a lift has no other values), so by the Galois law the
    lift's cell lies below q_*(c); the lift's cells join to the top, so a
    lift exists only if the adjoint cells q_*(c) do.  When they do, they
    are a lift: disjoint, as q(q_*(c) ^ q_*(d)) <= c ^ d = bottom and q is
    dense; complemented, as disjoint cells joining to the top; and pointed,
    because q is and then q(q_*(c)) = c.  A refusal first certifies the
    Galois law it rests on.
    """
    if not q.dense:
        raise StructureError("lifting requires a dense surjection")
    if h.pframe != q.target:
        raise SpaceMismatchError("h must live on the target of q")
    fs = q.source.frame
    cand = [(v, q.adjoint[c]) for v, c in h.cells]
    if fs.join_all(c for _, c in cand) == fs.top:
        h_prime = FrameReal(q.source, cand)
        _certify_square(q, h_prime, h, "the lift must satisfy q o h' = h o p")
        return LiftResult(True, witness=h_prime, method="adjoint")
    failure = q.galois_failure()
    certify(failure is None, "adjoint must satisfy the Galois law", failure)
    return LiftResult(False, note="no complemented partition lifts the cells")


def e0q_exhaustive(q, h):
    """Complete search over complemented partitions of a source of at most
    E0Q_MAX_FRAME elements: the oracle that e0q_member is tested against."""
    if not q.dense:
        raise StructureError("lifting requires a dense surjection")
    fs = q.source.frame
    if len(fs) > E0Q_MAX_FRAME:
        raise BudgetError(f"source frame exceeds the {E0Q_MAX_FRAME}-element bound")
    target_cells = list(h.cells)
    candidate_sets = [[c for c in fs.labels if c in fs.complemented and q(c) == x]
                      for _, x in target_cells]

    def search(i, chosen, acc):
        if i == len(target_cells):
            return list(chosen) if acc == fs.top else None
        for c in candidate_sets[i]:
            if all(fs.meet(c, d) == fs.bottom for d in chosen):
                found = search(i + 1, chosen + [c], fs.join(acc, c))
                if found is not None:
                    return found
        return None

    cells = search(0, [], fs.bottom)
    if cells is None:
        return LiftResult(False, note="no complemented partition lifts the cells")
    h_prime = FrameReal(q.source, [(v, c) for (v, _), c in zip(target_cells, cells)])
    _certify_square(q, h_prime, h, "the lift must satisfy q o h' = h o p")
    return LiftResult(True, witness=h_prime, method="exhaustive")
