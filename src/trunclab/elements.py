"""Simple elements and simple truncs over finite pointed spaces.

A simple element is an exact-rational function on a finite pointed space
vanishing at the basepoint.  Everything here is pointwise and exact: the
truncation g -> min(g, 1), truncated subtraction (g - r)+, level-n cutoffs
min(g, n), normal forms, clearance decompositions, good sequences and their
bijection with truncation sequences, boundedness witnesses, quotients that
separate points, and grid-verified pointwise suprema with a Dini check.
"""

import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm

from .errors import (PositivityError, SpaceMismatchError, StructureError,
                     UnsupportedOperationError, certify)
from .gba import GeneralizedBooleanAlgebra
from .rat import (as_fraction, format_rational, is_finite, label_repr, set_repr,
                  sorted_labels)
from .records import record
from .spaces import PointedBooleanSpace


ONE, ZERO = Fraction(1), Fraction(0)


class Carrier:
    """The truncation calculus shared by the elements of all three models.

    A carrier supplies is_nonneg and two hooks: _cap(c), the pointwise min
    with a constant c > 0, and _excess(r), the pointwise (g - r)+ for r > 0.
    The truncation, truncated subtraction and level-n cutoffs follow from
    them under one set of positivity rules.
    """

    __slots__ = ()

    def _require_nonneg(self, op):
        if not self.is_nonneg():
            raise PositivityError(
                f"{op} requires a nonnegative operand (witness {self!r})")

    def truncate(self):
        """Pointwise min with 1 (the truncation g -> g-bar)."""
        self._require_nonneg("truncate")
        return self._cap(ONE)

    def tminus(self, r):
        """Pointwise (value - r)+ for rational r >= 0; r = 0 is the identity."""
        r = as_fraction(r)
        if r < 0:
            raise PositivityError(f"tminus needs r >= 0, got {r}")
        self._require_nonneg("tminus")
        return self if r == 0 else self._excess(r)

    def trunc_at(self, n):
        """Pointwise min with the level n > 0 (the n-th truncation g ^ n)."""
        n = as_fraction(n)
        if n <= 0:
            raise PositivityError(f"trunc_at needs n > 0, got {n}")
        self._require_nonneg("trunc_at")
        return self._cap(n)

    def grid_values(self):
        """The values whose cuts make dini_check's epsilon grid: the maximum."""
        return [self.max_value()]


class StepValues(Carrier):
    """A carrier whose finite values are integer numerators over one denominator.

    A subclass stores _nums, one per point, and _den > 0, computes with
    _finite(), and supplies _aligned(other), which checks that other has the
    same points, and _renum(nums, den), the element there with new
    numerators.  The arithmetic, lattice and truncation operations follow,
    all pointwise: _combine serves every binary one.
    """

    __slots__ = ()

    def _finite(self):
        return self._nums, self._den

    def _aligned(self, other):
        """Both operands' numerators over their least common denominator."""
        (a, da), (b, db) = self._finite(), other._finite()
        if da == db:
            return a, b, da
        den = lcm(da, db)
        sa, sb = den // da, den // db
        return [x * sa for x in a], [y * sb for y in b], den

    def _with_const(self, c):
        """The numerators and the constant c over their least common denominator."""
        nums, d = self._finite()
        cn, cd = c.numerator, c.denominator
        if d % cd == 0:
            return nums, cn * (d // cd), d
        den = lcm(d, cd)
        s = den // d
        return [n * s for n in nums], cn * (den // cd), den

    def __neg__(self):
        nums, den = self._finite()
        return self._renum([-n for n in nums], den)

    def scale(self, q):
        q = as_fraction(q)
        nums, den = self._finite()
        return self._renum([n * q.numerator for n in nums], den * q.denominator)

    def _cap(self, c):
        nums, c, den = self._with_const(c)
        if max(nums, default=0) <= c:
            return self  # nothing to cap
        return self._renum([min(n, c) for n in nums], den)

    def _excess(self, r):
        nums, r, den = self._with_const(r)
        return self._renum([n - r if n > r else 0 for n in nums], den)

    def _combine(self, other, fn):
        """fn of the two operands' values, point by point."""
        a, b, den = self._aligned(other)
        return self._renum(map(fn, a, b), den)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def meet(self, other):
        return self._combine(other, min)

    def join(self, other):
        return self._combine(other, max)

    def __abs__(self):
        nums, den = self._finite()
        return self._renum(map(abs, nums), den)

    def is_nonneg(self):
        return min(self._nums, default=0) >= 0

    def is_zero(self):
        return not any(self._nums)


class SimpleElement(StepValues):
    """Rational-valued function on a pointed space, zero at the basepoint.

    The values are integer numerators aligned with space.nonstar over one
    shared denominator den > 0, in lowest terms (gcd(den, *nums) == 1), so
    equal elements have equal (nums, den).  value, values and items give
    Fractions; the operations and queries compute on the integers.
    """

    __slots__ = ("space", "_nums", "_den")

    def __init__(self, space, values=None):
        values = dict(values or {})
        fracs = [as_fraction(values.pop(p, ZERO)) for p in space.nonstar]
        if values:
            bad = sorted_labels(values)
            raise StructureError(f"values at unknown or basepoint labels: {bad}")
        den = lcm(*(v.denominator for v in fracs))
        self.space = space
        self._nums = tuple(v.numerator * (den // v.denominator) for v in fracs)
        self._den = den

    @classmethod
    def _canonical(cls, space, nums, den):
        """An element from a tuple of numerators over den > 0, in lowest terms."""
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
        e = object.__new__(cls)
        e.space, e._nums, e._den = space, nums, den
        return e

    @classmethod
    def chi(cls, space, subset):
        """Characteristic function of a set of non-basepoint labels."""
        subset = frozenset(subset)
        if not subset <= set(space.nonstar):
            raise StructureError(f"subset {label_repr(subset)} not within non-star points")
        return cls._canonical(space, tuple(int(p in subset) for p in space.nonstar), 1)

    @classmethod
    def zero(cls, space):
        return cls._canonical(space, (0,) * len(space.nonstar), 1)

    def _point_nums(self):
        """The numerators at every point, the basepoint (0) last."""
        return (*self._nums, 0)

    def value(self, point):
        if point == self.space.star:
            return ZERO
        return Fraction(self._nums[self.space._index[point]], self._den)

    @property
    def values(self):
        return dict(self.items())

    def items(self):
        den = self._den
        return tuple((p, Fraction(n, den))
                     for p, n in zip(self.space.nonstar, self._nums))

    def to_json(self):
        """The report form: each non-basepoint label to its value."""
        return {str(p): format_rational(v) for p, v in self.items()}

    def __eq__(self, other):
        return (isinstance(other, SimpleElement) and self._nums == other._nums
                and self._den == other._den and self.space == other.space)

    def __hash__(self):
        return hash((self.space, self._nums, self._den))

    def __repr__(self):
        inner = ",".join(f"{p}:{v}" for p, v in self.items())
        return f"<{inner}>"

    def _aligned(self, other):
        if not isinstance(other, SimpleElement):
            raise SpaceMismatchError(f"{other!r} is not a simple element")
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")
        return super()._aligned(other)

    def _renum(self, nums, den):
        return self._canonical(self.space, tuple(nums), den)

    def support(self):
        return frozenset(p for p, n in zip(self.space.nonstar, self._nums) if n)

    def restrict_to(self, subset):
        """Zero out values outside the given set of non-basepoint labels."""
        subset = frozenset(subset)
        nums = tuple(n if p in subset else 0
                     for p, n in zip(self.space.nonstar, self._nums))
        return self._canonical(self.space, nums, self._den)

    def max_value(self):
        return Fraction(max(self._nums), self._den) if self._nums else ZERO

    def level_sets(self):
        """Nonzero value -> set of points attaining it."""
        out = {}
        for p, n in zip(self.space.nonstar, self._nums):
            if n:
                out.setdefault(n, set()).add(p)
        return {Fraction(n, self._den): frozenset(s) for n, s in out.items()}


@record(frozen=True)
class Op:
    """One operation tag of the truncation calculus, for all three carriers.

    method names the carrier method that computes the tag: it takes the
    other operands and then the rational parameter, if the tag has one.
    scalar serves the join-of-meets oracle on frame reals, on integers: it
    takes a denominator den, the operand values as numerators over den and
    then the parameter, and gives the tag's value as a numerator over den.
    It is exact when den is a multiple of every operand's denominator times
    the parameter's.  Every scalar is continuous, which the oracle relies on.
    """

    arity: int
    takes_param: bool
    method: str
    scalar: object


def _over(q, den):
    """The rational q as a numerator over den, a multiple of q's denominator."""
    return q.numerator * (den // q.denominator)


# The parameter of tminus and truncN is a value, so it goes over den; that
# of scale is a multiplier, and v * q is exact as q's denominator divides v.
OPS = {
    "add": Op(2, False, "__add__", lambda den, a, b: a + b),
    "sub": Op(2, False, "__sub__", lambda den, a, b: a - b),
    "negate": Op(1, False, "__neg__", lambda den, v: -v),
    "scale": Op(1, True, "scale", lambda den, v, q: v * q.numerator // q.denominator),
    "meet": Op(2, False, "meet", lambda den, a, b: min(a, b)),
    "join": Op(2, False, "join", lambda den, a, b: max(a, b)),
    "truncate": Op(1, False, "truncate", lambda den, v: min(v, den)),
    "tminus": Op(1, True, "tminus", lambda den, v, r: max(v - _over(r, den), 0)),
    "truncN": Op(1, True, "trunc_at", lambda den, v, n: min(v, _over(n, den))),
}


def apply_op(tag, operands, param=None):
    """Apply an operation tag to operands of one carrier (see OPS).

    A binary tag takes exactly two operands and a unary tag one; scale,
    tminus and truncN take a rational parameter and the others none.
    """
    op = OPS.get(tag)
    if op is None:
        raise UnsupportedOperationError(f"unknown operation tag {tag!r}")
    operands = list(operands)
    if len(operands) != op.arity:
        raise StructureError(f"{tag} takes {op.arity} operand(s), got {len(operands)}")
    if op.takes_param and param is None:
        raise StructureError(f"{tag} needs a rational parameter, as in {tag}:1/2")
    if param is not None and not op.takes_param:
        raise StructureError(f"{tag} takes no parameter")
    params = (Fraction(param),) if op.takes_param else ()
    return getattr(operands[0], op.method)(*operands[1:], *params)


def _family_refusals(fam, base, ordered):
    """The reasons the component family fam is not a simple trunc's on the
    points base, each pair of members taken in the order of ordered."""
    for s in ordered:
        if not s <= base:
            yield f"component {set_repr(s)} not within non-star points"
    if frozenset() not in fam:
        yield "component family must contain the empty set"
    for a in ordered:
        for b in ordered:
            for r, opname in ((a | b, "union"), (a & b, "intersection"),
                              (a - b, "difference")):
                if r not in fam:
                    yield (f"family not closed: {opname} of {set_repr(a)} and "
                           f"{set_repr(b)} gives {set_repr(r)}")


class SimpleTrunc:
    """A simple trunc given by its component family of subsets.

    The family must contain the empty set and be closed under union,
    intersection and set difference; membership of an element means every
    nonzero level set lies in the family.
    """

    def __init__(self, space, components):
        self.space = space
        fam = frozenset(frozenset(s) for s in components)
        base = set(space.nonstar)
        # checked in set order; only a refusal sorts, to name its first
        # failure in label order, the same under every hash seed
        if next(_family_refusals(fam, base, fam), None) is not None:
            raise StructureError(next(_family_refusals(fam, base, sorted_labels(fam))))
        self.components = fam

    def __eq__(self, other):
        return (isinstance(other, SimpleTrunc) and self.space == other.space
                and self.components == other.components)

    def __hash__(self):
        return hash((self.space, self.components))

    def member(self, g):
        """Membership with witness: the normal form, or the offending level set."""
        if g.space != self.space:
            raise SpaceMismatchError(f"{g.space} vs {self.space}")
        for v, s in sorted(g.level_sets().items(), key=lambda kv: -kv[0]):
            if s not in self.components:
                return False, s
        return True, normal_form(g)

    def __contains__(self, g):
        return self.member(g)[0]

    def tail_units(self):
        """The pure tails n^(-k) in the carrier: none on a finite space."""
        return []


def lc(space, family=None):
    """The simple trunc of locally constant functions with the given components.

    Defaults to the full powerset of non-basepoint labels (the whole function
    trunc of the finite discrete space).
    """
    if family is None:
        pts = list(space.nonstar)
        family = [frozenset(c) for r in range(len(pts) + 1) for c in combinations(pts, r)]
    return SimpleTrunc(space, family)


def uc(trunc):
    """Unital components of a simple trunc, as a generalized Boolean algebra."""
    alg = GeneralizedBooleanAlgebra.from_sets(trunc.components)
    report = alg.validate()
    # SimpleTrunc refused every unclosed family: a failure here is a failed certificate
    certify(report.ok, "the component family must be a gBa", report)
    return alg


def is_unital_component(u):
    """True iff u = truncate(2u), i.e. all values lie in {0, 1}."""
    if not u.is_nonneg():
        raise PositivityError("unital components are nonnegative")
    return u.scale(2).truncate() == u


def normal_form(g):
    """Unique decomposition into disjoint components with distinct coefficients.

    Returns [(coefficient, component set), ...] sorted by descending
    coefficient; the empty list represents zero.
    """
    return sorted(g.level_sets().items(), key=lambda kv: -kv[0])


def normal_form_reconstruct(space, pairs):
    g = SimpleElement.zero(space)
    for coeff, comp in pairs:
        g = g + SimpleElement.chi(space, comp).scale(coeff)
    return g


def clearance(g):
    """Least nonzero value of a nonnegative element; clearance of 0 is 0."""
    if not g.is_nonneg():
        raise PositivityError("clearance needs g >= 0")
    positive = [n for n in g._nums if n > 0]
    return Fraction(min(positive), g._den) if positive else ZERO


def clearance_step(g):
    """Split off the lowest level: g = g1 + delta * u with g1, u disjoint.

    Requires 0 < g = truncate(g).  u is the characteristic function of the
    points where g attains its clearance delta, and clearance(g1) > delta
    whenever g1 is nonzero.
    """
    if not g.is_nonneg() or g.is_zero():
        raise PositivityError("clearance_step needs g > 0")
    if g.truncate() != g:
        raise StructureError("clearance_step needs g with values in [0, 1]")
    delta = clearance(g)
    above = g.tminus(delta).support()
    u = SimpleElement.chi(g.space, g.support() - above)
    g1 = g.restrict_to(above)
    certify(g1 + u.scale(delta) == g, "g1 + delta u must reconstruct g", g)
    return g1, u, delta


def clearance_decomposition(g):
    """Iterate clearance_step until zero; the pairs reproduce the normal form."""
    pairs = []
    current = g
    while not current.is_zero():
        current, u, delta = clearance_step(current)
        pairs.append((delta, u.support()))
    return pairs


@record(frozen=True)
class GoodSequence:
    """Nonincreasing truncated terms with f_n = truncate(f_n + f_{n+1}), tail
    zero; zero is the model's zero when every term is, else None."""

    terms: tuple
    zero: object = None

    @staticmethod
    def of(terms):
        """Strip trailing zero terms, keeping the first term as the zero
        when none survives."""
        terms = list(terms)
        zero = terms[0] if terms else None
        while terms and terms[-1].is_zero():
            terms.pop()
        return GoodSequence(tuple(terms), None if terms else zero).validated()

    def validated(self):
        """self, or a StructureError naming the first failing index."""
        problem = self.check()
        if problem is not None:
            raise StructureError(f"not a good sequence at index {problem[0]}: "
                                 f"{problem[1]}")
        return self

    def check(self):
        """None if valid, else (1-based index, reason)."""
        terms = self.terms
        for i, t in enumerate(terms, start=1):
            if not t.is_nonneg():
                return i, "negative value"
            if t.truncate() != t:
                return i, "term differs from its truncation"
        for i in range(len(terms) - 1):
            a, b = terms[i], terms[i + 1]
            if not (a - b).is_nonneg():
                return i + 2, "terms increase"
            if (a + b).truncate() != a:
                return i + 1, "f_n != truncate(f_n + f_{n+1})"
        return None

    def __len__(self):
        return len(self.terms)


def good_from_element(g):
    """Good sequence of g >= 0: terms truncate(tminus(n-1)(g)) for n = 1..m.

    m is the ceiling of the maximum value, past which every term is zero.
    Trailing zero terms are stripped; the sequence of 0 keeps its zero.
    """
    if not g.is_nonneg():
        raise PositivityError("good_from_element needs g >= 0")
    m = bound_witness(g)
    terms = [g.tminus(n - 1).truncate() for n in range(1, m + 1)]
    return GoodSequence.of(terms)


def element_from_good(seq):
    """Sum of the terms; rejects invalid sequences with a witness index.

    An all-zero sequence sums to its zero; one with no terms has none.
    """
    seq = seq.validated() if isinstance(seq, GoodSequence) else GoodSequence.of(seq)
    if not seq.terms:
        if seq.zero is None:
            raise StructureError("empty sequence")
        return seq.zero
    return reduce(lambda a, b: a + b, seq.terms)


def truncation_sequence(g, upto=None):
    """The list [g ^ 1, g ^ 2, ..., g ^ m] with m the stabilization bound."""
    if not g.is_nonneg():
        raise PositivityError("truncation sequences need g >= 0")
    m = upto or bound_witness(g)
    return [g.trunc_at(n) for n in range(1, m + 1)]


def truncation_sequence_check(seq):
    """(True, g) if seq is a stabilized truncation-sequence prefix, else (False, index).

    The last listed term is taken as the stable tail, so it must satisfy
    g_m ^ m = g_m, and consecutive terms must satisfy g_n = g_{n+1} ^ n.
    The reported index is 1-based and names the first failing term.
    """
    seq = list(seq)
    if not seq:
        raise StructureError("empty sequence")
    for i, t in enumerate(seq, start=1):
        if not t.is_nonneg():
            return False, i
    for i in range(len(seq) - 1):
        if seq[i] != seq[i + 1].trunc_at(i + 1):
            return False, i + 1  # the n of the failing g_n = g_{n+1} ^ n
    last = seq[-1]
    if last.trunc_at(len(seq)) != last:
        return False, len(seq)
    return True, last


def bound_witness(g):
    """Least n >= 1 with g <= n * truncate(g) (the stabilization level)."""
    if not g.is_nonneg():
        raise PositivityError("bound_witness needs g >= 0")
    return max(1, -(-max(g._nums, default=0) // g._den))


def bounded_away_from_zero(g):
    """(True, epsilon) with epsilon the clearance, or (False, None) for g = 0.

    Cross-checks that truncate(n*g) is a unital component for n = ceil(1/eps).
    """
    if not g.is_nonneg():
        raise PositivityError("bounded_away_from_zero needs g >= 0")
    if g.is_zero():
        return False, None
    eps = clearance(g)
    n = -(-eps.denominator // eps.numerator)  # least n >= 1 with n * eps >= 1
    u = g.scale(n).truncate()
    certify(is_unital_component(u), "scaled truncation must be a component", u)
    return True, eps


def yosida_quotient(space, gens):
    """Quotient identifying points on which all generators agree.

    Points where every generator vanishes merge into the basepoint.  Returns
    (quotient space, mapped generators, projection map); the mapped
    generators separate the points of the quotient.
    """
    sig = {p: tuple(g.value(p) for g in gens) for p in sorted_labels(space.points)}
    classes = {}
    for p in sorted_labels(space.points):
        classes.setdefault(sig[p], []).append(p)
    star_sig = sig[space.star]
    projection = {}
    reps = []
    for s, members in classes.items():
        rep = space.star if s == star_sig else members[0]
        reps.append(rep)
        for p in members:
            projection[p] = rep
    qspace = PointedBooleanSpace(frozenset(reps), space.star)
    mapped = [SimpleElement(qspace, {r: g.value(r) for r in qspace.nonstar})
              for g in gens]
    seen = {}
    for r in sorted_labels(qspace.points):
        sig = tuple(h.value(r) for h in mapped)
        certify(sig not in seen, "mapped generators must separate points",
                (seen.get(sig), r))
        seen[sig] = r
    return qspace, mapped, projection


def int_cut_grid(points, one):
    """cut_grid on ints: the points, the midpoints and one beyond each end.

    The points are values scaled by one = 2 * a common denominator, so they
    are even and the midpoints stay ints.
    """
    vals = sorted(set(points)) or [0]
    return sorted({*vals, *((x + y) // 2 for x, y in zip(vals, vals[1:])),
                   vals[0] - one, vals[-1] + one})


def cut_grid(values):
    """All cut points among the values, plus midpoints and one beyond each end."""
    vals = [as_fraction(v) for v in values]
    d = 2 * lcm(*(v.denominator for v in vals))
    grid = int_cut_grid((v.numerator * (d // v.denominator) for v in vals), d)
    return [Fraction(r, d) for r in grid]


def pointwise_sup(family):
    """Pointwise maximum of simple elements or frame reals, verified by cuts
    at every point of the space or frame (frame.points), the basepoint too.

    At each r of cut_grid(all finite values) the union over the family of
    the upper cuts {p : g(p) > r} must be the sup's; the first failing r is
    the witness.  An infinite value is in no cut.  It runs on int_cut_grid
    over d = 2 * lcm of the denominators.  On frame reals it is the frame
    test g(r, inf) joined = sup(r, inf), failing first at the same cut: a
    finite frame is spatial, the points of a join are the union of its
    parts', those of g(r, inf) are the p whose stored value is finite and
    > r, and every cell holds a point, so the grid is the same.
    """
    family = list(family)
    if not family:
        raise StructureError("pointwise_sup of an empty family")
    b = reduce(lambda a, c: a.join(c), family)
    d = 2 * lcm(*(g._den for g in family + [b]))
    *rows, top = [{i: n * (d // g._den) for i, n in enumerate(g._point_nums())
                   if is_finite(n)} for g in family + [b]]
    for r in int_cut_grid({v for row in rows + [top] for v in row.values()}, d):
        union = {i for row in rows for i, v in row.items() if v > r}
        if union != {i for i, v in top.items() if v > r}:
            certify(False, "pointwise sup fails the cut test", Fraction(r, d))
    return b


@record
class DiniReport:
    limit_is_zero: bool
    uniform: bool
    index_map: dict  # epsilon -> least 1-based index with max value < epsilon

    def __repr__(self):
        if not self.limit_is_zero:
            return "DiniReport(limit nonzero)"
        pairs = ", ".join(f"{e}->{m}" for e, m in sorted(self.index_map.items()))
        return f"DiniReport(uniform, {pairs})"


def dini_check(seq):
    """Monotone nonincreasing, nonnegative, eventually constant sequences of
    simple elements, tail elements or frame reals.

    When the pointwise limit (the stable tail) is zero, reports the index
    function epsilon -> m realizing the uniform criterion max(g_n) < epsilon
    for n >= m, at each epsilon > 0 of the cut grid of the terms' grid_values.
    """
    seq = list(seq)
    if not seq:
        raise StructureError("empty sequence")
    for t in seq:
        if not t.is_nonneg():
            raise PositivityError("dini_check needs nonnegative terms")
    for i in range(len(seq) - 1):
        if not (seq[i] - seq[i + 1]).is_nonneg():
            raise StructureError(f"sequence not nonincreasing at index {i + 2}")
    maxima = [t.max_value() for t in seq]
    if maxima[-1] != 0:  # a nonnegative term is zero iff its maximum is
        return DiniReport(False, False, {})
    grid = [e for e in cut_grid([0, *(v for t in seq for v in t.grid_values())]) if e > 0]
    # the terms do not increase, nor do their maxima: once below eps, all stay below
    return DiniReport(True, True, {eps: next(i for i, mx in enumerate(maxima, 1) if mx < eps)
                                   for eps in grid})


def restriction_hom(space, keep):
    """Truncation homomorphism restricting to a subspace containing the basepoint."""
    keep = frozenset(keep) | {space.star}
    sub = PointedBooleanSpace(keep, space.star)

    def theta(g):
        return SimpleElement(sub, {p: g.value(p) for p in sub.nonstar})

    return sub, theta
