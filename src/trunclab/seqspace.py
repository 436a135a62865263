"""The omega+1 model: rational corrections plus polynomial-in-1/n tails.

A TailElement represents a function g on {1, 2, 3, ...} with g(omega) = 0:
g(n) = correction(n) + sum_k c_k * n^(-k), with finitely many corrections and
a fixed tail-degree bound.  Degree 1 carries the hyperarchimedean-but-not-
simple example; degree 2 exists to refute hyperarchimedeanness.  All lattice
operations are computed exactly via a certified sign bound N from which
tail comparison is decided by the leading coefficient, so they visit only
the positions below N and the corrected ones.

Evaluation stays exact without building a Fraction per term: each element
keeps its tail once, as integer numerators over one common denominator in
lowest terms, so a tail value is a Horner loop over ints, a crossover sign
and bound come from those numerators, and the lattice operations compare and
subtract values as unreduced integer pairs (num, den), den > 0, making a
Fraction only for a correction they keep.  Meet, join, abs and meet_const
share one correction loop (TailElement._corrected).  A dense loop over a
window of positions (the seq-closure oracle, the support-filtration cut
test, max_value, partial_truncations and the kernels' condition-(1)
multiplier) evaluates each element once per window with
TailElement._pairs, the same pairs as one _pair call per position.  The
sampler picks its values from one module-level pool of numerators over 2
and builds each sample in canonical form, with no validating pass.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import ge, le

from .elements import Carrier
from .errors import PositivityError, StructureError, certify
from .rat import as_fraction, chance, format_rational
from .records import record

_POOL = [n * 2 // d for n in range(-3, 4) for d in (1, 2)]  # sample values, over 2


def _sign_bound(nums):
    """Eventual sign of c0 + c1/n + ... + cd/n^d, with a certified bound,
    from the numerators of the c_k over one denominator.

    Returns (sign, N): for all n >= N the expression has the given constant
    sign; sign 0 means identically zero.  The bound is
    N = max(1, ceil(sum_{k>j} |c_k| / |c_j|)) + 1 with j the first nonzero
    index, which dominates the lower-order terms rigorously.
    """
    for j, lead in enumerate(nums):
        if lead:
            rest = sum(abs(c) for c in nums[j + 1:])
            return (1 if lead > 0 else -1), max(1, -(-rest // abs(lead))) + 1
    return 0, 1


def _positions(nums, *corrections):
    """(sign, P): the eventual sign of the tail with numerators nums and, in
    increasing order, 1..N-1 below its sign bound N and the corrected
    positions from N on.  Off P no correction applies and the tail has the
    strict sign `sign`, or vanishes when sign is 0."""
    sign, bound = _sign_bound(nums)
    far = sorted({n for corr in corrections for n in corr if n >= bound})
    return sign, [*range(1, bound), *far]


def _add_correction(correction, n, num, den):
    """The pair num/den plus correction[n], if any, as a pair."""
    c = correction.get(n)
    if c is None:
        return num, den
    return num * c.denominator + c.numerator * den, den * c.denominator


def _max_pair(pairs):
    """The largest of some integer pairs (num, den), den > 0, by value."""
    best = pairs[0]
    for p in pairs[1:]:
        if p[0] * best[1] > best[0] * p[1]:
            best = p
    return best


def _difference(a, b):
    """a - b for integer pairs, as a Fraction, or None when it is zero."""
    num = a[0] * b[1] - b[0] * a[1]
    return Fraction(num, a[1] * b[1]) if num else None


class TailElement(Carrier):
    """A correction-plus-tail function on omega+1, canonically represented.

    The correction maps positions to nonzero Fractions.  Tail slot k is
    _nums[k] / _den, in lowest terms with no trailing zero slot (_den == 1
    with no tail), so equal elements have equal (correction, _nums, _den).
    """

    __slots__ = ("correction", "_nums", "_den")

    def __init__(self, correction=None, tail=()):
        corr = {}
        for n, v in (correction or {}).items():
            n = int(n)
            if n < 1:
                raise StructureError(f"correction index {n} must be >= 1")
            v = as_fraction(v)
            if v != 0:
                corr[n] = v
        tail = [as_fraction(c) for c in tail]
        while tail and tail[-1] == 0:
            tail.pop()
        den = lcm(*(c.denominator for c in tail))  # lowest terms, as each c is
        self.correction = corr
        self._nums = tuple(c.numerator * (den // c.denominator) for c in tail)
        self._den = den

    @classmethod
    def _canonical(cls, correction, nums=(), den=1):
        """An element from a correction with no zero value and a tuple of tail
        numerators over den > 0, stripped of trailing zeros and reduced."""
        while nums and not nums[-1]:
            nums = nums[:-1]
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(a // g for a in nums)
            den //= g
        e = object.__new__(cls)
        e.correction, e._nums, e._den = correction, nums, den
        return e

    @classmethod
    def chi(cls, support):
        return cls({n: 1 for n in support})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def tail_unit(cls, slot):
        """The pure tail n^(-slot); slot 1 is the 1/n example element."""
        return cls({}, [0] * (slot - 1) + [1])

    @property
    def tail(self):
        """The tail coefficients as Fractions; the operations read _nums."""
        return tuple(Fraction(a, self._den) for a in self._nums)

    def degree(self):
        return len(self._nums)

    def to_json(self):
        """The report form: the correction by index and the tail coefficients."""
        return {"correction": {str(n): format_rational(v)
                               for n, v in sorted(self.correction.items())},
                "tail": [format_rational(c) for c in self.tail]}

    def _tail_pair(self, n):
        """tail(n) as an integer pair (num, den), den > 0, not reduced.

        With c_k = a_k / den, sum_k c_k n^-(k+1) is
        (sum_k a_k n^(d-1-k)) / (den n^d), and Horner's rule gives the sum.
        """
        acc = 0
        for a in self._nums:
            acc = acc * n + a
        return acc, self._den * n ** len(self._nums)

    def _pair(self, n):
        """value(n) as an integer pair (num, den), den > 0, not reduced."""
        return _add_correction(self.correction, n, *self._tail_pair(n))

    def _pairs(self, positions):
        """[_pair(n) for n in positions], the same pairs, in one pass over a
        window: an increasing sequence of positions (a range or a list).

        The tail runs Horner's rule over ints for every position, and each
        correction finds its position by bisection, so a correction outside
        the window costs one lookup.
        """
        nums, den, d = self._nums, self._den, len(self._nums)
        out = []
        for n in positions:
            acc = 0
            for a in nums:
                acc = acc * n + a
            out.append((acc, den * n ** d))
        for n in self.correction:
            i = bisect_left(positions, n)
            if i < len(positions) and positions[i] == n:
                out[i] = _add_correction(self.correction, n, *out[i])
        return out

    def value(self, n):
        if n < 1:
            raise StructureError(f"positions start at 1, got {n}")
        return Fraction(*self._pair(n))

    def order(self):
        """Index of the first nonzero tail coefficient, or None for zero tail."""
        return next((i + 1 for i, a in enumerate(self._nums) if a), None)

    def __eq__(self, other):
        return (isinstance(other, TailElement) and self.correction == other.correction
                and self._nums == other._nums and self._den == other._den)

    def __hash__(self):
        return hash((tuple(sorted(self.correction.items())), self._nums, self._den))

    def __repr__(self):
        corr = ",".join(f"{n}:{v}" for n, v in sorted(self.correction.items()))
        return f"TailElement({{{corr}}}, tail={list(self.tail)})"

    def _tail_numerators(self, other, sign):
        """The tail of self + sign * other as (numerators, den)."""
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        pairs = zip_longest(self._nums, other._nums, fillvalue=0)
        return tuple(x * sa + y * sb for x, y in pairs), den

    def __add__(self, other):
        corr = dict(self.correction)
        for n, v in other.correction.items():
            corr[n] = corr.get(n, 0) + v
        return TailElement._canonical({n: v for n, v in corr.items() if v},
                                      *self._tail_numerators(other, 1))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TailElement._canonical({n: -v for n, v in self.correction.items()},
                                      tuple(-a for a in self._nums), self._den)

    def scale(self, q):
        q = as_fraction(q)
        if not q:
            return TailElement()
        return TailElement._canonical({n: q * v for n, v in self.correction.items()},
                                      tuple(a * q.numerator for a in self._nums),
                                      self._den * q.denominator)

    def crossover(self, other):
        """(sign, N): sign of self - other for every n >= N.

        N is past both correction supports, so beyond it only the tails
        compete and the leading-coefficient bound applies.
        """
        sign, tail_bound = _sign_bound(self._tail_numerators(other, -1)[0])
        return sign, max([*self.correction, *other.correction, 0]) + tail_bound + 1

    def _corrected(self, positions, pick):
        """This element's tail, corrected on the positions P to pick(n, v): the
        picked value at n as an integer pair, or None for v, this element's
        own value there.  The correction is then its own, else the pick minus
        the tail; the tail is evaluated once per position."""
        corr = {}
        for n in positions:
            t = self._tail_pair(n)
            p = pick(n, _add_correction(self.correction, n, *t))
            delta = self.correction.get(n) if p is None else _difference(p, t)
            if delta:
                corr[n] = delta
        return TailElement._canonical(corr, self._nums, self._den)

    def _combine(self, other, prefer):
        """Pointwise pick: self(n) where prefer(self(n), other(n)), else other(n).

        Off the positions P of the tail difference neither operand is
        corrected and self - other has its eventual sign, so the pick there
        is the same operand, the winner, at every n: self when prefer(sign,
        0).  The result keeps the winner's tail, corrected on P to the loser's
        value where prefer (<= or >=) fails on (winner(n), loser(n)).
        """
        sign, positions = _positions(self._tail_numerators(other, -1)[0],
                                     self.correction, other.correction)
        winner, loser = (self, other) if prefer(sign, 0) else (other, self)

        def pick(n, v):
            b = loser._pair(n)
            return None if prefer(v[0] * b[1], b[0] * v[1]) else b

        return winner._corrected(positions, pick)

    def meet(self, other):
        return self._combine(other, le)

    def join(self, other):
        return self._combine(other, ge)

    def is_nonneg(self):
        sign, positions = _positions(self._nums, self.correction)
        return sign >= 0 and all(self._pair(n)[0] >= 0 for n in positions)

    def is_zero(self):
        return not self.correction and not self._nums

    def __abs__(self):
        """|g| in one pass; the same element as g.join(-g).

        Off the positions P of g, g is its tail and has the tail's eventual
        sign, so |g| keeps the tail of w = g (w = -g when that sign is
        negative), corrected only on P to -w(n) where w(n) < 0.
        """
        sign, positions = _positions(self._nums, self.correction)
        w = self if sign >= 0 else -self
        return w._corrected(positions, lambda n, v: None if v[0] >= 0 else (-v[0], v[1]))

    def meet_const(self, c):
        """Pointwise min with a positive rational constant (crossover-certified)."""
        c = as_fraction(c)
        if c <= 0:
            raise PositivityError(f"meet_const needs c > 0, got {c}")
        const = (c.numerator, c.denominator)
        return self._corrected(
            self._positions_below(c),
            lambda n, v: None if v[0] * const[1] <= const[0] * v[1] else const)

    _cap = meet_const

    def _excess(self, r):
        """(value - r)+ pointwise; the result has finite support."""
        corr = {}
        for n in self._positions_below(r):
            num, den = self._pair(n)
            excess = num * r.denominator - r.numerator * den
            if excess > 0:
                corr[n] = Fraction(excess, den * r.denominator)
        return TailElement._canonical(corr)

    def _positions_below(self, c):
        """The positions P of self - c for a constant c > 0; off them self < c
        and self is its tail."""
        sign, positions = _positions([-c.numerator * self._den]
                                     + [a * c.denominator for a in self._nums],
                                     self.correction)
        certify(sign < 0, "tails vanish at infinity, so an element falls "
                "below a positive constant eventually", self)
        return positions

    def support(self):
        """("finite", positions) when the tail vanishes, else ("cofinite", zeros)."""
        if not self._nums:
            return "finite", frozenset(self.correction)
        sign, positions = _positions(self._nums, self.correction)
        certify(sign != 0, "a nonzero tail has an eventual sign", self)
        zeros = frozenset(n for n in positions if self._pair(n)[0] == 0)
        return "cofinite", zeros

    def restrict_to_cozero_of(self, g):
        """Zero this element outside the cozero set of g (forced decomposition)."""
        kind, data = g.support()
        if kind == "finite":
            return TailElement._canonical({n: v for n in data if (v := self.value(n))})
        # value(n) forced to 0 at the zeros of g, kept at the other corrections
        return self._corrected(self.correction.keys() | data,
                               lambda n, v: (0, 1) if n in data else None)

    def dominated_by(self, g):
        """Exact test of |self| <= k*g for some k, for g >= 0.

        Pointwise necessity: the cozero set of self must sit inside that of g.
        Asymptotics: a nonzero tail of self must decay at least as fast as g's,
        i.e. order(|self|) >= order(g); then the ratio is bounded and a single
        multiplier works for the finitely many remaining positions.
        """
        af = abs(self)
        if af._nums and (not g._nums or af.order() < g.order()):
            return False
        # off these positions g is its tail, nonzero past g's sign bound
        # when g has one, and |self| is its tail, which is zero when g's is
        _, positions = _positions(g._nums, g.correction, af.correction)
        return not any(af._pair(n)[0] > 0 and g._pair(n)[0] == 0
                       for n in positions)

    def max_value(self):
        """Exact supremum of a nonnegative element (attained; values tend to 0)."""
        self._require_nonneg("max_value")
        _, window = self.crossover(TailElement.zero())
        num, den = _max_pair(self._pairs(range(1, window + 1)))
        if not self._nums or num <= 0:
            return Fraction(max(num, 0), den)
        # beyond the horizon ceil(total / best), value(n) = tail(n) <= total/n
        # < best, where total = sum_k |c_k| is s / self._den
        s = sum(map(abs, self._nums))
        horizon = max(window, -(-s * den // (self._den * num)))
        return Fraction(*_max_pair([(num, den)]
                                   + self._pairs(range(window + 1, horizon + 1))))


@record(frozen=True)
class SeqTrunc:
    """Carrier descriptor: all TailElements with tail degree <= degree."""

    degree: int = 1

    def __post_init__(self):
        if self.degree < 0:
            raise StructureError("degree must be >= 0")

    def __contains__(self, g):
        return isinstance(g, TailElement) and g.degree() <= self.degree

    def tail_units(self):
        """The pure tails n^(-1), ..., n^(-degree), slot by slot."""
        return [TailElement.tail_unit(k + 1) for k in range(self.degree)]

    def sample_elements(self, rng, count):
        """Seeded members: values from _POOL, corrections at 1..8."""
        out = []
        for _ in range(count):
            corr = {}
            for _ in range(rng.randint(0, 3)):
                corr[rng.randint(1, 8)] = _POOL[rng.randrange(len(_POOL))]
            tail = tuple(_POOL[rng.randrange(len(_POOL))] if chance(rng, 7, 10) else 0
                         for _ in range(self.degree))
            g = TailElement._canonical({n: Fraction(v, 2) for n, v in corr.items() if v},
                                       tail, 2)
            out.append(g)
        return out


def baf_infinity(g):
    """Bounded away from infinity: vanishes on a neighborhood of omega.

    True iff the tail is identically zero (finite support); then the witness
    h = 2 * chi(supp g) satisfies truncate(g) <= tminus(1)(h).
    """
    if not g.is_nonneg():
        raise PositivityError("baf_infinity needs g >= 0")
    if g._nums:
        return False, None
    kind, supp = g.support()
    certify(kind == "finite", "a zero tail has finite support", g)
    h = TailElement.chi(supp).scale(2)
    gap = h.tminus(1) - g.truncate()
    certify(gap.is_nonneg(), "tminus(1)(2 chi(supp g)) must dominate truncate(g)",
            gap)
    return True, h


def simple_part_member(g):
    """Finite range is equivalent to a vanishing tail."""
    return not g._nums


def bounded_away_from_zero_tail(g):
    """(True, eps) when the positive values admit a positive lower bound.

    A nonzero tail forces values arbitrarily close to zero, so the answer
    is False exactly when the tail is nonzero or g = 0.
    """
    if not g.is_nonneg():
        raise PositivityError("bounded_away_from_zero needs g >= 0")
    if g.is_zero() or g._nums:
        return False, None
    eps = min(v for v in g.correction.values())
    return True, eps


def clearance_chain(g, length):
    """The first positive values of g along increasing positions."""
    out = []
    n = 1
    limit = 10 * length + max(g.correction, default=0)
    while len(out) < length and n <= limit:
        v = g.value(n)
        if v > 0:
            out.append(v)
        n += 1
    return out


def enough_uc_check(trunc):
    """Does every g >= 0 have a unital component above truncate(g)?  (True,
    None) or (False, witness), decided from the degree.

    Unital components here are characteristic functions of finite sets, so
    truncate(g) <= u forces a finite cozero set.  On degree 0 every g >= 0
    has finite support, and truncate(g) <= chi(supp g).  On degree >= 1 the
    1/n element has cozero set all of N and refutes.
    """
    if trunc.degree == 0:
        return True, None
    return False, trunc.tail_units()[0]


def partial_truncations(g, count):
    """The support filtration g * chi({1..n}) for n = 1..count."""
    values = {k: Fraction(num, den)
              for k, (num, den) in enumerate(g._pairs(range(1, count + 1)), 1) if num}
    return [TailElement._canonical({k: v for k, v in values.items() if k <= n})
            for n in range(1, count + 1)]


def sup_of_filtration_is(g):
    """Decide the cut criterion: union_n h_n(r, inf) = g(r, inf) for every r.

    h_n = g * chi({1..n}).  On the probe window 1..horizon, with finitely
    many terms, the union of the upper cuts equals g's upper cut at every r
    exactly when the pointwise max of the terms equals g; the point omega
    sits in neither side for r >= 0 and in both for r < 0.  So at every
    position k the largest h_n(k), over every term, must be g(k).
    """
    if not g.is_nonneg():
        raise PositivityError("filtration suprema need g >= 0")
    _, bound = g.crossover(TailElement.zero())
    horizon = bound + 10
    window = range(1, horizon + 1)
    terms = [h._pairs(window) for h in partial_truncations(g, horizon)]
    # column k holds h_n(k) for every n, and max_n h_n(k) = g(k) iff the
    # largest excess, which has the sign of h_n(k) - g(k), is 0; with no
    # terms the union is empty and misses g(r, inf) for r < 0
    return bool(terms) and all(
        max(p * den - num * q for p, q in column) == 0
        for (num, den), column in zip(g._pairs(window), zip(*terms)))


@record
class Ex1Report:
    """The five-part counterexample battery on the degree-1 trunc."""

    hyper_ok: bool
    clearance_values: list
    kernel3_example: TailElement  # g0 tminus 1/3, concretely
    pointwise_witness: list
    pointwise_sup_ok: bool


def ex1_report():
    """Run the full battery on the degree-1 trunc; see Ex1Report fields.

    It raises unless 1/n is not bounded away from zero, conditions (1) and
    (2) hold and condition (3) fails at 1/n, so those are not fields.
    """
    from .hyper import hyperarchimedean
    from .kernels import KernelSpec, pointwise_closed

    trunc = SeqTrunc(degree=1)
    hyper = hyperarchimedean(trunc)
    g0 = TailElement.tail_unit(1)
    baf, _ = bounded_away_from_zero_tail(g0)
    certify(not baf, "the 1/n element must not be bounded away from zero", g0)
    chain = clearance_chain(g0, 6)
    kernel = KernelSpec(trunc, support=None, tails_allowed=(False,))
    verdict = pointwise_closed(kernel)
    conds = verdict.conditions
    certify(conds.cond1.passed and conds.cond2.passed,
            "kernel conditions (1) and (2) must hold", conds)
    certify(not conds.cond3.passed and conds.cond3.witness == g0,
            "kernel condition (3) must fail at the 1/n element", conds.cond3)
    certify(not verdict.closed and verdict.witness[0] == g0,
            "the tail-zero kernel must not be pointwise closed at 1/n", verdict)
    return Ex1Report(
        hyper_ok=hyper.passed,
        clearance_values=chain,
        kernel3_example=g0.tminus(Fraction(1, 3)),
        pointwise_witness=verdict.witness[1],
        pointwise_sup_ok=sup_of_filtration_is(g0),
    )
