"""Truncation-kernel predicates over both trunc models.

A KernelSpec describes a convex subtrunc in decidable form, one description
class per model: a SupportKernel on a SimpleTrunc is a support set
(membership means the support stays inside it), a SeqKernel on a SeqTrunc
is a support descriptor plus per-slot tail-allowed flags.  The three
corrected kernel conditions, for g and h in the model and g >= 0 in (2)
and (3),

  (1) if (n|g| - h)+ is in K for all n, then g is in K
  (2) if truncate(g) is in K, then g is in K
  (3) if tminus(1/n)(g) is in K for all n, then g is in K

are decided exactly from the description, no element sampled: each rule
is proved in the docstring of the method that applies it, and a failing
verdict carries a witness that is certified against the description.

The closure applies the three rules to a description in one round, and
pointwise closure is decided from the description too: pointwise_escape
names a family inside K whose pointwise sup leaves K, or proves that none
exists.
"""

from fractions import Fraction
from itertools import zip_longest

from .elements import SimpleTrunc
from .errors import StructureError, certify
from .records import record
from .seqspace import SeqTrunc, TailElement, partial_truncations


@record(frozen=True)
class ConditionVerdict:
    passed: bool
    witness: object = None

    def __repr__(self):
        if self.passed:
            return "pass (exact)"
        return f"FAIL (exact, witness={self.witness!r})"


_EXACT_PASS = ConditionVerdict(True)


@record(frozen=True)
class ConditionsReport:
    cond1: ConditionVerdict
    cond2: ConditionVerdict
    cond3: ConditionVerdict

    @property
    def all_pass(self):
        return self.cond1.passed and self.cond2.passed and self.cond3.passed


class KernelSpec:
    """Structured description of a convex subtrunc.

    KernelSpec(model, support=..., tails_allowed=...) builds the description
    class that _DESCRIPTIONS assigns to the model's type.  Each class owns
    membership, conditions (1) and (3), the closure round and the pointwise
    escape on its model; condition (2) is decided here.
    Convexity of the description is decided exactly at construction.
    """

    def __new__(cls, model, support=None, tails_allowed=None):
        if cls is KernelSpec:
            cls = _DESCRIPTIONS.get(type(model))
            if cls is None:
                raise StructureError(f"a kernel model must be a trunc or a seqtrunc, "
                                     f"not {model!r}")
        return super().__new__(cls)

    def _check_convexity(self):
        """f in the carrier with 0 <= f <= g in K must land in K.

        Decided exactly.  A support description is always convex: supp f
        lies within supp g.  A tail description is convex iff no disallowed
        slot comes after an allowed one: for an allowed slot i and a
        disallowed slot j > i, min(n^-i, n^-j) = n^-j escapes K; conversely
        0 <= f <= g puts every tail slot of f at or after the leading slot
        of g, and a g with no tail forces an f with no tail.
        """
        flags = self.tails_allowed or ()
        if True in flags and False in flags[flags.index(True):]:
            i = flags.index(True)
            units = self.model.tail_units()
            g, f = units[i], units[flags.index(False, i)]
            raise StructureError(
                f"description is not convex: 0 <= {f!r} <= {g!r} in K "
                f"but the meet is outside K")

    def condition2(self):
        """Exact condition (2): it always holds, on both description classes.

        For g >= 0, truncate(g) = g ^ 1 is positive exactly where g is.  On
        the sequence model g -> 0 at omega, so g ^ 1 = g from some position
        on and the two share their tail.  Membership in a description depends
        only on the support and the tail, so truncate(g) is in K exactly when
        g is.
        """
        return _EXACT_PASS

    def __contains__(self, g):
        return self.contains(g)

    def __repr__(self):
        return f"KernelSpec({self.describe()})"

    def __eq__(self, other):
        return (isinstance(other, KernelSpec) and self.model == other.model
                and self.support == other.support
                and self.tails_allowed == other.tails_allowed)

    def __hash__(self):
        return hash((self.model, self.support, self.tails_allowed))


class SupportKernel(KernelSpec):
    """K = {g in G : supp g within support} on a SimpleTrunc.

    support is a set of non-basepoint labels, all of them by default.
    """

    def __init__(self, model, support=None, tails_allowed=None):
        base = set(model.space.nonstar)
        self.model = model
        self.support = frozenset(support) if support is not None else frozenset(base)
        if not self.support <= base:
            raise StructureError("kernel support must use non-star labels")
        if tails_allowed is not None:
            raise StructureError("tail flags only apply to sequence models")
        self.tails_allowed = None
        self._check_convexity()

    def contains(self, g):
        ok, _ = self.model.member(g)
        return ok and g.support() <= self.support

    def describe(self):
        return {"kind": "support", "support": self.support}

    def condition1(self):
        """Exact condition (1): it always holds.  For n > h(p)/|g|(p) at
        every p of supp g, (n|g| - h)+ is positive on all of supp g, so the
        hypothesis at that n puts supp g inside the support: g lies in K."""
        return _EXACT_PASS

    def condition3(self):
        """Exact condition (3): it always holds.  Once 1/n is below every
        positive value of g, tminus(1/n)(g) = (g - 1/n)+ has the support of
        g, so the hypothesis at that n puts g in K."""
        return _EXACT_PASS

    def _closure_round(self):
        return self  # rules add nothing beyond a support description

    def pointwise_escape(self):
        """No family in K has a pointwise sup outside K.

        The sup is positive at a point only where some member is, so its
        support lies in the union of the members' supports, inside the
        support of K.
        """
        return None


class SeqKernel(KernelSpec):
    """A support descriptor plus per-slot tail flags on a SeqTrunc.

    support is a finite set of positions or None for all, and tails_allowed
    flags each tail slot (all False by default); a finite support forces
    all-zero tails, so the flags must then be all False.
    """

    def __init__(self, model, support=None, tails_allowed=None):
        self.model = model
        self.support = (frozenset(int(n) for n in support)
                        if support is not None else None)
        if tails_allowed is None:
            tails_allowed = (False,) * model.degree
        self.tails_allowed = tuple(bool(b) for b in tails_allowed)
        if len(self.tails_allowed) != model.degree:
            raise StructureError(
                f"need {model.degree} tail flags, got {len(self.tails_allowed)}")
        if self.support is not None and any(self.tails_allowed):
            raise StructureError("finite support forces all-zero tails")
        self._check_convexity()

    def contains(self, g):
        if g not in self.model:
            return False
        if any(a and not allowed for a, allowed in zip(g._nums, self.tails_allowed)):
            return False
        if self.support is not None:
            kind, data = g.support()
            return kind == "finite" and data <= self.support
        return True

    def describe(self):
        return {"kind": "seq", "support": self.support,
                "tails_allowed": self.tails_allowed}

    def condition1(self):
        """Exact condition (1): it fails only on support all with tail slots
        1 and 2 both disallowed, witnessed by (g, h) = (n^-2, n^-1).

        By convexity the disallowed slots are the first ones.
        - Finite support S: once n|g|(k) > h(k), k is in the support of
          (n|g| - h)+, so the hypothesis puts supp g inside S; then g has
          zero tail and lies in K.
        - Support all, slot 2 allowed or absent: a g outside K has a nonzero,
          disallowed slot 1.  Slot 1 of n|g| - h is n|g_1| - h_1 > 0 for
          large n, so (n|g| - h)+ keeps it: the hypothesis fails.
        - Support all, slots 1 and 2 disallowed: g = n^-2 is outside K, and
          at position k, n*g - h = (n - k)/k^2 < 0 for k > n, so every
          (n*g - h)+ has finite support and zero tail and lies in K.
        """
        flags = self.tails_allowed
        if self.support is not None or len(flags) < 2 or flags[1]:
            return _EXACT_PASS
        h, g = self.model.tail_units()[:2]
        certify(self.condition1_hypothesis(g, h) and not self.contains(g),
                "n^-2 must meet the condition-(1) hypothesis outside K", (g, h))
        return ConditionVerdict(False, (g, h))

    def condition1_hypothesis(self, g, h):
        """Exact decision of the condition-(1) hypothesis on the sequence model.

        (n|g| - h)+ increases with n and K is convex, so the universal
        quantifier collapses to the stable regime: past every correction
        threshold h(k)/|g|(k) and every tail-slot ratio the sign pattern of
        n*tail(|g|) - tail(h) is constant, and membership only depends on the
        support window and the nonzero-slot pattern.
        """
        ag = abs(g)
        pos = (ag.scale(_n_star(ag, h)) - h).join(TailElement.zero())
        return self.contains(pos)

    def condition3(self):
        """Exact condition (3): a tail-shape test, no samples drawn.

        tminus(1/n)(g) always has zero tail and finite support inside supp g,
        so the hypothesis holds for every g >= 0 supported in the descriptor.
        It fails only on support all with slot 1 (by convexity) disallowed.
        """
        if self.support is not None or all(self.tails_allowed):
            return _EXACT_PASS
        unit = self.model.tail_units()[0]
        certify(all(self.contains(unit.tminus(Fraction(1, n))) for n in (1, 2, 3, 7)),
                "tminus(1/n) of a tail unit must lie in K", unit)
        return ConditionVerdict(False, unit)

    def _closure_round(self):
        if self.support is None and not all(self.tails_allowed):
            # rule (3) adjoins all g >= 0, then span: the whole trunc
            return KernelSpec(self.model, tails_allowed=(True,) * self.model.degree)
        return self

    def pointwise_escape(self):
        """The support filtration of n^-1 when K is neither finitely
        supported nor the whole trunc, else None.

        - Finite support S: every member vanishes off S, so the sup does
          too; a finitely supported element has zero tail and lies in K.
        - Support all, every slot allowed: K is the whole trunc.
        - Otherwise some slot is disallowed, so slot 1 is, by convexity.
          The chunks n^-1 * chi({1..m}) have finite support and zero tail,
          so they lie in K, and their pointwise sup n^-1 does not.
        """
        if self.support is not None or all(self.tails_allowed):
            return None
        g = self.model.tail_units()[0]
        return ("support-filtration", g, partial_truncations(g, 6))


def _n_star(ag, h):
    """n* of condition1_hypothesis for ag = |g|, on integer pairs: each
    ceiling of a ratio p/q, q > 0, of cross products is -(-p // q)."""
    _, wa = ag.crossover(TailElement.zero())
    _, wh = h.crossover(TailElement.zero())
    n_star = 1
    window = range(1, max(wa, wh) + 1)
    for (a_num, a_den), (h_num, h_den) in zip(ag._pairs(window), h._pairs(window)):
        if a_num > 0:
            n_star = max(n_star, -(-h_num * a_den // (h_den * a_num)) + 1)
    for a, b in zip_longest(ag._nums, h._nums, fillvalue=0):
        if a:
            n_star = max(n_star, -(-abs(b) * ag._den // (h._den * abs(a))) + 2)
    return n_star


_DESCRIPTIONS = {SimpleTrunc: SupportKernel, SeqTrunc: SeqKernel}


def kernel_conditions(kernel):
    """Per-condition exact verdicts with witnesses; see module docstring."""
    return ConditionsReport(cond1=kernel.condition1(), cond2=kernel.condition2(),
                            cond3=kernel.condition3())


def kernel_closure(kernel):
    """Least description closed under the three rules plus convex generation.

    Rules act on descriptions, and one round reaches the closure.  On finite
    spaces every support description is already closed.  On the sequence
    model over the full support, rule (3) adjoins every nonnegative element
    (tminus(1/n) always lands in the description), so the description
    becomes the whole trunc; over a finite support nothing new appears.
    """
    closed = kernel._closure_round()
    certify(closed._closure_round() == closed, "closure must be idempotent", closed)
    report = kernel_conditions(closed)
    certify(report.all_pass, "closure output must satisfy the kernel conditions", report)
    return closed


@record
class PointwiseVerdict:
    closed: bool
    witness: object = None  # (sup, family) when not closed
    family_kind: str = None
    conditions: ConditionsReport = None  # what the verdict was certified against

    def __repr__(self):
        if self.closed:
            return "pointwise closed"
        return f"NOT pointwise closed ({self.family_kind}, sup={self.witness[0]!r})"


def pointwise_closed(kernel):
    """Decide exactly whether some family in K has a pointwise sup outside K.

    An escaping family is certified to lie in K with its sup outside K, and
    the verdict to agree with the kernel conditions (the paper's
    characterization of pointwise closure).
    """
    escape = kernel.pointwise_escape()
    report = kernel_conditions(kernel)
    verdict = PointwiseVerdict(True, conditions=report)
    if escape is not None:
        kind, sup, family = escape
        certify(all(kernel.contains(h) for h in family) and not kernel.contains(sup),
                "the escaping family must lie in K and its sup outside K", escape)
        verdict = PointwiseVerdict(False, (sup, family), kind, report)
    certify(report.all_pass == verdict.closed,
            "pointwise closure must agree with the kernel conditions",
            (report, verdict))
    return verdict
