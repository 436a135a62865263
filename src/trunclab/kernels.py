"""Truncation-kernel predicates over both trunc models.

A KernelSpec describes a convex subtrunc in decidable form, one description
class per model: a SupportKernel on a SimpleTrunc is a support set
(membership means the support stays inside it), a SeqKernel on a SeqTrunc
is a support descriptor plus per-slot tail-allowed flags.  The three
corrected kernel conditions are evaluated with exact per-sample decisions,
each class collapsing the infinitary quantifiers on its own model:

  (1) if (n|g| - h)+ is in K for all n, then g is in K
  (2) if truncate(g) is in K, then g is in K
  (3) if tminus(1/n)(g) is in K for all n, then g is in K

The staged closure iterates the three rules on descriptions to a fixpoint,
and pointwise closure is probed through structured families (truncation
sequences, good-sequence partial sums, support filtrations).

The conditions of one (description, budget, seed) are computed once per
process: the closure, the pointwise-closure cross-check and the suites all
ask for them, and every later call returns the same frozen report.
"""

import functools
import random
from fractions import Fraction
from itertools import zip_longest

from .elements import (SimpleElement, SimpleTrunc, bound_witness, clearance,
                       truncation_sequence)
from .errors import BudgetError, StructureError, certify
from .records import record
from .seqspace import SeqTrunc, TailElement, _ceil, partial_truncations


@record(frozen=True)
class ConditionVerdict:
    passed: bool
    samples: int
    witness: object = None
    exact: bool = False

    def __repr__(self):
        tag = "exact" if self.exact else f"{self.samples} samples"
        if self.passed:
            return f"pass ({tag})"
        return f"FAIL ({tag}, witness={self.witness!r})"


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
    membership, the condition-(1) hypothesis, condition (3), the closure
    round and the structured families on its model.
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

    def condition1_hypothesis(self, g, h):
        """Decide: (n|g| - h)+ in K for every n.

        The sequence (n|g| - h)+ increases with n and K is convex, so membership
        for all n is membership in the stabilized large-n regime, where the
        support equals supp g.
        """
        ag = abs(g)
        n_star = 1
        for p in ag.support():
            ratio = h.value(p) / ag.value(p)
            n_star = max(n_star, _ceil(ratio) + 1)
        pos = ag.scale(n_star) - h
        pos = pos.join(SimpleElement.zero(g.space))
        certify(pos.support() == ag.support(),
                "(n|g| - h)+ past the ratio bound must have the support of g",
                (g, h))
        return self.contains(pos)

    def condition3(self, budget, rng):
        """Sampled condition (3) with an exact hypothesis per sample.

        tminus(1/n)(g) increases with n, so convexity reduces the quantifier
        to the stable regime n > 1/clearance(g).
        """
        gs = self.model.sample_elements(rng, budget, nonneg=True)
        for samples, g in enumerate(gs, 1):
            c = clearance(g)
            n = 1 if c == 0 else _ceil(1 / c) + 1
            if self.contains(g.tminus(Fraction(1, n))) and not self.contains(g):
                return ConditionVerdict(False, samples, g)
        return ConditionVerdict(True, len(gs))

    def _closure_round(self):
        return self  # rules add nothing beyond a support description

    def _structured_families(self, g):
        """On finite spaces the families become eventually constant at g."""
        seq = truncation_sequence(g, upto=bound_witness(g) + 2)
        seq_in = all(self.contains(t) for t in seq)
        yield ("truncation-sequence", seq_in, seq)
        yield ("good-partial-sums", seq_in, seq)
        pts = list(g.space.nonstar)
        filtration = [g.restrict_to(pts[:n]) for n in range(1, len(pts) + 1)]
        yield ("support-filtration", all(self.contains(t) for t in filtration),
               filtration)


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
        if any(c != 0 and not allowed
               for c, allowed in zip(g.tail, self.tails_allowed)):
            return False
        if self.support is not None:
            kind, data = g.support()
            return kind == "finite" and data <= self.support
        return True

    def describe(self):
        return {"kind": "seq", "support": self.support,
                "tails_allowed": self.tails_allowed}

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

    def condition3(self, budget, rng):
        """Exact condition (3): a tail-shape test, no samples drawn.

        tminus(1/n)(g) always has zero tail and finite support inside supp g,
        so the hypothesis holds for every g >= 0 supported in the descriptor.
        """
        if self.support is None:
            for unit, allowed in zip(self.model.tail_units(), self.tails_allowed):
                if not allowed:
                    certify(all(self.contains(unit.tminus(Fraction(1, n)))
                                for n in (1, 2, 3, 7)),
                            "tminus(1/n) of a tail unit must lie in K", unit)
                    return ConditionVerdict(False, 0, unit, exact=True)
        return ConditionVerdict(True, 0, exact=True)

    def _closure_round(self):
        if self.support is None and not all(self.tails_allowed):
            # rule (3) adjoins all g >= 0, then span: the whole trunc
            return KernelSpec(self.model, tails_allowed=(True,) * self.model.degree)
        return self

    def _structured_families(self, g):
        """Every truncation g ^ n shares support and tail with g, and every
        filtration chunk has finite support and zero tail, so the quantifiers
        collapse to support-descriptor tests."""
        seq_prefix = [g.trunc_at(n) for n in (1, 2, 3)]
        seq_in = self.contains(g)
        certify(seq_in == all(self.contains(t) for t in seq_prefix),
                "the truncations of g must lie in K exactly when g does", g)
        yield ("truncation-sequence", seq_in, seq_prefix)
        yield ("good-partial-sums", seq_in, seq_prefix)
        prefix = partial_truncations(g, 6)
        if self.support is None:
            filt_in = True  # chunks have zero tail and finite support
            certify(all(self.contains(h) for h in prefix),
                    "support filtration terms must lie in K", g)
        else:
            kind, data = g.support()
            filt_in = kind == "finite" and data <= self.support
        yield ("support-filtration", filt_in, prefix)


def _n_star(ag, h):
    """n* of condition1_hypothesis for ag = |g|, on integer pairs: each
    ceiling of a ratio p/q, q > 0, of cross products is -(-p // q)."""
    _, wa = ag.crossover(TailElement.zero())
    _, wh = h.crossover(TailElement.zero())
    n_star = 1
    for k in range(1, max(wa, wh) + 1):
        a_num, a_den = ag._pair(k)
        if a_num > 0:
            h_num, h_den = h._pair(k)
            n_star = max(n_star, -(-h_num * a_den // (h_den * a_num)) + 1)
    (a_nums, a_den), (h_nums, h_den) = ag._ints(), h._ints()
    for a, b in zip_longest(a_nums, h_nums, fillvalue=0):
        if a:
            n_star = max(n_star, -(-abs(b) * a_den // (h_den * abs(a))) + 2)
    return n_star


_DESCRIPTIONS = {SimpleTrunc: SupportKernel, SeqTrunc: SeqKernel}


def _cond1(kernel, budget, rng):
    model = kernel.model
    units = model.tail_units()
    gs = (units + model.sample_elements(rng, budget))[:budget]
    hs = model.sample_elements(rng, budget, nonneg=True) + units
    for i, g in enumerate(gs):
        h = hs[i % len(hs)]
        if kernel.condition1_hypothesis(g, h) and not kernel.contains(g):
            return ConditionVerdict(False, i + 1, (g, h))
    return ConditionVerdict(True, len(gs))


def _cond2(kernel, budget, rng):
    gs = kernel.model.sample_elements(rng, budget, nonneg=True)
    for samples, g in enumerate(gs, 1):
        if kernel.contains(g.truncate()) and not kernel.contains(g):
            return ConditionVerdict(False, samples, g)
    return ConditionVerdict(True, len(gs))


def kernel_conditions(kernel, budget=200, seed=0):
    """Per-condition verdicts with witnesses; see module docstring."""
    if budget <= 0:
        raise BudgetError("kernel_conditions needs a positive budget")
    return _conditions(kernel, budget, seed)


@functools.lru_cache(maxsize=256)
def _conditions(kernel, budget, seed):
    rng = random.Random(seed)
    return ConditionsReport(
        cond1=_cond1(kernel, budget, rng),
        cond2=_cond2(kernel, budget, rng),
        cond3=kernel.condition3(budget, rng),
    )


def kernel_closure(kernel, max_rounds=64):
    """Least description closed under the three rules plus convex generation.

    Rules act on descriptions.  On finite spaces every support description
    is already closed.  On the sequence model over the full support,
    rule (3) adjoins every nonnegative element (tminus(1/n) always lands in
    the description), so the description becomes the whole trunc; over a
    finite support nothing new appears.  The supported models stabilize in
    a few rounds; the round bound guards against regressions.
    """
    current = kernel
    for _ in range(max_rounds):
        nxt = current._closure_round()
        if nxt == current:
            report = kernel_conditions(nxt, budget=40, seed=1)
            certify(report.all_pass,
                    "closure output must satisfy the kernel conditions", report)
            return nxt
        current = nxt
    raise BudgetError(f"closure did not stabilize in {max_rounds} rounds")


@record
class PointwiseVerdict:
    closed: bool
    witness: object = None  # (sup, family) when not closed
    family_kind: str = None

    def __repr__(self):
        if self.closed:
            return "pointwise closed"
        return f"NOT pointwise closed ({self.family_kind}, sup={self.witness[0]!r})"


def pointwise_closed(kernel, budget=200, seed=0):
    """Search structured families inside K+ whose pointwise sup escapes K.

    Families probed per candidate g: the truncation sequence of g, the
    good-sequence partial sums (the same truncations), and the support
    filtration g * chi(first n points).  Every probe has pointwise sup g,
    so a witness is exact; the verdict is cross-checked against the kernel
    conditions, which must agree.  Each description yields (kind,
    whole-infinite-family-in-K, reporting prefix) per family, deciding the
    membership of the entire family exactly.
    """
    if budget <= 0:
        raise BudgetError("pointwise_closed needs a positive budget")
    rng = random.Random(seed)
    model = kernel.model
    candidates = model.tail_units() + model.sample_elements(rng, budget, nonneg=True)
    verdict = PointwiseVerdict(True)
    for g in candidates:
        if kernel.contains(g):
            continue
        for kind, whole_family_in_k, prefix in kernel._structured_families(g):
            if whole_family_in_k:
                verdict = PointwiseVerdict(False, (g, prefix), kind)
                break
        if not verdict.closed:
            break
    report = kernel_conditions(kernel, budget=max(40, budget // 4), seed=seed)
    certify(report.all_pass == verdict.closed,
            "pointwise closure must agree with the kernel conditions",
            (report, verdict))
    return verdict
