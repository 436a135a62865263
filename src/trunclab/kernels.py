"""Truncation-kernel predicates over both trunc models.

A KernelSpec describes a convex subtrunc in decidable form: a support set
(membership means the support stays inside it) or, for the sequence model,
a support descriptor plus per-slot tail-allowed flags.  The three corrected
kernel conditions are evaluated with exact per-sample decisions, the
infinitary quantifiers collapsing symbolically where the model permits:

  (1) if (n|g| - h)+ is in K for all n, then g is in K
  (2) if truncate(g) is in K, then g is in K
  (3) if tminus(1/n)(g) is in K for all n, then g is in K

The staged closure iterates the three rules on descriptions to a fixpoint,
and pointwise closure is probed through structured families (truncation
sequences, good-sequence partial sums, support filtrations).
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .elements import SimpleElement, SimpleTrunc
from .errors import BudgetError, StructureError
from .seqspace import SeqTrunc, TailElement, _ceil, partial_truncations


class KernelSpec:
    """Structured description of a convex subtrunc.

    For a SimpleTrunc model: support is a set of non-basepoint labels and
    K = {g in G : supp g within support}.  For a SeqTrunc model: support is
    a finite set of positions or None for all, and tails_allowed flags each
    tail slot; a finite support forces all-zero tails, so the flags must
    then be all False.  Convexity of the description is verified (sampled,
    with deterministic canonical probes) at construction.
    """

    def __init__(self, model, support=None, tails_allowed=None, rng=None):
        self.model = model
        if isinstance(model, SimpleTrunc):
            base = set(model.space.nonstar)
            self.support = frozenset(support) if support is not None else frozenset(base)
            if not self.support <= base:
                raise StructureError("kernel support must use non-star labels")
            if tails_allowed is not None:
                raise StructureError("tail flags only apply to sequence models")
            self.tails_allowed = None
        elif isinstance(model, SeqTrunc):
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
        else:
            raise StructureError(f"a kernel model must be a trunc or a seqtrunc, "
                                 f"not {model!r}")
        self._check_convexity(rng or random.Random(0))

    def _tail_pattern_ok(self, g):
        for k, c in enumerate(g.tail):
            if c != 0 and not self.tails_allowed[k]:
                return False
        return True

    def contains(self, g):
        if isinstance(self.model, SimpleTrunc):
            ok, _ = self.model.member(g)
            return ok and g.support() <= self.support
        if g not in self.model:
            return False
        if not self._tail_pattern_ok(g):
            return False
        if self.support is not None:
            kind, data = g.support()
            return kind == "finite" and data <= self.support
        return True

    def __contains__(self, g):
        return self.contains(g)

    def _canonical_members(self):
        if isinstance(self.model, SimpleTrunc):
            return []
        out = [TailElement.tail_unit(k + 1)
               for k, allowed in enumerate(self.tails_allowed) if allowed]
        if self.support:
            out.append(TailElement.chi(self.support))
        return out

    def _sample_member(self, rng, count):
        """Nonnegative members of K built inside the description."""
        out = self._canonical_members()
        if isinstance(self.model, SimpleTrunc):
            subfamily = [s for s in self.model.components if s <= self.support]
            subtrunc = SimpleTrunc(self.model.space, subfamily)
            return out + subtrunc.sample_elements(rng, count, nonneg=True)
        for g in self.model.sample_elements(rng, count, nonneg=True):
            tail = [c if self.tails_allowed[k] else 0
                    for k, c in enumerate(g.tail)]
            h = TailElement(g.correction, tail)
            if self.support is not None:
                h = TailElement({n: h.value(n) for n in self.support})
            out.append(h)
        return out

    def _check_convexity(self, rng, cases=40):
        """f in the carrier with 0 <= f <= g in K must land in K.

        Dominated probes are meets g ^ h over a pool that always includes
        the canonical tail units, so non-convex flag patterns (a disallowed
        slot below an allowed one) are rejected deterministically.
        """
        members = self._sample_member(rng, cases)
        if isinstance(self.model, SeqTrunc):
            pool = [TailElement.tail_unit(k + 1) for k in range(self.model.degree)]
        else:
            pool = []
        pool += self.model.sample_elements(rng, cases, nonneg=True)
        for g in members:
            for h in pool[:8]:
                f = g.meet(h)
                if not self.contains(f):
                    raise StructureError(
                        f"description is not convex: 0 <= {f!r} <= {g!r} in K "
                        f"but the meet is outside K")

    def describe(self):
        if isinstance(self.model, SimpleTrunc):
            return {"kind": "support", "support": self.support}
        return {"kind": "seq", "support": self.support,
                "tails_allowed": self.tails_allowed}

    def __repr__(self):
        return f"KernelSpec({self.describe()})"

    def __eq__(self, other):
        return (isinstance(other, KernelSpec) and self.model == other.model
                and self.support == other.support
                and self.tails_allowed == other.tails_allowed)

    def __hash__(self):
        return hash((self.model, self.support, self.tails_allowed))


@dataclass
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


@dataclass
class ConditionsReport:
    cond1: ConditionVerdict
    cond2: ConditionVerdict
    cond3: ConditionVerdict

    @property
    def all_pass(self):
        return self.cond1.passed and self.cond2.passed and self.cond3.passed


def _hyp1_simple(kernel, g, h):
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
    assert pos.support() == ag.support()
    return kernel.contains(pos)


def _hyp1_seq(kernel, g, h):
    """Exact decision of the condition-(1) hypothesis on the sequence model.

    (n|g| - h)+ increases with n and K is convex, so the universal
    quantifier collapses to the stable regime: past every correction
    threshold h(k)/|g|(k) and every tail-slot ratio the sign pattern of
    n*tail(|g|) - tail(h) is constant, and membership only depends on the
    support window and the nonzero-slot pattern.
    """
    ag = abs(g)
    _, wa = ag.crossover(TailElement.zero())
    _, wh = h.crossover(TailElement.zero())
    n_star = 1
    for k in range(1, max(wa, wh) + 1):
        if ag.value(k) > 0:
            n_star = max(n_star, _ceil(h.value(k) / ag.value(k)) + 1)
    d = max(len(ag.tail), len(h.tail))
    at = list(ag.tail) + [Fraction(0)] * (d - len(ag.tail))
    ht = list(h.tail) + [Fraction(0)] * (d - len(h.tail))
    for a, b in zip(at, ht):
        if a != 0:
            n_star = max(n_star, _ceil(abs(b) / abs(a)) + 2)
    pos = (ag.scale(n_star) - h).join(TailElement.zero())
    return kernel.contains(pos)


def _cond1(kernel, budget, rng):
    model = kernel.model
    gs = model.sample_elements(rng, budget)
    gs += kernel._sample_member(rng, max(4, budget // 8))
    hs = model.sample_elements(rng, budget, nonneg=True)
    if isinstance(model, SeqTrunc):
        units = [TailElement.tail_unit(k + 1) for k in range(model.degree)]
        hs += units
        gs = units + gs
    samples = 0
    for g in gs[:budget]:
        h = hs[samples % len(hs)]
        samples += 1
        if isinstance(model, SimpleTrunc):
            hyp = _hyp1_simple(kernel, g, h)
        else:
            hyp = _hyp1_seq(kernel, g, h)
        if hyp and not kernel.contains(g):
            return ConditionVerdict(False, samples, (g, h))
    return ConditionVerdict(True, samples)


def _cond2(kernel, budget, rng):
    model = kernel.model
    gs = model.sample_elements(rng, budget, nonneg=True)
    gs += [k.scale(n) for k in kernel._sample_member(rng, max(4, budget // 8))
           for n in (2, 5)]
    samples = 0
    for g in gs[:budget]:
        samples += 1
        if kernel.contains(g.truncate()) and not kernel.contains(g):
            return ConditionVerdict(False, samples, g)
    return ConditionVerdict(True, samples)


def _cond3_hyp_simple(kernel, g):
    """tminus(1/n)(g) in K for all n: supports grow to supp g, so collapse.

    tminus(1/n)(g) increases with n, so convexity reduces the quantifier to
    the stable regime n > 1/clearance(g).
    """
    from .elements import clearance
    c = clearance(g)
    n = 1 if c == 0 else _ceil(1 / c) + 1
    return kernel.contains(g.tminus(Fraction(1, n)))


def _cond3(kernel, budget, rng):
    model = kernel.model
    if isinstance(model, SeqTrunc):
        # tminus(1/n)(g) always has zero tail and finite support inside
        # supp g, so the hypothesis holds for every g >= 0 supported in the
        # descriptor: the condition reduces to a tail-shape test, exactly.
        if kernel.support is None:
            for slot, allowed in enumerate(kernel.tails_allowed, start=1):
                if not allowed:
                    witness = TailElement.tail_unit(slot)
                    assert all(kernel.contains(witness.tminus(Fraction(1, n)))
                               for n in (1, 2, 3, 7))
                    return ConditionVerdict(False, 0, witness, exact=True)
        return ConditionVerdict(True, 0, exact=True)
    samples = 0
    gs = model.sample_elements(rng, budget, nonneg=True)
    gs += kernel._sample_member(rng, max(4, budget // 8))
    for g in gs[:budget]:
        samples += 1
        if _cond3_hyp_simple(kernel, g) and not kernel.contains(g):
            return ConditionVerdict(False, samples, g)
    return ConditionVerdict(True, samples)


def kernel_conditions(kernel, budget=200, seed=0):
    """Per-condition verdicts with witnesses; see module docstring."""
    if budget <= 0:
        raise BudgetError("kernel_conditions needs a positive budget")
    rng = random.Random(seed)
    return ConditionsReport(
        cond1=_cond1(kernel, budget, rng),
        cond2=_cond2(kernel, budget, rng),
        cond3=_cond3(kernel, budget, rng),
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
        nxt = _closure_round(current)
        if nxt == current:
            report = kernel_conditions(nxt, budget=40, seed=1)
            assert report.all_pass, f"closure output must satisfy the conditions: {report}"
            return nxt
        current = nxt
    raise BudgetError(f"closure did not stabilize in {max_rounds} rounds")


def _closure_round(kernel):
    model = kernel.model
    if isinstance(model, SimpleTrunc):
        return kernel  # rules add nothing beyond a support description
    support, flags = kernel.support, list(kernel.tails_allowed)
    if support is None and not all(flags):
        flags = [True] * len(flags)  # rule (3) adjoins all g >= 0, then span
    if flags == list(kernel.tails_allowed):
        return kernel
    return KernelSpec(model, support=support, tails_allowed=tuple(flags))


@dataclass
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
    conditions, which must agree.
    """
    if budget <= 0:
        raise BudgetError("pointwise_closed needs a positive budget")
    rng = random.Random(seed)
    model = kernel.model
    candidates = model.sample_elements(rng, budget, nonneg=True)
    if isinstance(model, SeqTrunc):
        candidates = [TailElement.tail_unit(k + 1) for k in range(model.degree)] \
            + candidates
    verdict = PointwiseVerdict(True)
    for g in candidates:
        if kernel.contains(g):
            continue
        for kind, whole_family_in_k, prefix in _structured_families(kernel, g):
            if whole_family_in_k:
                verdict = PointwiseVerdict(False, (g, prefix), kind)
                break
        if not verdict.closed:
            break
    report = kernel_conditions(kernel, budget=max(40, budget // 4), seed=seed)
    assert report.all_pass == verdict.closed, (
        "pointwise closure must agree with the kernel conditions "
        f"(conditions {report.all_pass}, pointwise {verdict.closed})")
    return verdict


def _structured_families(kernel, g):
    """(kind, whole-infinite-family-in-K, reporting prefix) per family.

    Membership of the entire family is decided exactly: on finite spaces
    the families become eventually constant at g, and on the sequence model
    every truncation g ^ n shares support and tail with g while every
    filtration chunk has finite support and zero tail, so the quantifiers
    collapse to support-descriptor tests.
    """
    model = kernel.model
    if isinstance(model, SimpleTrunc):
        from .elements import bound_witness, truncation_sequence
        seq = truncation_sequence(g, upto=bound_witness(g) + 2)
        seq_in = all(kernel.contains(t) for t in seq)
        yield ("truncation-sequence", seq_in, seq)
        yield ("good-partial-sums", seq_in, seq)
        pts = list(g.space.nonstar)
        filtration = [g.restrict_to(pts[:n]) for n in range(1, len(pts) + 1)]
        yield ("support-filtration", all(kernel.contains(t) for t in filtration),
               filtration)
        return
    seq_prefix = [g.trunc_at(n) for n in (1, 2, 3)]
    seq_in = kernel.contains(g)  # g ^ n shares support and tail with g
    assert seq_in == all(kernel.contains(t) for t in seq_prefix)
    yield ("truncation-sequence", seq_in, seq_prefix)
    yield ("good-partial-sums", seq_in, seq_prefix)
    prefix = partial_truncations(g, 6)
    if kernel.support is None:
        filt_in = True  # chunks have zero tail and finite support
        assert all(kernel.contains(h) for h in prefix)
    else:
        kind, data = g.support()
        filt_in = kind == "finite" and data <= kernel.support
    yield ("support-filtration", filt_in, prefix)
