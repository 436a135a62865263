"""Seeded property suites tying all modules together.

Each suite is a function (seed, cases) -> SuiteResult with exact checks.
The `_suite` decorator registers a case function under the suite's name and
owns the one case loop: it draws every case from one random.Random(seed) and
fills SUITES, whose order is the execution order of the `suite` CLI command,
and the run_all caps.  No case reads the budget, so what case i draws
depends only on the seed and i, and `trunclab suite NAME --seed S --cases
i+1` replays case i as its last case.  A failure is (case index, message),
the message holding a printable witness.  The acceptance tests drive the
same functions at their stated budgets.
"""

import random
from fractions import Fraction

from . import sampling
from .elements import (SimpleElement, bound_witness, bounded_away_from_zero,
                       clearance, clearance_decomposition, dini_check,
                       element_from_good, good_from_element, lc, normal_form,
                       normal_form_reconstruct, pointwise_sup,
                       restriction_hom, truncation_sequence,
                       truncation_sequence_check, uc)
from .equivalences import equivalence_witness
from .frames import (E0Q_MAX_FRAME, FiniteFrame, FrameReal, FrameSurjection,
                     PointedFiniteFrame, chi, drop, e0q_exhaustive, e0q_member,
                     induced_op, ray_above, ray_below, surjection_tools)
from .gba import clopen, iba_forget, idealize, map_failure, stone
from .hyper import hyperarchimedean
from .kernels import KernelSpec, kernel_closure, pointwise_closed
from .rat import POS_INF, chance
from .records import field, record
from .seqspace import (SeqTrunc, TailElement, enough_uc_check, ex1_report,
                       partial_truncations, simple_part_member,
                       sup_of_filtration_is)
from .spaces import PointedBooleanSpace


@record
class SuiteResult:
    name: str
    cases: int
    failures: list = field(default_factory=list)  # (case index, message) pairs

    @property
    def passed(self):
        return not self.failures


SUITES = {}
_SUITE_BUDGETS = {}  # run_all caps for the heavyweight suites


def _suite(name, cases, cap=None, fixed=None):
    """Register case(rng, i, fail) as the suite `name`.

    The suite takes (seed=0, cases=cases).  With cases <= 0 it runs no case
    and reports 0; else it builds random.Random(seed) once and runs cases
    i = 0, 1, ... on that stream, at most `fixed` of them for a suite of
    fixed work.  fail(message) records (i, message).  A case counts as one
    unless it returns the number of checks it stands for.
    """
    def register(case):
        def suite(seed=0, cases=cases):
            failures, ran = [], 0
            if cases > 0:
                def fail(message):
                    failures.append((i, message))
                rng = random.Random(seed)
                for i in range(cases if fixed is None else min(cases, fixed)):
                    counted = case(rng, i, fail)
                    ran += 1 if counted is None else counted
            return SuiteResult(name, ran, failures)
        suite.__name__ = suite.__qualname__ = case.__name__
        SUITES[name] = suite
        if cap is not None:
            _SUITE_BUDGETS[name] = cap
        return suite
    return register


# --- 1. truncation axioms ---------------------------------------------------

@_suite("trunc-axioms", 200)
def suite_trunc_axioms(rng, i, fail):
    """Even cases: simple elements; odd cases: tail elements."""
    if i % 2 == 0:
        sp = sampling.random_space(rng)
        g, h = (sampling.simple_element(rng, sp, nonneg=True) for _ in range(2))
        top, kind = 5, ""
    else:
        g, h = map(abs, SeqTrunc(1).sample_elements(rng, 2))
        top, kind = 4, " (tail)"
    if not (g.truncate() - g.meet(h.truncate())).is_nonneg():
        fail(f"T1 lower fails{kind}: g={g!r} h={h!r}")
    if not (g - g.truncate()).is_nonneg():
        fail(f"T1 upper fails{kind}: g={g!r}")
    if g.truncate().is_zero() and not g.is_zero():
        fail(f"T2 fails{kind}: g={g!r}")
    big_n = rng.randint(1, top)
    if not g.is_zero() and all(g.scale(n) == g.scale(n).truncate()
                               for n in range(1, big_n + 1)):
        if g.max_value() > Fraction(1, big_n):
            fail(f"bounded T3 fails{kind}: g={g!r} N={big_n}")


# --- 2. fundamental identities ----------------------------------------------

def _identity_backend(rng, i):
    """Case i's element of the shared corpus: simple, tail or frame by i % 3."""
    if i % 3 == 0:
        sp = sampling.random_space(rng)
        return "simple", sampling.simple_element(rng, sp, nonneg=True)
    if i % 3 == 1:
        trunc = SeqTrunc(rng.choice([1, 2]))
        return "tail", abs(trunc.sample_elements(rng, 1)[0])
    pf = sampling.pointed_frame(rng)
    return "frame", sampling.frame_real(rng, pf, nonneg=True)


@_suite("identities", 200)
def suite_identities(rng, i, fail):
    kind, g = _identity_backend(rng, i)
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    gn = g.trunc_at(n)
    rem = g.tminus(n)
    if gn + rem != g:
        fail(f"split identity fails [{kind}]: g={g!r} n={n}")
    if gn + rem.truncate() != g.trunc_at(n + 1):
        fail(f"step identity fails [{kind}]: g={g!r} n={n}")
    acc = None
    for k in range(1, m + 1):
        term = g.tminus(k - 1).truncate()
        acc = term if acc is None else acc + term
    if acc != g.trunc_at(m):
        fail(f"partial-sum identity fails [{kind}]: g={g!r} m={m}")
    if i < 50:  # the sup of the truncation sequence recovers g (finite scale)
        sp = sampling.random_space(rng)
        g = sampling.simple_element(rng, sp, nonneg=True)
        seq = truncation_sequence(g, upto=bound_witness(g) + 1)
        if pointwise_sup(seq) != g:
            fail(f"truncation-sequence sup fails: g={g!r}")


# --- 3. good sequences --------------------------------------------------------

@_suite("good-sequences", 200)
def suite_good_sequences(rng, i, fail):
    sp = sampling.random_space(rng)
    g = sampling.simple_element(rng, sp, nonneg=True)
    gs = good_from_element(g)
    if element_from_good(gs) != g:
        fail(f"good round trip fails: g={g!r}")
    if g.is_zero() and len(gs) != 0:
        fail("good sequence of zero is nonempty")
    seq = truncation_sequence(g)
    diffs = []
    prev = SimpleElement.zero(sp)
    for t in seq:
        diffs.append(t - prev)
        prev = t
    while diffs and diffs[-1].is_zero():
        diffs.pop()
    if tuple(diffs) != gs.terms:
        fail(f"difference/good mismatch: g={g!r}")
    ok, rec = truncation_sequence_check(seq) if seq else (True, g)
    if not ok or (seq and rec != g):
        fail(f"truncation sequence check fails: g={g!r}")


# --- 4. idealization ----------------------------------------------------------

@_suite("idealization", 40, cap=25)
def suite_idealization(rng, i, fail):
    alg = sampling.random_gba(rng)
    bi = idealize(alg)
    report = bi.validate()
    if not report.ok:
        fail(f"idealize invalid: {report.violations[:2]}")
    back = iba_forget(bi)
    if map_failure({a: a for a in alg.carrier}, alg, back) is not None:
        fail("forget(idealize(A)) differs from A on labels")


# --- 5. categorical equivalences ----------------------------------------------

@_suite("equivalences", 5, fixed=5)
def suite_equivalences(rng, i, fail):
    """Case i: the space of i + 1 points (the catalogue ends at 5 points)."""
    pts = frozenset({"*"} | {str(k) for k in range(1, i + 1)})
    x = PointedBooleanSpace(pts, "*")
    rep = equivalence_witness(x)
    if not rep.all_verified:
        fail(f"equivalence fails on {i + 1} points: {rep!r}")


# --- 6. the join-of-meets oracle ------------------------------------------------

_ALL_TAGS = ("add", "sub", "join", "meet", "scale", "truncate", "tminus", "truncN")


@_suite("induced-oracle", 100, cap=60)
def suite_induced_oracle(rng, i, fail):
    pf = sampling.pointed_frame(rng)
    f = sampling.frame_real(rng, pf)
    g = sampling.frame_real(rng, pf)
    fpos = sampling.frame_real(rng, pf, nonneg=True)
    for tag in _ALL_TAGS:
        try:
            if tag in ("add", "sub", "join", "meet"):
                induced_op(tag, [f, g])
            elif tag == "scale":
                induced_op(tag, [f], param=rng.choice(
                    [Fraction(2), Fraction(-1, 2), Fraction(3, 4)]))
            elif tag == "tminus":
                induced_op(tag, [fpos], param=rng.choice(
                    [Fraction(1, 2), Fraction(1), Fraction(2, 3)]))
            elif tag == "truncN":
                induced_op(tag, [fpos], param=rng.randint(1, 3))
            else:
                induced_op(tag, [fpos])
        except Exception as exc:  # noqa: BLE001 - report as failure
            fail(f"{tag} oracle mismatch: {exc}")


# --- 7. case formulas for truncation and truncated subtraction -------------------

@_suite("cut-cases", 200)
def suite_cut_cases(rng, i, fail):
    pf = sampling.pointed_frame(rng)
    g = sampling.frame_real(rng, pf, nonneg=True)
    r = sampling.rational(rng)
    fr = pf.frame
    gbar = g.truncate()
    want_below = fr.top if r > 1 else g.eval(ray_below(r))
    if gbar.eval(ray_below(r)) != want_below:
        fail(f"truncate lower-cut case fails at r={r}: {g!r}")
    want_above = fr.bottom if r >= 1 else g.eval(ray_above(r))
    if gbar.eval(ray_above(r)) != want_above:
        fail(f"truncate upper-cut case fails at r={r}: {g!r}")
    gm = g.tminus(1)
    want_above = fr.top if r < 0 else g.eval(ray_above(r + 1))
    if gm.eval(ray_above(r)) != want_above:
        fail(f"tminus upper-cut case fails at r={r}: {g!r}")
    want_below = fr.bottom if r <= 0 else g.eval(ray_below(r + 1))
    if gm.eval(ray_below(r)) != want_below:
        fail(f"tminus lower-cut case fails at r={r}: {g!r}")


# --- 8. normal forms and clearance ----------------------------------------------

@_suite("normal-clearance", 200)
def suite_normal_clearance(rng, i, fail):
    sp = sampling.random_space(rng)
    g = sampling.simple_element(rng, sp)
    nf = normal_form(g)
    if normal_form_reconstruct(sp, nf) != g:
        fail(f"normal form does not reconstruct: g={g!r}")
    comps = [c for _, c in nf]
    for j in range(len(comps)):
        for k in range(j + 1, len(comps)):
            if comps[j] & comps[k]:
                fail(f"normal form components overlap: g={g!r}")
    coeffs = [r for r, _ in nf]
    if len(set(coeffs)) != len(coeffs) or any(r == 0 for r in coeffs):
        fail(f"normal form coefficients invalid: g={g!r}")
    gbar = sampling.simple_element(rng, sp, truncated=True)
    if gbar.is_zero():
        return
    steps = clearance_decomposition(gbar)
    if len(steps) > len(set(gbar.values.values())):
        fail(f"clearance iteration too long: g={gbar!r}")
    if sorted(steps) != sorted((r, c) for r, c in normal_form(gbar)):
        fail(f"clearance pairs differ from normal form: g={gbar!r}")
    deltas = [d for d, _ in steps]
    if deltas != sorted(deltas) or len(set(deltas)) != len(deltas):
        fail(f"clearances not strictly increasing: g={gbar!r}")
    ok, eps = bounded_away_from_zero(gbar)
    if not ok or eps != clearance(gbar):
        fail(f"bounded-away-from-zero mismatch: g={gbar!r}")
    if bounded_away_from_zero(gbar)[0] != bounded_away_from_zero(
            gbar.truncate())[0]:
        fail(f"baf0(g) != baf0(truncate g): g={gbar!r}")


# --- 9. the omega+1 battery -------------------------------------------------------

@_suite("ex1-battery", 1, fixed=1)
def suite_ex1(rng, i, fail):
    report = ex1_report()  # certifies the 1/n witness and the kernel conditions
    g0 = TailElement.tail_unit(1)
    if not report.hyper_ok:
        fail("degree-1 trunc refuted as hyperarchimedean")
    if simple_part_member(g0):
        fail("1/n witness has finite range")
    expected = TailElement({1: Fraction(2, 3), 2: Fraction(1, 6)})
    if report.kernel3_example != expected:
        fail(f"tminus(1/3) example wrong: {report.kernel3_example!r}")
    if not report.pointwise_sup_ok:
        fail("filtration sup check failed")
    if any(h.tail for h in report.pointwise_witness):
        fail("filtration members left the kernel")
    ok, witness = enough_uc_check(SeqTrunc(1))
    if ok or witness != g0:
        fail("enough-components check did not refute with 1/n")


# --- 10. degree-2 refutation --------------------------------------------------------

@_suite("degree2-refutation", 1, fixed=1)
def suite_degree2(rng, i, fail):
    verdict = hyperarchimedean(SeqTrunc(2))
    if verdict.passed:
        fail("degree-2 trunc not refuted")
    else:
        f, g, _ = verdict.witness
        if f != TailElement.tail_unit(1) or g != TailElement.tail_unit(2):
            fail(f"witness pair is not (1/n, 1/n^2): {verdict.witness!r}")


# --- 11. Dini ------------------------------------------------------------------------

@_suite("dini", 100)
def suite_dini(rng, i, fail):
    """Even cases: simple elements; odd cases: frame reals."""
    if i % 2 == 0:
        sp = sampling.random_space(rng)
        kind, g = "element", sampling.simple_element(rng, sp, nonneg=True)
        zero, top = SimpleElement.zero(sp), None
    else:
        pf = sampling.pointed_frame(rng)
        kind, g = "frame", sampling.frame_real(rng, pf, nonneg=True)
        zero, top = FrameReal.zero(pf), pf.frame.top
    steps = rng.randint(2, 5)
    seq = [g.scale(Fraction(1, k)) for k in range(1, steps + 1)] + [zero] * 2
    rep = dini_check(seq)
    if not rep.limit_is_zero or not rep.uniform:
        fail(f"{kind} dini fails: g={g!r}")
    for eps, m in rep.index_map.items():
        if any(t.max_value() >= eps if top is None else t.eval(ray_below(eps)) != top
               for t in seq[m - 1:]):
            fail(f"{kind} dini index wrong at eps={eps}")
    if i == 0:  # the canonical omega+1 monotone sequence: tails of g0, sup 1/(n+1)
        g0 = TailElement.tail_unit(1)
        tails = [g0 - h for h in partial_truncations(g0, 6)]
        for n, t in enumerate(tails, start=1):
            if t.max_value() != Fraction(1, n + 1):
                fail(f"omega+1 tail sup wrong at n={n}")
        if not sup_of_filtration_is(g0):
            fail("omega+1 filtration sup check failed")


# --- 12. drops and lifts ---------------------------------------------------------------

def _canonical_surjection(i, fail):
    """Cases 0 and 1: the three-chain's Booleanization, then (x, y) -> (x**, y)."""
    c3, f2 = FiniteFrame.chain(3), FiniteFrame.chain(2)
    if i == 0:
        # refusal path: a D-type element violating the condition
        pc3_top = PointedFiniteFrame(c3, focus=2)
        ptwo = PointedFiniteFrame(f2, focus=1)
        qprime = FrameSurjection(pc3_top, ptwo, {0: 0, 1: 0, 2: 1})
        if qprime.dense:
            fail("collapsing surjection reported dense")
        hp = FrameReal(pc3_top, [(POS_INF, c3.top)], extended=True, pointed=False)
        refusal = drop(qprime, hp)
        if refusal.ok or refusal.condition_value != f2.bottom:
            fail(f"drop refusal wrong: {refusal!r}")
        pc3 = PointedFiniteFrame(c3, focus=1)
        booleanization = sampling.booleanization(pc3)
        if booleanization is None or not booleanization.dense:
            fail("three-chain Booleanization not dense/pointed")
        return booleanization
    prod = FiniteFrame.product(c3, f2)
    tgt = FiniteFrame.product(f2, f2)
    mapping = {(x, y): (0 if x == 0 else 1, y) for (x, y) in prod.labels}
    psrc = PointedFiniteFrame(prod, focus=(1, 0))
    ptgt = PointedFiniteFrame(tgt, focus=(1, 0))
    prod_q = FrameSurjection(psrc, ptgt, mapping)
    h = chi(ptgt, (0, 1))
    lift = e0q_member(prod_q, h)
    if not lift.ok or lift.witness.cells != ((Fraction(0), (2, 0)),
                                             (Fraction(1), (0, 1))):
        fail(f"product lift wrong: {lift!r}")
    return prod_q


@_suite("drop-e0q", 100, cap=60)
def suite_drop_e0q(rng, i, fail):
    if i < 2:
        q = _canonical_surjection(i, fail)
        if q is None:
            return
    else:  # odd cases: small frames keep the exhaustive-partition oracle in play
        pf = sampling.pointed_frame(rng, max_points=3) if i % 2 else \
            sampling.pointed_frame(rng)
        q = sampling.dense_surjection(rng, pf)
    tools = surjection_tools(q)
    if not tools["dense"]:
        fail("sampled surjection not dense")
        return
    h = sampling.frame_real(rng, q.target)
    lift = e0q_member(q, h)
    if len(q.source.frame) <= E0Q_MAX_FRAME:
        oracle = e0q_exhaustive(q, h)
        if lift.ok != oracle.ok:
            fail(f"adjoint/exhaustive disagree: {h!r}")
    if lift.ok:
        back = drop(q, FrameReal(q.source, lift.witness.cells, extended=True))
        if not back.ok or back.result != h:
            fail(f"lift does not drop back: {h!r}")


# --- 13. kernels ------------------------------------------------------------------------

@_suite("kernels", 1, fixed=1)
def suite_kernels(rng, i, fail):
    X = sampling.random_space(rng, max_points=3)
    full = lc(X)
    pts = list(X.nonstar)
    specs = [KernelSpec(full, support=frozenset(pts[:k]))
             for k in range(len(pts) + 1)]
    specs.append(KernelSpec(SeqTrunc(1), support=None, tails_allowed=(False,)))
    specs.append(KernelSpec(SeqTrunc(1), support=None, tails_allowed=(True,)))
    specs.append(KernelSpec(SeqTrunc(1), support=frozenset({1, 2, 5})))
    specs.append(KernelSpec(SeqTrunc(2), support=None,
                            tails_allowed=(False, True)))
    specs.append(KernelSpec(SeqTrunc(2), support=None,
                            tails_allowed=(True, True)))
    for spec in specs:
        pointwise_closed(spec)  # certifies agreement with the kernel conditions
        closed = kernel_closure(spec)  # certifies idempotence and the conditions
        if spec.support is None and not all(closed.tails_allowed):
            fail(f"closure did not reach the whole trunc: {spec!r}")
    return len(specs)


# --- 14. sequence-model closure -----------------------------------------------------------

_HALF, _SCALE = Fraction(1, 2), Fraction(-3, 2)  # the oracle writes p - 1/2 itself


@_suite("seq-closure", 150)
def suite_seq_closure(rng, i, fail):
    """Even cases: the degree-1 trunc; odd cases: degree 2."""
    degree = 1 + i % 2
    f, g = SeqTrunc(degree).sample_elements(rng, 2)
    fpos = abs(f)
    results = {
        "add": f + g, "sub": f - g, "negate": -f,
        "scale": f.scale(_SCALE),
        "meet": f.meet(g), "join": f.join(g),
        "truncate": fpos.truncate(),
        "tminus": fpos.tminus(_HALF),
        "truncN": fpos.trunc_at(2),
    }
    for name, res in results.items():
        if res.degree() > degree:
            fail(f"{name} left the degree-{degree} carrier")
    # ten positions past the corrections and the sign bound of f - g
    window = range(1, f.crossover(g)[1] + 11)
    # the operands' values as integer pairs, column by column; a and b over one d
    fv, pv = f._pairs(window), fpos._pairs(window)
    fg = [(a * db, b * da, da * db) for (a, da), (b, db) in zip(fv, g._pairs(window))]
    expect = {"add": [(x + y, d) for x, y, d in fg],
              "sub": [(x - y, d) for x, y, d in fg],
              "negate": [(-a, da) for a, da in fv],
              "scale": [(a * _SCALE.numerator, da * _SCALE.denominator) for a, da in fv],
              "meet": [(min(x, y), d) for x, y, d in fg],
              "join": [(max(x, y), d) for x, y, d in fg],
              "truncate": [(p, dp) if p <= dp else (1, 1) for p, dp in pv],
              "tminus": [(2 * p - dp, 2 * dp) if 2 * p > dp else (0, 1) for p, dp in pv],
              "truncN": [(p, dp) if p <= 2 * dp else (2, 1) for p, dp in pv]}

    def first_wrong(res, want):  # res evaluated on its own over the window
        return next((n for n, v, e in zip(window, res._pairs(window), want)
                     if v[0] * e[1] != e[0] * v[1]), None)

    wrong = [(n, k) for k, res in results.items()
             if (n := first_wrong(res, expect[k])) is not None]
    if wrong:  # the first n, then the first tag in results order
        n, k = min(wrong, key=lambda w: w[0])
        fail(f"{k} pointwise mismatch at n={n}")


# --- 15. convergence utilities ---------------------------------------------------------------

@_suite("convergence", 100)
def suite_convergence(rng, i, fail):
    sp = sampling.random_space(rng)
    fam = [sampling.simple_element(rng, sp) for _ in range(rng.randint(1, 4))]
    sup = pointwise_sup(fam)
    if pointwise_sup([fam[0]] * 3) != fam[0]:
        fail(f"constant-family sup differs: {fam[0]!r}")
    keep = [p for p in sp.nonstar if chance(rng, 3, 5)]
    _, theta = restriction_hom(sp, keep)
    if theta(sup) != pointwise_sup([theta(g) for g in fam]):
        fail(f"restriction does not preserve sup: {fam!r}")
    pf = sampling.pointed_frame(rng)
    g = sampling.frame_real(rng, pf)
    if pointwise_sup([g, g, g]) != g:
        fail(f"frame constant sup differs: {g!r}")


# --- 16. boolean structure ---------------------------------------------------------------------

@_suite("boolean", 40, cap=25)
def suite_boolean(rng, i, fail):
    alg = sampling.random_gba(rng)
    report = alg.validate()
    if not report.ok:
        fail(f"set-family gba invalid: {report.violations[:2]}")
        return
    elems = sorted(alg.carrier, key=lambda s: (len(s), sorted(map(str, s))))
    for a in elems[:4]:
        for b in elems[:4]:
            c = alg.diff(a, b)
            if alg.join(c, b) != alg.join(a, b) or alg.meet(c, b) != alg.bottom:
                fail(f"diff equations fail at ({a},{b})")
    sp = sampling.random_space(rng)
    x2 = stone(clopen(sp))
    if x2.points != {frozenset({p}) for p in sp.points} or x2.star != frozenset({sp.star}):
        fail(f"stone(clopen) is not the unit p -> {{p}} on {sp!r}")
    uc(lc(sp))  # uc certifies the component algebra valid


def run_all(seed=0, cases=200):
    """Run every suite; per-suite budgets cap the heavyweight ones."""
    return [fn(seed=seed, cases=min(cases, _SUITE_BUDGETS.get(name, cases)))
            for name, fn in SUITES.items()]
