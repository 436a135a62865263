"""Seeded property suites tying all modules together.

Each suite is a function (seed, cases) -> SuiteResult with exact checks;
failures carry printable witnesses.  The `_suite` decorator registers a
suite body under its name: it owns the seeded rng, the failure list and the
result, and fills SUITES, whose order is the execution order of the `suite`
CLI command, and the run_all caps.  The acceptance tests drive the same
functions at their stated budgets.
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
from .frames import (FiniteFrame, FrameReal, FrameSurjection, PointedFiniteFrame,
                     chi, drop, e0q_exhaustive, e0q_member, induced_op,
                     ray_above, ray_below, surjection_tools)
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
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures


SUITES = {}
_SUITE_BUDGETS = {}  # run_all caps for the heavyweight suites


def _suite(name, cases, cap=None):
    """Register body(rng, cases, failures) as the suite `name`.

    The suite takes (seed=0, cases=cases).  With cases <= 0 it runs no body
    and reports 0; else it hands the body random.Random(seed) and a failure
    list, and counts the cases as the budget unless the body returns the
    number it ran.
    """
    def register(body):
        def suite(seed=0, cases=cases):
            failures = []
            ran = 0 if cases <= 0 else body(random.Random(seed), cases, failures)
            return SuiteResult(name, cases if ran is None else ran, failures)
        suite.__name__ = suite.__qualname__ = body.__name__
        SUITES[name] = suite
        if cap is not None:
            _SUITE_BUDGETS[name] = cap
        return suite
    return register


# --- 1. truncation axioms ---------------------------------------------------

@_suite("trunc-axioms", 200)
def suite_trunc_axioms(rng, cases, failures):
    trunc1 = SeqTrunc(1)

    def simple_pair():
        sp = sampling.random_space(rng)
        return (sampling.simple_element(rng, sp, nonneg=True),
                sampling.simple_element(rng, sp, nonneg=True), 5, "")

    def tail_pair():
        return (abs(trunc1.sample_elements(rng, 1)[0]),
                abs(trunc1.sample_elements(rng, 1)[0]), 4, " (tail)")

    for draw in [simple_pair] * (cases // 2) + [tail_pair] * (cases - cases // 2):
        g, h, top, kind = draw()
        if not (g.truncate() - g.meet(h.truncate())).is_nonneg():
            failures.append(f"T1 lower fails{kind}: g={g!r} h={h!r}")
        if not (g - g.truncate()).is_nonneg():
            failures.append(f"T1 upper fails{kind}: g={g!r}")
        if g.truncate().is_zero() and not g.is_zero():
            failures.append(f"T2 fails{kind}: g={g!r}")
        big_n = rng.randint(1, top)
        if not g.is_zero() and all(g.scale(n) == g.scale(n).truncate()
                                   for n in range(1, big_n + 1)):
            if g.max_value() > Fraction(1, big_n):
                failures.append(f"bounded T3 fails{kind}: g={g!r} N={big_n}")


# --- 2. fundamental identities ----------------------------------------------

def _identity_backends(rng):
    """(g, n, m, ops) triples across the three models for the shared corpus."""
    out = []
    sp = sampling.random_space(rng)
    out.append(("simple", sampling.simple_element(rng, sp, nonneg=True)))
    trunc1 = SeqTrunc(rng.choice([1, 2]))
    out.append(("tail", abs(trunc1.sample_elements(rng, 1)[0])))
    pf = sampling.pointed_frame(rng)
    out.append(("frame", sampling.frame_real(rng, pf, nonneg=True)))
    return out


@_suite("identities", 200)
def suite_identities(rng, cases, failures):
    for i in range(cases):
        if i % 3 == 0:
            backends = _identity_backends(rng)
        kind, g = backends[i % 3]
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        gn = g.trunc_at(n)
        rem = g.tminus(n)
        if gn + rem != g:
            failures.append(f"split identity fails [{kind}]: g={g!r} n={n}")
        if gn + rem.truncate() != g.trunc_at(n + 1):
            failures.append(f"step identity fails [{kind}]: g={g!r} n={n}")
        acc = None
        for k in range(1, m + 1):
            term = g.tminus(k - 1).truncate()
            acc = term if acc is None else acc + term
        if acc != g.trunc_at(m):
            failures.append(f"partial-sum identity fails [{kind}]: g={g!r} m={m}")
    # the sup of the truncation sequence recovers g (finite scale)
    for _ in range(min(50, cases)):
        sp = sampling.random_space(rng)
        g = sampling.simple_element(rng, sp, nonneg=True)
        seq = truncation_sequence(g, upto=bound_witness(g) + 1)
        if pointwise_sup(seq) != g:
            failures.append(f"truncation-sequence sup fails: g={g!r}")


# --- 3. good sequences --------------------------------------------------------

@_suite("good-sequences", 200)
def suite_good_sequences(rng, cases, failures):
    for _ in range(cases):
        sp = sampling.random_space(rng)
        g = sampling.simple_element(rng, sp, nonneg=True)
        gs = good_from_element(g)
        if not g.is_zero() and element_from_good(gs) != g:
            failures.append(f"good round trip fails: g={g!r}")
        if g.is_zero() and len(gs) != 0:
            failures.append("good sequence of zero is nonempty")
        seq = truncation_sequence(g)
        diffs = []
        prev = SimpleElement.zero(sp)
        for t in seq:
            diffs.append(t - prev)
            prev = t
        while diffs and diffs[-1].is_zero():
            diffs.pop()
        if tuple(diffs) != gs.terms:
            failures.append(f"difference/good mismatch: g={g!r}")
        ok, rec = truncation_sequence_check(seq) if seq else (True, g)
        if not ok or (seq and rec != g):
            failures.append(f"truncation sequence check fails: g={g!r}")


# --- 4. idealization ----------------------------------------------------------

@_suite("idealization", 40, cap=25)
def suite_idealization(rng, cases, failures):
    ran = 0
    while ran < cases:
        alg = sampling.random_gba(rng)
        if len(alg) > 16:
            continue
        ran += 1
        bi = idealize(alg)
        report = bi.validate()
        if not report.ok:
            failures.append(f"idealize invalid: {report.violations[:2]}")
        back = iba_forget(bi)
        if map_failure({a: a for a in alg.carrier}, alg, back) is not None:
            failures.append("forget(idealize(A)) differs from A on labels")


# --- 5. categorical equivalences ----------------------------------------------

@_suite("equivalences", 5)
def suite_equivalences(rng, cases, failures):
    sizes = range(min(cases, 5))  # spaces of at most 5 points
    for n in sizes:
        pts = frozenset({"*"} | {str(i) for i in range(1, n + 1)})
        x = PointedBooleanSpace(pts, "*")
        rep = equivalence_witness(x)
        if not rep.all_verified:
            failures.append(f"equivalence fails on {n + 1} points: {rep!r}")
        bi = clopen(x)
        if stone(bi).star != frozenset({"*"}):
            failures.append(f"stone star wrong on {n + 1} points")
    return len(sizes)


# --- 6. the join-of-meets oracle ------------------------------------------------

_ALL_TAGS = ("add", "sub", "join", "meet", "scale", "truncate", "tminus", "truncN")


@_suite("induced-oracle", 100, cap=60)
def suite_induced_oracle(rng, cases, failures):
    for _ in range(cases):
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
                failures.append(f"{tag} oracle mismatch: {exc}")


# --- 7. case formulas for truncation and truncated subtraction -------------------

@_suite("cut-cases", 200)
def suite_cut_cases(rng, cases, failures):
    for _ in range(cases):
        pf = sampling.pointed_frame(rng)
        g = sampling.frame_real(rng, pf, nonneg=True)
        r = sampling.rational(rng)
        fr = pf.frame
        gbar = g.truncate()
        want_below = fr.top if r > 1 else g.eval(ray_below(r))
        if gbar.eval(ray_below(r)) != want_below:
            failures.append(f"truncate lower-cut case fails at r={r}: {g!r}")
        want_above = fr.bottom if r >= 1 else g.eval(ray_above(r))
        if gbar.eval(ray_above(r)) != want_above:
            failures.append(f"truncate upper-cut case fails at r={r}: {g!r}")
        gm = g.tminus(1)
        want_above = fr.top if r < 0 else g.eval(ray_above(r + 1))
        if gm.eval(ray_above(r)) != want_above:
            failures.append(f"tminus upper-cut case fails at r={r}: {g!r}")
        want_below = fr.bottom if r <= 0 else g.eval(ray_below(r + 1))
        if gm.eval(ray_below(r)) != want_below:
            failures.append(f"tminus lower-cut case fails at r={r}: {g!r}")


# --- 8. normal forms and clearance ----------------------------------------------

@_suite("normal-clearance", 200)
def suite_normal_clearance(rng, cases, failures):
    for _ in range(cases):
        sp = sampling.random_space(rng)
        g = sampling.simple_element(rng, sp)
        nf = normal_form(g)
        if normal_form_reconstruct(sp, nf) != g:
            failures.append(f"normal form does not reconstruct: g={g!r}")
        comps = [c for _, c in nf]
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                if comps[i] & comps[j]:
                    failures.append(f"normal form components overlap: g={g!r}")
        coeffs = [r for r, _ in nf]
        if len(set(coeffs)) != len(coeffs) or any(r == 0 for r in coeffs):
            failures.append(f"normal form coefficients invalid: g={g!r}")
        gbar = sampling.simple_element(rng, sp, truncated=True)
        if gbar.is_zero():
            continue
        steps = clearance_decomposition(gbar)
        if len(steps) > len(set(gbar.values.values())):
            failures.append(f"clearance iteration too long: g={gbar!r}")
        if sorted(steps) != sorted((r, c) for r, c in normal_form(gbar)):
            failures.append(f"clearance pairs differ from normal form: g={gbar!r}")
        deltas = [d for d, _ in steps]
        if deltas != sorted(deltas) or len(set(deltas)) != len(deltas):
            failures.append(f"clearances not strictly increasing: g={gbar!r}")
        ok, eps = bounded_away_from_zero(gbar)
        if not ok or eps != clearance(gbar):
            failures.append(f"bounded-away-from-zero mismatch: g={gbar!r}")
        if bounded_away_from_zero(gbar)[0] != bounded_away_from_zero(
                gbar.truncate())[0]:
            failures.append(f"baf0(g) != baf0(truncate g): g={gbar!r}")


# --- 9. the omega+1 battery -------------------------------------------------------

@_suite("ex1-battery", 500)
def suite_ex1(rng, cases, failures):
    report = ex1_report()  # certifies the 1/n witness and the kernel conditions
    g0 = TailElement.tail_unit(1)
    if not report.hyper_ok:
        failures.append("degree-1 trunc refuted as hyperarchimedean")
    if simple_part_member(g0):
        failures.append("1/n witness has finite range")
    expected = TailElement({1: Fraction(2, 3), 2: Fraction(1, 6)})
    if report.kernel3_example != expected:
        failures.append(f"tminus(1/3) example wrong: {report.kernel3_example!r}")
    if not report.pointwise_sup_ok:
        failures.append("filtration sup check failed")
    if any(h.tail for h in report.pointwise_witness):
        failures.append("filtration members left the kernel")
    ok, witness = enough_uc_check(SeqTrunc(1))
    if ok or witness != g0:
        failures.append("enough-components check did not refute with 1/n")
    return 1


# --- 10. degree-2 refutation --------------------------------------------------------

@_suite("degree2-refutation", 1)
def suite_degree2(rng, cases, failures):
    verdict = hyperarchimedean(SeqTrunc(2))
    if verdict.passed:
        failures.append("degree-2 trunc not refuted")
    else:
        f, g, _ = verdict.witness
        if f != TailElement.tail_unit(1) or g != TailElement.tail_unit(2):
            failures.append(f"witness pair is not (1/n, 1/n^2): {verdict.witness!r}")
    return 1


# --- 11. Dini ------------------------------------------------------------------------

@_suite("dini", 100)
def suite_dini(rng, cases, failures):
    for _ in range(cases // 2):
        sp = sampling.random_space(rng)
        g = sampling.simple_element(rng, sp, nonneg=True)
        steps = rng.randint(2, 5)
        seq = [g.scale(Fraction(1, k)) for k in range(1, steps + 1)]
        seq += [SimpleElement.zero(sp)] * 2
        rep = dini_check(seq)
        if not rep.limit_is_zero or not rep.uniform:
            failures.append(f"element dini fails: g={g!r}")
        for eps, m in rep.index_map.items():
            if any(t.max_value() >= eps for t in seq[m - 1:]):
                failures.append(f"element dini index wrong at eps={eps}")
    for _ in range(cases - cases // 2):
        pf = sampling.pointed_frame(rng)
        g = sampling.frame_real(rng, pf, nonneg=True)
        steps = rng.randint(2, 5)
        seq = [g.scale(Fraction(1, k)) for k in range(1, steps + 1)]
        seq += [FrameReal.zero(pf)] * 2
        rep = dini_check(seq)
        if not rep.limit_is_zero or not rep.uniform:
            failures.append(f"frame dini fails: g={g!r}")
        for eps, m in rep.index_map.items():
            if any(t.eval(ray_below(eps)) != pf.frame.top for t in seq[m - 1:]):
                failures.append(f"frame dini index wrong at eps={eps}")
    # the canonical omega+1 monotone sequence: tails of g0 with sup 1/(n+1)
    g0 = TailElement.tail_unit(1)
    tails = [g0 - h for h in partial_truncations(g0, 6)]
    for n, t in enumerate(tails, start=1):
        if t.max_value() != Fraction(1, n + 1):
            failures.append(f"omega+1 tail sup wrong at n={n}")
    if not sup_of_filtration_is(g0):
        failures.append("omega+1 filtration sup check failed")


# --- 12. drops and lifts ---------------------------------------------------------------

@_suite("drop-e0q", 100, cap=60)
def suite_drop_e0q(rng, cases, failures):
    # canonical: Booleanization of the three-chain pointed at the middle
    c3 = FiniteFrame.chain(3)
    pc3 = PointedFiniteFrame(c3, focus=1)
    booleanization = sampling.booleanization(pc3)
    if booleanization is None or not booleanization.dense:
        failures.append("three-chain Booleanization not dense/pointed")
    # canonical: product map (x, y) -> (x**, y)
    f2 = FiniteFrame.chain(2)
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
        failures.append(f"product lift wrong: {lift!r}")
    canonical = [booleanization, prod_q] if booleanization else [prod_q]
    for i in range(cases):
        if i < len(canonical):
            q = canonical[i]
        elif i % 2:
            # small frames keep the exhaustive-partition oracle in play
            pf = sampling.pointed_frame(rng, max_points=3)
            q = sampling.dense_surjection(rng, pf)
        else:
            pf = sampling.pointed_frame(rng)
            q = sampling.dense_surjection(rng, pf)
        tools = surjection_tools(q)
        if not tools["dense"]:
            failures.append("sampled surjection not dense")
            continue
        h = sampling.frame_real(rng, q.target)
        hp = FrameReal(q.source, [(v, q.adjoint[c]) for v, c in h.cells],
                       extended=True) \
            if q.source.frame.join_all(q.adjoint[c] for _, c in h.cells) \
            == q.source.frame.top else None
        if hp is not None:
            result = drop(q, hp)
            if not result.ok or result.result != h:
                failures.append(f"drop does not invert the lift: {h!r}")
        lift = e0q_member(q, h)
        if len(q.source.frame) <= 12:
            oracle = e0q_exhaustive(q, h)
            if lift.ok != oracle.ok:
                failures.append(f"adjoint/exhaustive disagree: {h!r}")
            if oracle.ok and not lift.ok:
                failures.append(f"adjoint candidate missed a lift: {h!r}")
        if lift.ok:
            back = drop(q, FrameReal(q.source, lift.witness.cells, extended=True))
            if not back.ok or back.result != h:
                failures.append(f"lift does not drop back: {h!r}")
    # refusal path: a D-type element violating the condition
    two = FiniteFrame.chain(2)
    pc3_top = PointedFiniteFrame(c3, focus=2)
    ptwo = PointedFiniteFrame(two, focus=1)
    qprime = FrameSurjection(pc3_top, ptwo, {0: 0, 1: 0, 2: 1})
    if qprime.dense:
        failures.append("collapsing surjection reported dense")
    hp = FrameReal(pc3_top, [(POS_INF, c3.top)], extended=True, pointed=False)
    refusal = drop(qprime, hp)
    if refusal.ok or refusal.condition_value != two.bottom:
        failures.append(f"drop refusal wrong: {refusal!r}")


# --- 13. kernels ------------------------------------------------------------------------

@_suite("kernels", 60)
def suite_kernels(rng, cases, failures):
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
            failures.append(f"closure did not reach the whole trunc: {spec!r}")
    return len(specs)


# --- 14. sequence-model closure -----------------------------------------------------------

_HALF, _SCALE = Fraction(1, 2), Fraction(-3, 2)  # the oracle writes p - 1/2 itself


@_suite("seq-closure", 150)
def suite_seq_closure(rng, cases, failures):
    half = range(cases // 2)
    for degree in (1, 2):
        trunc = SeqTrunc(degree)
        for _ in half:
            f, g = trunc.sample_elements(rng, 2)
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
                    failures.append(f"{name} left the degree-{degree} carrier")
            # ten positions past the corrections and the sign bound of f - g
            horizon = f.crossover(g)[1] + 10
            for n in range(1, horizon + 1):
                # the operands' values as integer pairs; a and b over one d
                (a, da), (b, db), (p, dp) = f._pair(n), g._pair(n), fpos._pair(n)
                x, y, d = a * db, b * da, da * db
                expect = {"add": (x + y, d), "sub": (x - y, d), "negate": (-a, da),
                          "scale": (a * _SCALE.numerator, da * _SCALE.denominator),
                          "meet": (min(x, y), d), "join": (max(x, y), d),
                          "truncate": (p, dp) if p <= dp else (1, 1),
                          "tminus": (2 * p - dp, 2 * dp) if 2 * p > dp else (0, 1),
                          "truncN": (p, dp) if p <= 2 * dp else (2, 1)}
                wrong = [k for k, res in results.items()
                         if (v := res._pair(n))[0] * expect[k][1] != expect[k][0] * v[1]]
                if wrong:
                    failures.append(f"{wrong[0]} pointwise mismatch at n={n}")
                    break
    return 2 * len(half)


# --- 15. convergence utilities ---------------------------------------------------------------

@_suite("convergence", 100)
def suite_convergence(rng, cases, failures):
    for _ in range(cases):
        sp = sampling.random_space(rng)
        fam = [sampling.simple_element(rng, sp) for _ in range(rng.randint(1, 4))]
        sup = pointwise_sup(fam)
        if pointwise_sup([fam[0]] * 3) != fam[0]:
            failures.append(f"constant-family sup differs: {fam[0]!r}")
        keep = [p for p in sp.nonstar if chance(rng, 3, 5)]
        _, theta = restriction_hom(sp, keep)
        if theta(sup) != pointwise_sup([theta(g) for g in fam]):
            failures.append(f"restriction does not preserve sup: {fam!r}")
        pf = sampling.pointed_frame(rng)
        g = sampling.frame_real(rng, pf)
        if pointwise_sup([g, g, g]) != g:
            failures.append(f"frame constant sup differs: {g!r}")


# --- 16. boolean structure ---------------------------------------------------------------------

@_suite("boolean", 40, cap=25)
def suite_boolean(rng, cases, failures):
    for _ in range(cases):
        alg = sampling.random_gba(rng)
        report = alg.validate()
        if not report.ok:
            failures.append(f"set-family gba invalid: {report.violations[:2]}")
            continue
        elems = sorted(alg.carrier, key=lambda s: (len(s), sorted(map(str, s))))
        for a in elems[:4]:
            for b in elems[:4]:
                c = alg.diff(a, b)
                if alg.join[(c, b)] != alg.join[(a, b)] or \
                        alg.meet[(c, b)] != alg.bottom:
                    failures.append(f"diff equations fail at ({a},{b})")
        sp = sampling.random_space(rng)
        bi = clopen(sp)
        x2 = stone(bi)
        if len(x2.points) != len(sp.points) or x2.star != frozenset({sp.star}):
            failures.append(f"stone(clopen) wrong on {sp!r}")
        comp_alg = uc(lc(sp))
        if not comp_alg.validate().ok:
            failures.append(f"component algebra invalid on {sp!r}")


def run_all(seed=0, cases=200):
    """Run every suite; per-suite budgets cap the heavyweight ones."""
    return [fn(seed=seed, cases=min(cases, _SUITE_BUDGETS.get(name, cases)))
            for name, fn in SUITES.items()]
