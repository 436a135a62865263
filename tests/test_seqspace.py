"""The omega+1 model: tail arithmetic, closure, and the counterexample battery."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from samplers import sample_elements

from trunclab import cli, seqspace
from trunclab.elements import apply_op, cut_grid, lc
from trunclab.errors import (CertificationError, PositivityError, StructureError,
                             UnsupportedOperationError)
from trunclab.hyper import HyperVerdict, hyperarchimedean
from trunclab.rat import chance
from trunclab.sampling import random_space
from trunclab.seqspace import (SeqTrunc, TailElement, baf_infinity,
                               bounded_away_from_zero_tail, clearance_chain,
                               enough_uc_check, ex1_report,
                               partial_truncations, simple_part_member,
                               sup_of_filtration_is)
from trunclab.spaces import space

G0 = TailElement.tail_unit(1)


def poly_sign(coeffs):
    """Eventual sign of c0 + c1/n + ... + cd/n^d and a bound past which it
    holds: seqspace._sign_bound on the numerators over one denominator."""
    coeffs = [F(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return seqspace._sign_bound([c.numerator * (den // c.denominator) for c in coeffs])


def test_poly_sign_bounds():
    sign, bound = poly_sign([F(0), F(1), F(-100)])
    assert sign == 1
    for n in range(bound, bound + 50):
        assert F(1, n) - F(100, n * n) > 0
    assert poly_sign([0, 0]) == (0, 1)
    sign, _ = poly_sign([F(-1), F(5)])
    assert sign == -1


def test_canonical_representation():
    g = TailElement({3: F(0), 1: F(1, 2)}, (F(1), F(0)))
    assert g.correction == {1: F(1, 2)}
    assert g.tail == (F(1),)
    assert g.degree() == 1
    assert g.value(1) == F(3, 2) and g.value(4) == F(1, 4)


def test_truncate_scaled_example():
    t = G0.scale(3).truncate()
    assert t.tail == (F(3),)
    assert t.correction == {1: F(-2), 2: F(-1, 2)}
    for n in range(1, 12):
        assert t.value(n) == min(F(3, n), 1)


def test_tminus_example():
    assert G0.tminus(F(1, 2)) == TailElement({1: F(1, 2)})
    assert G0.tminus(F(1, 3)) == TailElement({1: F(2, 3), 2: F(1, 6)})
    assert G0.tminus(0) is G0


def test_join_with_zero():
    assert G0.join(TailElement.zero()) == G0
    assert G0.meet(TailElement.zero()) == TailElement.zero()


def test_unsupported_op():
    with pytest.raises(UnsupportedOperationError):
        apply_op("mul", [G0, G0])


def test_positivity_guards():
    with pytest.raises(PositivityError):
        (-G0).truncate()
    assert not (-G0).is_nonneg()
    assert abs(-G0) == G0


def test_closure_and_pointwise_agreement():
    rng = random.Random(4)
    trunc = SeqTrunc(2)
    for _ in range(60):
        f, g = trunc.sample_elements(rng, 2)
        fpos = abs(f)
        _, bound = f.crossover(g)
        results = {
            "add": f + g, "meet": f.meet(g), "join": f.join(g),
            "truncate": fpos.truncate(), "tminus": fpos.tminus(F(1, 3)),
            "truncN": fpos.trunc_at(2), "scale": f.scale(F(-2, 3)),
        }
        for name, res in results.items():
            assert res.degree() <= 2, name
        for n in range(1, bound + 11):
            assert results["add"].value(n) == f.value(n) + g.value(n)
            assert results["meet"].value(n) == min(f.value(n), g.value(n))
            assert results["join"].value(n) == max(f.value(n), g.value(n))
            assert results["truncate"].value(n) == min(fpos.value(n), 1)
            assert results["tminus"].value(n) == max(fpos.value(n) - F(1, 3), 0)
            assert results["truncN"].value(n) == min(fpos.value(n), 2)


def test_baf_infinity():
    ok, _ = baf_infinity(G0)
    assert not ok
    ok, h = baf_infinity(TailElement.chi([1, 2]))
    assert ok and h == TailElement({1: 2, 2: 2})
    ok, _ = baf_infinity(TailElement.zero())
    assert ok


def test_simple_part_membership():
    assert not simple_part_member(G0)
    assert simple_part_member(TailElement.chi([5]))
    assert simple_part_member(G0.tminus(F(1, 2)))


def test_simple_part_closed_under_ops():
    rng = random.Random(9)
    zero_degree = SeqTrunc(0)
    for _ in range(40):
        f, g = zero_degree.sample_elements(rng, 2)
        for res in (f + g, f.meet(g), f.join(g), abs(f).truncate(),
                    abs(f).tminus(F(1, 2)), f.scale(F(3, 2))):
            assert simple_part_member(res)


def test_bounded_away_from_zero_tail():
    ok, _ = bounded_away_from_zero_tail(G0)
    assert not ok
    ok, eps = bounded_away_from_zero_tail(TailElement.chi([1, 2]))
    assert ok and eps == 1
    assert clearance_chain(G0, 4) == [1, F(1, 2), F(1, 3), F(1, 4)]


def test_enough_uc():
    ok, witness = enough_uc_check(SeqTrunc(1))
    assert not ok and witness == G0
    ok, _ = enough_uc_check(SeqTrunc(0))
    assert ok


def reference_sample_elements(trunc, rng, count, nonneg=False):
    """SeqTrunc.sample_elements as it once was: a Fraction pool per call,
    every sample through the validating constructor, |g| through abs."""
    out = []
    pool = [F(n, d) for n in range(-3, 4) for d in (1, 2)]
    for _ in range(count):
        corr = {}
        for _ in range(rng.randint(0, 3)):
            corr[rng.randint(1, 8)] = pool[rng.randrange(len(pool))]
        tail = [pool[rng.randrange(len(pool))] if chance(rng, 7, 10) else 0
                for _ in range(trunc.degree)]
        g = TailElement(corr, tail)
        if nonneg:
            g = abs(g)
        out.append(g)
    return out


def parts(g):
    """The correction in insertion order and the tail, with value types."""
    return ([(n, type(v), v) for n, v in g.correction.items()],
            [(type(c), c) for c in g.tail])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 20), st.booleans(), st.integers(0, 2 ** 32))
def test_sampler_matches_the_reference(degree, count, nonneg, seed):
    trunc = SeqTrunc(degree)
    ours, theirs = random.Random(seed), random.Random(seed)
    got = [abs(g) if nonneg else g for g in trunc.sample_elements(ours, count)]
    want = reference_sample_elements(trunc, theirs, count, nonneg)
    assert [parts(g) for g in got] == [parts(g) for g in want]
    assert ours.getstate() == theirs.getstate()


def reference_enough_uc_check(trunc, rng, budget=50):
    """enough_uc_check as it once was: every sample drawn before the search."""
    candidates = trunc.tail_units()[:1]
    candidates.extend(abs(g) for g in reference_sample_elements(trunc, rng, budget))
    candidates.append(TailElement.chi([1, 2]))
    for g in candidates:
        if g.tail:
            return False, g
    return True, None


@pytest.mark.parametrize("degree", [1, 2])
def test_enough_uc_refutes_with_1_over_n_before_any_draw(monkeypatch, degree):
    def refuse(*args, **kwargs):
        raise AssertionError("enough_uc_check drew a sample")

    monkeypatch.setattr(SeqTrunc, "sample_elements", refuse)
    assert enough_uc_check(SeqTrunc(degree)) == (False, G0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_enough_uc_agrees_with_the_sampled_reference(seed):
    """The verdict decided from the degree is the sampled search's, and on
    degree 0 every sample the search examines has a unital component above
    its truncation."""
    for degree in range(4):
        trunc = SeqTrunc(degree)
        want = reference_enough_uc_check(trunc, random.Random(seed), 30)
        assert enough_uc_check(trunc) == want
    for g in reference_sample_elements(SeqTrunc(0), random.Random(seed), 30, True):
        _, supp = g.support()
        assert (TailElement.chi(supp) - g.truncate()).is_nonneg()


def test_max_value():
    assert G0.max_value() == 1
    assert (G0 - TailElement({1: 1})).max_value() == F(1, 2)
    g = TailElement({4: F(7)}, (F(1),))
    assert g.max_value() == 7 + F(1, 4)
    assert TailElement.zero().max_value() == 0


def test_hyperarchimedean_degree1_and_2():
    assert hyperarchimedean(SeqTrunc(1)).passed
    verdict = hyperarchimedean(SeqTrunc(2))
    assert not verdict.passed
    f, g, reason = verdict.witness
    assert f == TailElement.tail_unit(1)
    assert g == TailElement.tail_unit(2)
    assert reason == "forced part not dominated"


def forced_part(f, g):
    """f restricted to the cozero set of g >= 0, and whether some multiple
    of g dominates it: on a simple element, k = max |f| / min g on the
    cozero set of g, checked at every point."""
    if isinstance(f, TailElement):
        f_g = f.restrict_to_cozero_of(g)
        return f_g, f_g.dominated_by(g)
    cozero = g.support()
    f_g = f.restrict_to(cozero)
    if not cozero:
        return f_g, f_g.is_zero()
    k = max(abs(f.value(p)) for p in cozero) / min(g.value(p) for p in cozero)
    return f_g, all(abs(f_g.value(p)) <= k * g.value(p) for p in g.space.nonstar)


def reference_hyperarchimedean(model, budget=200, seed=0):
    """hyperarchimedean as it once was: the pair of the first two tail units
    when there are two, then `budget` sampled pairs (f, g >= 0), each with
    an exact check of its forced part."""
    rng = random.Random(seed)
    units = model.tail_units()
    pairs = [(units[0], units[1])] if len(units) >= 2 else []
    fs = sample_elements(model, rng, budget)
    gs = sample_elements(model, rng, budget, nonneg=True)
    for f, g in pairs + list(zip(fs, gs)):
        f_g, dominated = forced_part(f, g)
        if f_g not in model:
            return HyperVerdict(False, (f, g, "forced part not a member"))
        if not dominated:
            return HyperVerdict(False, (f, g, "forced part not dominated"))
    return HyperVerdict(True)


def _halves(sp):
    """lc(sp) on the family of unions of two blocks that split the points."""
    points = sp.nonstar
    a, b = frozenset(points[::2]), frozenset(points[1::2])
    return lc(sp, [frozenset(), a, b, a | b])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_exact_hyperarchimedean_agrees_with_the_sampled_reference(seed):
    """The verdict from the tail units is the sampled search's at 500
    samples, on the sequence model and on full and partial simple truncs."""
    rng = random.Random(seed)
    spaces = [random_space(rng) for _ in range(4)]
    models = [SeqTrunc(degree) for degree in range(4)]
    models += [make(sp) for sp in spaces for make in (lc, _halves)]
    for model in models:
        want = reference_hyperarchimedean(model, 500, seed)
        assert hyperarchimedean(model) == want, model
        assert want.passed == (len(model.tail_units()) < 2)


def test_hyperarchimedean_and_ex1_report_draw_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a hyperarchimedean verdict drew a sample")

    monkeypatch.setattr(SeqTrunc, "sample_elements", refuse)
    for degree in range(4):
        assert hyperarchimedean(SeqTrunc(degree)).passed == (degree < 2)
    assert hyperarchimedean(lc(space("1", "2", "3"))).passed
    assert ex1_report().hyper_ok


def test_the_degree2_witness_is_certified(monkeypatch):
    """A forged per-pair check that calls 1/n dominated by 1/n^2 stops the
    refutation: the verdict raises, and the suite behind it exits 1."""
    monkeypatch.setattr(TailElement, "dominated_by", lambda self, g: True)
    with pytest.raises(CertificationError, match="1/n\\^2"):
        hyperarchimedean(SeqTrunc(2))
    assert cli.main(["suite", "degree2-refutation"]) == 1


def test_partial_truncations_and_dini_tail():
    hs = partial_truncations(G0, 4)
    assert all(not h.tail for h in hs)
    assert hs[2] == TailElement({1: 1, 2: F(1, 2), 3: F(1, 3)})
    tails = [G0 - h for h in hs]
    assert [t.max_value() for t in tails] == [F(1, 2), F(1, 3), F(1, 4), F(1, 5)]
    assert sup_of_filtration_is(G0)


def test_ex1_report():
    rep = ex1_report()
    assert rep.hyper_ok and rep.pointwise_sup_ok
    assert rep.clearance_values[:3] == [1, F(1, 2), F(1, 3)]
    assert rep.kernel3_example == TailElement({1: F(2, 3), 2: F(1, 6)})


def test_seqtrunc_membership():
    assert G0 in SeqTrunc(1)
    assert TailElement.tail_unit(2) not in SeqTrunc(1)
    assert TailElement.tail_unit(2) in SeqTrunc(2)
    with pytest.raises(StructureError):
        SeqTrunc(-1)


# Rationals with mixed denominators, zero drawn often.
RATIONALS = st.one_of(st.just(F(0)),
                      st.fractions(min_value=-6, max_value=6, max_denominator=12))
TAILS = st.lists(RATIONALS, max_size=4)
CORRECTIONS = st.dictionaries(st.integers(1, 30), RATIONALS, max_size=4)
POSITIVE = st.fractions(min_value=F(1, 12), max_value=4, max_denominator=12)


def reference_value(correction, tail, n):
    """correction(n) + sum_k c_k / n^(k+1), summed term by term."""
    return F(correction.get(n, 0)) + sum(
        (F(c) / n ** (k + 1) for k, c in enumerate(tail)), F(0))


def leading_sign(coeffs):
    """Sign of the first nonzero coefficient, 0 if there is none."""
    return next(((c > 0) - (c < 0) for c in coeffs if c != 0), 0)


def tail_difference(f, g):
    return [a - b for a, b in itertools.zip_longest(f.tail, g.tail, fillvalue=F(0))]


@settings(max_examples=80, deadline=None)
@given(CORRECTIONS, TAILS, st.lists(st.integers(1, 10 ** 4), max_size=30))
def test_horner_value_matches_the_term_sum(correction, tail, far):
    g = TailElement(correction, tail)
    for n in list(range(1, 41)) + far + [10 ** 4]:
        expected = reference_value(correction, tail, n)
        assert g.value(n) == expected
        assert type(g.value(n)) is F
        assert F(*g._tail_pair(n)) == reference_value({}, tail, n)


WINDOWS = st.one_of(
    st.builds(range, st.integers(1, 40), st.integers(1, 60)),
    st.sets(st.integers(1, 60), max_size=20).map(sorted))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(1, 70), RATIONALS, max_size=6),
       st.lists(RATIONALS, max_size=3), WINDOWS)
@example({1: F(1, 2), 12: F(-3), 70: F(5, 7)}, [F(1, 3), F(-2), F(3, 4)], range(10, 20))
@example({5: F(2)}, [], range(5, 5))
@example({}, [F(1)], [])
def test_window_pairs_equal_the_pointwise_pairs(correction, tail, window):
    """_pairs gives _pair's own unreduced pair at every position of a window,
    for degrees 0-3 and corrections before, inside and past the window."""
    g = TailElement(correction, tail)
    assert g._pairs(window) == [g._pair(n) for n in window]


@settings(max_examples=80, deadline=None)
@given(CORRECTIONS, TAILS, CORRECTIONS, TAILS, POSITIVE, POSITIVE)
@example({}, [F(-1, 7), F(4)], {}, [F(1)], F(1), F(1))  # |f| corrected up to 27
def test_lattice_operations_match_the_pointwise_oracle(fc, ft, gc, gt, c, r):
    f, g = TailElement(fc, ft), TailElement(gc, gt)
    ref_f = functools.partial(reference_value, fc, ft)
    ref_g = functools.partial(reference_value, gc, gt)
    sign = leading_sign(tail_difference(f, g))  # eventual sign of f - g
    horizon = f.crossover(g)[1] + 20
    # |f| follows f's own sign changes, which can lie past f.crossover(g)
    af_horizon = f.crossover(TailElement.zero())[1]
    meet, join = f.meet(g), f.join(g)
    assert meet.tail == (f.tail if sign <= 0 else g.tail)
    assert join.tail == (f.tail if sign >= 0 else g.tail)
    af = abs(f)
    assert af.tail == (f.tail if leading_sign(f.tail) >= 0
                       else tuple(-x for x in f.tail))
    for n in range(1, horizon + 1):
        assert meet.value(n) == min(ref_f(n), ref_g(n))
        assert join.value(n) == max(ref_f(n), ref_g(n))
    for n in range(1, af_horizon + 1):
        assert af.value(n) == abs(ref_f(n))
    for res in (meet, join):
        assert max(res.correction, default=0) <= horizon
    assert max(af.correction, default=0) <= af_horizon
    # past the corrections of |f| (which reach f's last sign change, not
    # only those of f) and total/min(c, r), the tail stays below c and r
    total = sum(abs(x) for x in ft)
    limit = max(af.correction, default=0) + math.ceil(total / min(c, r)) + 20
    low, excess = af.meet_const(c), af.tminus(r)
    assert low.tail == af.tail and excess.tail == ()
    for n in range(1, limit + 1):
        v = abs(ref_f(n))
        assert low.value(n) == min(v, c)
        assert excess.value(n) == max(v - r, 0)
    assert max(low.correction, default=0) <= limit
    assert max(excess.correction, default=0) <= limit


# --- the integer carrier against the Fraction references ------------------

def reference_poly_sign(coeffs):
    """poly_sign summing and dividing Fractions, as the carrier once did."""
    coeffs = [F(c) for c in coeffs]
    j = next((i for i, c in enumerate(coeffs) if c != 0), None)
    if j is None:
        return 0, 1
    rest = sum(abs(c) for c in coeffs[j + 1:])
    bound = max(1, math.ceil(rest / abs(coeffs[j]))) + 1
    return (1 if coeffs[j] > 0 else -1), bound


def reference_merged_tail(f, g, fn):
    """fn slot by slot over both tails, the shorter padded with Fraction(0)."""
    d = max(len(f.tail), len(g.tail))
    a = list(f.tail) + [F(0)] * (d - len(f.tail))
    b = list(g.tail) + [F(0)] * (d - len(g.tail))
    return [fn(x, y) for x, y in zip(a, b)]


def reference_crossover(f, g):
    diff = reference_merged_tail(f, g, lambda x, y: x - y)
    sign, tail_bound = reference_poly_sign([F(0)] + diff)
    supports = list(f.correction) + list(g.correction)
    return sign, max(supports, default=0) + tail_bound + 1


def reference_pick(f, g, pick, own_tail, bound):
    """pick(f(n), g(n)) as a correction over the winner's tail up to bound."""
    winner = f if own_tail else g
    corr = {n: pick(f.value(n), g.value(n)) - F(*winner._tail_pair(n))
            for n in range(1, bound + 1)}
    return TailElement(corr, winner.tail)


def reference_meet(f, g):
    sign, bound = reference_crossover(f, g)
    return reference_pick(f, g, min, sign <= 0, bound)


def reference_join(f, g):
    sign, bound = reference_crossover(f, g)
    return reference_pick(f, g, max, sign >= 0, bound)


def reference_below_bound(f, c):
    sign, tail_bound = reference_poly_sign([-c] + list(f.tail))
    assert sign < 0
    return max(f.correction, default=0) + tail_bound + 1


def reference_meet_const(f, c):
    corr = {n: min(f.value(n), c) - F(*f._tail_pair(n))
            for n in range(1, reference_below_bound(f, c) + 1)}
    return TailElement(corr, f.tail)


def reference_tminus(f, r):
    return TailElement({n: max(f.value(n) - r, 0)
                        for n in range(1, reference_below_bound(f, r) + 1)})


def reference_sup_of_filtration_is(g):
    """The cut test asking any() over the whole filtration at every cut of
    the grid of g's and every term's values on the probe window."""
    _, bound = g.crossover(TailElement.zero())
    window = range(1, bound + 11)
    filtration = seqspace.partial_truncations(g, len(window))
    probe = [F(0)] + [h.value(n) for h in [g, *filtration] for n in window]
    for r in cut_grid(probe):
        for k in window:
            in_union = any(h.value(k) > r for h in filtration)
            if in_union != (g.value(k) > r):
                return False
    return True


def scan_sup_of_filtration_is(g):
    """The cut test comparing every grid cut with every position as
    Fractions, as the carrier once ran it, but with the largest value of
    every term (not only of the terms from k on) and those values in the
    grid."""
    _, bound = g.crossover(TailElement.zero())
    window = range(1, bound + 11)
    filtration = seqspace.partial_truncations(g, len(window))
    values = [g.value(k) for k in window]
    reach = [max((h.value(k) for h in filtration), default=-1) for k in window]
    cuts = cut_grid([F(0)] + values + reach)
    return all((top > r) == (v > r) for r in cuts for top, v in zip(reach, values))


# Degree 0-3 tails and corrections with mixed denominators.
SMALL_TAILS = st.lists(RATIONALS, max_size=3)


def reference_partial_truncations(g, count):
    """partial_truncations as it once was: each chunk through the validating
    constructor."""
    values = {k: g.value(k) for k in range(1, count + 1)}
    return [TailElement({k: values[k] for k in range(1, n + 1)})
            for n in range(1, count + 1)]


@settings(max_examples=150, deadline=None)
@given(CORRECTIONS, SMALL_TAILS, st.integers(0, 12))
def test_partial_truncations_match_the_reference(corr, tail, count):
    """Equal chunks, with the correction in the same order and of the same
    value types."""
    g = TailElement(corr, tail)
    got, want = partial_truncations(g, count), reference_partial_truncations(g, count)
    assert [parts(h) for h in got] == [parts(h) for h in want]


@settings(max_examples=150, deadline=None)
@given(st.lists(RATIONALS, max_size=6))
def test_poly_sign_matches_the_reference(coeffs):
    assert poly_sign(coeffs) == reference_poly_sign(coeffs)


@settings(max_examples=150, deadline=None)
@given(CORRECTIONS, SMALL_TAILS, CORRECTIONS, SMALL_TAILS)
def test_crossover_matches_the_reference(fc, ft, gc, gt):
    f, g = TailElement(fc, ft), TailElement(gc, gt)
    assert f.crossover(g) == reference_crossover(f, g)
    assert g.crossover(f) == reference_crossover(g, f)
    assert f.crossover(f) == reference_crossover(f, f)
    # the elements the lattice operations build, with their carried tails
    for h in (-f, f.scale(F(-3, 2)), f - g):
        assert h.crossover(g) == reference_crossover(h, g)


@settings(max_examples=100, deadline=None)
@given(CORRECTIONS, SMALL_TAILS, CORRECTIONS, SMALL_TAILS, POSITIVE, POSITIVE,
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_operations_build_the_reference_elements(fc, ft, gc, gt, c, r, q):
    f, g = TailElement(fc, ft), TailElement(gc, gt)
    assert f + g == TailElement({n: F(fc.get(n, 0)) + F(gc.get(n, 0))
                                 for n in set(fc) | set(gc)},
                                reference_merged_tail(f, g, lambda x, y: x + y))
    assert -f == TailElement({n: -v for n, v in fc.items()}, [-x for x in ft])
    assert f.scale(q) == TailElement({n: q * v for n, v in fc.items()},
                                     [q * x for x in ft])
    assert f.meet(g) == reference_meet(f, g)
    assert f.join(g) == reference_join(f, g)
    af = abs(f)
    assert af == reference_join(f, -f)
    assert af.meet_const(c) == reference_meet_const(af, c)
    assert af.tminus(r) == reference_tminus(af, r)
    # values through the carried integer tails, against the term sums
    for h, k in ((-f, -1), (f.scale(q), q)):
        for n in range(1, 25):
            assert h.value(n) == k * reference_value(fc, ft, n)


@settings(max_examples=150, deadline=None)
@given(CORRECTIONS, SMALL_TAILS)
def test_abs_is_the_join_with_the_negation(corr, tail):
    g = TailElement(corr, tail)
    for h in (g, -g, g.scale(F(-5, 3))):
        got, ref = abs(h), h.join(-h)
        assert got == ref and (got._nums, got._den) == (ref._nums, ref._den)
        assert list(got.correction.items()) == list(ref.correction.items())
        assert got.is_nonneg()


def assert_canonical(h):
    """Nonzero corrections and a tail in lowest terms with no trailing zero
    slot: the parts the validating constructor builds from h's values."""
    assert h._den > 0 and math.gcd(h._den, *h._nums) == 1
    assert (not h._nums or h._nums[-1]) and all(h.correction.values())
    rebuilt = TailElement(h.correction, h.tail)
    assert (rebuilt.correction, rebuilt._nums, rebuilt._den) == (
        h.correction, h._nums, h._den)


@settings(max_examples=100, deadline=None)
@given(CORRECTIONS, SMALL_TAILS, CORRECTIONS, SMALL_TAILS, POSITIVE,
       st.fractions(min_value=-3, max_value=3, max_denominator=6), st.integers(0, 99))
def test_every_operation_keeps_the_tail_canonical(fc, ft, gc, gt, c, q, seed):
    f, g = TailElement(fc, ft), TailElement(gc, gt)
    af, ag = abs(f), abs(g)
    for h in (f, g, f + g, f - g, -f, f.scale(q), f.meet(g), f.join(g), af,
              af.meet_const(c), af.tminus(c), af.truncate(), f.restrict_to_cozero_of(ag),
              f.restrict_to_cozero_of(ag.tminus(c)), *partial_truncations(f, 3),
              *SeqTrunc(3).sample_elements(random.Random(seed), 4)):
        assert_canonical(h)
    assert ((f - f)._nums, (f - f)._den) == ((), 1)


@settings(max_examples=100, deadline=None)
@given(CORRECTIONS, SMALL_TAILS, CORRECTIONS, SMALL_TAILS, POSITIVE)
def test_restrict_to_cozero_matches_the_pointwise_reference(fc, ft, gc, gt, c):
    f = TailElement(fc, ft)
    for g in (abs(TailElement(gc, gt)), abs(TailElement(gc, gt)).tminus(c)):
        got = f.restrict_to_cozero_of(g)
        # past both bounds g is its tail: nonzero when it has one, else 0
        window = max(f.crossover(TailElement.zero())[1],
                     g.crossover(TailElement.zero())[1]) + 5
        for n in range(1, window):
            assert got.value(n) == (f.value(n) if g.value(n) else 0)
        assert got.tail == (f.tail if g.tail else ())


@settings(max_examples=60, deadline=None)
@given(CORRECTIONS, SMALL_TAILS)
def test_sup_of_filtration_matches_the_reference(corr, tail):
    g = abs(TailElement(corr, tail))
    assert sup_of_filtration_is(g) == reference_sup_of_filtration_is(g)
    assert sup_of_filtration_is(g) == scan_sup_of_filtration_is(g)


@settings(max_examples=60, deadline=None)
@given(CORRECTIONS, SMALL_TAILS, st.integers(0, 40), st.integers(1, 40), RATIONALS)
def test_sup_of_filtration_matches_the_scan_on_forged_filtrations(corr, tail, i,
                                                                    k, v):
    """One term of the filtration takes any value at one position."""
    g = abs(TailElement(corr, tail))

    def forged(h, count):
        hs = partial_truncations(h, count)
        term = dict(hs[i % count].correction)
        term[k] = abs(v)
        hs[i % count] = TailElement(term)
        return hs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqspace, "partial_truncations", forged)
        assert sup_of_filtration_is(g) == scan_sup_of_filtration_is(g)


@pytest.mark.parametrize("forge", ["drop-last", "drop-all", "lower-one-value",
                                   "nudge-one-value", "lower-inside-the-gap",
                                   "raise-an-early-term"])
def test_sup_of_filtration_rejects_a_forged_filtration(monkeypatch, forge):
    def forged(g, count):
        hs = partial_truncations(g, count)
        if forge.startswith("drop"):
            return hs[:-1] if forge == "drop-last" else []
        if forge == "raise-an-early-term":
            # h_1(5) = 1 > g(5) = 1/5, at a position past the term's own
            first = dict(hs[0].correction)
            first[5] = F(1)
            return [TailElement(first)] + hs[1:]
        last = dict(hs[-1].correction)
        # h_count(count) = 0 < g(count), above g(count) by less than one
        # step of the scaled grid, or 1/(count + 1) < g(count) = 1/count,
        # between g's values
        last[count] = {"lower-one-value": F(0),
                       "nudge-one-value": g.value(count) + F(1, 10 ** 9),
                       "lower-inside-the-gap": F(1, count + 1)}[forge]
        return hs[:-1] + [TailElement(last)]

    assert sup_of_filtration_is(G0)
    monkeypatch.setattr(seqspace, "partial_truncations", forged)
    assert not sup_of_filtration_is(G0)
    assert not reference_sup_of_filtration_is(G0)
    assert not scan_sup_of_filtration_is(G0)


# --- the sparse position loops against the dense ones ---------------------
#
# The dense references visit every position 1..bound of the crossover bound,
# as the carrier once did; the carrier visits 1..N-1 and the corrections.

def dense_pick(f, g, prefer):
    sign, bound = f.crossover(g)
    own_tail = prefer(sign, 0)
    winner = f if own_tail else g
    corr = {}
    for n in range(1, bound + 1):
        ts, to = f._tail_pair(n), g._tail_pair(n)
        a = seqspace._add_correction(f.correction, n, *ts)
        b = seqspace._add_correction(g.correction, n, *to)
        pick_f = prefer(a[0] * b[1], b[0] * a[1])
        if pick_f == own_tail:
            delta = winner.correction.get(n)
        else:
            delta = seqspace._difference(a if pick_f else b, ts if own_tail else to)
        if delta:
            corr[n] = delta
    return TailElement._canonical(corr, winner._nums, winner._den)


def dense_abs(f):
    sign, tail_bound = seqspace._sign_bound(f._nums)
    w = f if sign >= 0 else -f
    corr = {}
    for n in range(1, max(f.correction, default=0) + tail_bound + 2):
        t = w._tail_pair(n)
        v = seqspace._add_correction(w.correction, n, *t)
        delta = (w.correction.get(n) if v[0] >= 0
                 else seqspace._difference((-v[0], v[1]), t))
        if delta:
            corr[n] = delta
    return TailElement._canonical(corr, w._nums, w._den)


def dense_below_bound(f, c):
    nums, den = f._nums, f._den
    sign, tail_bound = seqspace._sign_bound([-c.numerator * den]
                                            + [a * c.denominator for a in nums])
    assert sign < 0
    return max(f.correction, default=0) + tail_bound + 1


def dense_meet_const(f, c):
    c = F(c)
    corr = {}
    for n in range(1, dense_below_bound(f, c) + 1):
        t = f._tail_pair(n)
        v = seqspace._add_correction(f.correction, n, *t)
        delta = (f.correction.get(n) if v[0] * c.denominator <= c.numerator * v[1]
                 else seqspace._difference((c.numerator, c.denominator), t))
        if delta:
            corr[n] = delta
    return TailElement._canonical(corr, f._nums, f._den)


def dense_tminus(f, r):
    corr = {}
    for n in range(1, dense_below_bound(f, r) + 1):
        num, den = f._pair(n)
        excess = num * r.denominator - r.numerator * den
        if excess > 0:
            corr[n] = F(excess, den * r.denominator)
    return TailElement._canonical(corr)


def dense_is_nonneg(f):
    sign, bound = f.crossover(TailElement.zero())
    return sign >= 0 and all(f._pair(n)[0] >= 0 for n in range(1, bound + 1))


def dense_support(f):
    if not f.tail:
        return "finite", frozenset(f.correction)
    _, bound = f.crossover(TailElement.zero())
    return "cofinite", frozenset(n for n in range(1, bound + 1) if f._pair(n)[0] == 0)


def dense_dominated_by(f, g):
    af = dense_abs(f)
    if af.tail and (not g.tail or af.order() < g.order()):
        return False
    _, bound_f = af.crossover(TailElement.zero())
    _, bound_g = g.crossover(TailElement.zero())
    return not any(af._pair(n)[0] > 0 and g._pair(n)[0] == 0
                   for n in range(1, max(bound_f, bound_g) + 1))


def same_element(got, ref):
    """Equal corrections in the same order, tails and integer tails."""
    assert list(got.correction.items()) == list(ref.correction.items())
    assert got.tail == ref.tail and (got._nums, got._den) == (ref._nums, ref._den)


def check_sparse_against_dense(f, g, c, r, ops=None):
    """Every sparse loop of f and g against its dense reference."""
    af, ag = abs(f), abs(g)  # inputs only; "abs" compares af with dense_abs
    builds = {
        "meet": lambda: (f.meet(g), dense_pick(f, g, operator.le)),
        "join": lambda: (f.join(g), dense_pick(f, g, operator.ge)),
        "abs": lambda: (af, dense_abs(f)),
        "meet_const": lambda: (af.meet_const(c), dense_meet_const(af, c)),
        "tminus": lambda: (af.tminus(r), dense_tminus(af, r)),
        "truncate": lambda: (af.truncate(), dense_meet_const(af, 1)),
        "trunc_at": lambda: (af.trunc_at(c), dense_meet_const(af, c)),
    }
    answers = {
        "is_nonneg": lambda: [(h.is_nonneg(), dense_is_nonneg(h)) for h in (f, af)],
        "support": lambda: [(h.support(), dense_support(h))
                            for h in (f, af) if h.tail and leading_sign(h.tail)],
        "dominated_by": lambda: [(f.dominated_by(h), dense_dominated_by(f, h))
                                 for h in (ag, af, af.scale(2), ag + af)],
    }
    for name in ops or [*builds, *answers]:
        if name in builds:
            same_element(*builds[name]())
        else:
            for got, ref in answers[name]():
                assert got == ref, name


# Corrections near the front and, less often, far out.
NEAR_OR_FAR = st.one_of(st.integers(1, 40), st.integers(1, 1000))
SPARSE_CORRECTIONS = st.dictionaries(NEAR_OR_FAR, RATIONALS, max_size=4)


@settings(max_examples=150, deadline=None)
@given(SPARSE_CORRECTIONS, SMALL_TAILS, SPARSE_CORRECTIONS, SMALL_TAILS,
       POSITIVE, POSITIVE)
def test_sparse_loops_match_the_dense_reference(fc, ft, gc, gt, c, r):
    f, g = TailElement(fc, ft), TailElement(gc, gt)
    check_sparse_against_dense(f, g, c, r)
    check_sparse_against_dense(f, -f, c, r, ["meet", "join"])


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 10 ** 6), RATIONALS, SMALL_TAILS, SPARSE_CORRECTIONS,
       SMALL_TAILS, st.sampled_from(["meet", "join", "abs", "meet_const", "tminus",
                                     "truncate", "trunc_at", "is_nonneg", "support",
                                     "dominated_by"]))
@example(10 ** 6, F(-1), [F(1)], {}, [], "abs")
def test_sparse_loops_match_the_dense_reference_far_out(far, v, ft, gc, gt, op):
    """One correction up to position 10**6, one operation per example (the
    dense reference walks every position up to it)."""
    f, g = TailElement({far: v, 1: F(1, 2)}, ft), TailElement(gc, gt)
    check_sparse_against_dense(f, g, F(1, 3), F(2, 3), [op])


def test_a_far_correction_visits_only_its_position(monkeypatch):
    far = 10 ** 9
    seen = []
    tail_pair = TailElement._tail_pair

    def counting(self, n):
        seen.append(n)
        return tail_pair(self, n)

    pairs = TailElement._pairs

    def counting_window(self, positions):  # enough of a long window to fail
        seen.extend(itertools.islice(positions, 100))
        return pairs(self, positions)

    g = TailElement({far: -1}, [1])
    monkeypatch.setattr(TailElement, "_tail_pair", counting)
    monkeypatch.setattr(TailElement, "_pairs", counting_window)
    ag = abs(g)
    results = [ag, g.join(TailElement.zero()), g.meet(TailElement.zero()),
               ag.truncate(), g.is_nonneg(), g.support(), g.dominated_by(ag)]
    # the sign bound of the tail 1/n is 2: positions 1 and far only, with
    # at most two tails evaluated at each of them per operation
    assert set(seen) == {1, far} and len(seen) <= 2 * 2 * len(results)
    monkeypatch.undo()
    assert ag == TailElement({far: 1 - F(2, far)}, [1])
    assert results[1:4] == [TailElement({far: -F(1, far)}, [1]),
                            TailElement({far: F(1, far) - 1}), ag]
    assert results[4:] == [False, ("cofinite", frozenset()), True]
