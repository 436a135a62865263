"""The omega+1 model: tail arithmetic, closure, and the counterexample battery."""

import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab.elements import apply_op
from trunclab.errors import (PositivityError, StructureError,
                             UnsupportedOperationError)
from trunclab.hyper import hyperarchimedean
from trunclab.seqspace import (SeqTrunc, TailElement, baf_infinity,
                               bounded_away_from_zero_tail, clearance_chain,
                               enough_uc_check, ex1_report,
                               partial_truncations, poly_sign,
                               simple_part_member, sup_of_filtration_is)

G0 = TailElement.tail_unit(1)


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
    ok, witness = enough_uc_check(SeqTrunc(1), rng=random.Random(0))
    assert not ok and witness == G0
    ok, _ = enough_uc_check(SeqTrunc(0), rng=random.Random(0))
    assert ok


def test_max_value():
    assert G0.max_value() == 1
    assert (G0 - TailElement({1: 1})).max_value() == F(1, 2)
    g = TailElement({4: F(7)}, (F(1),))
    assert g.max_value() == 7 + F(1, 4)
    assert TailElement.zero().max_value() == 0


def test_hyperarchimedean_degree1_and_2():
    assert hyperarchimedean(SeqTrunc(1), budget=200, seed=3).passed
    verdict = hyperarchimedean(SeqTrunc(2), budget=200, seed=3)
    assert not verdict.passed
    f, g, reason = verdict.witness
    assert f == TailElement.tail_unit(1)
    assert g == TailElement.tail_unit(2)
    assert reason == "forced part not dominated"


def test_partial_truncations_and_dini_tail():
    hs = partial_truncations(G0, 4)
    assert all(not h.tail for h in hs)
    assert hs[2] == TailElement({1: 1, 2: F(1, 2), 3: F(1, 3)})
    tails = [G0 - h for h in hs]
    assert [t.max_value() for t in tails] == [F(1, 2), F(1, 3), F(1, 4), F(1, 5)]
    assert sup_of_filtration_is(G0)


def test_ex1_report():
    rep = ex1_report(seed=0, samples=200)
    assert rep.ok
    assert rep.clearance_values[:3] == [1, F(1, 2), F(1, 3)]
    assert rep.kernel3_example == TailElement({1: F(2, 3), 2: F(1, 6)})
    assert rep.not_simple_witness == G0


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
        assert g.tail_value(n) == reference_value({}, tail, n)


@settings(max_examples=80, deadline=None)
@given(CORRECTIONS, TAILS, CORRECTIONS, TAILS, POSITIVE, POSITIVE)
def test_lattice_operations_match_the_pointwise_oracle(fc, ft, gc, gt, c, r):
    f, g = TailElement(fc, ft), TailElement(gc, gt)
    ref_f = functools.partial(reference_value, fc, ft)
    ref_g = functools.partial(reference_value, gc, gt)
    sign = leading_sign(tail_difference(f, g))  # eventual sign of f - g
    horizon = f.crossover(g)[1] + 20
    meet, join = f.meet(g), f.join(g)
    assert meet.tail == (f.tail if sign <= 0 else g.tail)
    assert join.tail == (f.tail if sign >= 0 else g.tail)
    af = abs(f)
    assert af.tail == (f.tail if leading_sign(f.tail) >= 0
                       else tuple(-x for x in f.tail))
    for n in range(1, horizon + 1):
        assert meet.value(n) == min(ref_f(n), ref_g(n))
        assert join.value(n) == max(ref_f(n), ref_g(n))
        assert af.value(n) == abs(ref_f(n))
    for res in (meet, join, af):
        assert max(res.correction, default=0) <= horizon
    # past the corrections and total/min(c, r), the tail stays below c and r
    total = sum(abs(x) for x in ft)
    limit = max(fc, default=0) + math.ceil(total / min(c, r)) + 20
    low, excess = af.meet_const(c), af.tminus(r)
    assert low.tail == af.tail and excess.tail == ()
    for n in range(1, limit + 1):
        v = abs(ref_f(n))
        assert low.value(n) == min(v, c)
        assert excess.value(n) == max(v - r, 0)
    assert max(low.correction, default=0) <= limit
    assert max(excess.correction, default=0) <= limit
