"""Cross-module property tests mirroring the documented invariants."""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab.elements import SimpleElement, bounded_away_from_zero, lc
from trunclab.equivalences import equivalence_witness
from trunclab.frames import FrameReal, chi, drop, frame_uc_check, ray_above
from trunclab.rat import POS_INF
from trunclab.sampling import (dense_surjection, frame_real, pointed_frame,
                               simple_element)
from trunclab.seqspace import SeqTrunc
from trunclab.spaces import PointedBooleanSpace, space

X3 = space("1", "2", "3")

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def elements(draw_vals):
    return SimpleElement(X3, {"1": draw_vals[0], "2": draw_vals[1],
                              "3": draw_vals[2]})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(rationals, rationals, rationals),
       st.tuples(rationals, rationals, rationals))
def test_vector_lattice_laws(va, vb):
    f, g = elements(va), elements(vb)
    assert f + g == g + f
    assert f.meet(g).join(f) == f
    assert f.join(g) + f.meet(g) == f + g
    assert abs(f) == f.join(-f)
    assert (f - g) + g == f


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(rationals, rationals, rationals),
       st.tuples(rationals, rationals, rationals))
def test_truncation_axioms_hypothesis(va, vb):
    f, g = abs(elements(va)), abs(elements(vb))
    assert (f.truncate() - f.meet(g.truncate())).is_nonneg()
    assert (f - f.truncate()).is_nonneg()
    if f.truncate().is_zero():
        assert f.is_zero()


def test_bounded_away_agrees_with_truncation_on_tails():
    from trunclab.seqspace import bounded_away_from_zero_tail
    rng = random.Random(11)
    for _ in range(50):
        g = abs(SeqTrunc(1).sample_elements(rng, 1)[0])
        if g.is_zero():
            continue
        assert bounded_away_from_zero_tail(g)[0] == \
            bounded_away_from_zero_tail(g.truncate())[0]


def test_strictly_positive_simple_elements_have_clearance():
    rng = random.Random(12)
    for _ in range(50):
        g = simple_element(rng, X3, nonneg=True)
        if g.is_zero():
            continue
        ok, eps = bounded_away_from_zero(g)
        assert ok and eps > 0


def test_split_identities_spot_verified_on_tail_positions():
    rng = random.Random(13)
    for _ in range(25):
        g = abs(SeqTrunc(2).sample_elements(rng, 1)[0])
        n = rng.randint(1, 4)
        lhs = g.trunc_at(n) + g.tminus(n)
        rhs2 = g.trunc_at(n) + g.tminus(n).truncate()
        want2 = g.trunc_at(n + 1)
        for k in range(1, 101):
            assert lhs.value(k) == g.value(k)
            assert rhs2.value(k) == want2.value(k)


def test_characteristic_round_trip_over_all_complemented_cells():
    rng = random.Random(14)
    for _ in range(20):
        pf = pointed_frame(rng)
        fr = pf.frame
        for x in fr.complemented:
            if pf.point(x) or x == fr.bottom:
                continue
            u = chi(pf, x)
            ok, witness = frame_uc_check(u)
            assert ok and witness == x
        g = frame_real(rng, pf, nonneg=True)
        ok, witness = frame_uc_check(g)
        values = set(g.values())
        assert ok == (values <= {F(0), F(1)})
        if ok:
            assert witness == g.eval(ray_above(0))


def test_density_degeneracy():
    # under a dense surjection, a D-type element with a nonbottom infinite
    # cell can never satisfy the drop condition
    rng = random.Random(15)
    checked = 0
    for _ in range(40):
        pf = pointed_frame(rng)
        q = dense_surjection(rng, pf)
        fr = q.source.frame
        cand = [c for c in fr.complemented if c not in (fr.bottom, fr.top)
                and not q.source.point(c)]
        if not cand:
            continue
        cell = cand[0]
        h = FrameReal(q.source, [(POS_INF, cell),
                                 (F(0), fr.complement(cell))], extended=True)
        result = drop(q, h)
        assert not result.ok
        checked += 1
    assert checked > 0


def test_equivalence_budget_flagged():
    big = PointedBooleanSpace(frozenset({"*"} | {str(i) for i in range(9)}), "*")
    report = equivalence_witness(big)
    assert not report.complete
    assert not report.all_verified


def test_equivalence_builds_one_clopen_algebra(monkeypatch):
    from trunclab import equivalences
    calls, plain = [], equivalences.clopen
    monkeypatch.setattr(equivalences, "clopen",
                        lambda x: calls.append(x) or plain(x))
    assert equivalence_witness(X3).all_verified
    assert calls == [X3]


def test_hyper_simple_trunc_samples():
    from test_seqspace import reference_hyperarchimedean

    from trunclab.hyper import hyperarchimedean
    full = lc(X3)
    partial = lc(X3, [frozenset(), frozenset({"1", "2"}), frozenset({"3"}),
                      frozenset({"1", "2", "3"})])
    for trunc in (full, partial):
        assert hyperarchimedean(trunc).passed
        assert reference_hyperarchimedean(trunc, budget=100, seed=5).passed


def test_uniform_convergence_criteria_agree():
    # three formulations of "converges uniformly to zero" coincide:
    # scaled truncations stabilize, max values shrink, and lower cuts hit top
    from trunclab.elements import dini_check
    rng = random.Random(16)
    for _ in range(30):
        g = abs(simple_element(rng, X3)).truncate()
        seq = [g.scale(F(1, n)) for n in range(1, 6)] + \
            [SimpleElement(X3, {})] * 2
        rep = dini_check(seq)
        assert rep.limit_is_zero
        for k in (1, 2, 3):
            # least m with k*g_n = truncate(k*g_n) for n >= m
            m_trunc = next(
                m for m in range(1, len(seq) + 1)
                if all(t.scale(k).truncate() == t.scale(k) for t in seq[m - 1:]))
            m_max = next(
                m for m in range(1, len(seq) + 1)
                if all(t.max_value() <= F(1, k) for t in seq[m - 1:]))
            assert m_trunc == m_max


def test_monotone_limits_respect_operations():
    # nonincreasing-to-zero sequences stay so under join, sum, and scaling
    from trunclab.elements import dini_check
    rng = random.Random(17)
    for _ in range(25):
        f = abs(simple_element(rng, X3))
        g = abs(simple_element(rng, X3))
        sf = [f.scale(F(1, n)) for n in range(1, 5)] + [SimpleElement(X3, {})]
        sg = [g.scale(F(1, n)) for n in range(1, 5)] + [SimpleElement(X3, {})]
        for combo in ([a.join(b) for a, b in zip(sf, sg)],
                      [a + b for a, b in zip(sf, sg)],
                      [a.scale(F(3, 2)) for a in sf]):
            rep = dini_check(combo)
            assert rep.limit_is_zero and rep.uniform
