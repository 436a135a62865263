"""Brute-force cross-checks of every symbolic quantifier collapse.

The kernel conditions and the tail arithmetic replace infinitary
quantifiers with threshold arguments; these tests replay the quantifiers
directly over long finite prefixes and compare.
"""

import random
from fractions import Fraction as F

from samplers import sample_elements
from test_kernels import condition1_hypothesis
from test_seqspace import poly_sign

from trunclab.elements import SimpleTrunc, lc
from trunclab.kernels import KernelSpec, SeqKernel, SupportKernel
from trunclab.seqspace import SeqTrunc
from trunclab.spaces import space

X3 = space("1", "2", "3")
T = SimpleTrunc(X3, [set(), {"1", "2"}, {"3"}, {"1", "2", "3"}])


def _kernels_for(degree):
    trunc = SeqTrunc(degree)
    specs = [KernelSpec(trunc, support=None,
                        tails_allowed=(False,) * degree),
             KernelSpec(trunc, support=None,
                        tails_allowed=(True,) * degree),
             KernelSpec(trunc, support=frozenset({1, 3, 4}))]
    if degree == 2:
        specs.append(KernelSpec(trunc, support=None,
                                tails_allowed=(False, True)))
    return trunc, specs


def _all_kernels():
    """(trunc, kernels) on the sequence model and on two finite-space truncs."""
    yield _kernels_for(1)
    yield _kernels_for(2)
    full = lc(X3)
    yield full, [KernelSpec(full, support=s)
                 for s in (set(), {"1"}, {"1", "2"}, None)]
    yield T, [KernelSpec(T, support=s) for s in ({"1", "2"}, {"3"}, None)]


def _hyp1_brute(spec, g, h, upto):
    """(n|g| - h)+ in K for n = 1..upto."""
    ag = abs(g)
    return all(spec.contains((ag.scale(n) - h).join(g.scale(0)))
               for n in range(1, upto + 1))


def _hyp3_brute(spec, g, upto):
    """tminus(1/n)(g) in K for n = 1..upto."""
    return all(spec.contains(g.tminus(F(1, n))) for n in range(1, upto + 1))


def test_poly_sign_bound_brute():
    rng = random.Random(41)
    for _ in range(200):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(rng.randint(1, 4))]
        sign, bound = poly_sign(coeffs)
        for n in range(bound, bound + 120):
            val = sum(c * F(1, n ** k) for k, c in enumerate(coeffs))
            if sign == 0:
                assert val == 0
            else:
                assert val * sign > 0


def test_max_value_brute():
    rng = random.Random(42)
    for degree in (1, 2):
        trunc = SeqTrunc(degree)
        for _ in range(60):
            g = abs(trunc.sample_elements(rng, 1)[0])
            reported = g.max_value()
            horizon = max(g.correction, default=0) + 400
            brute = max((g.value(n) for n in range(1, horizon + 1)),
                        default=F(0))
            assert reported == brute


def test_kernel_classes_follow_the_model():
    for trunc, specs in _all_kernels():
        cls = SeqKernel if isinstance(trunc, SeqTrunc) else SupportKernel
        assert all(type(spec) is cls for spec in specs)


def test_condition1_hypothesis_matches_brute_quantifier():
    rng = random.Random(43)
    for trunc, specs in _all_kernels():
        for spec in specs:
            pool = sample_elements(trunc, rng, 30) + trunc.tail_units()
            hpool = [abs(h) for h in sample_elements(trunc, rng, 30)]
            hpool += trunc.tail_units()
            for i, g in enumerate(pool):
                h = hpool[i % len(hpool)]
                claimed = condition1_hypothesis(spec, g, h)
                # claimed True must make every prefix member; claimed False
                # must be witnessed at n = 200, past every stable threshold
                if claimed:
                    assert _hyp1_brute(spec, g, h, 44)
                else:
                    ag = abs(g)
                    assert not spec.contains((ag.scale(200) - h).join(g.scale(0)))


def test_condition3_collapse_matches_brute_quantifier():
    rng = random.Random(44)
    for trunc, specs in _all_kernels():
        for spec in specs:
            verdict = spec.condition3()
            if verdict.passed:
                # no g >= 0 meets the hypothesis up to n = 200 outside K
                pool = [abs(g) for g in sample_elements(trunc, rng, 30)]
                for g in trunc.tail_units() + pool:
                    assert spec.contains(g) or not _hyp3_brute(spec, g, 200)
            else:
                witness = verdict.witness
                assert not spec.contains(witness)
                assert _hyp3_brute(spec, witness, 200)
