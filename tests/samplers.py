"""Seeded member samplers for the two finite trunc models, shared by tests.

The library decides every verdict on a SimpleTrunc without samples, so its
sampler lives here: the sampled references that the exact verdicts are
checked against draw from it.
"""

from fractions import Fraction as F

from trunclab.elements import SimpleElement, SimpleTrunc
from trunclab.rat import sorted_labels

COEFFS = [F(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def simple_samples(trunc, rng, count, nonneg=False):
    """Seeded members of a SimpleTrunc, |g| when nonneg: sums of one to three
    component functions, each scaled by a value from COEFFS."""
    comps = sorted(trunc.components, key=lambda s: (len(s), str(sorted_labels(s))))
    out = []
    for _ in range(count):
        g = SimpleElement.zero(trunc.space)
        for _ in range(rng.randint(1, 3)):
            s = comps[rng.randrange(len(comps))]
            g = g + SimpleElement.chi(trunc.space, s).scale(
                COEFFS[rng.randrange(len(COEFFS))])
        out.append(abs(g) if nonneg else g)
    return out


def sample_elements(model, rng, count, nonneg=False):
    """Seeded members of either model, |g| when nonneg: SeqTrunc draws its own."""
    if isinstance(model, SimpleTrunc):
        return simple_samples(model, rng, count, nonneg)
    out = model.sample_elements(rng, count)
    return [abs(g) for g in out] if nonneg else out
