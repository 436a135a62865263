"""Hyperarchimedean verdicts via the forced cardinal-summand decomposition.

For a pair (f, g) with g >= 0 the only candidate splitting of f across the
principal convex subtrunc of g and its polar is f_g = f restricted to the
cozero set of g.  A model is refuted as soon as some sampled pair has
f_g outside the carrier or |f_g| not dominated by any multiple of g; the
refutation witness is exact, acceptance remains sampled.
"""

import random

from .errors import BudgetError
from .records import record


@record
class HyperVerdict:
    passed: bool
    samples: int
    witness: tuple = None  # (f, g, reason) on refutation

    def __repr__(self):
        if self.passed:
            return f"HyperVerdict(pass, {self.samples} samples)"
        return f"HyperVerdict(FAIL, witness={self.witness})"


def hyperarchimedean(model, budget=200, seed=0):
    """Sampled verdict with exact per-pair checks and exact refutations.

    The canonical refuting pair (1/n tail, 1/n^2 tail) is tested first on
    degree >= 2 sequence truncs, making that refutation deterministic.
    """
    if budget <= 0:
        raise BudgetError("hyperarchimedean needs a positive budget")
    rng = random.Random(seed)
    units = model.tail_units()
    pairs = [(units[0], units[1])] if len(units) >= 2 else []
    fs = model.sample_elements(rng, budget)
    gs = model.sample_elements(rng, budget, nonneg=True)
    pairs += list(zip(fs, gs))
    for count, (f, g) in enumerate(pairs, start=1):
        f_g = f.restrict_to_cozero_of(g)
        if f_g not in model:
            return HyperVerdict(False, count, (f, g, "forced part not a member"))
        if not f_g.dominated_by(g):
            return HyperVerdict(False, count, (f, g, "forced part not dominated"))
    return HyperVerdict(True, len(pairs))
