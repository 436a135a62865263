"""Hyperarchimedean verdicts via the forced cardinal-summand decomposition.

For a pair (f, g) with g >= 0 the only candidate splitting of f across the
principal convex subtrunc of g and its polar is f_g = f restricted to the
cozero set of g.  A model is hyperarchimedean iff for every pair f_g is a
member and |f_g| <= k*g for some k.  Both finite models decide this from
their tail units alone; a refutation's witness is certified pair by pair.
"""

from .errors import certify
from .records import record


@record
class HyperVerdict:
    passed: bool
    witness: tuple = None  # (f, g, reason) on refutation

    def __repr__(self):
        if self.passed:
            return "HyperVerdict(pass, exact)"
        return f"HyperVerdict(FAIL, witness={self.witness})"


def hyperarchimedean(model):
    """Exact verdict: the model passes iff it has fewer than two tail units.

    A SimpleTrunc has none and passes.  For g >= 0 the cozero set of g is a
    union of level sets of g, so a component, and each level set of f_g is
    one of f met with it, so f_g is a member.  On a finite space support
    containment is domination: k = max |f| / min of g on its cozero set.

    SeqTrunc(d), d <= 1, passes.  Either g has no tail, so f_g is finitely
    supported, or g has a tail c/n with c > 0, so g has finitely many zeros
    and f_g is f changed at finitely many positions.  Either way f_g is a
    member, |f_g(n)| / g(n) = |a| / c past the corrections, and one
    multiple covers the finitely many other positions of the cozero set.

    SeqTrunc(d), d >= 2, fails at (1/n, 1/n^2): 1/n^2 vanishes nowhere, so
    f_g = 1/n, and n^-1 / n^-2 = n is unbounded.  The per-pair checks
    certify this witness before it is returned.
    """
    units = model.tail_units()
    if len(units) < 2:
        return HyperVerdict(True)
    f, g = units[:2]
    f_g = f.restrict_to_cozero_of(g)
    certify(f_g in model and not f_g.dominated_by(g),
            "1/n on the cozero set of 1/n^2 must be a member no multiple "
            "of 1/n^2 dominates", (f, g))
    return HyperVerdict(False, (f, g, "forced part not dominated"))
