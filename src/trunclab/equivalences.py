"""Round-trip witnesses for the categorical equivalences at finite scale.

Three round trips are constructed explicitly, and each is decided by its
canonical map alone, checked on every element: p -> {p} for the Stone/clopen
loop on pointed spaces, a -> a with a' -> not a for the idealize/forget loop
on idealized Boolean algebras, and the identity from the unital-component
algebra of the full simple trunc onto the forgotten clopen algebra.
"""

from .elements import lc, uc
from .errors import CertificationError, StructureError
from .gba import Primed, clopen, iba_forget, idealize, map_failure, stone
from .records import field, record

MAX_POINTS = 6  # bounds clopen's 2^n subsets and map_failure's 4^n pairs


@record
class RoundTrip:
    name: str
    verified: bool
    detail: str = ""


@record
class EquivalenceReport:
    complete: bool
    trips: list = field(default_factory=list)

    @property
    def all_verified(self):
        return self.complete and all(t.verified for t in self.trips)

    def __repr__(self):
        body = "; ".join(f"{t.name}: {'ok' if t.verified else 'FAIL ' + t.detail}"
                         for t in self.trips)
        head = "" if self.complete else "INCOMPLETE "
        return f"EquivalenceReport({head}{body})"


def _trip(name, check):
    """The RoundTrip of check() -> None or a failure message; a StructureError
    or a failed certificate raised while building the trip is its failure, as
    the space was valid."""
    try:
        problem = check()
    except (StructureError, CertificationError) as exc:
        problem = str(exc)
    return RoundTrip(name, problem is None, problem or "")


def equivalence_witness(x):
    """Check the three round trips' canonical maps on a space of at most MAX_POINTS points.

    Exceeding the bound returns a report flagged incomplete rather than
    building the 2^n-element clopen algebra.
    """
    if len(x.points) > MAX_POINTS:
        return EquivalenceReport(False, [RoundTrip(
            "budget", False, f"{len(x.points)} points exceed the bound {MAX_POINTS}")])
    bi = clopen(x)
    forgotten = None  # forget(B), once the second trip has validated it

    def stone_clopen():
        back = stone(bi)  # the unit p -> {p}: its points are the singletons
        if back.points != {frozenset({p}) for p in x.points} or back.star != {x.star}:
            return f"not the unit p -> {{p}}: {back!r}"
        return None

    def idealize_forget():
        nonlocal forgotten
        algebra = iba_forget(bi)
        rebuilt = idealize(algebra)  # raises unless forget(B) is a valid gBa
        forgotten = algebra
        phi = {a: a for a in forgotten.labels} | {
            Primed(a): bi.algebra.complement(a) for a in forgotten.labels}
        return map_failure(phi, rebuilt, bi)

    def uc_forget():
        # Relative complements are unique, so valid gBas with equal join and
        # meet tables have equal diff tables: idealize validated forget(B) in
        # the trip before, and uc validates its own result.
        if forgotten is None:
            return "forget(clopen(X)) is not a valid gBa"
        from_trunc = uc(lc(x))
        return map_failure({a: a for a in from_trunc.carrier}, from_trunc, forgotten)

    return EquivalenceReport(True, [
        _trip("stone(clopen(X)) ~ X", stone_clopen),
        _trip("idealize(forget(B)) ~ B", idealize_forget),
        _trip("uc(lc(X)) ~ forget(clopen(X))", uc_forget)])
