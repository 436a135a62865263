"""Round-trip witnesses for the categorical equivalences at finite scale.

Three round trips are constructed explicitly and verified exhaustively:
the Stone/clopen loop on pointed spaces, the idealize/forget loop on
idealized Boolean algebras, and the agreement of the unital-component
algebra of the full simple trunc with the forgotten clopen algebra.
"""

from .elements import lc, uc
from .errors import StructureError
from .gba import (clopen, find_gba_isomorphism, find_iba_isomorphism,
                  iba_forget, idealize, map_failure, stone)
from .records import field, record
from .spaces import pointed_bijection

MAX_POINTS = 6  # the largest pointed space equivalence_witness searches


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
    raised while building the trip is its failure, as the space was valid."""
    try:
        problem = check()
    except StructureError as exc:
        problem = str(exc)
    return RoundTrip(name, problem is None, problem or "")


def equivalence_witness(x):
    """Verify the three round trips for a space of at most MAX_POINTS points.

    Exceeding the bound returns a report flagged incomplete rather than
    running an oversized exhaustive search.
    """
    if len(x.points) > MAX_POINTS:
        return EquivalenceReport(False, [RoundTrip(
            "budget", False, f"{len(x.points)} points exceed the bound {MAX_POINTS}")])
    bi = clopen(x)
    forgotten = None  # forget(B), once the second trip has validated it

    def stone_clopen():
        # finite pointed spaces are discrete: any pointed bijection is an iso
        if pointed_bijection(x, stone(bi)) is None:
            return "no pointed bijection"
        return None

    def idealize_forget():
        nonlocal forgotten
        algebra = iba_forget(bi)
        rebuilt = idealize(algebra)  # raises unless forget(B) is a valid gBa
        forgotten = algebra
        phi = {a: a for a in forgotten.carrier}
        for a in forgotten.carrier:
            phi[rebuilt.algebra.complement[a]] = bi.algebra.complement[a]
        problem = map_failure(phi, rebuilt, bi)
        if problem is not None and find_iba_isomorphism(rebuilt, bi) is not None:
            problem = None
        return problem

    def uc_forget():
        # Relative complements are unique, so valid gBas with equal join and
        # meet tables have equal diff tables: idealize validated forget(B) in
        # the trip before, and uc validates its own result.
        if forgotten is None:
            return "forget(clopen(X)) is not a valid gBa"
        from_trunc = uc(lc(x))
        problem = map_failure({a: a for a in from_trunc.carrier}, from_trunc, forgotten)
        if problem is not None and find_gba_isomorphism(from_trunc, forgotten) is not None:
            problem = None
        return problem

    return EquivalenceReport(True, [
        _trip("stone(clopen(X)) ~ X", stone_clopen),
        _trip("idealize(forget(B)) ~ B", idealize_forget),
        _trip("uc(lc(X)) ~ forget(clopen(X))", uc_forget)])
