"""Round-trip witnesses for the categorical equivalences at finite scale.

Three round trips are constructed explicitly and verified exhaustively:
the Stone/clopen loop on pointed spaces, the idealize/forget loop on
idealized Boolean algebras, and the agreement of the unital-component
algebra of the full simple trunc with the forgotten clopen algebra.
"""

from dataclasses import dataclass, field

from .elements import lc, uc
from .gba import (clopen, find_gba_isomorphism, find_iba_isomorphism,
                  iba_forget, idealize, stone)
from .rat import sorted_labels
from .spaces import pointed_bijection


@dataclass
class RoundTrip:
    name: str
    verified: bool
    detail: str = ""


@dataclass
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


def _verify_iba_map(phi, bi, bj):
    ai, aj = bi.algebra, bj.algebra
    if len(set(phi.values())) != len(ai.carrier):
        return "not bijective"
    for x in ai.carrier:
        if phi[ai.complement[x]] != aj.complement[phi[x]]:
            return f"complement mismatch at {x!r}"
        for y in ai.carrier:
            if phi[ai.join[(x, y)]] != aj.join[(phi[x], phi[y])]:
                return f"join mismatch at ({x!r},{y!r})"
            if phi[ai.meet[(x, y)]] != aj.meet[(phi[x], phi[y])]:
                return f"meet mismatch at ({x!r},{y!r})"
    if {phi[x] for x in bi.ideal} != set(bj.ideal):
        return "ideal not preserved"
    return None


def _gba_tables_equal(a, b):
    if a.carrier != b.carrier or a.bottom != b.bottom:
        return "carriers differ"
    for x in a.carrier:
        for y in a.carrier:
            if a.join[(x, y)] != b.join[(x, y)] or a.meet[(x, y)] != b.meet[(x, y)]:
                return f"tables differ at ({x!r},{y!r})"
            if a.diff_table and b.diff_table and \
                    a.diff_table[(x, y)] != b.diff_table[(x, y)]:
                return f"diff differs at ({x!r},{y!r})"
    return None


def equivalence_witness(x, max_points=6):
    """Verify the three round trips for a pointed space of bounded size.

    Exceeding the bound returns a report flagged incomplete rather than
    running an oversized exhaustive search.
    """
    if len(x.points) > max_points:
        return EquivalenceReport(False, [RoundTrip(
            "budget", False, f"{len(x.points)} points exceed the bound {max_points}")])
    trips = []

    bi = clopen(x)
    back = stone(bi)
    canonical = {p: frozenset({p}) for p in sorted_labels(x.points)}
    ok = (set(canonical.values()) == set(back.points)
          and canonical[x.star] == back.star)
    if not ok and pointed_bijection(x, back) is not None:
        ok = True
    trips.append(RoundTrip("stone(clopen(X)) ~ X", ok,
                           "" if ok else "no pointed bijection"))

    forgotten = iba_forget(bi)
    rebuilt = idealize(forgotten)
    phi = {a: a for a in forgotten.carrier}
    for a in forgotten.carrier:
        phi[rebuilt.algebra.complement[a]] = bi.algebra.complement[a]
    problem = _verify_iba_map(phi, rebuilt, bi)
    if problem is not None and find_iba_isomorphism(rebuilt, bi) is not None:
        problem = None
    trips.append(RoundTrip("idealize(forget(B)) ~ B", problem is None,
                           problem or ""))

    from_trunc = uc(lc(x))
    problem = _gba_tables_equal(from_trunc, forgotten)
    if problem is not None and find_gba_isomorphism(from_trunc, forgotten) is not None:
        problem = None
    trips.append(RoundTrip("uc(lc(X)) ~ forget(clopen(X))", problem is None,
                           problem or ""))

    return EquivalenceReport(True, trips)
