"""Finite pointed Boolean spaces: a finite label set with one designated point."""

from .errors import StructureError
from .rat import sorted_labels
from .records import record


@record(frozen=True)
class PointedBooleanSpace:
    """A finite set of opaque point labels plus a designated basepoint."""

    points: frozenset
    star: object

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(self.points))
        if self.star not in self.points:
            raise StructureError(f"star {self.star!r} not in points")
        # not record fields, so equality and hash ignore them; _index maps
        # each non-basepoint label to its position in nonstar
        nonstar = tuple(p for p in sorted_labels(self.points) if p != self.star)
        object.__setattr__(self, "_nonstar", nonstar)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(nonstar)})

    @property
    def nonstar(self):
        """The non-designated points, in deterministic order."""
        return self._nonstar

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        pts = ",".join(str(p) for p in sorted_labels(self.points))
        return f"PointedBooleanSpace({{{pts}}}, star={self.star})"


def space(*nonstar_points, star="*"):
    """Convenience constructor: space('1','2','3') with default basepoint '*'."""
    return PointedBooleanSpace(frozenset(nonstar_points) | {star}, star)
