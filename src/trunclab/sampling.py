"""Seeded random generators for all model classes.

Everything is driven by an explicit random.Random instance, so suites are
reproducible from their seed.  Frames come from downset lattices of random
posets (disconnected posets give nontrivial Boolean parts, hence nonzero
frame reals); a random gBa is the ring of sets its seed sets generate.

Each sampled structure is built and validated once per process, after the
draws that pick it, so the draws are those of a fresh build: random_space
keeps one space per point count (at most max_points), _FRAMES keeps one
entry per drawn poset (16 at the default bound of 4 points) holding its
downset frame and the pointed frame of each focus point drawn, and
_dense_options is cached per pointed frame.  Every draw of the same
structure returns the same object, so a caller must treat a sampled space,
frame, pointed frame or surjection as immutable.  Only the values are
drawn afresh: a simple element is written as integer numerators over one
denominator, and a frame real as values on cell indices, checked a
partition of the top by FrameReal._of_cells, not rebuilt from labels.
"""

import itertools
from fractions import Fraction
from functools import cache
from math import lcm

from .elements import ZERO, SimpleElement
from .errors import StructureError, certify
from .frames import FiniteFrame, FrameReal, FrameSurjection, PointedFiniteFrame
from .gba import GeneralizedBooleanAlgebra, transitive_closure
from .rat import chance
from .spaces import PointedBooleanSpace

RATIONAL_POOL = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4)]
POSITIVE_POOL = [q for q in RATIONAL_POOL if q > 0]
MAX_BLOCKS = 3  # a sampled frame real has at most this many valued blocks


def rational(rng, nonneg=False):
    pool = POSITIVE_POOL if nonneg else RATIONAL_POOL
    return pool[rng.randrange(len(pool))]


def simple_element(rng, space, nonneg=False, truncated=False):
    """Each non-basepoint value drawn with chance 3/4, else 0; |g| ^ 1 when
    truncated (a nonneg draw is already nonnegative)."""
    vals = [rational(rng, nonneg=nonneg) if chance(rng, 3, 4) else ZERO
            for _ in space.nonstar]
    den = lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (den // v.denominator) for v in vals]
    if truncated:
        nums = [min(abs(n), den) for n in nums]
    return SimpleElement._canonical(space, tuple(nums), den)


def closed_set_family(rng, base, seeds=3):
    """The ring of sets (closed under union, intersection and difference)
    that seeds random subsets of base generate: every union of the nonempty
    classes of points that lie in the same seed sets."""
    base = list(base)
    drawn = [frozenset(p for p in base if chance(rng, 1, 2)) for _ in range(seeds)]
    classes = {}
    for p in frozenset().union(*drawn):
        classes.setdefault(tuple(p in s for s in drawn), set()).add(p)
    classes = list(classes.values())
    return frozenset(frozenset().union(*combo) for r in range(len(classes) + 1)
                     for combo in itertools.combinations(classes, r))


def random_gba(rng, max_base=4):
    base = [f"e{i}" for i in range(rng.randint(1, max_base))]
    return GeneralizedBooleanAlgebra.from_sets(closed_set_family(rng, base))


def random_poset(rng, size):
    """A random poset on 0..size-1 as a reflexive-transitive leq set."""
    leq = {(i, i) for i in range(size)}
    for i in range(size):
        for j in range(i + 1, size):
            if chance(rng, 2, 5):
                leq.add((i, j))
    return transitive_closure(leq)


class _Poset:
    """The catalogue entry of one drawn poset: its downset frame and points,
    and the validated pointed frame of each focus position drawn."""

    __slots__ = ("frame", "points", "pointed")

    def __init__(self, frame, points):
        self.frame, self.points, self.pointed = frame, points, {}


_FRAMES = {}  # (n1, n2, leq1, leq2) -> _Poset, filled by _poset_entry


def _poset_entry(rng, max_points):
    """The _FRAMES entry of a random poset of at most max_points points, split
    into two comparability components so the frame has nontrivial
    complemented elements.  The entry is looked up by the drawn poset
    (n1, n2, leq1, leq2) after the draws, so the draws are those of a fresh
    build, and is built once per process."""
    if max_points < 2:
        raise StructureError("a downset frame of two components needs max_points >= 2, "
                             f"got {max_points}")
    n1 = rng.randint(1, max_points // 2)
    n2 = rng.randint(1, max_points - n1)
    key = n1, n2, frozenset(random_poset(rng, n1)), frozenset(random_poset(rng, n2))
    if key not in _FRAMES:
        leq1, leq2 = key[2:]
        points = tuple([("a", i) for i in range(n1)] + [("b", i) for i in range(n2)])
        leq = {((s, i), (s, j)) for s, rel in (("a", leq1), ("b", leq2)) for i, j in rel}
        below = {p: frozenset(q for q in points if (q, p) in leq) for p in points}
        downsets = {frozenset().union(*map(below.get, combo))
                    for r in range(len(points) + 1)
                    for combo in itertools.combinations(points, r)}
        _FRAMES[key] = _Poset(FiniteFrame.from_sets(downsets), points)
    return _FRAMES[key]


def pointed_frame(rng, max_points=4):
    """A pointed downset frame; the point is membership of a chosen poset point."""
    entry = _poset_entry(rng, max_points)
    k = rng.randrange(len(entry.points))
    if k not in entry.pointed:
        focus_pt = entry.points[k]
        entry.pointed[k] = PointedFiniteFrame(
            entry.frame, true_set=frozenset(d for d in entry.frame.labels if focus_pt in d))
    return entry.pointed[k]


def frame_real(rng, pframe, nonneg=False):
    """A random step frame real: group the Boolean atoms into valued blocks,
    the block holding the point valued 0.  A block description that does
    not partition the top fails its certificate."""
    fr = pframe.frame
    blocks = {}  # drawn block -> atoms, in the order first drawn
    for a in fr._atoms:
        blocks.setdefault(rng.randrange(MAX_BLOCKS), []).append(a)
    cells = []
    for members in blocks.values():
        cell = fr._join_of(members)
        cells.append((ZERO if pframe._true >> cell & 1 else rational(rng, nonneg=nonneg), cell))
    try:
        return FrameReal._of_cells(pframe, cells)
    except StructureError as exc:
        certify(False, f"the blocks of Boolean atoms must partition the top: {exc}",
                [fr.labels[c] for _, c in cells])


def booleanization(pframe):
    """x -> x** onto the complemented part, when that is a pointed surjection.

    Double pseudocomplements land in the complemented sublattice only for
    some finite frames (the three-chain, Boolean frames, products of such);
    when any condition fails the constructor rejects and None is returned.
    """
    fr = pframe.frame
    mapping = {x: fr.pseudo[fr.pseudo[x]] for x in fr.labels}
    if any(y not in fr.complemented or pframe.point(y) != pframe.point(x)
           for x, y in mapping.items()):
        return None
    comp = [x for x in fr.labels if x in fr.complemented]
    try:
        target = PointedFiniteFrame(
            fr.subframe(comp), true_set=frozenset(c for c in comp if pframe.point(c)))
        return FrameSurjection(pframe, target, mapping)
    except StructureError:
        return None


def open_quotient(pframe, y):
    """x -> x ^ y onto the downset of y; dense iff y is a dense element."""
    fr = pframe.frame
    down = [x for x in fr.labels if fr.leq(x, y)]
    mapping = {x: fr.meet(x, y) for x in fr.labels}
    if not pframe.point(y):
        return None
    target = PointedFiniteFrame(fr.subframe(down),
                                true_set=frozenset(x for x in down if pframe.point(x)))
    return FrameSurjection(pframe, target, mapping)


@cache
def _dense_options(pframe):
    """The dense pointed surjections out of pframe as a tuple, built once per
    pointed frame: the open quotients onto its dense elements, the
    booleanization when it is one, and the identity."""
    fr = pframe.frame
    options = [open_quotient(pframe, y) for y in fr.labels
               if fr.pseudo[y] == fr.bottom and pframe.point(y)] + [booleanization(pframe)]
    return tuple(q for q in options if q is not None and q.dense) + (
        FrameSurjection(pframe, pframe, {x: x for x in fr.labels}),)


def dense_surjection(rng, pframe):
    """A random one of _dense_options(pframe)."""
    options = _dense_options(pframe)
    return options[rng.randrange(len(options))]


_SPACES = {}  # point count -> PointedBooleanSpace, filled by random_space


def random_space(rng, max_points=4):
    """The pointed space {*, 1..n} for a random n in 1..max_points, built
    once per process for each n."""
    n = rng.randint(1, max_points)
    if n not in _SPACES:
        _SPACES[n] = PointedBooleanSpace(frozenset({"*"} | {str(i) for i in range(1, n + 1)}), "*")
    return _SPACES[n]
