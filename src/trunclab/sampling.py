"""Seeded random generators for all model classes.

Everything is driven by an explicit random.Random instance, so suites are
reproducible from their seed.  Frames come from downset lattices of random
posets (disconnected posets give nontrivial Boolean parts, hence nonzero
frame reals); set families are closed under the Boolean operations by
saturation.

A sampled downset frame is built once per process and shared by every draw
of the same poset (see downset_frame), so a caller must treat a sampled
frame, like every FiniteFrame, as immutable.
"""

import itertools
from fractions import Fraction

from .elements import SimpleElement
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
    vals = {}
    for p in space.nonstar:
        if chance(rng, 3, 4):
            vals[p] = rational(rng, nonneg=nonneg)
    g = SimpleElement(space, vals)
    if nonneg:
        g = abs(g)
    if truncated:
        g = abs(g).truncate()
    return g


def closed_set_family(rng, base, seeds=3):
    """A family of subsets closed under union/intersection/difference."""
    base = list(base)
    family = {frozenset()}
    for _ in range(seeds):
        s = frozenset(p for p in base if chance(rng, 1, 2))
        family.add(s)
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                for r in (a | b, a & b, a - b):
                    if r not in family:
                        family.add(r)
                        changed = True
    return frozenset(family)


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


_FRAMES = {}  # (n1, n2, leq1, leq2) -> (frame, points), filled by _poset_frame


def _poset_frame(n1, n2, leq1, leq2):
    """(frame, points) of the downsets of the two components leq1 and leq2.
    A frame is built once per process and kept in _FRAMES."""
    key = (n1, n2, leq1, leq2)
    if key not in _FRAMES:
        points = tuple([("a", i) for i in range(n1)] + [("b", i) for i in range(n2)])
        leq = {((s, i), (s, j)) for s, rel in (("a", leq1), ("b", leq2)) for i, j in rel}
        below = {p: frozenset(q for q in points if (q, p) in leq) for p in points}
        downsets = {frozenset().union(*map(below.get, combo))
                    for r in range(len(points) + 1)
                    for combo in itertools.combinations(points, r)}
        _FRAMES[key] = FiniteFrame.from_sets(downsets), points
    return _FRAMES[key]


def downset_frame(rng, max_points=4):
    """Frame of downsets of a random poset of at most max_points points.

    The poset is split into two comparability components so the frame has
    nontrivial complemented elements.  The frame is looked up by its drawn
    poset (n1, n2, leq1, leq2) after the draws, so the draws are those of a
    fresh build, and the points come as a tuple.  The cache holds one frame
    per poset drawn: 16 at the default max_points=4.
    """
    if max_points < 2:
        raise StructureError("a downset frame of two components needs max_points >= 2, "
                             f"got {max_points}")
    n1 = rng.randint(1, max_points // 2)
    n2 = rng.randint(1, max_points - n1)
    return _poset_frame(n1, n2, frozenset(random_poset(rng, n1)),
                        frozenset(random_poset(rng, n2)))


def pointed_frame(rng, max_points=4):
    """A pointed downset frame; the point is membership of a chosen poset point."""
    frame, points = downset_frame(rng, max_points)
    focus_pt = points[rng.randrange(len(points))]
    true_set = frozenset(d for d in frame.labels if focus_pt in d)
    return PointedFiniteFrame(frame, true_set=true_set)


def frame_real(rng, pframe, nonneg=False):
    """A random step frame real: group the Boolean atoms into valued blocks.
    Bottom up (larger up-sets first), a nonzero complemented element is an
    atom iff no atom found so far lies below it."""
    fr = pframe.frame
    atoms, above = [], 0
    for i in sorted(map(fr.index.get, fr.complemented - {fr.bottom}),
                    key=lambda i: -fr._up[i].bit_count()):
        if not above >> i & 1:
            atoms.append(i)
            above |= fr._up[i]
    blocks = {}
    for i in sorted(atoms):
        blocks.setdefault(rng.randrange(MAX_BLOCKS), []).append(i)
    cells, point_cell = [], None
    for members in blocks.values():
        cell = fr.labels[fr._join_of(members)]
        if pframe.point(cell):
            point_cell = cell
        else:
            cells.append((rational(rng, nonneg=nonneg), cell))
    certify(point_cell is not None, "the point must lie in one block of Boolean atoms",
            [fr.labels[i] for i in sorted(atoms)])
    return FrameReal(pframe, cells + [(Fraction(0), point_cell)])


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


def dense_surjection(rng, pframe):
    """A random dense pointed surjection out of pframe (identity fallback)."""
    fr = pframe.frame
    options = [open_quotient(pframe, y) for y in fr.labels
               if fr.pseudo[y] == fr.bottom and pframe.point(y)] + [booleanization(pframe)]
    options = [q for q in options if q is not None and q.dense]
    options.append(FrameSurjection(pframe, pframe, {x: x for x in fr.labels}))
    return options[rng.randrange(len(options))]


def random_space(rng, max_points=4):
    n = rng.randint(1, max_points)
    return PointedBooleanSpace(frozenset({"*"} | {str(i) for i in range(1, n + 1)}), "*")
