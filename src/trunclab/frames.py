"""Finite pointed frames and step-valued frame reals.

A finite frame is a finite distributive lattice; its Heyting implication,
pseudocomplements, rather-below relation and complemented part are derived
tables.  A frame real is a partition of the top into complemented cells,
each carrying a rational value (extended reals allowed for the D-type used
by drop/lift computations); the cell containing the designated point
carries 0.  Induced operations are computed cell-wise and certified against
the join-of-meets formula evaluated on a rational grid; surjections carry
their adjoints, with density decided exactly.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .elements import (OPS, ZERO, Carrier, DiniReport, apply_op, cut_grid,
                       is_unital_component)
from .errors import (BudgetError, PositivityError, SpaceMismatchError,
                     StructureError, UnsupportedOperationError, certify)
from .gba import Violation, order_lattice, transitive_closure
from .rat import (NEG_INF, POS_INF, as_fraction, format_label, format_rational,
                  is_finite)


def frame_validate(labels, leq_pairs):
    """Violations of the finite-frame laws for a raw (labels, order) pair."""
    return _frame_tables(labels, leq_pairs)[0]


def _frame_tables(labels, leq_pairs):
    """gba.order_lattice, then distributivity: its first failure, if any."""
    out, tables = order_lattice(labels, leq_pairs)
    if out:
        return out, None
    labels, _, join, meet = tables
    n = len(labels)
    for a, b in itertools.product(range(n), repeat=2):
        ma, jab = meet[a], join[meet[a][b]]
        if [ma[x] for x in join[b]] != [jab[x] for x in ma]:
            c = next(c for c in range(n) if ma[join[b][c]] != jab[ma[c]])
            witness = (labels[a], labels[b], labels[c])
            return [Violation("distributivity", witness)], None
    return out, tables


class FiniteFrame:
    """Validated finite frame with all derived tables precomputed."""

    def __init__(self, labels, leq_pairs):
        violations, tables = _frame_tables(labels, leq_pairs)
        if violations:
            raise StructureError(f"not a finite frame: {violations[:3]}")
        labels, up, self._join, self._meet = tables
        self.labels = tuple(labels)
        self.index = {x: i for i, x in enumerate(self.labels)}
        self._up = up  # bit j of _up[i] is set iff labels[i] <= labels[j]
        bot = up.index((1 << len(up)) - 1)
        self.bottom = self.labels[bot]
        self.top = self.labels[next(i for i, u in enumerate(up) if u == 1 << i)]
        self.pseudo = {x: self.labels[self._implies(i, bot)]
                       for i, x in enumerate(self.labels)}
        self.complemented = frozenset(
            x for x in self.labels if self.join(x, self.pseudo[x]) == self.top)

    @classmethod
    def from_covers(cls, labels, covers):
        labels = list(labels)
        return cls(labels, transitive_closure({(x, x) for x in labels} | set(covers)))

    @classmethod
    def from_sets(cls, family):
        fam = {frozenset(s) for s in family}
        leq = {(a, b) for a in fam for b in fam if a <= b}
        return cls(fam, leq)

    @classmethod
    def chain(cls, size):
        labels = list(range(size))
        return cls(labels, {(i, j) for i in labels for j in labels if i <= j})

    @classmethod
    def product(cls, a, b):
        labels = [(x, y) for x in a.labels for y in b.labels]
        leq = {((x1, y1), (x2, y2))
               for (x1, y1) in labels for (x2, y2) in labels
               if a.leq(x1, x2) and b.leq(y1, y2)}
        return cls(labels, leq)

    def leq(self, x, y):
        return bool(self._up[self.index[x]] >> self.index[y] & 1)

    def join(self, x, y):
        return self.labels[self._join[self.index[x]][self.index[y]]]

    def meet(self, x, y):
        return self.labels[self._meet[self.index[x]][self.index[y]]]

    def join_all(self, xs):
        return reduce(self.join, xs, self.bottom)

    def _implies(self, i, j):
        """Index of i -> j: the join of every k with i ^ k <= j."""
        acc = self.index[self.bottom]
        for k, m in enumerate(self._meet[i]):
            if self._up[m] >> j & 1:
                acc = self._join[acc][k]
        return acc

    def implies(self, x, y):
        return self.labels[self._implies(self.index[x], self.index[y])]

    def rather_below(self, x, y):
        return self.join(self.pseudo[x], y) == self.top

    def complement(self, x):
        if x not in self.complemented:
            raise StructureError(f"{x} is not complemented")
        return self.pseudo[x]

    def derived_tables(self):
        """The computed structure: implication, pseudocomplement, rather-below,
        complemented elements, and trivial compactness at finite scale."""
        rb = {(x, y) for x in self.labels for y in self.labels
              if self.rather_below(x, y)}
        return {"implies": {(x, y): self.implies(x, y)
                            for x in self.labels for y in self.labels},
                "pseudocomplement": dict(self.pseudo),
                "rather_below": rb,
                "complemented": self.complemented,
                "compact": True}

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (isinstance(other, FiniteFrame) and self.labels == other.labels
                and self._up == other._up)

    def __hash__(self):
        return hash(self.labels)


class PointedFiniteFrame:
    """A finite frame with a frame map onto 2, given by its true-filter."""

    def __init__(self, frame, focus=None, true_set=None):
        self.frame = frame
        if true_set is None:
            if focus is None:
                raise StructureError("need a focal element or an explicit filter")
            true_set = frozenset(x for x in frame.labels if frame.leq(focus, x))
        self.true_set = frozenset(true_set)
        self._validate()

    def point(self, x):
        return x in self.true_set

    def _validate(self):
        fr = self.frame
        if not self.point(fr.top) or self.point(fr.bottom):
            raise StructureError("point must send top to top and bottom to bottom")
        t = [self.point(x) for x in fr.labels]
        for (i, x), (j, y) in itertools.product(enumerate(fr.labels), repeat=2):
            if t[fr._meet[i][j]] != (t[i] and t[j]):
                raise StructureError(f"point not meet-preserving at ({x},{y})")
            if t[fr._join[i][j]] != (t[i] or t[j]):
                raise StructureError(f"point not join-preserving at ({x},{y})")

    def __eq__(self, other):
        return (isinstance(other, PointedFiniteFrame)
                and self.frame == other.frame and self.true_set == other.true_set)

    def __hash__(self):
        return hash((self.frame, self.true_set))

    def __repr__(self):
        return f"PointedFiniteFrame({len(self.frame)} elements)"


@dataclass(frozen=True)
class OpenInterval:
    """An open rational interval, optionally closed at infinite endpoints.

    closed_lo/closed_hi model the extended-real opens [-inf, r) and
    (r, +inf]; they are only meaningful when the endpoint is infinite.
    """

    lo: object
    hi: object
    closed_lo: bool = False
    closed_hi: bool = False

    def contains(self, v):
        if v is NEG_INF:
            return bool(self.closed_lo)
        if v is POS_INF:
            return bool(self.closed_hi)
        return ((self.lo is NEG_INF or self.lo < v)
                and (self.hi is POS_INF or v < self.hi))

    def restrict_to_reals(self):
        """The image under U -> U n (-inf, inf), dropping the infinite ends."""
        return OpenInterval(self.lo, self.hi)

    def __repr__(self):
        lo = "[-inf" if self.closed_lo else f"({self.lo}"
        hi = "+inf]" if self.closed_hi else f"{self.hi})"
        return f"{lo},{hi}"


def ray_below(r):
    return OpenInterval(NEG_INF, Fraction(r))


def ray_above(r):
    return OpenInterval(Fraction(r), POS_INF)


def real_line():
    return OpenInterval(NEG_INF, POS_INF)


class FrameReal(Carrier):
    """Step-valued frame real: disjoint complemented cells with join top.

    extended=True admits +/-inf cells (the D-type); pointed=False skips
    the basepoint-cell rule, for deliberately unpointed test elements.
    The operations are cell-wise: _zip combines two operands' values on the
    meets of their cells, _map applies a function to each cell value.
    """

    def __init__(self, pframe, cells, extended=False, pointed=True):
        self.pframe = pframe
        self.extended = extended
        self.pointed = pointed
        fr = pframe.frame
        merged = {}
        for value, cell in cells:
            if is_finite(value):
                value = Fraction(value)
            elif not extended:
                raise StructureError("infinite values need a D-type frame real")
            if cell not in fr.index:
                raise StructureError(f"unknown frame element {cell!r}")
            if cell == fr.bottom:
                continue
            merged[value] = fr.join(merged[value], cell) if value in merged else cell
        self.cells = tuple((v, merged[v]) for v in sorted(merged))
        self._validate()

    def _validate(self):
        fr = self.pframe.frame
        items = self.cells
        for i, (_, c) in enumerate(items):
            for j in range(i + 1, len(items)):
                if fr.meet(c, items[j][1]) != fr.bottom:
                    raise StructureError(
                        f"cells {c!r} and {items[j][1]!r} are not disjoint")
        if fr.join_all(c for _, c in items) != fr.top:
            raise StructureError("cells do not cover the frame")
        if self.pointed:
            pointed_cells = [(v, c) for v, c in items if self.pframe.point(c)]
            if len(pointed_cells) != 1 or pointed_cells[0][0] != 0:
                raise StructureError(
                    "the cell containing the designated point must carry 0")

    @classmethod
    def zero(cls, pframe):
        return cls(pframe, [(Fraction(0), pframe.frame.top)])

    def values(self):
        return [v for v, _ in self.cells]

    def to_json(self):
        """The report form: each cell value to its frame element."""
        return {format_rational(v): format_label(c) for v, c in self.cells}

    def finite_part_join(self):
        fr = self.pframe.frame
        return fr.join_all(c for v, c in self.cells if is_finite(v))

    def eval(self, interval):
        """The frame element assigned to an open interval: join of matching cells."""
        fr = self.pframe.frame
        return fr.join_all(c for v, c in self.cells if interval.contains(v))

    def _zip(self, other, fn):
        if not isinstance(other, FrameReal):
            return NotImplemented
        if self.pframe != other.pframe:
            raise SpaceMismatchError("frame reals over different pointed frames")
        if self.extended or other.extended:
            raise UnsupportedOperationError("arithmetic needs finite-valued operands")
        fr = self.pframe.frame
        cells = []
        for v1, c1 in self.cells:
            for v2, c2 in other.cells:
                c = fr.meet(c1, c2)
                if c != fr.bottom:
                    cells.append((fn(v1, v2), c))
        return FrameReal(self.pframe, cells)

    def _map(self, fn):
        if self.extended:
            raise UnsupportedOperationError("arithmetic needs finite-valued operands")
        return FrameReal(self.pframe, [(fn(v), c) for v, c in self.cells])

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __neg__(self):
        return self._map(operator.neg)

    def scale(self, q):
        q = as_fraction(q)
        return self._map(lambda v: q * v)

    def meet(self, other):
        return self._zip(other, min)

    def join(self, other):
        return self._zip(other, max)

    def _cap(self, c):
        return self._map(lambda v: min(v, c))

    def _excess(self, r):
        return self._map(lambda v: max(v - r, ZERO))

    def is_nonneg(self):
        return all(v >= 0 for v in self.values())

    def leq(self, other):
        diff = other - self
        return diff.is_nonneg()

    def coz(self):
        """The cozero element g(0, inf) v g(-inf, 0)."""
        fr = self.pframe.frame
        return fr.join(self.eval(ray_above(0)), self.eval(ray_below(0)))

    def __eq__(self, other):
        return (isinstance(other, FrameReal) and self.pframe == other.pframe
                and self.cells == other.cells)

    def __hash__(self):
        return hash((self.pframe, self.cells))

    def __repr__(self):
        inner = ", ".join(f"{v}:{c}" for v, c in self.cells)
        return f"FrameReal[{inner}]"


# --- induced operations and the join-of-meets oracle ---------------------

def induced_op(tag, operands, param=None):
    """Induced operation on frame reals: apply_op, certified.

    The cell-wise result is checked against the join-of-meets formula on
    the rational grid generated by the operand values; disagreement raises.
    """
    operands = list(operands)
    if any(g.extended for g in operands):
        raise UnsupportedOperationError("induced operations act on finite-valued reals")
    result = apply_op(tag, operands, param)
    mismatch = oracle_mismatch(tag, operands, result, param)
    certify(mismatch is None, "join-of-meets oracle disagrees", mismatch)
    return result


def _grid_intervals(grid):
    """The line, the rays and the intervals of a grid, None for an unbounded end."""
    return ([(None, None)] + [e for r in grid for e in ((None, r), (r, None))]
            + list(itertools.combinations(grid, 2)))


def _join_inside(join, acc, items, lo, hi):
    """Join into acc the element m of every item (a, b, m) with lo <= a, b <= hi."""
    for a, b, m in items:
        if (lo is None or lo <= a) and (hi is None or b <= hi):
            acc = join[acc][m]
    return acc


def oracle_mismatch(tag, operands, result, param=None):
    """First grid interval where the join-of-meets formula differs, or None.

    The formula joins, over boxes of opens whose image lies inside V, the
    meets of the operand evaluations.  For step-valued operands it suffices
    to consider one tight box around each tuple of operand values: general
    opens decompose into intervals and frame distributivity splits their
    contributions, while a tight box around a value tuple realizes the meet
    of the corresponding cells.  The half-width gamma is chosen so small
    that a tight box's image lies in V exactly when the tuple's value does.

    It runs on ints: grid points, image ends and result cell values (images
    attained at both ends) scaled by twice their common denominator, an
    attained end moved one step inward, so lo <= a and b <= hi is "inside".
    """
    fr = operands[0].pframe.frame
    op = OPS[tag]
    params = () if param is None else (Fraction(param),)
    grid = cut_grid([v for g in operands for v in g.values()] + list(op.kinks(*params)))
    combos = list(itertools.product(*(g.values() for g in operands)))
    outputs = {op.scalar(*combo, *params) for combo in combos}
    d = math.lcm(*(x.denominator for x in [*grid, *outputs]))
    ints = [{x.numerator * (d // x.denominator) for x in xs} for xs in (grid, outputs)]
    gap = min((abs(c - w) for c in ints[0] for w in ints[1] if c != w), default=d)
    gamma = Fraction(gap, d * 2 * (len(operands) + 1))
    tight = [{v: fr.index[g.eval(OpenInterval(v - gamma, v + gamma))]
              for v in g.values()} for g in operands]
    top, bot = fr.index[fr.top], fr.index[fr.bottom]
    boxes = []
    for combo in combos:
        meet = top
        for cell_of, v in zip(tight, combo):
            meet = fr._meet[meet][cell_of[v]]
        if meet != bot:
            boxes.append((*op.image(*[(v - gamma, v + gamma) for v in combo], *params),
                          meet))
    cells = [(v, fr.index[c]) for v, c in result.cells if is_finite(v)]
    ends = [x for box in boxes for x in box[:2]] + [v for v, _ in cells]
    den = 2 * math.lcm(*(x.denominator for x in grid + ends))

    def s(x):
        return x.numerator * (den // x.denominator)

    boxes = [(s(lo) - lo_att, s(hi) + hi_att, m) for lo, hi, lo_att, hi_att, m in boxes]
    cells = [(s(v) - 1, s(v) + 1, m) for v, m in cells]
    for lo, hi in _grid_intervals([s(r) for r in grid]):
        if (_join_inside(fr._join, bot, boxes, lo, hi)
                != _join_inside(fr._join, bot, cells, lo, hi)):
            return OpenInterval(NEG_INF if lo is None else Fraction(lo, den),
                                POS_INF if hi is None else Fraction(hi, den))
    return None


# --- characteristic functions and unital components ----------------------

def chi(pframe, x):
    """Characteristic frame real of a complemented element avoiding the point."""
    fr = pframe.frame
    if x not in fr.complemented:
        raise StructureError(f"{x!r} is not complemented")
    if pframe.point(x):
        raise StructureError("characteristic functions need a cell avoiding the point")
    if x == fr.bottom:
        return FrameReal.zero(pframe)
    return FrameReal(pframe, [(Fraction(1), x), (Fraction(0), fr.complement(x))])


def frame_uc_check(u):
    """True with the complemented witness coz u iff u = truncate(2u)."""
    if not is_unital_component(u):
        return False, None
    witness = u.eval(ray_above(0))
    certify(witness in u.pframe.frame.complemented,
            "coz u of a unital component must be complemented", witness)
    certify(not u.pframe.point(witness),
            "coz u of a unital component must avoid the point", witness)
    return True, witness


# --- surjections, drops and lifts -----------------------------------------

class FrameSurjection:
    """A pointed frame surjection with its precomputed adjoint."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._validate()
        fs, ft = source.frame, target.frame
        self.adjoint = {y: fs.join_all(x for x in fs.labels
                                       if ft.leq(self.mapping[x], y))
                        for y in ft.labels}
        self.dense = all(self.mapping[x] != ft.bottom or x == fs.bottom
                         for x in fs.labels)

    def _validate(self):
        fs, ft = self.source.frame, self.target.frame
        for x in fs.labels:
            if x not in self.mapping or self.mapping[x] not in ft.index:
                raise StructureError(f"map not total at {x!r}")
        if self.mapping[fs.top] != ft.top or self.mapping[fs.bottom] != ft.bottom:
            raise StructureError("map must preserve top and bottom")
        for x in fs.labels:
            for y in fs.labels:
                if self.mapping[fs.join(x, y)] != ft.join(self.mapping[x],
                                                          self.mapping[y]):
                    raise StructureError(f"map not join-preserving at ({x},{y})")
                if self.mapping[fs.meet(x, y)] != ft.meet(self.mapping[x],
                                                          self.mapping[y]):
                    raise StructureError(f"map not meet-preserving at ({x},{y})")
        if set(self.mapping.values()) != set(ft.labels):
            raise StructureError("map not surjective")
        for x in fs.labels:
            if self.target.point(self.mapping[x]) != self.source.point(x):
                raise StructureError(f"map not pointed at {x!r}")

    def __call__(self, x):
        return self.mapping[x]

    def __eq__(self, other):
        return (isinstance(other, FrameSurjection) and self.source == other.source
                and self.target == other.target and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.source, self.target))

    def galois_failure(self):
        """A pair (x, y) where q(x) <= y and x <= adjoint(y) disagree, or None."""
        fs, ft = self.source.frame, self.target.frame
        return next(((x, y) for x in fs.labels for y in ft.labels
                     if ft.leq(self.mapping[x], y) != fs.leq(x, self.adjoint[y])),
                    None)

    def galois_holds(self):
        """q(x) <= y iff x <= adjoint(y), over all pairs."""
        return self.galois_failure() is None


def surjection_tools(q):
    """Adjoint table and exact density flag, with the Galois law certified."""
    failure = q.galois_failure()
    certify(failure is None, "adjoint must satisfy the Galois law", failure)
    return {"adjoint": dict(q.adjoint), "dense": q.dense}


@dataclass
class DropResult:
    ok: bool
    result: object = None  # FrameReal on the target when ok
    condition_value: object = None  # q(h'(-inf, inf)) when refused

    def __repr__(self):
        if self.ok:
            return f"DropResult(ok, {self.result!r})"
        return f"DropResult(refused, condition={self.condition_value!r})"


def drop(q, h_prime):
    """Push a D-type frame real along q when q(h'(-inf,inf)) = top.

    On success the finite-value cells map through q (infinite cells are
    forced to bottom) and the commuting square q o h' = h o p is verified
    on the rational grid; otherwise the failed condition value is returned.
    """
    if h_prime.pframe != q.source:
        raise SpaceMismatchError("h' must live on the source of q")
    ft = q.target.frame
    condition = q(h_prime.finite_part_join())
    if condition != ft.top:
        return DropResult(False, condition_value=condition)
    cells = [(v, q(c)) for v, c in h_prime.cells if is_finite(v)]
    for v, c in h_prime.cells:
        if not is_finite(v):
            certify(q(c) == ft.bottom,
                    "infinite cells must collapse under the condition", (v, c))
    h = FrameReal(q.target, cells, pointed=h_prime.pointed)
    probes = [real_line()]
    for r in cut_grid([v for v in h_prime.values() if is_finite(v)] + [0]):
        probes.append(OpenInterval(NEG_INF, r, closed_lo=True))
        probes.append(OpenInterval(r, POS_INF, closed_hi=True))
        probes.append(ray_below(r))
        probes.append(ray_above(r))
    for u in probes:
        certify(q(h_prime.eval(u)) == h.eval(u.restrict_to_reals()),
                "drop square q o h' = h o p fails", u)
    return DropResult(True, result=h)


@dataclass
class LiftResult:
    ok: bool
    witness: object = None  # FrameReal on the source when ok
    method: str = None
    note: str = None

    def __repr__(self):
        if self.ok:
            return f"LiftResult(ok via {self.method}, {self.witness!r})"
        return f"LiftResult(refuted: {self.note})"


def _certify_lift(q, h, h_prime):
    """Certify q o h' = h o p on the real line and the rays at every cut of h."""
    probes = [real_line()]
    for r in cut_grid(h.values() + [0]):
        probes.append(ray_below(r))
        probes.append(ray_above(r))
    for u in probes:
        certify(q(h_prime.eval(u)) == h.eval(u),
                "the lift must satisfy q o h' = h o p", u)


def e0q_member(q, h, max_frame=20):
    """Find h' on the source with q o h' = h o p, or refute exhaustively.

    All step reals on finite frames are bounded, so a single factorization
    of h itself suffices.  The adjoint candidate cells adjoint(x_i) are
    tried first; if they fail to cover, the fallback enumerates complemented
    preimage cells per value (bounded by max_frame source elements).
    """
    if not q.dense:
        raise StructureError("lifting requires a dense surjection")
    if h.pframe != q.target:
        raise SpaceMismatchError("h must live on the target of q")
    fs = q.source.frame
    cand = [(v, q.adjoint[c]) for v, c in h.cells]
    if fs.join_all(c for _, c in cand) == fs.top:
        h_prime = FrameReal(q.source, cand)
        _certify_lift(q, h, h_prime)
        return LiftResult(True, witness=h_prime, method="adjoint")
    return e0q_exhaustive(q, h, max_frame=max_frame)


def e0q_exhaustive(q, h, max_frame=20):
    """Complete search over complemented partitions of the source."""
    if not q.dense:
        raise StructureError("lifting requires a dense surjection")
    fs = q.source.frame
    if len(fs) > max_frame:
        raise BudgetError(f"source frame exceeds the {max_frame}-element bound")
    target_cells = list(h.cells)
    candidate_sets = []
    for v, x in target_cells:
        cands = [c for c in fs.labels if c in fs.complemented and q(c) == x]
        candidate_sets.append(cands)

    def search(i, chosen, acc):
        if i == len(target_cells):
            return list(chosen) if acc == fs.top else None
        for c in candidate_sets[i]:
            if all(fs.meet(c, d) == fs.bottom for d in chosen):
                found = search(i + 1, chosen + [c], fs.join(acc, c))
                if found is not None:
                    return found
        return None

    cells = search(0, [], fs.bottom)
    if cells is None:
        return LiftResult(False, note="no complemented partition lifts the cells")
    h_prime = FrameReal(q.source, [(v, c) for (v, _), c in zip(target_cells, cells)])
    _certify_lift(q, h, h_prime)
    return LiftResult(True, witness=h_prime, method="exhaustive")


# --- pointwise suprema and Dini --------------------------------------------

def frame_pointwise_sup(family):
    """Cell-wise maximum, verified by the defining join equation at all cuts."""
    family = list(family)
    if not family:
        raise StructureError("pointwise sup of an empty family")
    sup = reduce(lambda a, b: a.join(b), family)
    fr = sup.pframe.frame
    for r in cut_grid([v for g in family + [sup] for v in g.values()]):
        lhs = fr.join_all(g.eval(ray_above(r)) for g in family)
        certify(lhs == sup.eval(ray_above(r)), "pointwise sup fails the cut test", r)
    return sup


def frame_dini(seq):
    """Monotone nonincreasing nonnegative frame reals, last term stable.

    When the stable tail is zero, compactness of the finite frame yields an
    index function epsilon -> m with g_n(-inf, epsilon) = top for n >= m.
    """
    seq = list(seq)
    if not seq:
        raise StructureError("empty sequence")
    fr = seq[0].pframe.frame
    for t in seq:
        if not t.is_nonneg():
            raise PositivityError("frame_dini needs nonnegative terms")
    for i in range(len(seq) - 1):
        if not seq[i + 1].leq(seq[i]):
            raise StructureError(f"sequence not nonincreasing at index {i + 2}")
    if seq[-1] != FrameReal.zero(seq[-1].pframe):
        return DiniReport(False, False, {})
    values = [v for g in seq for v in g.values()] + [0]
    index_map = {}
    for eps in [e for e in cut_grid(values) if e > 0]:
        m = next(i for i in range(1, len(seq) + 1)
                 if all(t.eval(ray_below(eps)) == fr.top for t in seq[i - 1:]))
        index_map[eps] = m
    return DiniReport(True, True, index_map)
