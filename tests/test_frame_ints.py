"""The integer frame reals against the Fraction frame reals they replaced.

RefFrameReal is the earlier FrameReal: Fraction cells keyed by label, every
result rebuilt through the validating constructor, and eval through
interval membership on Fractions.  The reference certifiers below are the earlier
pointwise-sup cut test, Dini index map, drop square and lift probes on
cut_grid's Fractions.  Hypothesis compares them with the integer layer; the
square, now decided at the points of the target, must fail exactly when the
probes do.  ExtendedOpen is the open of the extended line the drop probes use.

old_dini_check, frame_dini and certify_lift are the Dini checks and the lift
certificate from before dini_check served every model and drop and lift
shared one square certificate.
"""

import itertools
import operator
import random
from fractions import Fraction as F
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab import elements, frames
from trunclab.elements import (OPS, ZERO, Carrier, DiniReport, SimpleElement,
                               apply_op, cut_grid, dini_check, pointwise_sup)
from trunclab.errors import (CertificationError, PositivityError,
                             SpaceMismatchError, StructureError,
                             UnsupportedOperationError)
from trunclab.frames import (FrameReal, OpenInterval, _certify_square, drop,
                             e0q_member, ray_above, ray_below)
from trunclab.instances import parse_instance
from trunclab.records import record
from trunclab.rat import NEG_INF, POS_INF, as_fraction, is_finite, label_repr
from trunclab.sampling import (dense_surjection, frame_real, pointed_frame,
                               random_space, simple_element)
from trunclab.seqspace import SeqTrunc, TailElement

from test_frames import interval_contains

SEEDS = st.integers(0, 10**6)


class RefFrameReal(Carrier):
    """The Fraction frame real: the reference for the integer one."""

    def __init__(self, pframe, cells, extended=False, pointed=True):
        self.pframe = pframe
        self.extended = extended
        self.pointed = pointed
        fr = pframe.frame
        merged = {}
        for value, cell in cells:
            if is_finite(value):
                value = F(value)
            elif not extended:
                raise StructureError("infinite values need a D-type frame real")
            if cell not in fr.index:
                raise StructureError(f"unknown frame element {label_repr(cell)}")
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
                        f"cells {label_repr(c)} and {label_repr(items[j][1])} "
                        "are not disjoint")
        if fr.join_all(c for _, c in items) != fr.top:
            raise StructureError("cells do not cover the frame")
        if self.pointed:
            pointed_cells = [(v, c) for v, c in items if self.pframe.point(c)]
            if len(pointed_cells) != 1 or pointed_cells[0][0] != 0:
                raise StructureError(
                    "the cell containing the designated point must carry 0")

    def values(self):
        return [v for v, _ in self.cells]

    def finite_part_join(self):
        return self.pframe.frame.join_all(c for v, c in self.cells if is_finite(v))

    def eval(self, interval):
        fr = self.pframe.frame
        return fr.join_all(c for v, c in self.cells if interval_contains(interval, v))

    def _zip(self, other, fn):
        if self.pframe != other.pframe:
            raise SpaceMismatchError("frame reals over different pointed frames")
        if self.extended or other.extended:
            raise UnsupportedOperationError("arithmetic needs finite-valued operands")
        fr = self.pframe.frame
        cells = [(fn(v1, v2), fr.meet(c1, c2)) for v1, c1 in self.cells
                 for v2, c2 in other.cells if fr.meet(c1, c2) != fr.bottom]
        return RefFrameReal(self.pframe, cells)

    def _map(self, fn):
        if self.extended:
            raise UnsupportedOperationError("arithmetic needs finite-valued operands")
        return RefFrameReal(self.pframe, [(fn(v), c) for v, c in self.cells])

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
        return (other - self).is_nonneg()

    def __repr__(self):
        inner = ", ".join(f"{v}:{c}" for v, c in self.cells)
        return f"FrameReal[{inner}]"


def ref(g):
    return RefFrameReal(g.pframe, g.cells, extended=g.extended, pointed=g.pointed)


def leq(f, g):
    """f <= g for frame reals (FrameReal.leq once)."""
    return (g - f).is_nonneg()


def outcome(fn, *args):
    """The cells of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args).cells
    except (StructureError, PositivityError, UnsupportedOperationError) as exc:
        return type(exc).__name__, str(exc)


def random_intervals(rng, values, count=12):
    """Open intervals, rays and the real line around the given values."""
    finite = sorted({v for v in values if is_finite(v)} | {F(0)})
    points = finite + [v + d for v in finite for d in (F(-1, 3), F(1, 7))]
    ends = [NEG_INF, POS_INF] + points
    return [OpenInterval(NEG_INF, POS_INF)] + [OpenInterval(rng.choice(ends), rng.choice(ends))
                            for _ in range(count)]


@record(frozen=True)
class ExtendedOpen:
    """An open of the extended line: (lo, hi), with [-inf or +inf] joined
    at an infinite end when closed_lo or closed_hi is set."""

    lo: object
    hi: object
    closed_lo: bool = False
    closed_hi: bool = False

    def restrict_to_reals(self):
        return OpenInterval(self.lo, self.hi)

    def contains(self, v):
        if v is NEG_INF:
            return self.closed_lo
        if v is POS_INF:
            return self.closed_hi
        return interval_contains(self.restrict_to_reals(), v)


def dtype_real(rng, pf):
    """A D-type real: a random real's non-point cells sent to +/-inf at random."""
    cells = []
    for v, c in frame_real(rng, pf).cells:
        if v != 0 and rng.random() < 0.5:
            v = rng.choice([NEG_INF, POS_INF])
        cells.append((v, c))
    return cells


PARAMS = [F(2), F(-1, 2), F(0), F(3, 4), F(1), F(2, 3), F(3), F(-5, 2)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_operations_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    pf = pointed_frame(rng)
    f, g = frame_real(rng, pf), frame_real(rng, pf)
    fpos = frame_real(rng, pf, nonneg=True)
    for tag, op in OPS.items():
        for operands in ([f, g], [g, f], [fpos, f]) if op.arity == 2 else ([f], [fpos]):
            param = rng.choice(PARAMS) if op.takes_param else None
            got = outcome(apply_op, tag, operands, param)
            assert got == outcome(apply_op, tag, [ref(x) for x in operands], param), tag
            if not isinstance(got[0], str):
                # the unvalidated result is the validated one
                result = apply_op(tag, operands, param)
                assert result == FrameReal(pf, result.cells)
                assert hash(result) == hash(FrameReal(pf, result.cells))
    assert leq(f, f.join(g)) and leq(f.meet(g), g)
    assert (leq(f, g), f.is_nonneg()) == (ref(f).leq(ref(g)), ref(f).is_nonneg())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_eval_matches_the_fraction_reference(seed):
    rng = random.Random(seed)
    pf = pointed_frame(rng)
    for g in (frame_real(rng, pf), frame_real(rng, pf, nonneg=True).scale(F(5, 3))):
        r = ref(g)
        for u in random_intervals(rng, g.values()):
            assert g.eval(u) == r.eval(u), u
        assert g.values() == r.values() and g.finite_part_join() == r.finite_part_join()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_dtype_cells_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    pf = pointed_frame(rng)
    cells = dtype_real(rng, pf)
    for pointed in (True, False):
        g = FrameReal(pf, cells, extended=True, pointed=pointed)
        r = RefFrameReal(pf, cells, extended=True, pointed=pointed)
        assert g.cells == r.cells and g.values() == r.values()
        assert repr(g) == "FrameReal[" + ", ".join(f"{v}:{c}" for v, c in r.cells) + "]"
        assert g.finite_part_join() == r.finite_part_join()
        assert g.is_nonneg() == r.is_nonneg()
        for u in random_intervals(rng, g.values()):
            assert g.eval(u) == r.eval(u), u
        assert outcome(lambda: g + g) == outcome(lambda: r + r)
        assert outcome(g.scale, 2) == outcome(r.scale, 2)
        assert outcome(g.truncate) == outcome(r.truncate)


def scrambled_cells(rng, pf):
    """A cell list that may break any rule: overlaps, gaps, values at the point."""
    labels = pf.frame.labels
    cells = []
    for _ in range(rng.randint(0, 4)):
        value = rng.choice([F(0), F(1), F(-1, 2), F(3, 2), POS_INF, NEG_INF])
        cells.append((value, rng.choice(labels)))
    return cells


@settings(max_examples=80, deadline=None, derandomize=True)
@given(SEEDS)
def test_validation_matches_the_fraction_reference(seed):
    rng = random.Random(seed)
    pf = pointed_frame(rng)
    for cells in (scrambled_cells(rng, pf), dtype_real(rng, pf),
                  frame_real(rng, pf).cells):
        for extended, pointed in itertools.product((False, True), repeat=2):
            got = outcome(FrameReal, pf, cells, extended, pointed)
            assert got == outcome(RefFrameReal, pf, cells, extended, pointed)


def ref_cut_test(family, sup):
    """The earlier cut test of frame_pointwise_sup: the first failing r."""
    fr = sup.pframe.frame
    for r in cut_grid([v for g in family + [sup] for v in g.values() if is_finite(v)]):
        if fr.join_all(g.eval(ray_above(r)) for g in family) != sup.eval(ray_above(r)):
            return r
    return None


def sup_witness(family, sup):
    """The witness of pointwise_sup when its join of the family is sup."""
    with mock.patch.object(elements, "reduce", lambda fn, items: sup):
        try:
            pointwise_sup(family)
        except CertificationError as exc:
            return exc.witness
    return None


def unpointed_real(rng, pf):
    """A frame real with every value shifted, so the point's cell may not carry 0."""
    shift = F(rng.randint(-3, 3), rng.randint(1, 2))
    return FrameReal(pf, [(v + shift, c) for v, c in frame_real(rng, pf).cells],
                     pointed=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_pointwise_sup_matches_the_fraction_reference(seed):
    """The join and the first failing cut of the frame test; then families
    with unpointed or D-type members against forged sups of every kind, where
    the basepoint's value counts and an infinite value is in no cut."""
    rng = random.Random(seed)
    pf = pointed_frame(rng)
    family = [frame_real(rng, pf) for _ in range(rng.randint(1, 4))]
    sup = pointwise_sup(family)
    assert sup.cells == reduce(RefFrameReal.join, map(ref, family)).cells
    cases = [(family, forged) for forged in
             (sup, sup.scale(F(1, 2)), sup + frame_real(rng, pf), family[0])]
    kinds = [lambda: frame_real(rng, pf), lambda: unpointed_real(rng, pf),
             lambda: FrameReal(pf, dtype_real(rng, pf), extended=True)]
    mixed = [rng.choice(kinds)() for _ in range(rng.randint(1, 3))]
    cases += [(mixed, forged) for forged in (mixed[0], *(kind() for kind in kinds))]
    for members, forged in cases:
        assert sup_witness(members, forged) == ref_cut_test(
            [ref(g) for g in members], ref(forged))


def test_forged_sup_of_an_unpointed_real_fails_at_its_basepoint_value():
    """[un] of tests/golden/spectrum.tl is -2 at the point a; a sup forged to
    -1 there differs from it only at the basepoint, and fails at the cut -2."""
    inst = parse_instance(Path(__file__).resolve().parent / "golden" / "spectrum.tl")
    un = inst.get("un")
    forged = FrameReal(un.pframe, [(-1, "a"), (0, "b")], pointed=False)
    assert un.to_simple() == forged.to_simple()
    assert sup_witness([un], forged) == -2
    assert sup_witness([un], un) is None


def ref_dini(seq):
    fr = seq[0].pframe.frame
    values = [v for g in seq for v in g.values()] + [0]
    return {eps: next(i for i in range(1, len(seq) + 1)
                      if all(t.eval(ray_below(eps)) == fr.top for t in seq[i - 1:]))
            for eps in cut_grid(values) if eps > 0}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_dini_matches_the_fraction_reference(seed):
    rng = random.Random(seed)
    pf = pointed_frame(rng)
    g = frame_real(rng, pf, nonneg=True)
    seq = [g.scale(F(1, k)) for k in range(1, rng.randint(2, 5) + 1)]
    seq += [FrameReal.zero(pf)] * 2
    rep = dini_check(seq)
    assert rep.limit_is_zero and rep.index_map == ref_dini([ref(t) for t in seq])
    if g != FrameReal.zero(pf):
        with pytest.raises(StructureError, match="not nonincreasing at index 3"):
            dini_check(seq[::-1])


def old_dini_check(seq):
    """dini_check before it served frame reals: simple and tail elements."""
    seq = list(seq)
    if not seq:
        raise StructureError("empty sequence")
    for t in seq:
        if not t.is_nonneg():
            raise PositivityError("dini_check needs nonnegative terms")
    for i in range(len(seq) - 1):
        if not (seq[i] - seq[i + 1]).is_nonneg():
            raise StructureError(f"sequence not nonincreasing at index {i + 2}")
    if not seq[-1].is_zero():
        return DiniReport(False, False, {})
    maxima = [t.max_value() for t in seq]
    grid = [e for e in cut_grid(maxima + [0]) if e > 0]
    index_map = {}
    for eps in grid:
        m = next(i for i in range(1, len(seq) + 1)
                 if all(mx < eps for mx in maxima[i - 1:]))
        index_map[eps] = m
    return DiniReport(True, True, index_map)


def frame_dini(seq):
    """The Dini check of frame reals, with its grid on cut_grid's Fractions."""
    seq = list(seq)
    if not seq:
        raise StructureError("empty sequence")
    fr = seq[0].pframe.frame
    for t in seq:
        if not t.is_nonneg():
            raise PositivityError("frame_dini needs nonnegative terms")
    for i in range(len(seq) - 1):
        if not leq(seq[i + 1], seq[i]):
            raise StructureError(f"sequence not nonincreasing at index {i + 2}")
    if seq[-1] != FrameReal.zero(seq[-1].pframe):
        return DiniReport(False, False, {})
    index_map = {}
    grid = cut_grid([v for t in seq for v in t.values() if is_finite(v)] + [0])
    for eps in [e for e in grid if e > 0]:
        m = next(i for i in range(1, len(seq) + 1)
                 if all(t.eval(ray_below(eps)) == fr.top for t in seq[i - 1:]))
        index_map[eps] = m
    return DiniReport(True, True, index_map)


def dini_outcome(fn, seq):
    """The report of fn(seq) as a tuple, or the type and text of what it raised."""
    try:
        rep = fn(seq)
    except (PositivityError, StructureError, UnsupportedOperationError) as exc:
        if isinstance(exc, PositivityError):  # frame_dini named itself here
            return "PositivityError", "dini_check needs nonnegative terms"
        return type(exc).__name__, str(exc)
    return rep.limit_is_zero, rep.uniform, rep.index_map


def dini_sequences(g, h, f, zero):
    """Monotone, reversed, constant and mixed-sign sequences from nonnegative
    g and h and any f."""
    mono = [g.join(h), g, g.meet(h)] + [g.meet(h).scale(F(1, k)) for k in (2, 3)] + [zero]
    return [mono, mono[::-1], [g, g], [g.scale(2), g, zero], [f], [g, f, zero],
            [zero], [h.scale(F(1, 3)), zero, zero]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS)
def test_dini_check_matches_the_old_check_on_every_model(seed):
    rng = random.Random(seed)
    sp, pf, trunc = random_space(rng), pointed_frame(rng), SeqTrunc(rng.randint(0, 2))
    models = [
        (old_dini_check, SimpleElement.zero(sp),
         [simple_element(rng, sp, nonneg=True), simple_element(rng, sp, nonneg=True),
          simple_element(rng, sp)]),
        (old_dini_check, TailElement.zero(),
         [abs(g) for g in trunc.sample_elements(rng, 2)] + trunc.sample_elements(rng, 1)),
        (frame_dini, FrameReal.zero(pf),
         [frame_real(rng, pf, nonneg=True), frame_real(rng, pf, nonneg=True),
          frame_real(rng, pf)]),
    ]
    for old, zero, (g, h, f) in models:
        for seq in dini_sequences(g, h, f, zero):
            assert dini_outcome(dini_check, seq) == dini_outcome(old, seq), seq
    dtype = FrameReal(pf, dtype_real(rng, pf), extended=True)
    for seq in ([dtype], [dtype, dtype], [FrameReal.zero(pf), dtype]):
        assert dini_outcome(dini_check, seq) == dini_outcome(frame_dini, seq), seq


def ref_drop(q, hp, forge=lambda h: h):
    """The earlier drop: (ok, result cells or condition, None), or (True,
    first failing probe, "failed").

    forge stands in for a faulty result: it maps the true result to the one
    the square is checked against.
    """
    ft = q.target.frame
    condition = q(hp.finite_part_join())
    if condition != ft.top:
        return False, condition, None
    h = forge(RefFrameReal(q.target, [(v, q(c)) for v, c in hp.cells if is_finite(v)],
                           pointed=hp.pointed))
    probes = [ExtendedOpen(NEG_INF, POS_INF)]
    for r in cut_grid([v for v in hp.values() if is_finite(v)] + [0]):
        probes += [ExtendedOpen(NEG_INF, r, closed_lo=True),
                   ExtendedOpen(r, POS_INF, closed_hi=True),
                   ExtendedOpen(NEG_INF, r), ExtendedOpen(r, POS_INF)]
    fs = hp.pframe.frame
    bad = next((u for u in probes
                if q(fs.join_all(c for v, c in hp.cells if u.contains(v)))
                != h.eval(u.restrict_to_reals())), None)
    return (True, h.cells, None) if bad is None else (True, bad, "failed")


def ref_lift_probe(q, h, hp):
    """The earlier lift certificate: the first probe where q o h' != h o p."""
    probes = [OpenInterval(NEG_INF, POS_INF)]
    for r in cut_grid(h.values() + [0]):
        probes += [ray_below(r), ray_above(r)]
    return next((u for u in probes if q(hp.eval(u)) != h.eval(u)), None)


def certify_lift(q, h, h_prime):
    """The lift certificate before drop and lift shared _certify_square."""
    probes = [OpenInterval(NEG_INF, POS_INF)]
    for r in cut_grid(h.values() + [0]):
        probes += [ray_below(r), ray_above(r)]
    for u in probes:
        if q(h_prime.eval(u)) != h.eval(u):
            raise CertificationError("the lift must satisfy q o h' = h o p", u)


def lift_witness(q, h, hp, certify=None):
    """The witness of a failing lift square, or None: the target point's label
    from the shared square certificate, or the failing probe of certify."""
    try:
        if certify is None:
            _certify_square(q, hp, h, "the lift must satisfy q o h' = h o p")
        else:
            certify(q, h, hp)
    except CertificationError as exc:
        return exc.witness
    return None


@settings(max_examples=50, deadline=None, derandomize=True)
@given(SEEDS)
def test_drop_square_and_lift_probes_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    pf = pointed_frame(rng, max_points=3)
    q = dense_surjection(rng, pf)
    h = frame_real(rng, q.target)
    lift = e0q_member(q, h)
    if lift.ok:
        assert lift_witness(q, h, lift.witness) is None
        assert ref_lift_probe(q, ref(h), ref(lift.witness)) is None
        for forged in (lift.witness.scale(2), frame_real(rng, q.source)):
            want = ref_lift_probe(q, ref(h), ref(forged))
            got = lift_witness(q, h, forged)
            assert (got is None) == (want is None)
            assert got is None or got in q.target.frame.labels
            assert lift_witness(q, h, forged, certify_lift) == want
    for cells in (dtype_real(rng, q.source), lift.witness.cells if lift.ok else []):
        if not cells:
            continue
        hp = FrameReal(q.source, cells, extended=True)
        assert verdict(drop_outcome(q, hp)) == verdict(ref_drop(q, ref(hp)))
        # a faulty result, twice the true one, fails the square iff the probes do
        with mock.patch.object(frames, "FrameReal",
                               lambda *args, **kw: FrameReal(*args, **kw).scale(2)):
            got = drop_outcome(q, hp)
        assert verdict(got) == verdict(ref_drop(q, ref(hp), forge=lambda h: h.scale(2)))


def verdict(outcome):
    """A drop outcome without a failing square's witness, which is a target
    point's label for drop and a probe for ref_drop."""
    ok, detail, failed = outcome
    return (ok, failed) if failed else outcome


def drop_outcome(q, hp):
    """drop as (ok, result cells or condition, failing probe of the square)."""
    try:
        res = drop(q, hp)
    except CertificationError as exc:
        return True, exc.witness, "failed"
    return (True, res.result.cells, None) if res.ok else (False, res.condition_value, None)


def test_mixed_models_are_a_space_mismatch():
    rng = random.Random(3)
    g = frame_real(rng, pointed_frame(rng))
    for fn in (lambda: g + 1, lambda: g.meet(ref(g)), lambda: g.join("x")):
        with pytest.raises(SpaceMismatchError):
            fn()
