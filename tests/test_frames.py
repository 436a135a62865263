"""Finite frames, frame reals, the induced-op oracle, drops and lifts."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab.elements import (OPS, SimpleElement, apply_op, cut_grid, dini_check,
                               pointwise_sup)
from trunclab.errors import (CertificationError, PositivityError,
                             SpaceMismatchError, StructureError,
                             UnsupportedOperationError)
from trunclab.frames import (FiniteFrame, FrameReal, FrameSurjection,
                             OpenInterval, PointedFiniteFrame,
                             chi, drop, e0q_exhaustive, e0q_member,
                             frame_uc_check,
                             _frame_tables, _unpreserved, induced_op, oracle_mismatch,
                             ray_above, ray_below, surjection_tools)
from trunclab.gba import Violation, transitive_closure
from trunclab.instances import parse_instance
from trunclab.rat import NEG_INF, POS_INF, sorted_labels
from trunclab import frames, sampling
from trunclab.sampling import (booleanization, dense_surjection, downset_frame,
                               frame_real, open_quotient, pointed_frame,
                               random_poset)

from test_gba import order_tables

A, B = frozenset({"a"}), frozenset({"b"})
F4 = FiniteFrame.from_sets([frozenset(), A, B, frozenset({"a", "b"})])
PF4 = PointedFiniteFrame(F4, focus=A)
C3 = FiniteFrame.chain(3)


def real_line():
    return OpenInterval(NEG_INF, POS_INF)


def chi_b():
    return chi(PF4, B)


def frame_validate(labels, leq_pairs):
    """Violations of the finite-frame laws for a raw (labels, order) pair."""
    return _frame_tables(labels, leq_pairs)[0]


def implies(frame, x, y):
    """The Heyting implication x -> y: the join of every z with x ^ z <= y."""
    return frame.join_all(z for z in frame.labels if frame.leq(frame.meet(x, z), y))


def rather_below(frame, x, y):
    """x is rather below y: the pseudocomplement of x joins y to the top."""
    return frame.join(frame.pseudo[x], y) == frame.top


def derived_tables(frame):
    """The computed structure: implication, pseudocomplement, rather-below,
    complemented elements, and trivial compactness at finite scale."""
    rb = {(x, y) for x in frame.labels for y in frame.labels
          if rather_below(frame, x, y)}
    return {"implies": {(x, y): implies(frame, x, y)
                        for x in frame.labels for y in frame.labels},
            "pseudocomplement": dict(frame.pseudo),
            "rather_below": rb,
            "complemented": frame.complemented,
            "compact": True}


def frame_from_covers(labels, covers):
    labels = list(labels)
    return FiniteFrame(labels, transitive_closure({(x, x) for x in labels} | set(covers)))


def galois_holds(q):
    """q(x) <= y iff x <= adjoint(y), over all pairs."""
    return q.galois_failure() is None


def test_derived_tables_f4():
    assert F4.pseudo[A] == B
    assert rather_below(F4, A, A)
    assert F4.complemented == frozenset(F4.labels)
    tables = derived_tables(F4)
    assert tables["compact"] is True
    assert tables["implies"][(A, B)] == B and tables["rather_below"] >= {(A, A)}


def test_derived_tables_chain():
    assert C3.pseudo[1] == 0
    assert rather_below(C3, 1, 2)
    assert not rather_below(C3, 1, 1)
    assert C3.complemented == frozenset({0, 2})


def test_pentagon_rejected():
    violations = frame_validate(
        ["o", "a", "b", "c", "i"],
        {(x, x) for x in "oabci"} | {("o", x) for x in "abci"}
        | {(x, "i") for x in "oabc"} | {("a", "c")})
    assert any(v.law == "distributivity" for v in violations)
    with pytest.raises(StructureError):
        frame_from_covers(
            ["o", "a", "b", "c", "i"],
            [("o", "a"), ("a", "c"), ("c", "i"), ("o", "b"), ("b", "i")])


def test_point_validation():
    with pytest.raises(StructureError):
        PointedFiniteFrame(C3, true_set=frozenset({1}))  # misses top
    pf = PointedFiniteFrame(C3, focus=1)
    assert pf.point(1) and pf.point(2) and not pf.point(0)


def test_f4_spectrum_is_a_and_b_with_basepoint_a():
    spectrum = PF4.spectrum
    assert PF4.spectrum is spectrum  # computed once per pointed frame
    assert {F4.labels[p] for p in spectrum.points} == {A, B}
    assert F4.labels[spectrum.star] == A
    u = chi_b()
    assert {F4.labels[p]: u.at(p) for p in spectrum.points} == {A: 0, B: 1}
    assert u.to_simple() == SimpleElement(spectrum, {F4.index[B]: 1})
    w = FrameReal(PF4, [(POS_INF, B), (F(0), A)], extended=True)
    assert w.at(F4.index[B]) is POS_INF
    with pytest.raises(UnsupportedOperationError):
        w.to_simple()


@pytest.mark.parametrize("max_points, seed", [(4, 20), (3, 12)])
def test_spectrum_map_is_an_injective_trunc_homomorphism(max_points, seed):
    """g -> g.to_simple(), the values at the points of the spectrum, commutes
    with every operation tag and tells pointed reals apart: an oracle for the
    cell-wise operations that does not use the join-of-meets formula."""
    rng = random.Random(seed)
    for _ in range(200):
        pf = pointed_frame(rng, max_points=max_points)
        f, g = frame_real(rng, pf), frame_real(rng, pf)
        fpos = frame_real(rng, pf, nonneg=True)
        for tag, op in OPS.items():
            operands = [f, g] if op.arity == 2 else [fpos]
            param = F(rng.randint(1, 5), rng.randint(1, 3)) if op.takes_param else None
            want = apply_op(tag, [x.to_simple() for x in operands], param)
            assert apply_op(tag, operands, param).to_simple() == want, tag
        assert (f == g) == (f.to_simple() == g.to_simple())
        assert FrameReal(pf, f.cells).to_simple() == f.to_simple()


def test_unknown_focal_point_is_a_structure_error():
    with pytest.raises(StructureError) as err:
        PointedFiniteFrame(F4, focus="zz")
    assert str(err.value) == "unknown frame element 'zz'"


def test_chi_eval_cases():
    u = chi_b()
    assert u.eval(ray_below(F(1, 2))) == A
    assert u.eval(ray_above(-1)) == F4.top
    assert u.eval(OpenInterval(F(1, 2), F(3, 2))) == B
    zero = FrameReal.zero(PF4)
    assert zero.eval(ray_below(F(1, 2))) == F4.top
    assert zero.eval(ray_below(0)) == F4.bottom


def test_eval_hom_laws_on_subbase():
    rng = random.Random(21)
    for _ in range(20):
        pf = pointed_frame(rng)
        g = frame_real(rng, pf)
        fr = pf.frame
        assert g.eval(real_line()) == fr.top
        cuts = sorted({F(v) for v in g.values()} | {F(0)})
        cuts += [c + F(1, 3) for c in cuts] + [cuts[0] - 1]
        for r in cuts:
            for s in cuts:
                if r < s:
                    meet = fr.meet(g.eval(ray_above(r)), g.eval(ray_below(s)))
                    assert g.eval(OpenInterval(r, s)) == meet
        assert g.eval(ray_below(cuts[0] - 1)) == fr.bottom


def test_chi_rejects_pointed_cell():
    with pytest.raises(StructureError):
        chi(PF4, A)  # the point lies in A
    with pytest.raises(StructureError):
        chi(PointedFiniteFrame(C3, focus=2), 1)  # not complemented


def test_framereal_validation():
    with pytest.raises(StructureError):
        FrameReal(PF4, [(F(1), F4.top), (F(0), A)])  # not disjoint
    with pytest.raises(StructureError):
        FrameReal(PF4, [(F(1), B)])  # does not cover
    with pytest.raises(StructureError):
        FrameReal(PF4, [(F(1), A), (F(0), B)])  # point cell carries 1
    with pytest.raises(StructureError):
        FrameReal(PF4, [(POS_INF, B), (F(0), A)])  # inf needs dtype


def test_dtype_cells_sorted_by_value():
    labels = ["a", "b", "c", "p"]
    fr = FiniteFrame.from_sets(frozenset(c) for r in range(5)
                               for c in itertools.combinations(labels, r))
    pf = PointedFiniteFrame(fr, focus=frozenset({"p"}))
    g = FrameReal(pf, [(POS_INF, frozenset("a")), (F(1, 2), frozenset("c")),
                       (NEG_INF, frozenset("b")), (F(0), frozenset("p"))],
                  extended=True)
    assert g.values() == [NEG_INF, F(0), F(1, 2), POS_INF]
    assert [c for _, c in g.cells] == [frozenset(x) for x in "bpca"]


def test_induced_op_examples():
    u = chi_b()
    s = induced_op("add", [u, u])
    assert s.cells == ((F(0), A), (F(2), B))
    assert induced_op("truncate", [s]) == u
    assert induced_op("sub", [u, u]) == FrameReal.zero(PF4)
    assert induced_op("scale", [u], param=F(-1)).cells == ((F(-1), B), (F(0), A))
    with pytest.raises(PositivityError):
        induced_op("truncate", [induced_op("scale", [u], param=F(-1))])


def test_infinities_compare_in_the_order_of_the_extended_line():
    line = [NEG_INF, -2, F(-1, 3), 0, F(5, 2), 7, POS_INF]  # increasing
    for (i, a), (j, b) in itertools.product(enumerate(line), repeat=2):
        if a in (NEG_INF, POS_INF) or b in (NEG_INF, POS_INF):
            got = (a < b, a <= b, a > b, a >= b)
            assert got == (i < j, i <= j, i > j, i >= j), (a, b)


def test_oracle_catches_forged_results():
    u = chi_b()
    two_u = u.scale(2)
    wrong_value = FrameReal(PF4, [(F(5), B), (F(0), A)])
    assert oracle_mismatch("truncate", [two_u], wrong_value) is not None
    assert oracle_mismatch("truncate", [two_u], u) is None
    assert oracle_mismatch("add", [u, u], two_u) is None
    swapped = FrameReal(PF4, [(F(-2), B), (F(0), A)])
    assert oracle_mismatch("add", [u, u], swapped) is not None


def test_uc_check():
    ok, witness = frame_uc_check(chi_b())
    assert ok and witness == B
    ok, witness = frame_uc_check(chi_b().scale(2))
    assert not ok


def test_surjection_tools_booleanization():
    pc3 = PointedFiniteFrame(C3, focus=1)
    q = booleanization(pc3)
    tools = surjection_tools(q)
    assert tools["dense"]
    assert tools["adjoint"][q.target.frame.bottom] == 0
    assert tools["adjoint"][q.target.frame.top] == 2


def test_identity_surjection():
    ident = FrameSurjection(PF4, PF4, {x: x for x in F4.labels})
    tools = surjection_tools(ident)
    assert tools["dense"]
    assert all(tools["adjoint"][x] == x for x in F4.labels)


def test_non_dense_surjection_witness():
    two = FiniteFrame.chain(2)
    pc3 = PointedFiniteFrame(C3, focus=2)
    ptwo = PointedFiniteFrame(two, focus=1)
    q = FrameSurjection(pc3, ptwo, {0: 0, 1: 0, 2: 1})
    assert not q.dense
    assert galois_holds(q)


def test_drop_identity_and_refusal():
    ident = FrameSurjection(PF4, PF4, {x: x for x in F4.labels})
    u = chi_b()
    u_ext = FrameReal(PF4, u.cells, extended=True)
    res = drop(ident, u_ext)
    assert res.ok and res.result == u

    two = FiniteFrame.chain(2)
    pc3 = PointedFiniteFrame(C3, focus=2)
    ptwo = PointedFiniteFrame(two, focus=1)
    q = FrameSurjection(pc3, ptwo, {0: 0, 1: 0, 2: 1})
    hp = FrameReal(pc3, [(POS_INF, 2)], extended=True, pointed=False)
    res = drop(q, hp)
    assert not res.ok and res.condition_value == 0


def test_drop_booleanization_zero():
    pc3 = PointedFiniteFrame(C3, focus=1)
    q = booleanization(pc3)
    z = FrameReal(pc3, [(F(0), 2)], extended=True)
    res = drop(q, z)
    assert res.ok and res.result == FrameReal.zero(q.target)


def test_e0q_identity_and_booleanization():
    ident = FrameSurjection(PF4, PF4, {x: x for x in F4.labels})
    u = chi_b()
    lift = e0q_member(ident, u)
    assert lift.ok and lift.witness == u

    pc3 = PointedFiniteFrame(C3, focus=1)
    q = booleanization(pc3)
    z = FrameReal.zero(q.target)
    lift = e0q_member(q, z)
    assert lift.ok and lift.witness == FrameReal.zero(pc3)


def test_e0q_product_example():
    f2 = FiniteFrame.chain(2)
    prod = FiniteFrame.product(C3, f2)
    tgt = FiniteFrame.product(f2, f2)
    mapping = {(x, y): (0 if x == 0 else 1, y) for (x, y) in prod.labels}
    psrc = PointedFiniteFrame(prod, focus=(1, 0))
    ptgt = PointedFiniteFrame(tgt, focus=(1, 0))
    q = FrameSurjection(psrc, ptgt, mapping)
    assert q.dense
    h = chi(ptgt, (0, 1))
    lift = e0q_member(q, h)
    assert lift.ok
    assert lift.witness.cells == ((F(0), (2, 0)), (F(1), (0, 1)))
    oracle = e0q_exhaustive(q, h)
    assert oracle.ok
    back = drop(q, FrameReal(psrc, lift.witness.cells, extended=True))
    assert back.ok and back.result == h


def test_e0q_refusal_certifies_the_galois_law():
    # the golden refusal: the adjoint cells of h do not join to the top
    inst = parse_instance(Path(__file__).resolve().parent / "golden" / "e0q_refusal.tl")
    q, h = inst.get("q"), inst.get("h")
    lift = e0q_member(q, h)
    assert not lift.ok and lift.note == "no complemented partition lifts the cells"
    assert not e0q_exhaustive(q, h).ok
    # a refusal rests on the adjoint: with the adjoint of the top moved to
    # the bottom, the Galois law fails and the refusal is not given
    q.adjoint[q.target.frame.top] = q.source.frame.bottom
    with pytest.raises(CertificationError, match="Galois law"):
        e0q_member(q, h)


E0Q_BUDGET = """
import json, sys
from trunclab.errors import BudgetError
from trunclab.frames import (E0Q_MAX_FRAME, FiniteFrame, FrameReal, FrameSurjection,
                             PointedFiniteFrame, e0q_exhaustive)
runs = []
for n in (E0Q_MAX_FRAME, E0Q_MAX_FRAME + 1):
    pf = PointedFiniteFrame(FiniteFrame.chain(n), focus=n - 1)
    q = FrameSurjection(pf, pf, {x: x for x in pf.frame.labels})
    try:
        runs.append(repr(e0q_exhaustive(q, FrameReal.zero(pf))))
    except BudgetError as exc:
        runs.append(f"BudgetError: {exc}")
print(json.dumps({"optimize": sys.flags.optimize, "bound": E0Q_MAX_FRAME, "runs": runs}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_e0q_exhaustive_refuses_a_source_over_its_bound(flags):
    # the identity on a chain: 12 elements are searched, 13 are refused
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *flags, "-c", E0Q_BUDGET], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == {
        "optimize": len(flags), "bound": 12,
        "runs": ["LiftResult(ok via exhaustive, FrameReal[0:11])",
                 "BudgetError: source frame exceeds the 12-element bound"]}


def test_e0q_requires_density():
    two = FiniteFrame.chain(2)
    pc3 = PointedFiniteFrame(C3, focus=2)
    ptwo = PointedFiniteFrame(two, focus=1)
    q = FrameSurjection(pc3, ptwo, {0: 0, 1: 0, 2: 1})
    with pytest.raises(StructureError):
        e0q_member(q, FrameReal.zero(ptwo))


def test_frame_pointwise_sup_examples():
    u = chi_b()
    assert pointwise_sup([u, FrameReal.zero(PF4)]) == u
    g = FrameReal(PF4, [(F(-2), B), (F(0), A)])
    assert pointwise_sup([g, g, g]) == g


def test_frame_dini_example():
    u = chi_b()
    seq = [u.scale(F(1, n)) for n in range(1, 5)] + [FrameReal.zero(PF4)] * 2
    rep = dini_check(seq)
    assert rep.limit_is_zero and rep.uniform
    assert rep.index_map[F(1, 3)] == 4  # (1/n) chi(-inf, 1/3) = top iff 1/n < 1/3
    with pytest.raises(StructureError):
        dini_check([u, u.scale(2)])


def test_bounded_reals_have_top_carrier():
    # the open-quotient congruence at g(-inf, inf) is the identity for
    # every finite-valued frame real
    rng = random.Random(1)
    for _ in range(10):
        pf = pointed_frame(rng)
        g = frame_real(rng, pf)
        assert g.eval(real_line()) == pf.frame.top
        assert all(pf.frame.meet(x, g.eval(real_line())) == x
                   for x in pf.frame.labels)


def test_random_lift_agreement_small_frames():
    rng = random.Random(7)
    for _ in range(30):
        pf = pointed_frame(rng, max_points=3)
        q = dense_surjection(rng, pf)
        h = frame_real(rng, q.target)
        lift = e0q_member(q, h)
        oracle = e0q_exhaustive(q, h)
        assert lift.ok == oracle.ok
        if lift.ok:
            assert drop(q, FrameReal(q.source, lift.witness.cells,
                                     extended=True)).result == h


def test_space_mismatch():
    other = PointedFiniteFrame(C3, focus=1)
    with pytest.raises(SpaceMismatchError):
        chi_b() + FrameReal.zero(other)


def test_cut_map_extension_conditions():
    # the lower-cut maps of a step frame real satisfy the extension
    # conditions: cuts grow rather-below along r < s, joins of earlier cuts
    # reproduce each cut on the grid, and the extremes reach bottom and top
    rng = random.Random(35)
    for _ in range(20):
        pf = pointed_frame(rng)
        g = frame_real(rng, pf)
        fr = pf.frame
        vals = sorted({F(v) for v in g.values()})
        base = sorted(set(vals + [vals[0] - 1, vals[-1] + 1]))
        grid = sorted(set(base + [(a + b) / 2 for a, b in zip(base, base[1:])]))
        for r in grid:
            for s in grid:
                if r < s:
                    assert rather_below(fr, g.eval(ray_below(r)),
                                        g.eval(ray_below(s)))
        for r in grid:
            # the join of all lower cuts below r is realized by any cut
            # point between the last value below r and r itself
            last = max((v for v in vals if v < r), default=r - 1)
            witness = (last + r) / 2
            assert g.eval(ray_below(witness)) == g.eval(ray_below(r))
            joined = fr.join_all(g.eval(ray_below(s))
                                 for s in grid + [witness] if s < r)
            assert joined == g.eval(ray_below(r))
        assert g.eval(ray_below(grid[0])) == fr.bottom
        assert g.eval(ray_below(grid[-1])) == fr.top


# --- spatial cross-check: a third route through actual point functions ----

def _as_point_function(g):
    """On a downset frame the cells partition the poset points."""
    points = sorted(g.pframe.frame.top)
    fn = {}
    for p in points:
        owners = [v for v, c in g.cells if p in c]
        assert len(owners) == 1
        fn[p] = owners[0]
    return fn


def _from_point_function(pframe, fn):
    groups = {}
    for p, v in fn.items():
        groups.setdefault(v, set()).add(p)
    return FrameReal(pframe, [(v, frozenset(ps)) for v, ps in groups.items()])


def test_spatial_semantics_cross_check():
    # evaluate every operation pointwise on the underlying poset and compare
    # with the cell-wise (oracle-verified) computation
    rng = random.Random(33)
    for _ in range(40):
        pf = pointed_frame(rng)
        f = frame_real(rng, pf)
        g = frame_real(rng, pf)
        fpos = frame_real(rng, pf, nonneg=True)
        ff, gg, pp = (_as_point_function(x) for x in (f, g, fpos))
        cases = [
            ("add", [f, g], None, {p: ff[p] + gg[p] for p in ff}),
            ("sub", [f, g], None, {p: ff[p] - gg[p] for p in ff}),
            ("join", [f, g], None, {p: max(ff[p], gg[p]) for p in ff}),
            ("meet", [f, g], None, {p: min(ff[p], gg[p]) for p in ff}),
            ("scale", [f], F(-3, 2), {p: F(-3, 2) * ff[p] for p in ff}),
            ("truncate", [fpos], None, {p: min(pp[p], 1) for p in pp}),
            ("tminus", [fpos], F(1, 2), {p: max(pp[p] - F(1, 2), 0) for p in pp}),
            ("truncN", [fpos], 2, {p: min(pp[p], 2) for p in pp}),
        ]
        for tag, operands, param, expected in cases:
            got = induced_op(tag, operands, param=param)
            assert got == _from_point_function(pf, expected), tag
            assert _as_point_function(got) == expected


def test_spatial_eval_cross_check():
    rng = random.Random(34)
    for _ in range(25):
        pf = pointed_frame(rng)
        g = frame_real(rng, pf)
        fn = _as_point_function(g)
        cuts = sorted({F(v) for v in g.values()} | {F(0)})
        cuts += [c + F(1, 7) for c in cuts] + [cuts[0] - 1, cuts[-1] + 1]
        for r in cuts:
            assert g.eval(ray_above(r)) == frozenset(
                p for p, v in fn.items() if v > r)
            assert g.eval(ray_below(r)) == frozenset(
                p for p, v in fn.items() if v < r)


# --- the integer frame layer against the Fraction/label references ---------

def reference_frame_tables(labels, leq_pairs):
    """The label-keyed frame validator: violations, join and meet dicts."""
    labels = list(labels)
    leq = set(leq_pairs)
    out = []
    for x in labels:
        if (x, x) not in leq:
            out.append(Violation("order not reflexive", (x,)))
    for x, y in leq:
        if (y, x) in leq and x != y:
            out.append(Violation("order not antisymmetric", (x, y)))
    for x, y in leq:
        for z in labels:
            if (y, z) in leq and (x, z) not in leq:
                out.append(Violation("order not transitive", (x, y, z)))
    if out:
        return out, None, None
    join, meet = order_tables(labels, leq)
    for a in labels:
        for b in labels:
            if (a, b) not in join:
                out.append(Violation("no unique join", (a, b)))
            if (a, b) not in meet:
                out.append(Violation("no unique meet", (a, b)))
    if out:
        return out, None, None
    for a in labels:
        for b in labels:
            for c in labels:
                lhs = meet[(a, join[(b, c)])]
                rhs = join[(meet[(a, b)], meet[(a, c)])]
                if lhs != rhs:
                    out.append(Violation("distributivity", (a, b, c)))
                    return out, None, None
    return out, join, meet


def interval_contains(u, v):
    """Membership of an extended value in an OpenInterval, an open of the
    reals: an infinite value is in none."""
    if v is NEG_INF or v is POS_INF:
        return False
    return (u.lo is NEG_INF or u.lo < v) and (u.hi is POS_INF or v < u.hi)


def reference_image_inside(image, v_int):
    lo, hi, lo_att, hi_att = image
    if lo == hi and lo_att and hi_att:
        return interval_contains(v_int, lo)
    lo_ok = interval_contains(v_int, lo) if lo_att else (
        v_int.lo == NEG_INF or v_int.lo < lo or (v_int.lo == lo and not lo_att))
    hi_ok = interval_contains(v_int, hi) if hi_att else (
        v_int.hi == POS_INF or v_int.hi > hi or (v_int.hi == hi and not hi_att))
    return lo_ok and hi_ok


def _scale_image(box, q):
    a, b = box
    if q > 0:
        return (q * a, q * b, False, False)
    if q < 0:
        return (q * b, q * a, False, False)
    return (F(0), F(0), True, True)


def _clamp_image(box, cap):
    a, b = box
    if b <= cap:
        return (a, b, False, False)
    if a >= cap:
        return (cap, cap, True, True)
    return (a, cap, False, True)


def _tminus_image(box, r):
    a, b = box
    if b <= r:
        return (F(0), F(0), True, True)
    if a >= r:
        return (a - r, b - r, False, False)
    return (F(0), b - r, True, False)


# The exact image (lo, hi, lo_attained, hi_attained) of an open box under
# each tag: every tag is monotone in each coordinate (sub antitone in the
# second), so the endpoints sit at the box corners, and the clamping tags
# may attain their kink values.
REFERENCE_IMAGES = {
    "add": lambda x, y: (x[0] + y[0], x[1] + y[1], False, False),
    "sub": lambda x, y: (x[0] - y[1], x[1] - y[0], False, False),
    "negate": lambda x: (-x[1], -x[0], False, False),
    "scale": _scale_image,
    "meet": lambda x, y: (min(x[0], y[0]), min(x[1], y[1]), False, False),
    "join": lambda x, y: (max(x[0], y[0]), max(x[1], y[1]), False, False),
    "truncate": lambda x: _clamp_image(x, F(1)),
    "tminus": _tminus_image,
    "truncN": _clamp_image,
}


# The value of each tag at Fraction operand values, the parameter last.
REFERENCE_SCALARS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "negate": lambda v: -v,
    "scale": lambda v, q: q * v,
    "meet": min,
    "join": max,
    "truncate": lambda v: min(v, F(1)),
    "tminus": lambda v, r: max(v - r, F(0)),
    "truncN": min,
}


def reference_oracle_mismatch(tag, operands, result, param=None):
    """The join-of-meets oracle on Fractions, labels, box images and
    result.eval, at a tight open around every formula value and every
    result value, in value order; the ends are the midpoints to the
    neighbouring values, or +/-inf.

    The box half-width gamma keeps each box inside its operand cells and
    each image inside its tight open: it is a share of the least gap
    between the operand, output and result values, divided by the tag's
    Lipschitz bound, |q| for scale:q.
    """
    fr = operands[0].pframe.frame
    scalar = REFERENCE_SCALARS[tag]
    params = () if param is None else (F(param),)
    combos = list(itertools.product(*(g.values() for g in operands)))
    points = sorted({*(v for g in operands for v in g.values()), *result.grid_values(),
                     *(scalar(*combo, *params) for combo in combos)})
    gaps = [b - a for a, b in zip(points, points[1:])]
    lipschitz = max(1, abs(params[0])) if tag == "scale" else 1
    gamma = min(gaps, default=F(1)) / (2 * (len(operands) + 1) * lipschitz)
    boxes = []
    for combo in combos:
        meet = fr.top
        for g, v in zip(operands, combo):
            meet = fr.meet(meet, g.eval(OpenInterval(v - gamma, v + gamma)))
        if meet == fr.bottom:
            continue
        image = REFERENCE_IMAGES[tag](*[(v - gamma, v + gamma) for v in combo], *params)
        boxes.append((scalar(*combo, *params), image, meet))
    values = sorted({w for w, _, _ in boxes} | set(result.grid_values()))
    ends = [NEG_INF, *((a + b) / 2 for a, b in zip(values, values[1:])), POS_INF]
    for lo, hi in zip(ends, ends[1:]):
        v_int = OpenInterval(lo, hi)
        formula = fr.join_all(m for _, image, m in boxes
                              if reference_image_inside(image, v_int))
        if formula != result.eval(v_int):
            return v_int
    return None


PARAMS = {"scale": [F(2), F(-1, 2), F(0), F(3, 4), F(10), F(-7)], "tminus": [F(1, 2), F(1), F(2, 3)],
          "truncN": [1, 2, 3]}  # ints, as suite_induced_oracle passes them


def moved_in_its_gap(tag, operands, param, result):
    """result with its first nonzero value that lies strictly inside a gap
    of the operand values' cut grid moved halfway to the gap's upper end
    (or up by 1 above the grid), or None.  The grid is the one the oracle
    once probed: the operand values and the points where the tag bends."""
    bends = {"truncate": [F(1)], "tminus": [param], "truncN": [param]}.get(tag, [])
    grid = cut_grid([v for g in operands for v in g.values()] + bends)
    for v, c in result.cells:
        if v and v not in grid:
            moved = min((v + r) / 2 for r in grid if r > v) if v < grid[-1] else v + 1
            return FrameReal(result.pframe, [(moved if w == v else w, x)
                                             for w, x in result.cells])
    return None


def with_sevenths(result):
    """result with the value 1/7 on each cell that avoids the basepoint: a
    denominator prime to every sampled operand's and parameter's."""
    pf = result.pframe
    return FrameReal(pf, [(v if pf.point(c) else F(1, 7), c) for v, c in result.cells])


def oracle_cases(rng):
    """(tag, operands, param, result) for every tag: the true result, the
    true result with one value moved inside its grid gap or with sevenths
    for its values, an operand in its place and other tags' results on the
    same operands."""
    pf = pointed_frame(rng)
    f, g = frame_real(rng, pf), frame_real(rng, pf)
    fpos = frame_real(rng, pf, nonneg=True)
    runs = []
    for tag, op in OPS.items():
        operands = [f, g] if op.arity == 2 else [f if tag in ("scale", "negate")
                                                 else fpos]
        param = rng.choice(PARAMS[tag]) if op.takes_param else None
        runs.append((tag, operands, param, apply_op(tag, operands, param)))
    cases = []
    for tag, operands, param, result in runs:
        cases.append((tag, operands, param, result))
        moved = moved_in_its_gap(tag, operands, param, result)
        if moved is not None:
            cases.append((tag, operands, param, moved))
        cases.append((tag, operands, param, with_sevenths(result)))
        cases.extend((tag, operands, param, forged) for forged in operands)
        cases.extend((tag, operands, param, other) for other_tag, other_ops, _, other
                     in runs if other_tag != tag and other_ops == operands)
    return cases


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_oracle_matches_reference(seed):
    for tag, operands, param, result in oracle_cases(random.Random(seed)):
        want = reference_oracle_mismatch(tag, operands, result, param)
        assert oracle_mismatch(tag, operands, result, param) == want, tag


def test_oracle_passes_true_results_and_catches_forged_ones():
    verdicts = set()
    for seed in range(12):
        for tag, operands, param, result in oracle_cases(random.Random(seed)):
            got = oracle_mismatch(tag, operands, result, param)
            assert got == reference_oracle_mismatch(tag, operands, result, param)
            # the oracle is exact: it passes the true result and nothing else
            assert (got is None) == (result == apply_op(tag, operands, param)), tag
            verdicts.add(got is None)
    assert verdicts == {True, False}


def test_oracle_makes_no_fraction_keys(monkeypatch):
    # the values are integers over one denominator: no Fraction is hashed
    cases = [case for seed in range(6) for case in oracle_cases(random.Random(seed))
             if case[3] == apply_op(*case[:3])]

    def refuse(self):
        raise AssertionError("the oracle hashed a Fraction")

    monkeypatch.setattr(F, "__hash__", refuse)
    for tag, operands, param, result in cases:
        assert oracle_mismatch(tag, operands, result, param) is None, tag


def test_oracle_names_the_first_reference_interval():
    u = chi_b()
    forged = FrameReal(PF4, [(F(5), B), (F(0), A)])
    got = oracle_mismatch("truncate", [u.scale(2)], forged)
    assert got == reference_oracle_mismatch("truncate", [u.scale(2)], forged)
    # the values are 0, 1 (formula) and 5 (forged): the tight open around 1
    assert got == OpenInterval(F(1, 2), F(3)) and repr(got) == "(1/2,3)"


def test_large_scale_factors_pass_the_oracle():
    # the tight boxes' images scale with |q|; a half-width taken without
    # that factor refuted this correct result at (-inf,1/20)
    g = FrameReal(PF4, [(F(1, 10), B), (F(0), A)])
    for q in (F(10), F(-10), F(40, 3)):
        result = induced_op("scale", [g], param=q)
        assert result.cells == tuple(sorted([(q / 10, B), (F(0), A)]))
        assert reference_oracle_mismatch("scale", [g], result, q) is None
    forged = FrameReal(PF4, [(F(2), B), (F(0), A)])
    got = oracle_mismatch("scale", [g], forged, 10)
    assert got == reference_oracle_mismatch("scale", [g], forged, 10) is not None


def label_tables(frame):
    pairs = list(itertools.product(frame.labels, repeat=2))
    return ({(x, y): frame.join(x, y) for x, y in pairs},
            {(x, y): frame.meet(x, y) for x, y in pairs},
            {(x, y) for x, y in pairs if frame.leq(x, y)})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_frame_tables_match_reference_on_downset_frames(seed):
    frame, _ = downset_frame(random.Random(seed))
    join, meet, leq = label_tables(frame)
    violations, ref_join, ref_meet = reference_frame_tables(frame.labels, leq)
    assert violations == [] and frame_validate(frame.labels, leq) == []
    assert (join, meet) == (ref_join, ref_meet)
    rebuilt = FiniteFrame(reversed(frame.labels), leq)
    assert rebuilt == frame and label_tables(rebuilt) == (join, meet, leq)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_implication_is_the_heyting_adjoint(seed):
    # z <= (x -> y) iff x ^ z <= y, and the pseudocomplement is x -> bottom
    frame, _ = downset_frame(random.Random(seed))
    for x, y in itertools.product(frame.labels, repeat=2):
        imp = implies(frame, x, y)
        assert all(frame.leq(z, imp) == frame.leq(frame.meet(x, z), y)
                   for z in frame.labels)
    assert frame.pseudo == {x: implies(frame, x, frame.bottom) for x in frame.labels}


def witness_set(violations):
    return {(v.law, v.witness) for v in violations if v.law != "distributivity"}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from(["poset", "edit", "raw"]))
def test_frame_tables_match_reference_on_non_frames(seed, size, kind):
    rng = random.Random(seed)
    labels = list(range(size))
    leq = set(random_poset(rng, size))
    if kind == "edit":
        for _ in range(rng.randint(1, 3)):
            leq ^= {(rng.randrange(size), rng.randrange(size))}
    elif kind == "raw":
        leq = {(x, y) for x in labels for y in labels if rng.random() < 0.4}
    got, want = frame_validate(labels, leq), reference_frame_tables(labels, leq)[0]
    assert {v.law for v in got} == {v.law for v in want}
    assert witness_set(got) == witness_set(want)
    assert len(got) == len(want)


def test_empty_order_has_no_least_element():
    assert frame_validate([], set()) == [Violation("no least element", ())]
    with pytest.raises(StructureError, match="no least element"):
        FiniteFrame([], set())


def test_pentagon_and_diamond_fail_distributivity_like_the_reference():
    pentagon = {(x, x) for x in "oabci"} | {("o", x) for x in "abci"} \
        | {(x, "i") for x in "oabc"} | {("a", "c")}
    diamond = {(x, x) for x in "oabci"} | {("o", x) for x in "abci"} \
        | {(x, "i") for x in "oabc"}
    for leq in (pentagon, diamond):
        join, meet = order_tables("oabci", leq)
        first = next((a, b, c) for a, b, c in itertools.product("abcio", repeat=3)
                     if meet[(a, join[(b, c)])] != join[(meet[(a, b)], meet[(a, c)])])
        assert frame_validate("oabci", leq) == [Violation("distributivity", first)]
        assert [v.law for v in reference_frame_tables("oabci", leq)[0]] == [
            "distributivity"]


BAD_ORDER = "frame F elements a b c d covers a<b b<c c<b c<d point d\n"


def test_frame_violations_ignore_the_hash_seed(tmp_path):
    path = tmp_path / "bad.tl"
    path.write_text(BAD_ORDER, encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("0", "1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "trunclab.cli", "check", "--file", str(path)],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        runs.append((proc.returncode, proc.stderr))
    assert runs == [runs[0]] * 3
    assert runs[0][0] == 2
    assert ("order not antisymmetric at ('b', 'c'), "
            "order not antisymmetric at ('c', 'b')") in runs[0][1]


def reference_point_error(frame, true_set):
    """The label-level point check: its message at the first failing pair."""
    for x, y in itertools.product(frame.labels, repeat=2):
        if (frame.meet(x, y) in true_set) != (x in true_set and y in true_set):
            return f"point not meet-preserving at ({x},{y})"
        if (frame.join(x, y) in true_set) != (x in true_set or y in true_set):
            return f"point not join-preserving at ({x},{y})"
    return None


def unpreserved_point_error(frame, true_set):
    bad = _unpreserved(frame, [int(x in true_set) for x in frame.labels],
                       [("meet", frame._meet, ((0, 0), (0, 1))),
                        ("join", frame._join, ((0, 1), (1, 1)))])
    return bad and "point not {}-preserving at ({},{})".format(*bad)


def reference_map_error(fs, ft, mapping):
    """The label-level join and meet preservation check of a frame map."""
    for x, y in itertools.product(fs.labels, repeat=2):
        if mapping[fs.join(x, y)] != ft.join(mapping[x], mapping[y]):
            return f"map not join-preserving at ({x},{y})"
        if mapping[fs.meet(x, y)] != ft.meet(mapping[x], mapping[y]):
            return f"map not meet-preserving at ({x},{y})"
    return None


def structure_error(fn, *args):
    try:
        fn(*args)
    except StructureError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_preservation_errors_match_the_label_level_checks(seed):
    rng = random.Random(seed)
    frame, _ = downset_frame(rng)
    inner = [x for x in frame.labels if x not in (frame.top, frame.bottom)]
    true_set = frozenset(x for x in inner if rng.random() < 0.5) | {frame.top}
    want = reference_point_error(frame, true_set)
    got = structure_error(PointedFiniteFrame, frame, None, true_set)
    assert got == want == unpreserved_point_error(frame, true_set)
    source, target = pointed_frame(rng), pointed_frame(rng)
    fs, ft = source.frame, target.frame
    mapping = {x: rng.choice(ft.labels) for x in fs.labels}
    mapping.update({fs.top: ft.top, fs.bottom: ft.bottom})
    want = reference_map_error(fs, ft, mapping)
    got = structure_error(FrameSurjection, source, target, mapping)
    if want is None:  # a later check, surjective or pointed, may still fail
        assert got is None or "preserving" not in got
    else:
        assert got == want
    # the up-set of one element: a filter, prime only at a join-prime focus
    focus = rng.choice(inner or [frame.top])
    up_set = frozenset(x for x in frame.labels if frame.leq(focus, x))
    got = structure_error(PointedFiniteFrame, frame, None, up_set)
    assert got == reference_point_error(frame, up_set) == unpreserved_point_error(frame, up_set)


# --- set-family frames, sub-frames, chains and products against the order
# path and against the construction from label callables ------------------

def frame_state(frame):
    return (frame.labels, frame._up, frame._join, frame._meet, frame.pseudo,
            frame.complemented)


def order_path(labels, leq):
    """The frame of the generic constructor, or its StructureError message."""
    try:
        return frame_state(FiniteFrame(labels, leq))
    except StructureError as exc:
        return str(exc)


def subset_order(family):
    return {(a, b) for a in family for b in family if a <= b}


def sub_frames(pframe):
    """The targets of every open_quotient and of booleanization."""
    quotients = [open_quotient(pframe, y) for y in pframe.frame.labels]
    return [q.target.frame for q in quotients + [booleanization(pframe)] if q]


def reference_sublattice_tables(labels, join, meet):
    """(labels, up, join, meet) of labels closed under the callables join and
    meet of a distributive lattice, sorted and filled pair by pair, or None if
    not closed: how a derived frame was once built."""
    labels = sorted_labels(dict.fromkeys(labels))
    index = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    J, M = [[0] * n for _ in labels], [[0] * n for _ in labels]
    try:
        for i, a in enumerate(labels):
            for j in range(i, n):
                J[i][j] = J[j][i] = index[join(a, labels[j])]
                M[i][j] = M[j][i] = index[meet(a, labels[j])]
    except KeyError:
        return None
    up = [sum(1 << j for j, k in enumerate(row) if j == k) for row in J]
    return (labels, up, J, M) if labels else None


def reference_state(labels, join, meet):
    """frame_state of the frame on labels under the callables join and meet,
    or the StructureError message, as the callable construction gave them:
    unclosed labels take the order path with a <= b iff join(a, b) == b."""
    labels = list(labels)
    tables = reference_sublattice_tables(labels, join, meet)
    if not tables:
        violations, tables = _frame_tables(
            labels, {(a, b) for a in labels for b in labels if join(a, b) == b})
        if violations:
            return f"not a finite frame: {violations[:3]}"
    labels, up, J, M = tables
    bot = up.index((1 << len(up)) - 1)
    top = next(i for i, u in enumerate(up) if u == 1 << i)

    def implies(i, j):
        acc = bot
        for k, m in enumerate(M[i]):
            if up[m] >> j & 1:
                acc = J[acc][k]
        return acc

    pseudo = {x: labels[implies(i, bot)] for i, x in enumerate(labels)}
    complemented = frozenset(x for i, x in enumerate(labels)
                             if J[i][labels.index(pseudo[x])] == top)
    return tuple(labels), up, J, M, pseudo, complemented


def state_or_error(build, *args):
    try:
        return frame_state(build(*args))
    except StructureError as exc:
        return str(exc)


def pairwise(fa, fb):
    return lambda p, q: (fa(p[0], q[0]), fb(p[1], q[1]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_sublattice_path_matches_the_order_path(seed):
    rng = random.Random(seed)
    pframe = pointed_frame(rng)
    fr = pframe.frame
    family = set(fr.labels)
    assert frame_state(FiniteFrame.from_sets(family)) == frame_state(fr)
    assert frame_state(fr) == order_path(family, subset_order(family))
    assert frame_state(fr) == reference_state(family, frozenset.__or__, frozenset.__and__)
    targets = sub_frames(pframe)
    assert targets
    for sub in [fr, *targets]:
        leq = {(a, b) for a in sub.labels for b in sub.labels if fr.leq(a, b)}
        assert frame_state(sub) == order_path(sub.labels, leq)
        assert frame_state(sub) == reference_state(sub.labels, fr.join, fr.meet)
        violations, join, meet = reference_frame_tables(sub.labels, leq)
        assert violations == [] and label_tables(sub) == (join, meet, leq)
    # a subset of the labels, most often unclosed, in a scrambled order
    some = [x for x in fr.labels if rng.random() < 0.5][::-1] or [fr.top]
    assert state_or_error(fr.subframe, some) == reference_state(some, fr.join, fr.meet)


def test_chains_and_products_match_the_order_path():
    c3, c2 = FiniteFrame.chain(3), FiniteFrame.chain(2)
    for frame in (c3, c2, FiniteFrame.chain(12), FiniteFrame.product(c3, c2)):
        assert frame_state(frame) == order_path(frame.labels, label_tables(frame)[2])
    for n in range(1, 13):
        assert frame_state(FiniteFrame.chain(n)) == reference_state(range(n), max, min)
    assert FiniteFrame.chain(12).labels[:5] == (0, 1, 10, 11, 2)
    for a, b in ((c3, c2), (c2, c3), (FiniteFrame.product(c2, c2), c3), (F4, c2)):
        pairs = [(x, y) for x in a.labels for y in b.labels]
        want = reference_state(pairs, pairwise(a.join, b.join), pairwise(a.meet, b.meet))
        assert frame_state(FiniteFrame.product(a, b)) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 3)), max_size=7))
def test_unclosed_set_families_take_the_order_path(family):
    got = state_or_error(FiniteFrame.from_sets, family)
    assert got == order_path(set(family), subset_order(set(family)))
    assert got == reference_state(set(family), frozenset.__or__, frozenset.__and__)


def test_empty_family_has_no_least_element():
    with pytest.raises(StructureError) as err:
        FiniteFrame.from_sets([])
    want = "not a finite frame: [no least element at ()]"
    assert str(err.value) == want == reference_state([], max, min)
    assert state_or_error(FiniteFrame.chain, 0) == want
    assert state_or_error(F4.subframe, []) == want


def test_sampled_frames_skip_the_order_path(monkeypatch):
    calls = []
    order_tables_of = frames._frame_tables

    def counted(labels, leq_pairs):
        calls.append(labels)
        return order_tables_of(labels, leq_pairs)

    monkeypatch.setattr(sampling, "_FRAMES", {})  # so the frames are built here
    monkeypatch.setattr(frames, "_frame_tables", counted)
    for seed in range(30):
        pframe = pointed_frame(random.Random(seed))
        sub_frames(pframe)
        dense_surjection(random.Random(seed), pframe)
    assert calls == [] and sampling._FRAMES
    with pytest.raises(StructureError, match="no unique join"):
        FiniteFrame.from_sets([A, B])
    assert len(calls) == 1


# --- the per-process cache of sampled downset frames ----------------------

def sampled(seed, max_points):
    rng = random.Random(seed)
    pframe = pointed_frame(rng, max_points)
    return pframe.frame, pframe.true_set, rng.getstate()


def reference_sampled(seed, max_points):
    """sampled() as the uncached sampler drew it: every draw builds."""
    rng = random.Random(seed)
    n1 = rng.randint(1, max_points // 2)
    n2 = rng.randint(1, max_points - n1)
    leq1, leq2 = random_poset(rng, n1), random_poset(rng, n2)
    points = [("a", i) for i in range(n1)] + [("b", i) for i in range(n2)]
    leq = {((s, i), (s, j)) for s, rel in (("a", leq1), ("b", leq2)) for i, j in rel}
    downsets = {frozenset(q for q in points for p in combo if (q, p) in leq)
                for r in range(len(points) + 1)
                for combo in itertools.combinations(points, r)}
    frame = FiniteFrame(downsets, subset_order(downsets))
    focus = points[rng.randrange(len(points))]
    return frame, frozenset(d for d in frame.labels if focus in d), rng.getstate()


@pytest.mark.parametrize("max_points", [4, 3])
def test_cached_frames_give_the_draws_of_a_fresh_build(max_points, monkeypatch):
    cold = []
    for seed in range(40):
        monkeypatch.setattr(sampling, "_FRAMES", {})
        cold.append(sampled(seed, max_points))
        fr, true_set, state = reference_sampled(seed, max_points)
        assert (frame_state(fr), true_set, state) == (frame_state(cold[-1][0]), *cold[-1][1:])
    monkeypatch.setattr(sampling, "_FRAMES", {})
    for _ in range(2):  # filled as the seeds go, then warm throughout
        warm = [sampled(seed, max_points) for seed in range(40)]
        for (fc, tc, sc), (fw, tw, sw) in zip(cold, warm):
            assert (frame_state(fw), tw, sw) == (frame_state(fc), tc, sc)
    assert len({id(frame) for frame, _, _ in warm}) == len(sampling._FRAMES)
    assert len(sampling._FRAMES) <= {4: 16, 3: 3}[max_points]


class NoDraws:
    """An rng that fails any draw, so a missing bounds check cannot hang."""

    def __getattr__(self, name):
        raise AssertionError(f"drew with {name} before checking the bounds")


@pytest.mark.parametrize("max_points", [1, 0, -1])
def test_frame_samplers_refuse_bounds_no_frame_meets(max_points):
    for sample in (downset_frame, pointed_frame):
        with pytest.raises(StructureError, match="max_points >= 2"):
            sample(NoDraws(), max_points=max_points)


def test_smallest_bounds_give_the_four_element_frame():
    frame, points = downset_frame(random.Random(0), max_points=2)
    assert len(frame) == 4 and points == (("a", 0), ("b", 0))


LABEL_ORDER = """
import random
from trunclab.rat import format_label
from trunclab.sampling import booleanization, open_quotient, pointed_frame
for seed in range(40):
    pframe = pointed_frame(random.Random(seed))
    maps = [open_quotient(pframe, y) for y in pframe.frame.labels]
    frames = [pframe.frame] + [q.target.frame for q in maps + [booleanization(pframe)] if q]
    print([[format_label(x) for x in fr.labels] for fr in frames])
"""


def test_label_order_ignores_the_hash_seed():
    """Set-family frames and their sub-frames list their labels in one order
    under every PYTHONHASHSEED, though set iteration order changes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", LABEL_ORDER], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0].count("\n") == 40


FROZENSET_REFUSALS = """
import itertools
from trunclab.errors import StructureError
from trunclab.frames import FiniteFrame, FrameReal, FrameSurjection, PointedFiniteFrame, chi

S = frozenset
F8 = FiniteFrame.from_sets([S(c) for r in range(4) for c in itertools.combinations("abc", r)])
CH = FiniteFrame.from_sets([S(), S("ab"), S("abc")])
PB, PC = PointedFiniteFrame(F8, focus=S("b")), PointedFiniteFrame(F8, focus=S("c"))
refusals = [
    lambda: FrameReal(PB, [(1, S("abc")), (0, S("ab"))]),
    lambda: FrameReal(PB, [(0, S("xyz"))]),
    lambda: PointedFiniteFrame(F8, focus=S("xyz")),
    lambda: CH.complement(S("ab")),
    lambda: chi(PointedFiniteFrame(CH, focus=S("abc")), S("ab")),
    lambda: FrameSurjection(PB, PB, {x: x for x in F8.labels if x != S("ab")}),
    lambda: FrameSurjection(PB, PC, {x: x for x in F8.labels}),
]
for refuse in refusals:
    try:
        refuse()
    except StructureError as err:
        print(err)
"""


def test_frozenset_label_refusals_ignore_the_hash_seed():
    """Frame refusals print a frozenset label with its members sorted, so a
    set-family frame is refused in the same words under every hash seed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in map(str, range(6)):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", FROZENSET_REFUSALS], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outs.append(proc.stdout)
    assert outs == [outs[0]] * 6
    assert outs[0].splitlines() == [
        "cells frozenset({'a', 'b'}) and frozenset({'a', 'b', 'c'}) are not disjoint",
        "unknown frame element frozenset({'x', 'y', 'z'})",
        "unknown frame element frozenset({'x', 'y', 'z'})",
        "frozenset({'a', 'b'}) is not complemented",
        "frozenset({'a', 'b'}) is not complemented",
        "map not total at frozenset({'a', 'b'})",
        "map not pointed at frozenset({'a', 'b'})"]


def test_string_label_refusals_keep_their_words():
    with pytest.raises(StructureError, match="^unknown frame element 'zz'$"):
        FrameReal(PF4, [(F(0), "zz")])
    with pytest.raises(StructureError, match="^unknown frame element 'zz'$"):
        PointedFiniteFrame(F4, focus="zz")
    with pytest.raises(StructureError, match="^1 is not complemented$"):
        C3.complement(1)
    with pytest.raises(StructureError, match="^1 is not complemented$"):
        chi(PointedFiniteFrame(C3, focus=2), 1)
