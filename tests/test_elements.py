"""Trunc calculus on simple elements: ops, sequences, quotients, suprema."""

import itertools
import math
import operator
from fractions import Fraction as F
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab import elements
from trunclab.elements import (GoodSequence, SimpleElement, SimpleTrunc,
                               apply_op, bound_witness,
                               bounded_away_from_zero, clearance,
                               clearance_decomposition, clearance_step,
                               cut_grid, dini_check, element_from_good,
                               good_from_element, is_unital_component, lc,
                               normal_form, normal_form_reconstruct,
                               pointwise_sup, restriction_hom,
                               truncation_sequence_check, uc, yosida_quotient)
from trunclab.errors import (CertificationError, PositivityError,
                             SpaceMismatchError, StructureError)
from trunclab.frames import FrameReal
from trunclab.rat import set_repr, sorted_labels
from trunclab.seqspace import TailElement
from trunclab.spaces import space

X3 = space("1", "2", "3")


def el(a, b, c):
    return SimpleElement(X3, {"1": F(a), "2": F(b), "3": F(c)})


def test_values_are_integer_numerators_over_one_denominator():
    class Sub(F):
        pass

    g = SimpleElement(X3, {"1": F(1, 2), "2": "3/4", "3": Sub(5)})
    assert (g._nums, g._den) == ((2, 3, 20), 4)
    assert [type(g.value(p)) for p in "123"] == [F, F, F]
    assert [g.value(p) for p in "123"] == [F(1, 2), F(3, 4), F(5)]
    assert g.value("*") == 0 and type(g.value("*")) is F
    h = SimpleElement(X3, {"1": True, "2": -2, "3": 1})
    assert (h._nums, h._den) == ((1, -2, 1), 1)
    assert h.items() == (("1", F(1)), ("2", F(-2)), ("3", F(1)))
    # every input type gives the same Fractions
    for v in (F(3, 2), "3/2", Sub(3, 2), "6/4"):
        assert SimpleElement(X3, {"2": v}).value("2") == F(3, 2)
    assert SimpleElement(X3, {"2": 7}).value("2") == F(7)
    # results come back in lowest terms, so equal elements store equal tuples
    assert ((g - g)._nums, (g - g)._den) == ((0, 0, 0), 1)
    k = g.scale(F(4, 3)) + el(F(1, 3), 0, F(1, 3))
    assert (k._nums, k._den) == ((1, 1, 7), 1) and k == el(1, 1, 7)
    assert (g.restrict_to({"3"})._nums, g.restrict_to({"3"})._den) == ((0, 0, 5), 1)
    with pytest.raises(ValueError):
        SimpleElement(X3, {"1": "x"})


def test_truncate_example():
    assert el(2, F(1, 2), 0).truncate() == el(1, F(1, 2), 0)


def test_tminus_example():
    assert el(2, F(1, 2), 0).tminus(1) == el(1, 0, 0)
    g = el(5, 2, F(1, 3))
    assert g.tminus(0) is g


def test_truncN_example():
    assert el(5, 2, F(1, 3)).trunc_at(2) == el(2, 2, F(1, 3))


def test_apply_op_dispatch():
    g = el(1, 2, 3)
    assert apply_op("add", [g, g]) == g.scale(2)
    assert apply_op("negate", [g]) == -g
    assert apply_op("scale", [g], param=F(1, 2)) == el(F(1, 2), 1, F(3, 2))
    assert apply_op("meet", [g, el(2, 1, 1)]) == el(1, 1, 1)
    assert apply_op("join", [g, el(2, 1, 1)]) == el(2, 2, 3)


def test_space_mismatch_and_positivity_errors():
    other = space("1", "2")
    with pytest.raises(SpaceMismatchError):
        el(1, 1, 1) + SimpleElement(other, {"1": 1})
    with pytest.raises(SpaceMismatchError):
        el(1, 1, 1).meet(TailElement.zero())  # another model's element
    with pytest.raises(PositivityError):
        el(-1, 0, 0).truncate()
    with pytest.raises(PositivityError):
        el(1, 1, 1).tminus(-1)


def test_member_with_witness():
    family = [frozenset(), frozenset({"1", "2"}), frozenset({"3"}),
              frozenset({"1", "2", "3"})]
    trunc = SimpleTrunc(X3, family)
    full = lc(X3)
    ok, _ = full.member(el(1, F(1, 2), 7))
    assert ok
    ok, witness = trunc.member(el(3, 3, F(1, 2)))
    assert ok
    ok, witness = trunc.member(el(1, 0, 0))
    assert not ok and witness == frozenset({"1"})


def test_unital_components():
    assert is_unital_component(el(1, 1, 0))
    assert not is_unital_component(el(1, F(1, 2), 0))
    assert is_unital_component(el(0, 0, 0))


def test_uc_gives_component_algebra():
    family = [frozenset(), frozenset({"1", "2"}), frozenset({"3"}),
              frozenset({"1", "2", "3"})]
    trunc = SimpleTrunc(X3, family)
    alg = uc(trunc)
    assert alg.carrier == frozenset(family)
    full = uc(lc(X3))
    assert len(full) == 8
    # characteristic elements of the algebra are exactly the unital members
    for comp in alg.carrier:
        u = SimpleElement.chi(X3, comp)
        assert is_unital_component(u) and trunc.member(u)[0]


def test_lc_requires_closure():
    with pytest.raises(StructureError):
        lc(X3, [frozenset(), frozenset({"1"}), frozenset({"2"})])
    assert len(lc(space()).components) == 1


def reference_family_refusal(fam, base):
    """The first refusal of a component family, its members walked in label
    order: the walk SimpleTrunc names its refusal by."""
    ordered = sorted_labels(fam)
    for s in ordered:
        if not s <= base:
            return f"component {set_repr(s)} not within non-star points"
    if frozenset() not in fam:
        return "component family must contain the empty set"
    for a, b in itertools.product(ordered, repeat=2):
        for r, opname in ((a | b, "union"), (a & b, "intersection"), (a - b, "difference")):
            if r not in fam:
                return (f"family not closed: {opname} of {set_repr(a)} and "
                        f"{set_repr(b)} gives {set_repr(r)}")
    return None


SUBSETS_OF_4 = [frozenset(c) for r in range(5) for c in itertools.combinations("1234", r)]


@settings(max_examples=80, deadline=None)
@given(st.sets(st.sampled_from(SUBSETS_OF_4), max_size=8))
def test_family_refusals_name_the_first_failure_in_label_order(family):
    """A refusal names the first failure of the label-order walk, though the
    family is checked in set order; a family with none is accepted."""
    x3 = space("1", "2", "3")
    expected = reference_family_refusal(frozenset(family), frozenset(x3.nonstar))
    try:
        trunc = SimpleTrunc(x3, family)
    except StructureError as err:
        assert str(err) == expected
    else:
        assert expected is None and trunc.components == frozenset(family)


def test_a_closed_family_is_not_sorted(monkeypatch):
    calls = []
    honest = elements.sorted_labels
    monkeypatch.setattr(elements, "sorted_labels", lambda labels: calls.append(1) or
                        honest(labels))
    lc(space("1", "2", "3", "4"))
    assert calls == []
    with pytest.raises(StructureError, match=r"^family not closed: union of \{'1'\} and "
                       r"\{'2'\} gives \{'1', '2'\}$"):
        lc(X3, [frozenset(), frozenset({"1"}), frozenset({"2"})])
    assert calls == [1]


def test_normal_form_examples():
    assert normal_form(el(3, 3, F(1, 2))) == [
        (F(3), frozenset({"1", "2"})), (F(1, 2), frozenset({"3"}))]
    assert normal_form(el(0, 0, 0)) == []
    assert normal_form(el(1, 1, 1)) == [(F(1), frozenset({"1", "2", "3"}))]
    g = el(-2, F(1, 3), -2)
    assert normal_form_reconstruct(X3, normal_form(g)) == g


def test_clearance_examples():
    assert clearance(el(3, 3, F(1, 2))) == F(1, 2)
    assert clearance(el(0, 0, 0)) == 0
    assert clearance(el(1, 1, 0)) == 1
    with pytest.raises(PositivityError):
        clearance(el(-1, 0, 0))


def test_clearance_step_examples():
    g1, u, delta = clearance_step(el(1, 1, F(1, 2)))
    assert (g1, u, delta) == (el(1, 1, 0), el(0, 0, 1), F(1, 2))
    g1, u, delta = clearance_step(el(1, 1, 0))
    assert g1.is_zero() and u == el(1, 1, 0) and delta == 1
    g1, u, delta = clearance_step(el(1, F(1, 2), F(1, 4)))
    assert g1 == el(1, F(1, 2), 0) and u == el(0, 0, 1) and delta == F(1, 4)
    assert clearance(g1) == F(1, 2) > delta
    with pytest.raises(PositivityError):
        clearance_step(el(0, 0, 0))
    with pytest.raises(StructureError):
        clearance_step(el(2, 0, 0))


def test_clearance_decomposition_matches_normal_form():
    g = el(1, F(1, 2), F(1, 4))
    pairs = clearance_decomposition(g)
    assert sorted(pairs) == sorted(normal_form(g))


def test_good_from_element_example():
    g = el(5, 2, F(1, 3))
    gs = good_from_element(g)
    assert [t for t in gs.terms] == [el(1, 1, F(1, 3)), el(1, 1, 0),
                                     el(1, 0, 0), el(1, 0, 0), el(1, 0, 0)]
    assert len(good_from_element(el(0, 0, 0))) == 0
    assert good_from_element(el(1, 0, 0)).terms == (el(1, 0, 0),)


def test_element_from_good_examples():
    gs = GoodSequence.of([el(1, 1, F(1, 3)), el(1, 1, 0), el(1, 0, 0),
                          el(1, 0, 0), el(1, 0, 0)])
    assert element_from_good(gs) == el(5, 2, F(1, 3))
    assert element_from_good(GoodSequence.of([el(1, 1, 0), el(1, 0, 0)])) == \
        el(2, 1, 0)
    # an all-zero sequence keeps the model's zero; one with no terms has none
    assert element_from_good(GoodSequence.of([el(0, 0, 0)] * 2)) == el(0, 0, 0)
    assert element_from_good(good_from_element(el(0, 0, 0))) == el(0, 0, 0)
    with pytest.raises(StructureError, match="empty sequence"):
        element_from_good(GoodSequence.of([]))
    with pytest.raises(StructureError):
        element_from_good([el(1, 0, 0), el(1, 1, 0)])  # increasing terms


def test_good_sequence_rejects_with_index():
    with pytest.raises(StructureError, match="index 1"):
        GoodSequence.of([el(F(1, 2), 0, 0), el(F(1, 4), 0, 0)])


def test_truncation_sequence_check_examples():
    seq = [el(1, 1, F(1, 3)), el(2, 2, F(1, 3)), el(3, 2, F(1, 3)),
           el(4, 2, F(1, 3)), el(5, 2, F(1, 3))]
    ok, g = truncation_sequence_check(seq)
    assert ok and g == el(5, 2, F(1, 3))
    ok, g = truncation_sequence_check([el(1, 0, 0), el(1, 0, 0)])
    assert ok and g == el(1, 0, 0)
    ok, idx = truncation_sequence_check([el(1, 1, 0), el(2, 2, 0), el(2, 1, 0)])
    assert not ok and idx == 2
    # an unstable tail is rejected at the last index
    ok, idx = truncation_sequence_check([el(1, 1, 0), el(2, 2, 0)])
    assert ok  # max value 2 <= 2: stable
    ok, idx = truncation_sequence_check([el(1, 1, 0), el(3, 2, 0)])
    assert not ok and idx == 2


def test_bound_witness_examples():
    assert bound_witness(el(5, 2, F(1, 3))) == 5
    assert bound_witness(el(1, 1, F(1, 3))) == 1
    assert bound_witness(el(0, 0, 0)) == 1
    assert bound_witness(el(F(5, 2), 0, 0)) == 3
    g = el(5, 2, F(1, 3))
    n = bound_witness(g)
    assert g.trunc_at(n) == g and g.trunc_at(n - 1) != g


def test_bounded_away_from_zero_examples():
    ok, eps = bounded_away_from_zero(el(1, F(1, 2), 0))
    assert ok and eps == F(1, 2)
    assert el(1, F(1, 2), 0).scale(2).truncate() == el(1, 1, 0)
    ok, eps = bounded_away_from_zero(el(0, 0, 0))
    assert not ok
    ok, eps = bounded_away_from_zero(el(1, 1, 1))
    assert ok and eps == 1


def test_yosida_quotient_examples():
    q, gens, proj = yosida_quotient(X3, [el(1, 1, 0)])
    assert len(q.points) == 2 and q.star == "*"
    assert proj["3"] == "*" and proj["1"] == proj["2"]
    assert gens[0].value(proj["1"]) == 1

    q2, gens2, _ = yosida_quotient(X3, [el(1, 2, 3)])
    assert len(q2.points) == 4

    q3, _, proj3 = yosida_quotient(X3, [])
    assert len(q3.points) == 1 and all(v == "*" for v in proj3.values())


def test_pointwise_sup_examples():
    assert pointwise_sup([el(1, 0, 0), el(0, 1, 0)]) == el(1, 1, 0)
    g = el(2, -1, F(1, 2))
    assert pointwise_sup([g]) == g
    assert pointwise_sup([g, g, g]) == g


def test_dini_example():
    seq = [el(1, 1, 1), el(F(1, 2), F(1, 2), F(1, 2)),
           el(0, 0, 0), el(0, 0, 0)]
    rep = dini_check(seq)
    assert rep.limit_is_zero and rep.uniform
    assert rep.index_map[F(1, 4)] == 3
    with pytest.raises(StructureError):
        dini_check([el(1, 0, 0), el(2, 0, 0)])
    rep = dini_check([el(1, 1, 1), el(1, 1, 1)])
    assert not rep.limit_is_zero


def test_restriction_hom_preserves_sup():
    fam = [el(1, 5, 0), el(2, 0, 3)]
    sup = pointwise_sup(fam)
    _, theta = restriction_hom(X3, {"1", "3"})
    assert theta(sup) == pointwise_sup([theta(g) for g in fam])


# --- the label -> Fraction dict carrier the integer one replaced, as reference

def ref_zip(a, b, fn):
    return {p: fn(a[p], b[p]) for p in a}


def ref_map(a, fn):
    return {p: fn(v) for p, v in a.items()}


def ref_level_sets(a):
    out = {}
    for p, v in a.items():
        if v != 0:
            out.setdefault(v, set()).add(p)
    return {v: frozenset(s) for v, s in out.items()}


def ref_bound_witness(a):
    m = max(a.values())
    n = 1
    while n < m:
        n += 1
    return n


def ref_upper_cut(g, r):
    """The set {p : g(p) > r}, including the basepoint when r < 0."""
    cut = {p for p, v in g.values.items() if v > r}
    if r < 0:
        cut.add(g.space.star)
    return frozenset(cut)


def ref_sup_witness(family, b):
    """The Fraction cut test of pointwise_sup: the first failing cut, or None."""
    values = [v for g in family for v in g.values.values()]
    values += list(b.values.values()) + [0]
    for r in cut_grid(values):
        union = frozenset().union(*(ref_upper_cut(g, r) for g in family))
        if union != ref_upper_cut(b, r):
            return r
    return None


VALUES = st.one_of(st.just(F(0)),
                   st.fractions(min_value=-6, max_value=6, max_denominator=12))
TRIPLES = st.tuples(VALUES, VALUES, VALUES)
POSITIVE = st.fractions(min_value=F(1, 12), max_value=4, max_denominator=12)


def assert_holds(h, vals):
    """h has exactly the values vals, in lowest terms over one denominator."""
    assert h.items() == tuple(vals.items()) and h.values == vals
    assert h == SimpleElement(X3, vals) and hash(h) == hash(SimpleElement(X3, vals))
    assert h._den > 0 and math.gcd(h._den, *h._nums) == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(TRIPLES, TRIPLES, st.fractions(min_value=-3, max_value=3, max_denominator=6),
       POSITIVE, st.sets(st.sampled_from("123")))
def test_integer_operations_match_the_fraction_reference(va, vb, q, c, keep):
    f, g = el(*va), el(*vb)
    a, b = f.values, g.values
    assert a == dict(zip("123", va)) and [f.value(p) for p in "123"] == list(va)
    for op, fn in (("__add__", operator.add), ("__sub__", operator.sub),
                   ("meet", min), ("join", max)):
        assert_holds(getattr(f, op)(g), ref_zip(a, b, fn))
    assert_holds(-f, ref_map(a, operator.neg))
    assert_holds(f.scale(q), ref_map(a, lambda v: q * v))
    assert_holds(f.restrict_to(keep),
                 {p: v if p in keep else F(0) for p, v in a.items()})
    af, aa = abs(f), ref_map(a, abs)
    assert_holds(af, aa)
    assert_holds(af.truncate(), ref_map(aa, lambda v: min(v, F(1))))
    assert_holds(af.trunc_at(c), ref_map(aa, lambda v: min(v, c)))
    assert_holds(af.tminus(c), ref_map(aa, lambda v: max(v - c, F(0))))
    assert f.is_nonneg() == all(v >= 0 for v in a.values())
    assert f.is_zero() == all(v == 0 for v in a.values())
    assert f.support() == frozenset(p for p, v in a.items() if v != 0)
    assert f.max_value() == max(a.values())
    assert list(f.level_sets().items()) == list(ref_level_sets(a).items())
    positive = [v for v in aa.values() if v > 0]
    assert clearance(af) == (min(positive) if positive else 0)
    assert bound_witness(af) == ref_bound_witness(aa)
    assert repr(f) == "<" + ",".join(f"{p}:{v}" for p, v in a.items()) + ">"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(TRIPLES, min_size=1, max_size=4), st.sampled_from("123"), VALUES)
def test_pointwise_sup_matches_the_fraction_reference(rows, point, shift):
    family = [el(*r) for r in rows]
    honest = reduce(lambda x, y: x.join(y), family)
    assert ref_sup_witness(family, honest) is None
    assert pointwise_sup(family) == honest
    # a forged sup, raised or lowered at one point, fails at the same first cut
    forged = honest + SimpleElement(X3, {point: shift})
    with mock.patch.object(elements, "reduce", lambda fn, fam: forged):
        try:
            pointwise_sup(family)
            witness = None
        except CertificationError as exc:
            witness = exc.witness
    assert witness == ref_sup_witness(family, forged)
    assert (witness is None) == (shift == 0)
    assert witness is None or type(witness) is F


# --- one interface for all three carriers ------------------------------------

# What the model-generic code calls on an element.
GENERIC_CALLS = {
    "GoodSequence.of and check": ("is_zero", "is_nonneg", "truncate", "__add__",
                                  "__sub__", "__eq__"),
    "element_from_good": ("__add__",),
    "truncation_sequence_check": ("is_nonneg", "trunc_at", "__eq__"),
    "dini_check": ("is_nonneg", "__sub__", "max_value", "grid_values"),
    "pointwise_sup": ("join",),  # and _point_nums, on the two step-valued carriers
    "Carrier truncations": ("is_nonneg", "_cap", "_excess"),
    "the samplers and suites": ("__abs__",),
}


@pytest.mark.parametrize("cls", [SimpleElement, TailElement, FrameReal],
                         ids=lambda c: c.__name__)
def test_every_carrier_defines_what_generic_code_calls(cls):
    missing = [f"{caller}: {name}" for caller, names in GENERIC_CALLS.items()
               for name in names if not callable(getattr(cls, name, None))]
    assert missing == []
