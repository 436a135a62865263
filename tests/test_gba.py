"""Generalized/idealized Boolean algebras and the finite Stone functors."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab import gba
from trunclab.errors import StructureError
from trunclab.gba import (BooleanAlgebra, GeneralizedBooleanAlgebra,
                          IdealizedBooleanAlgebra, Primed, ValidationReport,
                          clopen, iba_forget, idealize, map_failure, stone,
                          transitive_closure)
from trunclab.rat import label_repr, sorted_labels
from trunclab.sampling import (closed_set_family, random_gba, random_poset,
                               random_space)
from trunclab.spaces import PointedBooleanSpace, space


def powerset_gba(*labels):
    fam = closed_set_family(random.Random(0), [], seeds=0) | {frozenset(labels)}
    # close the singleton-generated family by hand: full powerset
    fam = [frozenset(c) for r in range(len(labels) + 1)
           for c in itertools.combinations(labels, r)]
    return GeneralizedBooleanAlgebra.from_sets(fam)


def triples(table):
    """A label dict keyed by pairs as the (x, y, z) triples of from_tables."""
    return [(x, y, z) for (x, y), z in table.items()]


def label_tables(alg, diff=False):
    """(carrier, join, meet, bottom, diff) of alg as label dicts keyed by
    pairs, read through the accessors; the diff table only if asked for."""
    pairs = [(x, y) for x in alg.labels for y in alg.labels]
    return (alg.carrier, {p: alg.join(*p) for p in pairs}, {p: alg.meet(*p) for p in pairs},
            alg.bottom, {p: alg.diff(*p) for p in pairs} if diff else None)


def from_label_tables(carrier, join, meet, bottom, diff=None):
    """The gBa of label dicts, through the label-table constructor."""
    return GeneralizedBooleanAlgebra.from_tables(
        carrier, triples(join), triples(meet), bottom, None if diff is None else triples(diff))


def boolean_of(carrier, join, meet, bottom):
    """The Boolean algebra of label dicts, through the label-table constructor."""
    return BooleanAlgebra.from_tables(carrier, triples(join), triples(meet), bottom)


def searched_top_and_complements(carrier, join, meet, bottom):
    """(top, {x: complement}) found by search on label tables: the element
    above every other, and for each x the c with x v c = top and x ^ c =
    bottom, or None where there is no such c or more than one."""
    elems = sorted_labels(carrier)
    [top] = [t for t in elems if all(join[(x, t)] == t for x in elems)]
    comp = {}
    for x in elems:
        found = [c for c in elems if join[(x, c)] == top and meet[(x, c)] == bottom]
        comp[x] = found[0] if len(found) == 1 else None
    return top, comp


def test_powerset_family_is_valid():
    alg = powerset_gba("1", "2")
    assert alg.validate().ok


def test_broken_diff_table_reports_witness():
    alg = powerset_gba("1", "2")
    assert alg.validate().ok
    carrier, join, meet, bottom, bad_diff = label_tables(alg, diff=True)
    a, b = frozenset({"1", "2"}), frozenset({"1"})
    bad_diff[(a, b)] = a
    report = from_label_tables(carrier, join, meet, bottom, bad_diff).validate()
    assert not report.ok
    assert any(v.law == "diff equations fail" and v.witness[:2] == (a, b)
               for v in report.violations)


def test_three_chain_has_no_relative_complements():
    labels = ["b", "m", "t"]
    leq = {(x, x) for x in labels} | {("b", "m"), ("b", "t"), ("m", "t")}
    chain = GeneralizedBooleanAlgebra.from_order(labels, leq)
    report = chain.validate()
    assert not report.ok
    assert any(v.law == "relative complement missing" and v.witness == ("t", "m")
               for v in report.violations)


def test_diff_examples():
    alg = powerset_gba("1", "2")
    full, one, two, none = (frozenset({"1", "2"}), frozenset({"1"}),
                            frozenset({"2"}), frozenset())
    assert alg.diff(full, two) == one
    for a in alg.carrier:
        assert alg.diff(a, none) == a
    assert alg.diff(one, full) == none


def test_idealize_powerset2():
    alg = powerset_gba("1", "2")
    bi = idealize(alg)
    assert len(bi) == 8
    assert bi.validate().ok
    one, two = frozenset({"1"}), frozenset({"2"})
    # a1 v a2' = (a2 \ a1)'
    assert bi.algebra.join(one, Primed(two)) == Primed(two - one)
    assert bi.algebra.join(one, Primed(two)) == Primed(two)


def test_idealize_trivial_gba():
    alg = GeneralizedBooleanAlgebra.from_sets([frozenset()])
    bi = idealize(alg)
    assert len(bi) == 2
    assert bi.validate().ok
    assert bi.algebra.top == Primed(frozenset())


def test_idealize_powerset3_boolean_axioms_exhaustive():
    bi = idealize(powerset_gba("1", "2", "3"))
    assert len(bi) == 16
    assert bi.validate().ok


def test_forget_idealize_is_identity_on_labels():
    alg = powerset_gba("1", "2")
    back = iba_forget(idealize(alg))
    assert back.carrier == alg.carrier
    assert back.validate().ok
    for a in alg.carrier:
        for b in alg.carrier:
            assert back.join(a, b) == alg.join(a, b)
            assert back.meet(a, b) == alg.meet(a, b)
            assert back.diff(a, b) == alg.diff(a, b)


def test_forget_trivial_ideal():
    ba = BooleanAlgebra.powerset(["p"])
    bi = IdealizedBooleanAlgebra(ba, frozenset([frozenset()]))
    back = iba_forget(bi)
    assert back.carrier == frozenset([frozenset()])
    assert back.validate().ok


def test_forget_powerset3_subsets_of_pq():
    ba = BooleanAlgebra.powerset(["p", "q", "r"])
    ideal = frozenset(s for s in ba.carrier if "r" not in s)
    back = iba_forget(IdealizedBooleanAlgebra(ba, ideal))
    assert map_failure({a: a for a in back.carrier}, back, powerset_gba("p", "q")) is None


def test_stone_powerset3():
    ba = BooleanAlgebra.powerset(["p", "q", "r"])
    ideal = frozenset(s for s in ba.carrier if "r" not in s)
    x = stone(IdealizedBooleanAlgebra(ba, ideal))
    assert len(x.points) == 3
    assert x.star == frozenset({"r"})


def test_stone_two_element_algebra():
    ba = BooleanAlgebra.powerset(["p"])
    x = stone(IdealizedBooleanAlgebra(ba, frozenset([frozenset()])))
    assert len(x.points) == 1
    assert x.star == frozenset({"p"})


def test_stone_of_idealized_powerset2():
    bi = idealize(powerset_gba("1", "2"))
    x = stone(bi)
    assert len(x.points) == 3
    # the star is the atom adjoined by idealization
    assert x.star == Primed(frozenset({"1", "2"}))


def test_stone_rejects_nonmaximal_ideal():
    ba = BooleanAlgebra.powerset(["p", "q"])
    with pytest.raises(StructureError):
        stone(IdealizedBooleanAlgebra(ba, frozenset([frozenset()])))


def test_clopen_examples():
    x = space("1", "2")
    bi = clopen(x)
    assert len(bi) == 8
    assert bi.ideal == frozenset({frozenset(), frozenset({"1"}),
                                  frozenset({"2"}), frozenset({"1", "2"})})
    single = space()
    bi1 = clopen(single)
    assert len(bi1) == 2
    assert bi1.ideal == frozenset({frozenset()})


def test_stone_clopen_round_trip():
    for n in range(4):
        x = space(*(str(i) for i in range(n)))
        back = stone(clopen(x))  # the unit p -> {p}
        assert back.points == {frozenset({p}) for p in x.points}
        assert back.star == frozenset({x.star})


def test_ideal_maximality_validation():
    ba = BooleanAlgebra.powerset(["p", "q"])
    not_maximal = IdealizedBooleanAlgebra(ba, frozenset([frozenset()]))
    report = not_maximal.validate()
    assert any(v.law == "ideal not maximal" for v in report.violations)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 1000))
def test_random_closed_families_validate(seed):
    rng = random.Random(seed)
    fam = closed_set_family(rng, ["a", "b", "c"])
    alg = GeneralizedBooleanAlgebra.from_sets(fam)
    report = alg.validate()
    assert report.ok
    for a in fam:
        for b in fam:
            c = alg.diff(a, b)
            assert c | b == a | b and not (c & b)


def test_space_requires_star():
    with pytest.raises(StructureError):
        PointedBooleanSpace(frozenset({"1"}), "2")


# --- the integer-table validator against the label-keyed reference ---------

def reference_violations(carrier, join, meet, bottom, diff=None):
    """The gBa laws as label-keyed dict loops: the oracle for validate()."""
    report = ValidationReport()
    elems = sorted_labels(carrier)
    for table, name in ((join, "join"), (meet, "meet")):
        for a in elems:
            for b in elems:
                if (a, b) not in table:
                    report.add(f"{name} table not total", a, b)
                elif table[(a, b)] not in carrier:
                    report.add(f"{name} not closed", a, b)
    if bottom not in carrier:
        report.add("bottom not in carrier", bottom)
    if not report.ok:
        return report.violations
    jn, mt, bot = join, meet, bottom
    for a in elems:
        if jn[(a, a)] != a:
            report.add("join idempotence", a)
        if mt[(a, a)] != a:
            report.add("meet idempotence", a)
        if jn[(a, bot)] != a:
            report.add("bottom not least", a)
        if mt[(a, bot)] != bot:
            report.add("bottom meet law", a)
        for b in elems:
            if jn[(a, b)] != jn[(b, a)]:
                report.add("join commutativity", a, b)
            if mt[(a, b)] != mt[(b, a)]:
                report.add("meet commutativity", a, b)
            if jn[(a, mt[(a, b)])] != a:
                report.add("absorption", a, b)
            if mt[(a, jn[(a, b)])] != a:
                report.add("absorption", a, b)
            for c in elems:
                if jn[(jn[(a, b)], c)] != jn[(a, jn[(b, c)])]:
                    report.add("join associativity", a, b, c)
                if mt[(mt[(a, b)], c)] != mt[(a, mt[(b, c)])]:
                    report.add("meet associativity", a, b, c)
                if mt[(a, jn[(b, c)])] != jn[(mt[(a, b)], mt[(a, c)])]:
                    report.add("distributivity", a, b, c)
    for a in elems:
        for b in elems:
            cands = [c for c in elems
                     if jn[(c, b)] == jn[(a, b)] and mt[(c, b)] == bot]
            if not cands:
                report.add("relative complement missing", a, b)
            elif len(cands) > 1:
                report.add("relative complement not unique", a, b, tuple(cands))
            elif diff is not None:
                given = diff.get((a, b))
                if given is None:
                    report.add("diff table not total", a, b)
                elif given != cands[0]:
                    report.add("diff equations fail", a, b)
    return report.violations


def assert_matches_reference(tables):
    """The algebra of label tables (carrier, join, meet, bottom, diff)
    validates as the reference says; the reference's violations."""
    expected = reference_violations(*tables)
    assert from_label_tables(*tables).validate().violations == expected
    return expected


def lattice(labels, covers):
    leq = transitive_closure({(x, x) for x in labels} | set(covers))
    return GeneralizedBooleanAlgebra.from_order(labels, leq)


def edited(tables, join=None, meet=None, drop=None):
    """Label tables with some join or meet entries replaced or removed."""
    carrier, jn, mt, bottom, diff = tables
    jn, mt = {**jn, **(join or {})}, {**mt, **(meet or {})}
    for key in drop or ():
        del jn[key]
    return carrier, jn, mt, bottom, diff


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.booleans())
def test_validate_matches_reference_on_random_gbas(seed, perturb):
    rng = random.Random(seed)
    alg = random_gba(rng)
    tables = label_tables(alg, diff=True)
    if perturb:
        elems = sorted_labels(alg.carrier)
        key = (rng.choice(elems), rng.choice(elems))
        value = rng.choice(elems)
        tables = edited(tables, **{rng.choice(["join", "meet"]): {key: value}})
    else:
        assert alg.validate().violations == reference_violations(*tables[:4]) == []
    assert_matches_reference(tables)


def test_validate_matches_reference_on_primed_labels():
    for base in ([], ["1"], ["1", "2"], ["1", "2", "3"]):
        bi = idealize(powerset_gba(*base))
        assert assert_matches_reference(label_tables(bi.algebra)) == []
    bi = idealize(powerset_gba("1", "2"))
    one, two = frozenset({"1"}), frozenset({"2"})
    broken = edited(label_tables(bi.algebra), join={(one, Primed(two)): Primed(one)})
    assert assert_matches_reference(broken)


def test_validate_matches_reference_on_powersets():
    for base in ([], ["p"], ["p", "q", "r"], ["p", "q", "r", "s"]):
        assert assert_matches_reference(
            label_tables(BooleanAlgebra.powerset(base))) == []


def test_validate_matches_reference_on_broken_tables():
    n5 = lattice(["0", "a", "b", "c", "1"],
                 {("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")})
    m3 = lattice(["0", "x", "y", "z", "1"],
                 {("0", "x"), ("0", "y"), ("0", "z"),
                  ("x", "1"), ("y", "1"), ("z", "1")})
    m4 = lattice(["0", "w", "x", "y", "z", "1"],
                 {("0", t) for t in "wxyz"} | {(t, "1") for t in "wxyz"})
    chain = lattice(["b", "m", "t"], {("b", "m"), ("m", "t")})
    for alg in (n5, m3, m4):
        laws = {v.law for v in assert_matches_reference(label_tables(alg))}
        assert {"distributivity", "relative complement not unique"} <= laws
    assert any(v.witness == ("1", "w", ("x", "y", "z"))
               for v in m4.validate().violations)
    assert "relative complement missing" in {
        v.law for v in assert_matches_reference(label_tables(chain))}

    tables = label_tables(powerset_gba("1", "2", "3"), diff=True)
    carrier, join, meet, bottom, diff = tables
    a, b = frozenset({"1"}), frozenset({"2"})
    swapped = edited(tables, join={(a, b): frozenset({"1", "3"})})
    laws = {v.law for v in assert_matches_reference(swapped)}
    assert {"join commutativity", "join associativity"} <= laws
    bad_diff = dict(diff)
    bad_diff[(a, b)] = b
    del bad_diff[(b, a)]
    laws = [v.law for v in assert_matches_reference((carrier, join, meet, bottom, bad_diff))]
    assert laws == ["diff equations fail", "diff table not total"]
    bad_diff[(b, a)] = "outside"
    laws = [v.law for v in assert_matches_reference((carrier, join, meet, bottom, bad_diff))]
    assert laws == ["diff equations fail", "diff equations fail"]

    not_total = edited(tables, drop=[(a, b)], meet={(b, a): "outside"})
    assert [v.law for v in assert_matches_reference(not_total)] == [
        "join table not total", "meet not closed"]
    no_bottom = (carrier, join, meet, "z", None)
    assert [v.law for v in assert_matches_reference(no_bottom)] == [
        "bottom not in carrier"]


# --- the quadratic lattice certificate against the cubic sweep ---------------

LATTICE_LAWS = {"join idempotence", "meet idempotence", "bottom not least",
                "bottom meet law", "join commutativity", "meet commutativity",
                "absorption", "join associativity", "meet associativity",
                "distributivity"}


def swept(monkeypatch):
    """The algebras whose validation entered the per-triple sweep."""
    seen, sweep = [], gba._law_sweep

    def counting_sweep(report, elems, *tables):
        seen.append(frozenset(elems))
        sweep(report, elems, *tables)

    monkeypatch.setattr(gba, "_law_sweep", counting_sweep)
    return seen


def assert_certificate_matches_reference(tables, seen):
    """validate() equals the reference, and the sweep ran exactly when the
    reference finds a broken lattice law on total, closed tables."""
    del seen[:]
    expected = assert_matches_reference(tables)
    shapes = {"table not total", "not closed", "bottom not in carrier"}
    if any(s in v.law for v in expected for s in shapes):
        assert seen == []
    else:
        assert bool(seen) == any(v.law in LATTICE_LAWS for v in expected)
    return expected


def single_entry_mutants(tables):
    """Label tables with one join or meet entry replaced by each other element."""
    elems = sorted_labels(tables[0])
    for name, table in (("join", tables[1]), ("meet", tables[2])):
        for key, value in table.items():
            for other in elems:
                if other != value:
                    yield edited(tables, **{name: {key: other}})


def test_certificate_matches_reference_on_single_entry_mutants(monkeypatch):
    seen = swept(monkeypatch)
    for tables in (label_tables(powerset_gba("1", "2"), diff=True),
                   label_tables(idealize(powerset_gba("1")).algebra)):
        assert assert_certificate_matches_reference(tables, seen) == []
        broken = [assert_certificate_matches_reference(m, seen)
                  for m in single_entry_mutants(tables)]
        assert len(broken) == 2 * 16 * 3 and all(broken)


def test_certificate_matches_reference_on_small_lattices(monkeypatch):
    seen = swept(monkeypatch)
    n5 = lattice(["0", "a", "b", "c", "1"],
                 {("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")})
    m3 = lattice(["0", "x", "y", "z", "1"],
                 {("0", t) for t in "xyz"} | {(t, "1") for t in "xyz"})
    m4 = lattice(["0", "w", "x", "y", "z", "1"],
                 {("0", t) for t in "wxyz"} | {(t, "1") for t in "wxyz"})
    chain = lattice(["b", "m", "t"], {("b", "m"), ("m", "t")})
    for alg in (n5, m3, m4):
        laws = {v.law for v in assert_certificate_matches_reference(label_tables(alg), seen)}
        assert "distributivity" in laws and seen
    # a chain is distributive: the certificate passes, only complements fail
    laws = {v.law for v in assert_certificate_matches_reference(label_tables(chain), seen)}
    assert laws == {"relative complement missing"} and seen == []


def test_certificate_catches_a_wrong_meet_on_a_lattice_order(monkeypatch):
    # the join table, and so the order, is the powerset's; the meet table
    # is symmetric but names {1} as the meet of {1} and {2}
    seen = swept(monkeypatch)
    one, two = frozenset({"1"}), frozenset({"2"})
    wrong = edited(label_tables(powerset_gba("1", "2"), diff=True),
                   meet={(one, two): one, (two, one): one})
    laws = {v.law for v in assert_certificate_matches_reference(wrong, seen)}
    assert "absorption" in laws and "meet commutativity" not in laws and seen


def test_clopen_of_five_points_never_enters_the_sweep(monkeypatch):
    seen = swept(monkeypatch)
    bi = clopen(space("1", "2", "3", "4"))
    assert len(bi) == 32 and bi.validate().ok
    assert iba_forget(bi).validate().ok and stone(bi) is not None
    assert seen == []


# --- validation runs once per algebra ----------------------------------------

def test_boolean_algebra_validates_once(monkeypatch):
    built = []
    init = GeneralizedBooleanAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GeneralizedBooleanAlgebra, "__init__", counting_init)
    ba = BooleanAlgebra.powerset(["p", "q"])
    first, second = ba.validate(), ba.validate()
    assert first == second and first.ok
    assert built == [ba]  # no gBa copy of its tables


def test_stone_then_forget_checks_the_ideal_once(monkeypatch):
    checked = []
    check = IdealizedBooleanAlgebra._check

    def counting_check(self, report):
        checked.append(self)
        check(self, report)

    monkeypatch.setattr(IdealizedBooleanAlgebra, "_check", counting_check)
    bi = clopen(space("1", "2"))
    stone(bi)
    iba_forget(bi)
    assert checked == [bi]


def test_invalid_iba_keeps_the_algebra_report_clean():
    ba = BooleanAlgebra.powerset(["p", "q"])
    not_maximal = IdealizedBooleanAlgebra(ba, frozenset([frozenset()]))
    first = not_maximal.validate().violations
    second = not_maximal.validate().violations
    assert first and first == second
    assert ba.validate().ok


# --- top and complements derived from the gBa tables ---------------------------

def set_partitions(points):
    """Every partition of the list points into blocks (lists)."""
    if not points:
        yield []
        return
    first = points[0]
    for part in set_partitions(points[1:]):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1:]]


def rings_of_sets(base):
    """Every family of subsets of base closed under union, intersection and
    difference: the unions of the blocks of a partition of some subset."""
    for r in range(len(base) + 1):
        for subset in itertools.combinations(base, r):
            for blocks in set_partitions(list(subset)):
                blocks = [frozenset(b) for b in blocks]
                yield {frozenset().union(*c) for k in range(len(blocks) + 1)
                       for c in itertools.combinations(blocks, k)}


RINGS = [GeneralizedBooleanAlgebra.from_sets(f) for f in rings_of_sets("pqrs")]


def test_powerset_complement_is_the_set_difference():
    for r in range(5):
        base = frozenset("pqrs"[:r])
        ba = BooleanAlgebra.powerset(base)
        assert ba.validate().ok and ba.top == base
        assert all(ba.complement(s) == base - s for s in ba.labels)


def test_idealize_complements_are_the_primed_labels():
    assert len(RINGS) == 52
    for alg in RINGS:
        ba = idealize(alg).algebra
        assert ba.top == Primed(alg.bottom)
        for a in alg.labels:
            assert ba.complement(a) == Primed(a) and ba.complement(Primed(a)) == a


def test_forget_tables_are_the_meets_with_the_complements():
    # the tables iba_forget built from a supplied complement array: join and
    # meet restricted to the ideal, and a \ b = a ^ not b, with not b found
    # by search
    ibas = [idealize(alg) for alg in RINGS] + [
        clopen(space(*"pqrs"[:r])) for r in range(5)]
    for bi in ibas:
        alg, back = bi.algebra, iba_forget(bi)
        comp = searched_top_and_complements(*label_tables(alg)[:4])[1]
        assert back.labels == tuple(x for x in alg.labels if x in bi.ideal)
        for a in back.labels:
            for b in back.labels:
                assert back.join(a, b) == alg.join(a, b)
                assert back.meet(a, b) == alg.meet(a, b)
                assert back.diff(a, b) == alg.meet(a, comp[b])


# --- one isomorphism check against the earlier per-caller checks -------------

def reference_iba_map(phi, bi, bj):
    """The round-trip map check that map_failure replaced, for iBas, on label
    tables, walking bi's labels in its order: join and meet on every pair,
    then complements, found by search, then the ideal.  map_failure has no
    complement leg: between valid algebras this one never fails where join
    and meet hold."""
    labels = bi.algebra.labels
    _, ij, im, ib, _ = label_tables(bi.algebra)
    _, jj, jm, jb, _ = label_tables(bj.algebra)
    if len(set(phi.values())) != len(labels):
        return "not bijective"
    for x in labels:
        for y in labels:
            if phi[ij[(x, y)]] != jj[(phi[x], phi[y])]:
                return f"join mismatch at ({label_repr(x)},{label_repr(y)})"
            if phi[im[(x, y)]] != jm[(phi[x], phi[y])]:
                return f"meet mismatch at ({label_repr(x)},{label_repr(y)})"
    ic = searched_top_and_complements(labels, ij, im, ib)[1]
    jc = searched_top_and_complements(bj.algebra.labels, jj, jm, jb)[1]
    for x in labels:
        if phi[ic[x]] != jc[phi[x]]:
            return f"complement mismatch at {label_repr(x)}"
    if {phi[x] for x in bi.ideal} != set(bj.ideal):
        return "ideal not preserved"
    return None


def reference_tables_equal(a, b):
    """The label-for-label gBa comparison that map_failure replaced, on
    label tables (carrier, join, meet, bottom, diff)."""
    if a[0] != b[0] or a[3] != b[3]:
        return "carriers differ"
    for x in a[0]:
        for y in a[0]:
            if a[1][(x, y)] != b[1][(x, y)] or a[2][(x, y)] != b[2][(x, y)]:
                return f"tables differ at ({x!r},{y!r})"
            if a[4][(x, y)] != b[4][(x, y)]:
                return f"diff differs at ({x!r},{y!r})"
    return None


def reference_boolean_violations(carrier, join, meet, bottom):
    """BooleanAlgebra.validate on label tables: the gBa laws on a gBa copy
    of the tables.  A finite gBa is a Boolean algebra, so no law is added."""
    return from_label_tables(carrier, join, meet, bottom).validate().violations


def sample_iba(rng, kind):
    if kind == "clopen":
        return clopen(random_space(rng))
    return idealize(random_gba(rng, max_base=3))


def atoms(alg):
    return [alg.labels[p] for p in alg.points]


def atom_map(alg, images):
    """Each element to the join of the images of the atoms below it."""
    amap = dict(zip(atoms(alg), images))
    phi = {}
    for x in alg.carrier:
        phi[x] = alg.bottom
        for t, image in amap.items():
            if alg.leq(t, x):
                phi[x] = alg.join(phi[x], image)
    return phi


def forged_tables(rng, alg, table):
    """The label tables (carrier, join, meet, bottom) of an algebra with one
    entry of its join or meet table replaced."""
    elems = sorted_labels(alg.carrier)
    carrier, join, meet, bottom, _ = label_tables(alg)
    {"join": join, "meet": meet}[table][(rng.choice(elems), rng.choice(elems))] = \
        rng.choice(elems)
    return carrier, join, meet, bottom


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from(["clopen", "idealize"]),
       st.sampled_from(["none", "phi", "ideal", "join", "meet"]),
       st.booleans())
def test_map_failure_matches_the_iba_reference(seed, kind, forge, source_side):
    rng = random.Random(seed)
    bi = sample_iba(rng, kind)
    found = atoms(bi.algebra)
    phi = atom_map(bi.algebra, rng.sample(found, len(found)))
    elems = sorted_labels(bi.algebra.carrier)
    forged = bi
    if forge == "phi":
        x, y = rng.sample(elems, 2)
        phi[x] = phi[y]
    elif forge == "ideal":
        forged = IdealizedBooleanAlgebra(bi.algebra, bi.ideal ^ {rng.choice(elems)})
    elif forge != "none":
        forged = IdealizedBooleanAlgebra(boolean_of(*forged_tables(rng, bi.algebra, forge)),
                                         bi.ideal)
    a, b = (forged, bi) if source_side else (bi, forged)
    assert map_failure(phi, a, b) == reference_iba_map(phi, a, b)


def test_map_failure_finds_every_kind_of_iba_failure():
    bi = clopen(space("1", "2"))
    alg = bi.algebra
    one, two = frozenset({"1"}), frozenset({"2"})
    swap = atom_map(alg, [frozenset({"*"}), two, one])
    assert map_failure(swap, bi, bi) is None
    star = atom_map(alg, [one, frozenset({"*"}), two])
    assert map_failure(star, bi, bi) == "ideal not preserved"
    carrier, join, meet, bottom, _ = label_tables(alg)
    identity = {x: x for x in alg.carrier}
    for law in ("join", "meet"):
        tables = {"join": dict(join), "meet": dict(meet)}
        tables[law][(one, two)] = tables[law][(two, one)] = one
        bad = IdealizedBooleanAlgebra(
            boolean_of(carrier, tables["join"], tables["meet"], bottom), bi.ideal)
        assert map_failure(identity, bi, bad) == reference_iba_map(identity, bi, bad)
        assert map_failure(identity, bi, bad).startswith(f"{law} mismatch at ")
    assert map_failure({**identity, one: two}, bi, bi) == "not bijective"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from(["clopen", "idealize"]),
       st.sampled_from(["none", "join", "meet", "diff", "bottom", "carrier"]))
def test_identity_map_failure_matches_the_table_reference(seed, kind, forge):
    # The reference also compares diff tables and bottoms; map_failure does
    # not need to, because relative complements are unique and a lattice
    # isomorphism keeps the bottom, once both algebras validate.
    rng = random.Random(seed)
    a = iba_forget(sample_iba(rng, kind))
    elems = sorted_labels(a.carrier)
    tables = label_tables(a, diff=True)
    carrier, join, meet, bottom, diff = (tables[0], dict(tables[1]), dict(tables[2]),
                                         tables[3], dict(tables[4]))
    pair = (rng.choice(elems), rng.choice(elems))
    if forge in ("join", "meet", "diff"):
        {"join": join, "meet": meet, "diff": diff}[forge][pair] = rng.choice(elems)
    elif forge == "bottom":
        bottom = rng.choice(elems)
    elif forge == "carrier":
        carrier = a.carrier | {"extra"}
    b = from_label_tables(carrier, join, meet, bottom, diff)
    identity = {x: x for x in a.carrier}
    verdict = map_failure(identity, a, b) is None and a.validate().ok and b.validate().ok
    assert verdict == (reference_tables_equal(tables, (carrier, join, meet, bottom, diff))
                       is None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from(["clopen", "idealize"]),
       st.sampled_from(["none", "join", "meet", "bottom", "outside"]))
def test_boolean_validate_matches_the_copy_reference(seed, kind, forge):
    # A valid algebra's top and complements are the searched ones.
    rng = random.Random(seed)
    alg = sample_iba(rng, kind).algebra
    elems = sorted_labels(alg.carrier)
    tables = label_tables(alg)[:4]
    if forge in ("join", "meet"):
        tables = forged_tables(rng, alg, forge)
    elif forge == "bottom":
        tables = (*tables[:3], rng.choice(elems))
    elif forge == "outside":
        tables[1][(rng.choice(elems), rng.choice(elems))] = "outside"
    if forge != "none":
        alg = boolean_of(*tables)
    expected = reference_boolean_violations(*tables)
    assert alg.validate().violations == expected
    assert (forge == "none") <= (expected == [])
    if expected == []:
        top, comp = searched_top_and_complements(*tables)
        assert alg.top == top
        assert {x: alg.complement(x) for x in alg.labels} == comp


# --- from_order against the label-keyed order tables ------------------------

def order_tables(labels, leq):
    """Join and meet tables of a finite order, keyed by pairs of labels.

    leq is a reflexive and transitive set of (x, y) pairs meaning x <= y.
    A pair without a unique least upper bound is missing from the join
    table, and one without a unique greatest lower bound from the meet
    table.
    """
    above = {x: {y for y in labels if (x, y) in leq} for x in labels}
    below = {x: {y for y in labels if (y, x) in leq} for x in labels}
    join, meet = {}, {}
    for a in labels:
        for b in labels:
            ubs = above[a] & above[b]
            lub = [u for u in ubs if ubs <= above[u]]
            if len(lub) == 1:
                join[(a, b)] = lub[0]
            lbs = below[a] & below[b]
            glb = [u for u in lbs if lbs <= below[u]]
            if len(glb) == 1:
                meet[(a, b)] = glb[0]
    return join, meet


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(0, 6), st.sampled_from(["poset", "edit"]))
def test_from_order_matches_the_reference_tables(seed, size, kind):
    # Edits toggle a few pairs and close again: still a preorder, but it may
    # lose antisymmetry or lattice pairs.
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(size)]
    leq = random_poset(rng, size)
    if kind == "edit" and size:
        for _ in range(rng.randint(1, 3)):
            leq ^= {(rng.randrange(size), rng.randrange(size))}
        leq = transitive_closure(leq | {(i, i) for i in range(size)})
    leq = {(labels[x], labels[y]) for x, y in leq}
    join, meet = order_tables(labels, leq)
    bottoms = [x for x in labels if all((x, y) in leq for y in labels)]
    pairs = [(a, b) for a in labels for b in labels]
    if len(join) < len(pairs) or len(meet) < len(pairs) or len(bottoms) != 1:
        with pytest.raises(StructureError):
            GeneralizedBooleanAlgebra.from_order(labels, leq)
        return
    alg = GeneralizedBooleanAlgebra.from_order(reversed(labels), leq)
    assert label_tables(alg)[1:4] == (join, meet, bottoms[0])
    assert alg.carrier == frozenset(labels)


BAD_IDEAL = """
import contextlib, io, sys
from trunclab import cli
from trunclab.gba import (BooleanAlgebra, GeneralizedBooleanAlgebra,
                          IdealizedBooleanAlgebra, Primed, idealize, map_failure)
from trunclab.elements import SimpleElement
from trunclab.errors import StructureError
from trunclab.rat import format_label
from trunclab.spaces import space
ba = BooleanAlgebra.powerset(["p", "q", "r", "s"])
ideal = [a for a in ba.carrier if len(a) == 1] + [frozenset("pq")]
def fmt(x):
    return " ".join(map(fmt, x)) if isinstance(x, tuple) else format_label(x)
for extra in ([frozenset("xy"), frozenset("z")], []):
    for v in IdealizedBooleanAlgebra(ba, ideal + extra).validate().violations:
        print(v.law, fmt(v.witness))
for path in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "--file", path])
    print(code, err.getvalue().strip())
pqr = BooleanAlgebra.powerset("pqr")
swap = {frozenset("p"): frozenset("pq"), frozenset("pq"): frozenset("p")}
print(map_failure({x: swap.get(x, x) for x in pqr.carrier}, pqr, pqr))
bi = idealize(GeneralizedBooleanAlgebra.from_sets(
    [frozenset(), frozenset("1"), frozenset("2"), frozenset("12")]))
primed = [x for x in bi.algebra.carrier if isinstance(x, Primed)]
print(IdealizedBooleanAlgebra(bi.algebra, primed).validate().violations)
try:
    SimpleElement.chi(space("1", "2"), "abc")
except StructureError as exc:
    print(exc)
"""


def test_ideal_violations_ignore_the_hash_seed(tmp_path):
    # frozensets of strings iterate in an order that follows the hash seed;
    # the reports walk labels in label order and print a frozenset's members
    # sorted: ideal witnesses, refused gba and trunc lines, a map_failure
    # message, iBa witnesses on primed labels and a refused chi
    space = "space X points * 1 2 3 4 star *\n"
    paths = []
    for name, text in (("u", "gba U family { } { 1 2 } { 1 }\n"),
                       ("t", space + "trunc T space X components { } { 1 } { 2 }\n"),
                       ("c", space.replace(" 3 4", "") +
                        "trunc T space X components { } { 3 2 } { 4 1 }\n")):
        paths.append(tmp_path / f"{name}.tl")
        paths[-1].write_text(text, encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("0", "1", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", BAD_IDEAL, *map(str, paths)], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs == [runs[0]] * 4
    lines = runs[0].splitlines()
    assert lines[0] == "ideal not a subset of carrier {x,y} {z}"
    assert "ideal not a downset {p} {}" in lines
    assert "ideal not join-closed {p} {r}" in lines
    assert lines[-6].endswith("gba invalid: [relative complement missing at "
                              "(frozenset({'1', '2'}), frozenset({'1'}))]")
    assert lines[-6].startswith("2 input error: line 1: ")
    assert lines[-5] == ("2 input error: line 2: trunc T: family not closed: "
                         "union of {'1'} and {'2'} gives {'1', '2'}")
    assert lines[-4] == ("2 input error: line 2: trunc T: component {'1', '4'} "
                         "not within non-star points")
    assert lines[-3] == "join mismatch at (frozenset({'p'}),frozenset({'p', 'q'}))"
    assert "frozenset({'1', '2'})'" in lines[-2]
    assert lines[-1] == "subset frozenset({'a', 'b', 'c'}) not within non-star points"


PARTIAL_TABLES = """
import json, sys
from trunclab.gba import BooleanAlgebra, IdealizedBooleanAlgebra
p, q = frozenset("p"), frozenset("q")
ba = BooleanAlgebra.powerset(["p", "q"])
def copy(drop_join=None, bottom=frozenset()):
    join = [(x, y, ba.join(x, y)) for x in ba.labels for y in ba.labels
            if (x, y) != drop_join]
    meet = [(x, y, ba.meet(x, y)) for x in ba.labels for y in ba.labels]
    return BooleanAlgebra.from_tables(ba.labels, join, meet, bottom)
no_join, no_bottom = copy(drop_join=(p, q)), copy(bottom="z")
reports = [[[v.law, repr(v.witness)] for v in alg.validate().violations]
           for alg in (no_join, IdealizedBooleanAlgebra(no_join, [frozenset(), p]),
                       IdealizedBooleanAlgebra(no_bottom, [frozenset(), p]))]
print(json.dumps({"optimize": sys.flags.optimize, "reports": reports}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_partial_tables_are_reported_not_raised(flags):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *flags, "-c", PARTIAL_TABLES], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == len(flags)
    # the ideal laws wait for a valid algebra, which no gap gives
    gaps = [["join table not total", "(frozenset({'p'}), frozenset({'q'}))"]]
    assert result["reports"] == [gaps, gaps, [["bottom not in carrier", "('z',)"]]]
