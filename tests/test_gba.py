"""Generalized/idealized Boolean algebras and the finite Stone functors."""

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
from trunclab.rat import sorted_labels
from trunclab.sampling import (closed_set_family, random_gba, random_poset,
                               random_space)
from trunclab.spaces import PointedBooleanSpace, space


def powerset_gba(*labels):
    fam = closed_set_family(random.Random(0), [], seeds=0) | {frozenset(labels)}
    # close the singleton-generated family by hand: full powerset
    import itertools
    fam = [frozenset(c) for r in range(len(labels) + 1)
           for c in itertools.combinations(labels, r)]
    return GeneralizedBooleanAlgebra.from_sets(fam)


def test_powerset_family_is_valid():
    alg = powerset_gba("1", "2")
    assert alg.validate().ok


def test_broken_diff_table_reports_witness():
    alg = powerset_gba("1", "2")
    assert alg.validate().ok
    bad_diff = dict(alg.diff_table)
    a, b = frozenset({"1", "2"}), frozenset({"1"})
    bad_diff[(a, b)] = a
    broken = GeneralizedBooleanAlgebra(alg.carrier, alg.join, alg.meet,
                                       alg.bottom, bad_diff)
    report = broken.validate()
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
    assert bi.algebra.join[(one, Primed(two))] == Primed(two - one)
    assert bi.algebra.join[(one, Primed(two))] == Primed(two)


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
            assert back.join[(a, b)] == alg.join[(a, b)]
            assert back.meet[(a, b)] == alg.meet[(a, b)]
            assert back.diff_table[(a, b)] == alg.diff_table[(a, b)]


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
            c = alg.diff_table[(a, b)]
            assert c | b == a | b and not (c & b)


def test_space_requires_star():
    with pytest.raises(StructureError):
        PointedBooleanSpace(frozenset({"1"}), "2")


# --- the integer-table validator against the label-keyed reference ---------

def reference_violations(alg):
    """The gBa laws as label-keyed dict loops: the oracle for validate()."""
    report = ValidationReport()
    elems = sorted_labels(alg.carrier)
    for table, name in ((alg.join, "join"), (alg.meet, "meet")):
        for a in elems:
            for b in elems:
                if (a, b) not in table:
                    report.add(f"{name} table not total", a, b)
                elif table[(a, b)] not in alg.carrier:
                    report.add(f"{name} not closed", a, b)
    if alg.bottom not in alg.carrier:
        report.add("bottom not in carrier", alg.bottom)
    if not report.ok:
        return report.violations
    jn, mt, bot = alg.join, alg.meet, alg.bottom
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
            elif alg.diff_table is not None:
                given = alg.diff_table.get((a, b))
                if given is None:
                    report.add("diff table not total", a, b)
                elif given != cands[0]:
                    report.add("diff equations fail", a, b)
    return report.violations


def assert_matches_reference(alg):
    expected = reference_violations(alg)
    assert alg.validate().violations == expected
    return expected


def gba_view(ba):
    return GeneralizedBooleanAlgebra(ba.carrier, ba.join, ba.meet, ba.bottom)


def lattice(labels, covers):
    leq = transitive_closure({(x, x) for x in labels} | set(covers))
    return GeneralizedBooleanAlgebra.from_order(labels, leq)


def edited(alg, join=None, meet=None, drop=None):
    """A copy of alg with some table entries replaced or removed."""
    jn, mt = dict(alg.join), dict(alg.meet)
    jn.update(join or {})
    mt.update(meet or {})
    for key in drop or ():
        del jn[key]
    return GeneralizedBooleanAlgebra(alg.carrier, jn, mt, alg.bottom,
                                     alg.diff_table)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.booleans())
def test_validate_matches_reference_on_random_gbas(seed, perturb):
    rng = random.Random(seed)
    alg = random_gba(rng)
    if perturb:
        elems = sorted_labels(alg.carrier)
        key = (rng.choice(elems), rng.choice(elems))
        value = rng.choice(elems)
        alg = edited(alg, **{rng.choice(["join", "meet"]): {key: value}})
    assert_matches_reference(alg)


def test_validate_matches_reference_on_primed_labels():
    for base in ([], ["1"], ["1", "2"], ["1", "2", "3"]):
        bi = idealize(powerset_gba(*base))
        assert assert_matches_reference(gba_view(bi.algebra)) == []
    bi = idealize(powerset_gba("1", "2"))
    one, two = frozenset({"1"}), frozenset({"2"})
    broken = gba_view(bi.algebra)
    broken.join[(one, Primed(two))] = Primed(one)
    assert assert_matches_reference(broken)


def test_validate_matches_reference_on_powersets():
    for base in ([], ["p"], ["p", "q", "r"], ["p", "q", "r", "s"]):
        assert assert_matches_reference(
            gba_view(BooleanAlgebra.powerset(base))) == []


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
        laws = {v.law for v in assert_matches_reference(alg)}
        assert {"distributivity", "relative complement not unique"} <= laws
    assert any(v.witness == ("1", "w", ("x", "y", "z"))
               for v in m4.validate().violations)
    assert "relative complement missing" in {
        v.law for v in assert_matches_reference(chain)}

    alg = powerset_gba("1", "2", "3")
    a, b = frozenset({"1"}), frozenset({"2"})
    swapped = edited(alg, join={(a, b): frozenset({"1", "3"})})
    laws = {v.law for v in assert_matches_reference(swapped)}
    assert {"join commutativity", "join associativity"} <= laws
    bad_diff = dict(alg.diff_table)
    bad_diff[(a, b)] = b
    del bad_diff[(b, a)]
    laws = [v.law for v in assert_matches_reference(
        GeneralizedBooleanAlgebra(alg.carrier, alg.join, alg.meet,
                                  alg.bottom, bad_diff))]
    assert laws == ["diff equations fail", "diff table not total"]

    not_total = edited(alg, drop=[(a, b)], meet={(b, a): "outside"})
    assert [v.law for v in assert_matches_reference(not_total)] == [
        "join table not total", "meet not closed"]
    no_bottom = GeneralizedBooleanAlgebra(alg.carrier, alg.join, alg.meet, "z")
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


def assert_certificate_matches_reference(alg, seen):
    """validate() equals the reference, and the sweep ran exactly when the
    reference finds a broken lattice law on total, closed tables."""
    del seen[:]
    expected = assert_matches_reference(alg)
    shapes = {"table not total", "not closed", "bottom not in carrier"}
    if any(s in v.law for v in expected for s in shapes):
        assert seen == []
    else:
        assert bool(seen) == any(v.law in LATTICE_LAWS for v in expected)
    return expected


def single_entry_mutants(alg):
    """alg with one join or meet entry replaced by each other element."""
    elems = sorted_labels(alg.carrier)
    for name in ("join", "meet"):
        for key, value in getattr(alg, name).items():
            for other in elems:
                if other != value:
                    yield edited(alg, **{name: {key: other}})


def test_certificate_matches_reference_on_single_entry_mutants(monkeypatch):
    seen = swept(monkeypatch)
    for alg in (powerset_gba("1", "2"),
                gba_view(idealize(powerset_gba("1")).algebra)):
        assert assert_certificate_matches_reference(alg, seen) == []
        broken = [assert_certificate_matches_reference(m, seen)
                  for m in single_entry_mutants(alg)]
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
        laws = {v.law for v in assert_certificate_matches_reference(alg, seen)}
        assert "distributivity" in laws and seen
    # a chain is distributive: the certificate passes, only complements fail
    laws = {v.law for v in assert_certificate_matches_reference(chain, seen)}
    assert laws == {"relative complement missing"} and seen == []


def test_certificate_catches_a_wrong_meet_on_a_lattice_order(monkeypatch):
    # the join table, and so the order, is the powerset's; the meet table
    # is symmetric but names {1} as the meet of {1} and {2}
    seen = swept(monkeypatch)
    alg = powerset_gba("1", "2")
    one, two = frozenset({"1"}), frozenset({"2"})
    wrong = edited(alg, meet={(one, two): one, (two, one): one})
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


# --- one isomorphism check against the earlier per-caller checks -------------

def reference_iba_map(phi, bi, bj):
    """The round-trip map check that map_failure replaced, for iBas."""
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


def reference_tables_equal(a, b):
    """The label-for-label gBa comparison that map_failure replaced."""
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


def reference_boolean_violations(ba):
    """BooleanAlgebra.validate as it was: the gBa laws on a gBa copy of the
    tables, then the complement and top laws."""
    report = ValidationReport()
    as_gba = GeneralizedBooleanAlgebra(ba.carrier, ba.join, ba.meet, ba.bottom)
    report.violations.extend(as_gba.validate().violations)
    for a in sorted_labels(ba.carrier):
        na = ba.complement.get(a)
        if na is None or na not in ba.carrier:
            report.add("complement table not total", a)
            continue
        if ba.join[(a, na)] != ba.top:
            report.add("complement join law", a)
        if ba.meet[(a, na)] != ba.bottom:
            report.add("complement meet law", a)
        if ba.join[(a, ba.top)] != ba.top:
            report.add("top not greatest", a)
    return report.violations


def sample_iba(rng, kind):
    if kind == "clopen":
        return clopen(random_space(rng))
    return idealize(random_gba(rng, max_base=3))


def atom_map(alg, images):
    """Each element to the join of the images of the atoms below it."""
    amap = dict(zip(alg.atoms(), images))
    phi = {}
    for x in alg.carrier:
        phi[x] = alg.bottom
        for t, image in amap.items():
            if alg.leq(t, x):
                phi[x] = alg.join[(phi[x], image)]
    return phi


def forged_algebra(rng, alg, table):
    """A copy of a Boolean algebra with one entry of one table replaced."""
    elems = sorted_labels(alg.carrier)
    tables = {"join": dict(alg.join), "meet": dict(alg.meet),
              "complement": dict(alg.complement)}
    key = rng.choice(elems) if table == "complement" else (
        rng.choice(elems), rng.choice(elems))
    tables[table][key] = rng.choice(elems)
    return BooleanAlgebra(alg.carrier, tables["join"], tables["meet"],
                          tables["complement"], alg.bottom, alg.top)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from(["clopen", "idealize"]),
       st.sampled_from(["none", "phi", "ideal", "join", "meet", "complement"]),
       st.booleans())
def test_map_failure_matches_the_iba_reference(seed, kind, forge, source_side):
    rng = random.Random(seed)
    bi = sample_iba(rng, kind)
    atoms = bi.algebra.atoms()
    phi = atom_map(bi.algebra, rng.sample(atoms, len(atoms)))
    elems = sorted_labels(bi.algebra.carrier)
    forged = bi
    if forge == "phi":
        x, y = rng.sample(elems, 2)
        phi[x] = phi[y]
    elif forge == "ideal":
        forged = IdealizedBooleanAlgebra(bi.algebra, bi.ideal ^ {rng.choice(elems)})
    elif forge != "none":
        forged = IdealizedBooleanAlgebra(forged_algebra(rng, bi.algebra, forge),
                                         bi.ideal)
    a, b = (forged, bi) if source_side else (bi, forged)
    assert map_failure(phi, a, b) == reference_iba_map(phi, a, b)


def test_map_failure_finds_every_kind_of_iba_failure():
    bi = clopen(space("1", "2"))
    alg = bi.algebra
    one, two, both = frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})
    swap = atom_map(alg, [frozenset({"*"}), two, one])
    assert map_failure(swap, bi, bi) is None
    star = atom_map(alg, [one, frozenset({"*"}), two])
    assert map_failure(star, bi, bi) == "ideal not preserved"
    comp = dict(alg.complement)
    comp[both] = one
    bad = IdealizedBooleanAlgebra(BooleanAlgebra(alg.carrier, alg.join, alg.meet,
                                                 comp, alg.bottom, alg.top), bi.ideal)
    identity = {x: x for x in alg.carrier}
    assert map_failure(identity, bi, bad) == reference_iba_map(identity, bi, bad)
    assert map_failure(identity, bi, bad).startswith("complement mismatch at ")
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
    join, meet, diff = dict(a.join), dict(a.meet), dict(a.diff_table)
    carrier, bottom = a.carrier, a.bottom
    pair = (rng.choice(elems), rng.choice(elems))
    if forge in ("join", "meet", "diff"):
        {"join": join, "meet": meet, "diff": diff}[forge][pair] = rng.choice(elems)
    elif forge == "bottom":
        bottom = rng.choice(elems)
    elif forge == "carrier":
        carrier = a.carrier | {"extra"}
    b = GeneralizedBooleanAlgebra(carrier, join, meet, bottom, diff)
    identity = {x: x for x in a.carrier}
    verdict = map_failure(identity, a, b) is None and a.validate().ok and b.validate().ok
    assert verdict == (reference_tables_equal(a, b) is None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from(["clopen", "idealize"]),
       st.sampled_from(["none", "join", "meet", "complement", "outside"]))
def test_boolean_validate_matches_the_copy_reference(seed, kind, forge):
    rng = random.Random(seed)
    alg = sample_iba(rng, kind).algebra
    if forge == "outside":
        comp = dict(alg.complement)
        comp[rng.choice(sorted_labels(alg.carrier))] = "outside"
        alg = BooleanAlgebra(alg.carrier, alg.join, alg.meet, comp, alg.bottom, alg.top)
    elif forge != "none":
        alg = forged_algebra(rng, alg, forge)
    expected = reference_boolean_violations(alg)
    assert alg.validate().violations == expected
    assert (forge == "none") <= (expected == [])


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
    assert (alg.join, alg.meet, alg.bottom) == (join, meet, bottoms[0])
    assert alg.carrier == frozenset(labels)


BAD_IDEAL = """
from trunclab.gba import BooleanAlgebra, IdealizedBooleanAlgebra
from trunclab.rat import format_label
ba = BooleanAlgebra.powerset(["p", "q", "r", "s"])
ideal = [a for a in ba.carrier if len(a) == 1] + [frozenset("pq")]
def fmt(x):
    return " ".join(map(fmt, x)) if isinstance(x, tuple) else format_label(x)
for extra in ([frozenset("xy"), frozenset("z")], []):
    for v in IdealizedBooleanAlgebra(ba, ideal + extra).validate().violations:
        print(v.law, fmt(v.witness))
"""


def test_ideal_violations_ignore_the_hash_seed():
    # the ideal's labels are frozensets of strings, whose set order follows
    # the hash seed; the report walks them in label order instead
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("0", "1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", BAD_IDEAL], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs == [runs[0]] * 3
    lines = runs[0].splitlines()
    assert lines[0] == "ideal not a subset of carrier {x,y} {z}"
    assert "ideal not a downset {p} {}" in lines
    assert "ideal not join-closed {p} {r}" in lines


PARTIAL_TABLES = """
import json, sys
from trunclab.gba import BooleanAlgebra, IdealizedBooleanAlgebra
p, q = frozenset("p"), frozenset("q")
no_join = BooleanAlgebra.powerset(["p", "q"])
del no_join.join[(p, q)]
no_comp = BooleanAlgebra.powerset(["p", "q"])
del no_comp.complement[q]
reports = [[[v.law, repr(v.witness)] for v in alg.validate().violations]
           for alg in (no_join, IdealizedBooleanAlgebra(no_join, [frozenset(), p]),
                       IdealizedBooleanAlgebra(no_comp, [frozenset(), p]))]
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
    p, q = "(frozenset({'p'}),)", "(frozenset({'q'}),)"
    pq = "(frozenset({'p'}), frozenset({'q'}))"
    gaps = [["join table not total", pq], ["complement join law", p]]
    assert result["reports"] == [
        gaps, gaps,
        [["complement table not total", q], ["ideal not maximal", q]]]
