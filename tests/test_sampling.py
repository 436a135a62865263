"""The samplers against their constructor-path references, the catalogue
they build once per process, and the certificates that guard it."""

import ast
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from trunclab import sampling
from trunclab.elements import SimpleElement
from trunclab.errors import certify
from trunclab.frames import FiniteFrame, FrameReal, FrameSurjection, PointedFiniteFrame
from trunclab.sampling import (MAX_BLOCKS, booleanization, closed_set_family,
                               dense_surjection, frame_real, open_quotient, pointed_frame,
                               random_poset, random_space, rational, simple_element)
from trunclab.rat import chance
from trunclab.spaces import PointedBooleanSpace


# --- the samplers as they were built through the public constructors ------

def reference_random_space(rng, max_points=4):
    n = rng.randint(1, max_points)
    return PointedBooleanSpace(frozenset({"*"} | {str(i) for i in range(1, n + 1)}), "*")


def reference_simple_element(rng, space, nonneg=False, truncated=False):
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


def reference_pointed_frame(rng, max_points=4):
    """A fresh build on every draw: the downset frame, then its point."""
    n1 = rng.randint(1, max_points // 2)
    n2 = rng.randint(1, max_points - n1)
    leq1, leq2 = random_poset(rng, n1), random_poset(rng, n2)
    points = tuple([("a", i) for i in range(n1)] + [("b", i) for i in range(n2)])
    leq = {((s, i), (s, j)) for s, rel in (("a", leq1), ("b", leq2)) for i, j in rel}
    below = {p: frozenset(q for q in points if (q, p) in leq) for p in points}
    downsets = {frozenset().union(*map(below.get, combo))
                for r in range(len(points) + 1)
                for combo in itertools.combinations(points, r)}
    frame = FiniteFrame.from_sets(downsets)
    focus_pt = points[rng.randrange(len(points))]
    true_set = frozenset(d for d in frame.labels if focus_pt in d)
    return PointedFiniteFrame(frame, true_set=true_set)


def reference_frame_real(rng, pframe, nonneg=False):
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
    return FrameReal(pframe, cells + [(F(0), point_cell)])


def reference_dense_surjection(rng, pframe):
    fr = pframe.frame
    options = [open_quotient(pframe, y) for y in fr.labels
               if fr.pseudo[y] == fr.bottom and pframe.point(y)] + [booleanization(pframe)]
    options = [q for q in options if q is not None and q.dense]
    options.append(FrameSurjection(pframe, pframe, {x: x for x in fr.labels}))
    return options[rng.randrange(len(options))]


def reference_closed_set_family(rng, base, seeds=3):
    """The family saturated under union, intersection and difference."""
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


def element_state(g):
    return g._nums, g._den, g.items() if isinstance(g, SimpleElement) else g.cells


def pframe_state(pframe):
    fr = pframe.frame
    return fr.labels, fr._join, fr._meet, pframe.true_set


def surjection_state(q):
    return pframe_state(q.source), pframe_state(q.target), q.mapping


def draws(seed, max_points, sample):
    """One draw of each sampler, every flag both ways, from random.Random(seed)
    with the samplers in sample; the states drawn and the rng's state."""
    (space_of, element_of, pointed_of, real_of, surjection_of) = sample
    rng = random.Random(seed)
    space = space_of(rng, max_points)
    out = [space]
    for nonneg, truncated in itertools.product([False, True], repeat=2):
        out.append(element_state(element_of(rng, space, nonneg, truncated)))
    if max_points >= 2:
        pframe = pointed_of(rng, max_points)
        out.append(pframe_state(pframe))
        out += [element_state(real_of(rng, pframe, nonneg)) for nonneg in (False, True)]
        q = surjection_of(rng, pframe)
        out += [surjection_state(q), element_state(real_of(rng, q.target))]
    return out, rng.getstate()


SAMPLERS = (random_space, simple_element, pointed_frame, frame_real, dense_surjection)
REFERENCES = (reference_random_space, reference_simple_element, reference_pointed_frame,
              reference_frame_real, reference_dense_surjection)


@pytest.mark.parametrize("max_points", [2, 3, 4])
def test_samplers_draw_what_the_constructor_path_drew(max_points):
    """Equal objects and an equal rng state, from cold catalogues and warm."""
    for seed in range(501):
        assert draws(seed, max_points, SAMPLERS) == draws(seed, max_points, REFERENCES), seed


def test_simple_elements_draw_on_one_point_spaces():
    for seed in range(50):
        assert (draws(seed, 1, SAMPLERS[:2] + (None,) * 3)
                == draws(seed, 1, REFERENCES[:2] + (None,) * 3))


def test_dense_surjection_builds_the_options_of_a_hand_built_pointed_frame():
    s = frozenset
    f8 = FiniteFrame.from_sets([s(c) for r in range(4) for c in itertools.combinations("abc", r)])
    pframe = PointedFiniteFrame(f8, focus=s("b"))
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        q, want = dense_surjection(rng, pframe), reference_dense_surjection(ref, pframe)
        assert surjection_state(q) == surjection_state(want)
        assert rng.getstate() == ref.getstate()


def test_closed_set_family_is_the_saturated_family():
    for size in range(6):
        base = [f"e{i}" for i in range(size)]
        for seed in range(501):
            rng, ref = random.Random(seed), random.Random(seed)
            assert closed_set_family(rng, base) == reference_closed_set_family(ref, base)
            assert rng.getstate() == ref.getstate(), (size, seed)


def test_the_samplers_read_no_frame_table():
    """sampling reaches a frame's tables only through frame methods."""
    tree = ast.parse(Path(sampling.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & {"_join", "_meet", "_up", "_bot", "_top"} == set()


# --- the per-process catalogue --------------------------------------------

def test_a_repeated_draw_returns_the_pointed_frame_validated_once(monkeypatch):
    validated = []
    honest = PointedFiniteFrame._validate

    def counted(self):
        validated.append(self)
        return honest(self)

    monkeypatch.setattr(sampling, "_FRAMES", {})
    sampling._dense_options.cache_clear()
    monkeypatch.setattr(PointedFiniteFrame, "_validate", counted)
    first = pointed_frame(random.Random(3))
    again = pointed_frame(random.Random(3))
    assert again is first and validated == [first]
    q = dense_surjection(random.Random(1), first)
    built = len(validated)  # the targets of the options
    assert dense_surjection(random.Random(1), again) is q and len(validated) == built
    assert [v is first for v in validated].count(True) == 1


CATALOGUE_SIZES = textwrap.dedent("""
    import contextlib, io, json, sys
    from trunclab import cli, sampling

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["suite", "--seed", sys.argv[1]])
    entries = sampling._FRAMES.values()
    print(json.dumps({
        "optimize": sys.flags.optimize, "exit": code,
        "spaces": sorted(len(sp.nonstar) + 1 for sp in sampling._SPACES.values()),
        "frames": len(entries),
        "pointed_over_points": [len(e.pointed) <= len(e.points) for e in entries],
        "options_over_pointed": (sampling._dense_options.cache_info().currsize
                                 <= sum(len(e.pointed) for e in entries))}))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_a_full_suite_run_keeps_the_catalogue_within_its_bounds(flags):
    for seed in ("0", "5"):
        proc = subprocess.run([sys.executable, *flags, "-c", CATALOGUE_SIZES, seed],
                              env=env_with_src(), capture_output=True, text=True,
                              timeout=120, check=False)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        sizes = json.loads(proc.stdout)
        assert sizes["optimize"] == len(flags) and sizes["exit"] == 0
        assert set(sizes["spaces"]) <= {2, 3, 4, 5} and sizes["spaces"]
        assert 0 < sizes["frames"] <= 16
        assert all(sizes["pointed_over_points"]) and sizes["options_over_pointed"]


# --- the certificate on the atom description -------------------------------

def env_with_src():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


FORGED_ATOMS = textwrap.dedent("""
    import itertools, json, random, sys
    from trunclab.errors import CertificationError
    from trunclab.frames import FiniteFrame, PointedFiniteFrame
    from trunclab.rat import format_label
    from trunclab.sampling import frame_real

    S = frozenset
    def f8():
        return FiniteFrame.from_sets([S(c) for r in range(4)
                                      for c in itertools.combinations("abc", r)])

    for seed in range(40):  # the first seed that puts the first two atoms apart
        rng = random.Random(seed)
        if rng.randrange(3) != rng.randrange(3):
            break

    def run(frame):
        try:
            frame_real(random.Random(seed), PointedFiniteFrame(frame, focus=S("b")))
            return None
        except CertificationError as exc:
            return [str(exc).split(" (witness")[0], [format_label(x) for x in exc.witness]]

    F8 = f8()
    A, B, C, TOP = (F8.index[S(x)] for x in ("a", "b", "c", "abc"))
    runs = {"described": [format_label(F8.labels[i]) for i in F8._atoms]}
    forgeries = {"drop an atom": (A, B), "drop the point's atom": (A, C),
                 "give a point two atoms": (A, B, C, TOP)}
    for name, forged in forgeries.items():
        frame = f8()
        frame.__dict__["_atoms"] = forged
        runs[name] = run(frame)
    frame = f8()
    frame.__dict__["complemented"] = frame.complemented - {S("c")}
    runs["a point below no atom"] = run(frame)
    print(json.dumps({"optimize": sys.flags.optimize, "runs": runs}))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_a_forged_atom_description_fails_its_certificates(flags):
    """frame_real writes its real through the partition check of the
    FrameReal constructor: blocks of a forged atom description that do not
    partition the top are a CertificationError, also under python -O."""
    proc = subprocess.run([sys.executable, *flags, "-c", FORGED_ATOMS], env=env_with_src(),
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == len(flags)
    runs = result["runs"]
    assert runs.pop("described") == ["{a}", "{b}", "{c}"]
    refused = "the blocks of Boolean atoms must partition the top: "
    uncovered = refused + "cells do not cover the frame"
    assert runs == {
        "drop an atom": [uncovered, ["{a}", "{b}"]],
        "drop the point's atom": [uncovered, ["{a}", "{c}"]],
        "give a point two atoms": [refused + "cells frozenset({'a', 'c'}) and "
                                   "frozenset({'a', 'b', 'c'}) are not disjoint",
                                   ["{a,c}", "{b}", "{a,b,c}"]],
        "a point below no atom": [uncovered, ["{a}", "{b}"]],
    }


def test_the_atom_description_of_sampled_frames():
    """The atoms are the minimal nonzero complemented elements and each point
    lies below exactly one, on every catalogue frame and its quotients."""
    for seed in range(60):
        rng = random.Random(seed)
        pframe = pointed_frame(rng)
        for fr in (pframe.frame, dense_surjection(rng, pframe).target.frame):
            comp = [fr.index[x] for x in fr.complemented if x != fr.bottom]
            assert list(fr._atoms) == sorted(a for a in comp if not any(
                b != a and fr._up[b] >> a & 1 for b in comp))
            assert all(sum(fr._up[p] >> a & 1 for a in fr._atoms) == 1 for p in fr.points)
