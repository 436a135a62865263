"""Certificates are explicit checks that stay on under python -O."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from trunclab import cli, frames
from trunclab.elements import SimpleElement
from trunclab.errors import CertificationError
from trunclab.frames import (FiniteFrame, FrameReal, FrameSurjection,
                             OpenInterval, PointedFiniteFrame, _certify_lift,
                             chi, real_line, surjection_tools)
from trunclab.rat import chance

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trunclab"
INSTANCE = str(Path(__file__).resolve().parent / "golden" / "instance.tl")

A, B = frozenset({"a"}), frozenset({"b"})
F4 = FiniteFrame.from_sets([frozenset(), A, B, frozenset({"a", "b"})])
PF4 = PointedFiniteFrame(F4, focus=A)


def identity():
    return FrameSurjection(PF4, PF4, {x: x for x in F4.labels})


def test_package_has_no_assert_statements():
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_floats():
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Name) and node.id == "float"
             or isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert found == []


def test_random_draws_go_through_chance():
    """A float draw is compared only in rat.chance, and there exactly."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "chance"
                   and path.name == "rat.py" for node in ast.walk(fn)}
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "random" and id(node) not in allowed]
    assert found == []


@pytest.mark.parametrize("num, den", [(7, 10), (3, 4), (1, 2), (2, 5), (3, 5)])
def test_chance_matches_the_fraction_comparison(num, den):
    ours, theirs = random.Random(num * 100 + den), random.Random(num * 100 + den)
    for _ in range(10 ** 5):
        assert chance(ours, num, den) == (theirs.random() < Fraction(num, den))
    assert ours.random() == theirs.random()


def test_galois_certificate_names_the_failing_pair():
    q = identity()
    q.adjoint[A] = B
    with pytest.raises(CertificationError) as info:
        surjection_tools(q)
    x, y = info.value.witness
    assert F4.leq(q(x), y) != F4.leq(x, q.adjoint[y])


def test_lift_certificate_names_the_failing_probe():
    q, h = identity(), chi(PF4, B)
    _certify_lift(q, h, h)
    with pytest.raises(CertificationError) as info:
        _certify_lift(q, h, h.scale(2))
    assert isinstance(info.value.witness, OpenInterval)


@pytest.mark.parametrize("argv, target, attr, broken, message", [
    (["induced-op", "add", "u", "v"], frames, "oracle_mismatch",
     lambda *args: real_line(), "join-of-meets oracle disagrees (witness (-inf,inf))"),
    (["pointwise", "g", "h", "gn"], SimpleElement, "join", SimpleElement.meet,
     "pointwise sup fails the cut test"),
    (["pointwise", "u", "v", "un"], FrameReal, "join", FrameReal.meet,
     "pointwise sup fails the cut test"),
    (["drop", "q", "hz"], OpenInterval, "restrict_to_reals", lambda u: real_line(),
     "drop square"),
], ids=["induced-op", "pointwise-simple", "pointwise-frame", "drop"])
def test_failed_certificate_exits_1_with_its_witness(argv, target, attr, broken,
                                                      message, monkeypatch, capsys):
    monkeypatch.setattr(target, attr, broken)
    code = cli.main([*argv, "--file", INSTANCE, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["ok"] is False
    failed = [c for c in out["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["certificate"]
    assert failed[0]["detail"].startswith(message)
    assert "(witness " in failed[0]["detail"]
