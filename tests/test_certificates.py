"""Certificates are explicit checks that stay on under python -O."""

import ast
from pathlib import Path

import pytest

from trunclab.errors import CertificationError
from trunclab.frames import (FiniteFrame, FrameSurjection, OpenInterval,
                             PointedFiniteFrame, _certify_lift, chi,
                             surjection_tools)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trunclab"

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
