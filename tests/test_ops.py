"""One operation-tag table for all three models: the same arity, parameter
and positivity rules on simple elements, tail elements and frame reals."""

import itertools
from fractions import Fraction as F
from math import lcm

import pytest

from trunclab.elements import OPS, SimpleElement, apply_op
from trunclab.errors import (PositivityError, StructureError,
                             UnsupportedOperationError)
from trunclab.frames import (FiniteFrame, FrameReal, PointedFiniteFrame,
                             induced_op)
from trunclab.seqspace import TailElement
from trunclab.spaces import space

X3 = space("1", "2", "3")
A, B = frozenset({"a"}), frozenset({"b"})
PF4 = PointedFiniteFrame(
    FiniteFrame.from_sets([frozenset(), A, B, frozenset({"a", "b"})]), focus=A)

# (x, y, a negative element) per model
MODELS = {
    "simple": (SimpleElement(X3, {"1": 5, "2": 2, "3": F(1, 3)}),
               SimpleElement(X3, {"1": 1, "2": 3}),
               SimpleElement(X3, {"1": -1, "2": 2})),
    "tail": (TailElement({}, [1]), TailElement({3: F(1, 2), 5: 2}),
             TailElement({1: F(1, 2)}, [-1])),
    "frame": (FrameReal(PF4, [(1, B), (0, A)]), FrameReal(PF4, [(F(3, 2), B), (0, A)]),
              FrameReal(PF4, [(-2, B), (0, A)])),
}


@pytest.mark.parametrize("model", MODELS)
def test_operand_counts(model):
    x, y, _ = MODELS[model]
    for tag, operands in (("negate", [x, x]), ("sub", [x, y, y]), ("add", [x]),
                          ("meet", [x]), ("join", [x, y, x]),
                          ("truncate", [x, x]), ("add", [])):
        with pytest.raises(StructureError, match="operand"):
            apply_op(tag, operands)


@pytest.mark.parametrize("model", MODELS)
def test_parameter_rules(model):
    x, y, _ = MODELS[model]
    for tag in ("scale", "tminus", "truncN"):
        with pytest.raises(StructureError, match="needs a rational parameter"):
            apply_op(tag, [x])
    for tag, operands in (("add", [x, y]), ("negate", [x]), ("truncate", [x])):
        with pytest.raises(StructureError, match="takes no parameter"):
            apply_op(tag, operands, param=3)
    with pytest.raises(UnsupportedOperationError):
        apply_op("mul", [x, y])


@pytest.mark.parametrize("model", MODELS)
def test_positivity_rules(model):
    x, _, neg = MODELS[model]
    for tag, param in (("truncate", None), ("tminus", 0), ("tminus", 1),
                       ("truncN", 2)):
        with pytest.raises(PositivityError):
            apply_op(tag, [neg], param=param)
    for tag, param in (("tminus", -1), ("truncN", 0)):
        with pytest.raises(PositivityError):
            apply_op(tag, [x], param=param)
    assert apply_op("tminus", [x], param=0) is x


@pytest.mark.parametrize("model", MODELS)
def test_apply_op_calls_the_carrier_method(model):
    x, y, _ = MODELS[model]
    assert apply_op("add", [x, y]) == x + y
    assert apply_op("sub", [x, y]) == x - y
    assert apply_op("negate", [x]) == -x
    assert apply_op("scale", [x], param=F(-1, 2)) == x.scale(F(-1, 2))
    assert apply_op("meet", [x, y]) == x.meet(y)
    assert apply_op("join", [x, y]) == x.join(y)
    assert apply_op("truncate", [y]) == y.truncate()
    assert apply_op("tminus", [y], param=F(1, 2)) == y.tminus(F(1, 2))
    assert apply_op("truncN", [y], param=2) == y.trunc_at(2)


def test_induced_op_is_apply_op_certified():
    x, y, _ = MODELS["frame"]
    for tag, op in OPS.items():
        operands = [x, y][:op.arity]
        param = F(1, 2) if op.takes_param else None
        assert induced_op(tag, operands, param) == apply_op(tag, operands, param)


def test_table_scalar_matches_simple_elements():
    # a scalar takes and gives numerators over den, which every operand's
    # denominator times the parameter's divides
    x, y, _ = MODELS["simple"]
    for (tag, op), param in itertools.product(OPS.items(), [F(1, 2), F(2, 3), 3]):
        operands = [x, y][:op.arity]
        params = (param,) if op.takes_param else ()
        got = apply_op(tag, operands, *params)
        den = lcm(*(g._den for g in operands)) * F(param).denominator
        for i, p in enumerate(X3.nonstar):
            nums = (g._nums[i] * (den // g._den) for g in operands)
            assert F(op.scalar(den, *nums, *params), den) == got.value(p), (tag, param)
