"""The suite registry: names, execution order, run_all caps and case counts."""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import trunclab
from trunclab import sampling, suites
from trunclab.elements import OPS
from trunclab.seqspace import TailElement

NAMES = ["trunc-axioms", "identities", "good-sequences", "idealization",
         "equivalences", "induced-oracle", "cut-cases", "normal-clearance",
         "ex1-battery", "degree2-refutation", "dini", "drop-e0q", "kernels",
         "seq-closure", "convergence", "boolean"]

CAPS = {"idealization": 25, "induced-oracle": 60, "drop-e0q": 60, "boolean": 25}

# SUITES[name](seed=0, cases=c).cases for c = 1, 9, 40; a suite counts its
# cases as the budget unless it runs another number: a fixed suite counts
# the work it runs.
CASES = {name: (1, 9, 40) for name in NAMES}
CASES.update({"equivalences": (1, 5, 5), "ex1-battery": (1, 1, 1),
              "degree2-refutation": (1, 1, 1), "kernels": (8, 8, 8),
              "seq-closure": (0, 8, 40)})

DEFAULTS = {"trunc-axioms": 200, "identities": 200, "good-sequences": 200,
            "idealization": 40, "equivalences": 5, "induced-oracle": 100,
            "cut-cases": 200, "normal-clearance": 200, "ex1-battery": 500,
            "degree2-refutation": 1, "dini": 100, "drop-e0q": 100, "kernels": 60,
            "seq-closure": 150, "convergence": 100, "boolean": 40}


def test_registry_order_and_caps():
    assert list(suites.SUITES) == NAMES
    assert suites._SUITE_BUDGETS == CAPS


def test_suites_keep_their_public_signatures():
    for name, fn in suites.SUITES.items():
        params = inspect.signature(fn).parameters
        assert list(params) == ["seed", "cases"]
        assert (params["seed"].default, params["cases"].default) == (0, DEFAULTS[name])
        assert fn.__name__.startswith("suite_") and getattr(suites, fn.__name__) is fn
        body = inspect.getclosurevars(fn).nonlocals["body"]
        assert list(inspect.signature(body).parameters) == ["rng", "cases", "failures"]


@pytest.mark.parametrize("name", NAMES)
def test_case_counts(name):
    results = [suites.SUITES[name](seed=0, cases=c) for c in (1, 9, 40)]
    assert tuple(r.cases for r in results) == CASES[name]
    assert all(r.name == name and r.passed for r in results)


def test_run_all_applies_the_caps(monkeypatch):
    calls = []
    for name in NAMES:
        monkeypatch.setitem(suites.SUITES, name, lambda seed, cases, name=name:
                            calls.append((name, seed, cases)))
    suites.run_all(seed=7, cases=50)
    assert calls == [(n, 7, min(50, CAPS.get(n, 50))) for n in NAMES]


def test_a_negative_budget_counts_no_cases(monkeypatch):
    """A budget <= 0 runs no suite body, fixed suites included."""
    monkeypatch.setattr(suites, "random", None)  # every body gets a random.Random
    for name in NAMES:
        for cases in (0, -1):
            assert suites.SUITES[name](seed=0, cases=cases) == suites.SuiteResult(name, 0)


FRAME_SUITES = ["induced-oracle", "cut-cases", "drop-e0q", "identities", "dini",
                "convergence"]


def test_frame_suites_agree_with_a_cold_frame_cache(monkeypatch):
    runs = [(name, seed) for name in FRAME_SUITES for seed in range(4)]
    cold = []
    for name, seed in runs:
        monkeypatch.setattr(sampling, "_FRAMES", {})
        cold.append(suites.SUITES[name](seed=seed, cases=30))
    assert [suites.SUITES[name](seed=seed, cases=30) for name, seed in runs] == cold
    assert sampling._FRAMES


PLANTED_JOIN = textwrap.dedent("""
    import json, sys
    from trunclab import suites
    from trunclab.seqspace import TailElement
    honest = suites.SUITES["seq-closure"](seed=0, cases=20)
    TailElement.join = lambda self, other: self
    planted = suites.SUITES["seq-closure"](seed=0, cases=20)
    print(json.dumps({"optimize": sys.flags.optimize, "honest": honest.failures,
                      "planted": planted.failures}))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_seq_closure_oracle_catches_a_planted_join(flags):
    """The seq-closure oracle compares the results it is handed: a join that
    returns its left operand is a pointwise mismatch, also under python -O."""
    src = str(Path(trunclab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *flags, "-c", PLANTED_JOIN], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == len(flags)
    assert result["honest"] == []
    assert result["planted"]
    assert all(f.startswith("join pointwise mismatch at n=") for f in result["planted"])


# The nine operations of the seq-closure suite by the method computing each.
SEQ_CLOSURE_OPS = {tag: op.method for tag, op in OPS.items()}


def one_too_large_at_1(res):
    return TailElement({**res.correction, 1: res.correction.get(1, 0) + 1}, res.tail)


def past_degree_2(res):
    """The same element plus n^-3, outside both carriers the suite tests."""
    return TailElement(res.correction, [*res.tail, 0, 0][:2] + [1])


@pytest.mark.parametrize("plant, message", [
    (one_too_large_at_1, "{op} pointwise mismatch at n="),
    (past_degree_2, "{op} left the degree-")], ids=["value", "degree"])
@pytest.mark.parametrize("op", SEQ_CLOSURE_OPS)
def test_seq_closure_oracle_catches_a_planted_fault(monkeypatch, op, plant, message):
    """A wrong result of any one operation is reported under its name: the
    oracle evaluates the operands, never the operation under test."""
    honest = {name: getattr(TailElement, name) for name in SEQ_CLOSURE_OPS.values()}
    method = SEQ_CLOSURE_OPS[op]
    monkeypatch.setattr(TailElement, method,
                        lambda self, *args: plant(honest[method](self, *args)))
    if op == "negate":  # f - g is f + (-g): keep the subtraction honest
        monkeypatch.setattr(TailElement, "__sub__", lambda self, other:
                            honest["__add__"](self, honest["__neg__"](other)))
    failures = suites.SUITES["seq-closure"](seed=0, cases=20).failures
    assert any(f.startswith(message.format(op=op)) for f in failures), failures
