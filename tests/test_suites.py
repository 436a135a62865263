"""The suite registry: names, execution order, run_all caps, case counts and
the replay of a failure by its case index."""

import contextlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import trunclab
from trunclab import cli, sampling, suites
from trunclab.elements import OPS, DiniReport
from trunclab.frames import FrameReal
from trunclab.seqspace import TailElement

NAMES = ["trunc-axioms", "identities", "good-sequences", "idealization",
         "equivalences", "induced-oracle", "cut-cases", "normal-clearance",
         "ex1-battery", "degree2-refutation", "dini", "drop-e0q", "kernels",
         "seq-closure", "convergence", "boolean"]

CAPS = {"idealization": 25, "induced-oracle": 60, "drop-e0q": 60, "boolean": 25}

# SUITES[name](seed=0, cases=c).cases for c = 1, 9, 40; a suite runs and
# counts exactly its budget, and a fixed suite counts the work it runs.
CASES = {name: (1, 9, 40) for name in NAMES}
CASES.update({"equivalences": (1, 5, 5), "ex1-battery": (1, 1, 1),
              "degree2-refutation": (1, 1, 1), "kernels": (8, 8, 8)})

DEFAULTS = {"trunc-axioms": 200, "identities": 200, "good-sequences": 200,
            "idealization": 40, "equivalences": 5, "induced-oracle": 100,
            "cut-cases": 200, "normal-clearance": 200, "ex1-battery": 1,
            "degree2-refutation": 1, "dini": 100, "drop-e0q": 100, "kernels": 1,
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
        case = inspect.getclosurevars(fn).nonlocals["case"]
        assert list(inspect.signature(case).parameters) == ["rng", "i", "fail"]


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
    """A budget <= 0 runs no case and builds no random.Random, fixed suites
    included."""
    monkeypatch.setattr(suites, "random", None)  # a suite that ran would raise
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
                      "planted": [message for _, message in planted.failures]}))
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


def seq_closure_failures(monkeypatch, op, plant):
    """The seq-closure failures, seed 0 and 20 cases, when the operation op
    returns plant(its honest result)."""
    honest = {name: getattr(TailElement, name) for name in SEQ_CLOSURE_OPS.values()}
    method = SEQ_CLOSURE_OPS[op]
    monkeypatch.setattr(TailElement, method,
                        lambda self, *args: plant(honest[method](self, *args)))
    if op == "negate":  # f - g is f + (-g): keep the subtraction honest
        monkeypatch.setattr(TailElement, "__sub__", lambda self, other:
                            honest["__add__"](self, honest["__neg__"](other)))
    return [f for _, f in suites.SUITES["seq-closure"](seed=0, cases=20).failures]


@pytest.mark.parametrize("plant, message", [
    (one_too_large_at_1, "{op} pointwise mismatch at n="),
    (past_degree_2, "{op} left the degree-")], ids=["value", "degree"])
@pytest.mark.parametrize("op", SEQ_CLOSURE_OPS)
def test_seq_closure_oracle_catches_a_planted_fault(monkeypatch, op, plant, message):
    """A wrong result of any one operation is reported under its name: the
    oracle evaluates the operands, never the operation under test."""
    failures = seq_closure_failures(monkeypatch, op, plant)
    assert any(f.startswith(message.format(op=op)) for f in failures), failures


@pytest.mark.parametrize("position", [2, 7])
@pytest.mark.parametrize("op", SEQ_CLOSURE_OPS)
def test_seq_closure_names_the_planted_position(monkeypatch, op, position):
    """A result one too large at one position n > 1 only is reported at
    exactly that n in every case: the oracle's window starts at position 1."""
    def one_too_large_there(res):
        return TailElement({**res.correction,
                            position: res.correction.get(position, 0) + 1}, res.tail)

    failures = seq_closure_failures(monkeypatch, op, one_too_large_there)
    assert failures == [f"{op} pointwise mismatch at n={position}"] * 20


def double_three_term_sums(monkeypatch):
    """A good sequence of three terms sums to twice its element."""
    honest = suites.element_from_good
    monkeypatch.setattr(suites, "element_from_good", lambda gs: honest(gs).scale(2)
                        if len(gs) == 3 else honest(gs))


def refute_five_step_frame_sequences(monkeypatch):
    """A Dini sequence of five frame-real steps is reported nonuniform."""
    honest = suites.dini_check
    monkeypatch.setattr(suites, "dini_check", lambda seq: DiniReport(True, False, {})
                        if len(seq) == 7 and isinstance(seq[0], FrameReal) else honest(seq))


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    [check] = json.loads(out.getvalue())["checks"]
    return code, check["detail"]


# (suite, seed, planted fault, the case that first fails): dini alternates
# simple elements and frame reals, so its fault hits odd cases only
PLANTED = [("good-sequences", 5, double_three_term_sums, 12),
           ("dini", 0, refute_five_step_frame_sequences, 11)]


@pytest.mark.parametrize("name, seed, plant, first_case", PLANTED,
                         ids=[name for name, *_ in PLANTED])
def test_the_printed_argv_replays_the_first_failure(monkeypatch, name, seed, plant,
                                                    first_case):
    """Case i draws the same whatever the budget, so `--cases i+1` ends with
    the first failure of a full run, and the CLI prints that argv."""
    plant(monkeypatch)
    first = suites.SUITES[name](seed=seed, cases=200).failures[0]
    assert first[0] == first_case
    assert suites.SUITES[name](seed=seed, cases=first_case + 1).failures[-1] == first
    replay = f"trunclab suite {name} --seed {seed} --cases {first_case + 1}"
    code, detail = run_cli(["suite", name, "--seed", str(seed)])
    assert code == 1
    assert detail == (f"200 cases; first failure: {first[1]} "
                      f"(case {first_case}; replay: {replay})")
    code, again = run_cli(replay.split()[1:])
    assert code == 1
    assert again == detail.replace("200 cases", f"{first_case + 1} cases")


# perfbench pins the seeds of these suites by what the first draw of
# random.Random(seed) gives: (sampler, its keyword arguments)
FIRST_DRAWS = {"kernels": ("random_space", {"max_points": 3}),
               "idealization": ("random_gba", {}),
               "boolean": ("random_gba", {})}


@pytest.mark.parametrize("seed", [0, 1, 7, 2801])
@pytest.mark.parametrize("name", FIRST_DRAWS)
def test_case_0_makes_the_first_draw_the_benchmark_pins(monkeypatch, name, seed):
    sampler, kwargs = FIRST_DRAWS[name]
    honest = getattr(sampling, sampler)
    calls = []

    def spy(rng, **kw):
        calls.append((rng.getstate(), kw, honest(rng, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(sampling, sampler, spy)
    suites.SUITES[name](seed=seed, cases=1)
    state, kw, drawn = calls[0]
    assert (state, kw) == (random.Random(seed).getstate(), kwargs)
    assert drawn == honest(random.Random(seed), **kwargs)
