"""Kernel conditions, staged closure, and pointwise closure."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from samplers import sample_elements, simple_samples
from test_seqspace import CORRECTIONS, SMALL_TAILS

from trunclab import kernels
from trunclab.elements import (SimpleElement, SimpleTrunc, bound_witness, clearance,
                               lc, truncation_sequence)
from trunclab.errors import ParseError, StructureError
from trunclab.instances import parse_instance, parse_instance_text
from trunclab.kernels import (ConditionsReport, ConditionVerdict, KernelSpec,
                              PointwiseVerdict, SeqKernel, SupportKernel,
                              kernel_closure, kernel_conditions, pointwise_closed)
from trunclab.records import FrozenRecordError
from trunclab.seqspace import (SeqTrunc, TailElement, enough_uc_check, ex1_report,
                               partial_truncations)
from trunclab.spaces import space

X3 = space("1", "2", "3")
FULL = lc(X3)
T = SimpleTrunc(X3, [set(), {"1", "2"}, {"3"}, {"1", "2", "3"}])
G0 = TailElement.tail_unit(1)


def test_finite_support_kernel_passes_all_conditions():
    k = KernelSpec(FULL, support={"1", "2"})
    report = kernel_conditions(k)
    assert report.all_pass
    assert pointwise_closed(k).closed
    assert kernel_closure(k) == k


def test_whole_trunc_kernel():
    k = KernelSpec(FULL)
    assert kernel_conditions(k).all_pass
    assert pointwise_closed(k).closed


def test_zero_kernel_on_x3():
    k = KernelSpec(FULL, support=frozenset())
    assert kernel_conditions(k).all_pass
    assert kernel_closure(k) == k


def test_tail_zero_kernel_fails_condition3_exactly():
    k = KernelSpec(SeqTrunc(1), support=None, tails_allowed=(False,))
    report = kernel_conditions(k)
    assert report.cond1.passed and report.cond2.passed
    assert not report.cond3.passed
    assert report.cond3.witness == G0
    # every truncated subtraction of the witness lies in the kernel
    for n in (1, 2, 3, 10):
        assert k.contains(G0.tminus(F(1, n)))
    assert not k.contains(G0)


def test_tail_zero_kernel_not_pointwise_closed():
    k = KernelSpec(SeqTrunc(1), support=None, tails_allowed=(False,))
    verdict = pointwise_closed(k)
    assert not verdict.closed
    assert verdict.family_kind == "support-filtration"
    sup, family = verdict.witness
    assert sup == G0
    assert all(k.contains(h) for h in family)


def test_verdict_keeps_the_conditions_it_was_certified_against():
    for k in _descriptions():
        verdict = pointwise_closed(k)
        assert verdict.conditions == kernel_conditions(k)
        assert verdict.conditions.all_pass == verdict.closed
        assert "conditions" not in repr(verdict)


def test_ex1_report_decides_the_kernel_conditions_once(monkeypatch):
    calls = []
    decide = kernels.kernel_conditions
    monkeypatch.setattr(kernels, "kernel_conditions",
                        lambda k: calls.append(k) or decide(k))
    report = ex1_report()
    assert report.hyper_ok
    assert len(calls) == 1


def test_kernel_closure_reaches_whole_trunc():
    k = KernelSpec(SeqTrunc(1), support=None, tails_allowed=(False,))
    closed = kernel_closure(k)
    assert closed.tails_allowed == (True,)
    assert closed.support is None
    assert kernel_closure(closed) == closed
    assert kernel_conditions(closed).all_pass


def test_kernel_closure_idempotent_and_extensive():
    specs = [
        KernelSpec(FULL, support={"1"}),
        KernelSpec(SeqTrunc(1), support=frozenset({1, 2, 5})),
        KernelSpec(SeqTrunc(2), support=None, tails_allowed=(False, False)),
    ]
    for k in specs:
        closed = kernel_closure(k)
        assert kernel_closure(closed) == closed
        if k.support is None:
            assert all(b >= a for a, b in zip(k.tails_allowed,
                                              closed.tails_allowed))


def test_agreement_on_degree2_variants():
    for flags in ((False, False), (False, True), (True, True)):
        k = KernelSpec(SeqTrunc(2), support=None, tails_allowed=flags)
        conds = kernel_conditions(k)
        verdict = pointwise_closed(k)
        assert conds.all_pass == verdict.closed == all(flags)


def test_condition1_fails_on_degree2_tail_zero_kernel():
    # the 1/n^2 element is dominated by 1/n, so the archimedean hypothesis
    # holds while the conclusion fails
    k = KernelSpec(SeqTrunc(2), support=None, tails_allowed=(False, False))
    report = kernel_conditions(k)
    assert not report.cond1.passed
    g, h = report.cond1.witness
    assert g.order() is not None and g.order() > h.order()


def test_nonconvex_description_rejected():
    with pytest.raises(StructureError):
        KernelSpec(SeqTrunc(2), support=None, tails_allowed=(True, False))
    with pytest.raises(StructureError):
        KernelSpec(SeqTrunc(1), support=frozenset({1, 2}),
                   tails_allowed=(True,))
    with pytest.raises(StructureError):
        KernelSpec(FULL, support={"1", "99"})


def test_membership_decisions():
    k = KernelSpec(FULL, support={"1", "2"})
    assert k.contains(SimpleElement(X3, {"1": 1, "2": F(-1, 2)}))
    assert not k.contains(SimpleElement(X3, {"3": 1}))
    ks = KernelSpec(SeqTrunc(1), support=frozenset({1, 2, 5}))
    assert ks.contains(TailElement.chi([1, 5]))
    assert not ks.contains(TailElement.chi([3]))
    assert not ks.contains(G0)


def test_kernel_model_must_be_a_trunc():
    with pytest.raises(StructureError, match="kernel model"):
        KernelSpec(X3, support={"1"})
    _, errors = parse_instance_text(
        "space X points * 1 star *\nkernel K model X support 1\n")
    assert len(errors) == 1 and errors[0].lineno == 2


def test_kernel_conditions_are_exact_and_draw_no_samples(monkeypatch):
    """Kernel conditions, pointwise closure and the enough-components check
    are decided without sampling the carrier."""
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel decision sampled the carrier")

    monkeypatch.setattr(SeqTrunc, "sample_elements", refuse)
    for k in _descriptions():
        first = kernel_conditions(k)
        assert kernel_conditions(k) == first
        assert pointwise_closed(k).closed == first.all_pass
    for degree in range(4):
        assert enough_uc_check(SeqTrunc(degree))[0] == (degree == 0)
    with pytest.raises(FrozenRecordError):
        first.cond1 = first.cond3
    with pytest.raises(FrozenRecordError):
        first.cond3.passed = True


def test_failed_certificate_raises_under_python_O(tmp_path):
    """A certificate is a real check: python -O keeps it, and the CLI
    reports it as a failed check (exit 1), not a traceback."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from trunclab import cli, kernels
        from trunclab.errors import CertificationError
        from trunclab.kernels import (ConditionVerdict, ConditionsReport,
                                      KernelSpec, kernel_closure)
        from trunclab.seqspace import SeqTrunc

        bad = ConditionsReport(ConditionVerdict(False, "forced"),
                               ConditionVerdict(True), ConditionVerdict(True))
        kernels.kernel_conditions = lambda *args, **kwargs: bad
        try:
            kernel_closure(KernelSpec(SeqTrunc(1)))
            raised = None
        except CertificationError as exc:
            raised = exc.witness is bad
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["kernel-close", "K", "--file", sys.argv[1], "--json"])
        print(json.dumps({"optimize": sys.flags.optimize, "raised": raised,
                          "exit": code, "report": out.getvalue()}))
    """)
    path = tmp_path / "k.tl"
    path.write_text("seqtrunc S1 degree 1\nkernel K model S1 support all tails 0\n",
                    encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(path)],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == 1 and result["raised"] is True
    assert result["exit"] == 1
    report = json.loads(result["report"])
    assert report["ok"] is False
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["certificate"]
    assert "closure output must satisfy the kernel conditions" in failed[0]["detail"]
    assert "forced" in failed[0]["detail"]


def test_kernel_close_output_ignores_the_hash_seed(tmp_path):
    path = tmp_path / "k.tl"
    path.write_text("space X points * 1 2 3 star *\n"
                    "trunc T space X components { } { 1 } { 2 } { 1 2 } { 3 } "
                    "{ 1 3 } { 2 3 } { 1 2 3 }\n"
                    "kernel K2 model T support 1 2\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "trunclab.cli", "kernel-close", "K2",
             "--file", str(path), "--json"],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["data"]["K2"] == {"kind": "support",
                                                    "support": ["1", "2"]}


GOLDEN = Path(__file__).resolve().parent / "golden"


def _unchecked(cls, model, support, flags):
    """A description built without the constructor's checks."""
    spec = object.__new__(cls)
    spec.model, spec.support, spec.tails_allowed = model, support, flags
    return spec


def _sample_member(spec, rng, count):
    """Nonnegative members of K: on a SupportKernel samples of the subtrunc
    on the support, on a SeqKernel elements built inside the description."""
    model = spec.model
    if isinstance(spec, SupportKernel):
        subfamily = [s for s in model.components if s <= spec.support]
        return simple_samples(SimpleTrunc(model.space, subfamily), rng, count,
                              nonneg=True)
    out = [unit for unit, allowed in zip(model.tail_units(), spec.tails_allowed)
           if allowed]
    if spec.support:
        out.append(TailElement.chi(spec.support))
    for g in map(abs, model.sample_elements(rng, count)):
        tail = [c if allowed else 0 for c, allowed in zip(g.tail, spec.tails_allowed)]
        h = TailElement(g.correction, tail)
        if spec.support is not None:
            h = TailElement({n: h.value(n) for n in spec.support})
        out.append(h)
    return out


def _sampled_escape(spec, seed=0, cases=20):
    """The sampled convexity probe: is some meet of a member of K with a
    tail unit or a sampled element outside K?"""
    rng = random.Random(seed)
    members = _sample_member(spec, rng, cases)
    pool = (spec.model.tail_units()
            + sample_elements(spec.model, rng, cases, nonneg=True)[:8])
    return any(not spec.contains(g.meet(h)) for g in members for h in pool)


def _accepted(model, support, flags):
    try:
        KernelSpec(model, support=support, tails_allowed=flags)
    except StructureError:
        return False
    return True


def test_exact_convexity_agrees_with_the_sampled_probe():
    for degree in range(5):
        trunc = SeqTrunc(degree)
        for flags in itertools.product((False, True), repeat=degree):
            for support in (None, frozenset({1, 3})):
                probe = _unchecked(SeqKernel, trunc, support, flags)
                assert _accepted(trunc, support, flags) != _sampled_escape(probe), (
                    degree, flags, support)
    for model in (lc(X3), SimpleTrunc(X3, [set(), {"1", "2"}, {"3"},
                                           {"1", "2", "3"}])):
        for k in range(4):
            for support in itertools.combinations(["1", "2", "3"], k):
                probe = _unchecked(SupportKernel, model, frozenset(support), None)
                assert _accepted(model, support, None)
                assert not _sampled_escape(probe)


def test_building_a_kernel_draws_no_samples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel description sampled the carrier")

    monkeypatch.setattr(SeqTrunc, "sample_elements", refuse)
    inst = parse_instance(GOLDEN / "kernels.tl")
    kinds = {type(inst.get(n)) for n in ("K", "K1", "K3", "K4")}
    assert kinds == {SeqKernel, SupportKernel}
    with pytest.raises(ParseError, match="not convex"):
        parse_instance(GOLDEN / "nonconvex_kernel.tl")


def reference_n_star(ag, h):
    """n* of condition1_hypothesis on Fraction values, as it once was computed."""
    _, wa = ag.crossover(TailElement.zero())
    _, wh = h.crossover(TailElement.zero())
    n_star = 1
    for k in range(1, max(wa, wh) + 1):
        if (a := ag.value(k)) > 0:
            n_star = max(n_star, math.ceil(h.value(k) / a) + 1)
    for a, b in itertools.zip_longest(ag.tail, h.tail, fillvalue=F(0)):
        if a != 0:
            n_star = max(n_star, math.ceil(abs(b) / abs(a)) + 2)
    return n_star


@settings(max_examples=150, deadline=None)
@given(CORRECTIONS, SMALL_TAILS, CORRECTIONS, SMALL_TAILS)
def test_integer_n_star_matches_the_fraction_reference(gc, gt, hc, ht):
    g, h = TailElement(gc, gt), TailElement(hc, ht)
    for ag, k in ((abs(g), h), (abs(g), abs(h)), (abs(h), g.scale(F(-7, 3)))):
        assert kernels._n_star(ag, k) == reference_n_star(ag, k)


# --- the sampled kernel conditions, kept as oracles for the exact rules -----

def support_condition1_hypothesis(kernel, g, h):
    """Decide (n|g| - h)+ in K for every n on a SupportKernel.

    The sequence (n|g| - h)+ increases with n and K is convex, so membership
    for all n is membership in the stabilized large-n regime, where the
    support equals supp g.
    """
    ag = abs(g)
    n_star = 1
    for p in ag.support():
        n_star = max(n_star, math.ceil(h.value(p) / ag.value(p)) + 1)
    pos = ag.scale(n_star) - h
    pos = pos.join(SimpleElement.zero(g.space))
    assert pos.support() == ag.support()
    return kernel.contains(pos)


def condition1_hypothesis(kernel, g, h):
    if isinstance(kernel, SupportKernel):
        return support_condition1_hypothesis(kernel, g, h)
    return kernel.condition1_hypothesis(g, h)


def sampled_condition1(kernel, budget, rng):
    model = kernel.model
    units = model.tail_units()
    gs = (units + sample_elements(model, rng, budget))[:budget]
    hs = sample_elements(model, rng, budget, nonneg=True) + units
    for i, g in enumerate(gs):
        h = hs[i % len(hs)]
        if condition1_hypothesis(kernel, g, h) and not kernel.contains(g):
            return ConditionVerdict(False, (g, h))
    return ConditionVerdict(True)


def sampled_condition2(kernel, budget, rng):
    gs = sample_elements(kernel.model, rng, budget, nonneg=True)
    for g in gs:
        if kernel.contains(g.truncate()) and not kernel.contains(g):
            return ConditionVerdict(False, g)
    return ConditionVerdict(True)


def sampled_support_condition3(kernel, budget, rng):
    """Condition (3) on a SupportKernel with an exact hypothesis per sample:
    tminus(1/n)(g) increases with n, so convexity reduces the quantifier to
    the stable regime n > 1/clearance(g)."""
    gs = sample_elements(kernel.model, rng, budget, nonneg=True)
    for g in gs:
        c = clearance(g)
        n = 1 if c == 0 else math.ceil(1 / c) + 1
        if kernel.contains(g.tminus(F(1, n))) and not kernel.contains(g):
            return ConditionVerdict(False, g)
    return ConditionVerdict(True)


def sampled_conditions(kernel, budget, seed):
    """The conditions as they were once decided, by sampling the carrier."""
    rng = random.Random(seed)
    cond1 = sampled_condition1(kernel, budget, rng)
    cond2 = sampled_condition2(kernel, budget, rng)
    if isinstance(kernel, SupportKernel):
        cond3 = sampled_support_condition3(kernel, budget, rng)
    else:
        cond3 = kernel.condition3()
    return ConditionsReport(cond1, cond2, cond3)


def _descriptions():
    """Every convex flag pattern of degree 0-4 on the full support, a finite
    support on each degree, and every support on lc(X3) and on T."""
    for degree in range(5):
        trunc = SeqTrunc(degree)
        for flags in itertools.product((False, True), repeat=degree):
            if _accepted(trunc, None, flags):
                yield KernelSpec(trunc, support=None, tails_allowed=flags)
        yield KernelSpec(trunc, support=frozenset({1, 3}))
    for model in (FULL, T):
        for k in range(4):
            for support in itertools.combinations(["1", "2", "3"], k):
                yield KernelSpec(model, support=frozenset(support))


def _hypothesis_holds(k, label, witness, upto=60):
    """The condition's hypothesis replayed for n = 1..upto."""
    if label == "cond1":
        g, h = witness
        return all(k.contains((abs(g).scale(n) - h).join(g.scale(0)))
                   for n in range(1, upto + 1))
    return all(k.contains(witness.tminus(F(1, n))) for n in range(1, upto + 1))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_conditions_agree_with_the_sampled_oracle(seed):
    """The sampler never refutes an exact pass, and the witness of every
    exact fail meets the condition's hypothesis outside K."""
    for k in _descriptions():
        exact = kernel_conditions(k)
        sampled = sampled_conditions(k, budget=400, seed=seed)
        for label in ("cond1", "cond2", "cond3"):
            verdict = getattr(exact, label)
            if verdict.passed:
                assert getattr(sampled, label).passed, (k, label)
            else:
                g = verdict.witness[0] if label == "cond1" else verdict.witness
                assert not k.contains(g), (k, label)
                assert _hypothesis_holds(k, label, verdict.witness), (k, label)


def test_kernel_conditions_characterize_pointwise_closure():
    for k in _descriptions():
        assert kernel_conditions(k).all_pass == pointwise_closed(k).closed, k


def reference_families(kernel, g):
    """The structured families that the sampled search probed for a
    candidate g: (kind, whole infinite family in K, reporting prefix)."""
    if isinstance(kernel, SupportKernel):
        # on finite spaces the families become eventually constant at g
        seq = truncation_sequence(g, upto=bound_witness(g) + 2)
        seq_in = all(kernel.contains(t) for t in seq)
        yield ("truncation-sequence", seq_in, seq)
        yield ("good-partial-sums", seq_in, seq)
        pts = list(g.space.nonstar)
        filtration = [g.restrict_to(pts[:n]) for n in range(1, len(pts) + 1)]
        yield ("support-filtration", all(kernel.contains(t) for t in filtration),
               filtration)
        return
    # every truncation g ^ n shares support and tail with g, and every
    # filtration chunk has finite support and zero tail
    seq_prefix = [g.trunc_at(n) for n in (1, 2, 3)]
    seq_in = kernel.contains(g)
    assert seq_in == all(kernel.contains(t) for t in seq_prefix)
    yield ("truncation-sequence", seq_in, seq_prefix)
    yield ("good-partial-sums", seq_in, seq_prefix)
    prefix = partial_truncations(g, 6)
    if kernel.support is None:
        assert all(kernel.contains(h) for h in prefix)
        filt_in = True
    else:
        kind, data = g.support()
        filt_in = kind == "finite" and data <= kernel.support
    yield ("support-filtration", filt_in, prefix)


def sampled_pointwise_closed(kernel, budget=200, seed=0):
    """pointwise_closed as it once was: the tail units, then samples drawn
    one at a time, each outside K probed through its structured families."""
    rng = random.Random(seed)
    model = kernel.model
    samples = (sample_elements(model, rng, 1, nonneg=True)[0] for _ in range(budget))
    for g in itertools.chain(model.tail_units(), samples):
        if kernel.contains(g):
            continue
        for kind, whole_family_in_k, prefix in reference_families(kernel, g):
            if whole_family_in_k:
                return PointwiseVerdict(False, (g, prefix), kind, kernel_conditions(kernel))
    return PointwiseVerdict(True, conditions=kernel_conditions(kernel))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lazy_pointwise_closure_matches_the_eager_search(seed):
    """The exact verdict and witness are those of the sampled search, at
    every budget and seed: a witness only ever came from a tail unit."""
    for k in _descriptions():
        want = pointwise_closed(k)
        for budget in (1, 40):
            assert sampled_pointwise_closed(k, budget, seed) == want, (k, budget)
