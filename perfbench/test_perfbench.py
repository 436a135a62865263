"""Self-tests of the benchmark: `python3 -m pytest perfbench` from the repo root."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trunclab import cli, kernels, spaces, suites  # noqa: E402
from trunclab.instances import parse_instance_text  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def shrink(monkeypatch):
    """Tiny job lists: one call of each suite with few cases, three commands."""
    monkeypatch.setattr(workloads, "SUITE_MIXES", {
        w: tuple((suite, min(cases, 3), 1) for suite, cases, _ in mix)
        for w, mix in workloads.SUITE_MIXES.items()})
    monkeypatch.setattr(workloads, "CLI_MIX", workloads.CLI_MIX[:3])
    monkeypatch.setattr(run, "MIN_PASSES", 2)


def tiny(workload, trace, out_dir, seed=3):
    """A short run of the (shrunk) job list; returns (lines, final JSON, record)."""
    args = run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), "--out", str(out_dir)])
    return run.run(args)


def test_spec_names_match_what_runs_print():
    assert [m["name"] for m in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_units()


def test_suite_workloads_hold_exactly_the_sixteen_suites():
    names = [suite for mix in workloads.SUITE_MIXES.values() for suite, _, _ in mix]
    assert sorted(names) == sorted(suites.SUITES)


def test_instance_file_parses_and_holds_every_kind():
    kinds = {"space", "element", "trunc", "gba", "iba", "frame", "framereal",
             "surjection", "seqtrunc", "tailel", "sequence", "goodseq", "kernel"}
    for seed in range(20):
        inst, errors = parse_instance_text(workloads.instance_text(seed))
        assert not errors
        assert set(inst.kinds.values()) == kinds
    assert workloads.instance_text(5) == workloads.instance_text(5)
    assert {argv[0] for argv, _ in workloads.CLI_MIX} == set(cli.COMMANDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, tmp_path, monkeypatch):
    shrink(monkeypatch)
    lines, final, record = tiny(workload, 0, tmp_path)
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == want
    assert all(v["value"] > 0 for v in final["metrics"].values())
    assert any(line.startswith("outputs_sha256 ") for line in lines)
    assert any(line.startswith("failed_frac 0 ") for line in lines)
    assert any(line.startswith("as measured: setup_s ") for line in lines)
    assert set(record["measured"]) == {"setup_s", "wall_s", "cmd_p50_ms", "cmd_tail_ms"}
    assert json.loads((tmp_path / f"{workload}-s3-t0.json").read_text()) == record
    for key in ("python", "nproc", "git_commit", "seed", "passes"):
        assert key in record["stamp"]
    # Every pass ran in a process of its own.
    assert len(set(record["pass_pids"])) == record["stamp"]["passes"] >= 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_self_times_add_up_to_traced_wall(workload, tmp_path, monkeypatch):
    shrink(monkeypatch)
    lines, final, record = tiny(workload, 1, tmp_path)
    assert final["correct"]
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=0.1)
    if workload != "cli-session":   # there it is process start and import
        assert metrics["runner.self_s"] < 0.05 * metrics["trace.wall_s"]
    assert metrics["fractions.new_calls"] > 0
    assert record["leftover_wrappers"] == []
    assert (tmp_path / f"spans-{workload}-s3.jsonl").is_file()
    assert len(record["rows"]) == len(run.ROWS) + 1
    assert sum(line.startswith("row [") for line in lines) == len(run.ROWS) + 1


def test_wrappers_are_gone_after_tracing():
    originals = (suites.SUITES["kernels"], kernels.kernel_conditions,
                 kernels.KernelSpec.__dict__["_check_convexity"],
                 spaces.PointedBooleanSpace.__dict__["nonstar"].fget,
                 cli.HANDLERS["check"], Fraction.__dict__["__new__"])
    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer).install()
    assert tracing.is_wrapper(suites.SUITES["kernels"])
    assert tracing.is_wrapper(kernels.kernel_conditions)
    tracer.active = True
    suites.SUITES["degree2-refutation"](seed=1, cases=1)
    installation.uninstall()
    assert tracer.metrics()["suites.calls"] >= 1
    assert "suites.suite_degree2" in tracer.names
    assert tracer.metrics()["fractions.new_calls"] > 0
    assert tracing.leftover_wrappers() == []
    after = (suites.SUITES["kernels"], kernels.kernel_conditions,
             kernels.KernelSpec.__dict__["_check_convexity"],
             spaces.PointedBooleanSpace.__dict__["nonstar"].fget,
             cli.HANDLERS["check"], Fraction.__dict__["__new__"])
    assert all(a is b for a, b in zip(originals, after))


def test_failing_suite_call_is_a_problem(monkeypatch):
    def broken(seed=0, cases=1):
        return suites.SuiteResult("cut-cases", cases, ["deliberate failure"])

    monkeypatch.setitem(suites.SUITES, "cut-cases", broken)
    job = workloads.Job(0, "suite", "cut-cases", 5, 2)
    record, problem = workloads.run_suite(job)
    assert "deliberate failure" in problem and "deliberate failure" in record


def test_failing_job_raises_failed_frac(monkeypatch, tmp_path):
    # The second command names an object the instance file does not hold,
    # so the CLI exits 2 (input error) in every pass.
    monkeypatch.setattr(workloads, "CLI_MIX", ((("check",), True),
                                               (("uc", "NOPE", "u1"), True)))
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    lines, final, record = tiny("cli-session", 0, tmp_path, seed=9)
    assert final["failed"] == record["stamp"]["passes"] >= 2 and not final["correct"]
    assert final["metrics"]["ok_frac"]["value"] == 0.5
    failed = [line for line in lines if line.startswith("FAILED seed 9 case 1 ")]
    assert len(failed) == final["failed"]
    assert all("exit code 2" in line and "replay:" in line for line in failed)
    assert record["failures"][0]["job_seed"] >= 0


def _passes(*records):
    ref = workloads.REFERENCE_S
    return [run.Pass([0.1] * len(r), list(r), [None] * len(r), 0.1, 20.0, pi, None, [],
                     [ref] * (len(r) + 1))
            for pi, r in enumerate(records)]


def test_times_are_scaled_to_the_reference_speed():
    ref = workloads.REFERENCE_S
    # The machine ran at half the reference speed around the first job, at
    # the reference speed after the second, and twice as fast after the third.
    p = run.Pass([1.0, 1.0, 1.0], ["a", "b", "c"], [None] * 3, 0.2, 20.0, 1, None, [],
                 [2 * ref, 2 * ref, ref, ref / 2])
    assert p.scaled_times() == pytest.approx([0.5, 2 / 3, 4 / 3])
    assert p.scaled_setup() == pytest.approx(0.1)
    assert run.job_times([p], scaled=False) == [1.0, 1.0, 1.0]


def test_output_under_another_hash_seed_is_noted_not_failed():
    jobs = [workloads.Job(i, "cli", "check", 7) for i in range(2)]
    # Job 1 prints another set order under the odd passes' hash seed.
    passes = _passes(("a", "{1, 2}"), ("a", "{2, 1}"), ("a", "{1, 2}"), ("a", "{2, 1}"))
    failures, dependent, digest = run.check_outputs("cli-session", 5, jobs, passes)
    assert failures == []
    assert [d["case"] for d in dependent] == [1]
    assert len(set(dependent[0]["replays"])) == 2
    assert digest == run.check_outputs("cli-session", 5, jobs, passes[:2])[2]


def test_output_under_the_same_hash_seed_must_repeat():
    jobs = [workloads.Job(0, "suite", "cut-cases", 7, 2)]
    failures, dependent, _ = run.check_outputs(
        "frame-oracle", 5, jobs, _passes(("x",), ("x",), ("y",), ("x",)))
    assert dependent == []
    assert [(f["pass"], f["case"]) for f in failures] == [(2, 0)]
    assert "same PYTHONHASHSEED" in failures[0]["problem"]


@pytest.mark.parametrize("returncode, stdout, stderr, fails", [
    (0, '{"ok": true}', "", False),
    (1, '{"ok": false}', "", False),
    (2, "", "input error: bad", True),
    (1, "", "Traceback (most recent call last):\n  ...\nKeyError: 1", True),
    (0, "command: check", "", True),
    (1, '{"ok": true}', "", True),
])
def test_cli_output_checks(returncode, stdout, stderr, fails):
    assert (workloads.cli_problem(returncode, stdout, stderr) is not None) == fails


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    assert compare.verdict(parent, [v * 0.8 for v in parent], True, 0.1)[0] == "better"
    assert compare.verdict(parent, [v * 1.3 for v in parent], True, 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), True, 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(reversed(noisy)), True, 0.1)[0] == "unresolved"


def test_compare_reads_result_sets(tmp_path):
    for side, factor in (("parent", 1.0), ("change", 0.5)):
        (tmp_path / side).mkdir()
        for seed in range(10):
            record = {"stamp": {"workload": "seq-battery", "seed": seed},
                      "outputs_sha256": "x",
                      "metrics": {"wall_s": {"value": factor * (5 + seed / 100), "unit": "s"}}}
            (tmp_path / side / f"seq-battery-s{seed}-t0.json").write_text(json.dumps(record))
    lines = compare.compare(tmp_path / "parent", tmp_path / "change", 0)
    assert "identical on 10 of 10" in lines[0]
    assert lines[1].strip().startswith("wall_s") and lines[1].endswith("-> better")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "seq-battery",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
