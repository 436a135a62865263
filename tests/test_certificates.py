"""Certificates are explicit checks that stay on under python -O."""

import ast
import importlib
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from trunclab import cli, frames
from trunclab.elements import SimpleElement
from trunclab.errors import CertificationError
from trunclab.frames import (FiniteFrame, FrameReal, FrameSurjection,
                             OpenInterval, PointedFiniteFrame, _certify_square,
                             chi, surjection_tools)
from trunclab.rat import NEG_INF, POS_INF, chance

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trunclab"
TESTS = Path(__file__).resolve().parent
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


def test_package_has_no_unused_imports():
    """Every name a module outside __init__ imports at its top level is used,
    in the package and in the test modules."""
    found = []
    for path in sorted([*PACKAGE.rglob("*.py"), *TESTS.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.relative_to(PACKAGE.parents[1])}:{node.lineno} {name}"
                  for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                  for alias in node.names
                  for name in [(alias.asname or alias.name).partition(".")[0]]
                  if name not in used]
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
    message = "the lift must satisfy q o h' = h o p"
    _certify_square(q, h, h, message)
    with pytest.raises(CertificationError, match="the lift must satisfy") as info:
        _certify_square(q, h.scale(2), h, message)
    assert info.value.witness == B  # the point of the target where 2h and h differ


@pytest.mark.parametrize("argv, target, attr, broken, message", [
    (["induced-op", "add", "u", "v"], frames, "oracle_mismatch",
     lambda *args: OpenInterval(NEG_INF, POS_INF), "join-of-meets oracle disagrees (witness (-inf,inf))"),
    # u - v is -1/2 on b, strictly inside the gap (-1, 0) of the cut grid of
    # the operand values 0, 1 and 3/2; a result of -3/4 there fails below -1/2
    (["induced-op", "sub", "u", "v"], frames, "apply_op",
     lambda tag, ops, param=None: FrameReal(ops[0].pframe, [(Fraction(-3, 4), "b"),
                                                            (Fraction(0), "a")]),
     "join-of-meets oracle disagrees (witness (-inf,-5/8))"),
    (["pointwise", "g", "h", "gn"], SimpleElement, "join", SimpleElement.meet,
     "pointwise sup fails the cut test"),
    (["pointwise", "u", "v", "un"], FrameReal, "join", FrameReal.meet,
     "pointwise sup fails the cut test"),
    # drop's result forged to its values plus 1: hz drops to 0 on TWO, forged to 1
    (["drop", "q", "hz"], frames, "FrameReal",
     lambda pframe, cells, **kw: FrameReal(pframe, [(v + 1, c) for v, c in cells],
                                           pointed=False),
     "drop square"),
], ids=["induced-op", "induced-op-moved-value", "pointwise-simple", "pointwise-frame",
        "drop"])
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


def test_forged_canonical_result_exits_1_under_python_O(tmp_path):
    """Operation results are checked only at the basepoint
    (FrameReal._canonical); a wrong one still fails the join-of-meets
    oracle, also with asserts stripped."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from trunclab import cli
        from trunclab.frames import FrameReal

        honest = FrameReal._canonical.__func__

        def forged(cls, pframe, nums, den):
            nums = [n + den if n else n for n in nums]  # nonzero point values + 1
            return honest(cls, pframe, nums, den)

        FrameReal._canonical = classmethod(forged)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["induced-op", "add", "u", "v", "--file", sys.argv[1],
                             "--json"])
        print(json.dumps({"optimize": sys.flags.optimize, "exit": code,
                          "report": out.getvalue()}))
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script, INSTANCE],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == 1 and result["exit"] == 1
    report = json.loads(result["report"])
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["certificate"]
    # u + v is 5/2 on b and the forged result says 7/2: the values 0, 5/2
    # and 7/2 put the tight open (5/4,3) around 5/2
    assert failed[0]["detail"] == ("join-of-meets oracle disagrees "
                                   "(witness (5/4,3))")


def _env_with_src():
    src = str(PACKAGE.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _probe_names():
    tree = ast.parse((PACKAGE.parents[1] / "perfbench" / "tracing.py")
                     .read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["PROBES"])
    return [ast.literal_eval(key) for key in node.value.keys]


@pytest.mark.parametrize("name", _probe_names())
def test_benchmark_probe_names_resolve(name):
    """The benchmark's named probes wrap trunclab attributes by dotted name;
    a rename would silently leave a probe reading zero."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"trunclab.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{name}: no {attr!r} on {obj!r}"
        obj = getattr(obj, attr)


FORGED_FORGET = textwrap.dedent("""
    import contextlib, io, json, sys
    from trunclab import cli, equivalences

    honest = equivalences.iba_forget

    def forged(bi):
        alg = honest(bi)
        one, none = alg.index.get(frozenset({"1"})), alg.index[frozenset()]
        if one is not None:  # on a space with the point 1
            alg._diff[one][none] = none  # {1} \\ {} is {1}
        return alg

    equivalences.iba_forget = forged
    runs = []
    for argv in (["equivalence", "x", "--file", sys.argv[1]],
                 ["suite", "equivalences", "--cases", "3"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, "--json"])
        runs.append({"exit": code, "report": json.loads(out.getvalue())})
    print(json.dumps({"optimize": sys.flags.optimize, "runs": runs}))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_broken_round_trip_is_a_failed_check(flags, tmp_path):
    """A round trip that raises while it is built fails that trip (exit 1);
    the space itself is valid, so it is not an input error (exit 2)."""
    path = tmp_path / "x.tl"
    path.write_text("space x points * 1 2 star *\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, *flags, "-c", FORGED_FORGET, str(path)],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == len(flags)
    equivalence, suite = result["runs"]
    assert equivalence["exit"] == 1
    checks = {c["name"]: c for c in equivalence["report"]["checks"]}
    assert checks["x: stone(clopen(X)) ~ X"]["passed"]
    trip = checks["x: idealize(forget(B)) ~ B"]
    assert not trip["passed"]
    assert trip["detail"].startswith("idealize needs a valid gBa: invalid: "
                                     "[diff equations fail at ")
    assert checks["x: uc(lc(X)) ~ forget(clopen(X))"] == {
        "name": "x: uc(lc(X)) ~ forget(clopen(X))", "passed": False,
        "detail": "forget(clopen(X)) is not a valid gBa"}
    assert suite["exit"] == 1
    [check] = suite["report"]["checks"]
    assert not check["passed"]
    assert check["detail"].startswith(
        "3 cases; first failure: equivalence fails on 2 points: ")


FORGED_CANONICAL = textwrap.dedent("""
    import contextlib, io, json, sys
    from trunclab import cli, equivalences
    from trunclab.gba import (BooleanAlgebra, GeneralizedBooleanAlgebra,
                              IdealizedBooleanAlgebra)
    from trunclab.spaces import PointedBooleanSpace

    ONE, BOTH = frozenset({"1"}), frozenset({"1", "2"})

    def swap(x):  # the relabelling {1} <-> {1,2}
        return {ONE: BOTH, BOTH: ONE}.get(x, x)

    def table(op, labels):  # the relabelled (x, y, x op y) triples
        return [(swap(x), swap(y), swap(op(x, y))) for x in labels for y in labels]

    def relabelled_idealize(algebra):
        bi = honest["idealize"](algebra)
        a = bi.algebra
        return IdealizedBooleanAlgebra(BooleanAlgebra.from_tables(
            map(swap, a.labels), table(a.join, a.labels), table(a.meet, a.labels),
            swap(a.bottom)), map(swap, bi.ideal))

    def relabelled_uc(trunc):
        a = honest["uc"](trunc)
        return GeneralizedBooleanAlgebra.from_tables(
            map(swap, a.labels), table(a.join, a.labels), table(a.meet, a.labels),
            swap(a.bottom), table(a.diff, a.labels))

    def renamed_stone(bi):
        x = honest["stone"](bi)
        name = {p: "s" + "".join(sorted(p)) for p in x.points}
        return PointedBooleanSpace(frozenset(name.values()), name[x.star])

    forged = {"idealize": relabelled_idealize, "uc": relabelled_uc,
              "stone": renamed_stone}
    honest = {attr: getattr(equivalences, attr) for attr in forged}
    runs = {}
    for attr, fn in forged.items():
        setattr(equivalences, attr, fn)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["equivalence", "x", "--file", sys.argv[1], "--json"])
        setattr(equivalences, attr, honest[attr])
        runs[attr] = {"exit": code, "report": json.loads(out.getvalue())}
    print(json.dumps({"optimize": sys.flags.optimize, "runs": runs}))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_relabelled_round_trip_fails_its_canonical_map(flags, tmp_path):
    """Each round trip is decided by its canonical map alone: an isomorphic
    but relabelled idealize or uc ({1} <-> {1,2}), or a stone with renamed
    points, fails that trip and only that trip (exit 1)."""
    path = tmp_path / "x.tl"
    path.write_text("space x points * 1 2 star *\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, *flags, "-c", FORGED_CANONICAL, str(path)],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == len(flags)
    trips = {"stone": "x: stone(clopen(X)) ~ X",
             "idealize": "x: idealize(forget(B)) ~ B",
             "uc": "x: uc(lc(X)) ~ forget(clopen(X))"}
    for attr, run in result["runs"].items():
        assert run["exit"] == 1, attr
        failed = [c["name"] for c in run["report"]["checks"] if not c["passed"]]
        assert failed == [trips[attr]], attr
    details = {attr: next(c["detail"] for c in run["report"]["checks"] if not c["passed"])
               for attr, run in result["runs"].items()}
    assert details["stone"].startswith("not the unit p -> {p}: ")
    assert details["idealize"].startswith("join mismatch at ")
    assert details["uc"].startswith("join mismatch at ")


FORGED_UC = textwrap.dedent("""
    import contextlib, io, json, sys
    from trunclab import cli
    from trunclab.gba import GeneralizedBooleanAlgebra, ValidationReport

    def invalid(self):
        report = ValidationReport()
        report.add("forged", self.bottom)
        return report

    GeneralizedBooleanAlgebra.validate = invalid
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["uc", "T", "--file", sys.argv[1], "--json"])
    print(json.dumps({"optimize": sys.flags.optimize, "exit": code,
                      "stdout": out.getvalue(), "stderr": err.getvalue()}))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_invalid_component_algebra_is_a_failed_certificate(flags, tmp_path):
    """SimpleTrunc refuses every unclosed family, so a component algebra that
    fails validation in uc is a failed certificate (exit 1), not an input
    error (exit 2)."""
    path = tmp_path / "t.tl"
    path.write_text("space x points * 1 2 star *\ntrunc T space x components { } { 1 }\n",
                    encoding="utf-8")
    proc = subprocess.run([sys.executable, *flags, "-c", FORGED_UC, str(path)],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == len(flags)
    assert result["exit"] == 1 and result["stderr"] == ""
    report = json.loads(result["stdout"])
    assert report["checks"] == [{
        "name": "certificate", "passed": False,
        "detail": "the component family must be a gBa "
                  "(witness invalid: [forged at (frozenset(),)])"}]


FORGED_EX1 = textwrap.dedent("""
    import contextlib, io, json, sys
    from trunclab import cli, kernels, seqspace
    from trunclab.errors import CertificationError
    from trunclab.kernels import ConditionsReport, ConditionVerdict

    honest = kernels.kernel_conditions

    def cond1_fails(kernel):
        conds = honest(kernel)
        return ConditionsReport(ConditionVerdict(False, "forged"), conds.cond2,
                                conds.cond3)

    def cond3_moved(kernel):  # the witness 2/n in place of 1/n
        conds = honest(kernel)
        return ConditionsReport(conds.cond1, conds.cond2, ConditionVerdict(
            False, seqspace.TailElement.tail_unit(1).scale(2)))

    forgeries = {"baf": (seqspace, "bounded_away_from_zero_tail",
                         lambda g: (True, 1)),
                 "cond1": (kernels, "kernel_conditions", cond1_fails),
                 "cond3": (kernels, "kernel_conditions", cond3_moved)}
    module, attr, forged = forgeries[sys.argv[1]]
    setattr(module, attr, forged)
    try:
        seqspace.ex1_report()
        raised = None
    except CertificationError as exc:
        raised = str(exc)
    runs = []
    for argv in (["ex1-report"], ["suite", "ex1-battery"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, "--json"])
        runs.append({"exit": code, "report": json.loads(out.getvalue())})
    print(json.dumps({"optimize": sys.flags.optimize, "raised": raised,
                      "runs": runs}))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize("forgery, message", [
    ("baf", "the 1/n element must not be bounded away from zero"),
    ("cond1", "kernel conditions (1) and (2) must hold"),
    ("cond3", "kernel condition (3) must fail at the 1/n element")])
def test_forged_ex1_certificates_exit_1(forgery, message, flags):
    """ex1_report certifies the 1/n witness and the kernel conditions that
    ex1-report prints as passed and suite ex1-battery does not check again:
    a forgery of any one is a failed certificate, also under python -O."""
    proc = subprocess.run([sys.executable, *flags, "-c", FORGED_EX1, forgery],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == len(flags)
    assert result["raised"].startswith(message)
    for run in result["runs"]:
        assert run["exit"] == 1
        assert run["report"]["checks"] == [{"name": "certificate", "passed": False,
                                            "detail": result["raised"]}]
