"""The golden corpus: recorded CLI runs replayed in-process through cli.main.

Each entry of tests/golden/corpus.json is an argv (with --file relative to
tests/golden), the exit code and the exact stdout; an entry that exits 1 or 2
also keeps the first stderr line, which tells one refusal from another.  An
uncaught exception counts as exit code 1, as it does for the interpreter.  To re-record the
corpus after a deliberate output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trunclab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.json"

F = ("--file", "instance.tl")
K = ("--file", "kernels.tl")
J = ("--json",)
C = ("--cases", "20")


def _each(tags_and_operands, *tail):
    return [("induced-op", *parts, *tail) for parts in tags_and_operands]


ARGVS = [
    # every command on every model it accepts
    ("check", *F, *J),
    ("check", *F),
    ("check", "g", "T", "A", "P", "Q", "B", "D", "q", "fd", *F, *J),
    ("check", *K, *J),
    ("normal-form", "g", "gn", *F, *J),
    ("normal-form", "f0", *F),
    ("good-seq", "g", "gs", "f0", *F, *J),
    *[(*argv, "--file", "frame_goodseq.tl", *J) for argv in (("check",), ("good-seq", "gs"))],
    ("good-seq", "z", "gz", "--file", "zero_goodseq.tl", *J),
    ("trunc-seq", "g", "es", *F, *J),
    ("trunc-seq", "bad", *F, *J),
    ("uc", "T", "u", *F, *J),
    ("uc", "v", *F, *J),
    ("equivalence", "X3", *F, *J),
    ("equivalence", "Y", "--file", "equivalence_budget.tl", *J),
    ("frame-eval", "u", "(-inf,1/2)", *F, *J),
    ("frame-eval", "v", "1", "inf", *F, *J),
    ("frame-eval", "w", "(-inf,inf)", *F),
    *_each([("add", "g", "h"), ("sub", "g", "h"), ("negate", "g"),
            ("scale:1/2", "g"), ("scale:-2", "gn"), ("meet", "g", "h"),
            ("join", "g", "h"), ("truncate", "g"), ("tminus:1/2", "g"),
            ("tminus:0", "g"), ("truncN:2", "g")], *F, *J),
    *_each([("add", "g0", "a1"), ("sub", "g0", "a1"), ("negate", "an"),
            ("scale:3", "g0"), ("meet", "g0", "a1"), ("join", "an", "g0"),
            ("meet", "g0", "b2"), ("truncate", "a1"), ("tminus:1/3", "g0"),
            ("tminus:0", "g0"), ("truncN:3/2", "a1")], *F, *J),
    *_each([("add", "u", "v"), ("sub", "u", "v"), ("negate", "un"),
            ("scale:-1/2", "v"), ("meet", "u", "un"), ("join", "u", "un"),
            ("truncate", "v"), ("tminus:1/2", "v"), ("tminus:0", "v"),
            ("truncN:1/2", "v")], *F, *J),
    ("induced-op", "add", "g", "h", *F),
    ("induced-op", "truncate", "u", *F),
    ("drop", "q", "hz", *F, *J),
    ("drop", "q", "hz", *F),
    ("e0q", "q", "w2", *F, *J),
    ("e0q", "q", "h", "--file", "e0q_refusal.tl", *J),
    ("kernel-check", "K", "K1", *C, *K, *J),
    ("kernel-check", "K3", "K4", *C, *K, *J),
    ("kernel-close", "K", "K1", "K3", "K4", *K, *J),
    ("pointwise", "K", *C, *K, *J),
    ("pointwise", "K1", *C, *K, *J),
    ("pointwise", "K3", *C, *K, *J),
    ("pointwise", "K4", *C, *K, *J),
    *[(command, "K5", "--file", "kernel_deg2.tl", *J)
      for command in ("kernel-check", "pointwise")],
    ("pointwise", "g", "h", "gn", *F, *J),
    ("pointwise", "u", "v", "un", *F, *J),
    ("pointwise", "w", *F, *J),
    *[(*argv, "--file", "spectrum.tl", *J) for argv in (
        ("drop", "qa", "hinf"), ("drop", "qa", "hneg"), ("pointwise", "u", "un"),
        ("pointwise", "un", "u"), ("pointwise", "un"), ("pointwise", "hinf"),
        ("pointwise", "hneg"))],
    ("dini", "s", "fd", *F, *J),
    *[("dini", seq, "--file", "dini_models.tl", *J) for seq in ("ts", "dw", "dz")],
    ("ex1-report", *C, *J),
    ("ex1-report", "--cases", "0", *J),
    ("ex1-report", "--cases", "-3", "--seed", "9", *J),
    ("suite", "ex1-battery", "--cases", "0", *J),
    ("suite", "trunc-axioms", *C, *J),
    ("suite", "trunc-axioms", "identities", "cut-cases", "--cases", "6",
     "--seed", "3", *J),
    ("suite", "degree2-refutation", "kernels", "--cases", "4", *J),
    # input errors: every one exits 2
    ("normal-form", "g", *J),
    ("normal-form", "nosuch", *F, *J),
    ("normal-form", "u", *F, *J),
    ("good-seq", "T", *F, *J),
    ("frame-eval", "u", "(a,b)", *F, *J),
    ("dini", "es", *F, *J),
    *[(command, *F, *J) for command in ("good-seq", "trunc-seq", "kernel-close", "pointwise")],
    ("suite", "nosuch", *J),
    # except these two: only suite reads --cases, so they run as with any budget
    ("kernel-check", "K", "--cases", "0", *K, *J),
    ("pointwise", "K1", "--cases", "-1", *K, *J),
    *[("pointwise", "u", x, "--file", "spectrum.tl", *J) for x in ("up", "g")],
    *[(command, "s", "--file", "space_terms.tl", *J) for command in ("dini", "trunc-seq")],
    ("check", "--file", "space_goodseq.tl", *J),
    ("check", "--file", "frame_goodseq_dtype.tl", *J),
    ("kernel-check", "K", "--file", "tail_flags.tl", *J),
    ("check", "--file", "missing.tl", *J),
    ("check", "--file", "bad_kernel.tl", *J),
    ("check", "--file", "nonconvex_kernel.tl", *J),
    ("check", "--file", "unknown_point.tl", *J),
    ("check", "--file", "pentagon.tl", *J),
    # every refusal of a gba line, one file each, as a refused line fails its file
    *[("check", "--file", f"gba_{name}.tl", *J) for name in (
        "join_not_closed", "join_not_total", "bottom_outside", "chain", "pentagon",
        "not_lattice", "diff_fails", "diff_not_total", "join_asymmetric")],
    # and of a trunc line's component family
    *[("check", "--file", f"trunc_{name}.tl", *J) for name in ("not_closed", "outside_points")],
    ("induced-op", "mul", "g", "g", *F, *J),
    ("induced-op", "add", "g", "u", *F, *J),
    ("induced-op", "add", "w", "w", *F, *J),
    ("induced-op", "tminus:0", "hz", *F, *J),
    ("induced-op", "tminus:-1", "g", *F, *J),
    *[("induced-op", "truncN:0", x, *F, *J) for x in ("g", "g0", "u")],
    ("induced-op", "tminus:x", "u", *F, *J),
    *[("induced-op", *parts, *F, *J)
      for x, y in (("g", "h"), ("g0", "a1"), ("u", "v"))
      for parts in (("negate", x, x), ("sub", x, y, y), ("add", x),
                    ("meet", x), ("truncate", x, x), ("scale", x),
                    ("tminus:1/0", x), ("add:3", x, y))],
    *[("induced-op", "tminus:0", neg, *F, *J) for neg in ("gn", "an", "un")],
    *[("induced-op", "truncate", neg, *F, *J) for neg in ("gn", "an", "un")],
]


def run(argv):
    """The corpus entry of one CLI run, with --file resolved in tests/golden.

    The stderr line names a file as the argv does, relative to tests/golden.
    """
    resolved = list(argv)
    if "--file" in resolved:
        at = resolved.index("--file") + 1
        resolved[at] = str(GOLDEN / resolved[at])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(resolved)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a traceback exits 1
            code = 1
    entry = {"argv": list(argv), "exit": code, "stdout": out.getvalue()}
    if code in (1, 2):
        first = err.getvalue().partition("\n")[0]
        entry["stderr"] = first.replace(str(GOLDEN) + os.sep, "")
    return entry


def _load():
    if not CORPUS.exists():  # not recorded yet
        return []
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_matches_argv_list():
    assert [tuple(e["argv"]) for e in _load()] == ARGVS


@pytest.mark.parametrize("entry", _load(), ids=lambda e: " ".join(e["argv"]))
def test_golden(entry):
    assert run(entry["argv"]) == entry


REPLAY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_golden
entries = test_golden._load()
print(json.dumps({"optimize": sys.flags.optimize, "entries": len(entries),
                  "mismatches": [e["argv"] for e in entries
                                 if test_golden.run(e["argv"]) != e]}))
"""


@pytest.mark.parametrize("budget", [("--cases", "0", "--seed", "5"), ("--cases", "-1")],
                         ids=["cases 0 seed 5", "cases -1"])
def test_only_suite_reads_the_budget(budget):
    """Every command but suite is exact and draws nothing, so it ignores
    --cases and --seed: any budget gives the recorded exit code and stdout."""
    for entry in _load():
        if entry["argv"][0] != "suite":
            got = run([*entry["argv"], *budget])
            assert (got["exit"], got["stdout"]) == (entry["exit"], entry["stdout"]), \
                entry["argv"]


def test_corpus_replays_under_python_O():
    """The whole corpus, replayed in one process with asserts stripped: a
    check that lived in an assert would vanish and change some output."""
    here = Path(__file__).resolve().parent
    src = str(here.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", REPLAY, str(here)], env=env,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"optimize": 1, "entries": len(ARGVS), "mismatches": []}


def record():
    entries = [run(argv) for argv in ARGVS]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return entries


if __name__ == "__main__":
    print(f"recorded {len(record())} entries in {CORPUS}")
