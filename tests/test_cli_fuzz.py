"""CLI fuzz: any argv on any instance file exits 0, 1 or 2, never a traceback.
On exit 2 the last stderr line is one refusal: `input error: ...`, or
argparse's `trunclab: error: ...`.

An argv is a golden-corpus command on instance.tl, or any command with any
names, with its argument list broken by dropping, inserting, replacing or
repeating tokens (extra tokens, negatives, -inf, unknown names, stray
options).  The instance file is instance.tl with golden lines broken the
same way.  cli.main runs in-process with stdout and stderr captured.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from trunclab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
LINES = [line.split() for line in (GOLDEN / "instance.tl").read_text().splitlines()
         if line.strip() and not line.startswith("#")]
NAMES = sorted({toks[1] for toks in LINES})
# (command, names) of every golden entry on instance.tl
GOLDEN_CALLS = sorted({(e["argv"][0], tuple(e["argv"][1:e["argv"].index("--file")]))
                       for e in json.loads((GOLDEN / "corpus.json").read_text())
                       if "instance.tl" in e["argv"]})
COMMANDS = [*cli.COMMANDS, "nosuch"]
ODD_TOKENS = ["-inf", "inf", "-1/2", "-3", "0", "1/0", "-0.5", "(-inf,1)", "(a,b)",
              "(1)", "x", "add", "scale:-1/2", "tminus:1/3", "truncN:0", "meet:1",
              "nosuch", "trunc-axioms", "cut-cases", "--bogus", "-x", "-", "{", "}",
              "=", "1=", "a<b", "*"]
TOKENS = st.one_of(st.sampled_from(NAMES), st.sampled_from(ODD_TOKENS))
# (how, which line, position in it, token)
EDIT = st.tuples(st.sampled_from(["drop", "insert", "replace", "repeat"]),
                 st.integers(0, len(LINES) - 1), st.integers(0, 40), TOKENS)
CALLS = st.one_of(
    st.sampled_from(GOLDEN_CALLS),
    st.tuples(st.sampled_from(COMMANDS), st.lists(TOKENS, max_size=4).map(tuple)))


def edit(toks, how, pos, tok):
    """toks with one token dropped, inserted, replaced or repeated."""
    toks = list(toks)
    i = pos % len(toks) if toks else 0
    if how == "insert" or not toks:
        toks.insert(pos % (len(toks) + 1), tok)
    elif how == "drop":
        del toks[i]
    elif how == "replace":
        toks[i] = tok
    else:
        toks.insert(i, toks[i])
    return toks


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(CALLS, st.one_of(st.just([]), st.lists(EDIT, max_size=2)),
       st.one_of(st.just([]), st.lists(EDIT, max_size=3)),
       st.booleans(), st.integers(-1, 2), st.integers(-2, 3))
def test_any_argv_exits_0_1_or_2_without_a_traceback(call, arg_edits, line_edits,
                                                      as_json, cases, seed):
    command, names = call
    for how, _, pos, tok in arg_edits:
        names = edit(names, how, pos, tok)
    lines = list(LINES)
    for how, at, pos, tok in line_edits:
        lines[at] = edit(lines[at], how, pos, tok)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.tl"
        path.write_text("\n".join(" ".join(toks) for toks in lines) + "\n")
        argv = [command, *names, "--file", str(path), "--cases", str(cases),
                "--seed", str(seed)] + (["--json"] if as_json else [])
        code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert out == "", argv
        last = err.rstrip("\n").rpartition("\n")[2]
        assert last.startswith(("input error: ", "trunclab: error: ")), (argv, err)
