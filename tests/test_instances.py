"""Instance files: parsing, validation errors, round trips, CLI behavior."""

import json
from fractions import Fraction as F

import pytest

from trunclab import cli
from trunclab.cli import main
from trunclab.gba import clopen
from trunclab.instances import parse_instance, parse_instance_text
from trunclab.seqspace import TailElement
from trunclab.spaces import PointedBooleanSpace

SAMPLE = """\
# sample instance
space X3 points * 1 2 3 star *
element g space X3 values 1=5 2=2 3=1/3
element nf space X3 values 1=3 2=3 3=1/2
trunc T space X3 components { } { 1 2 } { 3 } { 1 2 3 }
gba A family { } { 1 } { 2 } { 1 2 }
iba B idealize A
iba D atoms p q r ideal-omits r
frame F4 elements bot a b top covers bot<a bot<b a<top b<top point a
framereal u frame F4 cells 1=b 0=a
frame C3 elements bot m top covers bot<m m<top point m
frame TWO elements bot top covers bot<top point top
surjection q source C3 target TWO map bot=bot m=top top=top
framereal hz frame C3 dtype cells 0=top
framereal w2 frame TWO cells 0=top
seqtrunc S1 degree 1
tailel g0 trunc S1 tail 1
tailel a1 trunc S1 correction 3=1/2 5=2
kernel K model S1 support all tails 0
kernel K2 model T support 1 2
element f1 space X3 values 1=1 2=1 3=1
element f2 space X3 values 1=1/2 2=1/2 3=1/2
element f3 space X3 values
sequence s elements f1 f2 f3 f3 stable
goodseq fs elements f1 f2
"""


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.tl"
    path.write_text(SAMPLE)
    return str(path)


def test_parse_sample(sample_file):
    inst = parse_instance(sample_file)
    assert inst.kinds["X3"] == "space"
    g = inst.get("g", "element")
    assert g.value("3") == F(1, 3)
    assert inst.get("g0", "tailel") == TailElement.tail_unit(1)
    assert inst.get("s", "sequence").stable
    assert len(inst.get("T", "trunc").components) == 4


def test_parse_errors_located():
    _, errors = parse_instance_text("space X points 1 2 star 9\n")
    assert errors and errors[0].lineno == 1
    _, errors = parse_instance_text(
        "space X points * 1 2 star *\n"
        "trunc T space X components { } { 1 } { 2 }\n")
    assert errors and errors[0].lineno == 2
    assert "closed" in str(errors[0])
    _, errors = parse_instance_text("element g space NOPE values\n")
    assert errors and "unknown object" in str(errors[0])
    _, errors = parse_instance_text("wibble W foo\n")
    assert "unknown object kind" in str(errors[0])


def test_duplicate_names_rejected():
    _, errors = parse_instance_text(
        "space X points * star *\nspace X points * star *\n")
    assert errors and "duplicate" in str(errors[0])


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_normal_form(sample_file, capsys):
    code, out = run_cli(["normal-form", "nf", "--file", sample_file], capsys)
    assert code == 0
    assert '[["3", ["1", "2"]], ["1/2", ["3"]]]' in out


def test_cli_good_seq_and_trunc_seq(sample_file, capsys):
    code, out = run_cli(["good-seq", "g", "--file", sample_file], capsys)
    assert code == 0 and "5 terms" in out
    code, out = run_cli(["trunc-seq", "g", "--file", sample_file], capsys)
    assert code == 0 and "5 terms" in out
    code, out = run_cli(["trunc-seq", "s", "--file", sample_file], capsys)
    assert code == 1  # (1,1,1),(1/2..) is not a truncation sequence


def test_cli_uc(sample_file, capsys):
    code, out = run_cli(["uc", "T", "u", "--file", sample_file], capsys)
    assert code == 0 and "witness b" in out


def test_cli_equivalence(sample_file, capsys):
    code, out = run_cli(["equivalence", "X3", "--file", sample_file], capsys)
    assert code == 0 and out.count("pass") == 3


def test_cli_induced_op_and_eval(sample_file, capsys):
    code, out = run_cli(["induced-op", "add", "u", "u",
                         "--file", sample_file], capsys)
    assert code == 0 and "oracle" in out
    code, out = run_cli(["induced-op", "tminus:1/2", "g",
                         "--file", sample_file], capsys)
    assert code == 0 and '"9/2"' in out
    code, out = run_cli(["frame-eval", "u", "(-inf,1/2)",
                         "--file", sample_file], capsys)
    assert code == 0 and '"a"' in out


def test_cli_drop_e0q(sample_file, capsys):
    code, out = run_cli(["e0q", "q", "u", "--file", sample_file], capsys)
    assert code == 2  # u lives on F4, not on the target of q
    code, out = run_cli(["drop", "q", "hz", "--file", sample_file], capsys)
    assert code == 0 and '"result"' in out or "result" in out
    code, out = run_cli(["e0q", "q", "w2", "--file", sample_file], capsys)
    assert code == 0 and "adjoint" in out


def test_cli_kernel_commands(sample_file, capsys):
    code, out = run_cli(["kernel-check", "K2", "--file", sample_file,
                         "--cases", "60"], capsys)
    assert code == 0
    code, out = run_cli(["kernel-check", "K", "--file", sample_file,
                         "--cases", "60"], capsys)
    assert code == 1 and "witness" in out
    code, out = run_cli(["kernel-close", "K", "--file", sample_file], capsys)
    assert code == 0 and "enlarged" in out
    code, out = run_cli(["pointwise", "K2", "--file", sample_file,
                         "--cases", "60"], capsys)
    assert code == 0
    code, out = run_cli(["pointwise", "f1", "f2", "--file", sample_file],
                        capsys)
    assert code == 0 and '"sup"' in out or "sup" in out


def test_cli_dini(sample_file, capsys):
    code, out = run_cli(["dini", "s", "--file", sample_file], capsys)
    assert code == 0 and "uniform" in out


def test_cli_ex1_report(capsys):
    code, out = run_cli(["ex1-report", "--cases", "200"], capsys)
    assert code == 0
    for part in ("(a)", "(b)", "(c)", "(d)", "(e)"):
        assert part in out


def test_cli_suite_json_deterministic(capsys):
    code1, out1 = run_cli(["suite", "trunc-axioms", "--cases", "40",
                           "--seed", "3", "--json"], capsys)
    code2, out2 = run_cli(["suite", "trunc-axioms", "--cases", "40",
                           "--seed", "3", "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True


@pytest.mark.parametrize("line, label", [
    ("frame F elements a b covers a<b b<c point b", "c"),
    ("gba P elements o x covers o<x x<z", "z"),
], ids=["frame", "gba"])
def test_cover_labels_must_be_listed(tmp_path, capsys, line, label):
    path = tmp_path / "covers.tl"
    path.write_text(line + "\n")
    assert main(["check", "--file", str(path)]) == 2
    assert f"line 1: unknown cover label {label!r}" in capsys.readouterr().err


def test_cli_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.tl"
    bad.write_text("space X points 1 2 star 9\n")
    code = main(["check", "--file", str(bad)])
    assert code == 2
    code = main(["normal-form", "g"])  # missing --file
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["frame-eval", "u"], ["frame-eval", "u", "(1,2,3)"], ["frame-eval"],
    ["frame-eval", "u", "1", "2", "3"], ["induced-op"], ["drop", "q"],
    ["e0q", "q"], ["drop"], ["e0q", "q", "w2", "w2"], ["normal-form"],
    ["dini"], ["kernel-check"], ["uc"], ["equivalence"]],
    ids=" ".join)
def test_cli_wrong_argument_count_prints_usage(sample_file, capsys, argv):
    code = main(argv + ["--file", sample_file])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"input error: usage: trunclab {argv[0]} " in captured.err
    assert "list index" not in captured.err and "unpack" not in captured.err


@pytest.mark.parametrize("line, section", [
    ("element e space", "space"), ("seqtrunc S degree", "degree"),
    ("kernel K model", "model"), ("tailel t trunc", "trunc"),
    ("surjection q source", "source"), ("seqtrunc S", "degree"),
    ("trunc T space", "space"), ("iba I idealize", "idealize"),
    ("framereal r frame", "frame")])
def test_one_token_section_without_its_token_names_the_line(tmp_path, capsys,
                                                            line, section):
    _, errors = parse_instance_text("# header\n" + line + "\n")
    assert [e.lineno for e in errors] == [2]
    assert f"section '{section}' needs a token" in str(errors[0])
    path = tmp_path / "short.tl"
    path.write_text(line + "\n")
    assert main(["check", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: line 1: ") and "list index" not in err


# the objects the one-token lines below name
PREAMBLE = """\
space X points * 1 star *
gba A family { } { 1 }
frame F elements bot top covers bot<top point top
seqtrunc S1 degree 1
"""


@pytest.mark.parametrize("line, section", [
    ("seqtrunc S degree 1 2", "degree"), ("space Y points * 1 star * 1", "star"),
    ("element e space X junk values 1=0", "space"),
    ("trunc T space X X components { }", "space"),
    ("gba P elements o bottom o o join o,o=o meet o,o=o", "bottom"),
    ("iba I atoms a b ideal-omits a b", "ideal-omits"),
    ("iba I idealize A A", "idealize"),
    ("frame G elements bot top covers bot<top point top bot", "point"),
    ("framereal r frame F F cells 0=top", "frame"),
    ("surjection q source F F target F map bot=bot top=top", "source"),
    ("surjection q source F target F x map bot=bot top=top", "target"),
    ("tailel t trunc S1 S1 tail 1", "trunc"),
    ("kernel K model S1 S1 support all", "model")])
def test_one_token_section_with_extra_tokens_names_the_line(tmp_path, capsys,
                                                            line, section):
    _, errors = parse_instance_text(PREAMBLE + line + "\n")
    assert [e.lineno for e in errors] == [5]
    assert f"section '{section}' takes one token, got [" in str(errors[0])
    path = tmp_path / "long.tl"
    path.write_text(PREAMBLE + line + "\n")
    assert main(["check", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: line 5: ")


@pytest.mark.parametrize("line, term, kind", [
    ("sequence s elements X", "X", "space"),
    ("sequence s elements A stable", "A", "gba"),
    ("goodseq s elements F", "F", "frame"),
    ("goodseq s elements S1 S1", "S1", "seqtrunc")])
def test_sequence_terms_must_be_elements(tmp_path, capsys, line, term, kind):
    _, errors = parse_instance_text(PREAMBLE + line + "\n")
    assert [e.lineno for e in errors] == [5]
    assert f"sequence term {term!r} is a {kind}, not an element" in str(errors[0])
    path = tmp_path / "terms.tl"
    path.write_text(PREAMBLE + line + "\n")
    for argv in (["check"], ["dini", "s"], ["trunc-seq", "s"], ["good-seq", "s"]):
        assert main([*argv, "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: line 5: ") and "Traceback" not in err


def test_a_goodseq_without_terms_has_no_zero(tmp_path, capsys):
    # an all-zero goodseq reconstructs its space's zero (a golden entry);
    # one that names no term at all gives no model to take a zero from
    path = tmp_path / "empty.tl"
    path.write_text("space X points * 1 star *\ngoodseq ge elements\n")
    assert main(["check", "--file", str(path)]) == 0
    capsys.readouterr()
    assert main(["good-seq", "ge", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: empty sequence")


@pytest.mark.parametrize("flags, joined", [
    ("ok", "ok"), ("2", "2"), ("0 x", "0x"), ("01-", "01-"), ("1 O", "1O")])
def test_tail_flags_other_than_0_and_1_are_refused(tmp_path, capsys, flags, joined):
    text = f"seqtrunc S2 degree 2\nkernel K model S2 support all tails {flags}\n"
    _, errors = parse_instance_text(text)
    assert [e.lineno for e in errors] == [2]
    assert f"tail flags must be 0 or 1, got {joined!r}" in str(errors[0])
    path = tmp_path / "flags.tl"
    path.write_text(text)
    assert main(["kernel-check", "K", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: line 2: tail flags")


def test_tail_flag_tokens_join():
    inst, errors = parse_instance_text("seqtrunc S2 degree 2\n"
                                       "kernel K model S2 support all tails 0 1\n")
    assert errors == [] and inst.get("K").tails_allowed == (False, True)


def test_one_token_sections_with_one_token_still_parse():
    inst, errors = parse_instance_text(
        PREAMBLE + "iba I atoms a b ideal-omits b\n"
        "gba P elements o bottom o join o,o=o meet o,o=o\n")
    assert errors == [] and inst.kinds["I"] == "iba" and inst.kinds["P"] == "gba"
    assert inst.get("X").star == "*" and inst.get("S1").degree == 1


@pytest.mark.parametrize("bounds, interval", [
    (["-inf", "1"], "(-inf,1)"), (["-1/2", "1"], "(-1/2,1)"),
    (["-3", "-1/4"], "(-3,-1/4)"), (["-inf", "-0.5"], "(-inf,-1/2)")])
def test_frame_eval_takes_negative_ends_as_arguments(sample_file, capsys,
                                                     bounds, interval):
    assert main(["frame-eval", "u", *bounds, "--file", sample_file, "--json"]) == 0
    two_tokens = json.loads(capsys.readouterr().out)
    assert main(["frame-eval", "u", interval, "--file", sample_file, "--json"]) == 0
    one_token = json.loads(capsys.readouterr().out)
    assert two_tokens["checks"] == one_token["checks"]
    assert two_tokens["data"] == one_token["data"]
    assert two_tokens["checks"][0]["name"] == f"frame-eval u {interval}"


@pytest.mark.parametrize("argv", [
    ["frame-eval", "u", "-inf", "1", "--bogus"], ["frame-eval", "u", "-x", "1"],
    ["frame-eval", "u", "-1e3", "1"], ["check", "--bogus"]])
def test_unknown_options_still_exit_2(sample_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--file", sample_file])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.tl"
    path.write_bytes(b"space X points 1 2 star 1\n# caf\xe9\n")
    assert main(["check", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: line 2: not UTF-8 text")


def test_a_bare_value_error_is_not_an_input_error(sample_file, capsys, monkeypatch):
    def broken(inst, names, args, report):
        raise ValueError("a bug, not bad input")

    monkeypatch.setitem(cli.HANDLERS, "check", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["check", "--file", sample_file])
    assert "input error" not in capsys.readouterr().err


def test_iba_atoms_line_is_the_clopen_algebra_of_its_space():
    inst, errors = parse_instance_text("iba D atoms p q r ideal-omits r\n")
    assert errors == []
    assert inst.get("D", "iba") == clopen(PointedBooleanSpace({"p", "q", "r"}, "r"))
    for line in ("iba D atoms p q ideal-omits r", "iba D ideal-omits r"):
        _, errors = parse_instance_text(line + "\n")
        assert [str(e) for e in errors] == [
            "line 1: iba needs 'ideal-omits A' with A among the atoms"]
