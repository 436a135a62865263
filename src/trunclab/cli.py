"""Command-line interface: instance files in, deterministic reports out.

    trunclab <command> [object names] --file <path> [--seed N] [--cases N] [--json]

Only suite reads --cases and --seed; every other command is exact, draws
nothing and ignores them.  A suite runs exactly its budget of cases (a suite
of fixed work, at most its own count), and a failed suite names its first
failure's case i with the argv `suite NAME --seed S --cases i+1` that
replays it as its last case.

Exit codes: 0 all checks pass, 1 a check failed, 2 input error.  A failed
certificate (CertificationError) is a failed check: the report is printed
with the failure and its witness, and the exit code is 1.
"""

import argparse
import re
import sys

from .elements import (Carrier, GoodSequence, SimpleElement, SimpleTrunc,
                       StepValues, apply_op, dini_check, element_from_good,
                       good_from_element, normal_form, pointwise_sup,
                       truncation_sequence, truncation_sequence_check, uc)
from .equivalences import equivalence_witness
from .errors import CertificationError, ParseError, TruncLabError
from .frames import (FrameReal, OpenInterval, drop, e0q_member, frame_uc_check,
                     induced_op, surjection_tools)
from .instances import Instance, Sequence, parse_instance
from .kernels import KernelSpec, kernel_closure, kernel_conditions, pointwise_closed
from .rat import format_label, format_rational, parse_extended, parse_rational
from .report import Report
from .seqspace import TailElement, ex1_report


def cmd_check(inst, names, args, report):
    targets = names or list(inst.order)
    for name in targets:
        inst.get(name)  # refuses an unknown name
        report.add_check(f"{inst.kinds[name]} {name}", True, "validated")
    report.put("objects", {n: inst.kinds[n] for n in targets})


def _require(ok, usage):
    """Refuse a wrong argument count with the command's usage line."""
    if not ok:
        raise TruncLabError(f"usage: trunclab {usage} --file FILE")


def cmd_normal_form(inst, names, args, report):
    _require(names, "normal-form ELEMENT...")
    for name in names:
        g = inst.get(name, "element")
        nf = normal_form(g)
        report.add_check(f"normal-form {name}", True,
                         f"{len(nf)} components")
        report.put(name, [[format_rational(r), sorted(map(str, c))]
                          for r, c in nf])


def cmd_good_seq(inst, names, args, report):
    _require(names, "good-seq ELEMENT|GOODSEQ...")
    for name in names:
        obj = inst.get(name)
        if isinstance(obj, SimpleElement):
            gs = good_from_element(obj)
            report.add_check(f"good-seq {name}", True, f"{len(gs)} terms")
            report.put(name, [t.to_json() for t in gs.terms])
        elif isinstance(obj, GoodSequence):
            g = element_from_good(obj)
            report.add_check(f"good-seq {name} reconstructs", True)
            report.put(name, g.to_json())
        else:
            raise TruncLabError(f"{name} is not an element or good sequence")


def cmd_trunc_seq(inst, names, args, report):
    _require(names, "trunc-seq ELEMENT|SEQUENCE...")
    for name in names:
        obj = inst.get(name)
        if isinstance(obj, SimpleElement):
            seq = truncation_sequence(obj)
            report.add_check(f"trunc-seq {name}", True, f"{len(seq)} terms")
            report.put(name, [t.to_json() for t in seq])
        elif isinstance(obj, Sequence):
            ok, result = truncation_sequence_check(list(obj.terms))
            report.add_check(f"trunc-seq {name}", ok,
                             "reconstructed" if ok else f"fails at index {result}")
            if ok:
                report.put(name, result.to_json())
        else:
            raise TruncLabError(f"{name} is not an element or sequence")


def cmd_uc(inst, names, args, report):
    _require(names, "uc TRUNC|FRAMEREAL...")
    for name in names:
        obj = inst.get(name)
        if isinstance(obj, SimpleTrunc):
            alg = uc(obj)
            report.add_check(f"uc {name}", True, f"{len(alg)} components")
            report.put(name, [sorted(map(str, c)) for c in sorted(
                alg.carrier, key=lambda s: (len(s), sorted(map(str, s))))])
        elif isinstance(obj, FrameReal):
            ok, witness = frame_uc_check(obj)
            report.add_check(f"uc {name}", ok,
                             f"witness {format_label(witness)}" if ok else
                             "not a unital component")
        else:
            raise TruncLabError(f"{name} is not a trunc or frame real")


def cmd_equivalence(inst, names, args, report):
    _require(names, "equivalence SPACE...")
    for name in names:
        x = inst.get(name, "space")
        rep = equivalence_witness(x)
        for trip in rep.trips:
            report.add_check(f"{name}: {trip.name}", trip.verified, trip.detail)
        if not rep.complete:
            report.add_check(f"{name}: complete", False, "budget exceeded")


def cmd_frame_eval(inst, names, args, report):
    # interval as one token "(lo,hi)" or two tokens lo hi
    bounds = names[1].strip("()").split(",") if len(names) == 2 else names[1:]
    _require(len(names) in (2, 3) and len(bounds) == 2,
             "frame-eval FRAMEREAL (LO,HI) | FRAMEREAL LO HI")
    name, (lo, hi) = names[0], bounds
    g = inst.get(name, "framereal")
    interval = OpenInterval(parse_extended(lo), parse_extended(hi))
    value = g.eval(interval)
    report.add_check(f"frame-eval {name} {interval!r}", True,
                     format_label(value))
    report.put("value", format_label(value))


def _parse_tag(token):
    if ":" in token:
        tag, param = token.split(":", 1)
        return tag, parse_rational(param)
    return token, None


def cmd_induced_op(inst, names, args, report):
    _require(names, "induced-op TAG[:PARAM] OPERAND...")
    tag_token, operand_names = names[0], names[1:]
    tag, param = _parse_tag(tag_token)
    operands = [inst.get(n) for n in operand_names]
    kinds = {type(o) for o in operands}
    if len(kinds) > 1 or not all(isinstance(o, Carrier) for o in operands):
        raise TruncLabError("operands must share a model")
    if kinds == {FrameReal}:
        result = induced_op(tag, operands, param=param)
        report.add_check("join-of-meets oracle", True, "verified")
    else:
        result = apply_op(tag, operands, param=param)
    report.add_check(f"induced-op {tag_token}", True)
    report.put("result", result.to_json())


def cmd_drop(inst, names, args, report):
    _require(len(names) == 2, "drop SURJECTION FRAMEREAL")
    qname, hname = names
    q = inst.get(qname, "surjection")
    hp = inst.get(hname, "framereal")
    result = drop(q, hp)
    report.add_check(f"drop {hname} along {qname}", result.ok,
                     "" if result.ok else
                     f"condition value {format_label(result.condition_value)}")
    if result.ok:
        report.put("result", result.result.to_json())


def cmd_e0q(inst, names, args, report):
    _require(len(names) == 2, "e0q SURJECTION FRAMEREAL")
    qname, hname = names
    q = inst.get(qname, "surjection")
    h = inst.get(hname, "framereal")
    tools = surjection_tools(q)
    report.add_check(f"{qname} dense", tools["dense"])
    result = e0q_member(q, h)
    report.add_check(f"e0q {hname}", result.ok,
                     result.method if result.ok else result.note)
    if result.ok:
        report.put("witness", result.witness.to_json())


def cmd_kernel_check(inst, names, args, report):
    _require(names, "kernel-check KERNEL...")
    for name in names:
        k = inst.get(name, "kernel")
        conds = kernel_conditions(k)
        for label, verdict in (("(1)", conds.cond1), ("(2)", conds.cond2),
                               ("(3)", conds.cond3)):
            detail = "exact"
            if not verdict.passed:
                detail += f", witness {verdict.witness!r}"
            report.add_check(f"{name} condition {label}", verdict.passed, detail)


def cmd_kernel_close(inst, names, args, report):
    _require(names, "kernel-close KERNEL...")
    for name in names:
        k = inst.get(name, "kernel")
        closed = kernel_closure(k)
        report.add_check(f"kernel-close {name}", True,
                         "already closed" if closed == k else "enlarged")
        report.put(name, closed.describe())


def cmd_pointwise(inst, names, args, report):
    _require(names, "pointwise ELEMENT...|FRAMEREAL...|KERNEL")
    objs = [inst.get(n) for n in names]
    if len(objs) == 1 and isinstance(objs[0], KernelSpec):
        verdict = pointwise_closed(objs[0])
        report.add_check(f"pointwise-closed {names[0]}", verdict.closed,
                         "" if verdict.closed else
                         f"{verdict.family_kind} sup escapes")
        return
    if len({type(o) for o in objs}) > 1 or not isinstance(objs[0], StepValues):
        raise TruncLabError("pointwise needs elements, frame reals, or one kernel")
    sup = pointwise_sup(objs)
    report.add_check("pointwise-sup verified on the cut grid", True)
    report.put("sup", sup.to_json())


def cmd_dini(inst, names, args, report):
    _require(names, "dini SEQUENCE...")
    for name in names:
        rep = dini_check(inst.get(name, "sequence").terms)
        report.add_check(f"dini {name}: limit zero", rep.limit_is_zero)
        if rep.limit_is_zero:
            report.add_check(f"dini {name}: uniform", rep.uniform)
            report.put(name, {format_rational(e): m
                              for e, m in rep.index_map.items()})


def cmd_ex1_report(inst, names, args, report):
    rep = ex1_report()
    report.add_check("(a) hyperarchimedean", rep.hyper_ok, "exact")
    report.add_check("(b) not simple: 1/n not bounded away from 0", True,
                     "values " + ", ".join(format_rational(v)
                                           for v in rep.clearance_values))
    report.add_check("(c) kernel conditions (1),(2) hold", True, "exact")
    report.add_check("(d) kernel condition (3) fails exactly", True,
                     f"witness tminus(1/3) = {rep.kernel3_example.to_json()}")
    report.add_check("(e) not pointwise closed", rep.pointwise_sup_ok,
                     "filtration sup is the 1/n element")
    report.put("witness", TailElement.tail_unit(1).to_json())


def cmd_suite(inst, names, args, report):
    from .suites import SUITES, run_all
    if names:
        results = []
        for name in names:
            if name not in SUITES:
                raise TruncLabError(f"unknown suite {name!r}")
            results.append(SUITES[name](seed=args.seed, cases=args.cases))
    else:
        results = run_all(seed=args.seed, cases=args.cases)
    for res in results:
        detail = f"{res.cases} cases"
        if res.failures:
            i, message = res.failures[0]
            detail += (f"; first failure: {message} (case {i}; replay: trunclab suite "
                       f"{res.name} --seed {args.seed} --cases {i + 1})")
        report.add_check(f"suite {res.name}", res.passed, detail)
    report.put("totals", {res.name: res.cases for res in results})


HANDLERS = {
    "check": cmd_check,
    "normal-form": cmd_normal_form,
    "good-seq": cmd_good_seq,
    "trunc-seq": cmd_trunc_seq,
    "uc": cmd_uc,
    "equivalence": cmd_equivalence,
    "frame-eval": cmd_frame_eval,
    "induced-op": cmd_induced_op,
    "drop": cmd_drop,
    "e0q": cmd_e0q,
    "kernel-check": cmd_kernel_check,
    "kernel-close": cmd_kernel_close,
    "pointwise": cmd_pointwise,
    "dini": cmd_dini,
    "ex1-report": cmd_ex1_report,
    "suite": cmd_suite,
}
COMMANDS = tuple(HANDLERS)
_NO_FILE = {"ex1-report", "suite"}
_NEGATIVE = re.compile(r"^-(inf|\d+(/\d+)?|\d*\.\d+)$")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trunclab",
        description="Exact computation in truncated archimedean vector lattices")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("names", nargs="*",
                        help="object names (and tag/interval arguments)")
    parser.add_argument("--file", help="instance file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=200,
                        help="case budget of suite (other commands ignore it and --seed)")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    # argparse takes a token starting with "-" for an option unless this
    # pattern, which knows only decimals, calls it a negative number; widen
    # it to the rationals and -inf that interval ends and parameters take
    parser._negative_number_matcher = _NEGATIVE
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(command=" ".join([args.command] + list(args.names)))
    try:
        if args.command not in _NO_FILE:
            if not args.file:
                print(f"input error: {args.command} requires --file", file=sys.stderr)
                return 2
            inst = parse_instance(args.file)
        else:
            inst = Instance()
        HANDLERS[args.command](inst, list(args.names), args, report)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        report.add_check("certificate", False, str(exc))
    except (TruncLabError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.to_text())
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
