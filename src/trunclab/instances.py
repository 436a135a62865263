"""Structured-text instance files: one named object per line.

Grammar (whitespace-separated tokens, # starts a comment):

  space NAME points L1 L2 ... star L
  element NAME space SPACE values P=RAT ...
  trunc NAME space SPACE components { L ... } { ... } ...
  gba NAME family { L ... } ...
  gba NAME elements L1 ... covers A<B ...
  iba NAME idealize GBA
  iba NAME atoms L1 ... ideal-omits L
  frame NAME elements L1 ... covers A<B ... point L
  framereal NAME frame FRAME [dtype] [unpointed] cells RAT=CELL ...
  surjection NAME source FRAME target FRAME map X=Y ...
  seqtrunc NAME degree D
  tailel NAME trunc SEQTRUNC [tail C1 C2 ...] [correction N=RAT ...]
  sequence NAME elements E1 E2 ... [stable]
  goodseq NAME elements E1 E2 ...
  kernel NAME model MODEL support (all | L1 ...) [tails 01...]

Rationals are "p/q" with "/1" suppressed; framereal values may be inf/-inf
on dtype lines.  Every object is validated as it is defined and every
reference must resolve; errors carry line numbers.
"""

from dataclasses import dataclass, field

from .elements import GoodSequence, SimpleElement, SimpleTrunc
from .errors import ParseError, TruncLabError
from .frames import FiniteFrame, FrameReal, FrameSurjection, PointedFiniteFrame
from .gba import (BooleanAlgebra, GeneralizedBooleanAlgebra,
                  IdealizedBooleanAlgebra, idealize, transitive_closure)
from .kernels import KernelSpec
from .rat import parse_extended, parse_rational
from .seqspace import SeqTrunc, TailElement
from .spaces import PointedBooleanSpace


@dataclass
class Sequence:
    """An ordered list of named elements with a stability flag."""

    terms: tuple
    stable: bool = False


@dataclass
class Instance:
    """Typed symbol table; names are unique across kinds."""

    objects: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)
    order: list = field(default_factory=list)
    sources: dict = field(default_factory=dict)

    def add(self, lineno, kind, name, obj):
        if name in self.objects:
            raise ParseError(lineno, f"duplicate name {name!r}")
        self.objects[name] = obj
        self.kinds[name] = kind
        self.order.append(name)

    def to_text(self):
        """Re-emit the defining lines (round-trip serialization)."""
        return "\n".join(self.sources[n] for n in self.order if n in self.sources)

    def get(self, name, kind=None):
        if name not in self.objects:
            raise TruncLabError(f"unknown object {name!r}")
        if kind is not None and self.kinds[name] != kind:
            raise TruncLabError(
                f"{name!r} is a {self.kinds[name]}, expected {kind}")
        return self.objects[name]


def _tokens(line):
    if "#" in line:
        line = line[: line.index("#")]
    return line.split()


def _sections(tokens, keywords):
    """Split token list into keyword -> token list, preserving order."""
    out = {}
    current = None
    for tok in tokens:
        if tok in keywords:
            current = tok
            out.setdefault(current, [])
        else:
            if current is None:
                raise ValueError(f"unexpected token {tok!r}")
            out[current].append(tok)
    return out


def _brace_groups(tokens, lineno):
    groups = []
    current = None
    for tok in tokens:
        if tok == "{":
            if current is not None:
                raise ParseError(lineno, "nested '{'")
            current = []
        elif tok == "}":
            if current is None:
                raise ParseError(lineno, "unmatched '}'")
            groups.append(frozenset(current))
            current = None
        else:
            if current is None:
                raise ParseError(lineno, f"token {tok!r} outside braces")
            current.append(tok)
    if current is not None:
        raise ParseError(lineno, "unclosed '{'")
    return groups


def _pairs(tokens, lineno, sep="="):
    out = []
    for tok in tokens:
        if sep not in tok:
            raise ParseError(lineno, f"expected KEY{sep}VALUE, got {tok!r}")
        k, v = tok.split(sep, 1)
        out.append((k, v))
    return out


def _covers(tokens, labels, lineno):
    """The A<B pairs of a covers section; both labels must be listed."""
    out = []
    for tok in tokens:
        if "<" not in tok:
            raise ParseError(lineno, f"expected A<B, got {tok!r}")
        a, b = tok.split("<", 1)
        for label in (a, b):
            if label not in labels:
                raise ParseError(lineno, f"unknown cover label {label!r} in {tok!r}")
        out.append((a, b))
    return out


def _parse_space(inst, lineno, name, tokens):
    sec = _sections(tokens, {"points", "star"})
    if "points" not in sec or len(sec.get("star", [])) != 1:
        raise ParseError(lineno, "space needs 'points ... star L'")
    pts = sec["points"]
    if len(set(pts)) != len(pts):
        raise ParseError(lineno, "duplicate point labels")
    star = sec["star"][0]
    if star not in pts:
        raise ParseError(lineno, "star not in points")
    inst.add(lineno, "space", name, PointedBooleanSpace(frozenset(pts), star))


def _parse_element(inst, lineno, name, tokens):
    sec = _sections(tokens, {"space", "values"})
    sp = inst.get(sec["space"][0], "space")
    vals = {p: parse_rational(v) for p, v in _pairs(sec.get("values", []), lineno)}
    inst.add(lineno, "element", name, SimpleElement(sp, vals))


def _parse_trunc(inst, lineno, name, tokens):
    sec = _sections(tokens, {"space", "components"})
    sp = inst.get(sec["space"][0], "space")
    fam = _brace_groups(sec.get("components", []), lineno)
    inst.add(lineno, "trunc", name, SimpleTrunc(sp, fam))


def _parse_table(tokens, lineno):
    """Triples x,y=z into a binary operation table."""
    table = {}
    for k, v in _pairs(tokens, lineno):
        if "," not in k:
            raise ParseError(lineno, f"expected X,Y=Z, got {k}={v}")
        x, y = k.split(",", 1)
        table[(x, y)] = v
    return table


def _parse_gba(inst, lineno, name, tokens):
    sec = _sections(tokens, {"family", "elements", "covers", "bottom",
                             "join", "meet", "diff"})
    if "family" in sec:
        fam = _brace_groups(sec["family"], lineno)
        alg = GeneralizedBooleanAlgebra.from_sets(fam)
    elif "join" in sec or "meet" in sec:
        labels = sec.get("elements", [])
        if len(sec.get("bottom", [])) != 1:
            raise ParseError(lineno, "explicit tables need 'bottom L'")
        join = _parse_table(sec.get("join", []), lineno)
        meet = _parse_table(sec.get("meet", []), lineno)
        diff = _parse_table(sec["diff"], lineno) if "diff" in sec else None
        alg = GeneralizedBooleanAlgebra(labels, join, meet, sec["bottom"][0],
                                        diff)
    else:
        labels = sec.get("elements", [])
        covers = _covers(sec.get("covers", []), labels, lineno)
        leq = transitive_closure({(x, x) for x in labels} | set(covers))
        alg = GeneralizedBooleanAlgebra.from_order(labels, leq)
    report = alg.validate()
    if not report.ok:
        raise ParseError(lineno, f"gba invalid: {report.violations[:3]}")
    inst.add(lineno, "gba", name, alg)


def _parse_iba(inst, lineno, name, tokens):
    sec = _sections(tokens, {"idealize", "atoms", "ideal-omits"})
    if "idealize" in sec:
        base = inst.get(sec["idealize"][0], "gba")
        inst.add(lineno, "iba", name, idealize(base))
        return
    atoms = sec.get("atoms", [])
    omit = sec.get("ideal-omits", [])
    if len(omit) != 1 or omit[0] not in atoms:
        raise ParseError(lineno, "iba needs 'ideal-omits A' with A among the atoms")
    ba = BooleanAlgebra.powerset(atoms)
    ideal = frozenset(s for s in ba.carrier if omit[0] not in s)
    inst.add(lineno, "iba", name, IdealizedBooleanAlgebra(ba, ideal))


def _parse_frame(inst, lineno, name, tokens):
    sec = _sections(tokens, {"elements", "covers", "point"})
    labels = sec.get("elements", [])
    covers = _covers(sec.get("covers", []), labels, lineno)
    frame = FiniteFrame.from_covers(labels, covers)
    if len(sec.get("point", [])) != 1:
        raise ParseError(lineno, "frame needs 'point L' (a join-prime focus)")
    inst.add(lineno, "frame", name,
             PointedFiniteFrame(frame, focus=sec["point"][0]))


def _parse_framereal(inst, lineno, name, tokens):
    flags = {t for t in tokens if t in ("dtype", "unpointed")}
    tokens = [t for t in tokens if t not in flags]
    sec = _sections(tokens, {"frame", "cells"})
    pf = inst.get(sec["frame"][0], "frame")
    cells = []
    for v, c in _pairs(sec.get("cells", []), lineno):
        value = parse_extended(v)
        if c not in pf.frame.index:
            raise ParseError(lineno, f"unknown cell label {c!r}")
        cells.append((value, c))
    inst.add(lineno, "framereal", name,
             FrameReal(pf, cells, extended="dtype" in flags,
                       pointed="unpointed" not in flags))


def _parse_surjection(inst, lineno, name, tokens):
    sec = _sections(tokens, {"source", "target", "map"})
    src = inst.get(sec["source"][0], "frame")
    tgt = inst.get(sec["target"][0], "frame")
    mapping = dict(_pairs(sec.get("map", []), lineno))
    inst.add(lineno, "surjection", name, FrameSurjection(src, tgt, mapping))


def _parse_seqtrunc(inst, lineno, name, tokens):
    sec = _sections(tokens, {"degree"})
    inst.add(lineno, "seqtrunc", name, SeqTrunc(int(sec["degree"][0])))


def _parse_tailel(inst, lineno, name, tokens):
    sec = _sections(tokens, {"trunc", "tail", "correction"})
    trunc = inst.get(sec["trunc"][0], "seqtrunc")
    tail = [parse_rational(t) for t in sec.get("tail", [])]
    corr = {int(n): parse_rational(v)
            for n, v in _pairs(sec.get("correction", []), lineno)}
    g = TailElement(corr, tail)
    if g not in trunc:
        raise ParseError(lineno, f"tail degree {g.degree()} exceeds trunc degree "
                                 f"{trunc.degree}")
    inst.add(lineno, "tailel", name, g)


def _parse_sequence(inst, lineno, name, tokens, kind):
    stable = tokens and tokens[-1] == "stable"
    if stable:
        tokens = tokens[:-1]
    sec = _sections(tokens, {"elements"})
    terms = [inst.get(t) for t in sec.get("elements", [])]
    types = {type(t) for t in terms}
    if len(types) > 1:
        raise ParseError(lineno, "sequence terms must be homogeneous")
    if kind == "goodseq":
        try:
            inst.add(lineno, "goodseq", name, GoodSequence.of(terms))
        except TruncLabError as exc:
            raise ParseError(lineno, str(exc)) from exc
    else:
        inst.add(lineno, "sequence", name, Sequence(tuple(terms), stable))


def _parse_kernel(inst, lineno, name, tokens):
    sec = _sections(tokens, {"model", "support", "tails"})
    model = inst.get(sec["model"][0])
    support = sec.get("support", [])
    tails = None
    if "tails" in sec:
        flags = "".join(sec["tails"])
        tails = tuple(ch == "1" for ch in flags)
    inst.add(lineno, "kernel", name, KernelSpec(
        model, support=None if support == ["all"] else support, tails_allowed=tails))


_PARSERS = {
    "space": _parse_space,
    "element": _parse_element,
    "trunc": _parse_trunc,
    "gba": _parse_gba,
    "iba": _parse_iba,
    "frame": _parse_frame,
    "framereal": _parse_framereal,
    "surjection": _parse_surjection,
    "seqtrunc": _parse_seqtrunc,
    "tailel": _parse_tailel,
    "kernel": _parse_kernel,
}


def parse_instance_text(text):
    """Parse and validate; returns (Instance, located errors)."""
    inst = Instance()
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        kind, rest = tokens[0], tokens[1:]
        if not rest:
            errors.append(ParseError(lineno, f"{kind} needs a name"))
            continue
        name, body = rest[0], rest[1:]
        try:
            if kind in ("sequence", "goodseq"):
                _parse_sequence(inst, lineno, name, body, kind)
            elif kind in _PARSERS:
                _PARSERS[kind](inst, lineno, name, body)
            else:
                raise ParseError(lineno, f"unknown object kind {kind!r}")
            inst.sources[name] = " ".join(tokens)
        except ParseError as exc:
            errors.append(exc)
        except (TruncLabError, ValueError, KeyError) as exc:
            errors.append(ParseError(lineno, f"{kind} {name}: {exc}"))
    return inst, errors


def parse_instance(path):
    """Parse a file; raises ParseError with the first located error."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    inst, errors = parse_instance_text(text)
    if errors:
        raise errors[0]
    return inst
