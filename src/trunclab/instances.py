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
reference must resolve; errors carry line numbers.  A section that names one
object or value (space, star, frame, point, degree, model, ...) takes exactly
one token: none or more than one is an error.  Each kind is one `_KINDS`
entry: section keywords, flag words (`stable` only as the last token), a
builder.
"""

from .elements import Carrier, GoodSequence, SimpleElement, SimpleTrunc
from .errors import ParseError, TruncLabError
from .frames import FiniteFrame, FrameReal, FrameSurjection, PointedFiniteFrame
from .gba import GeneralizedBooleanAlgebra, clopen, idealize, transitive_closure
from .kernels import KernelSpec
from .rat import parse_extended, parse_rational
from .records import field, record
from .seqspace import SeqTrunc, TailElement
from .spaces import PointedBooleanSpace


@record
class Sequence:
    """An ordered list of named elements with a stability flag."""

    terms: tuple
    stable: bool = False


@record
class Instance:
    """Typed symbol table; names are unique across kinds."""

    objects: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)
    order: list = field(default_factory=list)

    def add(self, lineno, kind, name, obj):
        if name in self.objects:
            raise ParseError(lineno, f"duplicate name {name!r}")
        self.objects[name] = obj
        self.kinds[name] = kind
        self.order.append(name)

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


def _pairs(tokens, lineno):
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(lineno, f"expected KEY=VALUE, got {tok!r}")
    return [tuple(tok.split("=", 1)) for tok in tokens]


def _order(sec, lineno):
    """Elements and the order their A<B covers generate; labels must be listed."""
    labels = sec.get("elements", [])
    leq = {(x, x) for x in labels}
    for tok in sec.get("covers", []):
        if "<" not in tok:
            raise ParseError(lineno, f"expected A<B, got {tok!r}")
        a, b = tok.split("<", 1)
        for label in (a, b):
            if label not in labels:
                raise ParseError(lineno, f"unknown cover label {label!r} in {tok!r}")
        leq.add((a, b))
    return labels, transitive_closure(leq)


def _one(sec, key):
    """The token of a one-token section; none or more than one is refused."""
    tokens = sec.get(key)
    if not tokens:
        raise TruncLabError(f"section '{key}' needs a token")
    if len(tokens) > 1:
        raise TruncLabError(f"section '{key}' takes one token, got {tokens}")
    return tokens[0]


def _space(inst, lineno, sec, flags):
    if "points" not in sec:
        raise ParseError(lineno, "space needs 'points ... star L'")
    pts = sec["points"]
    if len(set(pts)) != len(pts):
        raise ParseError(lineno, "duplicate point labels")
    star = _one(sec, "star")
    if star not in pts:
        raise ParseError(lineno, "star not in points")
    return PointedBooleanSpace(frozenset(pts), star)


def _element(inst, lineno, sec, flags):
    sp = inst.get(_one(sec, "space"), "space")
    vals = {p: parse_rational(v) for p, v in _pairs(sec.get("values", []), lineno)}
    return SimpleElement(sp, vals)


def _trunc(inst, lineno, sec, flags):
    sp = inst.get(_one(sec, "space"), "space")
    return SimpleTrunc(sp, _brace_groups(sec.get("components", []), lineno))


def _parse_table(tokens, lineno):
    """Tokens x,y=z as the (x, y, z) triples of a binary operation table."""
    table = []
    for k, v in _pairs(tokens, lineno):
        if "," not in k:
            raise ParseError(lineno, f"expected X,Y=Z, got {k}={v}")
        table.append((*k.split(",", 1), v))
    return table


def _gba(inst, lineno, sec, flags):
    if "family" in sec:
        fam = _brace_groups(sec["family"], lineno)
        alg = GeneralizedBooleanAlgebra.from_sets(fam)
    elif "join" in sec or "meet" in sec:
        bottom = _one(sec, "bottom")
        join, meet = (_parse_table(sec.get(op, []), lineno) for op in ("join", "meet"))
        diff = _parse_table(sec["diff"], lineno) if "diff" in sec else None
        alg = GeneralizedBooleanAlgebra.from_tables(sec.get("elements", []), join, meet,
                                                    bottom, diff)
    else:
        alg = GeneralizedBooleanAlgebra.from_order(*_order(sec, lineno))
    report = alg.validate()
    if not report.ok:
        raise ParseError(lineno, f"gba invalid: {report.violations[:3]}")
    return alg


def _iba(inst, lineno, sec, flags):
    if "idealize" in sec:
        return idealize(inst.get(_one(sec, "idealize"), "gba"))
    atoms = sec.get("atoms", [])
    omit = _one(sec, "ideal-omits")
    if omit not in atoms:
        raise ParseError(lineno, "iba needs 'ideal-omits A' with A among the atoms")
    return clopen(PointedBooleanSpace(atoms, omit))


def _frame(inst, lineno, sec, flags):
    frame = FiniteFrame(*_order(sec, lineno))
    return PointedFiniteFrame(frame, focus=_one(sec, "point"))


def _framereal(inst, lineno, sec, flags):
    pf = inst.get(_one(sec, "frame"), "frame")
    cells = []
    for v, c in _pairs(sec.get("cells", []), lineno):
        value = parse_extended(v)
        if c not in pf.frame.index:
            raise ParseError(lineno, f"unknown cell label {c!r}")
        cells.append((value, c))
    return FrameReal(pf, cells, extended="dtype" in flags,
                     pointed="unpointed" not in flags)


def _surjection(inst, lineno, sec, flags):
    src = inst.get(_one(sec, "source"), "frame")
    tgt = inst.get(_one(sec, "target"), "frame")
    return FrameSurjection(src, tgt, dict(_pairs(sec.get("map", []), lineno)))


def _tailel(inst, lineno, sec, flags):
    trunc = inst.get(_one(sec, "trunc"), "seqtrunc")
    tail = [parse_rational(t) for t in sec.get("tail", [])]
    corr = {int(n): parse_rational(v)
            for n, v in _pairs(sec.get("correction", []), lineno)}
    g = TailElement(corr, tail)
    if g not in trunc:
        raise ParseError(lineno, f"tail degree {g.degree()} exceeds trunc degree "
                                 f"{trunc.degree}")
    return g


def _terms(inst, lineno, sec):
    """The elements a sequence or goodseq line names, all of one type."""
    terms = [inst.get(t) for t in sec.get("elements", [])]
    for name, term in zip(sec.get("elements", []), terms):
        if not isinstance(term, Carrier):
            raise ParseError(lineno, f"sequence term {name!r} is a {inst.kinds[name]}, "
                                     "not an element")
    if len({type(t) for t in terms}) > 1:
        raise ParseError(lineno, "sequence terms must be homogeneous")
    return terms


def _kernel(inst, lineno, sec, flags):
    model = inst.get(_one(sec, "model"))
    support = sec.get("support", [])
    bits = "".join(sec.get("tails", []))
    if bits.strip("01"):
        raise ParseError(lineno, f"tail flags must be 0 or 1, got {bits!r}")
    tails = tuple(ch == "1" for ch in bits) if "tails" in sec else None
    return KernelSpec(model, support=None if support == ["all"] else support,
                      tails_allowed=tails)


# kind -> (section keywords, flag words wherever they stand, flag words only
# as the last token, builder(inst, lineno, sections, flags) -> the object)
_KINDS = {
    "space": ({"points", "star"}, (), (), _space),
    "element": ({"space", "values"}, (), (), _element),
    "trunc": ({"space", "components"}, (), (), _trunc),
    "gba": ({"family", "elements", "covers", "bottom", "join", "meet", "diff"}, (), (),
            _gba),
    "iba": ({"idealize", "atoms", "ideal-omits"}, (), (), _iba),
    "frame": ({"elements", "covers", "point"}, (), (), _frame),
    "framereal": ({"frame", "cells"}, ("dtype", "unpointed"), (), _framereal),
    "surjection": ({"source", "target", "map"}, (), (), _surjection),
    "seqtrunc": ({"degree"}, (), (), lambda inst, lineno, sec, flags:
                 SeqTrunc(int(_one(sec, "degree")))),
    "tailel": ({"trunc", "tail", "correction"}, (), (), _tailel),
    "sequence": ({"elements"}, (), ("stable",), lambda inst, lineno, sec, flags:
                 Sequence(tuple(_terms(inst, lineno, sec)), "stable" in flags)),
    "goodseq": ({"elements"}, (), ("stable",), lambda inst, lineno, sec, flags:
                GoodSequence.of(_terms(inst, lineno, sec))),
    "kernel": ({"model", "support", "tails"}, (), (), _kernel),
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
            if kind not in _KINDS:
                raise ParseError(lineno, f"unknown object kind {kind!r}")
            keywords, anywhere, trailing, build = _KINDS[kind]
            flags = {t for t in body if t in anywhere}
            body = [t for t in body if t not in flags]
            if body and body[-1] in trailing:
                flags.add(body.pop())
            sec = _sections(body, keywords)
            inst.add(lineno, kind, name, build(inst, lineno, sec, flags))
        except ParseError as exc:
            errors.append(exc)
        except (TruncLabError, ValueError, KeyError) as exc:
            errors.append(ParseError(lineno, f"{kind} {name}: {exc}"))
    return inst, errors


def parse_instance(path):
    """Parse a file; raises ParseError with the first located error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start] + b".").decode("utf-8").splitlines()
        raise ParseError(len(lines), f"not UTF-8 text ({exc.reason})") from exc
    inst, errors = parse_instance_text(text)
    if errors:
        raise errors[0]
    return inst
