"""Exact rational parsing/formatting helpers ("p/q" notation, "/1" suppressed)."""

from fractions import Fraction

from .errors import TruncLabError


class _Infinity:
    """The exact ends +inf (sign 1) and -inf (sign -1) of the extended reals.

    Each comparison is its own method: a number compared with an end falls
    back to the reflected one, so it runs one short call.
    """

    def __init__(self, sign):
        self.sign = sign

    def __lt__(self, other):
        return self.sign < 0 and other is not self

    def __le__(self, other):
        return self.sign < 0 or other is self

    def __gt__(self, other):
        return self.sign > 0 and other is not self

    def __ge__(self, other):
        return self.sign > 0 or other is self

    def __hash__(self):
        return self.sign

    def __repr__(self):
        return "inf" if self.sign > 0 else "-inf"


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)


def parse_rational(token):
    """Parse "p", "-p" or "p/q" into a Fraction."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise TruncLabError(f"bad rational {token!r}: {exc}") from exc


def parse_extended(token):
    """Like parse_rational but also accepts "inf" and "-inf"."""
    if token == "inf":
        return POS_INF
    if token == "-inf":
        return NEG_INF
    return parse_rational(token)


def as_fraction(v):
    """v as a Fraction, without rebuilding one that already is."""
    return v if type(v) is Fraction else Fraction(v)


def chance(rng, num, den):
    """rng.random() < num/den, decided exactly on the draw's integer ratio."""
    x, y = rng.random().as_integer_ratio()
    return x * den < num * y


def format_rational(value):
    """Lowest-terms string; integers print without the denominator."""
    if not is_finite(value):
        return repr(value)
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def is_finite(value):
    return value is not POS_INF and value is not NEG_INF


def sort_key(label):
    """Deterministic ordering key for opaque labels, stable across processes."""
    if isinstance(label, frozenset):
        inner = sorted((sort_key(x) for x in label))
        return ("frozenset", tuple(inner))
    if isinstance(label, tuple):
        return ("tuple", tuple(sort_key(x) for x in label))
    return (type(label).__name__, str(label))


def sorted_labels(labels):
    return sorted(labels, key=sort_key)


def label_repr(label):
    """repr(label), but with a frozenset's members in sorted_labels order, so
    that a witness reads the same under every hash seed."""
    if isinstance(label, tuple):
        return "(" + ", ".join(map(label_repr, label)) + ("," if len(label) == 1 else "") + ")"
    if isinstance(label, frozenset) and label:
        return "frozenset({" + ", ".join(map(label_repr, sorted_labels(label))) + "})"
    return repr(label)


def set_repr(labels):
    """repr(set(labels)), its members in sorted_labels order."""
    return "{" + ", ".join(map(label_repr, sorted_labels(labels))) + "}" if labels else "set()"


def format_label(label):
    if isinstance(label, frozenset):
        return "{" + ",".join(format_label(x) for x in sorted_labels(label)) + "}"
    return str(label)
