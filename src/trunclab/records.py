"""Record classes: the part of the stdlib ``@dataclass`` that trunclab uses,
without its module's start-up imports (README, "Start-up cost").  One ``exec``
per class writes ``__init__``, ``__repr__``, a type-strict ``__eq__`` and, if
frozen, ``__hash__``; a method that the class body defines is kept."""


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


class field:  # noqa: N801 - the name of the stdlib function it replaces
    def __init__(self, *, default_factory):
        self.make = default_factory


def _refuse(self, name, value=None):
    raise FrozenRecordError(f"cannot assign to or delete {name!r} of a frozen record")


def record(cls=None, *, frozen=False):
    """Class decorator: a record over the class's annotated fields."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    own = vars(cls)
    names, h = list(own.get("__annotations__", {})), own.get("__hash__", field)
    ns, params, lines = {"__name__": cls.__module__, "_set": object.__setattr__}, ["self"], []
    for n in names:
        value = n
        d = ns[f"_d_{n}"] = own.get(n, field)  # the class field itself: no default
        params.append(n if d is field else f"{n}=_d_{n}")
        if isinstance(d, field):
            ns[f"_f_{n}"], value = d.make, f"_f_{n}() if {n} is _d_{n} else {n}"
            delattr(cls, n)
        lines.append(f"_set(self, {n!r}, {value})" if frozen else f"self.{n} = {value}")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    mine, theirs = ("(" + "".join(f"{s}.{n}," for n in names) + ")" for s in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    exec(f"def __init__({', '.join(params)}):\n " + "\n ".join(lines or ["pass"])
         + f"\ndef __repr__(self):\n return self.__class__.__qualname__ + f'({shown})'"
         + "\ndef __eq__(self, other):\n if other.__class__ is self.__class__:\n"
         + f"  return {mine} == {theirs}\n return NotImplemented"
         + f"\ndef __hash__(self):\n return hash({mine})", ns)
    if h is field or (h is None and "__eq__" in own):  # no __hash__ of the body's own
        cls.__hash__ = ns["__hash__"] if frozen else None
    if frozen:
        ns["__setattr__"] = ns["__delattr__"] = _refuse
    for k in ("__init__", "__repr__", "__eq__", "__setattr__", "__delattr__"):
        if k in ns and k not in own:
            setattr(cls, k, ns[k])
    return cls
