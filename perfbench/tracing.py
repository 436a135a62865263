"""Span tracing for the trunclab benchmark, installed from outside the package.

`install` wraps the public functions and methods of each traced trunclab
module, rebinds every module namespace (and every module-level dict of the
package, such as `suites.SUITES` or `cli.HANDLERS`) that holds a wrapped
function, and wraps `Fraction.__new__` to count rational constructions.
`Installation.uninstall` puts every original back.  Nothing under `src/` is
edited.

Each wrapped call is a span with a parent link.  The tracer keeps, per
layer, the call count, the busy time (time with the layer anywhere on the
span stack) and the self time (span time minus the time covered by child
spans), plus a few named probes that the benchmark reports on their own.
Spans are kept in memory up to a cap and written out at the end.
"""

import functools
import importlib
import inspect
import json
import sys
import time
import types
from fractions import Fraction

# The layers are the modules of the package.  `runner` is the benchmark's
# own job span, so that the self times of all layers add up to the traced
# wall time: for CLI jobs its self time is process start and import.
LAYERS = ("elements", "seqspace", "frames", "gba", "equivalences", "hyper",
          "kernels", "sampling", "instances", "report", "cli", "suites",
          "spaces")
RUNNER = "runner"

# Named probes: (metric prefix, what makes two calls the same work).  A
# repeat is a call whose input, compared by the program's own equality, an
# earlier call in the same process already had.
_SELF = "self"
_ARGS = "args"
PROBES = {
    "seqspace.TailElement.value": ("seqspace.value", None),
    "kernels.KernelSpec._check_convexity": ("kernels.convexity", _SELF),
    "kernels.kernel_conditions": ("kernels.conditions", _ARGS),
    "frames.FiniteFrame.__init__": ("frames.build", None),
    "frames.oracle_mismatch": ("frames.oracle", None),
    "frames.FrameReal.eval": ("frames.eval", None),
    "gba.GeneralizedBooleanAlgebra.validate": ("gba.validate", _SELF),
    "gba.BooleanAlgebra.validate": ("gba.validate", _SELF),
    "gba.IdealizedBooleanAlgebra.validate": ("gba.validate", _SELF),
    "spaces.PointedBooleanSpace.nonstar": ("spaces.nonstar", None),
}
PROBE_GROUPS = tuple(dict.fromkeys(prefix for prefix, _ in PROBES.values()))
REPEAT_GROUPS = tuple(dict.fromkeys(
    prefix for prefix, key in PROBES.values() if key is not None))
# Probes reported as a count only: single calls are too short to time.
_COUNT_ONLY = frozenset({"frames.eval", "spaces.nonstar"})

# Dunders that are formatting, hashing or attribute plumbing, not layer work.
_SKIP_DUNDERS = frozenset({
    "__repr__", "__str__", "__format__", "__hash__", "__new__", "__del__",
    "__getattr__", "__getattribute__", "__setattr__", "__delattr__",
    "__init_subclass__", "__class_getitem__", "__subclasshook__",
    "__reduce__", "__reduce_ex__", "__getstate__", "__setstate__",
    "__copy__", "__deepcopy__", "__dir__", "__sizeof__",
})

_MARK = "__perfbench_span__"


def _traced(attr, qualname):
    if qualname in PROBES:
        return True
    if attr.startswith("__") and attr.endswith("__"):
        return attr not in _SKIP_DUNDERS
    return not attr.startswith("_")


def is_wrapper(obj):
    return getattr(obj, _MARK, False) is True


class Tracer:
    """Span stack, per-layer aggregates and capped span storage."""

    def __init__(self, span_cap=100_000):
        self.layers = LAYERS + (RUNNER,)
        self.layer_index = {name: i for i, name in enumerate(self.layers)}
        self.span_cap = span_cap
        self.names = []
        self.name_ids = {}
        self.active = False
        self.reset()

    def reset(self):
        """Drop everything recorded so far; wrappers stay valid."""
        n = len(self.layers)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.depth = [0] * n
        self.probe_calls = dict.fromkeys(PROBE_GROUPS, 0)
        self.probe_time = dict.fromkeys(PROBE_GROUPS, 0.0)
        self.probe_depth = dict.fromkeys(PROBE_GROUPS, 0)
        self.probe_seen = {g: set() for g in REPEAT_GROUPS}
        self.probe_repeats = dict.fromkeys(REPEAT_GROUPS, 0)
        self.fraction_new = 0
        self.top_time = 0.0
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.next_id = 1

    def name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn, name, layer, probe=None):
        """Wrap fn so that each call, while the tracer is active, is a span."""
        nid = self.name_id(name)
        lid = self.layer_index[layer]
        clock = time.perf_counter
        tracer = self
        group, key_kind = probe or (None, None)
        signature = inspect.signature(fn) if key_kind == _ARGS else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if group is not None:
                tracer._probe_enter(group, key_kind, signature, args, kwargs)
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][1] if stack else 0
            tracer.depth[lid] += 1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[lid] += 1
                tracer.self_time[lid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top_time += dur
                tracer.depth[lid] -= 1
                if not tracer.depth[lid]:
                    tracer.busy[lid] += dur
                if group is not None:
                    tracer.probe_depth[group] -= 1
                    if not tracer.probe_depth[group]:
                        tracer.probe_time[group] += dur
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((sid, parent, nid, start, end))
                else:
                    tracer.dropped += 1

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _probe_enter(self, group, key_kind, signature, args, kwargs):
        self.probe_calls[group] += 1
        self.probe_depth[group] += 1
        if key_kind is None:
            return
        # Hashing runs the program's own __eq__; keep it out of the trace.
        self.active = False
        try:
            if key_kind == _SELF:
                key = args[0]
            else:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.values())
            seen = self.probe_seen[group]
            if key in seen:
                self.probe_repeats[group] += 1
            else:
                seen.add(key)
        finally:
            self.active = True

    def add_child(self, summary):
        """Fold in a child process's summary under the innermost open span.

        perf_counter is the same monotonic clock in both processes, so the
        child's spans lie inside that span, and its top-level span time counts
        as child time of that span.
        """
        frame = self.stack[-1]
        frame[0] += summary["top_time"]
        parent_sid = frame[1]
        for i, layer in enumerate(summary["layers"]):
            lid = self.layer_index[layer]
            self.calls[lid] += summary["calls"][i]
            self.busy[lid] += summary["busy"][i]
            self.self_time[lid] += summary["self_time"][i]
        for g in PROBE_GROUPS:
            self.probe_calls[g] += summary["probe_calls"][g]
            self.probe_time[g] += summary["probe_time"][g]
        for g in REPEAT_GROUPS:
            self.probe_repeats[g] += summary["probe_repeats"][g]
        self.fraction_new += summary["fraction_new"]
        base = self.next_id
        remap = [self.name_id(name) for name in summary["names"]]
        for sid, parent, nid, start, end in summary["spans"]:
            if len(self.spans) < self.span_cap:
                self.spans.append((base + sid, base + parent if parent else parent_sid,
                                   remap[nid], start, end))
            else:
                self.dropped += 1
        self.dropped += summary["dropped"]
        self.next_id = base + summary["next_id"]

    def summary(self):
        """Plain-data aggregates, for a child process to hand to its parent."""
        return {
            "layers": list(self.layers), "calls": self.calls, "busy": self.busy,
            "self_time": self.self_time, "top_time": self.top_time,
            "probe_calls": self.probe_calls, "probe_time": self.probe_time,
            "probe_repeats": self.probe_repeats,
            "fraction_new": self.fraction_new, "names": self.names,
            "spans": self.spans, "dropped": self.dropped, "next_id": self.next_id,
        }

    def metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        out = {}
        for i, layer in enumerate(self.layers):
            if layer == RUNNER:
                out["runner.self_s"] = self.self_time[i]
                continue
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.busy_s"] = self.busy[i]
            out[f"{layer}.self_s"] = self.self_time[i]
        out["fractions.new_calls"] = self.fraction_new
        for g in PROBE_GROUPS:
            out[f"{g}_calls"] = self.probe_calls[g]
            if g not in _COUNT_ONLY:
                out[f"{g}_s"] = self.probe_time[g]
        for g in REPEAT_GROUPS:
            calls = self.probe_calls[g]
            out[f"{g}_repeat_ratio"] = self.probe_repeats[g] / calls if calls else 0.0
        return out

    def write_spans(self, path):
        """Write spans as JSON lines: id, parent id (0 at a root), name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for sid, parent, nid, start, end in self.spans:
                fh.write(json.dumps([sid, parent, self.names[nid], start, end]) + "\n")


def per_layer_units():
    """Name and unit of every per-layer metric a traced run reports."""
    names = list(Tracer().metrics()) + ["trace.wall_s", "trace.overhead"]
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("calls"):
            units[name] = "count"
        else:
            units[name] = "ratio"
    return units


def _in_package(module_name):
    return module_name == "trunclab" or module_name.startswith("trunclab.")


class Installation:
    """The wrappers one `install` put in place, and how to take them out."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []          # (class or dict, key, original), in order
        self._wrapped = {}       # original function -> wrapper

    def _replace(self, target, key, value):
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, target.__dict__[key]))
            setattr(target, key, value)

    def _wrap_function(self, fn, qualname, layer):
        if fn not in self._wrapped:
            self._wrapped[fn] = self.tracer.span(fn, qualname, layer, PROBES.get(qualname))
        return self._wrapped[fn]

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if not _traced(attr, qualname):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                if isinstance(member.__func__, types.FunctionType):
                    self._replace(cls, attr, type(member)(
                        self._wrap_function(member.__func__, qualname, layer)))
            elif isinstance(member, property):
                if member.fget is not None:
                    self._replace(cls, attr, property(
                        self._wrap_function(member.fget, qualname, layer),
                        member.fset, member.fdel, member.__doc__))
            elif isinstance(member, types.FunctionType):
                self._replace(cls, attr, self._wrap_function(member, qualname, layer))

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"trunclab.{layer}")
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                qualname = f"{layer}.{attr}"
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif (isinstance(obj, types.FunctionType) and _traced(attr, qualname)
                      and not inspect.isgeneratorfunction(obj)):
                    self._wrap_function(obj, qualname, layer)
        # Rebind every namespace that imported a wrapped function, and the
        # package's module-level registries (dicts of functions).
        for name, module in list(sys.modules.items()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if isinstance(value, types.FunctionType) and value in self._wrapped:
                    self._replace(namespace, attr, self._wrapped[value])
                elif _in_package(name) and isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in self._wrapped:
                            self._replace(value, key, self._wrapped[item])
        tracer = self.tracer
        plain_new = Fraction.__dict__["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            tracer.fraction_new += 1
            return plain_new(cls, *args, **kwargs)

        setattr(counting_new, _MARK, True)
        self._replace(Fraction, "__new__", staticmethod(counting_new))
        return self

    def uninstall(self):
        self.tracer.active = False
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._wrapped.clear()


def leftover_wrappers():
    """Names of traced places that still hold a wrapper (empty when clean)."""
    found = []
    if is_wrapper(Fraction.__dict__["__new__"].__func__):
        found.append("fractions.Fraction.__new__")
    for name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if is_wrapper(value):
                found.append(f"{name}.{attr}")
            elif _in_package(name) and isinstance(value, dict):
                found.extend(f"{name}.{attr}[{k!r}]" for k, v in value.items()
                             if is_wrapper(v))
            elif _in_package(name) and isinstance(value, type) and value.__module__ == name:
                for mattr, member in vars(value).items():
                    inner = getattr(member, "__func__", None) or getattr(member, "fget", None)
                    if is_wrapper(inner or member):
                        found.append(f"{name}.{value.__name__}.{mattr}")
    return found
