"""Per-layer tracing of hombol from outside the package.

``install`` wraps the public functions and methods of every hombol module
(plus constructors and the Scalar arithmetic operators) and rebinds every
module-level name that refers to a wrapped function, so ``src/hombol`` is
not edited.  The layers are the modules.

Each wrapped call is a span (name, start, end, parent).  A layer's self time
is the time its spans cover minus the time their child spans cover.  The
tracer does that subtraction as each span closes, so it needs no record of
the millions of scalar-operation spans; it keeps the spans of the outer
call levels in memory and writes them out at the end of the run, and
``self_times`` applies the same arithmetic to a list of recorded spans.

The wrapper itself costs time on every call: some of it outside the
child's timed window (counted, and the span bookkeeping, which fall inside
the caller's span) and some inside it.  ``calibrate`` measures both parts
on a wrapped no-op, and ``Tracer.settle`` charges them per call: the outer
part to the caller's layer for each child call it made, the inner part to
the callee's layer for each of its calls; ``self_seconds`` leaves both out.
The worker calibrates after every job, because the host's speed drifts.
Without this, the layer that calls Scalar operations millions of times
would be charged with most of the tracing overhead.  A wrapped no-op in a
tight loop costs less than a wrapped Scalar operator inside hombol, so part
of the overhead (about half on octonion-sparse) still stays in the self
times of the layers that call Scalar operations.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("scalars", "algebra", "identities", "constructions", "morphisms", "catalog", "serialization", "cli")

# Methods wrapped besides the public ones.
_OPERATORS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"}

# Spans opened at a call depth below this are kept for the span file.
SPAN_DEPTH = 2
MAX_SPANS = 100_000


class Tracer:
    def __init__(self, clock=time.perf_counter, span_depth=SPAN_DEPTH):
        self.clock = clock
        self.span_depth = span_depth
        self.total = defaultdict(float)  # layer -> seconds its spans cover
        self.child = defaultdict(float)  # layer -> seconds covered by its spans' children
        self.calls = Counter()  # layer -> its spans
        self.child_calls = Counter()  # layer -> spans opened directly inside its spans
        self.wrapper_s = defaultdict(float)  # layer -> wrapper seconds charged by settle()
        self._settled = (Counter(), Counter())  # calls and child_calls at the last settle()
        self.counts = Counter()  # wrapped name -> calls
        self.extra = Counter()  # counts derived from arguments and results
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self._stack = []  # layers of the open calls
        self._open = []  # indices of the open recorded spans

    def wrap(self, fn, layer, name, hook=None):
        clock = self.clock
        stack = self._stack
        open_spans = self._open
        spans = self.spans
        total = self.total
        child = self.child
        counts = self.counts
        calls = self.calls
        child_calls = self.child_calls
        span_depth = self.span_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            calls[layer] += 1
            if stack:
                child_calls[stack[-1]] += 1
            index = -1
            if len(stack) < span_depth and len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append([name, layer, 0.0, 0.0, open_spans[-1] if open_spans else -1])
                open_spans.append(index)
            stack.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                total[layer] += elapsed
                if stack:
                    child[stack[-1]] += elapsed
                if index >= 0:
                    open_spans.pop()
                    spans[index][2] = start
                    spans[index][3] = end
            if hook is not None:
                hook(self.extra, args, result, elapsed)
            return result

        return traced

    def settle(self, cost):
        """Charge ``cost``, the wrapper's (outer, inner) seconds per call from
        calibrate(), to the calls made since the last settle."""
        outer, inner = cost
        calls, child_calls = self._settled
        for layer in LAYERS:
            self.wrapper_s[layer] += ((self.child_calls[layer] - child_calls[layer]) * outer
                                      + (self.calls[layer] - calls[layer]) * inner)
        self._settled = (Counter(self.calls), Counter(self.child_calls))

    def self_seconds(self):
        """Self time per layer, net of the wrapper cost charged by settle()."""
        return {layer: self.total[layer] - self.child[layer] - self.wrapper_s[layer] for layer in LAYERS}

    def summary(self):
        return {
            "self_s": self.self_seconds(),
            "wrapper_s": dict(self.wrapper_s),
            "counts": dict(self.counts),
            "extra": dict(self.extra),
            "spans_kept": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent"], "spans": self.spans}, fh)


def calibrate(calls=5_000, repeats=3):
    """(outer, inner) seconds the wrapper adds to one call, medians of
    ``repeats`` tries: a wrapped no-op is called ``calls`` times from inside
    a wrapped loop, next to the same loop calling the bare no-op.  ``outer``
    is what the loop's self time gains per call, ``inner`` what each no-op
    span covers."""

    def noop(a, b):
        return a

    def loop(fn):
        for _ in range(calls):
            fn(1, 2)

    outer, inner = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        loop(noop)
        bare = time.perf_counter() - start
        tracer = Tracer(span_depth=0)
        tracer.wrap(loop, "cli", "loop")(tracer.wrap(noop, "scalars", "noop"))
        plain = tracer.self_seconds()
        outer.append((plain["cli"] - bare) / calls)
        inner.append(plain["scalars"] / calls)
    return statistics.median(outer), statistics.median(inner)


def self_times(spans):
    """Self time per layer from complete spans [name, layer, start, end, parent]:
    each span's duration minus the durations of its children (one thread, so
    children are disjoint and inside their parent)."""
    out = defaultdict(float)
    for _, layer, start, end, _ in spans:
        out[layer] += end - start
    for _, _, start, end, parent in spans:
        if parent >= 0:
            out[spans[parent][1]] -= end - start
    return dict(out)


# ---------------------------------------------------------------------------
# counters read from arguments and results


def _tuples(extra, args, result, elapsed):
    """Basis tuples decided by one check_identity call: all dim^k when it
    passes, else the lexicographic rank of the counterexample plus one."""
    alg, identity = args[0], args[1]
    k = len(identity.variables)
    if result is None:
        extra["tuples"] += alg.dim**k
    else:
        rank = 0
        for i in result.indices:
            rank = rank * alg.dim + i
        extra["tuples"] += rank + 1
    extra["check_identity_us"] += round(elapsed * 1e6)


def _map_power(extra, args, result, elapsed):
    extra["max_map_power"] = max(extra["max_map_power"], args[1])


def _equations(extra, args, result, elapsed):
    extra["equations"] += len(result.equations)


def _grid(extra, args, result, elapsed):
    system, values = args[0], args[1]
    extra["grid_points"] += len({Fraction(v) for v in values}) ** len(system.unknowns)
    extra["solutions"] += len(result)


def _parsed(extra, args, result, elapsed):
    extra["parse_bytes"] += len(args[0].encode("utf-8"))


def _emitted(extra, args, result, elapsed):
    extra["emit_bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "identities.check_identity": _tuples,
    "algebra.LinearMap.power": _map_power,
    "morphisms.generate_constraints": _equations,
    "morphisms.grid_search": _grid,
    "serialization.parse_algebra": _parsed,
    "serialization.parse_map": _parsed,
    "serialization.parse_constraints": _parsed,
    "serialization.emit_algebra": _emitted,
    "serialization.emit_map": _emitted,
    "serialization.emit_constraints": _emitted,
}


# ---------------------------------------------------------------------------


# Predicates called in every inner loop of the kernels.  A wrapper would cost
# several times the work they do, so they stay part of their caller's span.
_UNWRAPPED = {"scalars.Scalar.is_zero", "scalars.Scalar.is_rational"}


def _defined_in(fn, module):
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def install(tracer):
    """Wrap hombol's public functions and methods.  Call after
    ``import hombol.cli``, which imports every layer."""
    replaced = {}  # original function -> wrapper
    for layer in LAYERS:
        module = sys.modules[f"hombol.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and _defined_in(obj, module):
                name = f"{layer}.{attr}"
                replaced[obj] = tracer.wrap(obj, layer, name, _HOOKS.get(name))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                _wrap_class(tracer, obj, layer, module)
    # rebind every module-level reference, including ``from .x import f`` copies
    for modname, module in list(sys.modules.items()):
        if modname == "hombol" or modname.startswith("hombol."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])


def _wrap_class(tracer, cls, layer, module):
    for attr, raw in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{attr}"
        if (attr.startswith("_") and attr not in _OPERATORS) or name in _UNWRAPPED:
            continue
        hook = _HOOKS.get(name)
        if isinstance(raw, (classmethod, staticmethod)):
            if _defined_in(raw.__func__, module):
                setattr(cls, attr, type(raw)(tracer.wrap(raw.__func__, layer, name, hook)))
        elif inspect.isfunction(raw) and _defined_in(raw, module):
            setattr(cls, attr, tracer.wrap(raw, layer, name, hook))


# ---------------------------------------------------------------------------
# python -X importtime

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def parse_importtime(text):
    """Self import seconds per hombol layer from ``-X importtime`` stderr."""
    out = {}
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(3).startswith("hombol."):
            layer = m.group(3).split(".", 1)[1]
            if layer in LAYERS:
                out[layer] = int(m.group(1)) / 1e6
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER = (
    # name, unit, better
    ("scalars.self_s", "s", "lower"),
    ("scalars.mul_calls", "count", "lower"),
    ("scalars.addsub_calls", "count", "lower"),
    ("scalars.pow_calls", "count", "lower"),
    ("scalars.evaluate_calls", "count", "lower"),
    ("scalars.substitute_calls", "count", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("algebra.vector_new", "count", "lower"),
    ("algebra.eval_binary_calls", "count", "lower"),
    ("algebra.eval_ternary_calls", "count", "lower"),
    ("algebra.apply_calls", "count", "lower"),
    ("algebra.compose_calls", "count", "lower"),
    ("algebra.morphism_checks", "count", "lower"),
    ("identities.self_s", "s", "lower"),
    ("identities.identity_checks", "count", "lower"),
    ("identities.tuples", "count", "lower"),
    ("identities.tuples_per_s", "1/s", "higher"),
    ("constructions.self_s", "s", "lower"),
    ("constructions.calls", "count", "lower"),
    ("constructions.max_map_power", "exponent", "lower"),
    ("morphisms.self_s", "s", "lower"),
    ("morphisms.equations", "count", "lower"),
    ("morphisms.grid_points", "count", "lower"),
    ("morphisms.solutions", "count", "higher"),
    ("morphisms.hit_ratio", "ratio", "higher"),
    ("catalog.self_s", "s", "lower"),
    ("catalog.cross_checks", "count", "lower"),
    ("serialization.self_s", "s", "lower"),
    ("serialization.parse_bytes", "bytes", "lower"),
    ("serialization.emit_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.commands", "count", "lower"),
) + tuple((f"{layer}.import_s", "s", "lower") for layer in LAYERS) + (
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(summary, import_s, overhead_s):
    """The per-layer metric values from a traced worker's ``summary``."""
    self_s = summary["self_s"]
    c = Counter(summary["counts"])
    x = Counter(summary["extra"])

    def calls(*names):
        return sum(c[n] for n in names)

    check_s = x["check_identity_us"] / 1e6
    values = {
        "scalars.self_s": self_s["scalars"],
        "scalars.mul_calls": calls("scalars.Scalar.__mul__", "scalars.Scalar.__rmul__"),
        "scalars.addsub_calls": calls(*(f"scalars.Scalar.{op}" for op in ("__add__", "__radd__", "__sub__", "__rsub__"))),
        "scalars.pow_calls": calls("scalars.Scalar.__pow__"),
        "scalars.evaluate_calls": calls("scalars.Scalar.evaluate"),
        "scalars.substitute_calls": calls("scalars.Scalar.substitute"),
        "algebra.self_s": self_s["algebra"],
        "algebra.vector_new": calls("algebra.Vector.__init__"),
        "algebra.eval_binary_calls": calls("algebra.HomAlgebra.eval_binary"),
        "algebra.eval_ternary_calls": calls("algebra.HomAlgebra.eval_ternary"),
        "algebra.apply_calls": calls("algebra.LinearMap.apply"),
        "algebra.compose_calls": calls("algebra.LinearMap.compose"),
        "algebra.morphism_checks": calls("algebra.first_weak_morphism_failure"),
        "identities.self_s": self_s["identities"],
        "identities.identity_checks": calls("identities.check_identity"),
        "identities.tuples": x["tuples"],
        "identities.tuples_per_s": x["tuples"] / check_s if check_s else 0.0,
        "constructions.self_s": self_s["constructions"],
        "constructions.calls": sum(n for name, n in c.items() if name.startswith("constructions.")),
        "constructions.max_map_power": x["max_map_power"],
        "morphisms.self_s": self_s["morphisms"],
        "morphisms.equations": x["equations"],
        "morphisms.grid_points": x["grid_points"],
        "morphisms.solutions": x["solutions"],
        "morphisms.hit_ratio": x["solutions"] / x["grid_points"] if x["grid_points"] else 0.0,
        "catalog.self_s": self_s["catalog"],
        "catalog.cross_checks": calls("catalog.cross_check"),
        "serialization.self_s": self_s["serialization"],
        "serialization.parse_bytes": x["parse_bytes"],
        "serialization.emit_bytes": x["emit_bytes"],
        "cli.self_s": self_s["cli"],
        "cli.commands": calls("cli.main"),
        "trace.overhead_s": overhead_s,
    }
    for layer in LAYERS:
        values[f"{layer}.import_s"] = import_s.get(layer, 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
