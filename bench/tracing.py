"""Per-layer spans and counters around chtoucakit's public functions,
installed from outside the program.

Every public function of a layer module, and every public method of its
public classes, is replaced by a wrapper; so is every `from ... import`
alias of it in the other chtoucakit modules, which catches internal
calls such as pavings -> max_slack. A call opens a span only when it
crosses into another layer, so `L.calls` counts calls into layer L from
outside it and `L.self_s` is the time in L's spans minus the time in
their child spans. Field scalar operations (the methods of the field
classes) are not wrapped: they are too frequent, and their time counts
in the calling layer. Spans (name, start, end, parent) are kept in
memory and written out at the end.

The tracing's own cost is estimated, not taken as the difference of a
traced and an untraced round, which is smaller than the drift of the
machine's speed between rounds: each way through a wrapper (opening a
span, passing a same-layer call through, timing or counting a
same-layer call) is counted, and after the round its cost over a bare
call is measured on a function that does nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = (
    "simplex_core", "qlinalg", "zlattice", "ratlp", "pavings", "fans", "fields",
    "complete_homs", "hn_truncation", "graph_gluing", "l_functions", "jsonio", "cli",
)
# layers whose classes are scalar types: only their module functions are wrapped
SCALAR_CLASS_LAYERS = ("fields",)
# the CLI front end gets spans, so work under it is attributed, but no metrics
UNREPORTED = ("cli",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start ns, end ns, parent span index)
        self.stack: list[list] = []  # open spans: [layer, span index, start, child ns]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.inner_calls = 0  # same-layer calls passed straight through
        self.inner_hooked = 0  # same-layer calls timed or counted
        self.active = False

    def exclude(self, seconds: float) -> None:
        """Leave time spent outside the program out of the open span's self time."""
        if self.stack:
            self.stack[-1][3] += int(seconds * 1e9)

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in (x for x in LAYERS if x not in UNREPORTED):
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.self_s"] = self.self_ns.get(layer, 0) / 1e9
        c = self.counts
        lp = c.get("ratlp.shape_calls", 0)
        out["ratlp.rows_mean"] = c.get("ratlp.rows", 0) / lp if lp else 0.0
        out["ratlp.cols_mean"] = c.get("ratlp.cols", 0) / lp if lp else 0.0
        out["pavings.subsets_tried"] = c.get("pavings.subsets_tried", 0)
        out["pavings.covers"] = c.get("pavings.covers", 0)
        covers = c.get("pavings.covers", 0)
        out["pavings.admissible_per_cover"] = c.get("pavings.admissible", 0) / covers if covers else 0.0
        out["qlinalg.entries"] = c.get("qlinalg.entries", 0)
        out["fans.dd_calls"] = c.get("fans.dd_calls", 0)
        out["fans.dd_rows"] = c.get("fans.dd_rows", 0)
        out["complete_homs.exterior_power_s"] = c.get("complete_homs.exterior_power_ns", 0) / 1e9
        out["l_functions.star_s"] = c.get("l_functions.star_ns", 0) / 1e9
        return out

    def overhead_s(self) -> float:
        """Estimated seconds the wrappers added to the round."""
        span, inner, hooked = wrapper_costs()
        return len(self.spans) * span + self.inner_calls * inner + self.inner_hooked * hooked

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _matrix_entries(args) -> int:
    total = 0
    for a in args:
        if isinstance(a, (list, tuple)) and a and isinstance(a[0], (list, tuple)):
            total += sum(len(row) for row in a)
    return total


def _hooks(tracer: Tracer):
    """Counters recorded on every call of a function, whichever layer
    calls it; `crossing` is true for calls from another layer."""

    def lp_shape(args, kwargs, crossing, result):
        if not crossing:
            return
        strict = args[0] if args else kwargs.get("strict_rows", [])
        eqs = args[2] if len(args) > 2 else kwargs.get("a_eq")
        nvars = kwargs.get("nvars") or (args[5] if len(args) > 5 else None) or max(
            (len(r) for r in list(strict) + list(eqs or [])), default=0)
        tracer.bump("ratlp.shape_calls")
        tracer.bump("ratlp.rows", len(strict) + len(eqs or []))
        tracer.bump("ratlp.cols", nvars)

    def entries(args, kwargs, crossing, result):
        if crossing:
            tracer.bump("qlinalg.entries", _matrix_entries(args))

    def dd(args, kwargs, crossing, result):
        tracer.bump("fans.dd_calls")
        tracer.bump("fans.dd_rows", len(args[0]))

    def admissible(args, kwargs, crossing, result):
        if result is not None and result.admissible:
            tracer.bump("pavings.admissible")

    return {
        ("ratlp", "max_slack"): lp_shape,
        ("fans", "double_description"): dd,
        ("pavings", "pave_from_points"): lambda a, k, c, r: tracer.bump("pavings.subsets_tried"),
        ("pavings", "paving_from_paves"): lambda a, k, c, r: tracer.bump("pavings.covers"),
        ("pavings", "is_admissible"): admissible,
        "qlinalg": entries,  # every qlinalg function takes matrices
    }


# inclusive timers, kept whichever layer calls
_TIMED = {
    ("complete_homs", "exterior_power"): "complete_homs.exterior_power_ns",
    ("l_functions", "star_convolve"): "l_functions.star_ns",
}


def _wrap(tracer: Tracer, fn, layer: str, qualname: str, hook, timer_key):
    name_index = len(tracer.names)
    tracer.names.append(f"{layer}.{qualname}")
    stack = tracer.stack
    spans = tracer.spans
    now = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if stack and stack[-1][0] == layer:
            if hook is None and timer_key is None:
                tracer.inner_calls += 1
                return fn(*args, **kwargs)
            tracer.inner_hooked += 1
            t0 = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if timer_key:
                    tracer.bump(timer_key, now() - t0)
                if hook:
                    hook(args, kwargs, False, result)
        parent = stack[-1][1] if stack else -1
        span_index = len(spans)
        spans.append(None)
        frame = [layer, span_index, now(), 0]
        stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = now()
            stack.pop()
            start = frame[2]
            spans[span_index] = (name_index, start, end, parent)
            tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            tracer.self_ns[layer] = tracer.self_ns.get(layer, 0) + (end - start - frame[3])
            if stack:
                stack[-1][3] += end - start
            if timer_key:
                tracer.bump(timer_key, end - start)
            if hook:
                hook(args, kwargs, True, result)

    return wrapper


def wrapper_costs(calls: int = 4000, repeats: int = 5) -> tuple[float, float, float]:
    """Seconds a wrapper adds to one call with two arguments of a function
    that does nothing: when it opens a span under another layer's span,
    when it passes a same-layer call through, and when it counts a
    same-layer call (median of `repeats` timings)."""

    def noop(a, b):
        return None

    def per_call(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for i in range(calls):
                fn(i, calls)
            times.append(time.perf_counter_ns() - t0)
        return statistics.median(times) / calls / 1e9

    tracer = Tracer()
    tracer.active = True
    plain = _wrap(tracer, noop, "probe", "noop", None, None)
    hooked = _wrap(tracer, noop, "probe", "counted", lambda *a: None, None)
    bare = per_call(noop)
    tracer.stack.append(["other", -1, 0, 0])
    span = per_call(plain) - bare
    tracer.stack.append(["probe", -1, 0, 0])
    return span, per_call(plain) - bare, per_call(hooked) - bare


def _is_function(obj, module_name: str) -> bool:
    target = getattr(obj, "__wrapped__", obj)  # lru_cache wrappers
    return callable(obj) and inspect.isfunction(target) and target.__module__ == module_name


def install(package: str = "chtoucakit") -> Tracer:
    """Wrap the public functions of every layer and rebind their aliases."""
    tracer = Tracer()
    hooks = _hooks(tracer)
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if _is_function(obj, mod.__name__):
                hook = hooks.get((layer, name), hooks.get(layer))
                w = _wrap(tracer, obj, layer, name, hook, _TIMED.get((layer, name)))
                replaced[id(obj)] = w
                setattr(mod, name, w)
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and layer not in SCALAR_CLASS_LAYERS and not issubclass(obj, BaseException)):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(raw, staticmethod):
                        setattr(obj, attr, staticmethod(
                            _wrap(tracer, raw.__func__, layer, f"{name}.{attr}", None, None)))
                    elif inspect.isfunction(raw):
                        setattr(obj, attr, _wrap(tracer, raw, layer, f"{name}.{attr}", None, None))
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
    return tracer
