"""Span tracer that measures each ecount layer from outside the library.

`Tracer.install()` wraps every public function (the functions named in a
module's ``__all__`` and defined there) of the five library layers and
rebinds the wrapper in every ``ecount`` module that holds the same
function object.  ``counts`` imports ``certified_floor`` by name, so a
call from ``counts`` into ``certified_floor`` goes through the
``certified`` wrapper and lands in a ``certified`` span.

The CLI layer has no ``__all__``; its one span is opened by the caller
around ``ecount.cli.main`` (see ``cli_shim.py``).

Spans stay in memory as flat lists ``[layer, name, parent, start_ns,
end_ns, raised, extra]`` and are written out by the caller when the run
ends.  A span's self time is its duration minus the time its child spans
cover; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

LIBRARY_LAYERS = ("exact", "certified", "counts", "specials", "oracles")
LAYERS = LIBRARY_LAYERS + ("cli",)

# span record fields
LAYER, NAME, PARENT, START, END, RAISED, EXTRA = range(7)

_DECISIONS = {("certified", "certified_floor_info"), ("certified", "eform_sign")}


def _den_bits(iv) -> int:
    return max(iv.lo.denominator.bit_length(), iv.hi.denominator.bit_length())


def _observe_floor_info(args, kwargs, result):
    return {"decision": not args[0].is_rational, "bits": result.precision_bits}


def _observe_sign(args, kwargs, result):
    return {"decision": not args[0].is_rational}


def _observe_eval(args, kwargs, result):
    return {"den_bits": _den_bits(result)}


def _observe_quad(args, kwargs, result):
    return {"panels": result.evaluations, "den_bits": _den_bits(result.value)}


_OBSERVERS = {
    ("certified", "certified_floor_info"): _observe_floor_info,
    ("certified", "eform_sign"): _observe_sign,
    ("certified", "eform_eval"): _observe_eval,
    ("oracles", "quad_gamma"): _observe_quad,
}


def public_functions(module) -> list[tuple[str, object]]:
    """(name, function) for each function in __all__ defined in `module`."""
    out = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((name, obj))
    return out


def ecount_modules() -> list:
    """The ecount package and every loaded ecount submodule."""
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "ecount" or key.startswith("ecount."))
    ]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers; they are built on the first call only, so
        the tracer can be switched on and off around single operations."""
        if not self._patches:
            self._patches = self._build_patches()
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self._patches:
            setattr(module, attr, original)

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        wrappers: dict[int, object] = {}
        for layer in LIBRARY_LAYERS:
            module = importlib.import_module(f"ecount.{layer}")
            for name, fn in public_functions(module):
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        importlib.import_module("ecount")
        return [
            (module, attr, value, wrappers[id(value)])
            for module in ecount_modules()
            for attr, value in vars(module).items()
            if id(value) in wrappers
        ]

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, name, stack[-1] if stack else -1, 0, 0, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except SystemExit:
                rec[END] = perf_counter_ns()
                raise
            except BaseException:
                rec[END] = perf_counter_ns()
                rec[RAISED] = True
                raise
            finally:
                stack.pop()
            rec[END] = perf_counter_ns()
            if observe is not None:
                rec[EXTRA] = observe(args, kwargs, result)
            return result

        wrapper.__perfbench_layer__ = layer
        return wrapper

    # --- manual spans ----------------------------------------------------

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of `layer`."""
        return self._wrap(layer, name, fn)(*args, **kwargs)


def is_wrapper(obj) -> bool:
    return hasattr(obj, "__perfbench_layer__")


# --- summaries -------------------------------------------------------------


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer counters and times (seconds) from a flat span list."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.raised"] = 0
    decisions = evals_in_decisions = 0
    decide_bits = eval_bits = quad_bits = panels = 0
    eval_ns = enclose_ns = exp_ns = root_ns = 0
    for i, rec in enumerate(spans):
        layer, name, parent = rec[LAYER], rec[NAME], rec[PARENT]
        dur = rec[END] - rec[START]
        out[f"{layer}.self_s"] += (dur - child_ns[i]) / 1e9
        out[f"{layer}.calls"] += 1
        parent_rec = spans[parent] if parent >= 0 else None
        if parent_rec is None:
            root_ns += dur
        if rec[RAISED] and (parent_rec is None or parent_rec[LAYER] != layer):
            out[f"{layer}.raised"] += 1
        extra = rec[EXTRA] or {}
        if (layer, name) in _DECISIONS and extra.get("decision"):
            decisions += 1
            decide_bits = max(decide_bits, extra.get("bits", 0))
        if layer == "certified" and name == "eform_eval":
            eval_ns += dur
            eval_bits = max(eval_bits, extra.get("den_bits", 0))
            if parent_rec is not None and (parent_rec[LAYER], parent_rec[NAME]) in _DECISIONS:
                evals_in_decisions += 1
        elif layer == "certified" and name in ("enclose_e", "enclose_e_inv"):
            enclose_ns += dur
        elif layer == "specials" and name == "exp_enclosure":
            exp_ns += dur
        elif layer == "oracles" and name == "quad_gamma":
            panels += extra.get("panels", 0)
            quad_bits = max(quad_bits, extra.get("den_bits", 0))
    out["certified.eval_s"] = eval_ns / 1e9
    out["certified.enclose_s"] = enclose_ns / 1e9
    out["certified.decisions"] = decisions
    out["certified.decision_evals"] = evals_in_decisions
    out["certified.decide_bits_max"] = decide_bits
    out["certified.endpoint_bits_max"] = eval_bits
    out["oracles.quad_panels"] = panels
    out["oracles.endpoint_bits_max"] = quad_bits
    out["specials.exp_enclosure_s"] = exp_ns / 1e9
    out["trace.root_span_s"] = root_ns / 1e9
    out["trace.spans"] = len(spans)
    return out


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    """Fold one summary into another: maxima for *_max, sums otherwise."""
    for key, value in part.items():
        if key.endswith("_max"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def evals_per_decision(summary: dict[str, float]) -> float:
    """eform_eval calls made directly by a non-rational floor or sign
    decision, per such decision."""
    decisions = summary["certified.decisions"]
    return summary["certified.decision_evals"] / decisions if decisions else 0.0
