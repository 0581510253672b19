"""Span tracer for the dyck2d modules, installed from outside the package.

Every public function defined in a traced module is replaced, in every
``dyck2d.*`` namespace that binds it, by a wrapper that records one span per
call: name, start, end and parent span.  Rebinding every namespace catches
calls through names imported from another module (``lab`` calling
``crossword.in_DC``) and recursive calls (``in_DW`` calling ``in_DW`` through
its module global).  Generator functions get one span per ``next()``.

Spans are kept in flat arrays in memory and written when the run ends;
per-layer metrics are derived from them afterwards.  No file of the package
is changed, and ``restore()`` puts every original binding back.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import time
from array import array

MODULES = ("grid", "dyck1d", "crossword", "neutralize", "wellnest", "lab", "cli")

# Functions reported as per-layer metrics: <module>.<function>.calls / .self_s.
# The wrapped set is wider (every public function), so that self time is not
# charged to a caller for work done inside another public function.
REPORTED = {
    "neutralize": ("in_DN", "find_redexes", "apply_step", "priority_graph"),
    "wellnest": ("in_DW",),
    "grid": ("simplot_partition", "subpicture", "parse_picture"),
    "crossword": ("in_DC", "is_quaternate", "matching_graph", "circuits"),
    "dyck1d": ("is_dyck", "match_positions"),
    "lab": ("enumerate_dc", "classify", "census"),
    "cli": ("main",),
}
# graph_to_json and graph_to_dot are reported together as one export layer.
GRAPH_EXPORT = ("crossword.graph_to_json", "crossword.graph_to_dot")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, funcs in REPORTED.items():
        for fn in funcs:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
        if module == "neutralize":
            names.append("neutralize.redex_yield")
        if module == "wellnest":
            names += ["wellnest.in_DW.top_calls", "wellnest.in_DW.repeat_ratio"]
        if module == "crossword":
            names += ["crossword.graph_export.calls", "crossword.graph_export.self_s"]
        if module == "lab":
            names.append("lab.enumerate_dc.yielded")
    names += ["trace.spans", "trace.wall_s"]
    return names


def _dw_key(args, kwargs):
    p = args[0]
    mixed = args[1] if len(args) > 1 else kwargs.get("mixed_border_indices", True)
    return hash((p.rows, p.cols, p.cells, mixed))


# Argument fingerprints, so that a function's calls on an argument already
# seen in this run can be counted from outside (the memo-hit rate).
_KEYED = {"wellnest.in_DW": _dw_key}


class Tracer:
    """Install span-recording wrappers; derive per-layer metrics from spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_yield = array("b")  # generator spans: 1 if next() yielded
        self.seen: dict[str, set[int]] = {name: set() for name in _KEYED}
        self.repeats: dict[str, int] = {name: 0 for name in _KEYED}
        self.top_calls: dict[str, int] = {name: 0 for name in _KEYED}
        self._depth: dict[str, int] = {name: 0 for name in _KEYED}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self.span_yield.append(0)
        self._stack.append(idx)
        self.span_start.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = self._clock()
        self._stack.pop()

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        key_of = _KEYED.get(qualname)
        seen = self.seen.get(qualname)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(name_id)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.span_yield[idx] = 1
                    yield value

            return gen_wrapper

        if key_of is not None:

            @functools.wraps(fn)
            def keyed_wrapper(*args, **kwargs):
                key = key_of(args, kwargs)
                if key in seen:
                    self.repeats[qualname] += 1
                else:
                    seen.add(key)
                if not self._depth[qualname]:
                    self.top_calls[qualname] += 1
                self._depth[qualname] += 1
                idx = self._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
                    self._depth[qualname] -= 1

            return keyed_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span around one benchmark operation; its calls become children."""
        if label not in self.names:
            self.names.append(label)
        idx = self._open(self.names.index(label))
        try:
            yield
        finally:
            self._close(idx)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules, everywhere bound."""
        import dyck2d  # noqa: F401  (loads every submodule)

        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if name == "dyck2d" or name.startswith("dyck2d.")
        ]
        wrapped: dict[int, object] = {}
        for module in MODULES:
            mod = sys.modules[f"dyck2d.{module}"]
            for attr, fn in sorted(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrapped[id(fn)] = self._wrap(f"{module}.{attr}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, replacement)

    def restore(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    # -- derived metrics -----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = len(self.span_name)
        child = [0.0] * n
        for idx in range(n):
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        # A generator's spans are its next() calls: the ones that yielded
        # count as yields, the final one (StopIteration) as the call.
        calls: dict[str, int] = {}
        yields: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for idx in range(n):
            name = self.names[self.span_name[idx]]
            yielded = self.span_yield[idx]
            calls[name] = calls.get(name, 0) + 1 - yielded
            yields[name] = yields.get(name, 0) + yielded
            dur = self.span_end[idx] - self.span_start[idx]
            self_s[name] = self_s.get(name, 0.0) + dur - child[idx]
        out: dict[str, float] = {}
        for module, funcs in REPORTED.items():
            for fn in funcs:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["lab.enumerate_dc.yielded"] = yields.get("lab.enumerate_dc", 0)
        out["neutralize.redex_yield"] = _ratio(
            out["neutralize.apply_step.calls"], out["neutralize.find_redexes.calls"]
        )
        out["wellnest.in_DW.top_calls"] = self.top_calls["wellnest.in_DW"]
        out["wellnest.in_DW.repeat_ratio"] = _ratio(
            self.repeats["wellnest.in_DW"], out["wellnest.in_DW.calls"]
        )
        out["crossword.graph_export.calls"] = sum(calls.get(g, 0) for g in GRAPH_EXPORT)
        out["crossword.graph_export.self_s"] = sum(self_s.get(g, 0.0) for g in GRAPH_EXPORT)
        out["trace.spans"] = n
        # Root spans are the benchmark's operations: traced wall time.
        out["trace.wall_s"] = sum(
            self.span_end[idx] - self.span_start[idx] for idx in range(n) if self.span_parent[idx] < 0
        )
        return {name: out[name] for name in metric_names()}

    def write(self, path) -> None:
        """Write every span as one tab-separated line: id, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for idx in range(len(self.span_name)):
                fh.write(
                    f"{idx}\t{self.names[self.span_name[idx]]}\t{self.span_start[idx]:.9f}"
                    f"\t{self.span_end[idx]:.9f}\t{self.span_parent[idx]}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
