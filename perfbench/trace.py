"""Spans and counters recorded around the public functions of ``supertrial``.

Tracing is installed from the benchmark's own files: each traced function
is replaced by a wrapper in every ``supertrial.*`` module that holds the
same object, and three methods are patched on their classes.  Spans stay in
memory (name, start and end in ns, parent index, job id) and are written
out when the pass ends.  Per-layer metrics are derived from the spans and
the counters; a layer's self time is its span time minus the part of that
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

Observer = Callable[[dict, tuple, Any], None]


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    job: str | None


def _obs_rref(counters: dict, args: tuple, result: Any) -> None:
    m = args[0]
    counters["linalg.rref.rows_in"] += m.rows
    counters["linalg.rref.cells_in"] += m.rows * m.cols
    counters["linalg.rref.rank"] += len(result[1])


def _obs_nullity(counters: dict, args: tuple, result: Any) -> None:
    counters["linalg.nullspace_basis.nullity"] += len(result)


def _obs_member(counters: dict, args: tuple, result: Any) -> None:
    counters["linalg.solve_in_span.members"] += result is not None


def _obs_cells(counters: dict, args: tuple, result: Any) -> None:
    counters["linalg.from_rows.cells"] += result.rows * result.cols


def _obs_battery(counters: dict, args: tuple, result: Any) -> None:
    counters["spaces.battery.lines"] += len(result.lines)
    counters["spaces.battery.failed_lines"] += len(result.failed_lines())


def _obs_violations(counters: dict, args: tuple, result: Any) -> None:
    counters["core.violations"] += len(result.violations)


def _obs_bytes(counters: dict, args: tuple, result: Any) -> None:
    counters["serialize.input_bytes"] += len(args[0].encode("utf-8"))


_BUILDERS = (
    "derivation_space",
    "quasiderivation_space",
    "generalized_derivation_space",
    "central_derivation_space",
    "centroid",
    "quasicentroid",
    # The battery builds through these two private entry points; without
    # them its builds would count as battery self time.
    "_build_space",
    "_intersection_space",
)
_OTHER_CONSTRUCTIONS = (
    "graph_subalgebra_check",
    "rota_baxter_check",
    "rota_baxter_induce",
    "averaging_check",
    "swap_construct",
    "sum_product_construct",
    "commutator_construct",
    "total_product_construct",
    "conjugate_automorphism",
)

# (module, function, span name, observer)
FUNCTIONS: tuple[tuple[str, str, str, Observer | None], ...] = (
    ("supertrial.linalg", "rref", "linalg.rref", _obs_rref),
    ("supertrial.linalg", "nullspace_basis", "linalg.nullspace_basis", _obs_nullity),
    ("supertrial.linalg", "canonical_span", "linalg.canonical_span", None),
    ("supertrial.linalg", "solve_in_span", "linalg.solve_in_span", _obs_member),
    ("supertrial.spaces", "space_contains", "spaces.space_contains", None),
    ("supertrial.spaces", "supercommutator", "spaces.supercommutator", None),
    *(("supertrial.spaces", name, "spaces.build", None) for name in _BUILDERS),
    ("supertrial.spaces", "proposition_battery", "spaces.proposition_battery", _obs_battery),
    ("supertrial.core", "check_bihom", "core.check_bihom", _obs_violations),
    ("supertrial.core", "check_hom", "core.check_hom", _obs_violations),
    ("supertrial.core", "check_multiplicative", "core.check_multiplicative", _obs_violations),
    ("supertrial.core", "check_morphism", "core.check_morphism", _obs_violations),
    ("supertrial.core", "center", "core.center", None),
    ("supertrial.constructions", "yau_twist", "constructions.yau_twist", None),
    ("supertrial.constructions", "direct_sum", "constructions.direct_sum", None),
    *(("supertrial.constructions", name, "constructions.other", None) for name in _OTHER_CONSTRUCTIONS),
    ("supertrial.serialize", "parse_algebra", "serialize.parse_algebra", _obs_bytes),
    ("supertrial.serialize", "parse_map", "serialize.parse_map", _obs_bytes),
    ("supertrial.serialize", "emit_algebra", "serialize.emit_algebra", None),
    ("supertrial.cli", "main", "cli.main", None),
)

# (module, class, method, span name, observer); from_rows is a classmethod.
METHODS: tuple[tuple[str, str, str, str, Observer | None], ...] = (
    ("supertrial.linalg", "Matrix", "__matmul__", "linalg.matmul", None),
    ("supertrial.linalg", "Matrix", "from_rows", "linalg.from_rows", _obs_cells),
)

# Methods called too often for a span each: only their calls are counted.
COUNTED: tuple[tuple[str, str, str, str], ...] = (
    ("supertrial.core", "StructureTensor", "bilinear", "core.bilinear.calls"),
)

SPAN_METRICS = (
    "linalg.rref",
    "linalg.nullspace_basis",
    "linalg.canonical_span",
    "linalg.solve_in_span",
    "linalg.matmul",
    "spaces.space_contains",
    "spaces.supercommutator",
    "spaces.build",
    "core.check_bihom",
    "core.check_hom",
    "core.check_multiplicative",
    "core.check_morphism",
    "core.center",
    "constructions.yau_twist",
    "constructions.direct_sum",
    "constructions.other",
    "serialize.parse_algebra",
    "serialize.parse_map",
    "serialize.emit_algebra",
    "cli.main",
)

# Each member of SPAN_METRICS gives a ``.calls`` and a ``.self_s`` metric;
# these spans give only ``.self_s``.
SELF_ONLY = ("linalg.from_rows", "spaces.proposition_battery")
# Counter metric -> the span whose absence from the program makes it absent.
COUNTERS = {
    "linalg.rref.rows_in": "linalg.rref",
    "linalg.rref.cells_in": "linalg.rref",
    "linalg.rref.rank": "linalg.rref",
    "linalg.nullspace_basis.nullity": "linalg.nullspace_basis",
    "linalg.from_rows.cells": "linalg.from_rows",
    "spaces.battery.lines": "spaces.proposition_battery",
    "spaces.battery.failed_lines": "spaces.proposition_battery",
    "core.bilinear.calls": "core.bilinear",
    "core.violations": "core.check_bihom",
    "serialize.input_bytes": "serialize.parse_algebra",
}
# Ratio metric -> (numerator counter, denominator counter or span calls).
RATIOS = {
    "linalg.rref.useful_row_ratio": ("linalg.rref.rank", "linalg.rref.rows_in"),
    "linalg.solve_in_span.member_ratio": ("linalg.solve_in_span.members", "linalg.solve_in_span.calls"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module derives, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "B" if name.endswith("_bytes") else "count"
    for name in RATIOS:
        units[name] = "ratio"
    return units


class Tracer:
    """Collects spans and counters for one pass; install() patches the program."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.counters: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def count(self, key: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every traced name that exists; absent names are skipped."""
        for module_name, attr, span_name, observe in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            _rebind(original, self.wrap(span_name, original, observe))
            self.present.add(span_name)
        for module_name, cls_name, attr, span_name, observe in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(span_name, raw.__func__, observe)))
            else:
                setattr(cls, attr, self.wrap(span_name, raw, observe))
            self.present.add(span_name)
        for module_name, cls_name, attr, key in COUNTED:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                continue
            setattr(cls, attr, self.count(key, raw))
            self.present.add(key.rsplit(".", 1)[0])

    def finished(self) -> list[Span]:
        return [Span(*s) for s in self.spans]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _rebind(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "supertrial" or name.startswith("supertrial.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def self_times(spans: list[Span]) -> list[int]:
    """Self time of each span in ns: its duration minus the union of its
    children's intervals, each clipped to the parent's interval."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered = 0
        cursor = s.start_ns
        for lo, hi in sorted((spans[c].start_ns, spans[c].end_ns) for c in children[idx]):
            lo, hi = max(lo, cursor), min(hi, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end_ns - s.start_ns - covered)
    return out


def layer_metrics(spans: list[Span], counters: dict[str, int], present: set[str]) -> dict[str, float | None]:
    """Per-layer metrics of one pass; a metric whose source is absent is None.

    A ``spaces.build`` span nested in another (a public builder calling the
    private one) is not counted as a second call.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for s, own in zip(spans, selfs):
        self_ns[s.name] += own
        nested = s.parent >= 0 and spans[s.parent].name == s.name
        if not nested:
            calls[s.name] += 1
    values: dict[str, float | None] = {}
    for name in SPAN_METRICS:
        values[f"{name}.calls"] = calls[name] if name in present else None
        values[f"{name}.self_s"] = self_ns[name] / 1e9 if name in present else None
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = self_ns[name] / 1e9 if name in present else None
    for name, source in COUNTERS.items():
        values[name] = counters.get(name, 0) if source in present else None
    merged = {**counters, **{f"{k}.calls": v for k, v in calls.items()}}
    for name, (num, den) in RATIOS.items():
        source = num.rsplit(".", 1)[0]
        if source not in present:
            values[name] = None
        else:
            values[name] = merged.get(num, 0) / merged[den] if merged.get(den) else 0.0
    return values
