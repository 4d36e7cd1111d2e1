"""Spans and call counts recorded around calls into platocover's layers.

The wrappers are installed from outside the program.  Each one replaces a
public function under every name a platocover module bound it to, so a call
made through ``from .linalg import rref`` is caught as well as one made
through ``linalg.rref``.  Stage functions open a span; linalg kernels and a
few methods only add a count (and, for the kernels, their time) to the
innermost open span, so their cost is attributed to the stage that asked for
it.  Spans stay in memory and are summarised when the worker ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

# census's own child stages; anything else under it would break self time
CENSUS_CHILDREN = {"maps", "homology", "decompose", "enumerate", "describe"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts", "ns")

    def __init__(self, name: str, parent: "Span | None", start: int):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.counts = Counter()  # calls and quantities attributed to this span
        self.ns = Counter()  # time of timed calls attributed to this span

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.calls = Counter()  # every counted call, wherever it happened

    def stage(self, name: str, fn, measure=None):
        """Wrap fn in a span; measure(span, args, result) may add counts
        after the span has closed."""
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(name, parent, perf_counter_ns())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                self.stack.pop()
            if measure is not None:
                measure(span, args, result)
            return result
        return wrapper

    def count(self, name: str, fn, timed: bool = False):
        """Wrap fn so each call adds to the innermost open span."""
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            span = self.stack[-1] if self.stack else None
            if span is not None:
                span.counts[name] += 1
            if not timed:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                if span is not None:
                    span.ns[name] += perf_counter_ns() - t0
        return wrapper


class _JsonTimedDumps:
    """Stands in for the json module inside platocover.cli, with a timed dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported platocover package."""
    from platocover import builder, cli, decompose, homology, lattice, linalg, maps, oracle

    def components(span, args, result):
        span.counts["components"] += len(result)

    def submodules(span, args, result):
        comps, module = args[0], args[1]
        span.counts["submodules"] += len(result)
        span.counts["menu_sum"] += sum(
            lattice.subspace_count(c.multiplicity, module.p**c.endo_degree) for c in comps
        )

    def darts(span, args, result):
        va = args[0]
        span.counts["darts"] += va.dart_map.n_darts * va.p**va.c

    def vectors(span, args, result):
        module = args[0]
        span.counts["vectors"] += module.p**module.dim
        span.counts["submodules"] += len(result)

    functions = [
        (linalg.rref, tracer.count("rref", linalg.rref, timed=True)),
        (linalg.reduce_rows, tracer.count("reduce_rows", linalg.reduce_rows, timed=True)),
        (maps.build_map, tracer.stage("maps", maps.build_map)),
        (maps.build_group, tracer.stage("maps", maps.build_group)),
        (homology.build_homology, tracer.stage("homology", homology.build_homology)),
        (decompose.decompose_module,
         tracer.stage("decompose", decompose.decompose_module, components)),
        (lattice.enumerate_submodules,
         tracer.stage("enumerate", lattice.enumerate_submodules, submodules)),
        (lattice.describe_covering, tracer.stage("describe", lattice.describe_covering)),
        (lattice.census, tracer.stage("census", lattice.census)),
        (cli.census_payload, tracer.stage("render", cli.census_payload)),
        (cli.render_table, tracer.stage("render", cli.render_table)),
        (builder.solve_voltages, tracer.stage("solve", builder.solve_voltages)),
        (builder.euler_verify, tracer.stage("euler", builder.euler_verify, darts)),
        (oracle.brute_force_submodules,
         tracer.stage("oracle", oracle.brute_force_submodules, vectors)),
    ]
    replacement = {id(orig): (orig, new) for orig, new in functions}
    bound = Counter()
    for name, module in list(sys.modules.items()):
        if name != "platocover" and not name.startswith("platocover."):
            continue
        for attr, value in list(vars(module).items()):
            orig, new = replacement.get(id(value), (None, None))
            if orig is value:
                setattr(module, attr, new)
                bound[id(orig)] += 1
    unbound = [orig.__qualname__ for orig, _ in functions if not bound[id(orig)]]
    if unbound:
        raise RuntimeError(f"no platocover module binds {unbound}")

    cli.json = _JsonTimedDumps(tracer.stage("render", json.dumps))
    homology.Subspace.contains = tracer.count("contains", homology.Subspace.contains)
    homology.HomologyModule.invariant_under_group = tracer.count(
        "invariant_checks", homology.HomologyModule.invariant_under_group
    )


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its child spans cover."""
    children = {id(s): [] for s in spans}
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {id(s): s.duration - _covered(children[id(s)]) for s in spans}


def validate(tracer: Tracer) -> list[str]:
    """Structural checks on a finished trace; an empty list means it holds."""
    spans = tracer.spans
    errors = []
    if tracer.stack:
        errors.append(f"{len(tracer.stack)} spans never closed")
    if not spans:
        return errors + ["no spans recorded"]
    child_total = Counter()
    for s in spans:
        if s.end is None or s.end < s.start:
            errors.append(f"span {s.name} has no valid end")
            continue
        if s.parent is not None:
            if not (s.parent.start <= s.start and s.end <= s.parent.end):
                errors.append(f"span {s.name} does not nest in {s.parent.name}")
            child_total[id(s.parent)] += s.duration
    if errors:
        return errors
    own = self_times(spans)
    for s in spans:
        if own[id(s)] < 0:
            errors.append(f"span {s.name} has negative self time")
        if s.name == "census":
            names = {c.name for c in spans if c.parent is s}
            if names != CENSUS_CHILDREN:
                errors.append(f"census children {sorted(names)}, want {sorted(CENSUS_CHILDREN)}")
            if child_total[id(s)] + own[id(s)] != s.duration:
                errors.append("census children and self time do not add up to the census span")
    for name, calls in tracer.calls.items():
        attributed = sum(s.counts[name] for s in spans)
        if attributed != calls:
            errors.append(f"{calls - attributed} {name} calls outside every span")
    return errors


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced worker; times in seconds."""
    spans = tracer.spans
    own = self_times(spans)

    def seconds(*names):
        return sum(s.duration for s in spans if s.name in names) / 1e9

    def counted(key, *names):
        return sum(s.counts[key] for s in spans if s.name in names)

    def ns(key):
        return sum(s.ns[key] for s in spans) / 1e9

    submodules = counted("submodules", "enumerate")
    menu_sum = counted("menu_sum", "enumerate")
    return {
        "maps.s": seconds("maps"),
        "homology.s": seconds("homology"),
        "decompose.s": seconds("decompose"),
        "decompose.components": counted("components", "decompose"),
        "decompose.rref_calls": counted("rref", "decompose"),
        "enumerate.s": seconds("enumerate"),
        "enumerate.submodules": submodules,
        "enumerate.menu_sum": menu_sum,
        "enumerate.menu_ratio": menu_sum / submodules if submodules else 0.0,
        "enumerate.rref_calls": counted("rref", "enumerate"),
        "enumerate.reduce_rows_calls": counted("reduce_rows", "enumerate"),
        "enumerate.invariant_checks": counted("invariant_checks", "enumerate"),
        "describe.s": seconds("describe"),
        "describe.calls": sum(1 for s in spans if s.name == "describe"),
        "describe.contains_calls": counted("contains", "describe"),
        "describe.reduce_rows_calls": counted("reduce_rows", "describe"),
        "census.s": seconds("census"),
        "census.self_s": sum(own[id(s)] for s in spans if s.name == "census") / 1e9,
        "cli.render_s": seconds("render"),
        "builder.solve_s": seconds("solve"),
        "builder.euler_s": seconds("euler"),
        "builder.darts": counted("darts", "euler"),
        "builder.verified": sum(1 for s in spans if s.name == "euler"),
        "oracle.s": seconds("oracle"),
        "oracle.vectors": counted("vectors", "oracle"),
        "oracle.submodules": counted("submodules", "oracle"),
        "oracle.rref_calls": counted("rref", "oracle"),
        "linalg.rref.calls": tracer.calls["rref"],
        "linalg.rref.s": ns("rref"),
        "linalg.reduce_rows.calls": tracer.calls["reduce_rows"],
        "linalg.reduce_rows.s": ns("reduce_rows"),
    }
