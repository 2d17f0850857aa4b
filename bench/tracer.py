"""Spans and counters around the program's public functions, from outside it.

Each wrapper replaces a name where its caller looks it up: `cli` does
`from .pbe import pbe_ball`, so the wrapper goes on `relucert.cli.pbe_ball`,
not on `relucert.pbe.pbe_ball`. The program is single-threaded, so a layer
never waits on another: the tracer records busy time, counts and failures
only. Spans stay in memory until the run writes them out.

A target whose module or attribute no longer exists is listed in `absent`
and skipped; its metrics then read zero.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter


def _raw_facets(counts, result):
    counts["hull.raw_facets"] += len(result[0])


def _facets(counts, result):
    counts["polytope.facets"] += result.num_facets


def _selected(counts, result):
    counts["polytope.positive_facets.selected"] += len(result.facet_indices)


def _feasible(counts, result):
    counts["solvers.lp.feasible"] += bool(result)


def _iterations(counts, result):
    counts["solvers.cone.iterations"] += int(result.iterations)


# (layer name, module, attribute path, hook on the result). A layer named
# twice aggregates both targets. Layers in COUNT_ONLY get no span, only a
# call count: they run once per reconstruction candidate.
TARGETS = (
    ("cli", "relucert.cli", "main", None),
    ("io.read", "relucert.io", "read_matrix", None),
    ("frames.normalize", "relucert.cli", "normalize", None),
    ("polytope.build", "relucert.cli", "build_polytope", _facets),
    ("hull.quickhull", "relucert.hull", "quickhull", _raw_facets),
    ("polytope.positive_facets", "relucert.cli", "positive_facets", _selected),
    ("solvers.lp", "relucert.polytope", "lp_feasible", _feasible),
    ("pbe.estimate", "relucert.cli", "pbe_ball", None),
    ("pbe.estimate", "relucert.cli", "pbe_positive", None),
    ("solvers.cone", "relucert.pbe", "min_linear_capped_cone", _iterations),
    ("pbe.stability", "relucert.cli", "stability", None),
    ("pbe.stability", "relucert.cli", "stability_positive", None),
    ("frames.frame_bounds", "relucert.pbe", "frame_bounds", None),
    ("layer.certify", "relucert.cli", "certify", None),
    ("layer.dual_bank", "relucert.cli", "build_dual_bank", None),
    ("frames.dual_synthesis", "relucert.layer", "dual_synthesis", None),
    ("layer.forward", "relucert.cli", "forward", None),
    ("layer.reconstruct", "relucert.cli", "reconstruct", None),
    ("layer.facet_reconstruction", "relucert.layer", "facet_reconstruction", None),
    ("reports.render", "relucert.reports", "Report.to_text", None),
)
COUNT_ONLY = frozenset({"layer.facet_reconstruction"})


class Tracer:
    """Installs the wrappers for the life of a `with` block.

    `spans` holds (layer, start, end, parent span index or -1, command id)
    tuples; `counts` holds `<layer>.calls`, `<layer>.failed` and the hook
    counters. Set `command` before each command so its spans carry the id.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.command = -1
        self._stack: list[int] = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    def __enter__(self):
        for layer, module, path, hook in self.targets:
            owner, attr = _resolve(module, path)
            if owner is None:
                self.absent.append(f"{layer} ({module}.{path})")
                continue
            original = getattr(owner, attr)
            wrapped = (self._counter(layer, original) if layer in COUNT_ONLY
                       else self._span(layer, original, hook))
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _counter(self, layer, fn):
        key = layer + ".calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, layer, fn, hook):
        stack = self._stack
        calls, failed = layer + ".calls", layer + ".failed"

        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[failed] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.command)
                self.counts[calls] += 1
            if hook is not None:
                hook(self.counts, result)
            return result
        return wrapper


def _resolve(module: str, path: str):
    """(object owning the last attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def layer_times(spans) -> tuple[dict, dict]:
    """Busy and self seconds per layer; self excludes direct child spans."""
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    busy: dict = Counter()
    own: dict = Counter()
    for i, (layer, start, end, _, _) in enumerate(spans):
        busy[layer] += end - start
        own[layer] += end - start - children[i]
    return busy, own
