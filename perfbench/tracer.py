"""Spans recorded from outside the package, at the names callers look up.

The benchmark replaces a module attribute such as ``fiedlertools.fcd.perturbed_fiedler``
with a wrapper. Code inside the package that looks the name up at call time
then goes through the wrapper, which records one span per call: layer name,
start, end, parent span and operation id. Spans stay in memory; the run
writes them out when it ends. Nothing inside ``src/`` changes.

Only the calling process is traced. Pool workers inherit the wrappers when
they fork, but their spans die with them, so per-layer figures for work done
in a pool cover the parent process only.
"""
from __future__ import annotations

import functools
import importlib
import time
from concurrent.futures import ProcessPoolExecutor

# (module looked up in, attribute, layer name). Every site where a caller
# resolves a public function by name gets its own entry; the layer name is
# the module that defines the function.
SITES = [
    ("fiedlertools.fcd", "perturbed_fiedler", "perturbation.perturbed_fiedler"),
    ("fiedlertools.perturbation", "perturbed_fiedler", "perturbation.perturbed_fiedler"),
    ("fiedlertools.fcd", "a_of_v", "fcd.a_of_v"),
    ("fiedlertools.shape", "a_of_v", "fcd.a_of_v"),
    ("fiedlertools.cli", "a_of_v", "fcd.a_of_v"),
    ("fiedlertools.centrality", "fcd_all", "fcd.fcd_all"),
    ("fiedlertools.cli", "fcd_all", "fcd.fcd_all"),
    ("fiedlertools.spectral", "smallest_three", "eigen.smallest_three"),
    ("fiedlertools.eigen", "eig_sym", "eigen.eig_sym"),
    ("fiedlertools.cli", "eig_sym", "eigen.eig_sym"),
    ("fiedlertools.perturbation", "fiedler", "spectral.fiedler"),
    ("fiedlertools.shape", "fiedler", "spectral.fiedler"),
    ("fiedlertools.cli", "fiedler", "spectral.fiedler"),
    ("fiedlertools.spectral", "laplacian", "graphs.laplacian"),
    ("fiedlertools.cli", "laplacian", "graphs.laplacian"),
    ("fiedlertools.centrality", "generate", "graphs.generate"),
    ("fiedlertools.centrality", "betweenness", "centrality.betweenness"),
    ("fiedlertools.centrality", "closeness", "centrality.closeness"),
    ("fiedlertools.centrality", "eigenvector_centrality", "centrality.eigenvector_centrality"),
    ("fiedlertools.centrality", "pearson", "centrality.correlation"),
    ("fiedlertools.centrality", "spearman", "centrality.correlation"),
    ("fiedlertools", "mask_to_graph", "shape.mask_to_graph"),
    ("fiedlertools.cli", "mask_to_graph", "shape.mask_to_graph"),
    ("fiedlertools", "parameterize", "shape.parameterize"),
    ("fiedlertools.shape", "parameterize", "shape.parameterize"),
    ("fiedlertools.cli", "parameterize", "shape.parameterize"),
    ("fiedlertools", "anchored_parameterization", "shape.anchored_parameterization"),
    ("fiedlertools.cli", "anchored_parameterization", "shape.anchored_parameterization"),
    ("fiedlertools", "thickness_profile", "shape.thickness_profile"),
    ("fiedlertools.cli", "thickness_profile", "shape.thickness_profile"),
    ("fiedlertools.shape", "marching_squares", "shape.marching_squares"),
    ("fiedlertools.cli", "cmd_fiedler", "cli.fiedler"),
    ("fiedlertools.cli", "cmd_perturb_sweep", "cli.perturb_sweep"),
    ("fiedlertools.cli", "cmd_fcd", "cli.fcd"),
    ("fiedlertools.cli", "cmd_centrality_experiment", "cli.centrality_experiment"),
    ("fiedlertools.cli", "cmd_shape", "cli.shape"),
    ("fiedlertools.cli", "line_chart", "svgplot.line_chart"),
    ("fiedlertools.cli", "shape_scene", "svgplot.shape_scene"),
]
POOL_SITES = [("fiedlertools.fcd", "ProcessPoolExecutor"), ("fiedlertools.centrality", "ProcessPoolExecutor")]
POOL_LAYER = "cli.pool"


def _note(layer: str, args, result, exc):
    """Count recorded at the layer boundary, kept on the span."""
    if layer == "eigen.smallest_three":
        return int(args[0].shape[0])
    if layer == "fcd.a_of_v":
        return "hit_xmin" if exc is not None else result.boundary_flag
    if layer == "shape.mask_to_graph" and exc is None:
        return int(result.graph.n)
    return None


class Tracer:
    """In-memory span recorder; ``active`` switches recording on and off."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        # span: [layer, start, end, parent index or -1, op id, note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, layer: str, note=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.op, note])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, note=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if note is not None:
            span[5] = note
        self._stack.pop()

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, _note(layer, args, None, exc))
                raise
            tracer.close(idx, _note(layer, args, result, None))
            return result

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._span = tracer.open(POOL_LAYER, self._max_workers) if tracer.active else None

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.close(self._span)
                        self._span = None

        return TracedPool

    def install(self) -> None:
        """Wrap every site in SITES and POOL_SITES; ``uninstall`` undoes it."""
        for module_name, attr, layer in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        for module_name, attr in POOL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if original is not ProcessPoolExecutor:
                raise RuntimeError(f"{module_name}.{attr} is not the stdlib process pool")
            self._restore.append((module, attr, original))
            setattr(module, attr, self._pool_class(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per layer: calls, busy time, self time and the notes of its spans.

    Busy time sums only the outermost span of a layer (a span whose ancestors
    do not include the same layer), so recursion or a layer calling itself
    through another name is not counted twice. Self time is a span's duration
    minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    out: dict[str, dict] = {}
    for i, (layer, start, end, parent, _op, note) in enumerate(spans):
        entry = out.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "notes": []})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        if note is not None:
            entry["notes"].append(note)
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == layer:
                outer = False
                break
            p = spans[p][3]
        if outer:
            entry["busy_s"] += end - start
    return out


def count_under(spans: list[list], layer: str, ancestor: str) -> int:
    """Spans of ``layer`` that have a span of ``ancestor`` above them."""
    total = 0
    for span in spans:
        if span[0] != layer:
            continue
        p = span[3]
        while p >= 0:
            if spans[p][0] == ancestor:
                total += 1
                break
            p = spans[p][3]
    return total
