"""Fiedler centrality distance.

For a pendant attached at v, define a(v) as the weight threshold below which
the pendant entry of the Fiedler vector is extremal. The threshold is found
by bisection on the base-10 exponent of the weight, assuming the extremality
flag flips exactly once (empirically validated by the dense-sweep oracle in
this module). The Fiedler centrality distance of v is 1/a(v): zero for
vertices that are already Fiedler extrema (the threshold escapes any finite
search window), larger for central vertices.

``a_of_v`` searches one vertex with ``perturbed_fiedler`` probes.
``fcd_all`` searches every vertex from one eigendecomposition of L: all
searches advance together, each step one batched probe
(``perturbation.pendant_extremal_batch``) over the vertices still active,
and a probe the batch cannot answer goes to ``perturbed_fiedler``. Both make
the same probes in the same order, so they return the same rows.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .eigen import ConvergenceError
from .graphs import Graph, require_connected
from .perturbation import graph_spectrum, pendant_extremal_batch, perturbed_fiedler, sweep


class FcdSearchError(ValueError):
    """The extremality assumption underlying the search failed."""


@dataclass(frozen=True)
class FcdConfig:
    """Search window [10^alpha, 10^beta] and stopping width on log10(x)."""

    alpha: float = -3.0
    beta: float = 3.0
    exp_tol: float = 1e-3
    tie_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got ({self.alpha}, {self.beta})")
        if self.exp_tol <= 0.0:
            raise ValueError(f"exp_tol must be positive, got {self.exp_tol}")
        if self.tie_tol < 0.0:
            raise ValueError(f"tie_tol must be nonnegative, got {self.tie_tol}")


@dataclass(slots=True)
class FcdResult:
    """Threshold estimate for one vertex.

    boundary_flag: "interior" (threshold inside the window, a_v finite),
    "hit_xmax" (pendant extremal at the upper window edge; a_v = +inf and
    fcd = 0), "hit_xmin" (pendant not extremal even at the lower edge;
    a_v and fcd are NaN, the search said nothing), or "not_converged"
    (``fcd_all`` only: a probe of this vertex raised ConvergenceError;
    a_v and fcd are NaN).
    """

    v: int
    a_v: float
    fcd: float
    steps: int
    boundary_flag: str


def _pendant_extremal(g: Graph, v: int, x: float, tie_tol: float) -> bool:
    return perturbed_fiedler(g, v, x, tie_tol).new_vertex_is_extremum


def a_of_v(g: Graph, v: int, cfg: FcdConfig = FcdConfig()) -> FcdResult:
    """Bisection estimate of the extremality threshold a(v).

    Maintains [lo: extremal, hi: not extremal] on the exponent and stops when
    the bracket is narrower than cfg.exp_tol, so the step count is at most
    ceil(log2((beta - alpha)/exp_tol)).
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside range({g.n})")
    require_connected(g)
    if not _pendant_extremal(g, v, 10.0 ** cfg.alpha, cfg.tie_tol):
        raise FcdSearchError(
            f"pendant at vertex {v} is not extremal at x_min = 1e{cfg.alpha:g}; "
            "the weak-attachment limit should always be extremal, so either "
            "lower alpha or inspect the graph"
        )
    if _pendant_extremal(g, v, 10.0 ** cfg.beta, cfg.tie_tol):
        return FcdResult(v=v, a_v=math.inf, fcd=0.0, steps=0, boundary_flag="hit_xmax")
    lo, hi = cfg.alpha, cfg.beta
    steps = 0
    while hi - lo > cfg.exp_tol:
        mid = 0.5 * (lo + hi)
        steps += 1
        if _pendant_extremal(g, v, 10.0 ** mid, cfg.tie_tol):
            lo = mid
        else:
            hi = mid
    a = 10.0 ** (0.5 * (lo + hi))
    return FcdResult(v=v, a_v=a, fcd=1.0 / a, steps=steps, boundary_flag="interior")


@dataclass(slots=True)
class AbarSweep:
    """Dense-grid oracle for the threshold: flags over xs, largest extremal x.

    ``abar`` is +inf when every grid point is extremal. ``monotone`` is true
    when the flag pattern is a prefix of trues followed by falses, i.e. the
    single-transition assumption used by the bisection holds on this grid.
    """

    v: int
    xs: list[float]
    flags: list[bool]
    abar: float
    monotone: bool


def a_of_v_sweep(g: Graph, v: int, x_grid, tie_tol: float = 1e-12) -> AbarSweep:
    """Pendant extremality flags of ``sweep`` on a dense increasing grid of weights."""
    xs = [float(x) for x in x_grid]
    flags = [r.new_vertex_is_extremum for r in sweep(g, v, xs, tie_tol)]
    if not any(flags):
        raise FcdSearchError(
            f"pendant at vertex {v} is extremal nowhere on the grid; "
            "extend the grid toward smaller weights"
        )
    if all(flags):
        abar = math.inf
    else:
        abar = max(x for x, f in zip(xs, flags) if f)
    monotone = flags == sorted(flags, reverse=True)
    return AbarSweep(v=v, xs=xs, flags=flags, abar=abar, monotone=monotone)


def _a_of_v_job(args: tuple[Graph, int, FcdConfig]) -> FcdResult:
    g, v, cfg = args
    try:
        return a_of_v(g, v, cfg)
    except FcdSearchError:
        return FcdResult(v=v, a_v=math.nan, fcd=math.nan, steps=0, boundary_flag="hit_xmin")
    except ConvergenceError:
        return FcdResult(v=v, a_v=math.nan, fcd=math.nan, steps=0, boundary_flag="not_converged")


FLAGS = ("interior", "hit_xmax", "hit_xmin", "not_converged")
_FLAG_CODE = {flag: code for code, flag in enumerate(FLAGS)}
# one record per vertex; the flag is an index into FLAGS
_RECORD = np.dtype([("a_v", np.float64), ("steps", np.int32), ("flag", np.uint8)])


@dataclass(eq=False, slots=True)
class FcdTable:
    """``fcd_all``'s result: the columns a_v, fcd, steps and boundary_flag.

    Each column is an array with one entry per vertex; ``table[v]`` and
    iteration give ``FcdResult`` rows, ordered by vertex id. The table
    stores one compact record per vertex (a_v, steps and the flag's index
    into ``FLAGS``) and derives the columns on access, fcd as 1/a_v.
    """

    records: np.ndarray

    @property
    def a_v(self) -> np.ndarray:
        return self.records["a_v"].copy()

    @property
    def fcd(self) -> np.ndarray:
        return 1.0 / self.records["a_v"]

    @property
    def steps(self) -> np.ndarray:
        return self.records["steps"].astype(int)

    @property
    def boundary_flag(self) -> np.ndarray:
        return np.array(FLAGS, dtype=object)[self.records["flag"]]

    def __len__(self) -> int:
        return self.records.size

    def __getitem__(self, v: int) -> FcdResult:
        v = range(len(self))[v]
        a_v, steps, flag = self.records[v].item()
        return FcdResult(v=v, a_v=a_v, fcd=1.0 / a_v, steps=steps, boundary_flag=FLAGS[flag])

    def __iter__(self):
        return (self[v] for v in range(len(self)))


def _search_range(args: tuple[Graph, range, FcdConfig]) -> np.ndarray:
    """``FcdTable`` records of the vertices in a range, searched in lockstep.

    Every search makes the probes ``a_of_v`` makes: 10^alpha, 10^beta, then
    bisection on the exponent. Probes of one step go to one batched probe;
    the rows it cannot answer go to ``perturbed_fiedler``. A graph whose
    spectrum cannot serve batched probes is searched by ``a_of_v`` per vertex.
    """
    g, vertices, cfg = args
    spectrum = graph_spectrum(g)
    if spectrum is None:
        rows = [_a_of_v_job((g, v, cfg)) for v in vertices]
        return np.array(
            [(r.a_v, r.steps, _FLAG_CODE[r.boundary_flag]) for r in rows], dtype=_RECORD
        )
    vs = np.array(vertices)
    a_v = np.full(vs.size, math.nan)
    steps = np.zeros(vs.size, dtype=int)
    flag = np.full(vs.size, _FLAG_CODE["hit_xmin"])

    def probe(idx: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (extremal, alive) per row of idx; a row whose probe raised is not alive
        extremal, ok = pendant_extremal_batch(spectrum, vs[idx], xs, cfg.tie_tol)
        alive = np.ones(idx.size, dtype=bool)
        for i in np.flatnonzero(~ok):
            try:
                extremal[i] = perturbed_fiedler(
                    g, int(vs[idx[i]]), float(xs[i]), cfg.tie_tol
                ).new_vertex_is_extremum
            except ConvergenceError:
                alive[i] = False
        failed = idx[~alive]
        flag[failed] = _FLAG_CODE["not_converged"]
        steps[failed] = 0
        return extremal, alive

    active = np.arange(vs.size)
    extremal, alive = probe(active, np.full(active.size, 10.0 ** cfg.alpha))
    active = active[alive & extremal]
    extremal, alive = probe(active, np.full(active.size, 10.0 ** cfg.beta))
    top = active[alive & extremal]
    a_v[top] = math.inf
    flag[top] = _FLAG_CODE["hit_xmax"]
    active = active[alive & ~extremal]
    lo = np.full(active.size, float(cfg.alpha))
    hi = np.full(active.size, float(cfg.beta))
    while active.size:
        narrow = ~(hi - lo > cfg.exp_tol)
        a_v[active[narrow]] = [10.0 ** t for t in (0.5 * (lo[narrow] + hi[narrow])).tolist()]
        flag[active[narrow]] = _FLAG_CODE["interior"]
        active, lo, hi = active[~narrow], lo[~narrow], hi[~narrow]
        if not active.size:
            break
        mid = 0.5 * (lo + hi)
        steps[active] += 1
        extremal, alive = probe(active, np.array([10.0 ** t for t in mid.tolist()]))
        lo = np.where(extremal, mid, lo)[alive]
        hi = np.where(extremal, hi, mid)[alive]
        active = active[alive]
    records = np.empty(vs.size, dtype=_RECORD)
    records["a_v"], records["steps"], records["flag"] = a_v, steps, flag
    return records


def fcd_all(g: Graph, cfg: FcdConfig = FcdConfig(), workers: int | None = None) -> FcdTable:
    """Threshold search for every vertex; an ``FcdTable`` ordered by vertex id.

    Row v equals ``a_of_v(g, v, cfg)``. The searches share one
    eigendecomposition of L and advance in lockstep, one batched probe per
    step (see ``_search_range``). Per-vertex failures are reported in the
    table (boundary_flag "hit_xmin" for a failed search, "not_converged"
    for a probe that raised ConvergenceError) instead of aborting the
    remaining vertices. ``workers`` splits the vertices into contiguous
    ranges, one lockstep search per process; the table is the same either
    way.
    """
    require_connected(g)
    n = g.n
    if workers is not None and workers > 1:
        ranges = [range(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_search_range, [(g, r, cfg) for r in ranges if r]))
    else:
        parts = [_search_range((g, range(n), cfg))]
    return FcdTable(parts[0] if len(parts) == 1 else np.concatenate(parts))
