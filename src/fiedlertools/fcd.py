"""Fiedler centrality distance.

For a pendant attached at v, define a(v) as the weight threshold below which
the pendant entry of the Fiedler vector is extremal. The threshold is found
by bisection on the base-10 exponent of the weight, assuming the extremality
flag flips exactly once (empirically validated by the dense-sweep oracle in
this module). The Fiedler centrality distance of v is 1/a(v): zero for
vertices that are already Fiedler extrema (the threshold escapes any finite
search window), larger for central vertices.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .eigen import ConvergenceError
from .graphs import Graph, require_connected
from .perturbation import perturbed_fiedler


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
    """Evaluate pendant extremality on a dense increasing grid of weights."""
    xs = [float(x) for x in x_grid]
    if not xs:
        raise ValueError("weight grid is empty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("weight grid must be strictly increasing")
    flags = [_pendant_extremal(g, v, x, tie_tol) for x in xs]
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


def fcd_all(g: Graph, cfg: FcdConfig = FcdConfig(), workers: int | None = None) -> list[FcdResult]:
    """Threshold search for every vertex, ordered by vertex id.

    Per-vertex failures are reported in the result (boundary_flag
    "hit_xmin" for a failed search, "not_converged" for a probe that raised
    ConvergenceError) instead of aborting the remaining vertices. ``workers``
    distributes vertices over processes; results merge by index either way.
    """
    require_connected(g)
    jobs = [(g, v, cfg) for v in range(g.n)]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_a_of_v_job, jobs))
    return [_a_of_v_job(job) for job in jobs]
