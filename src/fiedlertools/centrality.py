"""Classical centralities and the centrality-correlation experiment.

Betweenness, closeness, and eigenvector centrality are computed on topology
only (unit edge lengths, 0/1 adjacency): the experiment that consumes them
compares correlations, which are invariant under the affine freedom that
weighting conventions would introduce.
"""
from __future__ import annotations

import math
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .eigen import ConvergenceError
from .fcd import FcdConfig, fcd_all
from .graphs import Graph, generate, require_connected
from .rng import derive_seed

MEASURES = ("fcd", "betweenness", "closeness", "eigenvector")
MEASURE_PAIRS = tuple(f"{a}_vs_{b}" for a, b in combinations(MEASURES, 2))


@dataclass(slots=True)
class CentralityVector:
    kind: str
    values: np.ndarray


def betweenness(g: Graph) -> CentralityVector:
    """Brandes betweenness over unweighted shortest paths.

    Unnormalized; each unordered source-target pair contributes once (the
    directed accumulation is halved).
    """
    require_connected(g)
    n = g.n
    adjacency = g.adjacency
    bc = np.zeros(n)
    for s in range(n):
        sigma = [0.0] * n
        dist = [-1] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma[s] = 1.0
        dist[s] = 0
        order = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w, _ in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = [0.0] * n
        for w in reversed(order):
            for u in preds[w]:
                delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return CentralityVector(kind="betweenness", values=bc / 2.0)


def closeness(g: Graph) -> CentralityVector:
    """(n-1) / sum of hop distances to all other vertices."""
    require_connected(g)
    n = g.n
    adjacency = g.adjacency
    vals = np.zeros(n)
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        total = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            total += dist[u]
            for w, _ in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        vals[s] = (n - 1) / total if total > 0 else 0.0
    return CentralityVector(kind="closeness", values=vals)


def eigenvector_centrality(
    g: Graph, tol: float = 1e-10, max_iter: int = 10_000
) -> CentralityVector:
    """Principal eigenvector of the 0/1 adjacency matrix, unit 2-norm.

    Power iteration on A + I: the shift breaks the period-2 oscillation on
    bipartite graphs without moving the eigenvectors.
    """
    require_connected(g)
    n = g.n
    B = np.eye(n)
    for u, v, _ in g.edges:
        B[u, v] = 1.0
        B[v, u] = 1.0
    c = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iter):
        nxt = B @ c
        nxt /= math.sqrt(float(np.dot(nxt, nxt)))
        if float(np.max(np.abs(nxt - c))) < tol:
            return CentralityVector(kind="eigenvector", values=nxt)
        c = nxt
    raise ConvergenceError(f"power iteration did not converge in {max_iter} iterations")


def pearson(a, b) -> float:
    """Sample Pearson correlation; rejects vectors without variance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length vectors of at least 2 entries")
    da = a - a.mean()
    db = b - b.mean()
    ssa = float(np.dot(da, da))
    ssb = float(np.dot(db, db))
    if ssa == 0.0 or ssb == 0.0:
        raise ValueError("correlation undefined for a zero-variance vector")
    return float(np.dot(da, db)) / math.sqrt(ssa * ssb)


def _ranks(v: np.ndarray) -> np.ndarray:
    # average ranks over ties, 1-based
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(a, b) -> float:
    """Rank correlation: Pearson on average ranks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length vectors of at least 2 entries")
    return pearson(_ranks(a), _ranks(b))


@dataclass(slots=True)
class CorrelationRow:
    m: int
    pair: str
    mean_correlation: float
    std_correlation: float
    num_valid_graphs: int
    mean_rank_correlation: float
    std_rank_correlation: float


@dataclass(slots=True)
class CorrelationTable:
    """Mean pairwise correlations of the four measures over seeded G(n, m) draws.

    Aggregation is mean-of-correlations: each sampled graph yields one
    correlation per measure pair, summarized per m. Pairs whose correlation
    is undefined on some graph (zero variance, or an fcd search failure)
    are excluded for that graph, hence the per-row valid count.
    """

    n: int
    num_graphs: int
    seed: int
    m_values: list[int]
    rows: list[CorrelationRow]
    failed_graphs: int


def _measure_vectors(g: Graph, cfg: FcdConfig) -> dict[str, np.ndarray]:
    return {
        "fcd": fcd_all(g, cfg).fcd,
        "betweenness": betweenness(g).values,
        "closeness": closeness(g).values,
        "eigenvector": eigenvector_centrality(g).values,
    }


def _experiment_job(args) -> dict[str, tuple[float, float]] | None:
    n, m, graph_seed, cfg = args
    try:
        g = generate("gnm", n, m, seed=graph_seed)
        vectors = _measure_vectors(g, cfg)
    except (RuntimeError, ValueError):
        return None
    out: dict[str, tuple[float, float]] = {}
    for (ka, kb), pair in zip(combinations(MEASURES, 2), MEASURE_PAIRS):
        a, b = vectors[ka], vectors[kb]
        if np.isnan(a).any() or np.isnan(b).any():
            continue
        try:
            out[pair] = (pearson(a, b), spearman(a, b))
        except ValueError:
            continue
    return out


def _mean_std(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    arr = np.array(values)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size >= 2 else math.nan
    return mean, std


def correlation_experiment(
    n: int,
    m_list,
    num_graphs: int,
    seed: int,
    cfg: FcdConfig = FcdConfig(),
    workers: int | None = None,
) -> CorrelationTable:
    """Correlations between fcd and the classical centralities on G(n, m) draws.

    The k-th graph overall uses the derived seed mix(seed, k), so the table
    is a pure function of (n, m_list, num_graphs, seed, cfg). Graphs whose
    generation or measures fail entirely are dropped with a warning and
    counted in ``failed_graphs``.
    """
    m_values = [int(m) for m in m_list]
    if num_graphs < 1:
        raise ValueError("need at least one graph per m")
    jobs = []
    counter = 0
    for m in m_values:
        for _ in range(num_graphs):
            jobs.append((n, m, derive_seed(seed, counter), cfg))
            counter += 1
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_experiment_job, jobs))
    else:
        results = [_experiment_job(job) for job in jobs]
    rows: list[CorrelationRow] = []
    failed = 0
    for mi, m in enumerate(m_values):
        chunk = results[mi * num_graphs : (mi + 1) * num_graphs]
        bad = sum(1 for r in chunk if r is None)
        if bad:
            failed += bad
            warnings.warn(f"m={m}: dropped {bad} of {num_graphs} graphs", stacklevel=2)
        for pair in MEASURE_PAIRS:
            plain = [r[pair][0] for r in chunk if r is not None and pair in r]
            ranked = [r[pair][1] for r in chunk if r is not None and pair in r]
            mean, std = _mean_std(plain)
            rmean, rstd = _mean_std(ranked)
            rows.append(
                CorrelationRow(
                    m=m,
                    pair=pair,
                    mean_correlation=mean,
                    std_correlation=std,
                    num_valid_graphs=len(plain),
                    mean_rank_correlation=rmean,
                    std_rank_correlation=rstd,
                )
            )
    return CorrelationTable(
        n=n,
        num_graphs=num_graphs,
        seed=seed,
        m_values=m_values,
        rows=rows,
        failed_graphs=failed,
    )
