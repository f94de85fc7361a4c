"""Undirected weighted graphs: construction, Laplacians, generators, file IO.

The vertex set is always {0, ..., n-1}. Every edge is stored exactly once
with endpoints in increasing order, and weights are strictly positive, so a
``Graph`` value is a canonical representative: two graphs are equal iff
their fields are equal.
"""
from __future__ import annotations

import functools
import heapq
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import SplitMix64

Edge = tuple[int, int, float]


class EdgeListParseError(ValueError):
    """Malformed edge-list input; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedGraphError(ValueError):
    """Raised by operations that require a connected graph."""


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable undirected graph with positive edge weights.

    ``edges`` holds (u, v, w) triples with u < v, sorted lexicographically.
    ``adjacency[v]`` lists (neighbor, weight) pairs sorted by neighbor id,
    which makes every traversal in this package order-deterministic.
    """

    n: int
    edges: tuple[Edge, ...]

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Neighbor lists derived from ``edges``, built anew on each access.

        A graph keeps only its edges; a traversal reads this once per call.
        """
        nbrs: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            nbrs[u].append(_shared((v, w)))
            nbrs[v].append(_shared((u, w)))
        return tuple(tuple(sorted(a)) for a in nbrs)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Weighted degree of every vertex (row sums of the weight matrix)."""
        return weight_matrix(self).sum(axis=1)


@functools.lru_cache(maxsize=256)
def _shared(item: tuple) -> tuple:
    """One tuple object per distinct edge triple or (neighbor, weight) pair.

    Graphs built recently share equal tuples instead of holding copies: a
    unit-weight graph's ``adjacency`` holds n distinct pairs instead of 2m,
    and G(n, m) draws at one small n take their edges from the same
    n(n-1)/2 triples (210 tuples in all at n = 20, the correlation
    experiment's size). Larger graphs rarely repeat edges, so the cache
    stays small and keeps at most 256 tuples alive.
    """
    return item


def build_graph(n: int, edge_list) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Rejects self-loops, duplicate undirected edges, nonpositive or nonfinite
    weights, and endpoints outside range(n).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    canon: dict[tuple[int, int], float] = {}
    for item in edge_list:
        try:
            u, v, w = item
        except (TypeError, ValueError):
            raise ValueError(f"edge must be a (u, v, w) triple, got {item!r}") from None
        if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
            raise ValueError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has endpoint outside range({n})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        w = float(w)
        if not math.isfinite(w) or w <= 0.0:
            raise ValueError(f"edge ({u}, {v}) needs a positive finite weight, got {w}")
        key = (u, v) if u < v else (v, u)
        if key in canon:
            raise ValueError(f"duplicate undirected edge ({key[0]}, {key[1]})")
        canon[key] = w
    edges = tuple(_shared((u, v, canon[(u, v)])) for (u, v) in sorted(canon))
    return Graph(n=n, edges=edges)


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability check from vertex 0."""
    adjacency = g.adjacency
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v, _ in adjacency[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                queue.append(v)
    return count == g.n


def require_connected(g: Graph) -> None:
    """Raise DisconnectedGraphError unless g is connected."""
    if not is_connected(g):
        raise DisconnectedGraphError("graph is disconnected; the operation needs a connected graph")


def weight_matrix(g: Graph) -> np.ndarray:
    """Dense symmetric weight matrix W with zero diagonal."""
    W = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        W[u, v] = w
        W[v, u] = w
    return W


def laplacian(g: Graph) -> np.ndarray:
    """Weighted graph Laplacian L = D - W.

    The diagonal is taken as the row sums of W, so L @ ones is exactly zero
    up to the rounding of each row sum.
    """
    W = weight_matrix(g)
    L = -W
    L[np.diag_indices(g.n)] = W.sum(axis=1)
    return L


# ---------------------------------------------------------------------------
# Generators


def _decode_pair(i: int, n: int) -> tuple[int, int]:
    # invert the lexicographic enumeration of pairs u < v
    u = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * i)) // 2

    def offset(r: int) -> int:
        return r * n - r * (r + 1) // 2

    while u + 1 < n and offset(u + 1) <= i:
        u += 1
    while u > 0 and offset(u) > i:
        u -= 1
    v = u + 1 + (i - offset(u))
    return u, v


def _sample_distinct(rng: SplitMix64, total: int, count: int) -> list[int]:
    # draw `count` distinct integers from range(total); sample the complement
    # when that is cheaper, returning indices in increasing order
    if count > total // 2:
        excluded = _sample_distinct(rng, total, total - count)
        mark = set(excluded)
        return [i for i in range(total) if i not in mark]
    chosen: set[int] = set()
    out = []
    while len(out) < count:
        i = rng.below(total)
        if i not in chosen:
            chosen.add(i)
            out.append(i)
    out.sort()
    return out


def _prufer_tree(rng: SplitMix64, n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return edges


_MAX_CONNECT_RETRIES = 1000


def generate(kind: str, n: int, m: int | None = None, seed: int | None = None) -> Graph:
    """Build a named graph family member with unit weights.

    Deterministic kinds: "path", "cycle", "complete", "star" (center is
    vertex 0).  Random kinds: "gnm" (uniform connected G(n, m), rejection
    sampled) and "random_tree" (uniform labeled tree); both require a seed.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    deterministic = {"path", "cycle", "complete", "star"}
    random_kinds = {"gnm", "random_tree"}
    if kind in deterministic:
        if m is not None:
            raise ValueError(f"edge count is not a parameter of kind {kind!r}")
        if kind == "path":
            return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        if kind == "cycle":
            if n < 3:
                raise ValueError("cycle needs at least 3 vertices")
            return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
        if kind == "complete":
            return build_graph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
        return build_graph(n, [(0, v, 1.0) for v in range(1, n)])
    if kind not in random_kinds:
        raise ValueError(f"unknown graph kind {kind!r}")
    if seed is None:
        raise ValueError(f"kind {kind!r} requires a seed")
    rng = SplitMix64(seed)
    if kind == "random_tree":
        if m is not None:
            raise ValueError("edge count is not a parameter of kind 'random_tree'")
        return build_graph(n, [(u, v, 1.0) for u, v in _prufer_tree(rng, n)])
    # gnm
    total = n * (n - 1) // 2
    if m is None:
        raise ValueError("kind 'gnm' requires an edge count")
    if m < n - 1 or m > total:
        raise ValueError(
            f"no connected simple graph exists with n={n}, m={m} "
            f"(need {n - 1} <= m <= {total})"
        )
    for _ in range(_MAX_CONNECT_RETRIES):
        idx = _sample_distinct(rng, total, m)
        g = build_graph(n, [(*_decode_pair(i, n), 1.0) for i in idx])
        if is_connected(g):
            return g
    raise RuntimeError(
        f"could not sample a connected G({n}, {m}) in {_MAX_CONNECT_RETRIES} attempts"
    )


# ---------------------------------------------------------------------------
# Edge-list file format
#
#   n m
#   u v w
#   ...
#
# '#' starts a comment; blank lines are skipped; w may be omitted (1.0).


def read_edgelist(path: str | Path) -> Graph:
    """Parse an edge-list file into a Graph."""
    lines = Path(path).read_text().splitlines()
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    header_line = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if header is None:
            if len(parts) != 2:
                raise EdgeListParseError("expected header 'n m'", lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise EdgeListParseError(f"non-integer header {text!r}", lineno) from None
            header_line = lineno
            continue
        if len(parts) not in (2, 3):
            raise EdgeListParseError(f"expected 'u v [w]', got {text!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer endpoints in {text!r}", lineno) from None
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListParseError(f"bad weight {parts[2]!r}", lineno) from None
        edges.append((u, v, w))
    if header is None:
        raise EdgeListParseError("empty input: missing 'n m' header", max(len(lines), 1))
    n, m = header
    if len(edges) != m:
        raise EdgeListParseError(
            f"header announced {m} edges but file contains {len(edges)}", header_line
        )
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise EdgeListParseError(str(exc), header_line) from exc


def write_edgelist(g: Graph, path: str | Path) -> None:
    """Write a Graph in canonical edge order; inverse of read_edgelist."""
    out = [f"{g.n} {g.num_edges}"]
    for u, v, w in g.edges:
        out.append(f"{u} {v} {w:.17g}")
    Path(path).write_text("\n".join(out) + "\n")
