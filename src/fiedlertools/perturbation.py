"""Pendant-vertex perturbation of the Fiedler pair.

A pendant vertex attached at anchor v with weight x > 0 deforms the Fiedler
vector continuously in x. The new vertex gets id n (the base graph keeps ids
0..n-1). For small x the perturbed vector approaches a closed-form limit in
which the pendant dominates; for a complete base graph and large x the
perturbed lambda2 follows a quadratic-root formula. Both limits are exposed
here, as is the empirical check that the pendant stays extremal up to some
anchor-dependent weight threshold.

How a probe is computed. Single-anchor callers probe one (graph, anchor)
pair at many weights (bisection for a(v), sweeps, anchoring, and the
recovery probes of ``fcd.fcd_all``), so the base Laplacian is reduced once
per anchor: with v ordered first, P'LP = QTQ' by Householder
reflections, which never touch coordinate 0, so Q e_0 = e_0. One QL pass on
T that rotates only the first row of the eigenvector matrix U gives T's
eigenvalues theta_j and the spectral weights w_j = U_0j^2 of e_0; theta_0
belongs to the constant vector and is set to 0. In the basis
{e_pendant} + PQ the pendant-augmented Laplacian is tridiagonal of order
n+1, with diagonal (x, T_00 + x, T_11, ...) and off-diagonal
(-x, T_01, T_12, ...); in the basis {e_pendant} + PQU it is
diag(0, theta) + x z z' with z^2 = (1, w). Its eigenvalues other than 0
are the roots of f(mu) = 1/x - (1 + w_0)/mu + sum_{j>=1} w_j/(theta_j - mu),
one above each pole, and every theta_j that deflates: one with no weight on
e_0 (a pendant on the nodal set, or T splitting, as at a star's center) or
one repeating the previous pole. A probe takes lambda_2 and lambda_3 from
``eigen.rank_one_smallest_three``, with no QL or bisection of its own,
then runs the vector stage of ``eigen.smallest_three`` on the bordered
tridiagonal (a twisted solve at lambda_2, Rayleigh refinement) and maps
the vector back with one matrix-vector product. The residual against the
dense augmented Laplacian, with the full eigensolver as fallback, and the
post-checks of ``spectral.fiedler`` apply unchanged. The latest reduction
is kept in a single-entry memo keyed on the graph object and the anchor.
``fiedler(attach_pendant(g, v, x))`` computes the same pair from scratch,
with ``eigen.smallest_three``'s Sturm bisection on the dense augmented
Laplacian in place of the secular equation.

Probes at every anchor (``fcd.fcd_all``) share one eigendecomposition of L
instead (``graph_spectrum``): its eigenvalues are the poles for every
anchor, and row v of its eigenvectors gives anchor v's weights.
``pendant_extremal_batch`` answers a batch of (anchor, weight) probes with
one batched secular solve and one matrix product for the vectors, then
applies the checks of ``perturbed_fiedler`` row by row, with the
tolerances and the extremality rule written once for both routes. A row
it cannot vouch for is left to ``perturbed_fiedler``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eigen import (
    _EPS,
    ConvergenceError,
    _accumulate_q,
    _householder,
    _ql_implicit,
    eig_sym,
    rank_one_smallest_three,
    residual_bound,
    secular_first_roots,
    tridiagonal_lambda2_vector,
)
from .graphs import Graph, build_graph, laplacian, require_connected
from .spectral import (
    MIN_MEAN_ZERO_NORM,
    checked_fiedler,
    fiedler,
    rayleigh_edge_sum,
    rayleigh_tolerance,
)

# relative tolerance for "attains the maximum magnitude"
EXTREMUM_TIE_TOL = 1e-12
# additive slack on the Weyl upper bound lambda2(x) <= 2x
WEYL_SLACK = 1e-10


def _check_pendant(g: Graph, v: int, x: float) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"anchor {v} outside range({g.n})")
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"pendant weight must be positive and finite, got {x}")


def attach_pendant(g: Graph, v: int, x: float) -> Graph:
    """Graph on n+1 vertices: g plus the edge (v, n) of weight x."""
    _check_pendant(g, v, x)
    return build_graph(g.n + 1, list(g.edges) + [(v, g.n, x)])


@dataclass(slots=True)
class PerturbedFiedler:
    """Fiedler pair of a pendant-augmented graph; phi_x[n] is the pendant entry."""

    x: float
    lambda2_x: float
    phi_x: np.ndarray
    new_vertex_is_extremum: bool
    gap: float


@dataclass(frozen=True)
class _AnchorReduction:
    """Base Laplacian L reduced with anchor v first: P'LP = QTQ', Q e_0 = e_0.

    ``d``/``e`` are T's diagonal and off-diagonal (e[n-1] = 0), and
    ``basis`` = PQ: its column j is T's j-th basis vector in vertex order.
    ``poles``/``weights`` are the diagonal and the squared rank-one vector
    of a probe's secular equation, independent of x: the pendant's pole 0
    with weight 1, then T's eigenvalues theta (theta_0 set to 0, the
    constant vector's) with the spectral weights w_j of e_0.
    """

    L: np.ndarray
    linf: float
    d: np.ndarray
    e: np.ndarray
    basis: np.ndarray
    poles: list
    weights: list


# (graph, anchor, reduction) of the latest probe, read and replaced as one tuple
_last_reduction: tuple[Graph, int, _AnchorReduction] | None = None


def _anchor_reduction(g: Graph, v: int) -> _AnchorReduction:
    global _last_reduction
    last = _last_reduction
    if last is not None and last[0] is g and last[1] == v:
        return last[2]
    require_connected(g)
    L = laplacian(g)
    order = [v] + [u for u in range(g.n) if u != v]
    d, e, reflectors = _householder(L[np.ix_(order, order)])
    basis = np.empty((g.n, g.n))
    basis[order] = _accumulate_q(g.n, reflectors)
    first = np.zeros(g.n)
    first[0] = 1.0
    theta, first = _ql_implicit(d, e, first)
    red = _AnchorReduction(
        L=L, linf=float(np.max(np.abs(L))), d=d, e=e, basis=basis,
        poles=[0.0, 0.0] + theta[1:].tolist(),
        weights=[1.0] + (first * first).tolist(),
    )
    _last_reduction = (g, v, red)
    return red


def _augmented_linf(linf, l_vv, x):
    """max|M| of the pendant-augmented Laplacian from max|L|, L[v, v] and x.

    M's entries are L's, with L[v, v] + x in place of L[v, v], and +-x;
    L[v, v] >= 0, so this is exactly np.max(np.abs(M)). Elementwise on arrays.
    """
    return np.maximum(linf, l_vv + x)


def _within_weyl(lam2, x):
    """The Weyl bound lambda2(x) <= 2x, with slack; NaN fails it."""
    return lam2 <= 2.0 * x + WEYL_SLACK


def _pendant_is_extremum(phi: np.ndarray, tie_tol: float):
    """The extremality rule of ``perturbed_fiedler`` along phi's last axis.

    The last entry is the pendant's. Oriented so that it is nonnegative,
    it must reach the largest other entry within tie_tol times max|phi|.
    """
    maxmag = np.max(np.abs(phi), axis=-1)
    oriented = np.where(phi[..., -1:] >= 0.0, phi, -phi)
    return oriented[..., -1] >= np.max(oriented[..., :-1], axis=-1) - tie_tol * maxmag


def perturbed_fiedler(
    g: Graph, v: int, x: float, tie_tol: float = EXTREMUM_TIE_TOL
) -> PerturbedFiedler:
    """Fiedler pair after attaching a pendant at v with weight x.

    The extremum flag asks whether the pendant attains the signed maximum
    of the vector oriented so that the pendant entry is nonnegative (ties
    within tie_tol relative to the largest magnitude). This is invariant
    under the overall sign ambiguity, and it is deliberately not a test on
    |phi|: for large x the opposite Fiedler extremum can exceed the pendant
    in magnitude while the pendant still heads its own sign class, which is
    what "the new vertex is an extremum" means here.

    Sign convention of the returned vector: when the pendant entry attains
    the maximal magnitude (within tie_tol, relative), the vector is flipped
    if needed so that the pendant entry is nonnegative; otherwise the global
    largest-entry policy from ``fiedler`` stands.
    """
    _check_pendant(g, v, x)
    x = float(x)
    n = g.n
    red = _anchor_reduction(g, v)
    # the bordered tridiagonal in the basis {pendant} + PQ, and the dense
    # augmented Laplacian it is similar to
    d = np.concatenate(([x, red.d[0] + x], red.d[1:]))
    e = np.concatenate(([-x], red.e))
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = red.L
    M[v, v] += x
    M[v, n] = M[n, v] = -x
    M[n, n] = x
    linf = float(_augmented_linf(red.linf, red.L[v, v], x))
    lam1, lam2, lam3, phi = tridiagonal_lambda2_vector(
        d, e, rank_one_smallest_three(red.poles, red.weights, x),
        lambda z: np.append(red.basis @ z[1:], z[0]), M, linf,
    )
    res = checked_fiedler(
        lam1, lam2, lam3, phi,
        lambda p: rayleigh_edge_sum(g, p) + x * (p[v] - p[n]) ** 2,
        linf,
    )
    phi = res.phi
    is_extremum = bool(_pendant_is_extremum(phi, tie_tol))
    maxmag = float(np.max(np.abs(phi)))
    if abs(float(phi[n])) >= maxmag * (1.0 - tie_tol) and phi[n] < 0.0:
        phi = -phi
    if not _within_weyl(res.lambda2, x):
        raise ConvergenceError(
            f"computed lambda2 {res.lambda2!r} violates the bound 2x = {2.0 * x!r}"
        )
    return PerturbedFiedler(
        x=x,
        lambda2_x=res.lambda2,
        phi_x=phi,
        new_vertex_is_extremum=is_extremum,
        gap=res.gap,
    )


class GraphSpectrum(NamedTuple):
    """One eigendecomposition L = U diag(theta) U' shared by probes at every anchor.

    theta[0] is set to 0 (the constant vector's eigenvalue). ``linf`` is
    max|L|; ``tails``/``heads``/``weights`` are the edge list as arrays, for
    the edge-sum Rayleigh check.
    """

    L: np.ndarray
    linf: float
    theta: np.ndarray
    U: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray


def graph_spectrum(g: Graph) -> GraphSpectrum | None:
    """The spectrum batched probes need, or None where it cannot serve them.

    None when g has one vertex, when ``eig_sym`` fails, or when theta_1 is
    not resolved: theta_1 <= 64 n eps max|L|, as on a path whose weights
    span 16 decades. The pendant's secular equation needs theta_1 clear of
    its pole at 0, so such graphs take the per-anchor route.
    """
    if g.n < 2:
        return None
    L = laplacian(g)
    linf = float(np.max(np.abs(L)))
    try:
        spectrum = eig_sym(L)
    except ConvergenceError:
        return None
    theta = spectrum.eigenvalues
    if not theta[1] > 64.0 * g.n * _EPS * linf:
        return None
    theta[0] = 0.0
    tails, heads, weights = zip(*g.edges)
    return GraphSpectrum(
        L=L, linf=linf, theta=theta, U=spectrum.eigenvectors,
        tails=np.array(tails), heads=np.array(heads), weights=np.array(weights),
    )


def pendant_extremal_batch(
    s: GraphSpectrum, vs: np.ndarray, xs: np.ndarray, tie_tol: float = EXTREMUM_TIE_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Extremality flags of probes at anchors vs[r] with weights xs[r], from one spectrum.

    In L's eigenbasis a probe is diag(0, theta) + x z z' with z = (-1, U'e_v)
    (pendant first), so lambda_2 is the secular root in (0, theta_1) of
    1/x - (1 + w_0)/mu + sum_{j>=1} w_j/(theta_j - mu), w_j = U[v, j]^2,
    solved for all rows at once (``eigen.secular_first_roots``). The vector
    is U (theta - mu)^-1 U'e_v on the base vertices and 1/mu on the pendant,
    one (rows x n)(n x n) product for the batch. Each row then passes the
    checks of ``perturbed_fiedler`` with the same thresholds: the residual
    against the augmented Laplacian (from L and x), the mean-zero
    projection and collapse check, the edge-sum Rayleigh check, the Weyl
    bound 2x, and the extremality rule with tie_tol.

    Returns (flags, ok). ok[r] is False where the row must be answered by
    ``perturbed_fiedler`` instead: a check failed, the root did not
    converge, or lambda_2 may be a deflated pole. Poles deflate as in
    ``eigen.rank_one_smallest_three`` (x |U[v, j]| <= 8 eps max(theta_max,
    x)); a deflated pole below the first kept one, or theta_1 within that
    tolerance of 0, leaves lambda_2 outside the interval solved here.
    """
    theta, U = s.theta, s.U
    n = theta.size
    Uv = U[vs]
    tol = 8.0 * _EPS * np.maximum(theta[-1], xs)
    kept = xs[:, None] * np.abs(Uv[:, 1:]) > tol[:, None]
    first_kept = theta[1 + np.argmax(kept, axis=1)]
    ok = kept.any(axis=1) & (first_kept == theta[1]) & (theta[1] > tol)
    flags = np.zeros(vs.size, dtype=bool)
    r = np.flatnonzero(ok)
    if r.size == 0:
        return flags, ok
    v, x, Uv = vs[r], xs[r], Uv[r]
    # the pendant's pole 0 carries weight 1 + w_0; deflated poles carry none
    c = Uv * Uv
    c[:, 0] += 1.0
    c[:, 1:] *= kept[r]
    origin, tau, done = secular_first_roots(theta, c, x)
    mu = origin + tau
    delta = (theta - origin[:, None]) - tau[:, None]
    phi = np.empty((r.size, n + 1))
    phi[:, :n] = (Uv / delta) @ U.T
    phi[:, n] = -1.0 / delta[:, 0]
    phi /= np.sqrt((phi * phi).sum(axis=1))[:, None]
    # residual against M = [[L + x e_v e_v', -x e_v], [-x e_v', x]]
    rows = np.arange(r.size)
    coupling = x * (phi[rows, v] - phi[:, n])
    res = np.empty_like(phi)
    res[:, :n] = phi[:, :n] @ s.L
    res[rows, v] += coupling
    res[:, n] = -coupling
    res -= mu[:, None] * phi
    linf = _augmented_linf(s.linf, s.L[v, v], x)
    good = done & (np.sqrt((res * res).sum(axis=1)) <= residual_bound(linf, n + 1))
    # the checks of spectral.checked_fiedler, row by row
    phi -= phi.mean(axis=1, keepdims=True)
    nrm = np.sqrt((phi * phi).sum(axis=1))
    good &= nrm >= MIN_MEAN_ZERO_NORM
    phi /= nrm[:, None]
    phi[phi[rows, np.argmax(np.abs(phi), axis=1)] < 0.0] *= -1.0
    diff = phi[:, s.tails] - phi[:, s.heads]
    quotient = (diff * diff) @ s.weights + x * (phi[rows, v] - phi[:, n]) ** 2
    good &= np.abs(mu - quotient) <= rayleigh_tolerance(linf, n + 1)
    good &= _within_weyl(mu, x)
    flags[r] = _pendant_is_extremum(phi, tie_tol)
    ok[r] = good
    return flags & ok, ok


def sweep(g: Graph, v: int, xs, tie_tol: float = EXTREMUM_TIE_TOL) -> list[PerturbedFiedler]:
    """Perturbed Fiedler pairs over an increasing grid of pendant weights.

    Successive vectors are sign-aligned (nonnegative inner product with the
    previous grid point) so per-vertex traces are continuous curves.
    """
    xs = [float(x) for x in xs]
    if not xs:
        raise ValueError("weight grid is empty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("weight grid must be strictly increasing")
    out = [perturbed_fiedler(g, v, x, tie_tol) for x in xs]
    for prev, cur in zip(out, out[1:]):
        if float(np.dot(prev.phi_x, cur.phi_x)) < 0.0:
            cur.phi_x = -cur.phi_x
    return out


def small_x_limit(n: int) -> np.ndarray:
    """Limit of the perturbed Fiedler vector as the pendant weight tends to 0.

    Equals (-1, ..., -1, n)/sqrt(n(n+1)): in the weak-attachment limit the
    pendant carries all the variation. Unit norm, mean zero, length n+1.
    """
    if n < 1:
        raise ValueError("base graph needs at least one vertex")
    vec = np.full(n + 1, -1.0)
    vec[n] = float(n)
    return vec / math.sqrt(n * (n + 1.0))


def complete_graph_large_x(n: int, x: float) -> tuple[float, float]:
    """Bounded root of the pendant-on-K_n characteristic quadratic, and lambda2.

    The quadratic a^2 - a(2x + n - 2) + (n-1)(x-1) has one root growing like
    2x and one tending to (n-1)/2; the bounded one is returned together with
    the implied eigenvalue prediction a + 1 (which tends to (n+1)/2).
    """
    if n < 2:
        raise ValueError("complete base graph needs n >= 2")
    if x <= 0.0:
        raise ValueError("pendant weight must be positive")
    b = 2.0 * x + n - 2.0
    c = (n - 1.0) * (x - 1.0)
    disc = b * b - 4.0 * c
    if disc < 0.0:
        raise ValueError(f"quadratic has no real roots for n={n}, x={x} (disc={disc})")
    # b > 0 always; compute the small root from the product to avoid cancellation
    a_big = 0.5 * (b + math.sqrt(disc))
    a_root = c / a_big
    return a_root, a_root + 1.0


@dataclass
class Conjecture1Report:
    """Pendant extremality over a weight grid, anchored at both base extrema."""

    anchor_max: int
    anchor_min: int
    xs: list[float]
    flags_max: list[bool]
    flags_min: list[bool]
    counterexamples: list[tuple[int, float]]

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def conjecture1_check(g: Graph, x_grid) -> Conjecture1Report:
    """Test pendant extremality at every grid weight, anchored at argmax/argmin of phi.

    The conjecture asserts the pendant is a Fiedler extremum for every x > 0
    when the anchor is itself a base extremum; any grid point where the flag
    is false is recorded verbatim.
    """
    base = fiedler(g)
    anchor_max = int(np.argmax(base.phi))
    anchor_min = int(np.argmin(base.phi))
    xs = [float(x) for x in x_grid]
    flags_max = [r.new_vertex_is_extremum for r in sweep(g, anchor_max, xs)]
    flags_min = [r.new_vertex_is_extremum for r in sweep(g, anchor_min, xs)]
    counterexamples = [(anchor_max, x) for x, f in zip(xs, flags_max) if not f]
    counterexamples += [(anchor_min, x) for x, f in zip(xs, flags_min) if not f]
    return Conjecture1Report(
        anchor_max=anchor_max,
        anchor_min=anchor_min,
        xs=xs,
        flags_max=flags_max,
        flags_min=flags_min,
        counterexamples=counterexamples,
    )
