"""Fiedler pairs, eigenvalue perturbation formulas, and Weyl inequality checks."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import ConvergenceError, Spectrum, smallest_three
from .graphs import Graph, laplacian, require_connected

# relative gap below which lambda_2 is treated as (numerically) repeated
DEGENERATE_GAP = 1e-8
# relative separation required of a "simple" eigenvalue in perturbation formulas
SIMPLE_GAP = 1e-8
# a unit candidate vector whose mean-zero part is shorter than this has
# collapsed onto the constant kernel vector
MIN_MEAN_ZERO_NORM = 0.5


@dataclass
class FiedlerResult:
    """Second-smallest Laplacian eigenpair of a connected graph.

    ``phi`` is unit norm and mean zero, with the sign fixed so that the
    entry of largest magnitude is positive (ties broken by lowest vertex
    index). ``degenerate`` warns that lambda2 is numerically repeated, in
    which case ``phi`` is one basis vector of the eigenspace.
    """

    lambda2: float
    phi: np.ndarray
    gap: float
    lambda1_residual: float
    degenerate: bool


def _fix_sign(phi: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(phi)))
    if phi[j] < 0.0:
        return -phi
    return phi


def rayleigh_edge_sum(g: Graph, phi: np.ndarray) -> float:
    """Sum of w_uv (phi(u) - phi(v))^2 over edges; equals phi' L phi."""
    total = 0.0
    for u, v, w in g.edges:
        diff = phi[u] - phi[v]
        total += w * diff * diff
    return total


def rayleigh_tolerance(linf, n: int):
    """Largest accepted |lambda2 - edge-sum quotient| for an order-n Laplacian with max|L| = linf.

    Shared by ``checked_fiedler`` and the batched pendant probe; ``linf``
    may be an array, one tolerance per row.
    """
    return np.maximum(1e-9, 64.0 * np.finfo(float).eps * linf * n)


def checked_fiedler(
    lam1: float, lam2: float, lam3: float, phi: np.ndarray, edge_sum, linf: float
) -> FiedlerResult:
    """Turn the three smallest Laplacian eigenvalues and a lambda2 vector into a FiedlerResult.

    phi is projected onto the mean-zero subspace and renormalized (a vector
    that collapses onto the constant kernel vector aborts), its sign is
    fixed, and lambda2 is cross-checked against ``edge_sum(phi)``, the
    edge-sum Rayleigh quotient, within rounding scaled by ``linf`` =
    max|L|. ``gap`` is lambda3 - lambda2.
    """
    n = phi.size
    # enforce exact orthogonality to the constant kernel vector, then renormalize
    phi = phi - phi.mean()
    nrm = math.sqrt(float(np.dot(phi, phi)))
    # comparisons written so that NaN fails them
    if not nrm >= MIN_MEAN_ZERO_NORM:
        raise ConvergenceError(
            "candidate Fiedler vector collapsed onto the constant kernel vector"
        )
    phi = _fix_sign(phi / nrm)
    quotient = edge_sum(phi)
    if not abs(lam2 - quotient) <= rayleigh_tolerance(linf, n):
        raise ConvergenceError(
            f"Rayleigh quotient {quotient!r} disagrees with eigenvalue {lam2!r}"
        )
    gap = lam3 - lam2
    degenerate = gap < DEGENERATE_GAP * max(1.0, lam2)
    return FiedlerResult(
        lambda2=lam2,
        phi=phi,
        gap=gap,
        lambda1_residual=abs(lam1),
        degenerate=degenerate,
    )


def fiedler(g: Graph) -> FiedlerResult:
    """Fiedler pair of a connected graph, with deterministic sign and checks.

    The returned lambda2 is cross-checked against the edge-sum Rayleigh
    quotient of phi; disagreement beyond rounding aborts rather than
    returning a silently wrong pair.
    """
    if g.n < 2:
        raise ValueError("Fiedler pair needs at least 2 vertices")
    require_connected(g)
    L = laplacian(g)
    lam1, lam2, lam3, phi = smallest_three(L)
    return checked_fiedler(
        lam1, lam2, lam3, phi, lambda p: rayleigh_edge_sum(g, p), float(np.max(np.abs(L)))
    )


def first_order_perturbation(
    M: np.ndarray, dM: np.ndarray, s: Spectrum, i: int
) -> tuple[float, np.ndarray]:
    """First-order eigenpair prediction for M + dM at eigenvalue index i.

    lambda_i must be simple: the formulas divide by lambda_i - lambda_j and
    lose meaning when the eigenvalue is (numerically) repeated.
    """
    M = np.asarray(M, dtype=float)
    dM = np.asarray(dM, dtype=float)
    if M.shape != dM.shape:
        raise ValueError(f"shape mismatch: {M.shape} vs {dM.shape}")
    vals = s.eigenvalues
    n = vals.size
    if not 0 <= i < n:
        raise ValueError(f"eigenvalue index {i} out of range({n})")
    lam = float(vals[i])
    threshold = SIMPLE_GAP * max(1.0, abs(lam))
    if i > 0 and lam - vals[i - 1] <= threshold:
        raise ValueError(f"eigenvalue {i} is not simple (lower gap too small)")
    if i < n - 1 and vals[i + 1] - lam <= threshold:
        raise ValueError(f"eigenvalue {i} is not simple (upper gap too small)")
    X = s.eigenvectors
    xi = X[:, i]
    dxi = dM @ xi
    lam_approx = lam + float(np.dot(xi, dxi))
    coeff = X.T @ dxi
    denom = lam - vals
    denom[i] = 1.0  # avoid 0/0 for the excluded j = i term
    coeff = coeff / denom
    coeff[i] = 0.0
    vec_approx = xi + X @ coeff
    return lam_approx, vec_approx


def weyl_check(
    spec_M: Spectrum, spec_P: Spectrum, spec_sum: Spectrum, slack: float = 1e-10
) -> bool:
    """Verify Weyl's inequalities for eigenvalues of M, P, and M + P.

    With spectra sorted descending (alpha for M, delta for P, gamma for the
    sum, 1-based indices): gamma_{i+j-1} <= alpha_i + delta_j whenever
    i+j-1 <= n, and alpha_i + delta_j <= gamma_{i+j-n} whenever i+j-n >= 1.
    Both chains are checked within the given slack.
    """
    n = spec_M.eigenvalues.size
    if spec_P.eigenvalues.size != n or spec_sum.eigenvalues.size != n:
        raise ValueError("spectra must have the same order")
    alpha = spec_M.eigenvalues[::-1]
    delta = spec_P.eigenvalues[::-1]
    gamma = spec_sum.eigenvalues[::-1]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s = alpha[i - 1] + delta[j - 1]
            k = i + j - 1
            if k <= n and gamma[k - 1] > s + slack:
                return False
            k = i + j - n
            if k >= 1 and s > gamma[k - 1] + slack:
                return False
    return True
