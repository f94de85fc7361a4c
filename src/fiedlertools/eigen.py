"""Self-contained dense symmetric eigensolver.

Classic two-stage scheme: Householder reduction to tridiagonal form followed
by the implicitly shifted QL iteration, with an extra fast route for the one
eigenpair this package cares about most. Everything is deterministic: no
randomized pivoting, no thread-count dependence, identical results on every
platform for identical input bytes.

Routes:

* ``eig_sym`` / ``eigvals_sym``: full spectrum (and optionally the full
  orthonormal eigenbasis) of a symmetric matrix.
* ``smallest_three``: the three smallest eigenvalues plus the eigenvector of
  the second-smallest. For small matrices the QL value iteration is cheap;
  for large ones the three eigenvalues come from Sturm-sequence bisection,
  which skips the O(n^2) scalar QL loop. The eigenvector is recovered by
  inverse iteration on the tridiagonal matrix and checked against its
  residual; on failure the full solver is the fallback.
* ``tridiagonal_smallest_three``: the same answer from a tridiagonal matrix
  that is already known, plus the map from its basis back to the full
  coordinates. ``smallest_three`` is the Householder reduction followed by
  this stage; pendant probes (``perturbation.perturbed_fiedler``) reuse one
  reduction of the base graph and call only this stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)
_MAX_QL_ITER = 50
# above this size Sturm bisection beats running the QL scalar loop to completion
_STURM_CUTOFF = 80


class ConvergenceError(RuntimeError):
    """An iterative stage failed to converge within its iteration budget."""


@dataclass
class Spectrum:
    """Eigenvalues in ascending order; eigenvectors[:, i] pairs with eigenvalues[i]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_input(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError("matrix must be at least 1x1")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    if not np.array_equal(M, M.T):
        raise ValueError("matrix is not symmetric")
    return M


def _householder(M: np.ndarray):
    """Reduce symmetric M to tridiagonal (d, e); return reflectors for later use.

    Columns are scaled by their 1-norm before forming each reflector so that
    widely ranged weights do not underflow. ``e`` has length n with the
    subdiagonal in e[0..n-2].
    """
    A = np.array(M, dtype=float, copy=True)
    n = A.shape[0]
    e = np.zeros(n)
    reflectors: list[tuple[int, np.ndarray, float]] = []
    for k in range(n - 2):
        x = A[k + 1:, k]
        scale = float(np.sum(np.abs(x)))
        if scale == 0.0:
            continue
        x = x / scale
        xnorm = math.sqrt(float(np.dot(x, x)))
        alpha = -xnorm if x[0] >= 0.0 else xnorm
        u = x.copy()
        u[0] -= alpha
        h = xnorm * xnorm - alpha * x[0]
        e[k] = alpha * scale
        B = A[k + 1:, k + 1:]
        p = B @ u / h
        K = float(np.dot(u, p)) / (2.0 * h)
        w = p - K * u
        B -= np.outer(u, w) + np.outer(w, u)
        reflectors.append((k, u, h))
    if n >= 2:
        e[n - 2] = A[n - 1, n - 2]
    return np.diag(A).copy(), e, reflectors


def _accumulate_q(n: int, reflectors) -> np.ndarray:
    Q = np.eye(n)
    for k, u, h in reversed(reflectors):
        Qs = Q[k + 1:, :]
        Qs -= np.outer(u, (u @ Qs) / h)
    return Q


def _back_transform(z: np.ndarray, reflectors) -> np.ndarray:
    for k, u, h in reversed(reflectors):
        zs = z[k + 1:]
        zs -= u * (np.dot(u, zs) / h)
    return z


def _ql_implicit(d_in, e_in, Z: np.ndarray | None = None):
    """Implicitly shifted QL on a tridiagonal matrix.

    Scalar work runs on Python floats (measurably faster than elementwise
    ndarray indexing); if Z is given its columns are rotated along. Returns
    eigenvalues ascending and Z reordered to match.
    """
    d = list(map(float, d_in))
    e = list(map(float, e_in))
    n = len(d)
    if len(e) < n:
        e = e + [0.0]
    hypot = math.hypot
    copysign = math.copysign
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            iterations += 1
            if iterations > _MAX_QL_ITER:
                raise ConvergenceError(
                    f"QL iteration failed to converge for eigenvalue index {l}"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # rotation annihilated; drop the shift and restart the sweep
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if Z is not None:
                    zi1 = Z[:, i + 1].copy()
                    Z[:, i + 1] = s * Z[:, i] + c * zi1
                    Z[:, i] = c * Z[:, i] - s * zi1
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    vals = np.array(d)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    if Z is not None:
        Z = Z[:, order]
    return vals, Z


def eig_sym(M: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues ascend; eigenvector columns are orthonormal. Degenerate
    eigenvalues yield an orthonormal basis of the eigenspace (the individual
    columns are then basis-dependent but deterministic).
    """
    M = _check_input(M)
    n = M.shape[0]
    if n == 1:
        return Spectrum(np.array([M[0, 0]]), np.eye(1))
    d, e, reflectors = _householder(M)
    Q = _accumulate_q(n, reflectors)
    vals, vecs = _ql_implicit(d, e, Q)
    return Spectrum(vals, vecs)


def eigvals_sym(M: np.ndarray) -> np.ndarray:
    """Eigenvalues only, ascending; skips all eigenvector work."""
    M = _check_input(M)
    if M.shape[0] == 1:
        return np.array([M[0, 0]])
    d, e, _ = _householder(M)
    vals, _ = _ql_implicit(d, e, None)
    return vals


# ---------------------------------------------------------------------------
# Sturm-sequence bisection (eigenvalues by index, no QL sweep needed)


def _sturm_count(d: list, e2: list, x: float, pivmin: float, n: int) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly below x."""
    count = 0
    q = d[0] - x
    if abs(q) <= pivmin:
        q = -pivmin
    if q < 0.0:
        count = 1
    for k in range(1, n):
        q = (d[k] - x) - e2[k - 1] / q
        if abs(q) <= pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def _sturm_eigenvalues(d_in, e_in, indices: tuple[int, ...]) -> list[float]:
    d = list(map(float, d_in))
    n = len(d)
    e = list(map(float, e_in[: n - 1]))
    e2 = [x * x for x in e]
    pivmin = max(max(e2, default=0.0), 1.0) * _EPS * _EPS
    radius = [
        (abs(e[k - 1]) if k > 0 else 0.0) + (abs(e[k]) if k < n - 1 else 0.0)
        for k in range(n)
    ]
    glo = min(d[k] - radius[k] for k in range(n))
    ghi = max(d[k] + radius[k] for k in range(n))
    tol = 1e-13 * max(1.0, abs(glo), abs(ghi))
    out = []
    for j in indices:
        lo, hi = glo, ghi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _sturm_count(d, e2, mid, pivmin, n) >= j + 1:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out


def _inverse_iteration(d: np.ndarray, e: np.ndarray, lam: float, n: int) -> np.ndarray:
    """Eigenvector of the tridiagonal (d, e) for eigenvalue lam.

    Two rounds of inverse iteration with a partial-pivot LU of (T - lam I).
    The start vector is a fixed low-discrepancy sequence so results are
    reproducible; near-singular pivots are floored rather than failed.
    """
    norm_t = float(np.max(np.abs(d))) + (float(np.max(np.abs(e[: n - 1]))) if n > 1 else 0.0)
    tiny = max(norm_t, 1.0) * _EPS * n
    golden = 0.6180339887498949
    z = np.array([((i + 1) * golden) % 1.0 + 0.5 for i in range(n)])
    z /= math.sqrt(float(np.dot(z, z)))
    for _ in range(2):
        dia = d - lam
        sub = np.empty(n)
        sup = np.empty(n)
        sup2 = np.zeros(n)
        sub[: n - 1] = e[: n - 1]
        sup[: n - 1] = e[: n - 1]
        b = z.copy()
        for k in range(n - 1):
            if abs(sub[k]) > abs(dia[k]):
                dia[k], sub[k] = sub[k], dia[k]
                sup[k], dia[k + 1] = dia[k + 1], sup[k]
                if k + 1 < n - 1:
                    sup2[k] = sup[k + 1]
                    sup[k + 1] = 0.0
                b[k], b[k + 1] = b[k + 1], b[k]
            if abs(dia[k]) < tiny:
                dia[k] = tiny
            mult = sub[k] / dia[k]
            dia[k + 1] -= mult * sup[k]
            if k + 1 < n - 1:
                sup[k + 1] -= mult * sup2[k]
            b[k + 1] -= mult * b[k]
        if abs(dia[n - 1]) < tiny:
            dia[n - 1] = tiny
        z = np.empty(n)
        z[n - 1] = b[n - 1] / dia[n - 1]
        if n >= 2:
            z[n - 2] = (b[n - 2] - sup[n - 2] * z[n - 1]) / dia[n - 2]
        for k in range(n - 3, -1, -1):
            z[k] = (b[k] - sup[k] * z[k + 1] - sup2[k] * z[k + 2]) / dia[k]
        z /= math.sqrt(float(np.dot(z, z)))
    return z


def smallest_three(M: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """(lambda_1, lambda_2, lambda_3, v_2) for symmetric M, eigenvalues ascending.

    lambda_3 is +inf for 2x2 input. v_2 is a unit eigenvector for lambda_2,
    validated by its residual; if inverse iteration lands on the wrong vector
    the full decomposition is used instead.
    """
    M = _check_input(M)
    if M.shape[0] < 2:
        raise ValueError("need at least a 2x2 matrix")
    d, e, reflectors = _householder(M)
    return tridiagonal_smallest_three(d, e, lambda z: _back_transform(z, reflectors), M)


def tridiagonal_smallest_three(
    d: np.ndarray, e: np.ndarray, to_full, M: np.ndarray
) -> tuple[float, float, float, np.ndarray]:
    """Second stage of ``smallest_three`` for a tridiagonal T = (d, e) similar to M.

    ``e`` holds the off-diagonal in e[0..n-2] (length n, or n-1), and
    ``to_full`` maps a vector in T's basis to M's coordinates (an orthogonal
    change of basis). The eigenvalues come from QL for n <= 80 and from
    Sturm bisection above; the lambda_2 vector from inverse iteration and a
    Rayleigh refinement on T. The mapped vector must pass a residual check
    against M, otherwise the full decomposition of M is used instead.
    """
    n = len(d)
    if n <= _STURM_CUTOFF:
        vals, _ = _ql_implicit(d, e, None)
        lam1, lam2 = float(vals[0]), float(vals[1])
        lam3 = float(vals[2]) if n >= 3 else math.inf
    else:
        lam1, lam2, lam3 = _sturm_eigenvalues(d, e, (0, 1, 2))
    z = _inverse_iteration(d, e, lam2, n)
    # Rayleigh refinement in tridiagonal coordinates
    Tz = d * z
    Tz[:-1] += e[: n - 1] * z[1:]
    Tz[1:] += e[: n - 1] * z[:-1]
    lam2 = float(np.dot(z, Tz))
    z = to_full(z)
    z /= math.sqrt(float(np.dot(z, z)))
    residual = float(np.linalg.norm(M @ z - lam2 * z))
    if residual > 1e-11 * max(1.0, float(np.max(np.abs(M))) * n):
        spectrum = eig_sym(M)
        vals = spectrum.eigenvalues
        lam1, lam2 = float(vals[0]), float(vals[1])
        lam3 = float(vals[2]) if n >= 3 else math.inf
        z = spectrum.eigenvectors[:, 1].copy()
    return lam1, lam2, lam3, z
