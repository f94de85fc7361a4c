"""Self-contained dense symmetric eigensolver.

Classic two-stage scheme: Householder reduction to tridiagonal form followed
by the implicitly shifted QL iteration, with an extra fast route for the one
eigenpair this package cares about most, and a secular-equation solver for
rank-one updates of a diagonal matrix. Everything is deterministic: no
randomized pivoting, no thread-count dependence, identical results on every
platform for identical input bytes.

Routes:

* ``eig_sym`` / ``eigvals_sym``: full spectrum (and optionally the full
  orthonormal eigenbasis) of a symmetric matrix.
* ``smallest_three``: the three smallest eigenvalues plus the eigenvector of
  the second-smallest: the Householder reduction, then two stages on the
  tridiagonal matrix. Sturm-sequence bisection (Barth, Martin & Wilkinson
  1967) finds the eigenvalues by index at every order, to rounding level,
  which skips the O(n^2) scalar QL loop. ``tridiagonal_lambda2_vector``
  recovers the eigenvector by one twisted-factorization solve, refines
  lambda_2 by its Rayleigh quotient and checks the vector's residual
  against the full matrix; on failure the full solver is the fallback.
* ``rank_one_smallest_three``: the three smallest eigenvalues of
  diag(d) + rho z z' from the secular equation, with explicit deflation and
  a safeguarded rational root finder (LAPACK ``dlaed4``'s middle way).
  Pendant probes (``perturbation.perturbed_fiedler``) take their
  eigenvalues from it and run only the vector stage above; the diagonal
  and z come from one QL pass per anchor that rotates only the first row
  of the eigenvector matrix (``_ql_implicit`` given a vector).
* ``secular_first_roots``: the root above the first pole for many rows of
  weights over shared poles at once, with the same start and step as the
  scalar root finder; batched pendant probes
  (``perturbation.pendant_extremal_batch``) take lambda_2 from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)
_MAX_QL_ITER = 50


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
    ndarray indexing). If Z is a matrix its columns are rotated along. If Z
    is a vector it is taken as one row of such a matrix and rotated on
    Python floats as well: started from e_0 it ends as the first components
    of the eigenvectors (Golub-Welsch), at O(1) extra cost per rotation.
    Returns eigenvalues ascending and Z reordered to match.
    """
    d = list(map(float, d_in))
    e = list(map(float, e_in))
    n = len(d)
    if len(e) < n:
        e = e + [0.0]
    row = Z.tolist() if Z is not None and Z.ndim == 1 else None
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
                if row is not None:
                    zi1 = row[i + 1]
                    row[i + 1] = s * row[i] + c * zi1
                    row[i] = c * row[i] - s * zi1
                elif Z is not None:
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
    if row is not None:
        Z = np.array(row)[order]
    elif Z is not None:
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
    # rounding level: the twisted solve takes the shift as exact
    tol = 4.0 * _EPS * max(1.0, abs(glo), abs(ghi))
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
    """Eigenvector of the tridiagonal (d, e) for an eigenvalue lam accurate to rounding.

    One twisted-factorization solve on Python floats (Fernando 1997; Parlett
    & Dhillon 1997; the vector step of LAPACK's MRRR). The top-down pivots
    D+ and bottom-up pivots D- of T - lam I are floored at tiny rather than
    failed; at the twist r where |gamma_r| = |D+_r + D-_r - (d_r - lam)| is
    smallest, z_r = 1, and the other entries follow from the two bidiagonal
    recurrences. This is one step of inverse iteration, (T - lam I) z =
    gamma_r e_r, from the start vector that the twist makes best. Nothing
    absorbs an error in lam, so lam must come from bisection to rounding
    level or an equally accurate root.
    """
    d = d.tolist()
    e = e[: n - 1].tolist()
    a = [t - lam for t in d]
    norm_t = max(map(abs, d)) + (max(map(abs, e)) if n > 1 else 0.0)
    tiny = max(norm_t, 1.0) * _EPS * n
    e2 = [t * t for t in e]
    top = [0.0] * n
    bot = [0.0] * n
    for k in range(n):
        q = a[k] - e2[k - 1] / top[k - 1] if k else a[0]
        top[k] = q if abs(q) >= tiny else tiny
    for k in range(n - 1, -1, -1):
        q = a[k] - e2[k] / bot[k + 1] if k < n - 1 else a[k]
        bot[k] = q if abs(q) >= tiny else tiny
    r = min(range(n), key=lambda k: abs(top[k] + bot[k] - a[k]))
    z = [0.0] * n
    z[r] = 1.0
    for k in range(r - 1, -1, -1):
        z[k] = -e[k] * z[k + 1] / top[k]
    for k in range(r + 1, n):
        z[k] = -e[k - 1] * z[k - 1] / bot[k]
    nrm = math.sqrt(sum(t * t for t in z))
    return np.array(z) / nrm


# ---------------------------------------------------------------------------
# Rank-one update of a diagonal matrix: the secular equation

_MAX_SECULAR_ITER = 60


def _middle_root(C: float, A: float, B: float) -> float:
    """The root of C eta^2 - A eta + B = 0 that ``_secular_root`` wants.

    It is (A - sqrt(A^2 - 4BC)) / 2C, the root between the two pole
    distances, evaluated without cancellation; 0 when the quadratic
    degenerates, which makes the caller take a Newton step.
    """
    if C == 0.0:
        return B / A if A != 0.0 else 0.0
    disc = math.sqrt(abs(A * A - 4.0 * B * C))
    if A <= 0.0:
        return (A - disc) / (2.0 * C)
    return 2.0 * B / (A + disc)


def _secular_start(gap: float, ci: float, ci1: float, w: float) -> tuple[bool, float, float, float]:
    """First iterate on the interval (p_i, p_i + gap) from w = f(midpoint).

    Returns (at_left, lo, hi, tau). The root is nearer p_i when w >= 0, and
    at_left says the origin is p_i rather than p_{i+1}; lo, hi bracket tau
    relative to the origin. The two bracketing pole terms are taken exactly
    and the rest of f as a constant; the root of that quadratic is the
    first tau, replaced by the bracket's midpoint if outside.
    """
    C = w + 2.0 * (ci - ci1) / gap
    if w >= 0.0:
        lo, hi = 0.0, 0.5 * gap
        tau = _middle_root(C, C * gap + ci + ci1, ci * gap)
    else:
        lo, hi = -0.5 * gap, 0.0
        tau = _middle_root(C, -C * gap + ci + ci1, -ci1 * gap)
    if not lo < tau < hi:
        tau = 0.5 * (lo + hi)
    return w >= 0.0, lo, hi, tau


def _secular_step(
    tau: float, lo: float, hi: float, rhoinv: float,
    psi: float, dpsi: float, phi: float, dphi: float, di: float, di1: float | None,
) -> tuple[bool, float, float, float]:
    """One iteration of ``_secular_root`` from f's parts at tau: (stop, tau, lo, hi).

    psi, dpsi are the sum of the pole terms up to p_i and its slope, phi,
    dphi those of the poles after it; di, di1 are the distances from tau to
    p_i and p_{i+1} (di1 None on the last interval, where the step is
    Newton's). ``stop`` means tau is the root.
    """
    w = rhoinv + psi + phi
    dw = dpsi + dphi
    if abs(w) <= _EPS * (8.0 * (rhoinv + phi - psi) + abs(tau) * dw):
        return True, tau, lo, hi
    if w < 0.0:
        lo = tau
    else:
        hi = tau
    eta = 0.0
    if di1 is not None:
        eta = _middle_root(w - di * dpsi - di1 * dphi, (di + di1) * w - di * di1 * dw, di * di1 * w)
    if w * eta >= 0.0:
        eta = -w / dw
    new = tau + eta
    if not lo < new < hi:
        new = 0.5 * (lo + hi)
    return new == tau, new, lo, hi


def _secular_root(p: list, c: list, rho: float, i: int) -> float:
    """Root of f(mu) = 1/rho + sum_k c_k / (p_k - mu) above the pole p_i.

    Poles p ascend and weights c are positive, so f increases from -inf to
    +inf between p_i and p_{i+1}, and from -inf to 1/rho after the last
    pole, where the root lies below p_K + rho * sum(c). As in LAPACK
    ``dlaed4``, mu = origin + tau with the origin at whichever bracketing
    pole the root is nearer, so the distances to both carry full relative
    accuracy. Between two poles each step is R.-C. Li's "middle way": the
    poles up to p_i and the poles after it are each replaced by one pole
    term matching f's parts and their slopes at tau, and the resulting
    quadratic is solved. On the last interval the step is Newton's. A step
    that leaves the bracket kept from the signs of f is replaced by
    bisection.
    """
    rhoinv = 1.0 / rho
    last = i == len(p) - 1
    if last:
        origin, lo, hi = p[i], 0.0, rho * sum(c)
        tau = hi
    else:
        gap = p[i + 1] - p[i]
        mid = p[i] + 0.5 * gap
        w = rhoinv + sum(ck / (pk - mid) for pk, ck in zip(p, c))
        at_left, lo, hi, tau = _secular_start(gap, c[i], c[i + 1], w)
        origin = p[i] if at_left else p[i + 1]
    shifted = [pk - origin for pk in p]
    left = list(zip(shifted[: i + 1], c[: i + 1]))
    right = list(zip(shifted[i + 1:], c[i + 1:]))
    for _ in range(_MAX_SECULAR_ITER):
        psi = dpsi = phi = dphi = 0.0
        for sk, ck in left:
            delta = sk - tau
            t = ck / delta
            psi += t
            dpsi += t / delta
        for sk, ck in right:
            delta = sk - tau
            t = ck / delta
            phi += t
            dphi += t / delta
        stop, tau, lo, hi = _secular_step(
            tau, lo, hi, rhoinv, psi, dpsi, phi, dphi,
            shifted[i] - tau, None if last else shifted[i + 1] - tau,
        )
        if stop:
            return origin + tau
    raise ConvergenceError(f"secular equation root {i} failed to converge")


def secular_first_roots(p: np.ndarray, c: np.ndarray, rho: np.ndarray):
    """``_secular_root(p, c[r], rho[r], 0)`` for every row r, in lockstep.

    The m >= 2 ascending poles p are shared; row r has its own weights c[r]
    (c[r, 0] > 0, zero on poles the row deflates) and rho[r] > 0. The pole
    sums of all rows are taken together with numpy; each row then runs
    ``_secular_root``'s start and step on the interval (p[0], p[1]) until it
    stops. Returns (origin, tau, done): the root of row r is
    origin[r] + tau[r], so a distance p_j - root is best taken as
    (p_j - origin[r]) - tau[r]. ``done`` is False for rows still iterating
    when the budget ran out.
    """
    gap = float(p[1] - p[0])
    rhoinv = (1.0 / rho).tolist()
    w_mid = (1.0 / rho + (c / (p - (p[0] + 0.5 * gap))).sum(axis=1)).tolist()
    start = [
        _secular_start(gap, ci, ci1, w)
        for ci, ci1, w in zip(c[:, 0].tolist(), c[:, 1].tolist(), w_mid)
    ]
    at_left, lo, hi, tau = (list(col) for col in zip(*start))
    origin = np.where(at_left, p[0], p[1])
    shifted = p - origin[:, None]
    d0, d1 = shifted[:, 0].tolist(), shifted[:, 1].tolist()
    rows = range(c.shape[0])
    for _ in range(_MAX_SECULAR_ITER):
        delta = shifted - np.array(tau)[:, None]
        terms = c / delta
        slopes = terms / delta
        psi, dpsi = terms[:, 0].tolist(), slopes[:, 0].tolist()
        phi, dphi = terms[:, 1:].sum(axis=1).tolist(), slopes[:, 1:].sum(axis=1).tolist()
        still = []
        for r in rows:
            t = tau[r]
            stop, tau[r], lo[r], hi[r] = _secular_step(
                t, lo[r], hi[r], rhoinv[r], psi[r], dpsi[r], phi[r], dphi[r], d0[r] - t, d1[r] - t
            )
            if not stop:
                still.append(r)
        rows = still
        if not rows:
            break
    done = np.ones(c.shape[0], dtype=bool)
    done[rows] = False
    return origin, np.array(tau), done


def rank_one_smallest_three(d, z2, rho: float) -> tuple[float, float, float]:
    """Three smallest eigenvalues of diag(d) + rho z z', ascending; +inf pads.

    ``d`` ascends, ``z2`` holds the squares z_j^2 and rho > 0. With
    tol = 8 eps max(|d|, rho), a pole d_j deflates, and is itself an
    eigenvalue, when rho |z_j| <= tol, or when it lies within tol of the
    previous kept pole, whose weight then absorbs z_j^2 (the exact case is
    a Givens rotation of the two coordinates). Every other eigenvalue is a
    root of the secular equation over the kept poles, one above each pole
    (``_secular_root``); roots are found from the lowest interval up and
    only until three eigenvalues are known to lie below the next pole.
    """
    tol = 8.0 * _EPS * max(abs(d[0]), abs(d[-1]), rho)
    poles: list[float] = []
    weights: list[float] = []
    values: list[float] = []
    for dj, wj in zip(d, z2):
        if rho * math.sqrt(wj) <= tol:
            values.append(dj)
        elif poles and dj - poles[-1] <= tol:
            weights[-1] += wj
            values.append(dj)
        else:
            poles.append(dj)
            weights.append(wj)
    for i, pole in enumerate(poles):
        if sum(1 for t in values if t < pole) >= 3:
            break
        values.append(_secular_root(poles, weights, rho, i))
    values.sort()
    values += [math.inf] * (3 - len(values))
    return values[0], values[1], values[2]


def smallest_three(M: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """(lambda_1, lambda_2, lambda_3, v_2) for symmetric M, eigenvalues ascending.

    The eigenvalues come from Sturm bisection on the Householder-reduced
    matrix; lambda_3 is +inf for 2x2 input. v_2 is a unit eigenvector for
    lambda_2, validated by its residual; if the twisted solve lands on the
    wrong vector the full decomposition is used instead.
    """
    M = _check_input(M)
    n = M.shape[0]
    if n < 2:
        raise ValueError("need at least a 2x2 matrix")
    d, e, reflectors = _householder(M)
    lams = _sturm_eigenvalues(d, e, (0, 1, 2)[:n]) + [math.inf]
    return tridiagonal_lambda2_vector(
        d, e, tuple(lams[:3]), lambda z: _back_transform(z, reflectors), M,
        float(np.max(np.abs(M))),
    )


def residual_bound(linf, order: int):
    """Largest accepted ||M z - lambda z|| for a unit z, given max|M| and M's order.

    Shared by ``tridiagonal_lambda2_vector`` and the batched pendant probe;
    ``linf`` may be an array, one bound per row.
    """
    return 1e-11 * np.maximum(1.0, linf * order)


def tridiagonal_lambda2_vector(
    d: np.ndarray,
    e: np.ndarray,
    lams: tuple[float, float, float],
    to_full,
    M: np.ndarray,
    linf: float,
) -> tuple[float, float, float, np.ndarray]:
    """Vector stage of ``smallest_three`` for a tridiagonal T = (d, e) similar to M.

    ``lams`` are T's three smallest eigenvalues, from whichever eigenvalue
    stage the caller has; ``to_full`` maps a vector in T's basis to M's
    coordinates (an orthogonal change of basis). The lambda_2 vector comes
    from one twisted solve at lambda_2 (``lams`` must be accurate to
    rounding) and a Rayleigh refinement on T. The mapped vector
    must pass a residual check against M, scaled by ``linf`` = max|M|,
    otherwise the full decomposition of M answers instead. Returns
    (lambda_1, lambda_2, lambda_3, v_2).
    """
    lam1, lam2, lam3 = lams
    n = len(d)
    z = _inverse_iteration(d, e, lam2, n)
    # Rayleigh refinement in tridiagonal coordinates
    Tz = d * z
    Tz[:-1] += e[: n - 1] * z[1:]
    Tz[1:] += e[: n - 1] * z[:-1]
    lam2 = float(np.dot(z, Tz))
    z = to_full(z)
    z /= math.sqrt(float(np.dot(z, z)))
    residual = float(np.linalg.norm(M @ z - lam2 * z))
    # written so that a NaN residual also takes the fallback
    if not residual <= residual_bound(linf, n):
        spectrum = eig_sym(M)
        vals = spectrum.eigenvalues
        lam1, lam2 = float(vals[0]), float(vals[1])
        lam3 = float(vals[2]) if n >= 3 else math.inf
        z = spectrum.eigenvectors[:, 1].copy()
    return lam1, lam2, lam3, z
