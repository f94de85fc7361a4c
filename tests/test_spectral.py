"""Fiedler pairs, the edge-sum identity, first-order prediction, Weyl bounds."""
import math

import numpy as np
import pytest

from fiedlertools import eigen
from fiedlertools.eigen import ConvergenceError
from fiedlertools.graphs import DisconnectedGraphError, build_graph, generate, laplacian
from fiedlertools.perturbation import attach_pendant, perturbed_fiedler
from fiedlertools.spectral import (
    FiedlerResult,
    checked_fiedler,
    fiedler,
    first_order_perturbation,
    rayleigh_edge_sum,
    weyl_check,
)

SQ2 = math.sqrt(2.0)


def test_path3_closed_form():
    res = fiedler(generate("path", 3))
    assert abs(res.lambda2 - 1.0) < 1e-12
    assert np.allclose(res.phi, [1 / SQ2, 0.0, -1 / SQ2], atol=1e-9)
    assert not res.degenerate


def test_sign_policy_largest_entry_positive():
    for seed in range(10):
        g = generate("gnm", 16, 32, seed=seed)
        phi = fiedler(g).phi
        k = int(np.argmax(np.abs(phi)))
        assert phi[k] > 0.0


def test_unit_norm_and_mean_zero():
    for seed in range(10):
        g = generate("gnm", 14, 25, seed=seed + 100)
        res = fiedler(g)
        assert abs(np.dot(res.phi, res.phi) - 1.0) < 1e-12
        assert abs(res.phi.sum()) < 1e-9


def test_star_center_is_zero():
    res = fiedler(generate("star", 6))
    assert abs(res.lambda2 - 1.0) < 1e-10
    assert abs(res.phi[0]) < 1e-9


def test_complete_graph_flagged_degenerate():
    res = fiedler(generate("complete", 5))
    assert abs(res.lambda2 - 5.0) < 1e-9
    assert res.degenerate
    assert res.gap < 1e-8


def test_path_graph_not_degenerate_gap_matches():
    res = fiedler(generate("path", 10))
    lam2 = 4 * math.sin(math.pi / 20) ** 2
    lam3 = 4 * math.sin(math.pi / 10) ** 2
    assert abs(res.lambda2 - lam2) < 1e-10
    assert abs(res.gap - (lam3 - lam2)) < 1e-9


def test_disconnected_rejected():
    g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraphError):
        fiedler(g)


def test_edge_sum_identity_seeded():
    for seed in range(30):
        g = generate("gnm", 20, 45, seed=seed)
        res = fiedler(g)
        assert abs(res.lambda2 - rayleigh_edge_sum(g, res.phi)) < 1e-9


def test_edge_sum_identity_weighted():
    g = build_graph(4, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 3.5), (0, 3, 1.25)])
    res = fiedler(g)
    assert abs(res.lambda2 - rayleigh_edge_sum(g, res.phi)) < 1e-12


def test_lambda1_residual_small():
    res = fiedler(generate("gnm", 18, 40, seed=2))
    assert res.lambda1_residual < 1e-10


def test_result_is_plain_dataclass():
    res = fiedler(generate("path", 4))
    assert isinstance(res, FiedlerResult)
    assert set(res.__dataclass_fields__) == {
        "lambda2", "phi", "gap", "lambda1_residual", "degenerate",
    }


def assert_matches_eigh(L, lam2, phi):
    vals, vecs = np.linalg.eigh(L)
    assert np.isfinite(lam2) and np.all(np.isfinite(phi))
    assert abs(lam2 - vals[1]) < 1e-10 * max(1.0, vals[1])
    assert np.max(np.abs(phi - math.copysign(1.0, float(np.dot(phi, vecs[:, 1]))) * vecs[:, 1])) < 1e-9


def test_nan_vector_takes_dense_fallback(monkeypatch):
    # a NaN vector fails the residual check, and the full solver answers
    monkeypatch.setattr(
        eigen, "_inverse_iteration", lambda d, e, lam, n: np.full(n, math.nan)
    )
    g = generate("gnm", 12, 30, seed=2)
    res = fiedler(g)
    assert_matches_eigh(laplacian(g), res.lambda2, res.phi)
    assert np.isfinite(res.gap)
    pert = perturbed_fiedler(g, 3, 0.5)
    assert_matches_eigh(laplacian(attach_pendant(g, 3, 0.5)), pert.lambda2_x, pert.phi_x)
    assert np.isfinite(pert.gap)


def test_checked_fiedler_rejects_nan():
    g = generate("path", 3)
    phi = np.array([1.0, 0.0, -1.0]) / SQ2
    edge_sum = lambda p: rayleigh_edge_sum(g, p)  # noqa: E731
    assert checked_fiedler(0.0, 1.0, 3.0, phi, edge_sum, 2.0).lambda2 == 1.0
    with pytest.raises(ConvergenceError, match="collapsed"):
        checked_fiedler(0.0, 1.0, 3.0, np.full(3, math.nan), edge_sum, 2.0)
    with pytest.raises(ConvergenceError, match="Rayleigh"):
        checked_fiedler(0.0, math.nan, 3.0, phi, edge_sum, 2.0)


def test_graded_path_is_accurate_or_raises():
    # lambda_2 = 1.38e-8 lies below eps * max|L| = 2.2e-8: fiedler must
    # either resolve it or refuse, never return a silently wrong value
    g = build_graph(4, [(0, 1, 1e-8), (1, 2, 1.0), (2, 3, 1e8)])
    ref = np.linalg.eigvalsh(laplacian(g))[1]
    try:
        res = fiedler(g)
    except ConvergenceError:
        return
    assert abs(res.lambda2 - ref) <= 1e-6 * ref


def test_first_order_prediction_on_diagonal_bump():
    from fiedlertools.eigen import eig_sym

    g = generate("path", 10)
    L = laplacian(g)
    s = eig_sym(L)
    eps = 1e-5
    P = np.zeros_like(L)
    P[0, 0] = eps
    lam_pred, vec_pred = first_order_perturbation(L, P, s, 1)
    expect = s.eigenvalues[1] + eps * s.eigenvectors[0, 1] ** 2
    assert abs(lam_pred - expect) < 1e-15
    assert vec_pred.shape == (10,)


def test_first_order_rejects_repeated_eigenvalue():
    from fiedlertools.eigen import eig_sym

    L = laplacian(generate("complete", 5))
    s = eig_sym(L)
    with pytest.raises(ValueError):
        first_order_perturbation(L, np.eye(5), s, 1)


def test_first_order_error_quadratic_in_eps():
    # fitted slope of log error vs log eps should sit near 2
    from fiedlertools.eigen import eig_sym, eigvals_sym

    g = generate("path", 10)
    L = laplacian(g)
    s = eig_sym(L)
    errs = []
    epss = (1e-2, 1e-3, 1e-4)
    for eps in epss:
        P = np.zeros_like(L)
        P[0, 0] = eps
        lam_pred, _ = first_order_perturbation(L, P, s, 1)
        exact = eigvals_sym(L + P)[1]
        errs.append(abs(lam_pred - exact))
    slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_weyl_check_accepts_true_spectra():
    from fiedlertools.eigen import eig_sym

    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((8, 8))
        M = (A + A.T) / 2
        B = rng.standard_normal((8, 8))
        P = (B + B.T) / 2
        assert weyl_check(eig_sym(M), eig_sym(P), eig_sym(M + P))


def test_weyl_check_rejects_shifted_sum():
    from fiedlertools.eigen import Spectrum, eig_sym

    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 8))
    M = (A + A.T) / 2
    P = np.eye(8)
    true_sum = eig_sym(M + P)
    bad = Spectrum(
        eigenvalues=true_sum.eigenvalues + 3.0,
        eigenvectors=true_sum.eigenvectors,
    )
    assert not weyl_check(eig_sym(M), eig_sym(P), bad)
