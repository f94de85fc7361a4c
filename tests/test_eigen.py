"""Self-contained symmetric eigensolver against analytic and LAPACK oracles.

numpy.linalg.eigh appears here as a reference oracle only; library code
never calls it.
"""
import math

import numpy as np
import pytest

from fiedlertools.eigen import ConvergenceError, eig_sym, eigvals_sym, smallest_three
from fiedlertools.graphs import build_graph, generate, laplacian


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eig_sym(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.zeros((0, 0)))


def test_trivial_sizes():
    s = eig_sym(np.array([[4.0]]))
    assert s.eigenvalues[0] == 4.0
    assert s.eigenvectors[0, 0] == 1.0
    s = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(s.eigenvalues, [1.0, 3.0])


def test_path_graph_spectrum_closed_form():
    for n in (3, 10, 50):
        vals = eig_sym(laplacian(generate("path", n))).eigenvalues
        expect = np.array([4.0 * math.sin(math.pi * k / (2 * n)) ** 2 for k in range(n)])
        assert np.max(np.abs(vals - expect)) < 1e-10


def test_cycle_and_complete_and_star_spectra():
    vals = eig_sym(laplacian(generate("cycle", 6))).eigenvalues
    assert np.allclose(vals, [0.0, 1.0, 1.0, 3.0, 3.0, 4.0], atol=1e-12)
    vals = eig_sym(laplacian(generate("complete", 5))).eigenvalues
    assert np.allclose(vals, [0.0, 5.0, 5.0, 5.0, 5.0], atol=1e-12)
    vals = eig_sym(laplacian(generate("star", 6))).eigenvalues
    assert np.allclose(vals, [0.0, 1.0, 1.0, 1.0, 1.0, 6.0], atol=1e-12)


def test_matches_lapack_oracle_on_random_matrices():
    for seed in range(8):
        n = 5 + seed * 9
        M = random_symmetric(n, seed)
        s = eig_sym(M)
        ref = np.linalg.eigvalsh(M)
        scale = max(1.0, np.abs(M).max() * n)
        assert np.max(np.abs(s.eigenvalues - ref)) < 1e-11 * scale


def test_eigenpairs_satisfy_definition():
    for seed in (0, 1, 2):
        n = 30 + 7 * seed
        M = random_symmetric(n, seed)
        s = eig_sym(M)
        V = s.eigenvectors
        scale = max(1.0, np.abs(M).max() * n)
        assert np.max(np.abs(M @ V - V * s.eigenvalues)) < 1e-11 * scale
        assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-12 * n
        assert np.all(np.diff(s.eigenvalues) >= 0.0)


def test_eigvals_sym_agrees_with_eig_sym():
    M = random_symmetric(40, 17)
    assert np.allclose(eigvals_sym(M), eig_sym(M).eigenvalues, atol=1e-12)


def test_laplacian_kernel_recovered():
    for seed in range(5):
        g = generate("gnm", 15, 30, seed=seed)
        s = eig_sym(laplacian(g))
        assert abs(s.eigenvalues[0]) < 1e-10
        v0 = s.eigenvectors[:, 0]
        assert np.max(np.abs(np.abs(v0) - 1.0 / math.sqrt(g.n))) < 1e-8


def test_smallest_three_small_and_large_paths():
    for n in (2, 3, 10, 79, 81, 120, 200):
        L = laplacian(generate("path", n))
        lam1, lam2, lam3, v2 = smallest_three(L)
        expect = [4.0 * math.sin(math.pi * k / (2 * n)) ** 2 for k in range(min(n, 3))]
        assert abs(lam1 - expect[0]) < 1e-10
        assert abs(lam2 - expect[1]) < 1e-10
        if n == 2:
            assert lam3 == math.inf
        else:
            assert abs(lam3 - expect[2]) < 1e-10
        resid = L @ v2 - lam2 * v2
        assert np.max(np.abs(resid)) < 1e-9
        assert abs(np.dot(v2, v2) - 1.0) < 1e-12


def test_smallest_three_matches_oracle_on_random_graphs():
    for seed in range(6):
        n = 12 + seed * 23
        g = generate("gnm", n, min(2 * n, n * (n - 1) // 2), seed=seed)
        L = laplacian(g)
        lam1, lam2, lam3, v2 = smallest_three(L)
        ref = np.linalg.eigvalsh(L)
        assert abs(lam1 - ref[0]) < 1e-9
        assert abs(lam2 - ref[1]) < 1e-9
        assert abs(lam3 - ref[2]) < 1e-9


def weighted_gnm_laplacian(n, seed):
    # weights 10^U(-2, 2) on a connected G(n, min(2n, n(n-1)/2))
    g = generate("gnm", n, min(2 * n, n * (n - 1) // 2), seed=seed)
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(-2.0, 2.0, g.num_edges)
    return laplacian(build_graph(n, [(u, v, w) for (u, v, _), w in zip(g.edges, weights)]))


def test_smallest_three_weighted_matches_eigh():
    for n in (2, 3, 10, 40, 79, 80, 81, 120):
        L = weighted_gnm_laplacian(n, seed=n)
        lams = smallest_three(L)[:3]
        ref = np.linalg.eigvalsh(L)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(L))))
        for i in range(min(n, 3)):
            assert abs(lams[i] - ref[i]) <= tol, (n, i, lams[i], ref[i])
        if n == 2:
            assert lams[2] == math.inf


def test_smallest_three_never_runs_ql(monkeypatch):
    import fiedlertools.eigen as eigen

    def no_ql(*args):
        raise AssertionError("QL ran inside smallest_three")

    monkeypatch.setattr(eigen, "_ql_implicit", no_ql)
    for n in (3, 20, 80, 81):
        lam1, lam2, lam3, v2 = smallest_three(weighted_gnm_laplacian(n, seed=n))
        assert lam1 <= lam2 <= lam3


def test_smallest_three_repeated_eigenvalue():
    # complete graph: lambda2 = lambda3 = n
    L = laplacian(generate("complete", 7))
    lam1, lam2, lam3, v2 = smallest_three(L)
    assert abs(lam1) < 1e-10
    assert abs(lam2 - 7.0) < 1e-9
    assert abs(lam3 - 7.0) < 1e-9
    assert np.max(np.abs(L @ v2 - lam2 * v2)) < 1e-8


def test_convergence_error_is_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)


def test_weighted_matrix_scale_invariance():
    M = random_symmetric(25, 3)
    big = eig_sym(1e6 * M)
    small = eig_sym(M)
    assert np.max(np.abs(big.eigenvalues / 1e6 - small.eigenvalues)) < 1e-9
