"""Pendant attachment, perturbed Fiedler pairs, analytic limits, sweeps."""
import math

import numpy as np
import pytest

from fiedlertools import perturbation
from fiedlertools.eigen import eigvals_sym
from fiedlertools.graphs import DisconnectedGraphError, build_graph, generate, laplacian
from fiedlertools.perturbation import (
    EXTREMUM_TIE_TOL,
    PendantPerturbation,
    attach_pendant,
    complete_graph_large_x,
    conjecture1_check,
    perturbed_fiedler,
    small_x_limit,
    sweep,
)
from fiedlertools.spectral import DEGENERATE_GAP, fiedler


def test_attach_pendant_path_extension():
    g = attach_pendant(generate("path", 2), 1, 1.0)
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))


def test_attach_pendant_complete_graph_counts():
    g = attach_pendant(generate("complete", 4), 3, 2.0)
    assert g.n == 5
    assert g.num_edges == 7
    assert g.degrees()[3] == 5.0


def test_attach_pendant_rejects_bad_arguments():
    base = generate("path", 3)
    with pytest.raises(ValueError):
        attach_pendant(base, 0, 0.0)
    with pytest.raises(ValueError):
        attach_pendant(base, 0, -1.0)
    with pytest.raises(ValueError):
        attach_pendant(base, 3, 1.0)


def test_perturbation_record_applies():
    pert = PendantPerturbation(base=generate("path", 3), anchor_v=2, x=0.5)
    g = pert.apply()
    assert g.n == 4
    assert (2, 3, 0.5) in g.edges


def test_perturbed_fiedler_invariants_seeded():
    for seed in range(8):
        g = generate("gnm", 12, 24, seed=seed)
        for x in (1e-3, 0.3, 7.0):
            r = perturbed_fiedler(g, seed % g.n, x)
            assert abs(r.phi_x.sum()) < 1e-9
            assert abs(np.dot(r.phi_x, r.phi_x) - 1.0) < 1e-12
            assert r.lambda2_x <= 2.0 * x + 1e-10
            assert r.x == x


def test_pendant_never_raises_connectivity():
    # attaching one pendant cannot push lambda2 above the base value
    for seed in range(8):
        g = generate("gnm", 15, 30, seed=seed + 50)
        base = fiedler(g).lambda2
        for x in (0.01, 1.0, 100.0):
            r = perturbed_fiedler(g, (3 * seed) % g.n, x)
            assert r.lambda2_x <= base + 1e-9


def test_small_x_limit_formula():
    v = small_x_limit(3)
    assert np.allclose(v, np.array([-1.0, -1.0, -1.0, 3.0]) / math.sqrt(12.0))
    for n in (1, 2, 10, 57):
        v = small_x_limit(n)
        assert v.shape == (n + 1,)
        assert abs(np.dot(v, v) - 1.0) < 1e-12
        assert abs(v.sum()) < 1e-12
    with pytest.raises(ValueError):
        small_x_limit(0)


def test_small_x_convergence_seeded():
    limit = small_x_limit(20)
    for seed in range(5):
        g = generate("gnm", 20, 45, seed=seed)
        r = perturbed_fiedler(g, (7 * seed) % 20, 1e-6)
        dist = min(
            np.linalg.norm(r.phi_x - limit),
            np.linalg.norm(r.phi_x + limit),
        )
        assert dist < 1e-3
        assert r.new_vertex_is_extremum
        assert abs(r.phi_x[20]) == np.abs(r.phi_x).max()


def test_complete_graph_quadratic_limits():
    for n in (5, 10, 20):
        a_root, lam_pred = complete_graph_large_x(n, 1e9)
        assert abs(lam_pred - (n + 1) / 2.0) < 1e-6
        assert lam_pred == a_root + 1.0


def test_complete_graph_prediction_matches_solver():
    for n in (5, 10, 20):
        g = generate("complete", n)
        for x in (10.0, 1e3, 1e6):
            _, lam_pred = complete_graph_large_x(n, x)
            lam2 = eigvals_sym(laplacian(attach_pendant(g, 0, x)))[1]
            assert abs(lam_pred - lam2) < 1e-4


def test_complete_graph_unbounded_root_is_like_2x():
    # the two roots sum to 2x + n - 2, so the discarded one grows as 2x
    n = 5
    for x in (1e3, 1e6):
        a_root, _ = complete_graph_large_x(n, x)
        other = (2.0 * x + n - 2.0) - a_root
        assert abs(other / x - 2.0) < 1e-2


def test_sweep_single_point_matches_direct():
    g = generate("gnm", 10, 18, seed=4)
    direct = perturbed_fiedler(g, 2, 0.7)
    (swept,) = sweep(g, 2, [0.7])
    agree = np.allclose(swept.phi_x, direct.phi_x, atol=1e-9)
    flipped = np.allclose(swept.phi_x, -direct.phi_x, atol=1e-9)
    assert agree or flipped
    assert swept.lambda2_x == pytest.approx(direct.lambda2_x, abs=1e-12)


def test_sweep_sign_continuity():
    g = generate("gnm", 20, 45, seed=9)
    xs = np.logspace(-2, 2, 40)
    results = sweep(g, 5, xs)
    assert len(results) == 40
    for prev, cur in zip(results, results[1:]):
        assert float(np.dot(prev.phi_x, cur.phi_x)) >= 0.0


def test_sweep_validates_grid():
    g = generate("path", 4)
    with pytest.raises(ValueError):
        sweep(g, 0, [])
    with pytest.raises(ValueError):
        sweep(g, 0, [1.0, 1.0])
    with pytest.raises(ValueError):
        sweep(g, 0, [2.0, 1.0])
    with pytest.raises(ValueError):
        sweep(g, 0, [-1.0, 1.0])


def test_path_end_anchor_extremal_on_wide_sweep():
    # a pendant hung off a base extremum keeps the extremum at every weight
    g = generate("path", 10)
    xs = np.logspace(-3, 3, 60)
    for r in sweep(g, 9, xs):
        assert r.new_vertex_is_extremum


def test_complete_graph_extremal_everywhere():
    g = generate("complete", 5)
    xs = np.logspace(-3, 6, 50)
    for r in sweep(g, 3, xs):
        assert r.new_vertex_is_extremum


def test_interior_anchor_loses_extremality_at_large_x():
    # the center of an even path stops carrying the extremum once x is large
    g = generate("path", 10)
    r_small = perturbed_fiedler(g, 5, 1e-3)
    r_large = perturbed_fiedler(g, 5, 10.0)
    assert r_small.new_vertex_is_extremum
    assert not r_large.new_vertex_is_extremum


def test_conjecture1_path_and_complete():
    xs = np.logspace(-3, 3, 25)
    rep = conjecture1_check(generate("path", 10), xs)
    assert rep.holds
    assert all(rep.flags_max) and all(rep.flags_min)
    assert rep.counterexamples == []
    rep = conjecture1_check(generate("complete", 5), xs)
    assert rep.holds


def test_conjecture1_seeded_sample():
    xs = np.logspace(-3, 3, 12)
    for seed in range(3):
        g = generate("gnm", 20, 45, seed=seed)
        rep = conjecture1_check(g, xs)
        assert rep.holds, rep.counterexamples
        assert rep.anchor_max != rep.anchor_min


# ---------------------------------------------------------------------------
# Differential checks: the per-anchor reduction against the dense route
# (fiedler on the explicitly augmented graph) and against numpy.linalg.eigh

XS = np.logspace(-3, 3, 7)


def _flag(phi, n, tie_tol=EXTREMUM_TIE_TOL):
    maxmag = float(np.max(np.abs(phi)))
    oriented = phi if phi[n] >= 0.0 else -phi
    return bool(oriented[n] >= np.max(oriented[:n]) - tie_tol * maxmag)


def _assert_matches_oracles(g, v, x):
    r = perturbed_fiedler(g, v, x)
    aug = attach_pendant(g, v, x)
    dense = fiedler(aug)
    vals, vecs = np.linalg.eigh(laplacian(aug))
    for ref in (dense.lambda2, vals[1]):
        assert abs(r.lambda2_x - ref) <= 1e-10 * abs(ref), (v, x, r.lambda2_x, ref)
    if r.gap < DEGENERATE_GAP * max(1.0, r.lambda2_x):
        return r
    assert r.new_vertex_is_extremum == _flag(dense.phi, g.n), (v, x)
    assert r.new_vertex_is_extremum == _flag(vecs[:, 1], g.n), (v, x)
    dist = min(np.linalg.norm(r.phi_x - dense.phi), np.linalg.norm(r.phi_x + dense.phi))
    assert dist < 1e-8, (v, x, dist)
    return r


def test_probe_matches_dense_route_on_seeded_gnm():
    for seed, m in ((1, 25), (2, 40), (3, 60), (4, 100), (5, 160)):
        g = generate("gnm", 20, m, seed=seed)
        for v in (0, 7, 13, 19):
            for x in XS:
                _assert_matches_oracles(g, v, x)


@pytest.mark.parametrize(
    "kind, n, v",
    [
        ("path", 9, 8), ("path", 9, 4), ("cycle", 8, 3),
        ("complete", 6, 2), ("star", 7, 0), ("star", 7, 3),
    ],
)
def test_probe_matches_dense_route_on_named_graphs(kind, n, v):
    g = generate(kind, n)
    for x in XS:
        _assert_matches_oracles(g, v, x)


def test_probe_star_center_unit_weight_is_degenerate():
    # lambda2 = 1 is repeated there, so the flag depends on the basis chosen
    r = perturbed_fiedler(generate("star", 7), 0, 1.0)
    assert abs(r.lambda2_x - 1.0) < 1e-12
    assert r.gap < DEGENERATE_GAP


def test_probe_on_one_and_two_vertex_bases():
    single = build_graph(1, [])
    edge = generate("path", 2)
    for x in XS:
        r = _assert_matches_oracles(single, 0, x)
        assert r.gap == math.inf
        assert abs(r.lambda2_x - 2.0 * x) <= 1e-12 * x
        assert r.new_vertex_is_extremum
        for v in (0, 1):
            r = _assert_matches_oracles(edge, v, x)
            assert math.isfinite(r.gap)


def test_probe_matches_dense_route_on_sturm_route():
    # n + 1 = 86 > 80: eigenvalues come from Sturm bisection
    g = generate("gnm", 85, 200, seed=11)
    for v in (0, 42):
        for x in (1e-3, 1.0, 1e3):
            _assert_matches_oracles(g, v, x)


def test_probe_needs_no_dense_fallback(monkeypatch):
    # the bordered tridiagonal is exactly similar to the augmented Laplacian,
    # so on well-conditioned graphs every probe passes its residual check
    import fiedlertools.eigen as eigen

    def no_fallback(M):
        raise AssertionError("dense fallback taken")

    monkeypatch.setattr(eigen, "eig_sym", no_fallback)
    for g in (generate("gnm", 20, 45, seed=8), generate("gnm", 85, 200, seed=11)):
        for v in (0, 9):
            for x in (1e-3, 1.0, 1e3):
                perturbed_fiedler(g, v, x)


def test_probe_validates_like_attach_pendant():
    g = generate("path", 4)
    for v, x in ((4, 1.0), (-1, 1.0), (0, 0.0), (0, -2.0), (0, math.inf), (0, math.nan)):
        with pytest.raises(ValueError):
            perturbed_fiedler(g, v, x)
    with pytest.raises(DisconnectedGraphError):
        perturbed_fiedler(build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]), 0, 1.0)


def _fresh(g, v, x):
    perturbation._last_reduction = None
    return perturbed_fiedler(g, v, x)


def _assert_same(a, b):
    assert a.lambda2_x == b.lambda2_x
    assert a.gap == b.gap
    assert a.new_vertex_is_extremum == b.new_vertex_is_extremum
    assert np.array_equal(a.phi_x, b.phi_x)


def test_memo_interleaved_graphs_and_anchors():
    g1 = generate("gnm", 12, 24, seed=1)
    g2 = generate("gnm", 12, 30, seed=2)
    calls = [(g1, 3, 0.5), (g2, 3, 0.5), (g1, 7, 2.0), (g1, 3, 2.0), (g2, 7, 0.1), (g2, 7, 9.0)]
    got = [perturbed_fiedler(g, v, x) for g, v, x in calls]
    for (g, v, x), r in zip(calls, got):
        _assert_same(r, _fresh(g, v, x))


def test_memo_equal_but_distinct_graph():
    g = generate("gnm", 12, 24, seed=4)
    twin = build_graph(g.n, g.edges)
    assert twin == g and twin is not g
    first = perturbed_fiedler(g, 5, 1.5)
    _assert_same(perturbed_fiedler(twin, 5, 1.5), first)
    _assert_same(perturbed_fiedler(g, 5, 1.5), _fresh(twin, 5, 1.5))
