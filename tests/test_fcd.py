"""Threshold search a(v), the sweep oracle, and whole-graph fcd vectors."""
import math

import numpy as np
import pytest

from fiedlertools import fcd, perturbation
from fiedlertools.eigen import ConvergenceError
from fiedlertools.fcd import (
    AbarSweep,
    FcdConfig,
    FcdResult,
    FcdSearchError,
    a_of_v,
    a_of_v_sweep,
    fcd_all,
)
from fiedlertools.graphs import build_graph, generate
from fiedlertools.spectral import fiedler

STEP_BOUND = math.ceil(math.log2((3.0 - (-3.0)) / 1e-3))


def test_config_validation():
    with pytest.raises(ValueError):
        FcdConfig(alpha=3.0, beta=-3.0)
    with pytest.raises(ValueError):
        FcdConfig(exp_tol=0.0)
    with pytest.raises(ValueError):
        FcdConfig(tie_tol=-1.0)
    cfg = FcdConfig()
    assert cfg.alpha == -3.0 and cfg.beta == 3.0


def test_path_end_vertex_hits_ceiling():
    g = generate("path", 10)
    for v in (0, 9):
        r = a_of_v(g, v)
        assert r.boundary_flag == "hit_xmax"
        assert r.fcd == 0.0
        assert r.a_v == math.inf


def test_path_center_vertex_interior():
    g = generate("path", 10)
    r = a_of_v(g, 5)
    assert r.boundary_flag == "interior"
    assert 0.0 < r.a_v < 1.0
    assert r.fcd == 1.0 / r.a_v
    assert r.steps <= STEP_BOUND


def test_bisection_agrees_with_dense_sweep():
    g = generate("path", 10)
    r = a_of_v(g, 5)
    grid = np.logspace(-3.0, 3.0, 200)
    sw = a_of_v_sweep(g, 5, grid)
    assert sw.monotone
    step = 6.0 / 199.0
    assert abs(math.log10(r.a_v) - math.log10(sw.abar)) <= step + 1e-9


def test_sweep_monotone_and_ceiling_sentinel():
    g = generate("complete", 5)
    sw = a_of_v_sweep(g, 2, np.logspace(-3, 3, 50))
    assert isinstance(sw, AbarSweep)
    assert sw.monotone
    assert all(sw.flags)
    assert sw.abar == math.inf


def test_sweep_requires_extremal_somewhere():
    g = generate("path", 10)
    with pytest.raises(FcdSearchError):
        a_of_v_sweep(g, 5, [100.0, 1000.0])


def test_search_failure_at_floor_is_diagnosed():
    g = generate("path", 10)
    cfg = FcdConfig(alpha=1.0, beta=3.0)
    with pytest.raises(FcdSearchError) as err:
        a_of_v(g, 5, cfg)
    assert "alpha" in str(err.value)


def test_step_count_honors_bound_seeded():
    for seed in range(5):
        g = generate("gnm", 14, 28, seed=seed)
        for v in range(0, 14, 5):
            r = a_of_v(g, v)
            assert r.steps <= STEP_BOUND
            assert r.boundary_flag in ("interior", "hit_xmax")


def test_fcd_zero_iff_ceiling_seeded():
    for seed in range(5):
        g = generate("gnm", 12, 22, seed=seed + 7)
        for r in fcd_all(g):
            assert (r.fcd == 0.0) == (r.boundary_flag == "hit_xmax")
            if r.boundary_flag == "interior":
                assert r.fcd == 1.0 / r.a_v


def test_path_profile_small_at_ends_large_at_center():
    g = generate("path", 10)
    rows = fcd_all(g)
    fcd = np.array([r.fcd for r in rows])
    assert fcd[0] == 0.0 and fcd[9] == 0.0
    assert np.allclose(fcd, fcd[::-1], rtol=1e-6)
    assert fcd.argmax() in (4, 5)
    assert fcd[4] > fcd[1] > 0.0


def test_complete_graph_all_identical():
    rows = fcd_all(generate("complete", 5))
    assert all(r.boundary_flag == "hit_xmax" for r in rows)
    assert all(r.fcd == 0.0 for r in rows)


def test_base_extrema_get_zero_seeded():
    for seed in range(4):
        g = generate("gnm", 20, 45, seed=seed)
        phi = fiedler(g).phi
        rows = fcd_all(g)
        for v in (int(np.argmax(phi)), int(np.argmin(phi))):
            assert rows[v].boundary_flag == "hit_xmax"
            assert rows[v].fcd == 0.0


def test_relabeling_permutes_fcd():
    g = generate("gnm", 10, 18, seed=3)
    perm = [7, 2, 9, 4, 0, 5, 8, 1, 6, 3]
    relabeled = build_graph(
        g.n, [(perm[u], perm[v], w) for u, v, w in g.edges]
    )
    rows = fcd_all(g)
    rows_p = fcd_all(relabeled)
    for v in range(g.n):
        a, b = rows[v], rows_p[perm[v]]
        assert a.boundary_flag == b.boundary_flag
        if a.boundary_flag == "interior":
            assert abs(math.log10(a.a_v) - math.log10(b.a_v)) < 2e-3


def _same_row(a, b):
    return (
        a.v == b.v
        and a.boundary_flag == b.boundary_flag
        and a.steps == b.steps
        and (a.a_v == b.a_v or (math.isnan(a.a_v) and math.isnan(b.a_v)))
        and (a.fcd == b.fcd or (math.isnan(a.fcd) and math.isnan(b.fcd)))
    )


def test_fcd_all_parallel_matches_serial():
    for g in (generate("gnm", 10, 16, seed=1), generate("gnm", 20, 60, seed=2)):
        serial = fcd_all(g)
        parallel = fcd_all(g, workers=2)
        assert len(serial) == len(parallel) == g.n
        for a, b in zip(serial, parallel):
            assert a.v == b.v
            assert a.boundary_flag == b.boundary_flag
            assert a.fcd == pytest.approx(b.fcd, abs=1e-12)
            assert _same_row(a, b), (a, b)


def _reference_row(g, v):
    try:
        return a_of_v(g, v)
    except FcdSearchError:
        return FcdResult(v=v, a_v=math.nan, fcd=math.nan, steps=0, boundary_flag="hit_xmin")
    except ConvergenceError:
        return FcdResult(v=v, a_v=math.nan, fcd=math.nan, steps=0, boundary_flag="not_converged")


def _gnm_grid():
    # the correlation experiment's graphs: G(20, m) over its m grid
    return [generate("gnm", 20, m, seed=seed) for m in range(30, 161, 10) for seed in (11, 12)]


def _weighted_gnm():
    rng = np.random.default_rng(5)
    out = []
    for seed, (n, m) in enumerate([(5, 6), (9, 14), (14, 30), (23, 40), (29, 90)]):
        g = generate("gnm", n, m, seed=seed)
        out.append(build_graph(n, [(u, v, 10.0 ** rng.uniform(-2, 2)) for u, v, _ in g.edges]))
    return out


def test_fcd_all_rows_equal_single_vertex_searches():
    # the lockstep search makes a_of_v's probes, so flags, thresholds and
    # step counts agree exactly, not just within the bisection width
    for g in _gnm_grid() + _weighted_gnm():
        rows = fcd_all(g)
        assert isinstance(rows, fcd.FcdTable) and len(rows) == g.n
        for v in range(g.n):
            assert _same_row(rows[v], _reference_row(g, v)), (g.n, g.num_edges, v)


def test_fcd_all_sends_few_probes_to_the_single_anchor_route(monkeypatch):
    calls = []
    spectra = []
    real = fcd.perturbed_fiedler
    real_eig = perturbation.eig_sym

    def counting(g, v, x, tie_tol):
        calls.append((v, x))
        return real(g, v, x, tie_tol)

    def counting_eig(M):
        spectra.append(M.shape)
        return real_eig(M)

    monkeypatch.setattr(fcd, "perturbed_fiedler", counting)
    monkeypatch.setattr(perturbation, "eig_sym", counting_eig)
    graphs = _gnm_grid()
    probes = 0
    for g in graphs:
        rows = fcd_all(g)
        for flag, steps in zip(rows.boundary_flag, rows.steps):
            assert flag in ("interior", "hit_xmax")
            probes += 2 + int(steps)
    # one eigendecomposition per graph; recovery probes are the only others
    assert len(spectra) == len(graphs)
    assert probes > 3000
    assert len(calls) < 0.02 * probes, (len(calls), probes)


def test_fcd_all_table_columns():
    g = generate("path", 10)
    rows = fcd_all(g)
    assert [r.v for r in rows] == list(range(10))
    assert np.array_equal(rows.fcd, np.array([r.fcd for r in rows]))
    assert np.array_equal(rows.a_v, np.array([r.a_v for r in rows]))
    assert list(rows.steps) == [r.steps for r in rows]
    assert list(rows.boundary_flag) == [r.boundary_flag for r in rows]
    assert rows[-1] == rows[9]
    with pytest.raises(IndexError):
        rows[10]


def test_fcd_all_reports_nonconverged_vertex(monkeypatch):
    real = fcd.perturbed_fiedler
    real_batch = fcd.pendant_extremal_batch

    def failing_at_2(g, v, x, tie_tol):
        if v == 2:
            raise ConvergenceError("probe failed")
        return real(g, v, x, tie_tol)

    def batch_failing_at_2(spectrum, vs, xs, tie_tol):
        # the batched probe hands anchor 2 to perturbed_fiedler
        flags, ok = real_batch(spectrum, vs, xs, tie_tol)
        return flags, ok & (vs != 2)

    monkeypatch.setattr(fcd, "perturbed_fiedler", failing_at_2)
    monkeypatch.setattr(fcd, "pendant_extremal_batch", batch_failing_at_2)
    g = generate("path", 6)
    rows = fcd_all(g)
    assert [r.boundary_flag == "not_converged" for r in rows] == [v == 2 for v in range(6)]
    assert math.isnan(rows[2].a_v) and math.isnan(rows[2].fcd) and rows[2].steps == 0
    with pytest.raises(ConvergenceError):
        a_of_v(g, 2)


def test_fcd_all_survives_graded_path():
    # weights over 16 decades: some probes raise ConvergenceError, and
    # fcd_all reports exactly those vertices instead of aborting
    g = build_graph(4, [(0, 1, 1e-8), (1, 2, 1.0), (2, 3, 1e8)])
    rows = fcd_all(g)
    assert [r.v for r in rows] == [0, 1, 2, 3]
    for r in rows:
        try:
            a_of_v(g, r.v)
        except ConvergenceError:
            assert r.boundary_flag == "not_converged"
            assert math.isnan(r.a_v) and math.isnan(r.fcd)
        except FcdSearchError:
            assert r.boundary_flag == "hit_xmin"
        else:
            assert r.boundary_flag in ("interior", "hit_xmax")


def test_result_fields():
    r = a_of_v(generate("path", 6), 2)
    assert isinstance(r, FcdResult)
    assert set(r.__dataclass_fields__) == {"v", "a_v", "fcd", "steps", "boundary_flag"}
