"""End-to-end acceptance checks for the whole library, one test per criterion.

Each test prints (and registers with the terminal-summary hook in conftest)
a single PASS/FAIL line, so a full run always ends with twelve verdicts.
Tolerances are part of the contract and are asserted exactly as stated in
each test; np.linalg.eigh appears only as an independent reference.
"""
import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from fiedlertools.centrality import correlation_experiment
from fiedlertools.cli import main as cli_main
from fiedlertools.eigen import eig_sym
from fiedlertools.fcd import FcdConfig, FcdSearchError, a_of_v
from fiedlertools.graphs import generate, laplacian, write_edgelist
from fiedlertools.perturbation import (
    complete_graph_large_x,
    perturbed_fiedler,
    small_x_limit,
    sweep,
)
from fiedlertools.shape import (
    anchored_parameterization,
    mask_to_graph,
    parameterize,
    synthetic_bent_tube,
    synthetic_hooked_shape,
    synthetic_rectangle,
    thickness_profile,
)
from fiedlertools.spectral import fiedler, first_order_perturbation

SEED = 20240915


def _criterion(num: int, name: str):
    """Wrap a check returning (ok, detail) into a reported assertion."""

    def deco(fn):
        @functools.wraps(fn)
        def run():
            try:
                ok, detail = fn()
            except Exception as exc:
                line = f"criterion {num:2d} [{name}]: FAIL - raised {exc!r}"
                print(line)
                conftest.record_acceptance(line)
                raise
            line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}"
            print(line)
            conftest.record_acceptance(line)
            assert ok, line

        return run

    return deco


@_criterion(1, "path-graph spectrum")
def test_criterion_01_path_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 10, 50, 100):
        got = eig_sym(laplacian(generate("path", n))).eigenvalues
        want = 4.0 * np.sin(np.pi * np.arange(n) / (2.0 * n)) ** 2
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    return ok, f"max abs error {worst:.3g} (< 1e-8), {elapsed:.2f} s (< 5 s)"


@_criterion(2, "edge-sum identity")
def test_criterion_02_courant_identity():
    worst = 0.0
    for k in range(100):
        g = generate("gnm", 20, 45, seed=SEED + k)
        res = fiedler(g)
        edge_sum = sum(w * (res.phi[u] - res.phi[v]) ** 2 for u, v, w in g.edges)
        worst = max(worst, abs(res.lambda2 - edge_sum))
    return worst < 1e-9, f"max |lambda2 - edge sum| = {worst:.3g} (< 1e-9) on 100 graphs"


@_criterion(3, "small-x limit")
def test_criterion_03_small_x_limit():
    limit = small_x_limit(20)
    worst_dist = 0.0
    all_extremal = True
    bound_ok = True
    for k in range(20):
        g = generate("gnm", 20, 45, seed=SEED + 40_000 + k)
        v = k % 20
        r = perturbed_fiedler(g, v, 1e-6)
        dist = min(
            float(np.linalg.norm(r.phi_x - limit)),
            float(np.linalg.norm(r.phi_x + limit)),
        )
        worst_dist = max(worst_dist, dist)
        all_extremal &= bool(np.argmax(np.abs(r.phi_x)) == 20)
        bound_ok &= r.lambda2_x <= 2e-6 + 1e-10
    ok = worst_dist < 1e-3 and all_extremal and bound_ok
    return ok, (
        f"max distance to limit {worst_dist:.3g} (< 1e-3), "
        f"pendant |phi|-extremal: {all_extremal}, lambda2 <= 2x+1e-10: {bound_ok}"
    )


@_criterion(4, "complete-graph asymptotics")
def test_criterion_04_complete_graph():
    worst_limit = 0.0
    worst_pred = 0.0
    for n in (5, 10, 20):
        g = generate("complete", n)
        lam_big = perturbed_fiedler(g, 0, 1e6).lambda2_x
        worst_limit = max(worst_limit, abs(lam_big - (n + 1) / 2.0))
        for x in (10.0, 1e3, 1e6):
            _, lam_pred = complete_graph_large_x(n, x)
            lam_eig = perturbed_fiedler(g, 0, x).lambda2_x
            worst_pred = max(worst_pred, abs(lam_pred - lam_eig))
    ok = worst_limit < 1e-2 and worst_pred < 1e-4
    return ok, (
        f"max |lambda2(1e6) - (n+1)/2| = {worst_limit:.3g} (< 1e-2), "
        f"max quadratic-vs-eigensolver gap {worst_pred:.3g} (< 1e-4)"
    )


@_criterion(5, "first-order error scaling")
def test_criterion_05_first_order_scaling():
    L = laplacian(generate("path", 10))
    s = eig_sym(L)
    E = np.zeros((10, 10))
    E[3, 3] = 1.0
    eps = np.array([1e-2, 1e-3, 1e-4])
    errs = []
    for e in eps:
        pred, _ = first_order_perturbation(L, e * E, s, 1)
        exact = eig_sym(L + e * E).eigenvalues[1]
        errs.append(abs(exact - pred))
    slope = float(np.polyfit(np.log(eps), np.log(errs), 1)[0])
    ok = 1.8 <= slope <= 2.2
    return ok, f"fitted error exponent {slope:.3f} (in [1.8, 2.2])"


@_criterion(6, "tree extrema are pendant")
def test_criterion_06_tree_extrema():
    violations = 0
    for k in range(100):
        n = 5 + (k * 7) % 46  # sizes spread over 5..50
        g = generate("random_tree", n, seed=SEED + 80_000 + k)
        phi = fiedler(g).phi
        for v in (int(np.argmax(phi)), int(np.argmin(phi))):
            if len(g.adjacency[v]) != 1:
                violations += 1
    return violations == 0, f"{violations} non-pendant extrema on 100 trees (need 0)"


@pytest.mark.slow
@_criterion(7, "threshold conjecture sweep")
def test_criterion_07_conjecture_sweep():
    xs = list(np.logspace(-3.0, 3.0, 200))
    h = 6.0 / 199.0
    cfg = FcdConfig()
    violations = []
    checked = 0
    for k in range(50):
        g = generate("gnm", 20, 45, seed=SEED + 120_000 + k)
        for v in ((3 * k) % 20, (3 * k + 1) % 20, (3 * k + 2) % 20):
            flags = [r.new_vertex_is_extremum for r in sweep(g, v, xs)]
            checked += 1
            if flags != sorted(flags, reverse=True):
                violations.append(
                    {"seed": SEED + 120_000 + k, "v": v, "kind": "non-monotone flags",
                     "flags": [int(f) for f in flags]}
                )
                continue
            try:
                res = a_of_v(g, v, cfg)
            except FcdSearchError:
                if any(flags):
                    violations.append(
                        {"seed": SEED + 120_000 + k, "v": v,
                         "kind": "bisection failed but sweep found extremal points"}
                    )
                continue
            if all(flags):
                if res.boundary_flag != "hit_xmax":
                    violations.append(
                        {"seed": SEED + 120_000 + k, "v": v,
                         "kind": "sweep all-extremal but bisection interior",
                         "a_v": res.a_v}
                    )
                continue
            last_true = math.log10(max(x for x, f in zip(xs, flags) if f))
            first_false = math.log10(min(x for x, f in zip(xs, flags) if not f))
            la = math.log10(res.a_v)
            if not (last_true - h - 1e-9 <= la <= first_false + h + 1e-9):
                violations.append(
                    {"seed": SEED + 120_000 + k, "v": v, "kind": "threshold mismatch",
                     "log10_a_v": la, "sweep_bracket": [last_true, first_false]}
                )
    if violations:
        archive = Path(__file__).parent / "criterion7_violations.json"
        archive.write_text(json.dumps(violations, indent=2) + "\n")
        return False, f"{len(violations)} violations archived to {archive}"
    return True, f"flag monotone and bisection within one grid step on {checked} (graph, vertex) pairs"


@_criterion(8, "fcd vanishes at base extrema")
def test_criterion_08_fcd_at_extrema():
    cases = [generate("path", n) for n in (4, 7, 10, 25)]
    cases += [generate("gnm", 20, 45, seed=SEED + 160_000 + k) for k in range(10)]
    bad = 0
    total = 0
    for g in cases:
        phi = fiedler(g).phi
        for v in {int(np.argmax(phi)), int(np.argmin(phi))}:
            res = a_of_v(g, v)
            total += 1
            if res.fcd != 0.0 or res.boundary_flag != "hit_xmax":
                bad += 1
    return bad == 0, f"{total - bad}/{total} base extrema have fcd = 0 with hit_xmax"


@pytest.mark.slow
@_criterion(9, "centrality correlation experiment")
def test_criterion_09_correlation_experiment():
    t0 = time.perf_counter()
    m_values = list(range(30, 161, 10))
    table = correlation_experiment(n=20, m_list=m_values, num_graphs=100, seed=SEED)
    elapsed = time.perf_counter() - t0
    complete = len(table.rows) == len(m_values) * 6 and sorted(
        {r.m for r in table.rows}
    ) == m_values
    mid = [
        r
        for r in table.rows
        if r.pair == "fcd_vs_closeness" and 60 <= r.m <= 120
    ]
    positive = bool(mid) and all(
        r.num_valid_graphs > 0 and r.mean_correlation > 0.0 for r in mid
    )
    mid_lo = min((r.mean_correlation for r in mid), default=math.nan)
    ok = elapsed < 1800.0 and complete and positive
    return ok, (
        f"{elapsed:.0f} s (< 1800 s), table {len(table.rows)} rows complete: {complete}, "
        f"fcd-vs-closeness mean correlation >= {mid_lo:.3f} > 0 for m in [60, 120]"
    )


@_criterion(10, "shape thickness pipeline")
def test_criterion_10_shape_pipeline():
    sg = mask_to_graph(synthetic_rectangle())
    p = parameterize(sg)
    lo_col = int(sg.coords[np.argmin(p.t), 1])
    hi_col = int(sg.coords[np.argmax(p.t), 1])
    ends_ok = {lo_col, hi_col} == {0, 59}
    prof = thickness_profile(sg, p, 20)
    band = (prof.levels >= 0.15) & (prof.levels <= 0.85)
    rect_dev = float(np.max(np.abs(prof.thickness[band] - 10.0))) / 10.0
    tube = mask_to_graph(synthetic_bent_tube())
    tprof = thickness_profile(tube, parameterize(tube), 12)
    tband = (tprof.levels >= 0.2) & (tprof.levels <= 0.8)
    tube_dev = float(np.max(np.abs(tprof.thickness[tband] - 12.0))) / 12.0
    ok = ends_ok and rect_dev <= 0.15 and tube_dev <= 0.20
    return ok, (
        f"extrema on columns {{{lo_col}, {hi_col}}}, rectangle thickness off by "
        f"{rect_dev:.1%} (<= 15%), tube off by {tube_dev:.1%} (<= 20%)"
    )


@_criterion(11, "anchored extremum correction")
def test_criterion_11_anchored_correction():
    mask, tip = synthetic_hooked_shape()
    sg = mask_to_graph(mask)
    v = sg.vertex_at(*tip)
    p = parameterize(sg)
    premise = int(np.argmax(p.t)) != v
    q = anchored_parameterization(sg, tip)
    relocated = int(np.argmax(q.t)) == v
    prof_p = thickness_profile(sg, p, 20)
    prof_q = thickness_profile(sg, q, 20)
    band = (prof_p.levels >= 0.2) & (prof_p.levels <= 0.8)
    rel = float(
        np.max(
            np.abs(prof_q.thickness[band] - prof_p.thickness[band])
            / prof_p.thickness[band]
        )
    )
    ok = premise and relocated and rel < 0.10
    return ok, (
        f"unperturbed argmax off tip: {premise}, anchored argmax at tip: {relocated}, "
        f"max mid-band thickness change {rel:.2%} (< 10%)"
    )


@_criterion(12, "byte-identical CLI reruns")
def test_criterion_12_cli_determinism():
    import tempfile

    root = Path(tempfile.mkdtemp(prefix="accept12-"))
    graph = root / "g.edges"
    write_edgelist(generate("gnm", 10, 18, seed=SEED), graph)
    mask = root / "m.txt"
    mask.write_text("\n".join("1" * 24 for _ in range(5)) + "\n")
    invocations = [
        ["fiedler", str(graph)],
        ["perturb-sweep", str(graph), "--vertex", "2", "--points", "25"],
        ["fcd", str(graph)],
        ["centrality-experiment", "--n", "8", "--m-range", "9:13:2", "--graphs-per-m", "3"],
        ["shape", "--mask", str(mask), "--slices", "8"],
    ]
    mismatched = []
    for idx, argv in enumerate(invocations):
        dirs = [root / f"run{idx}_{rep}" for rep in "ab"]
        for d in dirs:
            code = cli_main(["--out-dir", str(d), "--seed", "7", "--threads", "1"] + argv)
            if code != 0:
                mismatched.append(f"{argv[0]} exited {code}")
                break
        else:
            names = sorted(p.name for p in dirs[0].glob("*.csv"))
            if not names:
                mismatched.append(f"{argv[0]} wrote no CSV")
            for name in names:
                if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                    mismatched.append(f"{argv[0]}/{name}")
    ok = not mismatched
    detail = "all 5 subcommands reproduce their CSVs byte-for-byte" if ok else (
        "mismatches: " + ", ".join(mismatched)
    )
    return ok, detail
