"""Command-line interface: exit codes, output files, determinism."""
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fiedlertools
from fiedlertools import cli
from fiedlertools.cli import main
from fiedlertools.eigen import ConvergenceError, eig_sym
from fiedlertools.graphs import generate, laplacian, read_edgelist, write_edgelist
from fiedlertools.shape import synthetic_hooked_shape
from fiedlertools.spectral import fiedler


def _p3(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text("3 2\n0 1\n1 2\n")
    return str(path)


def _gnm(tmp_path, n=8, m=12, seed=3):
    path = tmp_path / "g.edges"
    write_edgelist(generate("gnm", n, m, seed=seed), path)
    return str(path)


def _read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_fiedler_writes_spectrum_and_vector(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "fiedler", _p3(tmp_path)]) == 0
    header, rows = _read_rows(out / "spectrum.csv")
    assert header == ["index", "eigenvalue"]
    assert np.allclose([float(r[1]) for r in rows], [0.0, 1.0, 3.0], atol=1e-9)
    exact = eig_sym(laplacian(read_edgelist(_p3(tmp_path)))).eigenvalues
    assert [float(r[1]) for r in rows] == exact.tolist()
    header, rows = _read_rows(out / "fiedler.csv")
    assert header == ["vertex", "value"]
    vals = [float(r[1]) for r in rows]
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(vals, [s, 0.0, -s], atol=1e-9)
    text = capsys.readouterr().out
    assert "lambda2 = 1" in text and "gap" in text


def test_missing_graph_file_is_input_error(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "fiedler", str(tmp_path / "nope")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_edgelist_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 2\n0 1\nbogus line\n")
    assert main(["--out-dir", str(tmp_path), "fiedler", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_disconnected_graph_exit_code(tmp_path, capsys):
    bad = tmp_path / "disc.edges"
    bad.write_text("4 2\n0 1\n2 3\n")
    for cmd in (["fiedler"], ["perturb-sweep", "--vertex", "0"], ["fcd"]):
        assert main(["--out-dir", str(tmp_path), cmd[0], str(bad), *cmd[1:]]) == 2, cmd
        assert "error:" in capsys.readouterr().err


def test_domain_errors_exit_three(tmp_path, capsys):
    graph = _p3(tmp_path)
    assert main(["--out-dir", str(tmp_path), "perturb-sweep", graph, "--vertex", "99"]) == 3
    assert main(["--out-dir", str(tmp_path), "fcd", graph, "--exponents", "oops"]) == 3
    capsys.readouterr()


def test_graded_path_exit_code_follows_fiedler(tmp_path, capsys):
    # the path with weights (1e-8, 1, 1e8) is at the limit of the solver:
    # whatever fiedler does there, the CLI reports it with exit 0 or 4
    path = tmp_path / "graded.edges"
    path.write_text("4 3\n0 1 1e-8\n1 2 1\n2 3 1e8\n")
    try:
        fiedler(read_edgelist(str(path)))
    except ConvergenceError:
        expected = 4
    else:
        expected = 0
    assert main(["--out-dir", str(tmp_path / "out"), "fiedler", str(path)]) == expected
    if expected == 4:
        assert "error:" in capsys.readouterr().err


def test_existing_outputs_need_force(tmp_path, capsys):
    out = tmp_path / "out"
    graph = _p3(tmp_path)
    assert main(["--out-dir", str(out), "fiedler", graph]) == 0
    assert main(["--out-dir", str(out), "fiedler", graph]) == 1
    assert "--force" in capsys.readouterr().err
    assert main(["--out-dir", str(out), "--force", "fiedler", graph]) == 0


def test_usage_errors_exit_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "perturb-sweep", _p3(tmp_path)])
    assert exc.value.code == 1


def test_perturb_sweep_single_point(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["--out-dir", str(out), "perturb-sweep", _p3(tmp_path),
         "--vertex", "0", "--points", "1", "--x-min", "0.5"]
    )
    assert code == 0
    header, rows = _read_rows(out / "sweep.csv")
    assert header == ["x", "lambda2", "phi_0", "phi_1", "phi_2", "phi_3", "is_extremum"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.5
    assert rows[0][-1] in ("0", "1")
    capsys.readouterr()


def test_perturb_sweep_svg(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["--out-dir", str(out), "perturb-sweep", _gnm(tmp_path),
         "--vertex", "0", "--points", "8", "--svg"]
    )
    assert code == 0
    assert (out / "sweep.svg").read_text().startswith("<svg")
    capsys.readouterr()


def test_fcd_columns_and_path_values(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "fcd", _p3(tmp_path)]) == 0
    header, rows = _read_rows(out / "fcd.csv")
    assert header == ["vertex", "a_v", "fcd", "steps", "boundary_flag"]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert rows[0][4] == "hit_xmax" and float(rows[0][2]) == 0.0
    assert rows[1][4] == "interior" and float(rows[1][2]) > 0.0
    capsys.readouterr()


def test_fcd_output_is_deterministic(tmp_path, capsys):
    graph = _gnm(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(out1), "fcd", graph]) == 0
    assert main(["--out-dir", str(out2), "fcd", graph]) == 0
    assert (out1 / "fcd.csv").read_bytes() == (out2 / "fcd.csv").read_bytes()
    capsys.readouterr()


def test_fcd_threads_match_serial(tmp_path, capsys, monkeypatch):
    # one process unless --threads asks for more
    seen = []
    real = cli.fcd_all

    def recording(g, cfg, workers=None):
        seen.append(workers)
        return real(g, cfg, workers=workers)

    monkeypatch.setattr(cli, "fcd_all", recording)
    graph = _gnm(tmp_path)
    out1, out2 = tmp_path / "serial", tmp_path / "pooled"
    assert main(["--out-dir", str(out1), "fcd", graph]) == 0
    assert main(["--out-dir", str(out2), "--threads", "2", "fcd", graph]) == 0
    assert seen == [None, 2]
    assert (out1 / "fcd.csv").read_bytes() == (out2 / "fcd.csv").read_bytes()
    capsys.readouterr()


def test_centrality_experiment_table(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["--out-dir", str(out), "--seed", "5", "centrality-experiment",
         "--n", "7", "--m-range", "8:10:2", "--graphs-per-m", "2"]
    )
    assert code == 0
    header, rows = _read_rows(out / "correlations.csv")
    assert header == [
        "m", "pair", "mean_correlation", "std_correlation", "num_valid_graphs",
        "mean_rank_correlation", "std_rank_correlation",
    ]
    assert len(rows) == 2 * 6
    assert {r[0] for r in rows} == {"8", "10"}
    assert "aggregation" in capsys.readouterr().out


def _write_mask(path, values):
    path.write_text("\n".join("".join("1" if v else "0" for v in row) for row in values) + "\n")


def test_shape_profile_and_pixel_report(tmp_path, capsys):
    mask_path = tmp_path / "rect.txt"
    _write_mask(mask_path, np.ones((6, 30), dtype=bool))
    out = tmp_path / "out"
    code = main(["--out-dir", str(out), "shape", "--mask", str(mask_path), "--slices", "6"])
    assert code == 0
    header, rows = _read_rows(out / "profile.csv")
    assert header == ["level", "t", "thickness", "flag"]
    assert len(rows) == 6 and all(r[3] == "ok" for r in rows)
    _, iso_rows = _read_rows(out / "isolines.csv")
    assert iso_rows
    assert "t-min pixel:" in capsys.readouterr().out


def test_shape_anchor_metadata(tmp_path, capsys):
    mask, tip = synthetic_hooked_shape(
        bar_length=40, bar_width=4, hook_height=8, hook_width=3, overhang=5
    )
    mask_path = tmp_path / "hook.txt"
    _write_mask(mask_path, mask.values)
    out = tmp_path / "out"
    code = main(
        ["--out-dir", str(out), "shape", "--mask", str(mask_path),
         "--slices", "8", "--anchor", f"{tip[0]},{tip[1]}", "--svg"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert f"anchor {tip} is argmax of t: yes" in text
    assert (out / "shape.svg").exists()


def test_shape_anchor_errors(tmp_path, capsys):
    mask_path = tmp_path / "rect.txt"
    _write_mask(mask_path, np.ones((4, 20), dtype=bool))
    base = ["--out-dir", str(tmp_path / "o1"), "shape", "--mask", str(mask_path)]
    assert main(base + ["--anchor", "99,99"]) == 3
    assert main(base + ["--anchor", "nonsense"]) == 3
    capsys.readouterr()


def test_shape_rejects_bad_mask(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("012\n120\n")
    assert main(["--out-dir", str(tmp_path), "shape", "--mask", str(bad)]) == 1
    capsys.readouterr()


def _console_script(args, **env_extra):
    """Run the console script, or the module the same way when not installed."""
    exe = shutil.which("fiedlertools")
    env = dict(os.environ, **env_extra)
    if exe is None:
        cmd = [sys.executable, "-m", "fiedlertools.cli"] + args
        src = str(Path(fiedlertools.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    else:
        cmd = [exe] + args
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_console_script_help():
    proc = _console_script(["--help"])
    assert proc.returncode == 0
    assert "perturb-sweep" in proc.stdout


def test_csvs_do_not_depend_on_blas_threads(tmp_path):
    # fcd_all's batched products go through BLAS; the CSVs must not change
    # with the number of threads BLAS may use
    graph = tmp_path / "g.edges"
    write_edgelist(generate("gnm", 90, 250, seed=4), graph)
    invocations = [
        ["fcd", str(graph)],
        ["centrality-experiment", "--n", "20", "--m-range", "30:160:65", "--graphs-per-m", "2"],
    ]
    for idx, argv in enumerate(invocations):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"run{idx}_{threads}"
            proc = _console_script(
                ["--out-dir", str(out), "--seed", "3"] + argv, OPENBLAS_NUM_THREADS=threads
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        assert names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (argv[0], name)
