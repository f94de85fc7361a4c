"""Golden outputs: every CLI subcommand on tiny pinned inputs.

The CSVs under tests/golden/ pin the behaviour of the package as it was
when they were added; a change to the numerical routes must reproduce them
without regenerating them. Floats are compared with
|a - b| <= 1e-9 * max(1, |ref|); integers, flags and strings exactly.

Regenerate (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""
import math
import re
from pathlib import Path

import pytest

from fiedlertools.cli import main
from fiedlertools.graphs import generate, write_edgelist
from fiedlertools.shape import synthetic_hooked_shape

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-9
_INT = re.compile(r"-?\d+")


def _edges(work: Path) -> str:
    path = work / "g12.edges"
    write_edgelist(generate("gnm", 12, 24, seed=5), path)
    return str(path)


def _hook_mask(work: Path) -> tuple[str, str]:
    mask, tip = synthetic_hooked_shape(
        bar_length=24, bar_width=2, hook_height=4, hook_width=2, overhang=4
    )
    path = work / "hook.txt"
    path.write_text("\n".join("".join("1" if b else "0" for b in row) for row in mask.values) + "\n")
    return str(path), f"{tip[0]},{tip[1]}"


def _argv_fiedler(work):
    return ["fiedler", _edges(work)]


def _argv_sweep(work):
    return [
        "perturb-sweep", _edges(work), "--vertex", "3",
        "--x-min", "0.01", "--x-max", "100", "--points", "9",
    ]


def _argv_fcd(work):
    return ["fcd", _edges(work)]


def _argv_centrality(work):
    return [
        "--seed", "7", "centrality-experiment",
        "--n", "10", "--m-range", "15:25:10", "--graphs-per-m", "2",
    ]


def _argv_shape(work):
    mask, anchor = _hook_mask(work)
    return ["shape", "--mask", mask, "--anchor", anchor, "--slices", "8"]


CASES = {
    "fiedler": (_argv_fiedler, ["spectrum.csv", "fiedler.csv"]),
    "perturb_sweep": (_argv_sweep, ["sweep.csv"]),
    "fcd": (_argv_fcd, ["fcd.csv"]),
    "centrality_experiment": (_argv_centrality, ["correlations.csv"]),
    "shape": (_argv_shape, ["profile.csv", "isolines.csv"]),
}


def _run(case: str, work: Path) -> dict[str, str]:
    argv_of, files = CASES[case]
    out = work / "out"
    assert main(["--out-dir", str(out), "--threads", "1"] + argv_of(work)) == 0
    return {name: (out / name).read_text() for name in files}


def _cell_matches(ref: str, got: str) -> bool:
    if ref == got:
        return True
    if _INT.fullmatch(ref) and _INT.fullmatch(got):
        return False
    try:
        a, b = float(ref), float(got)
    except ValueError:
        return False
    if math.isnan(a) or math.isinf(a) or math.isnan(b) or math.isinf(b):
        return False
    return abs(a - b) <= REL_TOL * max(1.0, abs(a))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    produced = _run(case, tmp_path)
    for name, text in produced.items():
        ref_lines = (GOLDEN / case / name).read_text().splitlines()
        got_lines = text.splitlines()
        assert got_lines[0] == ref_lines[0], f"{case}/{name}: header changed"
        assert len(got_lines) == len(ref_lines), f"{case}/{name}: row count changed"
        header = ref_lines[0].split(",")
        for lineno, (ref_line, got_line) in enumerate(zip(ref_lines, got_lines), start=1):
            ref_cells, got_cells = ref_line.split(","), got_line.split(",")
            assert len(ref_cells) == len(got_cells), f"{case}/{name} line {lineno}"
            for col, (r, g) in enumerate(zip(ref_cells, got_cells)):
                assert _cell_matches(r, g), (
                    f"{case}/{name} line {lineno}, column {header[col]}: "
                    f"golden {r}, got {g}"
                )


def test_cell_comparison_rules():
    assert _cell_matches("1", "1.0000000000000002")
    assert _cell_matches("0.5", "0.50000000000001")
    assert not _cell_matches("0.5", "0.5000001")
    assert not _cell_matches("3", "4")
    assert not _cell_matches("hit_xmax", "interior")
    assert _cell_matches("inf", "inf") and _cell_matches("nan", "nan")
    assert not _cell_matches("inf", "nan")
    assert not _cell_matches("1e300", "inf")


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            produced = _run(case, Path(tmp))
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name, text in produced.items():
            (GOLDEN / case / name).write_text(text)
