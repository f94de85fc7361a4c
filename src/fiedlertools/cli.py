"""Command-line interface: reproducible experiments with CSV/SVG outputs.

Exit codes: 0 success, 1 input/usage error, 2 graph precondition violation,
3 domain precondition violation, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .centrality import correlation_experiment
# eig_sym stays importable from this module: perfbench/tracer.py wraps cli.eig_sym by name
from .eigen import ConvergenceError, eig_sym, eigvals_sym  # noqa: F401
from .fcd import FcdConfig, a_of_v, fcd_all
from .graphs import DisconnectedGraphError, EdgeListParseError, laplacian, read_edgelist
from .perturbation import sweep
from .shape import (
    MaskParseError,
    anchored_parameterization,
    load_mask,
    mask_to_graph,
    parameterize,
    thickness_profile,
)
from .spectral import fiedler
from .svgplot import Series, line_chart, shape_scene

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GRAPH = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap to the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _out_path(args, name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    if path.exists() and not args.force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lines) - 1} rows)")


def _workers(args) -> int | None:
    return args.threads if args.threads and args.threads > 1 else None


def cmd_fiedler(args) -> int:
    g = read_edgelist(args.graph)
    spectrum_path = _out_path(args, "spectrum.csv")
    fiedler_path = _out_path(args, "fiedler.csv")
    res = fiedler(g)
    spectrum = eigvals_sym(laplacian(g))
    _write_csv(
        spectrum_path,
        ["index", "eigenvalue"],
        [(i, float(v)) for i, v in enumerate(spectrum)],
    )
    _write_csv(
        fiedler_path,
        ["vertex", "value"],
        [(v, float(res.phi[v])) for v in range(g.n)],
    )
    print(f"lambda2 = {res.lambda2:.17g}")
    print(f"gap = {res.gap:.17g}")
    print(f"lambda1_residual = {res.lambda1_residual:.17g}")
    if res.degenerate:
        print("warning: lambda2 is numerically repeated; the Fiedler vector is not unique")
    return EXIT_OK


def cmd_perturb_sweep(args) -> int:
    g = read_edgelist(args.graph)
    if not 0 <= args.vertex < g.n:
        raise ValueError(f"vertex {args.vertex} outside range({g.n})")
    if args.x_min <= 0:
        raise ValueError("x-min must be positive")
    if args.points < 1:
        raise ValueError("points must be >= 1")
    if args.points > 1 and args.x_max <= args.x_min:
        raise ValueError("x-max must exceed x-min")
    csv_path = _out_path(args, "sweep.csv")
    svg_path = _out_path(args, "sweep.svg") if args.svg else None
    if args.points == 1:
        xs = [args.x_min]
    else:
        xs = list(np.logspace(math.log10(args.x_min), math.log10(args.x_max), args.points))
    results = sweep(g, args.vertex, xs)
    header = ["x", "lambda2"] + [f"phi_{i}" for i in range(g.n + 1)] + ["is_extremum"]
    rows = [
        [r.x, r.lambda2_x] + [float(p) for p in r.phi_x] + [int(r.new_vertex_is_extremum)]
        for r in results
    ]
    _write_csv(csv_path, header, rows)
    if svg_path is not None:
        base = fiedler(g)
        traced: dict[int, tuple[str, str]] = {
            args.vertex: (f"phi[{args.vertex}] (anchor)", "#1f77b4"),
            g.n: ("phi[pendant]", "#d62728"),
        }
        for tag, idx in (("argmax", int(np.argmax(base.phi))), ("argmin", int(np.argmin(base.phi)))):
            traced.setdefault(idx, (f"phi[{idx}] (base {tag})", "#000000"))
        series = [
            Series(label=label, xs=xs, ys=[float(r.phi_x[i]) for r in results], color=color)
            for i, (label, color) in traced.items()
        ]
        vlines = []
        threshold = a_of_v(g, args.vertex)
        if threshold.boundary_flag == "interior":
            vlines.append((threshold.a_v, "a(v)"))
        line_chart(
            svg_path,
            series,
            title=f"Fiedler entries vs pendant weight (anchor {args.vertex})",
            x_label="pendant weight x",
            y_label="Fiedler entry",
            x_log=True,
            vlines=vlines,
        )
        print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_fcd(args) -> int:
    g = read_edgelist(args.graph)
    try:
        alpha_s, beta_s = args.exponents.split(",")
        cfg = FcdConfig(alpha=float(alpha_s), beta=float(beta_s), exp_tol=args.exp_tol)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad --exponents {args.exponents!r}: {exc}") from exc
    csv_path = _out_path(args, "fcd.csv")
    results = fcd_all(g, cfg, workers=_workers(args))
    _write_csv(
        csv_path,
        ["vertex", "a_v", "fcd", "steps", "boundary_flag"],
        [(r.v, r.a_v, r.fcd, r.steps, r.boundary_flag) for r in results],
    )
    return EXIT_OK


def cmd_centrality_experiment(args) -> int:
    try:
        start_s, stop_s, step_s = args.m_range.split(":")
        start, stop, step = int(start_s), int(stop_s), int(step_s)
    except ValueError:
        raise ValueError(f"bad --m-range {args.m_range!r}; expected start:stop:step") from None
    if step < 1 or stop < start:
        raise ValueError(f"bad --m-range {args.m_range!r}")
    m_list = list(range(start, stop + 1, step))
    csv_path = _out_path(args, "correlations.csv")
    svg_path = _out_path(args, "correlations.svg") if args.svg else None
    table = correlation_experiment(
        args.n, m_list, args.graphs_per_m, args.seed, workers=_workers(args)
    )
    _write_csv(
        csv_path,
        [
            "m", "pair", "mean_correlation", "std_correlation", "num_valid_graphs",
            "mean_rank_correlation", "std_rank_correlation",
        ],
        [
            (
                r.m, r.pair, r.mean_correlation, r.std_correlation,
                r.num_valid_graphs, r.mean_rank_correlation, r.std_rank_correlation,
            )
            for r in table.rows
        ],
    )
    print(
        f"aggregation: per-graph Pearson (and rank) correlations, averaged over "
        f"{table.num_graphs} graphs per m; seed {table.seed}; "
        f"{table.failed_graphs} graphs dropped"
    )
    if svg_path is not None:
        series = []
        for pair in ("fcd_vs_betweenness", "fcd_vs_closeness", "fcd_vs_eigenvector"):
            rows = [r for r in table.rows if r.pair == pair]
            series.append(
                Series(
                    label=pair,
                    xs=[r.m for r in rows],
                    ys=[r.mean_correlation for r in rows],
                )
            )
        line_chart(
            svg_path,
            series,
            title=f"Centrality correlations on G({table.n}, m)",
            x_label="edge count m",
            y_label="mean Pearson correlation",
        )
        print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_shape(args) -> int:
    mask = load_mask(args.mask, args.spacing)
    sg = mask_to_graph(mask)
    profile_path = _out_path(args, "profile.csv")
    isolines_path = _out_path(args, "isolines.csv")
    svg_path = _out_path(args, "shape.svg") if args.svg else None
    anchor = None
    if args.anchor:
        try:
            r_s, c_s = args.anchor.split(",")
            anchor = (int(r_s), int(c_s))
        except ValueError:
            raise ValueError(f"bad --anchor {args.anchor!r}; expected row,col") from None
        p = anchored_parameterization(sg, anchor, c=args.c_factor)
        if p.note:
            print(p.note)
    else:
        p = parameterize(sg)
    prof = thickness_profile(sg, p, args.slices)
    _write_csv(
        profile_path,
        ["level", "t", "thickness", "flag"],
        [
            (k, float(prof.levels[k]), float(prof.thickness[k]),
             "empty" if prof.empty[k] else "ok")
            for k in range(args.slices)
        ],
    )
    iso_rows = []
    for k, polylines in enumerate(prof.isolines):
        idx = 0
        for poly in polylines:
            for x, y in poly:
                iso_rows.append((k, idx, float(x), float(y)))
                idx += 1
    _write_csv(isolines_path, ["level", "point_index", "x", "y"], iso_rows)
    vmax = int(np.argmax(p.t))
    vmin = int(np.argmin(p.t))
    min_px = (int(sg.coords[vmin][0]), int(sg.coords[vmin][1]))
    max_px = (int(sg.coords[vmax][0]), int(sg.coords[vmax][1]))
    print(f"t-min pixel: {min_px}  t-max pixel: {max_px}")
    if anchor is not None:
        located = "yes" if max_px == anchor else "no"
        print(f"anchor {anchor} is argmax of t: {located}")
    if svg_path is not None:
        markers = [
            (float(sg.coords[vmax][1]), float(sg.coords[vmax][0]), "#2ca02c"),
            (float(sg.coords[vmin][1]), float(sg.coords[vmin][0]), "#9467bd"),
        ]
        if anchor is not None:
            markers.append((float(anchor[1]), float(anchor[0]), "#d62728"))
        shape_scene(
            svg_path,
            mask.values,
            isolines=prof.isolines,
            markers=markers,
            title=f"{args.slices} slices, spacing {args.spacing:g}",
        )
        print(f"wrote {svg_path}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="fiedlertools", description=__doc__)
    parser.add_argument("--out-dir", default=".", help="output directory (default: .)")
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")
    parser.add_argument("--seed", type=int, default=0, help="seed for random operations")
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count(),
        help="worker cap for parallel stages (default: available cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fiedler", help="spectrum and Fiedler vector of an edge-list graph")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=cmd_fiedler)

    p = sub.add_parser("perturb-sweep", help="Fiedler traces over a pendant-weight grid")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--vertex", type=int, required=True, help="anchor vertex")
    p.add_argument("--x-min", type=float, default=0.01)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=50, help="log-spaced grid size")
    p.add_argument("--svg", action="store_true", help="also write sweep.svg")
    p.set_defaults(func=cmd_perturb_sweep)

    p = sub.add_parser("fcd", help="Fiedler centrality distance of every vertex")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--exponents", default="-3,3", help="search window exponents alpha,beta")
    p.add_argument("--exp-tol", type=float, default=1e-3, help="bisection width on log10(x)")
    p.set_defaults(func=cmd_fcd)

    p = sub.add_parser(
        "centrality-experiment",
        help="correlations between fcd and classical centralities on G(n, m)",
    )
    p.add_argument("--n", type=int, default=20, help="vertex count")
    p.add_argument("--m-range", default="30:160:10", help="edge counts start:stop:step (inclusive)")
    p.add_argument("--graphs-per-m", type=int, default=100)
    p.add_argument("--svg", action="store_true", help="also write correlations.svg")
    p.set_defaults(func=cmd_centrality_experiment)

    p = sub.add_parser("shape", help="longitudinal parameterization and thickness of a mask")
    p.add_argument("--mask", required=True, help="text 0/1 grid or PGM file")
    p.add_argument("--slices", type=int, default=50)
    p.add_argument("--anchor", default=None, help="row,col pixel forced to t=1")
    p.add_argument("--c-factor", type=float, default=0.9, help="pendant weight as fraction of a(v)")
    p.add_argument("--spacing", type=float, default=1.0, help="physical units per pixel")
    p.add_argument("--svg", action="store_true", help="also write shape.svg")
    p.set_defaults(func=cmd_shape)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListParseError, MaskParseError, FileExistsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRAPH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ConvergenceError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
