"""Longitudinal parameterization and thickness profiling of 2D binary shapes.

An elongated binary mask becomes a 4-connected unit-weight grid graph on its
pixel centers; the Fiedler vector of that graph varies monotonically along
the elongation and its level sets cut across it. Equalizing the per-level
mean gradient magnitude turns the raw Fiedler values into a parameter t in
[0, 1] whose level sets are roughly equally spaced in physical length, and
the in-shape arc length of each level set estimates local thickness.

When the natural Fiedler extremum sits slightly off the anatomically
meaningful tip, a pendant vertex anchored at the tip with weight just below
the extremality threshold a(v) relocates the extremum without disturbing
the parameterization elsewhere.
"""
from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fcd import FcdConfig, a_of_v
from .graphs import Graph, build_graph
from .perturbation import perturbed_fiedler
from .spectral import fiedler

GRADIENT_BINS = 64


class MaskParseError(ValueError):
    """Unreadable or structurally invalid mask file."""


@dataclass
class MaskImage:
    """Binary pixel grid; values[row, col] is True on the foreground."""

    values: np.ndarray
    spacing: float = 1.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=bool)
        if self.values.ndim != 2:
            raise ValueError("mask must be a 2D grid")
        if self.spacing <= 0.0 or not math.isfinite(self.spacing):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if not self.values.any():
            raise ValueError("mask has no foreground pixels")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _parse_pgm(data: bytes) -> np.ndarray:
    # header tokens (magic, width, height, maxval) with '#' comments
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise MaskParseError("truncated PGM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace() and data[end : end + 1] != b"#":
                end += 1
            tokens.append(data[pos:end])
            pos = end
    magic = tokens[0]
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise MaskParseError("non-integer PGM header fields") from None
    if width < 1 or height < 1 or maxval < 1:
        raise MaskParseError(f"bad PGM dimensions {width}x{height}, maxval {maxval}")
    if maxval > 255:
        raise MaskParseError("PGM with maxval > 255 (two-byte samples) not supported")
    if magic == b"P2":
        # a '#' comments out the rest of its line, in the body as in the header
        body = b"\n".join(line.split(b"#", 1)[0] for line in data[pos:].splitlines())
        try:
            samples = [int(t) for t in body.split()]
        except ValueError:
            raise MaskParseError("non-integer sample in P2 body") from None
    else:
        pos += 1  # single whitespace after maxval
        raw = data[pos : pos + width * height]
        samples = list(raw)
    if len(samples) < width * height:
        raise MaskParseError(
            f"PGM body has {len(samples)} samples, expected {width * height}"
        )
    arr = np.array(samples[: width * height], dtype=int).reshape(height, width)
    return arr > 127


def _parse_text_mask(text: str) -> np.ndarray:
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        digits = list("".join(parts))
        if any(d not in "01" for d in digits):
            raise MaskParseError(f"line {lineno}: mask entries must be 0 or 1")
        rows.append([int(d) for d in digits])
    if not rows:
        raise MaskParseError("empty mask file")
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise MaskParseError(f"row {i + 1} has {len(r)} entries, expected {width}")
    return np.array(rows, dtype=bool)


def load_mask(path: str | Path, spacing: float = 1.0) -> MaskImage:
    """Read a mask from a text 0/1 grid or a PGM file (P2/P5, threshold >127)."""
    data = Path(path).read_bytes()
    if data[:2] in (b"P2", b"P5"):
        values = _parse_pgm(data)
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            raise MaskParseError("file is neither PGM nor readable text") from None
        values = _parse_text_mask(text)
    return MaskImage(values=values, spacing=spacing)


@dataclass
class ShapeGraph:
    """Grid graph of the retained foreground component.

    Vertex i sits at pixel (coords[i, 0], coords[i, 1]) = (row, col), in
    row-major scan order; edges join 4-adjacent foreground pixels with unit
    weight.
    """

    graph: Graph
    coords: np.ndarray
    mask_shape: tuple[int, int]
    spacing: float

    def vertex_at(self, row: int, col: int) -> int:
        hits = np.nonzero((self.coords[:, 0] == row) & (self.coords[:, 1] == col))[0]
        if hits.size == 0:
            raise ValueError(f"pixel ({row}, {col}) is not in the retained component")
        return int(hits[0])


def mask_to_graph(mask: MaskImage) -> ShapeGraph:
    """4-connected unit-weight graph on the largest foreground component.

    Smaller components are dropped with a warning listing their sizes.
    """
    vals = mask.values
    H, W = vals.shape
    label = np.full((H, W), -1, dtype=int)
    sizes: list[int] = []
    for r in range(H):
        for c in range(W):
            if vals[r, c] and label[r, c] < 0:
                comp = len(sizes)
                queue = deque([(r, c)])
                label[r, c] = comp
                count = 0
                while queue:
                    rr, cc = queue.popleft()
                    count += 1
                    for r2, c2 in ((rr - 1, cc), (rr + 1, cc), (rr, cc - 1), (rr, cc + 1)):
                        if 0 <= r2 < H and 0 <= c2 < W and vals[r2, c2] and label[r2, c2] < 0:
                            label[r2, c2] = comp
                            queue.append((r2, c2))
                sizes.append(count)
    keep = int(np.argmax(sizes))
    if len(sizes) > 1:
        dropped = [s for i, s in enumerate(sizes) if i != keep]
        warnings.warn(
            f"mask has {len(sizes)} components; keeping the largest "
            f"({sizes[keep]} px), dropping sizes {dropped}",
            stacklevel=2,
        )
    coords = []
    index = np.full((H, W), -1, dtype=int)
    for r in range(H):
        for c in range(W):
            if label[r, c] == keep:
                index[r, c] = len(coords)
                coords.append((r, c))
    edges = []
    for i, (r, c) in enumerate(coords):
        if c + 1 < W and index[r, c + 1] >= 0:
            edges.append((i, int(index[r, c + 1]), 1.0))
        if r + 1 < H and index[r + 1, c] >= 0:
            edges.append((i, int(index[r + 1, c]), 1.0))
    graph = build_graph(len(coords), edges)
    return ShapeGraph(
        graph=graph,
        coords=np.array(coords, dtype=int),
        mask_shape=(H, W),
        spacing=mask.spacing,
    )


@dataclass
class Parameterization:
    """Per-vertex longitudinal coordinate t in [0, 1] and its source field.

    ``arc_length_map`` is the piecewise-linear monotone remap (phi knots,
    t knots) that took phi to t. t and 1-t describe the same geometry; the
    orientation follows the sign policy of the underlying Fiedler vector.
    """

    t: np.ndarray
    phi: np.ndarray
    arc_length_map: tuple[np.ndarray, np.ndarray]
    note: str | None = None


def _field_image(sg: ShapeGraph, values: np.ndarray) -> np.ndarray:
    img = np.full(sg.mask_shape, np.nan)
    img[sg.coords[:, 0], sg.coords[:, 1]] = values
    return img


def _gradient_magnitude(sg: ShapeGraph, values: np.ndarray) -> np.ndarray:
    """Finite-difference |grad| at each vertex: central where both neighbors
    exist, one-sided at shape boundaries, zero where a direction has no
    neighbor at all."""
    img = _field_image(sg, values)
    pad = np.pad(img, 1, constant_values=np.nan)
    center = pad[1:-1, 1:-1]
    up, down = pad[:-2, 1:-1], pad[2:, 1:-1]
    left, right = pad[1:-1, :-2], pad[1:-1, 2:]
    fu, fd = np.isfinite(up), np.isfinite(down)
    fl, fr = np.isfinite(left), np.isfinite(right)
    dr = np.where(
        fu & fd,
        0.5 * (down - up),
        np.where(fd, down - center, np.where(fu, center - up, 0.0)),
    )
    dc = np.where(
        fl & fr,
        0.5 * (right - left),
        np.where(fr, right - center, np.where(fl, center - left, 0.0)),
    )
    g = np.hypot(dr, dc)
    return g[sg.coords[:, 0], sg.coords[:, 1]]


def _equalized_remap(
    sg: ShapeGraph, phi: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Monotone remap of phi to [0, 1] equalizing mean gradient per level.

    The phi range is split into uniform bins; each bin's physical extent is
    its phi width divided by the mean |grad phi| inside it, and t is the
    normalized cumulative extent. Empty bins borrow the nearest estimated
    value (constant extrapolation on the bin index).
    """
    lo = float(phi.min())
    hi = float(phi.max())
    span = hi - lo
    if span <= 0.0:
        raise ValueError("field is constant; no longitudinal direction to equalize")
    nb = GRADIENT_BINS
    which = np.clip(((phi - lo) / span * nb).astype(int), 0, nb - 1)
    gmag = _gradient_magnitude(sg, phi)
    sums = np.zeros(nb)
    counts = np.zeros(nb)
    np.add.at(sums, which, gmag)
    np.add.at(counts, which, 1.0)
    filled = counts > 0
    g = np.zeros(nb)
    g[filled] = sums[filled] / counts[filled]
    if not filled.all():
        # nearest filled bin, lower index on ties
        idx_filled = np.nonzero(filled)[0]
        for k in np.nonzero(~filled)[0]:
            nearest = idx_filled[np.argmin(np.abs(idx_filled - k))]
            g[k] = g[nearest]
    g = np.maximum(g, 1e-12 * float(g.max()))
    knots_phi = np.linspace(lo, hi, nb + 1)
    extents = (span / nb) / g
    knots_t = np.concatenate([[0.0], np.cumsum(extents)])
    knots_t /= knots_t[-1]
    t = np.interp(phi, knots_phi, knots_t)
    return t, (knots_phi, knots_t)


def parameterize(sg: ShapeGraph) -> Parameterization:
    """Fiedler-based longitudinal coordinate of a connected shape graph."""
    res = fiedler(sg.graph)
    if res.degenerate:
        warnings.warn(
            "lambda2 of the shape graph is numerically repeated; the "
            "longitudinal direction is ambiguous",
            stacklevel=2,
        )
    t, knots = _equalized_remap(sg, res.phi)
    return Parameterization(t=t, phi=res.phi, arc_length_map=knots)


# ---------------------------------------------------------------------------
# Marching squares on the pixel-center field

# case -> list of (edge, edge) pairs; edges: 0 top, 1 right, 2 bottom, 3 left
_MS_CASES: dict[int, list[tuple[int, int]]] = {
    1: [(0, 3)],
    2: [(0, 1)],
    3: [(3, 1)],
    4: [(1, 2)],
    6: [(0, 2)],
    7: [(3, 2)],
    8: [(3, 2)],
    9: [(0, 2)],
    11: [(1, 2)],
    12: [(3, 1)],
    13: [(0, 1)],
    14: [(0, 3)],
}


def _edge_point(edge: int, r: int, c: int, v00: float, v01: float, v11: float, v10: float,
                level: float) -> tuple[float, float]:
    def frac(a: float, b: float) -> float:
        if b == a:
            return 0.5
        return min(1.0, max(0.0, (level - a) / (b - a)))

    if edge == 0:
        return (c + frac(v00, v01), float(r))
    if edge == 1:
        return (float(c + 1), r + frac(v01, v11))
    if edge == 2:
        return (c + frac(v10, v11), float(r + 1))
    return (float(c), r + frac(v00, v10))


def marching_squares(field: np.ndarray, level: float) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Isoline segments of a scalar field at one level, in (x, y) pixel units.

    Cells with any non-finite corner are skipped, which clips isolines to
    the foreground. Saddle cells are disambiguated by the cell-center mean.
    """
    H, W = field.shape
    segments = []
    for r in range(H - 1):
        for c in range(W - 1):
            v00 = field[r, c]
            v01 = field[r, c + 1]
            v11 = field[r + 1, c + 1]
            v10 = field[r + 1, c]
            if not (np.isfinite(v00) and np.isfinite(v01) and np.isfinite(v11) and np.isfinite(v10)):
                continue
            case = (
                (1 if v00 >= level else 0)
                | (2 if v01 >= level else 0)
                | (4 if v11 >= level else 0)
                | (8 if v10 >= level else 0)
            )
            if case in (0, 15):
                continue
            if case in (5, 10):
                center_above = 0.25 * (v00 + v01 + v11 + v10) >= level
                if case == 5:
                    pairs = [(0, 1), (2, 3)] if center_above else [(0, 3), (1, 2)]
                else:
                    pairs = [(0, 3), (1, 2)] if center_above else [(0, 1), (2, 3)]
            else:
                pairs = _MS_CASES[case]
            for ea, eb in pairs:
                pa = _edge_point(ea, r, c, v00, v01, v11, v10, level)
                pb = _edge_point(eb, r, c, v00, v01, v11, v10, level)
                segments.append((pa, pb))
    return segments


def _chain_segments(segments) -> list[np.ndarray]:
    """Join shared-endpoint segments into polylines, deterministically."""
    adj: dict[tuple[float, float], list[tuple[int, tuple[float, float]]]] = {}
    for i, (p, q) in enumerate(segments):
        adj.setdefault(p, []).append((i, q))
        adj.setdefault(q, []).append((i, p))
    used = [False] * len(segments)

    def walk(start: tuple[float, float]) -> list[tuple[float, float]]:
        points = [start]
        cur = start
        while True:
            step = None
            for i, other in adj[cur]:
                if not used[i]:
                    used[i] = True
                    step = other
                    break
            if step is None:
                return points
            points.append(step)
            cur = step

    polylines = []
    open_ends = sorted(p for p, inc in adj.items() if len(inc) % 2 == 1)
    for p in open_ends:
        while any(not used[i] for i, _ in adj[p]):
            polylines.append(walk(p))
    for p in sorted(adj):
        while any(not used[i] for i, _ in adj[p]):
            polylines.append(walk(p))
    return [np.array(pl) for pl in polylines]


@dataclass
class ThicknessProfile:
    """Per-level isolines of t and their in-shape arc length (x spacing).

    ``empty[k]`` flags levels whose isoline is empty or degenerate;
    geometric thickness there is reported as 0.
    """

    levels: np.ndarray
    thickness: np.ndarray
    isolines: list[list[np.ndarray]]
    empty: list[bool]


def thickness_profile(sg: ShapeGraph, p: Parameterization, num_slices: int) -> ThicknessProfile:
    """Isoline thickness at levels t = (k + 1/2)/S for k in range(S)."""
    if num_slices < 2:
        raise ValueError("need at least 2 slices")
    field = _field_image(sg, p.t)
    levels = (np.arange(num_slices) + 0.5) / num_slices
    thickness = np.zeros(num_slices)
    isolines: list[list[np.ndarray]] = []
    empty: list[bool] = []
    for k, level in enumerate(levels):
        segs = marching_squares(field, float(level))
        length = sum(math.hypot(q[0] - p0[0], q[1] - p0[1]) for p0, q in segs)
        thickness[k] = length * sg.spacing
        isolines.append(_chain_segments(segs))
        empty.append(length == 0.0)
    return ThicknessProfile(levels=levels, thickness=thickness, isolines=isolines, empty=empty)


def anchored_parameterization(
    sg: ShapeGraph,
    anchor: tuple[int, int],
    c: float = 0.9,
    cfg: FcdConfig = FcdConfig(),
) -> Parameterization:
    """Parameterization whose t = 1 end is forced to the anchor pixel.

    A pendant of weight c * a(anchor) keeps the Fiedler extremum at the
    anchor; the pendant coordinate is then dropped and the in-shape vector
    re-centered, renormalized, oriented so the anchor sits at the top, and
    remapped as usual. When the threshold search escapes the window
    (pendant extremal at every probed weight) the window ceiling is used in
    place of a(anchor). If the anchor already carries the maximum of the
    plain parameterization, that parameterization is returned unchanged
    with a note.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"weight factor must be in (0, 1], got {c}")
    row, col = anchor
    v = sg.vertex_at(int(row), int(col))
    plain = parameterize(sg)
    if int(np.argmax(plain.t)) == v:
        note = (
            f"anchor pixel ({row}, {col}) is already the parameterization "
            f"maximum; returned unperturbed"
        )
        warnings.warn(note, stacklevel=2)
        plain.note = note
        return plain
    search = a_of_v(sg.graph, v, cfg)
    if search.boundary_flag == "hit_xmax":
        # Pendant stays extremal across the whole search window; the window
        # ceiling stands in for the unbounded threshold.
        x = c * 10.0**cfg.beta
    else:
        x = c * search.a_v
    res = perturbed_fiedler(sg.graph, v, x)
    psi = res.phi_x[: sg.graph.n].copy()
    psi -= psi.mean()
    psi /= math.sqrt(float(np.dot(psi, psi)))
    if psi[v] < 0.0:
        psi = -psi
    t, knots = _equalized_remap(sg, psi)
    note = (
        f"anchored at pixel ({row}, {col}) = vertex {v}; "
        f"a(v) = {search.a_v:.6g}, pendant weight {x:.6g}"
    )
    return Parameterization(t=t, phi=psi, arc_length_map=knots, note=note)


# ---------------------------------------------------------------------------
# Synthetic masks for validation


def synthetic_rectangle(width: int = 60, height: int = 10, spacing: float = 1.0) -> MaskImage:
    """Full-foreground rectangle, the simplest elongated shape."""
    return MaskImage(values=np.ones((height, width), dtype=bool), spacing=spacing)


def synthetic_bent_tube(
    radius: float = 18.0,
    width: float = 12.0,
    span_degrees: float = 240.0,
    size: int = 54,
    spacing: float = 1.0,
) -> MaskImage:
    """Constant-width annular sector: a C-shaped tube of known width."""
    if width <= 0 or radius <= width / 2 or not 0 < span_degrees < 360:
        raise ValueError("tube parameters out of range")
    center = (size - 1) / 2.0
    rr, cc = np.mgrid[0:size, 0:size]
    dist = np.hypot(rr - center, cc - center)
    angle = np.degrees(np.arctan2(rr - center, cc - center)) % 360.0
    band = (dist >= radius - width / 2.0) & (dist <= radius + width / 2.0)
    sector = angle <= span_degrees
    return MaskImage(values=band & sector, spacing=spacing)


def synthetic_hooked_shape(
    bar_length: int = 100,
    bar_width: int = 6,
    hook_height: int = 12,
    hook_width: int = 4,
    overhang: int = 11,
    spacing: float = 1.0,
) -> tuple[MaskImage, tuple[int, int]]:
    """Long bar with a short hook rising near (not at) the far end.

    Returns the mask and the designated tip pixel: the top-center of the
    hook. The bar continues past the hook by ``overhang`` pixels, so the
    natural Fiedler extremum competes between the hook tip and the bar end.
    """
    if min(bar_length, bar_width, hook_height, hook_width) < 1 or overhang < 0:
        raise ValueError("hooked-shape parameters out of range")
    hook_col = bar_length - hook_width - overhang
    if hook_col <= 0:
        raise ValueError("hook does not fit on the bar")
    H = hook_height + bar_width
    vals = np.zeros((H, bar_length), dtype=bool)
    vals[hook_height:, :] = True
    vals[:hook_height, hook_col : hook_col + hook_width] = True
    tip = (0, hook_col + hook_width // 2)
    return MaskImage(values=vals, spacing=spacing), tip
