"""Mask loading, shape graphs, parameterization, and thickness profiles."""
import functools
import math

import numpy as np
import pytest

from fiedlertools.graphs import DisconnectedGraphError
from fiedlertools.shape import (
    MaskImage,
    MaskParseError,
    anchored_parameterization,
    load_mask,
    marching_squares,
    mask_to_graph,
    parameterize,
    synthetic_bent_tube,
    synthetic_hooked_shape,
    synthetic_rectangle,
    thickness_profile,
)


@functools.lru_cache(maxsize=None)
def _rect():
    sg = mask_to_graph(synthetic_rectangle())
    return sg, parameterize(sg)


@functools.lru_cache(maxsize=None)
def _hook():
    mask, tip = synthetic_hooked_shape()
    sg = mask_to_graph(mask)
    return sg, tip


# -- mask files -------------------------------------------------------------


def test_text_mask_and_pgm_twins_agree(tmp_path):
    text = tmp_path / "m.txt"
    text.write_text("# comment line\n0 1 0\n1 0 1\n")
    p2 = tmp_path / "m.p2"
    p2.write_text("P2\n# same grid\n3 2\n255\n0 255 0\n255 0 255\n")
    p5 = tmp_path / "m.p5"
    p5.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 255, 0, 255, 0, 255]))
    ref = load_mask(text).values
    assert ref.shape == (2, 3)
    assert np.array_equal(load_mask(p2).values, ref)
    assert np.array_equal(load_mask(p5).values, ref)


def test_p2_comment_lines_inside_the_body(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n3 2\n255\n255 0 255\n# c\n0 255 0\n")
    assert load_mask(path).values.tolist() == [[True, False, True], [False, True, False]]
    path.write_bytes(b"P2\n3 2\n255 # maxval\n255 0 255 # row 0\n0 255 0\n")
    assert load_mask(path).values.tolist() == [[True, False, True], [False, True, False]]


def test_pgm_threshold_is_128(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_text("P2\n2 1\n255\n127 128\n")
    assert load_mask(path).values.tolist() == [[False, True]]


@pytest.mark.parametrize(
    "payload",
    [
        b"0 1 2\n",                       # non-binary digit
        b"01\n011\n",                     # ragged rows
        b"",                              # nothing at all
        b"P2\n2 2\n255\n0 255 0\n",       # truncated body
        b"P5\n2 2\n65535\n" + b"\0" * 8,  # two-byte samples
        b"P2\n2 2\nabc\n0 0 0 0\n",       # non-integer header
        b"\xff\xfe\x93",                  # neither PGM nor text
    ],
)
def test_malformed_masks_raise(tmp_path, payload):
    path = tmp_path / "bad.mask"
    path.write_bytes(payload)
    with pytest.raises(MaskParseError):
        load_mask(path)


def test_all_background_mask_rejected(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("000\n000\n")
    with pytest.raises(ValueError):
        load_mask(path)


def test_mask_image_validation():
    with pytest.raises(ValueError):
        MaskImage(values=np.ones(5, dtype=bool))
    with pytest.raises(ValueError):
        MaskImage(values=np.ones((2, 2), dtype=bool), spacing=0.0)


# -- mask -> graph ----------------------------------------------------------


def test_strip_mask_gives_path_graph():
    sg = mask_to_graph(MaskImage(values=np.ones((1, 5), dtype=bool)))
    g = sg.graph
    assert g.n == 5
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))


def test_square_mask_gives_cycle():
    sg = mask_to_graph(MaskImage(values=np.ones((2, 2), dtype=bool)))
    degs = [len(sg.graph.adjacency[i]) for i in range(4)]
    assert sg.graph.n == 4 and len(sg.graph.edges) == 4
    assert degs == [2, 2, 2, 2]


def test_two_components_keep_larger_with_warning():
    vals = np.zeros((3, 9), dtype=bool)
    vals[1, 0:5] = True   # 5-pixel bar
    vals[0, 7:9] = True   # 2-pixel blob
    with pytest.warns(UserWarning, match="components"):
        sg = mask_to_graph(MaskImage(values=vals))
    assert sg.graph.n == 5
    assert set(map(tuple, sg.coords)) == {(1, c) for c in range(5)}


def test_rectangle_graph_counts():
    sg, _ = _rect()
    assert sg.graph.n == 600
    assert len(sg.graph.edges) == 59 * 10 + 60 * 9


def test_vertex_at_background_pixel_raises():
    sg, _ = _rect()
    assert sg.vertex_at(0, 0) == 0
    with pytest.raises(ValueError):
        sg.vertex_at(11, 0)


# -- parameterization -------------------------------------------------------


def test_rectangle_extrema_on_short_ends():
    sg, p = _rect()
    lo_col = int(sg.coords[np.argmin(p.t), 1])
    hi_col = int(sg.coords[np.argmax(p.t), 1])
    assert {lo_col, hi_col} == {0, 59}
    assert p.t.min() == 0.0 and p.t.max() == pytest.approx(1.0)


def test_rectangle_t_is_column_coordinate():
    # t should vary along the long axis and barely across it
    sg, p = _rect()
    means = np.array([p.t[sg.coords[:, 1] == c].mean() for c in range(60)])
    spreads = np.array([np.ptp(p.t[sg.coords[:, 1] == c]) for c in range(60)])
    steps = np.diff(means)
    assert np.all(steps > 0) or np.all(steps < 0)
    assert spreads.max() < 0.02
    lin = np.linspace(0.0, 1.0, 60)
    dev = min(np.abs(means - lin).max(), np.abs(means[::-1] - lin).max())
    assert dev < 0.05


def test_arc_length_map_reproduces_t():
    sg, p = _rect()
    knots_phi, knots_t = p.arc_length_map
    assert knots_t[0] == 0.0 and knots_t[-1] == pytest.approx(1.0)
    assert np.all(np.diff(knots_t) >= 0.0)
    assert np.allclose(np.interp(p.phi, knots_phi, knots_t), p.t, atol=1e-12)


def test_rotated_mask_gives_mirrored_parameterization():
    sg, tip = _hook()
    p = parameterize(sg)
    mask, _ = synthetic_hooked_shape()
    flipped = MaskImage(values=mask.values[::-1, ::-1])
    sg2 = mask_to_graph(flipped)
    p2 = parameterize(sg2)
    H, W = sg.mask_shape
    moved = np.array(
        [p2.t[sg2.vertex_at(H - 1 - r, W - 1 - c)] for r, c in sg.coords]
    )
    direct = float(np.abs(moved - p.t).max())
    mirrored = float(np.abs((1.0 - moved) - p.t).max())
    assert min(direct, mirrored) < 1e-6


def test_parameterize_rejects_disconnected_shape():
    vals = np.zeros((3, 5), dtype=bool)
    vals[0, :] = True
    vals[2, :] = True
    with pytest.warns(UserWarning):
        sg = mask_to_graph(MaskImage(values=vals))
    # the retained component is connected, so this parameterizes fine
    assert parameterize(sg).t.size == 5


# -- marching squares and thickness ----------------------------------------


def test_marching_squares_single_cell():
    field = np.array([[0.0, 0.0], [1.0, 1.0]])
    segs = marching_squares(field, 0.5)
    assert len(segs) == 1
    (pa, pb) = segs[0]
    assert sorted([pa, pb]) == [(0.0, 0.5), (1.0, 0.5)]


def test_marching_squares_skips_nonfinite_and_trivial_cells():
    field = np.array([[0.0, np.nan], [1.0, 1.0]])
    assert marching_squares(field, 0.5) == []
    assert marching_squares(np.ones((3, 3)), 0.5) == []
    assert marching_squares(np.zeros((3, 3)), 0.5) == []


def test_thickness_profile_needs_two_slices():
    sg, p = _rect()
    with pytest.raises(ValueError):
        thickness_profile(sg, p, 1)


def test_rectangle_thickness_near_height():
    sg, p = _rect()
    tp = thickness_profile(sg, p, 10)
    mid = (tp.levels >= 0.2) & (tp.levels <= 0.8)
    assert not any(tp.empty)
    assert np.all(np.abs(tp.thickness[mid] - 10.0) <= 1.5)


def test_thickness_scales_with_spacing():
    sg, p = _rect()
    sg2 = mask_to_graph(synthetic_rectangle(spacing=2.0))
    p2 = parameterize(sg2)
    a = thickness_profile(sg, p, 8).thickness
    b = thickness_profile(sg2, p2, 8).thickness
    assert np.allclose(b, 2.0 * a, rtol=1e-9)


def test_single_row_strip_profile_is_degenerate():
    # the field image has one row, so no marching-squares cell exists and
    # every slice must be flagged rather than given a fake thickness
    sg = mask_to_graph(MaskImage(values=np.ones((1, 40), dtype=bool)))
    tp = thickness_profile(sg, parameterize(sg), 5)
    assert all(tp.empty)
    assert np.all(tp.thickness == 0.0)


def test_bent_tube_thickness_near_width():
    mask = synthetic_bent_tube()
    sg = mask_to_graph(mask)
    tp = thickness_profile(sg, parameterize(sg), 12)
    mid = (tp.levels >= 0.2) & (tp.levels <= 0.8)
    assert np.all(np.abs(tp.thickness[mid] - 12.0) <= 0.2 * 12.0)


def test_isoline_endpoints_reach_the_boundary():
    sg, p = _rect()
    tp = thickness_profile(sg, p, 6)
    H, W = sg.mask_shape
    for polylines in tp.isolines:
        assert polylines
        for pl in polylines:
            closed = np.array_equal(pl[0], pl[-1])
            if closed:
                continue
            for end in (pl[0], pl[-1]):
                x, y = end
                on_rim = (
                    abs(x) < 1e-9
                    or abs(x - (W - 1)) < 1e-9
                    or abs(y) < 1e-9
                    or abs(y - (H - 1)) < 1e-9
                )
                assert on_rim, f"endpoint {end} floats in the interior"


def test_synthetic_generator_validation():
    with pytest.raises(ValueError):
        synthetic_bent_tube(radius=3.0, width=12.0)
    with pytest.raises(ValueError):
        synthetic_hooked_shape(overhang=-1)
    with pytest.raises(ValueError):
        synthetic_hooked_shape(bar_length=10, hook_width=4, overhang=8)


# -- anchored parameterization ----------------------------------------------


def test_anchor_at_existing_maximum_is_noop():
    sg, p = _rect()
    r, c = map(int, sg.coords[np.argmax(p.t)])
    with pytest.warns(UserWarning, match="already"):
        q = anchored_parameterization(sg, (r, c))
    assert np.array_equal(q.t, p.t)
    assert np.array_equal(q.phi, p.phi)
    assert q.note is not None and "unperturbed" in q.note


def test_anchored_parameterization_moves_maximum_to_tip():
    sg, tip = _hook()
    p = parameterize(sg)
    v = sg.vertex_at(*tip)
    assert int(np.argmax(p.t)) != v
    q = anchored_parameterization(sg, tip)
    assert int(np.argmax(q.t)) == v
    assert q.t[v] == pytest.approx(1.0)
    assert q.note is not None and "anchored" in q.note


def test_anchored_profile_stable_away_from_anchor():
    sg, tip = _hook()
    p = parameterize(sg)
    q = anchored_parameterization(sg, tip)
    tp_p = thickness_profile(sg, p, 10)
    tp_q = thickness_profile(sg, q, 10)
    mid = (tp_p.levels >= 0.2) & (tp_p.levels <= 0.8)
    rel = np.abs(tp_q.thickness[mid] - tp_p.thickness[mid]) / tp_p.thickness[mid]
    assert rel.max() < 0.1


def test_anchored_weight_factor_validation():
    sg, tip = _hook()
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            anchored_parameterization(sg, tip, c=bad)


def test_anchor_outside_foreground_raises():
    sg, _ = _hook()
    with pytest.raises(ValueError):
        anchored_parameterization(sg, (0, 0))
