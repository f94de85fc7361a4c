"""Graph construction, generators, Laplacians, and edge-list files."""
import numpy as np
import pytest

from fiedlertools.graphs import (
    DisconnectedGraphError,
    EdgeListParseError,
    build_graph,
    generate,
    is_connected,
    laplacian,
    read_edgelist,
    weight_matrix,
    write_edgelist,
)


def test_build_graph_basic_counts():
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert g.n == 3
    assert g.num_edges == 2
    assert np.allclose(g.degrees(), [1.0, 3.0, 2.0])


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0, 1.0)])  # self loop
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])  # duplicate
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, 0.0)])  # nonpositive weight
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, float("nan"))])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2, 1.0)])  # vertex out of range
    with pytest.raises(ValueError):
        build_graph(2, [(True, 1, 1.0)])


def test_weight_matrix_symmetric():
    g = build_graph(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 0.5)])
    w = weight_matrix(g)
    assert np.array_equal(w, w.T)
    assert w[0, 1] == 2.0 and w[2, 1] == 3.0
    assert np.all(np.diag(w) == 0.0)


def test_laplacian_rows_sum_to_zero():
    g = generate("gnm", 12, 20, seed=5)
    L = laplacian(g)
    assert np.array_equal(L, L.T)
    assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(np.diag(L), g.degrees())


def test_path_laplacian_entries():
    L = laplacian(generate("path", 3))
    expect = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(L, expect)


def test_is_connected():
    assert is_connected(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    assert not is_connected(build_graph(3, [(0, 1, 1.0)]))
    assert is_connected(build_graph(1, []))


def test_named_families():
    assert generate("path", 5).num_edges == 4
    assert generate("cycle", 5).num_edges == 5
    assert generate("complete", 6).num_edges == 15
    star = generate("star", 6)
    assert star.num_edges == 5
    assert star.degrees()[0] == 5.0


def test_generate_argument_validation():
    with pytest.raises(ValueError):
        generate("path", 5, m=4)
    with pytest.raises(ValueError):
        generate("gnm", 5, 7)  # no seed
    with pytest.raises(ValueError):
        generate("gnm", 5, 3, seed=0)  # below tree count
    with pytest.raises(ValueError):
        generate("gnm", 5, 11, seed=0)  # above complete
    with pytest.raises(ValueError):
        generate("mystery", 5)


def test_gnm_exact_edge_count_connected_deterministic():
    for seed in range(20):
        g = generate("gnm", 20, 45, seed=seed)
        assert g.n == 20
        assert g.num_edges == 45
        assert is_connected(g)
        again = generate("gnm", 20, 45, seed=seed)
        assert g.edges == again.edges


def test_equal_edge_and_neighbor_tuples_are_shared():
    a = generate("gnm", 12, 30, seed=1)
    b = generate("gnm", 12, 30, seed=2)
    in_b = {t: t for t in b.edges}
    common = [t for t in a.edges if t in in_b]
    assert common and all(in_b[t] is t for t in common)
    # unit weights: one (neighbor, 1.0) pair per vertex for the whole graph
    assert len({id(p) for row in a.adjacency for p in row}) == a.n


def test_gnm_dense_regime():
    # complement sampling path: m above half of all pairs
    g = generate("gnm", 20, 160, seed=3)
    assert g.num_edges == 160
    assert is_connected(g)


def test_gnm_extremes():
    assert generate("gnm", 6, 15, seed=1).num_edges == 15  # complete forced
    g = generate("gnm", 6, 5, seed=1)  # tree count
    assert g.num_edges == 5 and is_connected(g)


def test_gnm_seeds_vary():
    sets = {tuple(generate("gnm", 10, 14, seed=s).edges) for s in range(10)}
    assert len(sets) > 1


def test_random_tree_is_tree():
    for seed in range(25):
        n = 2 + (seed * 7) % 40
        g = generate("random_tree", n, seed=seed)
        assert g.num_edges == n - 1
        assert is_connected(g)


def test_random_tree_distribution_touches_stars_and_paths():
    # with enough draws, n=4 should produce both a path and a star
    shapes = set()
    for seed in range(60):
        g = generate("random_tree", 4, seed=seed)
        shapes.add(tuple(sorted(g.degrees().astype(int))))
    assert (1, 1, 1, 3) in shapes
    assert (1, 1, 2, 2) in shapes


def test_edgelist_round_trip(tmp_path):
    g = generate("gnm", 9, 14, seed=11)
    path = tmp_path / "g.txt"
    write_edgelist(g, path)
    h = read_edgelist(path)
    assert h.n == g.n
    assert h.edges == g.edges


def test_edgelist_comments_blank_lines_default_weight(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# demo\n3 2\n\n0 1\n1 2 2.5\n")
    g = read_edgelist(path)
    assert g.n == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.5))


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "3\n0 1\n",  # short header
        "3 1\n0 one\n",  # bad vertex
        "3 2\n0 1\n",  # row count mismatch
        "3 1\n0 1 1.0 extra\n",
    ],
)
def test_edgelist_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(EdgeListParseError) as err:
        read_edgelist(path)
    assert err.value.line >= 1


def test_edgelist_parse_error_reports_offending_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 x 1.0\n")
    with pytest.raises(EdgeListParseError) as err:
        read_edgelist(path)
    assert err.value.line == 2


def test_disconnected_error_type_is_value_error():
    assert issubclass(DisconnectedGraphError, ValueError)
