import numpy as np
import pytest

from pwsync.graph import (
    GraphError,
    Topology,
    build_laplacian,
    complete_topology,
    is_connected,
    lambda2,
    load_edge_list,
    parse_edge_list,
    random_connected,
    ring_topology,
    topology_from_edges,
)
from oracles import eigenvalues_brute, lambda2_brute

N_ORACLE_GRAPHS = 100
ORACLE_TOL = 1e-8

FIVE_NODE_EDGES = ((0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4))


def _random_weighted_graph(rng, n):
    while True:
        w = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        mask = rng.random(len(iu[0])) < 0.6
        weights = rng.uniform(0.2, 3.0, size=len(iu[0])) * mask
        w[iu] = weights
        w = w + w.T
        topo = Topology(w)
        if is_connected(topo):
            return topo


def test_lambda2_matches_charpoly_oracle_on_random_graphs():
    rng = np.random.default_rng(123)
    for _ in range(N_ORACLE_GRAPHS):
        n = int(rng.integers(2, 7))
        topo = _random_weighted_graph(rng, n)
        lap = build_laplacian(topo)
        assert abs(lambda2(lap) - lambda2_brute(lap)) < ORACLE_TOL


def test_five_node_benchmark_spectrum():
    topo = topology_from_edges(5, FIVE_NODE_EDGES)
    lap = build_laplacian(topo)
    vals = eigenvalues_brute(lap)
    assert np.allclose(vals, [0.0, 2.0, 4.0, 5.0, 5.0], atol=1e-9)
    assert abs(lambda2(lap) - 2.0) < 1e-9
    assert abs(lambda2(lap) - lambda2_brute(lap)) < ORACLE_TOL


def test_ring_four_lambda2_is_two():
    lap = build_laplacian(ring_topology(4))
    assert abs(lambda2(lap) - 2.0) < 1e-9


def test_weighted_path_lambda2():
    topo = topology_from_edges(3, [(0, 1, 2.0), (1, 2, 2.0)])
    assert abs(lambda2(build_laplacian(topo)) - 2.0) < 1e-12


def test_complete_graph_lambda2_equals_n():
    for n in (3, 4, 7):
        lap = build_laplacian(complete_topology(n))
        assert abs(lambda2(lap) - float(n)) < 1e-9


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        topo = _random_weighted_graph(rng, int(rng.integers(2, 7)))
        lap = build_laplacian(topo)
        assert np.max(np.abs(lap.sum(axis=1))) < 1e-12


def test_lambda2_invariant_under_relabeling():
    rng = np.random.default_rng(17)
    topo = _random_weighted_graph(rng, 6)
    base = lambda2(build_laplacian(topo))
    for _ in range(5):
        perm = rng.permutation(6)
        shuffled = Topology(topo.weights[np.ix_(perm, perm)])
        assert abs(lambda2(build_laplacian(shuffled)) - base) < 1e-10


def test_disconnected_graph_rejected_by_lambda2():
    topo = topology_from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(topo)
    with pytest.raises(GraphError):
        lambda2(build_laplacian(topo))


SCALES = [10.0 ** k for k in range(-10, 9)]


@pytest.mark.parametrize("weight", SCALES)
def test_lambda2_of_a_complete_graph_is_n_times_its_weight_at_every_scale(weight):
    # an absolute tolerance once refused K10 at weight 1e6 ("lost its
    # structural zero eigenvalue") and called it disconnected at 1e-10
    assert abs(lambda2(build_laplacian(complete_topology(10, weight))) / (10 * weight) - 1.0) <= 1e-12
    topo = random_connected(30, 0.2, seed=0)
    base = lambda2(build_laplacian(topo))
    assert abs(lambda2(build_laplacian(topo.scaled(weight))) / (base * weight) - 1.0) <= 1e-12


@pytest.mark.parametrize("ratio", [10.0 ** k for k in range(6, 13)])
def test_lambda2_of_a_path_whose_weights_span_many_orders(ratio):
    # edge 0-1 at weight ratio, 1-2 at 1: a tolerance of 1e-9 times the
    # largest diagonal entry once called this connected path disconnected
    topo = topology_from_edges(3, [(0, 1, ratio), (1, 2, 1.0)])
    assert is_connected(topo)
    exact = 3.0 * ratio / (ratio + 1.0 + np.sqrt(ratio * ratio - ratio + 1.0))
    assert abs(lambda2(build_laplacian(topo)) / exact - 1.0) <= 1e-5


@pytest.mark.parametrize("weight", SCALES)
def test_a_disconnected_graph_is_refused_at_every_scale(weight):
    two_triangles = topology_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    isolated = Topology(np.pad(complete_topology(9).weights, (0, 1)))
    for topo in (two_triangles, isolated):
        with pytest.raises(GraphError, match="disconnected"):
            lambda2(build_laplacian(topo.scaled(weight)))


@pytest.mark.parametrize("n_nodes", [-2, -1, 0, 1])
def test_a_complete_graph_needs_two_nodes(n_nodes):
    with pytest.raises(GraphError, match="a complete graph needs at least two nodes"):
        complete_topology(n_nodes)


def test_topology_validation():
    with pytest.raises(GraphError):
        Topology(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(GraphError):
        Topology(np.array([[1.0, 1.0], [1.0, 0.0]]))  # diagonal entry
    with pytest.raises(GraphError):
        Topology(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative weight
    with pytest.raises(GraphError):
        Topology(np.zeros((2, 3)))  # not square
    for bad in (np.inf, np.nan):
        with pytest.raises(GraphError, match="finite"):
            Topology(np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(GraphError, match="finite"):
        Topology(np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]]))


@pytest.mark.parametrize("gap, symmetric", [(2e-12, False), (5e-13, True), (-2e-12, False)])
def test_symmetry_tolerance_is_absolute(gap, symmetric):
    w = np.array([[0.0, 1.0, 3.0], [1.0 + gap, 0.0, 1.0], [3.0, 1.0, 0.0]])
    if symmetric:
        assert np.array_equal(Topology(w).weights, 0.5 * (w + w.T))
    else:
        with pytest.raises(GraphError, match="weights must be symmetric"):
            Topology(w)


@pytest.mark.parametrize("where", [(0, 1), (1, 0), (0, 0)])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_single_non_finite_weight_is_refused_as_not_finite(where, bad):
    w = np.ones((3, 3)) - np.eye(3)
    w[where] = bad
    with pytest.raises(GraphError, match="edge weights and every node's total weight must be finite"):
        Topology(w)


def test_finite_weights_whose_difference_overflows_are_asymmetric():
    with pytest.raises(GraphError, match="weights must be symmetric"):
        Topology(np.array([[0.0, 1e308, 0.0], [-1e308, 0.0, 1e308], [0.0, 1e308, 0.0]]))


def test_a_rescale_whose_row_sums_overflow_is_refused():
    topo = complete_topology(3, 1.0)
    assert np.isfinite(topo.scaled(1e307).weights).all()
    with pytest.raises(GraphError, match="must be finite"):
        topo.scaled(1e308)


def test_edge_builder_validation():
    with pytest.raises(GraphError):
        topology_from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        topology_from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        topology_from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        topology_from_edges(3, [(0, 1, -2.0)])


def test_scaled_topology():
    topo = ring_topology(4).scaled(2.5)
    assert abs(lambda2(build_laplacian(topo)) - 5.0) < 1e-9
    with pytest.raises(GraphError):
        ring_topology(4).scaled(-1.0)


def test_random_connected_is_deterministic_and_connected():
    a = random_connected(8, 0.3, seed=3)
    b = random_connected(8, 0.3, seed=3)
    assert np.array_equal(a.weights, b.weights)
    assert is_connected(a)
    c = random_connected(8, 0.3, seed=4)
    assert not np.array_equal(a.weights, c.weights)
    with pytest.raises(GraphError):
        random_connected(8, 0.0, seed=0)


def test_edge_list_roundtrip(tmp_path):
    text = "# demo graph\n0 1\n1 2 2.5\n\n2 3  # trailing comment\n"
    path = tmp_path / "graph.txt"
    path.write_text(text)
    topo = load_edge_list(path)
    assert topo.n_nodes == 4
    assert topo.weights[1, 2] == 2.5
    assert topo.weights[0, 1] == 1.0
    assert topo.weights[2, 3] == 1.0


def test_edge_list_errors(tmp_path):
    bad_token = tmp_path / "bad.txt"
    bad_token.write_text("0 one\n")
    with pytest.raises(GraphError):
        load_edge_list(bad_token)
    too_many = tmp_path / "many.txt"
    too_many.write_text("0 1 2 3\n")
    with pytest.raises(GraphError):
        load_edge_list(too_many)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(GraphError):
        load_edge_list(empty)


def test_edge_text_takes_newlines_and_commas(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n1 2 2.5\n2 3\n")
    inline = parse_edge_list("0 1, 1 2 2.5\n2 3", "edges")
    assert np.array_equal(inline.weights, load_edge_list(path).weights)
    with pytest.raises(GraphError, match="edges:1: expected"):
        parse_edge_list("0 1, 2", "edges")
    path.write_text("0 1\n1 1\n")
    with pytest.raises(GraphError, match="graph.txt: self-loop"):
        load_edge_list(path)
