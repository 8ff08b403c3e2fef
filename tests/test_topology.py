import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bfs
from qlayout import topology
from qlayout.errors import TopologyError
from qlayout.policy import PolicyNetwork
from qlayout.topology import (
    MAX_QUBITS,
    CouplingGraph,
    DistanceMatrix,
    all_pairs_distances,
    bfs_distances,
    build_grid,
    build_heavy_hex,
    coupling_graph_from_dict,
    load_coupling_graph,
)

from conftest import tiny_policy


def oracle_bfs(n, edges):
    """Independent queue-based BFS per source."""
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    out = np.full((n, n), -1)
    for s in range(n):
        out[s][s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if out[s][v] < 0:
                    out[s][v] = out[s][u] + 1
                    q.append(v)
    return out


def random_connected_graph(n, rng, extra_prob=0.1):
    """Random spanning tree plus a sprinkle of extra edges."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = order[i]
        b = order[rng.integers(i)]
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_prob:
                edges.add((i, j))
    return edges


class TestGrid:
    def test_8x8(self):
        g = build_grid(8, 8)
        assert g.num_physical == 64
        assert len(g.edges) == 112  # 2 * 8 * 7

    def test_single_node(self):
        g = build_grid(1, 1)
        assert g.num_physical == 1
        assert len(g.edges) == 0

    def test_2x2_is_a_4_cycle(self):
        g = build_grid(2, 2)
        assert g.num_physical == 4
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})

    @pytest.mark.parametrize("rows,cols", [(1, 5), (3, 4), (5, 5)])
    def test_edge_count_formula(self, rows, cols):
        g = build_grid(rows, cols)
        assert len(g.edges) == rows * (cols - 1) + cols * (rows - 1)

    def test_zero_dimension_rejected(self):
        with pytest.raises(TopologyError, match="positive"):
            build_grid(0, 4)

    @pytest.mark.parametrize("rows,cols", [(2.5, 3), (True, 3), (3, False)])
    def test_non_integer_dimension_rejected(self, rows, cols):
        with pytest.raises(TopologyError, match="must be an integer"):
            build_grid(rows, cols)


class TestQubitBound:
    """A device over ``MAX_QUBITS`` is refused before anything of its size
    is built: no adjacency lists, no distance table, no grid edges."""

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(topology, "MAX_QUBITS", 6)
        assert build_grid(2, 3).num_physical == 6
        path = frozenset((i, i + 1) for i in range(5))
        assert CouplingGraph(6, path).num_physical == 6
        with pytest.raises(TopologyError, match="7 physical qubits"):
            build_grid(1, 7)
        with pytest.raises(TopologyError, match="more than the 6"):
            CouplingGraph(7, frozenset())

    def test_oversized_grid_fails_before_its_edge_loop(self):
        with pytest.raises(TopologyError, match="10000000000 physical"):
            build_grid(100000, 100000)

    def test_oversized_document_fails_before_any_table(self):
        with pytest.raises(TopologyError, match="malformed edge-list") as exc:
            coupling_graph_from_dict({"n": 200000, "edges": [[0, 1]]})
        assert f"200000 physical qubits, more than the {MAX_QUBITS}" in \
            str(exc.value)


class TestHeavyHex:
    def test_size(self):
        assert build_heavy_hex().num_physical == 65

    def test_largest_degree_is_three(self):
        assert build_heavy_hex().adjacency_matrix().sum(axis=1).max() == 3

    def test_connected(self):
        g = build_heavy_hex()
        assert (g.distances.entries >= 0).all()

    def test_edge_count(self):
        # five chains (9+10+10+10+9 edges) plus 12 bridges with 2 edges each
        assert len(build_heavy_hex().edges) == 72


class TestDistances:
    def test_2x2_diagonal(self):
        g = build_grid(2, 2)
        assert g.distances[0, 3] == 2

    def test_path_graph(self):
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), name="path3")
        assert g.distances[0, 2] == 2

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 65))
            edges = random_connected_graph(n, rng)
            assert (bfs_distances(n, edges) == oracle_bfs(n, edges)).all()

    def test_disconnected_raises(self):
        with pytest.raises(TopologyError):
            CouplingGraph(4, frozenset({(0, 1), (2, 3)}))

    def test_invariants_on_random_graph(self, rng):
        n = 20
        edges = random_connected_graph(n, rng, extra_prob=0.15)
        g = CouplingGraph(n, frozenset(edges))
        d = g.distances.entries
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        for a, b in edges:
            assert d[a, b] == 1
        # triangle inequality, spot-checked
        for _ in range(200):
            i, j, k = rng.integers(n, size=3)
            assert d[i, j] <= d[i, k] + d[k, j]

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            CouplingGraph(2, frozenset({(0, 0), (0, 1)}))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(TopologyError):
            CouplingGraph(2, frozenset({(0, 5)}))


class TestEdgeListJson:
    def test_round_trip(self, tmp_path):
        g = build_grid(3, 3)
        p = tmp_path / "dev.json"
        p.write_text(json.dumps(g.to_dict()))
        loaded = load_coupling_graph(p)
        assert loaded.num_physical == g.num_physical
        assert loaded.edges == g.edges
        assert all_pairs_distances(loaded).entries.tolist() == \
            all_pairs_distances(g).entries.tolist()

    def test_malformed_document(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"edges": [[0, 1]]}')
        with pytest.raises(TopologyError):
            load_coupling_graph(p)

    def test_a_document_that_is_not_an_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text('[3, [[0, 1], [1, 2]]]')
        with pytest.raises(TopologyError,
                           match="device document is not a JSON object"):
            load_coupling_graph(p)

    @pytest.mark.parametrize("doc,fragment", [
        ({"n": 3, "edges": [[0, 1.7], [1, 2]]}, "not 1.7"),
        ({"n": 3.9, "edges": [[0, 1], [1, 2]]}, "not 3.9"),
        ({"n": 2, "edges": [[True, False]]}, "not True"),
        ({"n": True, "edges": []}, "not True"),
        ({"n": "3", "edges": [[0, 1], [1, 2]]}, "not '3'"),
        ({"n": 3, "edges": [[0, 1, 2]]}, "not a pair"),
    ], ids=["float-node", "float-n", "bool-nodes", "bool-n", "string-n",
            "triple"])
    def test_non_integer_document_rejected(self, doc, fragment):
        with pytest.raises(TopologyError, match="malformed edge-list") as exc:
            coupling_graph_from_dict(doc)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("edges", [None, {}, {"0": 1}, "01", 3])
    def test_edges_that_are_not_a_list_are_named(self, edges):
        with pytest.raises(TopologyError,
                           match='"edges" must be a list of node pairs'):
            coupling_graph_from_dict({"n": 2, "edges": edges})


class TestShortErrorLines:
    """An error line echoes a deep or long value shortened, not whole."""

    @staticmethod
    def nested(depth):
        value = 1
        for _ in range(depth):
            value = [value]
        return value

    @pytest.mark.parametrize("doc", [
        {"n": nested.__func__(980), "edges": []},
        {"n": 3, "edges": [nested.__func__(980)]},
        {"n": 3, "edges": ["a" * 5000]},
        {"n": 3, "edges": [[0, "b" * 5000]]},
        {"n": 3, "edges": [[0, 10**4000]]},
    ], ids=["deep-n", "deep-edge", "long-edge", "long-node", "huge-node"])
    def test_values_are_shortened(self, doc):
        with pytest.raises(TopologyError, match="malformed edge-list") as exc:
            coupling_graph_from_dict(doc)
        assert len(str(exc.value)) < 200


class TestIntegerNodes:
    @pytest.mark.parametrize("n,edges", [
        (2.0, {(0, 1)}), (2, {(0.0, 1)}), (2, {(0, np.float64(1))}),
        (np.bool_(True), set()), (2, {(0, 1, 1)}), (2, {0}),
    ])
    def test_non_integers_rejected(self, n, edges):
        with pytest.raises(TopologyError):
            CouplingGraph(n, frozenset(edges))

    def test_numpy_integers_are_stored_as_python_ints(self, tmp_path):
        g = CouplingGraph(np.int64(3), frozenset({(np.int64(0), np.int32(1)),
                                                  (np.uint8(2), np.int64(1))}))
        assert type(g.num_physical) is int
        assert all(type(q) is int for e in g.edges for q in e)
        plain = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))
        assert g == plain and g.topology_hash() == plain.topology_hash()
        path = tmp_path / "policy.json"
        tiny_policy(cg=g, n_max=3).save(path)
        assert PolicyNetwork.load(path).cg == plain


def networkx_distances(n, edges):
    """All-pairs hop counts from networkx, -1 where no path exists."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    out = np.full((n, n), -1)
    for src, lengths in nx.all_pairs_shortest_path_length(g):
        for dst, d in lengths.items():
            out[src, dst] = d
    return out


@st.composite
def graphs(draw, connected):
    """A graph on 1-14 nodes; a connected one is a random spanning tree
    plus extra edges."""
    n = draw(st.integers(1, 14))
    node = st.integers(0, n - 1)
    edges = set(draw(st.lists(st.tuples(node, node).filter(
        lambda e: e[0] != e[1]), max_size=2 * n)))
    if connected:
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    return n, sorted(edges)


class TestAgainstNetworkx:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(graphs(connected=True))
    def test_random_connected_graphs(self, case):
        n, edges = case
        assert np.array_equal(bfs_distances(n, edges),
                              networkx_distances(n, edges))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(graphs(connected=False))
    def test_disconnected_iff_networkx_finds_no_path(self, case):
        n, edges = case
        want = networkx_distances(n, edges)
        if (want < 0).any():
            with pytest.raises(TopologyError, match="disconnected"):
                bfs_distances(n, edges)
        else:
            assert np.array_equal(bfs_distances(n, edges), want)

    @pytest.mark.parametrize("cg", [
        build_grid(1, 1), build_grid(1, 9), build_grid(3, 5),
        build_grid(8, 8), build_heavy_hex(),
    ], ids=lambda cg: cg.name)
    def test_devices(self, cg):
        assert np.array_equal(
            cg.distances.entries,
            networkx_distances(cg.num_physical, cg.edge_list))


@st.composite
def wide_graphs(draw, connected):
    """A graph on 1-200 nodes, so that the bitsets span up to four 64-bit
    words and a word boundary falls inside most graphs; a connected one is
    a random tree (each node joins an earlier one) plus extra edges, a
    disconnected-or-not one joins only some nodes."""
    n = draw(st.integers(1, 200))
    edges = set()
    for v in range(1, n):
        if connected or draw(st.integers(0, 9)):
            u = draw(st.integers(0, v - 1))
            edges.add((u, v))
    node = st.integers(0, n - 1)
    edges |= set(draw(st.lists(st.tuples(node, node).filter(
        lambda e: e[0] != e[1]), max_size=n)))
    return n, sorted(edges)


def outcome(bfs, n, edges):
    """The distances ``bfs`` gives, or the text of its TopologyError."""
    try:
        return bfs(n, edges)
    except TopologyError as exc:
        return str(exc)


class TestBitsetBfs:
    """The all-sources bitset BFS against the frozen per-source BFS
    (``tests/reference_bfs.py``) and networkx."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(wide_graphs(connected=True))
    def test_connected_graphs_match_both_oracles(self, case):
        n, edges = case
        got = bfs_distances(n, edges)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_bfs.bfs_distances(n, edges))
        assert np.array_equal(got, networkx_distances(n, edges))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(wide_graphs(connected=False))
    def test_error_text_is_the_reference_text(self, case):
        n, edges = case
        got = outcome(bfs_distances, n, edges)
        want = outcome(reference_bfs.bfs_distances, n, edges)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_distances_beyond_a_byte_are_exact(self):
        # a 600-node path: hop counts up to 599 per level sum
        n = 600
        got = bfs_distances(n, [(i, i + 1) for i in range(n - 1)])
        nodes = np.arange(n)
        assert np.array_equal(got, np.abs(nodes[:, None] - nodes))

    def test_error_names_source_0_and_its_unreachable_count(self):
        # 0-1 and 2-3-4: source 0 misses three nodes
        with pytest.raises(TopologyError) as exc:
            CouplingGraph(5, frozenset({(0, 1), (2, 3), (3, 4)}))
        assert str(exc.value) == ("coupling graph is disconnected (source 0 "
                                  "cannot reach 3 nodes)")

    @pytest.mark.parametrize("shape", [(1, 1), (1, 64), (1, 65), (1, 200),
                                       (8, 8), (9, 15), (16, 16)])
    def test_grids_match_the_reference(self, shape):
        g = build_grid(*shape)
        assert np.array_equal(
            g.distances.entries,
            reference_bfs.bfs_distances(g.num_physical, g.edge_list))

    def test_heavy_hex_matches_the_reference(self):
        g = build_heavy_hex()
        assert np.array_equal(g.distances.entries, reference_bfs.bfs_distances(
            g.num_physical, g.edge_list))


class TestReadOnlyDistances:
    def test_entries_are_a_read_only_copy(self):
        given_entries = np.array([[0, 1], [1, 0]])
        dm = DistanceMatrix(given_entries)
        given_entries[0, 1] = 7
        assert dm[0, 1] == 1
        with pytest.raises(ValueError):
            dm.entries[0, 1] = 5

    def test_device_distances_are_read_only(self):
        with pytest.raises(ValueError):
            build_heavy_hex().distances.entries[0, 1] = 0
