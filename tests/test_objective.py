import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.errors import (
    ConfigError,
    ConstraintViolationError,
    IncompleteLayoutError,
    ParseError,
    SearchSpaceTooLargeError,
)
from qlayout.objective import (
    CostModel,
    Layout,
    brute_force_optimal,
    fast_cost_fn,
    reward,
    swap_cost,
    weighted_neighbours,
)
from qlayout.topology import CouplingGraph, build_grid


def make_pg(n, edges):
    return ProgramGraph(n, tuple(edges), onehot_features(n))


def path3():
    return CouplingGraph(3, frozenset({(0, 1), (1, 2)}), name="path3")


def random_tree_device(rng, big_n):
    """A random spanning tree on ``big_n`` seats, so a connected device."""
    order = rng.permutation(big_n)
    edges = set()
    for i in range(1, big_n):
        a, b = order[i], order[rng.integers(i)]
        edges.add((min(a, b), max(a, b)))
    return CouplingGraph(big_n, frozenset(edges))


def exhaustive_optimal(pg, cg, cm):
    """Unpruned enumeration over all injections, the brute-force oracle."""
    cost = fast_cost_fn(pg, cm)
    best_cost, best = np.inf, None
    for perm in itertools.permutations(range(cg.num_physical), pg.num_logical):
        c = cost(np.asarray(perm, dtype=np.int64))
        if c < best_cost:
            best_cost, best = c, perm
    return np.asarray(best), best_cost


class TestSwapCost:
    def test_empty_edges_zero(self):
        pg = make_pg(3, [])
        cg = path3()
        lay = Layout(np.array([0, 1, 2]))
        for mode in ("literal", "adjacent-free"):
            assert swap_cost(lay, pg, CostModel(mode, cg.distances)) == 0.0

    def test_adjacent_pair(self):
        pg = make_pg(2, [(0, 1)])
        cg = path3()
        lay = Layout(np.array([0, 1]))
        assert swap_cost(lay, pg, CostModel("literal", cg.distances)) == 2.0
        assert swap_cost(lay, pg, CostModel("adjacent-free", cg.distances)) == 0.0

    def test_k3_on_path_all_bijections(self):
        # distances on a path of three are {1, 1, 2}; 2*(1+1+2) = 8
        pg = make_pg(3, [(0, 1), (1, 2), (2, 0)])
        cg = path3()
        cm = CostModel("literal", cg.distances)
        for perm in itertools.permutations(range(3)):
            assert swap_cost(Layout(np.array(perm)), pg, cm) == 8.0

    def test_partial_layout_rejected(self):
        pg = make_pg(2, [(0, 1)])
        cm = CostModel("literal", path3().distances)
        with pytest.raises(IncompleteLayoutError):
            swap_cost(Layout(np.array([0, -1])), pg, cm)

    def test_duplicate_target_rejected(self):
        pg = make_pg(2, [(0, 1)])
        cm = CostModel("literal", path3().distances)
        with pytest.raises(ConstraintViolationError):
            swap_cost(Layout(np.array([1, 1])), pg, cm)

    def test_multiplicity_scales_linearly(self, rng):
        cg = build_grid(3, 3)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            pg1 = make_pg(2, [(0, 1)])
            pgm = make_pg(2, [(0, 1)] * m)
            lay = Layout(rng.permutation(9)[:2])
            cm = CostModel("literal", cg.distances)
            assert swap_cost(lay, pgm, cm) == m * swap_cost(lay, pg1, cm)

    def test_edge_direction_irrelevant(self, rng):
        cg = build_grid(3, 3)
        fwd = make_pg(3, [(0, 1), (1, 2)])
        rev = make_pg(3, [(1, 0), (2, 1)])
        cm = CostModel("literal", cg.distances)
        for _ in range(10):
            lay = Layout(rng.permutation(9)[:3])
            assert swap_cost(lay, fwd, cm) == swap_cost(lay, rev, cm)

    def test_grid_automorphism_invariance(self, rng):
        # reflecting a 3x3 grid horizontally is a graph automorphism
        cg = build_grid(3, 3)
        sigma = np.array([r * 3 + (2 - c) for r in range(3) for c in range(3)])
        pg = make_pg(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        cm = CostModel("literal", cg.distances)
        for _ in range(10):
            lay = Layout(rng.permutation(9)[:4])
            assert swap_cost(lay, pg, cm) == \
                swap_cost(Layout(sigma[lay.assign]), pg, cm)


@st.composite
def placed_programs(draw):
    """A random connected device, a program on it and a total injective
    layout of that program."""
    big_n = draw(st.integers(2, 9))
    # a random spanning tree keeps the device connected
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, big_n)}
    seat = st.integers(0, big_n - 1)
    edges |= set(draw(st.lists(st.tuples(seat, seat).filter(
        lambda e: e[0] != e[1]), max_size=8)))
    n = draw(st.integers(2, big_n))
    qubit = st.integers(0, n - 1)
    # a gate on one qubit twice (a self-pair) included
    gates = draw(st.lists(st.tuples(qubit, qubit), max_size=15))
    assign = np.asarray(draw(st.permutations(range(big_n)))[:n])
    return CouplingGraph(big_n, frozenset(edges)), make_pg(n, gates), assign


class TestCostTable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(placed_programs(), st.sampled_from(["literal", "adjacent-free"]))
    def test_matches_a_per_gate_sum(self, placed, mode):
        cg, pg, assign = placed
        d = cg.distances.entries
        free = 0 if mode == "literal" else 1
        plain = sum(2 * (int(d[assign[i], assign[j]]) - free)
                    for i, j in pg.edges if i != j)
        cost = fast_cost_fn(pg, CostModel(mode, cg.distances))(assign)
        assert type(cost) is float and cost == plain


class TestCostModelPerDevice:
    @pytest.mark.parametrize("mode", ["literal", "adjacent-free"])
    def test_one_model_per_distances_and_mode(self, mode):
        cg = build_grid(3, 3)
        cm = CostModel.for_graph(cg, mode)
        assert CostModel.for_graph(cg, mode) is cm
        assert cm.mode == mode and cm.distance is cg.distances
        other = "literal" if mode == "adjacent-free" else "adjacent-free"
        assert CostModel.for_graph(cg, other) is not cm
        assert CostModel.for_graph(build_grid(3, 3), mode) is not cm
        assert np.array_equal(cm.edge_costs,
                              CostModel(mode, cg.distances).edge_costs)

    def test_rows_are_the_table_and_nothing_is_writable(self):
        cm = CostModel.for_graph(build_grid(2, 3), "literal")
        assert cm.rows == tuple(map(tuple, cm.edge_costs.tolist()))
        assert cm.rows is cm.rows
        with pytest.raises(ValueError):
            cm.edge_costs[0, 1] = 0.0
        with pytest.raises(ValueError):
            cm.distance.entries[0, 1] = 0

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigError, match="unknown cost mode"):
            CostModel.for_graph(build_grid(2, 2), "fast")


def per_gate_cost(pg, cg, mode, assign):
    """Independent reference: 2*d or 2*(d-1) per gate on two distinct
    qubits; a self-pair needs no SWAP."""
    d = cg.distances.entries
    free = 0 if mode == "literal" else 1
    return float(sum(2 * (int(d[assign[i], assign[j]]) - free)
                     for i, j in pg.edges if i != j))


class TestSelfPairs:
    def test_grid1x3_adjacent_free(self):
        # a gate on qubit 2 twice and one on (2, 0): the optimum puts 2 and
        # 0 on adjacent seats, cost 0
        cg = build_grid(1, 3)
        pg = make_pg(3, [(2, 2), (2, 0)])
        cm = CostModel("adjacent-free", cg.distances)
        lay, cost = brute_force_optimal(pg, cg, cm)
        assert cost == 0.0
        assert lay.assign.tolist() == [0, 2, 1]
        assert swap_cost(lay, pg, cm) == 0.0
        assert min(per_gate_cost(pg, cg, "adjacent-free", perm)
                   for perm in itertools.permutations(range(3))) == 0.0

    @pytest.mark.parametrize("mode", ["literal", "adjacent-free"])
    def test_self_pair_adds_nothing(self, mode, rng):
        cg = build_grid(3, 3)
        cm = CostModel(mode, cg.distances)
        base = [(0, 1), (1, 2), (2, 0), (1, 3)]
        plain = make_pg(4, base)
        for q in range(4):
            looped = make_pg(4, base[:2] + [(q, q)] * 3 + base[2:])
            assert np.array_equal(looped.gate_pairs, plain.gate_pairs)
            for _ in range(10):
                lay = Layout(rng.permutation(9)[:4])
                assert swap_cost(lay, looped, cm) == swap_cost(lay, plain, cm)
        only = make_pg(2, [(1, 1)])
        assert swap_cost(Layout(np.array([0, 8])), only, cm) == 0.0
        _, opt = brute_force_optimal(only, cg, cm)
        assert opt == 0.0

    @pytest.mark.parametrize("mode", ["literal", "adjacent-free"])
    def test_brute_force_matches_enumeration(self, mode, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            cg = random_tree_device(rng, int(rng.integers(n, 8)))
            edges = [(int(a), int(b)) for a, b in
                     rng.integers(0, n, size=(int(rng.integers(0, 10)), 2))]
            pg = make_pg(n, edges)
            lay, cost = brute_force_optimal(pg, cg,
                                            CostModel(mode, cg.distances))
            costs = {perm: per_gate_cost(pg, cg, mode, perm) for perm in
                     itertools.permutations(range(cg.num_physical), n)}
            best = min(costs.values())
            assert cost == best
            # first minimum in lexicographic enumeration order
            assert lay.assign.tolist() == list(
                min(p for p, c in costs.items() if c == best))


def reference_weighted_neighbours(pg):
    """Per qubit, ``(other qubit, gate count)`` as a ``Counter`` over the
    gates builds them, in order of first appearance. Frozen as an oracle:
    ``weighted_neighbours`` may order the lists differently, but must hold
    the same pairs."""
    nbrs = [[] for _ in range(pg.num_logical)]
    ei, ej = pg.gate_pairs.tolist()
    pairs = Counter((a, b) if a < b else (b, a) for a, b in zip(ei, ej))
    for (a, b), w in pairs.items():
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    return nbrs


@st.composite
def repeated_programs(draw):
    """A program whose gates repeat a few qubit pairs, each gate in either
    direction, self-pairs among them."""
    n = draw(st.integers(1, 12))
    qubit = st.integers(0, n - 1)
    pool = draw(st.lists(st.tuples(qubit, qubit), min_size=1, max_size=8))
    edges = draw(st.lists(st.sampled_from(pool).flatmap(
        lambda e: st.sampled_from([e, e[::-1]])), max_size=40))
    return make_pg(n, edges)


class TestWeightedNeighbours:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(repeated_programs())
    def test_same_pairs_as_the_counter_in_ascending_order(self, pg):
        got = weighted_neighbours(pg)
        assert ([set(partners) for partners in got]
                == [set(partners) for partners in
                    reference_weighted_neighbours(pg)])
        for partners in got:
            others = [r for r, _ in partners]
            assert others == sorted(set(others))
            assert all(type(r) is int and type(w) is int
                       for r, w in partners)

    def test_repeats_directions_and_self_pairs(self):
        pg = make_pg(4, [(2, 0), (0, 2), (1, 1), (3, 0), (2, 0), (1, 1)])
        assert weighted_neighbours(pg) == [[(2, 3), (3, 1)], [], [(0, 3)],
                                           [(0, 1)]]
        assert reference_weighted_neighbours(pg) == [[(2, 3), (3, 1)], [],
                                                     [(0, 3)], [(0, 1)]]


def test_neighbour_lists_of_a_wide_program_allocate_by_its_gates():
    """2025 qubits and 4000 gates: an (n, n) table of pair counts would
    take 32 MB, the lists from the gates about 1 MB."""
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, 2025, size=(4000, 2)).tolist()
    pg = ProgramGraph(2025, tuple(map(tuple, pairs)), np.zeros((2025, 1)))
    tracemalloc.start()
    try:
        nbrs = weighted_neighbours(pg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert [set(p) for p in nbrs] == [set(p) for p in
                                      reference_weighted_neighbours(pg)]


class TestReward:
    def test_zero_cost_layout(self):
        pg = make_pg(2, [(0, 1)])
        cm = CostModel("adjacent-free", path3().distances)
        assert reward(Layout(np.array([0, 1])), pg, cm) == 0.0

    def test_k3_on_path(self):
        pg = make_pg(3, [(0, 1), (1, 2), (2, 0)])
        cm = CostModel("literal", path3().distances)
        assert reward(Layout(np.array([0, 1, 2])), pg, cm) == -8.0

    def test_monotone_negation(self):
        pg = make_pg(2, [(0, 1)])
        cm = CostModel("literal", path3().distances)
        cheap = Layout(np.array([0, 1]))
        dear = Layout(np.array([0, 2]))
        assert reward(cheap, pg, cm) > reward(dear, pg, cm)


class TestBruteForce:
    def test_k3_on_path_literal(self):
        pg = make_pg(3, [(0, 1), (1, 2), (2, 0)])
        _, cost = brute_force_optimal(pg, path3(),
                                      CostModel("literal", path3().distances))
        assert cost == 8.0

    def test_embeddable_is_free(self):
        cg = build_grid(2, 3)
        pg = make_pg(3, [(0, 1), (1, 2)])
        lay, cost = brute_force_optimal(
            pg, cg, CostModel("adjacent-free", cg.distances))
        assert cost == 0.0
        lay.validate(cg.num_physical)

    def test_single_edge_costs_two_literal(self):
        cg = build_grid(3, 3)
        _, cost = brute_force_optimal(
            make_pg(2, [(0, 1)]), cg, CostModel("literal", cg.distances))
        assert cost == 2.0

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            cg = random_tree_device(rng, int(rng.integers(n, 10)))
            edges = [
                (i, j) for i in range(n) for j in range(n)
                if i != j and rng.random() < 0.3
            ]
            pg = make_pg(n, edges)
            mode = "literal" if rng.random() < 0.5 else "adjacent-free"
            cm = CostModel(mode, cg.distances)
            lay, cost = brute_force_optimal(pg, cg, cm)
            oracle_assign, oracle_cost = exhaustive_optimal(pg, cg, cm)
            assert cost == oracle_cost
            # first minimum in lexicographic enumeration order
            assert lay.assign.tolist() == oracle_assign.tolist()

    def test_unknown_cost_mode(self):
        with pytest.raises(ConfigError, match="unknown cost mode 'bogus'"):
            CostModel("bogus", path3().distances)

    def test_cap(self):
        cg = build_grid(4, 4)
        pg = make_pg(10, [(0, 1)])
        with pytest.raises(SearchSpaceTooLargeError):
            brute_force_optimal(pg, cg, CostModel("literal", cg.distances),
                                cap=1000)

    def test_lower_bounds_any_layout(self, rng):
        cg = build_grid(2, 3)
        pg = make_pg(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        cm = CostModel("literal", cg.distances)
        _, opt = brute_force_optimal(pg, cg, cm)
        for _ in range(50):
            lay = Layout(rng.permutation(6)[:4])
            assert swap_cost(lay, pg, cm) >= opt


class TestLayoutJson:
    def test_round_trip(self, tmp_path):
        lay = Layout(np.array([7, 12, 3]))
        p = tmp_path / "layout.json"
        lay.save(p, num_physical=64)
        back = Layout.load(p)
        assert back.assign.tolist() == [7, 12, 3]

    @pytest.mark.parametrize("doc", [
        {"n": 2},                      # no assign
        {"assign": [0, "1"]},          # a string seat
        {"assign": [0, 1.5]},          # a fractional seat
        {"assign": [0, True]},         # a boolean seat
        {"assign": [[0, 1], [2, 3]]},  # nested one level too deep
        {"assign": 3},                 # not a list
        [0, 1],                        # not an object
        {"assign": [2**70]},           # beyond int64
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ParseError):
            Layout.from_dict(doc)

    def test_stated_sizes_are_checked(self):
        doc = {"n": 3, "N": 64, "assign": [7, 12, 3]}
        assert Layout.from_dict(doc, 64).assign.tolist() == [7, 12, 3]
        assert Layout.from_dict(doc).n == 3  # no device to check "N" by
        with pytest.raises(ParseError, match='"n" must be 2,'):
            Layout.from_dict({"n": 3, "assign": [7, 12]})
        with pytest.raises(ParseError, match='"N" must be 65,'):
            Layout.from_dict(doc, 65)
        for value in (3.0, "3", None):
            with pytest.raises(ParseError, match="not "):
                Layout.from_dict({**doc, "n": value})

    def test_a_deep_seat_is_echoed_shortened(self):
        seat = 0
        for _ in range(980):
            seat = [seat]
        with pytest.raises(ParseError) as exc:
            Layout.from_dict({"assign": [1, seat]})
        assert str(exc.value) == \
            '"assign" must hold integers only, got [[[[...]]]]'

    def test_unreadable_file_rejected(self, tmp_path):
        p = tmp_path / "layout.json"
        p.write_text('{"assign": [0, 1')
        with pytest.raises(ParseError):
            Layout.load(p)
