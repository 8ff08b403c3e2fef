import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlayout import postprocess
from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.errors import ConfigError, ConstraintViolationError
from qlayout.objective import (
    COST_MODES,
    CostModel,
    Layout,
    brute_force_optimal,
    fast_cost_fn,
    swap_cost,
    weighted_neighbours,
)
from qlayout.postprocess import (
    FIRST_SCAN,
    NEIGHBORHOODS,
    DrawTable,
    GainTable,
    SearchConfig,
    SearchStats,
    apply_move,
    below_each,
    local_search,
    move_delta,
    neighbor,
)
from qlayout.topology import CouplingGraph, build_grid, build_heavy_hex


def make_pg(n, edges):
    return ProgramGraph(n, tuple(edges), onehot_features(n))


def random_instance(rng, n_max=5, big_n_max=9):
    n = int(rng.integers(2, n_max + 1))
    big_n = int(rng.integers(n, big_n_max + 1))
    order = rng.permutation(big_n)
    cg_edges = set()
    for i in range(1, big_n):
        a, b = order[i], order[rng.integers(i)]
        cg_edges.add((min(a, b), max(a, b)))
    for _ in range(big_n):
        a, b = rng.integers(big_n, size=2)
        if a != b:
            cg_edges.add((min(a, b), max(a, b)))
    cg = CouplingGraph(big_n, frozenset(cg_edges))
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < 0.35]
    return make_pg(n, edges), cg


def random_layout(n, big_n, rng):
    return Layout(rng.permutation(big_n)[:n])


def owners(assign, big_n):
    """Seat -> qubit list of ``assign``, -1 for a free seat."""
    owner = [-1] * big_n
    for q, seat in enumerate(assign):
        owner[seat] = q
    return owner


def first_modulus(kind, n, big_n):
    """The modulus of a move's first draw: a qubit or a seat."""
    return n if kind == "random_swap" else big_n


def table_rows(seed, kind, n, big_n, count):
    """The ``DrawTable`` rows of a search's first ``count`` iterations."""
    table = DrawTable(seed, first_modulus(kind, n, big_n), n, count)
    return table.ahead(0, count).tolist()


def propose(layout, cg, kind, row):
    """One ``neighbor`` move of ``layout``, from fresh state lists."""
    assign = layout.assign.tolist()
    return neighbor(assign, owners(assign, cg.num_physical), kind, row)


def applied(layout, move):
    """A copy of ``layout`` with ``move`` applied (None is no move)."""
    out = layout.copy()
    if move is not None:
        qubit, seat, displaced = move
        if displaced is not None:
            out.assign[displaced] = layout.assign[qubit]
        out.assign[qubit] = seat
    return out


class TestNeighbor:
    def test_swap_on_two_qubits_is_the_transposition(self):
        cg = build_grid(2, 2)
        lay = Layout(np.array([0, 3]))
        for row in table_rows(0, "random_swap", 2, 4, 20):
            out = applied(lay, propose(lay, cg, "random_swap", row))
            assert out.assign.tolist() == [3, 0]

    def test_swap_single_qubit_noop(self):
        cg = build_grid(2, 2)
        lay = Layout(np.array([2]))
        move = propose(lay, cg, "random_swap", [0, 0, 0])
        assert move is None
        assert applied(lay, move).assign.tolist() == [2]

    def test_full_device_always_swaps(self):
        cg = build_grid(2, 2)
        lay = Layout(np.array([0, 1, 2, 3]))
        for row in table_rows(1, "random_assignment", 4, 4, 50):
            move = propose(lay, cg, "random_assignment", row)
            out = applied(lay, move)
            assert sorted(out.assign.tolist()) == [0, 1, 2, 3]
            # every seat is occupied, so the move swaps two qubits
            assert move[2] is not None
            assert (out.assign != lay.assign).sum() == 2

    def test_random_assignment_can_use_free_seat(self):
        cg = build_grid(3, 3)
        lay = Layout(np.array([0, 1]))
        used_free_seat = False
        for row in table_rows(2, "random_assignment", 2, 9, 200):
            move = propose(lay, cg, "random_assignment", row)
            out = applied(lay, move)
            assert out.is_total() and out.is_injective()
            if set(out.assign.tolist()) != {0, 1}:
                used_free_seat = True
                assert move[2] is None and move[1] not in (0, 1)
        assert used_free_seat

    def test_injective_under_stress(self, rng):
        cg = build_grid(3, 3)
        lay = random_layout(5, 9, rng)
        for kind in NEIGHBORHOODS:
            cur = lay
            for row in table_rows(3, kind, 5, 9, 5000):
                cur = applied(cur, propose(cur, cg, kind, row))
                assert cur.is_total() and cur.is_injective()

    def test_does_not_mutate_input(self):
        for kind in NEIGHBORHOODS:
            assign, owner = [0, 3], [0, -1, -1, 1]
            for row in table_rows(4, kind, 2, 4, 20):
                neighbor(assign, owner, kind, row)
            assert assign == [0, 3] and owner == [0, -1, -1, 1]

    def test_single_qubit_moves_only_to_a_free_seat(self):
        # qubit 0 holds seat 1 of three: a draw of seat 1 is no move,
        # another seat takes it there, whatever the second word says
        assign, owner = [1], [-1, 0, -1]
        for below_n1 in (0, 5):
            assert neighbor(assign, owner, "random_assignment",
                            [1, 0, below_n1]) is None
            assert neighbor(assign, owner, "random_assignment",
                            [2, 0, below_n1]) == (0, 2, None)
        assert neighbor([0], [0], "random_assignment", [0, 0, 0]) is None


def reference_below(bit_generator, m):
    """One per-call draw below ``m``: the multiply-shift of one fresh raw
    word, with no block in between."""
    return (bit_generator.random_raw() * m) >> 64


def reference_rows(seed, kind, n, big_n, count):
    """Rows ``[first, below_n, below_n1]`` of ``count`` iterations, each
    from the multiply-shift of words ``2t`` and ``2t + 1`` of the raw
    stream in Python integers."""
    words = np.random.PCG64(seed).random_raw(2 * count).tolist()
    m = first_modulus(kind, n, big_n)
    return [[(a * m) >> 64, (b * n) >> 64, (b * (n - 1)) >> 64]
            for a, b in zip(words[::2], words[1::2])]


@st.composite
def table_shapes(draw):
    """A draw table's seed, neighbourhood, ``n``, ``N`` and budget."""
    n = draw(st.integers(1, 70))
    return (draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from(
        NEIGHBORHOODS)), n, draw(st.integers(n, 2**32 - 1)),
        draw(st.integers(1, 700)))


class TestDrawTable:
    """Iteration ``t`` reads words ``2t`` and ``2t + 1`` of the raw stream
    of ``PCG64(seed)``, however the table grows, and nothing else."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(table_shapes(), st.integers(1, 40),
           st.lists(st.tuples(st.integers(0, 40), st.integers(1, 300)),
                    min_size=1, max_size=30))
    def test_rows_are_the_multiply_shift_of_their_words(self, shape,
                                                         min_chunk, plan):
        # a plan of requests that start at or after the last one, as a
        # search makes them, crossing many chunk boundaries
        seed, kind, n, big_n, budget = shape
        table = DrawTable(seed, first_modulus(kind, n, big_n), n, budget)
        expected = reference_rows(seed, kind, n, big_n, budget)
        it = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(postprocess, "MIN_CHUNK", min_chunk)
            for step, k in plan:
                it = min(it + step, budget - 1)
                k = min(k, budget - it)
                assert table.ahead(it, k).tolist() == expected[it:it + k]
                held = slice(it - table.base, it - table.base + k)
                assert [list(row) for row in zip(
                    *(column[held] for column in table.columns))] == \
                    expected[it:it + k]
                assert table.base <= it and table.end <= budget

    @pytest.mark.parametrize("seed", range(30))
    def test_chunks_reach_the_request_and_drop_what_was_read(
            self, seed, monkeypatch):
        monkeypatch.setattr(postprocess, "MIN_CHUNK", 16)
        plan = np.random.default_rng(10**6 + seed)
        n, big_n, budget = 7, 12, 3000
        table = DrawTable(seed, big_n, n, budget)
        expected = reference_rows(seed, "random_assignment", n, big_n,
                                  budget)
        it = 0
        while it < budget:
            k = min(int(plan.integers(1, 40)), budget - it)
            end = table.end
            assert table.ahead(it, k).tolist() == expected[it:it + k]
            if it + k > end:
                # one chunk, as long as the request needs and at least
                # MIN_CHUNK, within the budget; the rows before it go
                assert table.end == min(budget, max(it + k, end + 16))
                assert table.base == it
            else:
                assert table.end == end
            assert ([len(column) for column in table.columns]
                    == [len(table.draws)] * 3)
            assert len(table.draws) <= 40 + 16
            it += int(plan.integers(1, k + 1))
        assert table.end == budget

    @pytest.mark.parametrize("seed", range(30))
    def test_moves_read_the_stream_as_one_word_per_draw(self, seed):
        # with two or more qubits every move draws twice, so the table's
        # moves are those of one fresh raw word per draw, in stream order
        rng = np.random.default_rng(seed)
        cg = build_grid(3, 4)
        n = int(rng.integers(2, 13))
        layout = random_layout(n, 12, rng)
        for kind in NEIGHBORHOODS:
            twin = np.random.PCG64(seed)
            for row in table_rows(seed, kind, n, 12, 40):
                assert applied(layout, propose(layout, cg, kind, row)
                               ).assign.tolist() == reference_neighbor(
                    layout, cg, kind, twin).assign.tolist()

    def test_below_each_is_the_multiply_shift_of_each_word(self):
        words = np.concatenate((
            np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1],
                     dtype=np.uint64),
            np.random.PCG64(3).random_raw(300)))
        for m in (1, 2, 3, 65, 2**31 + 5, 2**32 - 1):
            assert below_each(words, m).tolist() == [
                (w * m) >> 64 for w in words.tolist()]
        moduli = np.random.default_rng(4).integers(1, 2**32, len(words))
        assert below_each(words, moduli).tolist() == [
            (w * m) >> 64 for w, m in zip(words.tolist(), moduli.tolist())]
        # one modulus per column of a (moves, 3) block
        triples = words.reshape(-1, 2)[:, [0, 1, 1]]
        assert below_each(triples, np.array([65, 64, 63], dtype=np.uint64)
                          ).tolist() == [
            [(a * 65) >> 64, (b * 64) >> 64, (b * 63) >> 64]
            for a, b in words.reshape(-1, 2).tolist()]


def reference_neighbor(layout, cg, kind, bit_generator):
    """The copy-and-recompute search's move: a fresh ``Layout`` per call,
    with the same random draws as ``neighbor``, each from one fresh raw
    word of ``bit_generator``."""
    out = layout.copy()
    assign = out.assign
    n = len(assign)
    if kind == "random_swap":
        if n < 2:
            return out
        i = reference_below(bit_generator, n)
        j = reference_below(bit_generator, n - 1)
        if j >= i:
            j += 1
        assign[i], assign[j] = assign[j], assign[i]
        return out
    seat = reference_below(bit_generator, cg.num_physical)
    holders = np.nonzero(assign == seat)[0]
    if len(holders) == 0:
        assign[reference_below(bit_generator, n)] = seat
        return out
    if n < 2:
        return out
    j = int(holders[0])
    i = reference_below(bit_generator, n - 1)
    if i >= j:
        i += 1
    assign[i], assign[j] = assign[j], assign[i]
    return out


def reference_local_search(initial, pg, cg, cfg):
    """The oracle: strict hill climbing that copies the layout and
    recomputes the whole cost for every candidate. A layout with no move
    of the configured kind (one qubit, under a swap or with no free seat)
    stops before its first iteration. Returns the layout and a namespace
    of the iterations run, the accepted moves and the stop reason."""
    cost_fn = fast_cost_fn(pg, CostModel(cfg.cost_mode, cg.distances))
    bit_generator = np.random.PCG64(cfg.seed)
    curr, c_curr = initial.copy(), cost_fn(initial.assign)
    counts = SimpleNamespace(iterations=0, accepted=0, stop_reason="budget")
    if initial.n == 1 and (cfg.neighborhood == "random_swap"
                           or cg.num_physical == 1):
        counts.stop_reason = "no_move"
        return curr, counts
    p = 0
    for _ in range(cfg.n_iters):
        counts.iterations += 1
        cand = reference_neighbor(curr, cg, cfg.neighborhood, bit_generator)
        c_cand = cost_fn(cand.assign)
        if c_cand < c_curr:
            curr, c_curr = cand, c_cand
            counts.accepted += 1
            if cfg.reset_patience:
                p = 0
        else:
            p += 1
        if p > cfg.patience:
            counts.stop_reason = "patience"
            break
    return curr, counts


def assert_same_search(initial, pg, cg, cfg):
    """``local_search`` gives the oracle's layout, iteration count,
    accepted moves and stop reason, and its final cost is a full
    recompute of its layout. Returns the stats."""
    expected, counts = reference_local_search(initial, pg, cg, cfg)
    stats = SearchStats()
    out = local_search(initial, pg, cg, cfg, stats)
    assert out.assign.tolist() == expected.assign.tolist()
    assert (stats.iterations, stats.accepted, stats.stop_reason) == (
        counts.iterations, counts.accepted, counts.stop_reason)
    cost_fn = fast_cost_fn(pg, CostModel(cfg.cost_mode, cg.distances))
    assert stats.start_cost == cost_fn(initial.assign)
    assert stats.final_cost == cost_fn(out.assign)
    return stats


@st.composite
def search_cases(draw):
    """A connected device, a program with repeated, reversed and
    one-qubit-twice gates, and an initial layout that is often one qubit
    or fills every seat."""
    big_n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, big_n)}
    seat = st.integers(0, big_n - 1)
    edges |= set(draw(st.lists(st.tuples(seat, seat).filter(
        lambda e: e[0] != e[1]), max_size=8)))
    n = draw(st.sampled_from([1, big_n]) | st.integers(1, big_n))
    qubit = st.integers(0, n - 1)
    gates = draw(st.lists(st.tuples(qubit, qubit), max_size=4 * n))
    assign = draw(st.permutations(range(big_n)))[:n]
    return (CouplingGraph(big_n, frozenset(edges)), make_pg(n, gates),
            Layout(np.asarray(assign)))


class TestAgainstCopyAndRecompute:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(search_cases(), st.sampled_from(NEIGHBORHOODS),
           st.sampled_from(COST_MODES), st.booleans(),
           st.integers(1, 400), st.integers(0, 60), st.integers(0, 2**32))
    def test_same_layout_as_the_oracle(self, case, kind, mode, reset,
                                       n_iters, patience, seed):
        cg, pg, initial = case
        cfg = SearchConfig(neighborhood=kind, n_iters=n_iters,
                           patience=patience, seed=seed, cost_mode=mode,
                           reset_patience=reset)
        assert_same_search(initial, pg, cg, cfg)

    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize("kind", NEIGHBORHOODS)
    @pytest.mark.parametrize("mode", COST_MODES)
    @pytest.mark.parametrize("reset", [False, True])
    def test_one_qubit_and_full_device(self, n, kind, mode, reset):
        cg = build_grid(3, 3)
        rng = np.random.default_rng(n)
        pg = make_pg(n, [tuple(rng.integers(n, size=2)) for _ in range(3 * n)])
        initial = random_layout(n, 9, rng)
        cfg = SearchConfig(neighborhood=kind, n_iters=500, patience=40,
                           seed=n, cost_mode=mode, reset_patience=reset)
        assert_same_search(initial, pg, cg, cfg)

    @pytest.mark.parametrize("cg", [build_grid(1, 2), build_grid(3, 3),
                                    build_heavy_hex()],
                             ids=["grid1x2", "grid3x3", "heavyhex65"])
    @pytest.mark.parametrize("mode", COST_MODES)
    @pytest.mark.parametrize("n_iters,patience,stop", [
        (400, 30, "patience"), (30, 400, "budget"), (31, 30, "patience")])
    def test_one_qubit_on_a_multi_seat_device(self, cg, mode, n_iters,
                                              patience, stop):
        # a one-qubit move reads two words even when its seat is taken,
        # where the oracle reads one; no delta is ever negative, so the
        # search ends as the oracle's does
        pg = make_pg(1, [(0, 0)] * 3)
        for seat in range(min(cg.num_physical, 4)):
            cfg = SearchConfig(neighborhood="random_assignment",
                               n_iters=n_iters, patience=patience, seed=seat,
                               cost_mode=mode)
            stats = assert_same_search(Layout(np.array([seat])), pg, cg, cfg)
            assert (stats.iterations, stats.accepted, stats.stop_reason) == (
                min(n_iters, patience + 1), 0, stop)

    @pytest.mark.parametrize("kind", NEIGHBORHOODS)
    @pytest.mark.parametrize("mode", COST_MODES)
    def test_both_patience_rules_on_a_mid_size_case(self, kind, mode):
        cg = build_grid(4, 4)
        rng = np.random.default_rng(8)
        pg = make_pg(10, [tuple(rng.choice(10, 2, replace=False))
                          for _ in range(40)])
        initial = random_layout(10, 16, rng)
        accepted = []
        for reset in (False, True):
            cfg = SearchConfig(neighborhood=kind, n_iters=3000, patience=15,
                               seed=1, cost_mode=mode, reset_patience=reset)
            accepted.append(assert_same_search(initial, pg, cg,
                                               cfg).accepted)
        # the case tells the two rules apart
        assert accepted[0] < accepted[1]

    @pytest.mark.parametrize("kind", NEIGHBORHOODS)
    @pytest.mark.parametrize("reset", [False, True])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(search_cases(), st.integers(1, 400), st.integers(0, 60),
           st.integers(0, 2**32))
    def test_cost_mode_changes_no_move(self, kind, reset, case, n_iters,
                                       patience, seed):
        # literal cost is adjacent-free cost plus 2 per gate pair, a
        # constant of the program, so every move has the same delta
        cg, pg, initial = case
        literal, free = (fast_cost_fn(pg, CostModel(mode, cg.distances))
                         for mode in ("literal", "adjacent-free"))
        assert literal(initial.assign) == \
            free(initial.assign) + 2 * pg.gate_pairs.shape[1]
        layouts = [
            local_search(initial, pg, cg, SearchConfig(
                neighborhood=kind, n_iters=n_iters, patience=patience,
                seed=seed, cost_mode=mode, reset_patience=reset)
            ).assign.tolist()
            for mode in COST_MODES]
        assert layouts[0] == layouts[1]

    def test_cost_closure_runs_once_and_the_final_cost_is_exact(
            self, monkeypatch):
        # the full cost is computed for the start layout only; the final
        # cost is the start cost plus the deltas of the accepted moves
        initial, pg, cg, _ = heavyhex_case(6)
        cfg = SearchConfig(n_iters=2000, patience=2000, seed=3)
        costs = []

        def recording(pg, cm):
            cost = fast_cost_fn(pg, cm)

            def record(assign):
                costs.append(cost(assign))
                return costs[-1]
            return record

        monkeypatch.setattr(postprocess, "fast_cost_fn", recording)
        stats = SearchStats()
        out = local_search(initial, pg, cg, cfg, stats)
        assert costs == [stats.start_cost]
        full = fast_cost_fn(pg, CostModel(cfg.cost_mode, cg.distances))
        assert stats.start_cost == full(initial.assign)
        assert stats.final_cost == full(out.assign) < stats.start_cost
        assert stats.accepted > 0 and stats.stop_reason == "budget"

    def test_no_move_on_a_one_seat_device(self):
        cg = CouplingGraph(1, frozenset())
        stats = SearchStats()
        out = local_search(Layout(np.array([0])), make_pg(1, [(0, 0)]), cg,
                           SearchConfig(), stats)
        assert out.assign.tolist() == [0]
        assert stats == SearchStats(0, 0, "no_move", 0.0, 0.0)

    def test_stats_change_no_move(self):
        initial, pg, cg, cfg = heavyhex_case(7)
        assert (local_search(initial, pg, cg, cfg).assign.tolist()
                == local_search(initial, pg, cg, cfg,
                                SearchStats()).assign.tolist())


HEAVY_HEX = build_heavy_hex()


def heavyhex_case(i):
    """Search case ``i`` on heavyhex65, as the arguments of
    ``local_search``: a program of 20-60 qubits with 1-10
    gates per qubit (cases 0-5: 1, 2 or 65 qubits, under each
    neighbourhood), a random start, and a budget of up to 3000 iterations
    with patience up to the budget (every fifth case: the budget itself).
    The cases cycle through both neighbourhoods, both cost modes and both
    patience rules."""
    rng = np.random.default_rng(1000 + i)
    n = (1, 2, 65)[i % 3] if i < 6 else int(rng.integers(20, 61))
    gates = rng.integers(n, size=(n * int(rng.integers(1, 11)), 2))
    pg = make_pg(n, [tuple(g) for g in gates.tolist()])
    initial = random_layout(n, HEAVY_HEX.num_physical, rng)
    n_iters = int(rng.integers(1, 3001))
    patience = n_iters if i % 5 == 0 else int(rng.integers(0, n_iters + 1))
    cfg = SearchConfig(neighborhood=NEIGHBORHOODS[i % 2],
                       cost_mode=COST_MODES[i // 2 % 2],
                       reset_patience=bool(i // 4 % 2), n_iters=n_iters,
                       patience=patience, seed=i)
    return initial, pg, HEAVY_HEX, cfg


HEAVY_HEX_CASES = range(48)


def block_ends():
    """The cumulative move counts at which the blocks of one scan end."""
    total, size = 0, postprocess.FIRST_SCAN
    while True:
        total += size
        yield total
        size = min(2 * size, postprocess.LAST_SCAN)


class TestLongRuns:
    """Searches long enough that runs of rejected moves are scored in
    blocks from the gain table."""

    @pytest.mark.parametrize("i", HEAVY_HEX_CASES)
    def test_same_search_as_the_oracle(self, i):
        assert_same_search(*heavyhex_case(i))

    def test_the_cases_take_the_block_phase(self, monkeypatch):
        # the cases above accept moves from blocks, and end searches by
        # patience and by budget part-way through a block
        scans = []
        scan = GainTable.scan

        def spy(self, assign, owner, draws, it, limit):
            skipped, move, delta = scan(self, assign, owner, draws, it,
                                        limit)
            scans.append((limit, skipped, delta))
            return skipped, move, delta

        monkeypatch.setattr(GainTable, "scan", spy)
        accepted, stopped_in_block = False, set()
        for i in HEAVY_HEX_CASES:
            del scans[:]
            stats = SearchStats()
            local_search(*heavyhex_case(i), stats)
            accepted |= any(delta < 0 for _, _, delta in scans)
            if not scans:
                continue
            limit, skipped, delta = scans[-1]
            ends = block_ends()
            if delta >= 0 and skipped + 1 == limit and limit not in (
                    next(ends) for _ in range(limit)):
                stopped_in_block.add(stats.stop_reason)
        assert accepted
        assert stopped_in_block == {"patience", "budget"}


class TestGainTable:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(search_cases(), st.sampled_from(NEIGHBORHOODS),
           st.sampled_from(COST_MODES), st.integers(1, 700),
           st.integers(0, 2**32), st.integers(0, 50),
           st.integers(1, FIRST_SCAN - 1), st.integers(1, 300))
    def test_scan_finds_the_first_improving_single_move(
            self, case, kind, mode, limit, seed, it, cut, max_chunk):
        # the scan starts at iteration it, the table's first chunk ends
        # cut moves into its first block, and past max_chunk moves the
        # table grows block by block
        cg, pg, layout = case
        assume(layout.n >= 2)
        cm = CostModel(mode, cg.distances)
        nbrs, rows = weighted_neighbours(pg), cm.edge_costs.tolist()
        assign = layout.assign.tolist()
        owner = owners(assign, cg.num_physical)
        n, big_n, budget = layout.n, cg.num_physical, it + limit
        draws = DrawTable(seed, first_modulus(kind, n, big_n), n, budget)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(postprocess, "MIN_CHUNK", 1)
            patch.setattr(postprocess, "MAX_CHUNK", max_chunk)
            draws.hold(0, min(it + cut, budget))
            skipped, move, delta = GainTable(pg, cm.edge_costs, kind).scan(
                assign, owner, draws, it, limit)
        assert assign == layout.assign.tolist()
        assert owner == owners(assign, cg.num_physical)
        singles = table_rows(seed, kind, n, big_n, budget)[it:]
        for row in singles[:skipped]:
            single = neighbor(assign, owner, kind, row)
            assert move_delta(single, assign, nbrs, rows) >= 0
        single = neighbor(assign, owner, kind, singles[skipped])
        assert single == move
        assert move_delta(single, assign, nbrs, rows) == delta
        assert delta < 0 or skipped + 1 == limit

    def test_weights_count_the_gates_of_each_pair(self):
        pg = make_pg(4, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2), (3, 1)])
        cm = CostModel("literal", build_grid(2, 2).distances)
        weights = GainTable(pg, cm.edge_costs, "random_swap").weights
        expected = np.zeros((5, 5))
        for q, partners in enumerate(weighted_neighbours(pg)):
            for r, w in partners:
                expected[q, r] = w
        assert np.array_equal(weights, expected)


class TestMoveDelta:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(search_cases(), st.sampled_from(NEIGHBORHOODS),
           st.sampled_from(COST_MODES), st.integers(0, 2**32))
    def test_walk_matches_the_oracle_move_by_move(self, case, kind, mode,
                                                  seed):
        # every proposed move, better or worse, is scored and applied; the
        # oracle's move t draws from words 2t and 2t + 1, as the table's
        # does (one qubit too, where the oracle's own search reads one
        # word for a seat that is taken)
        cg, pg, layout = case
        cm = CostModel(mode, cg.distances)
        cost_fn = fast_cost_fn(pg, cm)
        nbrs, rows = weighted_neighbours(pg), cm.edge_costs.tolist()
        twin = np.random.PCG64(seed)
        assign = layout.assign.tolist()
        owner = owners(assign, cg.num_physical)
        for row in table_rows(seed, kind, layout.n, cg.num_physical, 60):
            words = iter(twin.random_raw(2).tolist())
            before = cost_fn(np.asarray(assign))
            expected = reference_neighbor(
                Layout(np.asarray(assign)), cg, kind,
                SimpleNamespace(random_raw=lambda: next(words)))
            move = neighbor(assign, owner, kind, row)
            delta = 0.0
            if move is not None:
                delta = move_delta(move, assign, nbrs, rows)
                apply_move(move, assign, owner)
            assert assign == expected.assign.tolist()
            assert owner == owners(assign, cg.num_physical)
            # the delta equals the difference of two full costs exactly
            assert delta == cost_fn(np.asarray(assign)) - before

    def test_neighbour_lists_count_gates_per_pair(self):
        pg = make_pg(3, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)])
        assert weighted_neighbours(pg) == [[(1, 3)], [(0, 3), (2, 1)],
                                           [(1, 1)]]


class TestLocalSearch:
    def test_invalid_initial_rejected(self):
        cg = build_grid(2, 2)
        pg = make_pg(2, [(0, 1)])
        with pytest.raises(ConstraintViolationError):
            local_search(Layout(np.array([1, 1])), pg, cg, SearchConfig())

    @pytest.mark.parametrize("n_assigned", [2, 4])
    def test_layout_of_another_width_rejected(self, n_assigned):
        cg = build_grid(2, 3)
        pg = make_pg(3, [(0, 1), (1, 2)])
        with pytest.raises(ConstraintViolationError,
                           match=f"covers {n_assigned} qubits.* has 3"):
            local_search(Layout(np.arange(n_assigned)), pg, cg,
                         SearchConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SearchConfig(neighborhood="anneal")
        with pytest.raises(ConfigError):
            SearchConfig(n_iters=0)
        with pytest.raises(ConfigError):
            SearchConfig(patience=-1)

    def test_unknown_cost_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown cost mode 'bogus'"):
            SearchConfig(cost_mode="bogus")

    @pytest.mark.parametrize("field,value,fragment", [
        ("n_iters", 2.5, "n_iters must be an integer, not 2.5"),
        ("n_iters", True, "n_iters must be an integer, not True"),
        ("patience", 1.5, "patience must be an integer, not 1.5"),
        ("patience", False, "patience must be an integer, not False"),
        ("seed", -1, "seed must be at least 0, not -1"),
        ("seed", 0.5, "seed must be an integer"),
        ("reset_patience", "no",
         "reset_patience must be True or False, not 'no'"),
        ("reset_patience", 2, "reset_patience must be True or False, not 2"),
        ("reset_patience", None, "reset_patience must be True or False"),
    ])
    def test_config_rejects_boundary_values(self, field, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            SearchConfig(**{field: value})

    def test_config_takes_numpy_integers(self):
        cfg = SearchConfig(n_iters=np.int64(5), patience=np.int32(0),
                           seed=np.uint8(3))
        assert (cfg.n_iters, cfg.patience, cfg.seed) == (5, 0, 3)

    def test_already_optimal_stays_optimal(self, rng):
        cg = build_grid(2, 2)
        pg = make_pg(3, [(0, 1), (1, 2)])
        cm = CostModel("adjacent-free", cg.distances)
        opt, opt_cost = brute_force_optimal(pg, cg, cm)
        out = local_search(opt, pg, cg,
                           SearchConfig(cost_mode="adjacent-free", seed=1))
        assert swap_cost(out, pg, cm) == opt_cost

    def test_patience_zero_stops_at_first_non_improvement(self, rng):
        cg = build_grid(3, 3)
        pg = make_pg(4, [(0, 1), (1, 2), (2, 3)])
        cfg = SearchConfig(patience=0, n_iters=10**6, seed=0)
        # must terminate quickly despite the huge iteration budget
        out = local_search(random_layout(4, 9, rng), pg, cg, cfg)
        assert out.is_total()

    @pytest.mark.parametrize("kind", NEIGHBORHOODS)
    def test_huge_budget_draws_only_what_the_search_runs(self, kind):
        # n_iters and patience bound the draw table, but neither sizes
        # it: a table of one MAX_CHUNK of iterations takes 0.7 MB
        initial, pg, cg, _ = heavyhex_case(10)
        cfg = SearchConfig(neighborhood=kind, n_iters=10**9, patience=10,
                           seed=1)
        local_search(initial, pg, cg, cfg)  # builds the device's cost rows
        tracemalloc.start()
        try:
            stats = SearchStats()
            local_search(initial, pg, cg, cfg, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.stop_reason == "patience"
        assert stats.iterations < 100
        assert peak < 2**16

    def test_sandwich_against_brute_force(self, rng):
        # final cost between the brute-force optimum and the initial cost
        for trial in range(40):
            pg, cg = random_instance(rng)
            mode = "literal" if trial % 2 else "adjacent-free"
            cm = CostModel(mode, cg.distances)
            cost_fn = fast_cost_fn(pg, cm)
            initial = random_layout(pg.num_logical, cg.num_physical, rng)
            _, opt = brute_force_optimal(pg, cg, cm)
            cfg = SearchConfig(n_iters=2000, patience=200, seed=trial,
                               cost_mode=mode)
            out = local_search(initial, pg, cg, cfg)
            final = cost_fn(out.assign)
            assert opt <= final <= cost_fn(initial.assign)

    def test_reset_patience_variant_runs_longer(self, rng):
        cg = build_grid(3, 3)
        pg = make_pg(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        init = random_layout(5, 9, rng)
        base = SearchConfig(n_iters=3000, patience=50, seed=2)
        keep = local_search(init, pg, cg, base)
        reset = local_search(
            init, pg, cg,
            SearchConfig(n_iters=3000, patience=50, seed=2,
                         reset_patience=True))
        cm = CostModel("adjacent-free", cg.distances)
        assert swap_cost(reset, pg, cm) <= swap_cost(keep, pg, cm)

    def test_deterministic_given_seed(self, rng):
        pg, cg = random_instance(rng)
        init = random_layout(pg.num_logical, cg.num_physical, rng)
        cfg = SearchConfig(seed=7, n_iters=500)
        a = local_search(init, pg, cg, cfg)
        b = local_search(init, pg, cg, cfg)
        assert a.assign.tolist() == b.assign.tolist()

    @pytest.mark.parametrize("kind,expected", [
        ("random_swap", [1, 0, 5, 3, 4, 2]),
        ("random_assignment", [4, 1, 8, 9, 0, 5]),
    ])
    def test_golden_layout_of_a_seed(self, kind, expected):
        # pins the draw stream: a change to how moves are drawn from the
        # seed's raw words changes these layouts
        pg = make_pg(6, [(0, 5), (1, 4), (2, 3), (0, 3), (1, 5), (4, 2),
                         (5, 3), (0, 1), (2, 5), (4, 0)])
        out = local_search(Layout(np.arange(6)), pg, build_grid(3, 4),
                           SearchConfig(neighborhood=kind, seed=5))
        assert out.assign.tolist() == expected

    @pytest.mark.parametrize("kind", ["random_swap", "random_assignment"])
    def test_both_neighborhoods_improve_or_hold(self, kind, rng):
        pg, cg = random_instance(rng)
        cm = CostModel("adjacent-free", cg.distances)
        init = random_layout(pg.num_logical, cg.num_physical, rng)
        cfg = SearchConfig(neighborhood=kind, n_iters=1000, patience=300,
                           seed=0)
        out = local_search(init, pg, cg, cfg)
        assert swap_cost(out, pg, cm) <= swap_cost(init, pg, cm)


def scipy_qap(pg, cm, method):
    """scipy's QAP answer for ``pg`` on ``cm``'s device: the gate-count
    matrix, padded with zero rows and columns to N x N, is the flow and
    the cost table the distance. Returns its layout and its ``fun``."""
    quadratic_assignment = pytest.importorskip(
        "scipy.optimize").quadratic_assignment
    big_n = cm.distance.n
    flow = np.zeros((big_n, big_n))
    np.add.at(flow, tuple(pg.gate_pairs), 1.0)
    res = quadratic_assignment(flow, cm.edge_costs, method=method,
                               options={"rng": np.random.default_rng(0)})
    return Layout(res.col_ind[:pg.num_logical]), res.fun


class TestQapSandwich:
    """The exact optimum lies below scipy's QAP heuristics (FAQ, Vogelstein
    et al. 2015, and 2-opt) and below local search, and scipy's objective
    is the SWAP cost of its layout."""

    @pytest.mark.parametrize("mode", COST_MODES)
    @pytest.mark.parametrize("rows,cols", [(2, 3), (3, 3)])
    @pytest.mark.parametrize("seed", range(10))
    def test_brute_force_bounds_scipy_and_local_search(self, seed, rows,
                                                        cols, mode):
        rng = np.random.default_rng(seed)
        cg = build_grid(rows, cols)
        n = int(rng.integers(2, 6))
        pg = make_pg(n, [rng.choice(n, 2, replace=False)
                         for _ in range(rng.integers(1, 3 * n + 1))])
        cm = CostModel(mode, cg.distances)
        _, best = brute_force_optimal(pg, cg, cm)
        for method in ("faq", "2opt"):
            layout, fun = scipy_qap(pg, cm, method)
            assert fun == swap_cost(layout, pg, cm)
            assert best <= fun
        refined = local_search(random_layout(n, cg.num_physical, rng), pg, cg,
                               SearchConfig(seed=seed, cost_mode=mode))
        assert best <= swap_cost(refined, pg, cm)
