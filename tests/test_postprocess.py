import numpy as np
import pytest
from hypothesis import given, settings
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
    NEIGHBORHOODS,
    Draws,
    SearchConfig,
    apply_move,
    local_search,
    move_delta,
    neighbor,
)
from qlayout.topology import CouplingGraph, build_grid


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


@pytest.fixture
def draws(rng):
    return Draws(rng)


def propose(layout, cg, kind, draws):
    """One ``neighbor`` move of ``layout``, from fresh state lists."""
    assign = layout.assign.tolist()
    return neighbor(assign, owners(assign, cg.num_physical), kind, draws)


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
    def test_swap_on_two_qubits_is_the_transposition(self, draws):
        cg = build_grid(2, 2)
        lay = Layout(np.array([0, 3]))
        out = applied(lay, propose(lay, cg, "random_swap", draws))
        assert out.assign.tolist() == [3, 0]

    def test_swap_single_qubit_noop(self, draws):
        cg = build_grid(2, 2)
        lay = Layout(np.array([2]))
        move = propose(lay, cg, "random_swap", draws)
        assert move is None
        assert applied(lay, move).assign.tolist() == [2]

    def test_full_device_always_swaps(self, draws):
        cg = build_grid(2, 2)
        lay = Layout(np.array([0, 1, 2, 3]))
        for _ in range(50):
            move = propose(lay, cg, "random_assignment", draws)
            out = applied(lay, move)
            assert sorted(out.assign.tolist()) == [0, 1, 2, 3]
            # every seat is occupied, so the move swaps two qubits
            assert move[2] is not None
            assert (out.assign != lay.assign).sum() == 2

    def test_random_assignment_can_use_free_seat(self, draws):
        cg = build_grid(3, 3)
        lay = Layout(np.array([0, 1]))
        used_free_seat = False
        for _ in range(200):
            move = propose(lay, cg, "random_assignment", draws)
            out = applied(lay, move)
            assert out.is_total() and out.is_injective()
            if set(out.assign.tolist()) != {0, 1}:
                used_free_seat = True
                assert move[2] is None and move[1] not in (0, 1)
        assert used_free_seat

    def test_injective_under_stress(self, rng):
        cg = build_grid(3, 3)
        lay = random_layout(5, 9, rng)
        draws = Draws(rng)
        for kind in NEIGHBORHOODS:
            cur = lay
            for _ in range(5000):
                cur = applied(cur, propose(cur, cg, kind, draws))
                assert cur.is_total() and cur.is_injective()

    def test_does_not_mutate_input(self, draws):
        for kind in NEIGHBORHOODS:
            assign, owner = [0, 3], [0, -1, -1, 1]
            for _ in range(20):
                neighbor(assign, owner, kind, draws)
            assert assign == [0, 3] and owner == [0, -1, -1, 1]

    def test_single_qubit_on_an_occupied_seat_is_no_move(self):
        # seat 0 is the only draw of below(1), and qubit 0 holds it
        draws = Draws(np.random.default_rng(0))
        assert neighbor([0], [0], "random_assignment", draws) is None


class TestDraws:
    """The draw source replays the installed numpy's ``integers`` and
    ``choice`` value for value; a numpy whose algorithms differ fails here
    instead of silently changing every seed's layout."""

    @pytest.fixture(autouse=True)
    def tiny_block(self, monkeypatch):
        # three words per refill, so draws and rejections cross refills
        monkeypatch.setattr(postprocess, "BLOCK", 3)

    @pytest.mark.parametrize("seed", range(30))
    def test_below_matches_integers(self, seed):
        # 2**31 + 1 and 3 * 10**9 reject about a half and a third of their
        # words; 2**31 and 2**32 reject none
        bounds = list(range(1, 131)) + [2**31, 2**31 + 1, 2**31 + 3,
                                        3 * 10**9, 2**32 - 5, 2**32]
        order = np.random.default_rng(10**6 + seed).permutation(2 * bounds)
        draws = Draws(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        for m in order.tolist():
            assert draws.below(m) == int(twin.integers(m))

    @pytest.mark.parametrize("seed", range(30))
    def test_pair_matches_choice(self, seed):
        # n = 2 draws its first Floyd value from below(1), consuming nothing
        draws = Draws(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        for n in list(range(2, 131)) * 2:
            assert (draws.pair(n)
                    == tuple(twin.choice(n, size=2, replace=False).tolist()))
            assert draws.below(n) == int(twin.integers(n))


def reference_neighbor(layout, cg, kind, rng):
    """The copy-and-recompute search's move: a fresh ``Layout`` per call,
    with the same random draws as ``neighbor``."""
    out = layout.copy()
    assign = out.assign
    n = len(assign)
    if kind == "random_swap":
        if n < 2:
            return out
        i, j = rng.choice(n, size=2, replace=False)
        assign[i], assign[j] = assign[j], assign[i]
        return out
    seat = int(rng.integers(cg.num_physical))
    holders = np.nonzero(assign == seat)[0]
    if len(holders) == 0:
        assign[int(rng.integers(n))] = seat
        return out
    if n < 2:
        return out
    j = int(holders[0])
    i = int(rng.integers(n - 1))
    if i >= j:
        i += 1
    assign[i], assign[j] = assign[j], assign[i]
    return out


def reference_local_search(initial, pg, cg, cfg):
    """The oracle: strict hill climbing that copies the layout and
    recomputes the whole cost for every candidate. Returns the layout and
    the number of accepted moves."""
    cost_fn = fast_cost_fn(pg, CostModel(cfg.cost_mode, cg.distances))
    rng = np.random.default_rng(cfg.seed)
    curr, c_curr = initial.copy(), cost_fn(initial.assign)
    p = accepted = 0
    for _ in range(cfg.n_iters):
        cand = reference_neighbor(curr, cg, cfg.neighborhood, rng)
        c_cand = cost_fn(cand.assign)
        if c_cand < c_curr:
            curr, c_curr = cand, c_cand
            accepted += 1
            if cfg.reset_patience:
                p = 0
        else:
            p += 1
        if p > cfg.patience:
            break
    return curr, accepted


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
        expected, _ = reference_local_search(initial, pg, cg, cfg)
        assert (local_search(initial, pg, cg, cfg).assign.tolist()
                == expected.assign.tolist())

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
        expected, _ = reference_local_search(initial, pg, cg, cfg)
        assert (local_search(initial, pg, cg, cfg).assign.tolist()
                == expected.assign.tolist())

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
                               seed=4, cost_mode=mode, reset_patience=reset)
            expected, count = reference_local_search(initial, pg, cg, cfg)
            accepted.append(count)
            assert (local_search(initial, pg, cg, cfg).assign.tolist()
                    == expected.assign.tolist())
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

    def test_cost_closure_runs_once_and_once_per_accepted_move(
            self, monkeypatch, rng):
        pg, cg = random_instance(rng, n_max=6, big_n_max=9)
        initial = random_layout(pg.num_logical, cg.num_physical, rng)
        cfg = SearchConfig(n_iters=2000, patience=2000, seed=3)
        costs = []

        def recording(pg, cm):
            cost = fast_cost_fn(pg, cm)

            def record(assign):
                costs.append(cost(assign))
                return costs[-1]
            return record

        monkeypatch.setattr(postprocess, "fast_cost_fn", recording)
        local_search(initial, pg, cg, cfg)
        _, accepted = reference_local_search(initial, pg, cg, cfg)
        assert len(costs) == 1 + accepted
        assert all(b < a for a, b in zip(costs, costs[1:]))


class TestMoveDelta:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(search_cases(), st.sampled_from(NEIGHBORHOODS),
           st.sampled_from(COST_MODES), st.integers(0, 2**32))
    def test_walk_matches_the_oracle_move_by_move(self, case, kind, mode,
                                                  seed):
        # every proposed move, better or worse, is scored and applied
        cg, pg, layout = case
        cm = CostModel(mode, cg.distances)
        cost_fn = fast_cost_fn(pg, cm)
        nbrs, rows = weighted_neighbours(pg), cm.edge_costs.tolist()
        draws = Draws(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        assign = layout.assign.tolist()
        owner = owners(assign, cg.num_physical)
        for _ in range(60):
            before = cost_fn(np.asarray(assign))
            expected = reference_neighbor(Layout(np.asarray(assign)), cg,
                                          kind, twin)
            move = neighbor(assign, owner, kind, draws)
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
