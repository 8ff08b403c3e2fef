"""The masked-forward walk against a frozen copy of the walk it replaced.

``training._walk`` copies its episodes' rows step-major and writes -inf at
each step's seats into the episodes' later rows, and decides once per walk
which steps sample or need the softmax form. ``reference_walk.walk`` masks
every step with a per-episode ``free`` array and decides per step. The two
must choose the same seats on every input: exact ties and ties within
``TIE_MARGIN``, signed zeros, episodes of unequal sizes over shared rows,
sampled, greedy and mixed starts, and episodes that fill the device.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.objective import CostModel, fast_cost_fn
from qlayout.topology import build_grid
from qlayout.training import TIE_MARGIN, _walk

import reference_walk

WALK_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.too_slow])

# gaps to a row's top logit: an exact tie, gaps below the rounding of exp
# near 1 (exp(-1e-17) is 1.0), within and beyond TIE_MARGIN
GAPS = (0.0, 1e-17, 1e-16, 5e-13, TIE_MARGIN, 2e-12, 1e-9)


@st.composite
def tables(draw, n_rows, n_phys):
    """An (n_rows, n_phys) table of tanh logits at a drawn clip, whose rows
    may hold near ties of their top entry and signed zeros."""
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    table = np.tanh(rng.normal(size=(n_rows, n_phys))) * scale
    for t in range(n_rows):
        if draw(st.booleans()):
            table[t] -= table[t].max()  # a max of 0.0, where ulps are fine
        top = table[t].max()
        for j in draw(st.lists(st.integers(0, n_phys - 1), max_size=4)):
            table[t, j] = top - draw(st.sampled_from(GAPS)) * draw(
                st.sampled_from([1, -1]))
        for j in draw(st.lists(st.integers(0, n_phys - 1), max_size=3)):
            table[t, j] = draw(st.sampled_from([0.0, -0.0]))
    return table


@st.composite
def walks(draw):
    """A table and 1-6 episodes over it: sizes up to N (some of them N),
    first rows that overlap, and 0 to all of their steps sampled."""
    n_phys = draw(st.integers(1, 7))
    n_eps = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, n_phys), min_size=n_eps,
                          max_size=n_eps))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, n_eps - 1))] = n_phys
    n_rows = max(sizes) + draw(st.integers(0, 3))
    table = draw(tables(n_rows, n_phys))
    firsts = [draw(st.integers(0, n_rows - size)) for size in sizes]
    mode = draw(st.sampled_from(["greedy", "sampled", "mixed"]))
    counts = {"greedy": [0] * n_eps, "sampled": sizes,
              "mixed": [draw(st.integers(0, size)) for size in sizes]}[mode]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    uniforms = [rng.random(count) if count else () for count in counts]
    return table, firsts, sizes, uniforms


def assert_same_seats(table, firsts, sizes, uniforms):
    before = table.copy()
    got = _walk(table, firsts, sizes, uniforms)
    want = reference_walk.walk(table, firsts, sizes, uniforms)
    assert [seats.tolist() for seats in got] == \
        [seats.tolist() for seats in want]
    for seats, size in zip(got, sizes):
        assert seats.dtype == np.int64 and seats.flags.c_contiguous
        assert len(seats) == size == len(set(seats.tolist()))
    # the table itself is never masked
    assert table.tobytes() == before.tobytes()


@WALK_SETTINGS
@given(case=walks())
def test_the_walk_takes_the_reference_seats(case):
    assert_same_seats(*case)


@WALK_SETTINGS
@given(data=st.data(), n=st.integers(1, 7), k=st.integers(1, 10))
def test_multistart_walks_take_the_reference_seats(data, n, k):
    """A decode's starts: k walks of one (n, N) table from row 0, start 0
    greedy and the others sampling their first step, or every step."""
    n_phys = data.draw(st.integers(n, 8))
    table = data.draw(tables(n, n_phys))
    counts = data.draw(st.sampled_from([[0] + [1] * (k - 1), [n] * k]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    uniforms = [rng.random(count) if count else () for count in counts]
    assert_same_seats(table, [0] * k, [n] * k, uniforms)


@pytest.mark.parametrize("sampled", [0, 1, 3])
def test_a_walk_that_fills_the_device_takes_every_seat(sampled):
    """n = N: the last step has one seat left, every other entry -inf."""
    table = np.tile(np.array([3.0, 2.0, 1.0]), (3, 1))
    uniforms = [np.full(sampled, 0.99) if sampled else ()] * 2
    assert_same_seats(table, [0, 0], [3, 3], uniforms)
    if not sampled:
        assert [s.tolist() for s in _walk(table, [0, 0], [3, 3],
                                          uniforms)] == [[0, 1, 2]] * 2


def test_a_seat_stays_masked_after_the_next_step():
    """Seat 0 is the top of every row: each episode takes it once, at its
    first step, and never again, two or more steps later."""
    table = np.array([[5.0, 1.0, 0.0, 2.0],
                      [5.0, 0.0, 4.0, 1.0],
                      [5.0, 3.0, 4.0, 1.0],
                      [5.0, 3.0, 4.0, 1.0]])
    seats = _walk(table, [0, 1], [4, 3], [(), ()])
    assert [s.tolist() for s in seats] == [[0, 2, 1, 3], [0, 2, 1]]
    assert_same_seats(table, [0, 1], [4, 3], [(), ()])


def test_a_tie_within_the_rounding_of_exp_redoes_the_step():
    """exp(-1e-17) rounds to 1.0, so seats 0 and 1 tie in probability and
    the first wins, although seat 1 holds the larger logit; in a walk that
    also samples, for the greedy episode only."""
    table = np.array([[0.0, 1e-17, -1.0], [0.0, 1e-17, -1.0]])
    uniforms = [(), np.array([0.9, 0.1])]
    assert _walk(table, [0, 0], [2, 2], uniforms)[0].tolist() == [0, 1]
    assert_same_seats(table, [0, 0], [2, 2], uniforms)


def test_a_cost_function_scores_a_stack_of_assignments():
    """The closure takes one assignment (a float) or a (k, n) stack (k
    costs), with the same values."""
    cg = build_grid(2, 3)
    pg = ProgramGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)),
                      onehot_features(4, 4))
    cost = fast_cost_fn(pg, CostModel.for_graph(cg))
    stack = np.array([[0, 1, 2, 3], [5, 3, 0, 1], [2, 4, 1, 0]])
    costs = cost(stack)
    assert costs.shape == (3,)
    assert costs.tolist() == [cost(row) for row in stack]
    assert all(type(cost(row)) is float for row in stack)
