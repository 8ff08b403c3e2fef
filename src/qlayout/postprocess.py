"""Hill-climbing refinement of a layout under a patience budget.

Acceptance is strict: a move is applied only when it makes the layout
cheaper. As written, the patience counter counts non-improving
iterations cumulatively and never resets; ``reset_patience`` switches to
the variant that resets it on every improvement.

The SWAP cost is a Koopmans-Beckmann quadratic assignment objective: gate
multiplicity times the cost of the seat pair. A move relocates one or two
qubits, so only the gates of those qubits change cost, and a move is
scored by its cost delta as in Taillard's robust tabu search. The search
keeps one state for its whole run: the assignment as a list, its
seat -> qubit inverse, per-qubit weighted neighbour lists and the rows of
``CostModel.edge_costs`` as lists. Each delta is summed in plain Python
(numpy calls per move are slower at this size) and an accepted move is
applied in place. The full cost is recomputed only on an accepted move.
Edge costs are exact small integers, so every delta and running cost is
exact, and the search takes the decisions that a full recompute of every
candidate takes. ``SearchConfig.cost_mode`` changes no move: the literal
cost is the adjacent-free cost plus 2 per gate pair, a constant of the
program, so every delta, and the layout a seed gives, is the same in both
modes.

The moves are drawn from a ``Draws`` source over ``default_rng(seed)``.
It reads only the generator's bit generator, whose raw 64-bit stream
numpy keeps fixed across releases (NEP 19), in blocks of ``BLOCK`` words,
and turns each word into one bounded draw by Lemire's multiply-shift.
No ``Generator`` method is called, so the layout a seed gives does not
depend on the numpy release. A swap draws its first qubit below ``n`` and
its second below ``n - 1``, skipping the first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import ProgramGraph
from .errors import ConfigError, check_flag, check_integer
from .objective import (CostModel, Layout, check_cost_mode, check_covers,
                        fast_cost_fn, weighted_neighbours)
from .topology import CouplingGraph

NEIGHBORHOODS = ("random_swap", "random_assignment")


@dataclass
class SearchConfig:
    neighborhood: str = "random_assignment"
    n_iters: int = 10000
    patience: int = 500
    seed: int = 0
    cost_mode: str = "adjacent-free"
    reset_patience: bool = False

    def __post_init__(self):
        if self.neighborhood not in NEIGHBORHOODS:
            raise ConfigError(f"unknown neighborhood '{self.neighborhood}'")
        check_cost_mode(self.cost_mode)
        check_integer("n_iters", self.n_iters, 1)
        check_integer("patience", self.patience, 0)
        check_integer("seed", self.seed, 0)
        check_flag("reset_patience", self.reset_patience)


# raw 64-bit words fetched per refill of a Draws source; one refill costs
# about one per-call draw, and a search takes one to three words per
# iteration, so a refill serves about a hundred iterations
BLOCK = 256


class Draws:
    """Uniform integers from blocks of ``rng.bit_generator``'s raw 64-bit
    words, ``random_raw(BLOCK)`` at a time. Nothing else of ``rng`` is
    read, so the values depend on its bit generator's stream alone."""

    def __init__(self, rng):
        self._raw = rng.bit_generator.random_raw
        self._words = iter(())

    def below(self, m: int) -> int:
        """A uniform integer in ``[0, m)`` for ``1 <= m <= 2**64``:
        Lemire's multiply-shift ``(w * m) >> 64`` of the next word ``w``,
        without rejection, so each value's probability is within
        ``2**-64`` of ``1 / m``. Every draw takes one word, ``below(1)``
        too."""
        try:
            w = next(self._words)
        except StopIteration:
            self._words = iter(self._raw(BLOCK).tolist())
            w = next(self._words)
        return (w * m) >> 64


def neighbor(assign, owner, kind: str, draws: Draws):
    """Draw one random neighbourhood move from ``draws`` for the layout
    ``assign`` (a list, qubit -> seat) whose inverse is ``owner`` (a list,
    seat -> qubit, -1 for a free seat). Reads but never changes either
    list.

    Returns ``(qubit, seat, displaced)``: ``qubit`` moves to ``seat``, and
    ``displaced``, the qubit on ``seat`` or None if it is free, moves to
    ``qubit``'s old seat, so the moved layout is total and injective.
    Returns None when the layout has no move of this kind (one qubit).
    """
    n = len(assign)
    if kind == "random_swap":
        if n < 2:
            return None
        i = draws.below(n)
        j = draws.below(n - 1)
        if j >= i:
            j += 1
        return i, assign[j], j
    if kind != "random_assignment":
        raise ConfigError(f"unknown neighborhood '{kind}'")

    seat = draws.below(len(owner))
    j = owner[seat]
    if j < 0:
        return draws.below(n), seat, None
    # occupied seat: fall back to swapping with another assigned pair
    if n < 2:
        return None
    i = draws.below(n - 1)
    if i >= j:
        i += 1
    return i, seat, j


def move_delta(move, assign, nbrs, rows):
    """Exact cost change of ``move`` (as ``neighbor`` returns it) on the
    layout ``assign``; ``rows`` are the rows of ``CostModel.edge_costs``.
    The gate between a swapped pair keeps its cost, because seat-pair costs
    are symmetric."""
    qubit, seat, displaced = move
    new_row, old_row = rows[seat], rows[assign[qubit]]
    delta = 0.0
    for r, w in nbrs[qubit]:
        if r != displaced:
            s = assign[r]
            delta += w * (new_row[s] - old_row[s])
    if displaced is not None:
        for r, w in nbrs[displaced]:
            if r != qubit:
                s = assign[r]
                delta += w * (old_row[s] - new_row[s])
    return delta


def apply_move(move, assign, owner):
    """Apply ``move`` (as ``neighbor`` returns it) in place to the
    assignment list ``assign`` and its inverse ``owner``."""
    qubit, seat, displaced = move
    old = assign[qubit]
    assign[qubit] = seat
    owner[seat] = qubit
    if displaced is None:
        owner[old] = -1
    else:
        assign[displaced] = old
        owner[old] = displaced


def local_search(initial: Layout, pg: ProgramGraph, cg: CouplingGraph,
                 cfg: SearchConfig) -> Layout:
    """Strict hill climbing; the returned cost never exceeds the input cost.
    Only a cheaper move is applied, so the current layout is the best one
    seen."""
    initial.validate(cg.num_physical)
    check_covers(initial, pg)
    cm = CostModel(cfg.cost_mode, cg.distances)
    cost_fn = fast_cost_fn(pg, cm)
    rows = cm.edge_costs.tolist()
    nbrs = weighted_neighbours(pg)
    draws = Draws(np.random.default_rng(cfg.seed))

    curr = initial.copy()
    assign = curr.assign.tolist()
    owner = [-1] * cg.num_physical
    for q, s in enumerate(assign):
        owner[s] = q
    c_curr = cost_fn(curr.assign)
    p = 0
    for _ in range(cfg.n_iters):
        move = neighbor(assign, owner, cfg.neighborhood, draws)
        c_cand = (c_curr if move is None
                  else c_curr + move_delta(move, assign, nbrs, rows))
        if c_cand < c_curr:
            apply_move(move, assign, owner)
            curr.assign[:] = assign
            # exact, so equal to c_cand; perfbench's tracer counts the
            # accepted moves from this closure's values
            c_curr = cost_fn(curr.assign)
            if cfg.reset_patience:
                p = 0
        else:
            p += 1
        if p > cfg.patience:
            break
    return curr
