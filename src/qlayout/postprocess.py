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
``CostModel.edge_costs`` as tuples (``CostModel.rows``, built once per
device and cost mode). The full cost is computed once, for the
start layout; the running cost is the start cost plus the deltas of the
accepted moves.

A search runs in two phases. Moves come one at a time (``neighbor``,
``move_delta``, a delta summed in plain Python, since numpy calls per move
are slower at this size) until ``LONG_RUN`` moves in a row have been
rejected. Most moves are rejected, in long runs against one unchanged
layout, so from there a ``GainTable`` scores the following moves in numpy
blocks of ``FIRST_SCAN`` moves, doubling up to ``LAST_SCAN``. Its table
``G[q, s] = sum_r w_qr * C[s, a_r]`` (Taillard 1991), built with one
matmul, is the cost of qubit ``q``'s gates were it on seat ``s``; row
``n`` stands for "no displaced qubit" and is zero. Qubit ``q`` moving
from seat ``o`` to seat ``s``, whose holder ``d`` moves to ``o``, changes
the cost by ``G[q,s] - G[q,o] + G[d,o] - G[d,s] + w_qd*(2C[s,o] - 2C[s,s])``
(the diagonal of ``C`` is constant). The first move of a block with a
negative delta is the move that one-at-a-time scoring accepts, because
every move before it was scored against the same layout; it is applied
and the search goes back to single moves. Patience and budget count the
moves of a block exactly as they count single moves.

The decisions are exact: edge costs are small integers in float64, so
every table entry, delta and running cost is an exact integer whatever
the order of summation, and a move is accepted exactly when a full
recompute of its layout is cheaper. ``SearchConfig.cost_mode`` changes no
move: the literal cost is the adjacent-free cost plus 2 per gate pair, a
constant of the program, so every delta, and the layout a seed gives, is
the same in both modes.

The moves are drawn from a ``Draws`` source over ``default_rng(seed)``.
It reads only the generator's bit generator, whose raw 64-bit stream
numpy keeps fixed across releases (NEP 19), in blocks of ``BLOCK`` words,
and turns each word into one bounded draw by Lemire's multiply-shift.
No ``Generator`` method is called, so the layout a seed gives does not
depend on the numpy release. A swap draws its first qubit below ``n`` and
its second below ``n - 1``, skipping the first. With two or more qubits
every move takes exactly two words (see ``neighbor``), so a block of
``k`` moves reads the next ``2k`` words, and the words after the accepted
move go back to the source unread.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from operator import length_hint

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


@dataclass
class SearchStats:
    """Why and where a ``local_search`` run ended. ``stop_reason`` is
    ``patience``, ``budget`` or ``no_move`` (the layout has no move of the
    configured kind, so no iteration ran); ``final_cost`` is
    ``start_cost`` plus the exact deltas of the ``accepted`` moves."""

    iterations: int = 0
    accepted: int = 0
    stop_reason: str = ""
    start_cost: float = 0.0
    final_cost: float = 0.0


# raw 64-bit words fetched per refill of a Draws source; one refill costs
# about one per-call draw, and a search takes at most two words per
# iteration, so a refill serves at least a hundred iterations
BLOCK = 256
# rejections in a row after which a search scores its moves in blocks,
# and the first and largest block; a block costs about as much as ten
# single moves, and refine searches accept about one move in 24
LONG_RUN = 32
FIRST_SCAN = 32
LAST_SCAN = 256


class Draws:
    """Uniform integers from blocks of ``rng.bit_generator``'s raw 64-bit
    words, ``random_raw(BLOCK)`` at a time. Nothing else of ``rng`` is
    read, so the values depend on its bit generator's stream alone."""

    def __init__(self, rng):
        self._raw = rng.bit_generator.random_raw
        self._refill(np.empty(0, dtype=np.uint64))

    def _refill(self, block):
        self._block = block
        self._words = iter(block.tolist())

    def below(self, m: int) -> int:
        """A uniform integer in ``[0, m)`` for ``1 <= m <= 2**64``:
        Lemire's multiply-shift ``(w * m) >> 64`` of the next word ``w``,
        without rejection, so each value's probability is within
        ``2**-64`` of ``1 / m``. Every draw takes one word, ``below(1)``
        too."""
        try:
            w = next(self._words)
        except StopIteration:
            self._refill(self._raw(BLOCK))
            w = next(self._words)
        return (w * m) >> 64

    def peek(self, k: int) -> np.ndarray:
        """The next ``k`` words as a uint64 array, left unread."""
        ahead = self._block[len(self._block) - length_hint(self._words):]
        if len(ahead) < k:
            self._refill(np.concatenate(
                (ahead, self._raw(max(BLOCK, k - len(ahead))))))
            ahead = self._block
        return ahead[:k]

    def skip(self, k: int):
        """Read the next ``k`` words, at most as many as the last
        ``peek`` returned, as ``k`` calls of ``below`` would."""
        deque(islice(self._words, k), maxlen=0)


def below_each(halves: np.ndarray, m) -> np.ndarray:
    """``Draws.below`` of many words at once, for moduli ``m`` (an integer
    or an array that broadcasts) below ``2**32``. ``halves`` holds the
    words' low and high 32 bits on its last axis (see ``split_words``).
    ``(w * m) >> 64`` is taken on the halves, which keeps every product
    below ``2**64`` and gives the same integer."""
    m = np.asarray(m, dtype=np.uint64)
    lo, hi = halves[..., 0], halves[..., 1]
    return ((hi * m + ((lo * m) >> 32)) >> 32).astype(np.intp)


def split_words(words: np.ndarray, *shape) -> np.ndarray:
    """The uint64 ``words`` in ``shape``, as pairs of 32-bit halves, low
    half first."""
    return words.astype("<u8", copy=False).view("<u4").reshape(*shape, 2)


def neighbor(assign, owner, kind: str, draws: Draws):
    """Draw one random neighbourhood move from ``draws`` for the layout
    ``assign`` (a list, qubit -> seat) whose inverse is ``owner`` (a list,
    seat -> qubit, -1 for a free seat). Reads but never changes either
    list. With two or more qubits every move takes two draws.

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
    layout ``assign``; ``rows`` are ``CostModel.rows``.
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


class GainTable:
    """Scores blocks of moves of one unchanged layout of at least two
    qubits from Taillard's gain table (see the module docstring)."""

    def __init__(self, nbrs, edge_costs: np.ndarray, kind: str):
        n = len(nbrs)
        # gate counts, with a zero row and column n for "no displaced qubit"
        self.weights = np.zeros((n + 1, n + 1))
        for q, partners in enumerate(nbrs):
            for r, w in partners:
                self.weights[q, r] = w
        self.costs = edge_costs
        self.twice_diagonal = 2.0 * edge_costs[0, 0]
        self.kind = kind

    def scan(self, assign, owner, draws: Draws, limit: int):
        """Draw and score up to ``limit`` moves of the layout ``assign``
        (inverse ``owner``), reading two words of ``draws`` per move.

        Returns ``(skipped, move, delta)``: ``move`` is the first move
        with a negative ``delta``, or the ``limit``-th move if none is,
        and ``skipped`` moves, all rejected, came before it. The words of
        the moves after ``move`` are left unread."""
        n, big_n = len(assign), len(owner)
        seats = np.array(assign)
        holder = np.full(big_n, n)
        holder[seats] = np.arange(n)
        gain = self.weights[:, :n] @ self.costs[seats]
        swap_moduli = np.array([n, n - 1], dtype=np.uint64)
        done, size = 0, FIRST_SCAN
        while True:
            k = min(size, limit - done)
            draw = split_words(draws.peek(2 * k), k, 2)
            if self.kind == "random_swap":
                qubit, displaced = below_each(draw, swap_moduli).T
                displaced += displaced >= qubit
                seat = seats[displaced]
            else:
                seat = below_each(draw[:, 0], big_n)
                displaced = holder[seat]
                # below n for a free seat, else below n - 1 skipping its
                # holder; a free seat's holder n skips nothing
                qubit = below_each(draw[:, 1], n - (displaced < n))
                qubit += qubit >= displaced
            old = seats[qubit]
            delta = (gain[qubit, seat] - gain[qubit, old]
                     + gain[displaced, old] - gain[displaced, seat]
                     + self.weights[qubit, displaced]
                     * (2.0 * self.costs[seat, old] - self.twice_diagonal))
            better = delta < 0
            i = int(better.argmax())
            if better[i] or done + k == limit:
                i = i if better[i] else k - 1
                draws.skip(2 * (i + 1))
                d = int(displaced[i])
                move = int(qubit[i]), int(seat[i]), (d if d < n else None)
                return done + i, move, float(delta[i])
            draws.skip(2 * k)
            done += k
            size = min(2 * size, LAST_SCAN)


def local_search(initial: Layout, pg: ProgramGraph, cg: CouplingGraph,
                 cfg: SearchConfig, stats: SearchStats = None) -> Layout:
    """Strict hill climbing; the returned cost never exceeds the input cost.
    Only a cheaper move is applied, so the current layout is the best one
    seen. A ``stats`` object, when given, is filled in."""
    initial.validate(cg.num_physical)
    check_covers(initial, pg)
    cm = CostModel.for_graph(cg, cfg.cost_mode)
    rows = cm.rows
    nbrs = weighted_neighbours(pg)
    draws = Draws(np.random.default_rng(cfg.seed))
    kind, n_iters, patience = cfg.neighborhood, cfg.n_iters, cfg.patience

    assign = initial.assign.tolist()
    owner = [-1] * cg.num_physical
    for q, s in enumerate(assign):
        owner[s] = q
    n = len(assign)
    c_start = c_curr = fast_cost_fn(pg, cm)(initial.assign)
    # one qubit has no move under a swap, nor on a device without a free
    # seat, and no block phase: its moves take one or two words
    no_move = n < 2 and (kind == "random_swap" or n == len(owner))
    budget = 0 if no_move else n_iters
    long_run = LONG_RUN if n >= 2 else n_iters + 1
    table = None
    it = p = run = accepted = 0
    while it < budget and p <= patience:
        if run < long_run:
            it += 1
            move = neighbor(assign, owner, kind, draws)
            delta = 0.0 if move is None else move_delta(move, assign, nbrs,
                                                        rows)
        else:
            if table is None:
                table = GainTable(nbrs, cm.edge_costs, kind)
            # at most the moves before the budget or patience runs out
            skipped, move, delta = table.scan(
                assign, owner, draws, min(budget - it, patience - p + 1))
            it += skipped + 1
            p += skipped
        if delta < 0:
            apply_move(move, assign, owner)
            c_curr += delta
            accepted += 1
            run = 0
            if cfg.reset_patience:
                p = 0
        else:
            p += 1
            run += 1
    if stats is not None:
        stats.iterations, stats.accepted = it, accepted
        stats.stop_reason = ("no_move" if no_move else
                             "patience" if p > patience else "budget")
        stats.start_cost, stats.final_cost = c_start, c_curr
    curr = initial.copy()
    curr.assign[:] = assign
    return curr
