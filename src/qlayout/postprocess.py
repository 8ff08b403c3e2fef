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
seat -> qubit inverse, per-qubit weighted neighbour lists (read, as the
``GainTable`` weights are, from ``ProgramGraph.pair_counts``) and the
rows of ``CostModel.edge_costs`` as tuples (``CostModel.rows``, built once
per device and cost mode). The full cost is computed once, for the start
layout; the running cost is the start cost plus the deltas of the
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

The moves are drawn from a ``DrawTable``. It reads only ``random_raw`` of
``PCG64(seed)``, a stream numpy keeps fixed across releases (NEP 19), so
the layout a seed gives does not depend on the numpy release. Every move
takes two words, so move ``t`` reads words ``2t`` and ``2t + 1`` whatever
the layout does, and the table turns them into bounded draws (Lemire's
multiply-shift) ahead of the search, in chunks of the iterations it is
sure to run: each iteration improves or counts against patience, so with
``p`` counted at least ``patience - p + 1`` more run, within the budget.
Block scans slice the draws as an array; single moves index them in three
column lists, not one small list per row: rows took ~3.5x as long to
build for a 2000-row chunk and set off about two garbage collections a
search.
A one-qubit move on a taken seat reads two words where one would do; a
one-qubit program has no gate pair, so every delta is 0 and this changes
no result.
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


# rejections in a row after which a search scores its moves in blocks,
# and the first and largest block; a block costs about as much as ten
# single moves, and refine searches accept about one move in 24
LONG_RUN = 32
FIRST_SCAN = 32
LAST_SCAN = 256
# the fewest and most iterations a DrawTable resolves at once; a chunk
# costs about as much as ten single moves plus 0.1 us per iteration
MIN_CHUNK = 64
MAX_CHUNK = 4096


def below_each(words: np.ndarray, m) -> np.ndarray:
    """Lemire's multiply-shift ``(w * m) >> 64`` of each uint64 word ``w``,
    a uniform integer in ``[0, m)`` without rejection (each value's
    probability is within ``2**-64`` of ``1 / m``), for moduli ``m`` (an
    integer or an array that broadcasts) below ``2**32``. It is taken on
    the words' 32-bit halves, which keeps every product below ``2**64``
    and gives the same integer."""
    m = np.asarray(m, dtype=np.uint64)
    hi, lo = words >> np.uint64(32), words & np.uint64(0xFFFFFFFF)
    return ((hi * m + ((lo * m) >> np.uint64(32)))
            >> np.uint64(32)).astype(np.intp)


class DrawTable:
    """The draws of every iteration of one search, resolved ahead from the
    raw words of ``PCG64(seed)`` (see the module docstring).

    The row of iteration ``t`` is ``[first, below_n, below_n1]``: word
    ``2t`` below ``first_modulus``, and word ``2t + 1`` below ``n`` and
    below ``n - 1``. ``columns`` (three lists, for single moves) and
    ``draws`` (an array, for block scans) hold the rows of the iterations
    from ``base`` to ``end``, never past iteration ``budget``."""

    def __init__(self, seed: int, first_modulus: int, n: int, budget: int):
        self._raw = np.random.PCG64(seed).random_raw
        self._moduli = np.array([first_modulus, n, n - 1], dtype=np.uint64)
        self._budget = budget
        self.base = self.end = 0
        self.draws = np.empty((0, 3), dtype=np.intp)
        self.columns = [], [], []

    def hold(self, it: int, stop: int):
        """Hold at least the rows of iterations ``it`` to ``stop - 1``
        (``it >= base``), reading at least ``MIN_CHUNK`` iterations when
        the table grows and dropping the rows before ``it``."""
        if stop <= self.end:
            return
        k = min(self._budget, max(stop, self.end + MIN_CHUNK)) - self.end
        words = self._raw(2 * k).reshape(k, 2)[:, [0, 1, 1]]
        new = below_each(words, self._moduli)
        drop = it - self.base
        self.draws = np.concatenate((self.draws, new))[drop:]
        self.columns = tuple((held + fresh)[drop:] for held, fresh
                             in zip(self.columns, new.T.tolist()))
        self.base, self.end = it, self.end + k

    def ahead(self, it: int, k: int) -> np.ndarray:
        """The rows of iterations ``it`` to ``it + k - 1`` as a ``(k, 3)``
        array."""
        self.hold(it, it + k)
        return self.draws[it - self.base:it - self.base + k]


def neighbor(assign, owner, kind: str, row):
    """The random neighbourhood move of one iteration for the layout
    ``assign`` (a list, qubit -> seat) whose inverse is ``owner`` (a list,
    seat -> qubit, -1 for a free seat), from the iteration's ``DrawTable``
    row. Reads but never changes either list. A one-qubit move on an
    occupied seat needs only the row's first word (see the module
    docstring).

    Returns ``(qubit, seat, displaced)``: ``qubit`` moves to ``seat``, and
    ``displaced``, the qubit on ``seat`` or None if it is free, moves to
    ``qubit``'s old seat, so the moved layout is total and injective.
    Returns None when the layout has no move of this kind: one qubit
    under a swap, or on an occupied seat.
    """
    first, below_n, below_n1 = row
    if kind == "random_swap":
        if len(assign) < 2:
            return None
        if below_n1 >= first:
            below_n1 += 1
        return first, assign[below_n1], below_n1
    if kind != "random_assignment":
        raise ConfigError(f"unknown neighborhood '{kind}'")

    j = owner[first]
    if j < 0:
        return below_n, first, None
    # occupied seat: fall back to swapping with another assigned pair
    if len(assign) < 2:
        return None
    if below_n1 >= j:
        below_n1 += 1
    return below_n1, first, j


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

    def __init__(self, pg: ProgramGraph, edge_costs: np.ndarray, kind: str):
        # gate counts per qubit pair, with a zero row and column n for
        # "no displaced qubit"
        self.weights = np.zeros(np.add(pg.pair_counts.shape, 1))
        self.weights[:-1, :-1] = pg.pair_counts
        self.costs = edge_costs
        self.twice_diagonal = 2.0 * edge_costs[0, 0]
        self.kind = kind

    def scan(self, assign, owner, draws: DrawTable, it: int, limit: int):
        """Score up to ``limit`` moves of the layout ``assign`` (inverse
        ``owner``), those of iterations ``it`` on, from ``draws``.

        Returns ``(skipped, move, delta)``: ``move`` is the first move
        with a negative ``delta``, or the ``limit``-th move if none is,
        and ``skipped`` moves, all rejected, came before it."""
        n, big_n = len(assign), len(owner)
        seats = np.array(assign)
        holder = np.full(big_n, n)
        holder[seats] = np.arange(n)
        gain = self.weights[:, :n] @ self.costs[seats]
        # the search runs all limit moves, whichever of them is accepted
        draws.hold(it, it + min(limit, MAX_CHUNK))
        done, size = 0, FIRST_SCAN
        while True:
            k = min(size, limit - done)
            first, below_n, below_n1 = draws.ahead(it + done, k).T
            if self.kind == "random_swap":
                qubit = first
                displaced = below_n1 + (below_n1 >= qubit)
                seat = seats[displaced]
            else:
                seat = first
                displaced = holder[seat]
                # below n for a free seat, else below n - 1 skipping its
                # holder; a free seat's holder n skips nothing
                qubit = np.where(displaced < n, below_n1, below_n)
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
                d = int(displaced[i])
                move = int(qubit[i]), int(seat[i]), (d if d < n else None)
                return done + i, move, float(delta[i])
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
    kind, n_iters, patience = cfg.neighborhood, cfg.n_iters, cfg.patience

    assign = initial.assign.tolist()
    owner = [-1] * cg.num_physical
    for q, s in enumerate(assign):
        owner[s] = q
    n = len(assign)
    c_start = c_curr = fast_cost_fn(pg, cm)(initial.assign)
    # one qubit has no move under a swap, nor on a device without a free
    # seat, and no block phase
    no_move = n < 2 and (kind == "random_swap" or n == len(owner))
    budget = 0 if no_move else n_iters
    long_run = LONG_RUN if n >= 2 else n_iters + 1
    draws = DrawTable(cfg.seed, n if kind == "random_swap" else len(owner),
                      n, budget)
    # single moves read the columns of iterations base to end - 1; a scan
    # may grow the table, and they stay valid until the search reaches end
    base = end = 0
    table = None
    it = p = run = accepted = 0
    while it < budget and p <= patience:
        if run < long_run:
            if it >= end:
                draws.hold(it, it + min(patience - p + 1, MAX_CHUNK))
                (first, below_n, below_n1), base, end = (
                    draws.columns, draws.base, draws.end)
            i = it - base
            move = neighbor(assign, owner, kind,
                            (first[i], below_n[i], below_n1[i]))
            it += 1
            delta = 0.0 if move is None else move_delta(move, assign, nbrs,
                                                        rows)
        else:
            if table is None:
                table = GainTable(pg, cm.edge_costs, kind)
            # at most the moves before the budget or patience runs out
            skipped, move, delta = table.scan(
                assign, owner, draws, it, min(budget - it, patience - p + 1))
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
