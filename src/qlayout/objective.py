"""The layout SWAP-cost objective and an exact brute-force solver.

Two cost modes are supported:

* ``literal``: an interaction placed at distance d costs 2*d SWAPs
  (the round-trip proxy), so even adjacent placements cost 2.
* ``adjacent-free``: 2*(d-1), so adjacent placements are free. This is the
  default for benchmarking since it makes embeddable circuits reach cost 0.

A gate on one qubit twice (a self-pair) costs nothing in either mode: every
cost here reads ``ProgramGraph.gate_pairs``, which leaves self-pairs out.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .circuit import ProgramGraph
from .errors import (
    ConfigError,
    ConstraintViolationError,
    IncompleteLayoutError,
    ParseError,
    SearchSpaceTooLargeError,
    read_input,
)
from .topology import CouplingGraph, DistanceMatrix

UNASSIGNED = -1

COST_MODES = ("literal", "adjacent-free")


@dataclass
class Layout:
    """Partial or total injective map logical -> physical."""

    assign: np.ndarray

    def __post_init__(self):
        self.assign = np.asarray(self.assign, dtype=np.int64)

    @property
    def n(self):
        return len(self.assign)

    def is_total(self):
        return bool((self.assign != UNASSIGNED).all())

    def is_injective(self):
        used = self.assign[self.assign != UNASSIGNED]
        return len(used) == len(set(used.tolist()))

    def validate(self, num_physical=None):
        if not self.is_total():
            raise IncompleteLayoutError(
                f"{int((self.assign == UNASSIGNED).sum())} logical qubits unassigned"
            )
        if not self.is_injective():
            raise ConstraintViolationError("duplicate physical target in layout")
        if num_physical is not None and (
            (self.assign < 0).any() or (self.assign >= num_physical).any()
        ):
            raise ConstraintViolationError(
                f"assignment out of range [0, {num_physical})"
            )

    def copy(self):
        return Layout(self.assign.copy())

    def to_dict(self, num_physical=None):
        d = {"n": self.n, "assign": self.assign.tolist()}
        if num_physical is not None:
            d["N"] = num_physical
        return d

    @classmethod
    def from_dict(cls, data):
        assign = data.get("assign") if isinstance(data, dict) else None
        if not isinstance(assign, list):
            raise ParseError(
                "a layout needs an \"assign\" list of physical seats"
            )
        # bool is an int subclass, but true/false are not seats
        bad = [a for a in assign if type(a) is not int]
        if bad:
            raise ParseError(
                f"\"assign\" must hold integers only, got {bad[0]!r}"
            )
        try:
            return cls(np.asarray(assign, dtype=np.int64))
        except OverflowError:
            raise ParseError("\"assign\" holds a seat beyond int64")

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_input(
            path, ParseError, f"cannot read layout {path}", json.load))

    def save(self, path, num_physical=None):
        with open(path, "w") as fh:
            json.dump(self.to_dict(num_physical), fh)


def check_cost_mode(mode):
    if mode not in COST_MODES:
        raise ConfigError(f"unknown cost mode '{mode}'")


@dataclass(frozen=True)
class CostModel:
    """A cost mode over a device's distances; ``edge_costs[p, q]`` is the
    SWAP cost of one interaction placed on seats p and q."""

    mode: str
    distance: DistanceMatrix
    edge_costs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_cost_mode(self.mode)
        d = self.distance.entries.astype(np.float64)
        # exact small integers, so any sum of them is exact too
        table = 2.0 * d if self.mode == "literal" else 2.0 * (d - 1)
        object.__setattr__(self, "edge_costs", table)

    @classmethod
    def for_graph(cls, cg: CouplingGraph, mode="adjacent-free"):
        return cls(mode, cg.distances)


def fast_cost_fn(pg: ProgramGraph, cm: CostModel):
    """Closure evaluating the SWAP cost of a total assignment array.

    Skips layout validation; callers own the invariants. Used in the hot
    loops of local search and decoding.
    """
    ei, ej = pg.gate_pairs
    table = cm.edge_costs

    def cost(assign):
        return float(table[assign[ei], assign[ej]].sum())
    return cost


def weighted_neighbours(pg: ProgramGraph):
    """Per qubit, ``(other qubit, gate count)`` over the undirected pairs of
    its gates in ``pg.gate_pairs``, in order of first appearance."""
    nbrs = [[] for _ in range(pg.num_logical)]
    ei, ej = pg.gate_pairs.tolist()
    pairs = Counter((a, b) if a < b else (b, a) for a, b in zip(ei, ej))
    for (a, b), w in pairs.items():
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    return nbrs


def check_covers(layout: Layout, pg: ProgramGraph):
    """Raise unless ``layout`` places exactly the program's qubits."""
    if layout.n != pg.num_logical:
        raise ConstraintViolationError(
            f"layout covers {layout.n} qubits, program graph has {pg.num_logical}"
        )


def swap_cost(layout: Layout, pg: ProgramGraph, cm: CostModel) -> float:
    layout.validate(cm.distance.n)
    check_covers(layout, pg)
    return fast_cost_fn(pg, cm)(layout.assign)


def reward(layout: Layout, pg: ProgramGraph, cm: CostModel) -> float:
    return -swap_cost(layout, pg, cm)


def brute_force_optimal(pg: ProgramGraph, cg: CouplingGraph, cm: CostModel,
                        cap=10**7):
    """Minimum-cost total injective layout by branch-and-bound enumeration.

    Ties break to the lexicographically smallest assignment array, which the
    ascending-seat DFS with strict-improvement acceptance yields for free.
    """
    n, big_n = pg.num_logical, cg.num_physical
    if n > big_n:
        raise ConstraintViolationError(f"n={n} exceeds N={big_n}")
    space = math.perm(big_n, n)
    if space > cap:
        raise SearchSpaceTooLargeError(
            f"{space} injections exceed the cap of {cap}"
        )

    rows = cm.edge_costs.tolist()
    # qubit t's gates with the qubits placed before it, for incremental cost
    placed = [[(r, w) for r, w in nbrs if r < t]
              for t, nbrs in enumerate(weighted_neighbours(pg))]

    assign = [UNASSIGNED] * n
    used = [False] * big_n
    best = {"cost": math.inf, "assign": None}

    def dfs(t, partial):
        if partial >= best["cost"]:
            return
        if t == n:
            best["cost"] = partial
            best["assign"] = list(assign)
            return
        for seat in range(big_n):
            if used[seat]:
                continue
            inc = sum(w * rows[seat][assign[r]] for r, w in placed[t])
            if partial + inc >= best["cost"]:
                continue
            assign[t] = seat
            used[seat] = True
            dfs(t + 1, partial + inc)
            used[seat] = False
            assign[t] = UNASSIGNED

    dfs(0, 0.0)
    return Layout(best["assign"]), best["cost"]
