"""Hill-climbing refinement of a layout under a patience budget.

Acceptance is strict: a neighbour replaces the current layout only when it
is cheaper. As written, the patience counter counts non-improving
iterations cumulatively and never resets; ``reset_patience`` switches to
the variant that resets it on every improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import ProgramGraph
from .errors import ConfigError
from .objective import CostModel, Layout, fast_cost_fn
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
        if self.n_iters < 1:
            raise ConfigError("n_iters must be at least 1")
        if self.patience < 0:
            raise ConfigError("patience must be non-negative")


def neighbor(layout: Layout, cg: CouplingGraph, kind: str, rng) -> Layout:
    """One random neighbourhood move; the result is always total and
    injective."""
    out = layout.copy()
    assign = out.assign
    n = len(assign)
    if kind == "random_swap":
        if n < 2:
            return out
        i, j = rng.choice(n, size=2, replace=False)
        assign[i], assign[j] = assign[j], assign[i]
        return out
    if kind != "random_assignment":
        raise ConfigError(f"unknown neighborhood '{kind}'")

    seat = int(rng.integers(cg.num_physical))
    owners = np.nonzero(assign == seat)[0]
    if len(owners) == 0:
        qubit = int(rng.integers(n))
        assign[qubit] = seat
        return out
    # occupied seat: fall back to swapping with another assigned pair
    if n < 2:
        return out
    j = int(owners[0])
    i = int(rng.integers(n - 1))
    if i >= j:
        i += 1
    assign[i], assign[j] = assign[j], assign[i]
    return out


def local_search(initial: Layout, pg: ProgramGraph, cg: CouplingGraph,
                 cfg: SearchConfig) -> Layout:
    """Strict hill climbing; the returned cost never exceeds the input cost.
    Only a cheaper neighbour is accepted, so the current layout is the best
    one seen."""
    initial.validate(cg.num_physical)
    cost_fn = fast_cost_fn(pg, CostModel(cfg.cost_mode, cg.distances))
    rng = np.random.default_rng(cfg.seed)

    curr = initial.copy()
    c_curr = cost_fn(initial.assign)
    p = 0
    for _ in range(cfg.n_iters):
        cand = neighbor(curr, cg, cfg.neighborhood, rng)
        c_cand = cost_fn(cand.assign)
        if c_cand < c_curr:
            curr, c_curr = cand, c_cand
            if cfg.reset_patience:
                p = 0
        else:
            p += 1
        if p > cfg.patience:
            break
    return curr
