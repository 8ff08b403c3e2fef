"""Correctness oracle, independent of the program's own cost code.

Distances come from a breadth-first search written here, and costs are
scored against the two-qubit gate list the generator emitted, not against
the program graph the program built from the QASM text.
"""

from __future__ import annotations

from collections import deque


def bfs_distances(num_nodes, edges):
    """All-pairs hop counts as a list of lists; -1 marks unreachable."""
    adj = [[] for _ in range(num_nodes)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    table = []
    for src in range(num_nodes):
        row = [-1] * num_nodes
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        table.append(row)
    return table


def layout_problems(assign, num_logical, num_physical):
    """Reasons why ``assign`` is not a total injective in-range layout."""
    assign = [int(a) for a in assign]
    problems = []
    if len(assign) != num_logical:
        problems.append(f"covers {len(assign)} qubits, expected {num_logical}")
    outside = [a for a in assign if not 0 <= a < num_physical]
    if outside:
        problems.append(f"seats {outside[:5]} outside [0, {num_physical})")
    if len(set(assign)) != len(assign):
        problems.append("a physical seat is used twice")
    return problems


def swap_cost(assign, pairs, dist, mode):
    """SWAP cost of a total layout: 2*d per gate for ``literal``,
    2*(d-1) for ``adjacent-free``."""
    offset = 0 if mode == "literal" else 1
    return float(sum(2 * (dist[assign[a]][assign[b]] - offset)
                     for a, b in pairs))


class Oracle:
    """Checks layouts on one device; every method returns a list of
    problems, empty when the output is correct."""

    def __init__(self, num_physical, edges):
        self.num_physical = num_physical
        self.dist = bfs_distances(num_physical, edges)
        if any(d < 0 for row in self.dist for d in row):
            raise ValueError("device graph is disconnected")

    def cost(self, assign, circuit, mode):
        return swap_cost([int(a) for a in assign], circuit.pairs, self.dist,
                         mode)

    def check_layout(self, assign, circuit, mode, claimed_cost=None):
        problems = layout_problems(assign, circuit.num_qubits,
                                   self.num_physical)
        if problems or claimed_cost is None:
            return problems
        expected = self.cost(assign, circuit, mode)
        if float(claimed_cost) != expected:
            problems.append(f"claimed cost {claimed_cost} != recomputed "
                            f"{expected}")
        return problems

    def check_refinement(self, before, after, circuit, mode):
        """``after`` must be a valid layout no costlier than ``before``."""
        problems = layout_problems(after, circuit.num_qubits,
                                   self.num_physical)
        if problems:
            return problems
        c_before = self.cost(before, circuit, mode)
        c_after = self.cost(after, circuit, mode)
        if c_after > c_before:
            problems.append(f"local search raised the cost from {c_before} "
                            f"to {c_after}")
        return problems
