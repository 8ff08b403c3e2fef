"""Device coupling graphs and all-pairs hop distances.

Graphs are immutable after construction; the distance matrix is computed
eagerly by one BFS from every source at once (N is at most
``MAX_QUBITS``).
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyError, read_input, shown

# the most physical qubits a device may have. A device keeps N x N
# distance and cost tables, and its cost rows as Python tuples
# (``CostModel.rows``, which local search reads), so memory grows with N
# squared (about 0.2 GB at this bound); the largest superconducting
# devices built have about 1100.
MAX_QUBITS = 2048


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric matrix of shortest-path hop counts between physical
    qubits. ``entries`` is a read-only copy, so the cost models kept in
    ``cost_models`` (by ``CostModel.for_graph``, one per mode) stay
    true to it."""

    entries: np.ndarray
    cost_models: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        e = np.array(self.entries, dtype=np.int64)
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    def __getitem__(self, key):
        return self.entries[key]

    @property
    def n(self):
        return self.entries.shape[0]


def bfs_distances(num_physical, edges):
    """All-pairs hop distances by one level-synchronous BFS from every
    source at once.

    Node v holds a bitset of the sources whose search has reached it, as
    little-endian uint64 words. Level d's frontier of v is the OR of its
    neighbours' level d - 1 frontiers (``np.bitwise_or.reduceat`` over the
    edges sorted by target) less the sources that reached v before. A
    source s is at distance d from v when it is still unreached at levels
    1 to d, so each level adds the unpacked unreached bits into the
    distances.

    Raises TopologyError if the graph is disconnected (an infinite
    distance has no representation here).
    """
    n = num_physical
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    # both directions of every edge, tail -> head, sorted by head
    tail, head = pairs.ravel(), pairs[:, ::-1].ravel()
    order = np.argsort(head, kind="stable")
    tail, head = tail[order], head[order]
    targets, firsts = np.unique(head, return_index=True)
    nodes = np.arange(n)
    frontier = np.zeros((n, (n + 63) // 64), dtype="<u8")
    frontier[nodes, nodes // 64] = np.left_shift(
        np.uint64(1), (nodes % 64).astype(np.uint64))
    reached = frontier.copy()
    # hop counts are below MAX_QUBITS, so uint16 holds them
    dist = np.zeros((n, n), dtype=np.uint16)
    while len(targets):
        nxt = np.zeros_like(frontier)
        nxt[targets] = np.bitwise_or.reduceat(frontier[tail], firsts, axis=0)
        nxt &= ~reached
        if not nxt.any():
            break
        # row v, column s: s is unreached from v (and v from s) so far
        dist += np.unpackbits((~reached).view(np.uint8), axis=1, count=n,
                              bitorder="little")
        reached |= nxt
        frontier = nxt
    unreached = n - int(np.unpackbits(reached[0].view(np.uint8), count=n,
                                      bitorder="little").sum())
    if unreached:
        raise TopologyError(
            f"coupling graph is disconnected (source 0 cannot reach "
            f"{unreached} nodes)"
        )
    return dist.astype(np.int64)


def _check_size(n):
    """Raise TopologyError if ``n`` physical qubits exceed MAX_QUBITS."""
    if n > MAX_QUBITS:
        raise TopologyError(
            f"device has {n} physical qubits, more than the {MAX_QUBITS} "
            f"supported")


def _integer(value, what, *args):
    """``value`` as a Python int: an integer, numpy's too, but not a bool;
    anything else raises TopologyError naming ``what``, whose fields are
    filled with ``shown`` of ``args`` only then."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        what = what.format(*map(shown, args))
        raise TopologyError(f"{what} must be an integer, not {shown(value)}")
    return int(value)


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected physical-qubit connectivity with cached distances.

    ``num_physical`` and every edge endpoint must be integers; numpy
    integers are stored as Python ints."""

    num_physical: int
    edges: frozenset
    name: str = "custom"
    distances: DistanceMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _integer(self.num_physical, "the number of physical qubits")
        if n < 1:
            raise TopologyError("graph needs at least one physical qubit")
        _check_size(n)
        canon = set()
        for e in self.edges:
            try:
                a, b = (_integer(q, "edge {}'s node", e) for q in e)
            except (TypeError, ValueError):
                raise TopologyError(
                    f"edge {shown(e)} is not a pair of nodes") from None
            if a == b:
                raise TopologyError(f"self-loop on node {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise TopologyError(f"edge {shown(e)} out of range [0, {n})")
            canon.add((min(a, b), max(a, b)))
        object.__setattr__(self, "num_physical", n)
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(
            self, "distances", DistanceMatrix(bfs_distances(n, canon))
        )

    @property
    def edge_list(self):
        return sorted(self.edges)

    def adjacency_matrix(self):
        a = np.zeros((self.num_physical, self.num_physical), dtype=bool)
        for i, j in self.edges:
            a[i, j] = a[j, i] = True
        return a

    def topology_hash(self):
        payload = json.dumps([self.num_physical, self.edge_list]).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_dict(self):
        return {
            "n": self.num_physical,
            "edges": [list(e) for e in self.edge_list],
            "name": self.name,
        }


def all_pairs_distances(g: CouplingGraph) -> DistanceMatrix:
    return g.distances


def build_grid(rows: int, cols: int) -> CouplingGraph:
    """4-neighbour lattice; node index = row * cols + col. Each dimension
    must be an integer, not a bool, of at least 1."""
    rows, cols = (_integer(d, "a grid dimension") for d in (rows, cols))
    if rows < 1 or cols < 1:
        raise TopologyError(
            f"grid dimensions must be positive, got {rows}x{cols}")
    _check_size(rows * cols)
    edges = set()
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            if c + 1 < cols:
                edges.add((idx, idx + 1))
            if r + 1 < rows:
                edges.add((idx, idx + cols))
    return CouplingGraph(rows * cols, frozenset(edges), name=f"grid{rows}x{cols}")


def build_heavy_hex() -> CouplingGraph:
    """The 65-qubit IBM heavy-hex lattice.

    Five horizontal chains (10, 11, 11, 11, 10 qubits) joined by twelve
    bridge qubits. Bridge columns alternate between (0, 4, 8) and
    (2, 6, 10); the top chain spans columns 0-9 and the bottom chain
    columns 1-10. Every node has degree at most 3.
    """
    row_cols = [range(0, 10), range(0, 11), range(0, 11), range(0, 11), range(1, 11)]
    bridge_cols = [(0, 4, 8), (2, 6, 10), (0, 4, 8), (2, 6, 10)]

    idx = 0
    col_index = []  # per row: column -> node index
    edges = set()
    for r, cols in enumerate(row_cols):
        if r > 0:
            # bridge qubits sit between the previous chain and this one
            prev = col_index[r - 1]
            pending = []
            for c in bridge_cols[r - 1]:
                pending.append((prev[c], idx, c))
                idx += 1
        else:
            pending = []
        mapping = {}
        nodes = []
        for c in cols:
            mapping[c] = idx
            nodes.append(idx)
            idx += 1
        col_index.append(mapping)
        for a, b in zip(nodes, nodes[1:]):
            edges.add((a, b))
        for up, bridge, c in pending:
            edges.add((up, bridge))
            edges.add((bridge, mapping[c]))
    return CouplingGraph(idx, frozenset(edges), name="heavyhex65")


def load_coupling_graph(path) -> CouplingGraph:
    """Load a custom topology from an edge-list JSON file."""
    return coupling_graph_from_dict(read_input(
        path, TopologyError, f"cannot read device file {path}", json.load))


def coupling_graph_from_dict(data) -> CouplingGraph:
    """The graph of an edge-list document ``{"n": N, "edges": [[a, b],
    ...], "name": ...}``; a document that does not describe a valid graph
    raises TopologyError."""
    if not isinstance(data, dict):
        raise TopologyError("the device document is not a JSON object")
    try:
        if not isinstance(data["edges"], list):
            raise TopologyError(f"\"edges\" must be a list of node pairs, "
                                f"not {shown(data['edges'])}")
        return CouplingGraph(data["n"], data["edges"],
                             name=str(data.get("name", "custom")))
    except (KeyError, TypeError, TopologyError) as exc:
        raise TopologyError(f"malformed edge-list document: {exc}") from exc
