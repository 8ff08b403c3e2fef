"""A frozen copy of ``qlayout.topology.bfs_distances`` as it was before the
all-sources bitset BFS (commit a89436a), kept as the oracle of the BFS's
differential test.

It runs one Python BFS per source, in source order, and raises at the
first source that cannot reach every node. Do not edit it to follow the
new BFS: its value is that it does not change. It raises the package's own
``TopologyError`` so results and errors compare directly.
"""

from __future__ import annotations

import numpy as np

from qlayout.errors import TopologyError


def _adjacency_lists(num_physical, edges):
    adj = [[] for _ in range(num_physical)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def bfs_distances(num_physical, edges):
    """All-pairs hop distances by BFS from every source.

    Raises TopologyError if the graph is disconnected (an infinite
    distance has no representation here).
    """
    adj = _adjacency_lists(num_physical, edges)
    dist = np.full((num_physical, num_physical), -1, dtype=np.int64)
    for src in range(num_physical):
        row = dist[src]
        row[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if row[v] < 0:
                        row[v] = d
                        nxt.append(v)
            frontier = nxt
        if (row < 0).any():
            raise TopologyError(
                f"coupling graph is disconnected (source {src} cannot reach "
                f"{int((row < 0).sum())} nodes)"
            )
    return dist
