"""Output checks, written independently of the code they check.

They read only ``G.n`` and ``G.edges``, never the package's connectivity
helpers or validators, so a fault in those cannot hide a wrong answer.  Each
check returns None when the output is right and a short reason otherwise.
"""

from __future__ import annotations


def ids(mask):
    """Set bit positions of a bitmask, ascending."""
    s = bin(mask)[:1:-1]
    return [i for i, c in enumerate(s) if c == "1"]


def key_of(parts):
    return tuple(sorted((p.bit_count() for p in parts), reverse=True))


class View:
    """A graph's adjacency and incidence, built once and shared by many checks."""

    def __init__(self, G):
        self.n = G.n
        self.edges = G.edges
        self.adj = [[] for _ in range(G.n)]
        self.inc = [[] for _ in range(G.n)]  # (neighbour, edge id)
        for e, (u, v) in enumerate(G.edges):
            self.adj[u].append(v)
            self.adj[v].append(u)
            self.inc[u].append((v, e))
            self.inc[v].append((u, e))

    def connected_vertices(self, members):
        """True iff the vertex list ``members`` induces a connected subgraph."""
        inside = set(members)
        seen = {members[0]}
        stack = [members[0]]
        adj = self.adj
        while stack:
            for y in adj[stack.pop()]:
                if y in inside and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(inside)

    def connected_edges(self, eids):
        """True iff the edge list ``eids`` forms one connected subgraph."""
        inpart = bytearray(len(self.edges))
        touched = set()
        for e in eids:
            inpart[e] = 1
            touched.update(self.edges[e])
        start = self.edges[eids[0]][0]
        seen = {start}
        stack = [start]
        inc = self.inc
        while stack:
            for w, e in inc[stack.pop()]:
                if inpart[e] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(touched)

    def edge_partition(self, parts, key=None, k=None):
        """Nonempty, disjoint parts covering E, each a connected edge set."""
        if k is not None and len(parts) != k:
            return f"{len(parts)} parts, want {k}"
        union = 0
        for p in parts:
            if p == 0 or union & p:
                return "empty or overlapping part"
            union |= p
            if not self.connected_edges(ids(p)):
                return "disconnected edge part"
        if union != (1 << len(self.edges)) - 1:
            return "parts do not cover E"
        if key is not None and key_of(parts) != tuple(key):
            return f"witness sizes {key_of(parts)} != key {tuple(key)}"
        return None

    def vertex_partition(self, parts, key=None, k=None):
        """Nonempty, disjoint parts covering V, each inducing a connected subgraph."""
        if k is not None and len(parts) != k:
            return f"{len(parts)} parts, want {k}"
        union = 0
        for p in parts:
            if p == 0 or union & p:
                return "empty or overlapping part"
            union |= p
            if not self.connected_vertices(ids(p)):
                return "disconnected vertex part"
        if union != (1 << self.n) - 1:
            return "parts do not cover V"
        if key is not None and key_of(parts) != tuple(key):
            return f"witness sizes {key_of(parts)} != key {tuple(key)}"
        return None

    def cut_edges(self, parts):
        """Crossing edges, counted from scratch."""
        where = [-1] * self.n
        for i, p in enumerate(parts):
            for v in ids(p):
                where[v] = i
        return sum(1 for u, v in self.edges if where[u] != where[v])


def spread(items, limit):
    """At most ``limit`` items, evenly spaced, always the first and last."""
    if len(items) <= limit:
        return list(items)
    step = (len(items) - 1) / (limit - 1)
    return [items[round(i * step)] for i in range(limit)]
