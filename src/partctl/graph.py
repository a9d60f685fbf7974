"""Graph substrate: immutable simple graphs, bitset vertex/edge sets, and the
connectivity machinery (bitmask closure, components, breadth-first trees, and
one lowpoint DFS behind blocks and st-numbering) the rest of the package is
built on.

Vertex sets and edge sets are plain Python ints used as bitmasks; bit i stands
for vertex/edge id i.  All tie-breaking is by ascending id so every derived
object is reproducible.
"""

from __future__ import annotations

import itertools

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptySetError,
    NotBiconnectedError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
)


def bits(mask):
    """Yield the set bit positions of a bitmask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(ids):
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class Graph:
    """Simple undirected graph with dense integer vertex and edge ids.

    Immutable after construction.  Edges are stored min-endpoint first; the
    edge id is the index into ``edges``.
    """

    __slots__ = (
        "n",
        "edges",
        "adj",
        "neighbor_masks",
        "_inc_mask",
        "_edge_adj",
    )

    def __init__(self, n, edges):
        seen = set()
        canon = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canon.append((u, v))
        self.n = n
        self.edges = tuple(canon)
        adj = [[] for _ in range(n)]
        nbr = [0] * n
        inc = [0] * n
        for ei, (u, v) in enumerate(self.edges):
            adj[u].append(ei)
            adj[v].append(ei)
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            inc[u] |= 1 << ei
            inc[v] |= 1 << ei
        self.adj = tuple(tuple(a) for a in adj)
        self.neighbor_masks = tuple(nbr)  # per-vertex neighbor bitmasks
        self._inc_mask = tuple(inc)
        self._edge_adj = None

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adj[v])

    def full_vertex_mask(self):
        return (1 << self.n) - 1

    def full_edge_mask(self):
        return (1 << self.m) - 1

    def edge_adjacency(self):
        """Per-edge bitmask of edges sharing an endpoint (lazy, cached)."""
        if self._edge_adj is None:
            ea = []
            for ei, (u, v) in enumerate(self.edges):
                ea.append((self._inc_mask[u] | self._inc_mask[v]) & ~(1 << ei))
            self._edge_adj = tuple(ea)
        return self._edge_adj

    def edge_id(self, u, v):
        if u > v:
            u, v = v, u
        for ei in self.adj[u]:
            if self.edges[ei] == (u, v):
                return ei
        raise KeyError((u, v))

    def edge_set_of_vertices(self, vmask):
        """Edges with both endpoints inside vmask."""
        return next(induced_edge_sets(self, [vmask]))[0]

    def induced(self, vmask):
        """Induced subgraph on vmask with relabeled dense ids.

        Returns (subgraph, vmap, emap): vmap[i] is the parent vertex id of
        subgraph vertex i, emap[j] the parent edge id of subgraph edge j.
        """
        vmap = list(bits(vmask))
        inv = {v: i for i, v in enumerate(vmap)}
        sub_edges = []
        emap = []
        for ei, (u, v) in enumerate(self.edges):
            if u in inv and v in inv:
                sub_edges.append((inv[u], inv[v]))
                emap.append(ei)
        return Graph(len(vmap), sub_edges), vmap, emap

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))


class RootedTree:
    """A tree (m = n-1, connected) with a designated root, its parent map
    and its breadth-first visit order."""

    __slots__ = ("graph", "root", "parent", "order")

    def __init__(self, graph, root):
        if not 0 <= root < graph.n:
            raise OutOfRangeError(f"root {root} out of range for n={graph.n}")
        if graph.m != graph.n - 1:
            raise DisconnectedError("not a tree: m != n-1")
        order, parent, _ = bfs_tree(graph.neighbor_masks, root, graph.full_vertex_mask())
        if len(order) != graph.n:
            raise DisconnectedError("not a tree: disconnected")
        self.graph = graph
        self.root = root
        self.parent = tuple(parent)
        self.order = tuple(order)

    @property
    def n(self):
        return self.graph.n

    def __repr__(self):
        return f"RootedTree(n={self.n}, root={self.root})"


def bfs_tree(adj, root, mask):
    """Breadth-first tree of the elements of ``mask`` reachable from ``root``
    along ``adj``, the tuple of per-element neighbor bitmasks; neighbors are
    visited by ascending id.

    Returns (order, parent, tree): the visit order, each element's parent
    (-1 for the root and for elements not reached) and each element's
    bitmask of tree neighbors, all indexed by the ids of ``adj``.
    """
    parent = [-1] * len(adj)
    tree = [0] * len(adj)
    order = [root]
    seen = 1 << root
    for v in order:
        new = adj[v] & mask & ~seen
        seen |= new
        tree[v] |= new
        for u in bits(new):
            parent[u] = v
            tree[u] = 1 << v
            order.append(u)
    return order, parent, tree


def induced_edge_sets(G, vmasks):
    """Yield the pair (E(S), the edges touching S) for each vertex mask S of
    ``vmasks`` at a cost proportional to the vertices that enter or leave S
    since the previous mask; any sequence works, nested or not.

    ``once`` holds the edges touching S and ``twice`` those inside it.  An
    entering x moves its edges in ``once`` into ``twice``; a leaving x keeps
    in ``once`` only its edges whose other end stays, the ones in ``twice``.
    """
    inc = G._inc_mask
    prev = once = twice = 0
    for S in vmasks:
        for x in bits(S & ~prev):
            i = inc[x]
            twice |= once & i
            once |= i
        for x in bits(prev & ~S):
            i = inc[x]
            once = (once & ~i) | (twice & i)
            twice &= ~i
        prev = S
        yield twice, once


def closure(adj, start, mask):
    """Elements of ``mask`` reachable from ``start`` (an element of ``mask``)
    along ``adj``, the tuple of per-element neighbor bitmasks."""
    seen = 1 << start
    frontier = adj[start] & mask & ~seen
    while frontier:
        seen |= frontier
        nf = 0
        while frontier:
            b = frontier & -frontier
            nf |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = nf & mask & ~seen
    return seen


def is_partition(parts, full):
    """True iff ``parts`` are nonempty, pairwise disjoint bitmasks whose
    union is ``full``: the cover half of every vertex and edge partition."""
    union = 0
    for p in parts:
        if not p or union & p:
            return False
        union |= p
    return union == full


def is_connected_vertex_set(G, S):
    """True iff the subgraph induced by vertex bitmask S is connected."""
    if S == 0:
        raise EmptySetError("empty vertex set")
    return closure(G.neighbor_masks, (S & -S).bit_length() - 1, S) == S


def is_connected_edge_set(G, F):
    """True iff the edges in bitmask F form a connected subgraph on the
    vertices they touch."""
    if F == 0:
        raise EmptySetError("empty edge set")
    return closure(G.edge_adjacency(), (F & -F).bit_length() - 1, F) == F


def mask_components(adj, mask):
    """Connected components of ``mask`` along ``adj`` as bitmasks, ordered by
    smallest contained id."""
    comps = []
    while mask:
        comp = closure(adj, (mask & -mask).bit_length() - 1, mask)
        comps.append(comp)
        mask &= ~comp
    return comps


def components(G, removed=0):
    """Connected components of G - removed as a list of vertex bitmasks,
    ordered by smallest contained vertex id."""
    return mask_components(G.neighbor_masks, G.full_vertex_mask() & ~removed)


def largest_first(masks):
    """``masks`` largest first, ties by smallest contained id: the one order
    in which every construction picks its component or block."""
    return sorted(masks, key=lambda c: (-c.bit_count(), (c & -c).bit_length()))


def is_connected(G):
    return G.n > 0 and is_connected_vertex_set(G, G.full_vertex_mask())


def min_degree(G):
    return min(len(a) for a in G.adj) if G.n else 0


def _lowpoint_dfs(G, mask, root, first=None):
    """Depth-first walk of the vertices of ``mask`` reachable from ``root``,
    neighbors by ascending id, with ``first`` taken as the root's first child
    even when it is not adjacent to the root.

    Returns (preorder, pre, parent, low): the visit order, each vertex's
    preorder number and parent (-1 for the root and for vertices not
    reached), and low[v], the least preorder number that v's subtree reaches
    by one non-tree edge (pre[v] when none reaches an earlier vertex).
    """
    nbr = G.neighbor_masks
    pre = [-1] * G.n
    parent = [-1] * G.n
    low = [0] * G.n
    pre[root] = 0
    preorder = [root]
    rest = nbr[root] & mask
    if first is None:
        kids = bits(rest)
    else:
        kids = itertools.chain((first,), bits(rest & ~(1 << first)))
    stack = [(root, kids)]
    while stack:
        v, it = stack[-1]
        for u in it:
            if pre[u] == -1:
                pre[u] = low[u] = len(preorder)
                parent[u] = v
                preorder.append(u)
                stack.append((u, bits(nbr[u] & mask)))
                break
            if u != parent[v] and pre[u] < low[v]:
                low[v] = pre[u]
        else:
            stack.pop()
            p = parent[v]
            if p >= 0 and low[v] < low[p]:
                low[p] = low[v]
    return preorder, pre, parent, low


def blocks(G, mask):
    """2-connected blocks of the subgraph induced by vertex bitmask ``mask``,
    as vertex bitmasks, from one lowpoint DFS per component: a tree edge
    (p, v) opens a new block when no edge from v's subtree climbs above p,
    and otherwise lies in the block of p's own tree edge.

    Bridges yield 2-vertex blocks.  Isolated vertices yield no block.  Output
    sorted by (smallest vertex, mask) for determinism.
    """
    out = []
    left = mask
    while left:
        preorder, pre, parent, low = _lowpoint_dfs(G, mask, (left & -left).bit_length() - 1)
        left &= ~mask_of(preorder)
        block = {}  # vertex -> index in out of the block of its tree edge
        for v in preorder[1:]:
            p = parent[v]
            if low[v] >= pre[p]:
                block[v] = len(out)
                out.append(1 << p | 1 << v)
            else:
                block[v] = block[p]
                out[block[v]] |= 1 << v
    out.sort(key=lambda bm: ((bm & -bm).bit_length(), bm))
    return out


def is_biconnected(G):
    full = G.full_vertex_mask()
    return blocks(G, full) == [full]


def st_numbering(G, s, t, mask):
    """Ordering of the vertex bitmask ``mask``, starting at s and ending at t,
    in which every prefix and every suffix induces a connected subgraph.

    Classic lowpoint construction (Even–Tarjan) on the lowpoint DFS from s
    that visits t first (the st-edge is treated as virtual if absent, which
    is sound because the prefix/suffix property never uses it).  Requires the
    subgraph induced by ``mask`` to be 2-connected, with s and t two of its
    vertices.
    """
    if s == t or min(s, t) < 0 or not (mask >> s) & (mask >> t) & 1:
        raise NotBiconnectedError("s and t must be two distinct vertices of the mask")
    if blocks(G, mask) != [mask]:
        raise NotBiconnectedError("graph is not 2-connected")
    preorder, _, parent, low = _lowpoint_dfs(G, mask, s, first=t)

    # doubly linked insertion list seeded with [s, t]
    nxt = {s: t, t: None}
    prv = {t: s, s: None}
    sign = {s: -1}
    for v in preorder[2:]:  # s and t come first
        p = parent[v]
        if sign[preorder[low[v]]] == -1:
            # insert v before its parent
            q = prv[p]
            nxt[q] = v
            prv[v] = q
            nxt[v] = p
            prv[p] = v
            sign[p] = 1
        else:
            q = nxt[p]
            nxt[p] = v
            prv[v] = p
            nxt[v] = q
            prv[q] = v
            sign[p] = -1

    order = []
    cur = s
    while cur is not None:
        order.append(cur)
        cur = nxt[cur]

    # safety net: verify the defining property
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        nbrs = G.neighbor_masks[v] & mask
        if v != s and all(pos[u] > pos[v] for u in bits(nbrs)):
            raise NotBiconnectedError("st-numbering failed validation")
        if v != t and all(pos[u] < pos[v] for u in bits(nbrs)):
            raise NotBiconnectedError("st-numbering failed validation")
    return order


def st_split(G, mask, s):
    """[A, mask - A] for A the first s vertices of the st-numbering of the
    2-connected vertex bitmask ``mask`` from its lowest to its highest
    vertex; both parts are connected for 1 <= s < |mask|."""
    order = st_numbering(G, (mask & -mask).bit_length() - 1, mask.bit_length() - 1, mask)
    a = mask_of(order[:s])
    return [a, mask & ~a]


def write_graph(G, fh):
    """Text format: 'n m' then one 'u v' line per edge, min endpoint first."""
    fh.write(f"{G.n} {G.m}\n")
    for u, v in G.edges:
        fh.write(f"{u} {v}\n")


def read_graph(fh):
    """Parse the text format of ``write_graph``; '#' lines and blank lines
    are skipped.  Raises ParseError on malformed text, and DisconnectedError
    when the header has n > m + 1, which no connected graph has."""
    lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty graph file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise ParseError(f"bad header line: {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise ParseError(f"negative count in header line: {lines[0]!r}")
    if n > m + 1:  # fewer than n - 1 edges; rejected before any per-vertex work
        raise DisconnectedError(f"{n} vertices and {m} edges cannot be connected")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise ParseError(f"bad edge line: {ln!r}") from exc
        edges.append((u, v))
    return Graph(n, edges)
