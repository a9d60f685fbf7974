"""Constructive lower-bound pipelines: dense-core peeling, greedy long paths,
the path-cut 2-partition family, spanning-tree packing and the k-partition
family on top of it, the connected-cut witness, and the ordered
vertex-partition family.

Every pipeline checks the guarantees it relies on at runtime instead of
assuming them, and returns a machine-readable report next to its partitions.
Only the cut witness, and the ordered family's leaf-peel fallback, are
validated in full.  The path-cut, packing and ordered families check a
certificate once per call instead: consecutive vertices of the long path (of
its prefix, for the path cut) are adjacent, the cut edges reach every
component outside the path prefix, the trees span the core and with the
leftover partition its edges, the last tree reaches every outside edge, and
every component outside the ordered family's core touches the core.  Each of
their partitions then gets only an O(k) check that its parts are nonempty,
disjoint and cover G; the ordered family also checks the connectivity of each
remainder.  A failed check raises ConstructionFailedError.  The pipelines run
in the input graph's own vertex and edge ids, on the dense core's vertex
mask.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import or_

from .arith import ascending_compositions
from .errors import (
    ConstructionFailedError,
    DisconnectedError,
    EmptySetError,
    PackingInfeasibleError,
    TooSmallError,
)
from .exact import (
    PRESCRIBED_VERTEX_BUDGET,
    CutWitness,
    cut_size,
    prescribed_partition,
    validate_vertex_partition,
)
from .graph import (
    Graph,
    bfs_tree,
    bits,
    blocks,
    closure,
    components,
    induced_edge_sets,
    is_connected,
    is_connected_edge_set,
    is_connected_vertex_set,
    is_partition,
    largest_first,
    mask_of,
    st_split,
)
from .splits import profile_of


@dataclass
class CoreSubgraph:
    """Result of min-degree peeling: the vertex mask of a connected subgraph
    of the input graph with minimum degree at least half the input's average
    degree."""

    vertices: int  # vertex bitmask
    min_degree: int

    @property
    def size(self):
        return self.vertices.bit_count()


def dense_core(G):
    """Peel every vertex of degree < d(G)/2 and return the largest connected
    component of what remains, the first in ``largest_first`` order.

    One queue peel (Matula and Beck 1983), O(n + m) mask operations: the
    queue starts with every vertex below the threshold, and a neighbor whose
    degree drops below it joins the queue.  The threshold is fixed, so what
    survives does not depend on the order of the peel.  With m >= 1 each
    survivor has deg >= m/n > 0 alive neighbors: min_degree >= 1, size >= 2."""
    n, m = G.n, G.m
    deg = [nbrs.bit_count() for nbrs in G.neighbor_masks]
    # deg < d/2 = m/n, compared in integers as deg*n < m
    queue = [v for v in range(n) if deg[v] * n < m]
    alive = G.full_vertex_mask() & ~mask_of(queue)
    for v in queue:
        for u in bits(G.neighbor_masks[v] & alive):
            deg[u] -= 1
            if deg[u] * n < m:
                alive &= ~(1 << u)
                queue.append(u)
    if not alive:
        raise ConstructionFailedError("peeling emptied the graph")
    core = largest_first(components(G, removed=G.full_vertex_mask() & ~alive))[0]
    # a survivor's alive neighbors all lie in its own component
    return CoreSubgraph(core, min(deg[v] for v in bits(core)))


def long_path(G, mask):
    """Greedy path in the subgraph H induced by vertex bitmask ``mask``, from
    its lowest vertex, extended at both endpoints until each endpoint has all
    its neighbors in H on the path; at least min_degree(H)+1 vertices."""
    if not mask:
        raise EmptySetError("empty vertex set")
    start = (mask & -mask).bit_length() - 1
    path = deque([start])
    onpath = 1 << start
    while True:
        # the tail first; after any extension, the tail again
        for end, extend in ((path[-1], path.append), (path[0], path.appendleft)):
            cand = G.neighbor_masks[end] & mask & ~onpath
            if cand:
                v = (cand & -cand).bit_length() - 1
                extend(v)
                onpath |= 1 << v
                break
        else:
            return list(path)


@dataclass
class PathCutReport:
    core_size: int
    delta_core: int
    path_len: int
    prefix_len: int
    m_cut: int
    emitted: int
    distinct_pairs: int


def path_cut_partitions(G):
    """The path-cut family of connected 2-edge-partitions.

    Pipeline: dense core H, greedy long path truncated to ceil(delta(H)/2)
    vertices, cut edges ordered along the path; prefix l of the cut plus the
    reached path prefix plus the outside components already touched forms one
    part, the rest the other.  Each component of G minus the prefix joins
    part 1 with the first cut edge into it.

    Certified once per call: consecutive prefix vertices are adjacent, and
    every component of G minus the prefix is reached by a cut edge.  Let the
    latest cut edge end at prefix[pi].  Then both parts are connected:

    - e1 is E(prefix[:pi+1]), which holds the path prefix[0..pi], plus cut
      edges whose path end lies at index <= pi, plus the edges of each
      reached component, joined to the rest of e1 by the cut edge that
      reached it.
    - e2 holds the path edges from prefix[pi] to prefix[t-1], and every later
      cut edge and every other edge of E(prefix) outside e1 touches that
      subpath.  A component not yet reached has all its cut edges in e2.

    So each emitted partition needs only the O(k) cover check.
    """
    if not is_connected(G):
        raise DisconnectedError("path-cut pipeline needs a connected graph")
    core = dense_core(G)
    delta = core.min_degree
    path = long_path(G, core.vertices)
    t = max(1, (delta + 1) // 2)
    prefix = path[:t]
    _check_path(G, prefix)
    pset = mask_of(prefix)
    pos = {v: i for i, v in enumerate(prefix)}

    cut = []  # (path index, edge id, outside endpoint)
    for ei, (u, v) in enumerate(G.edges):
        inu, inv = (pset >> u) & 1, (pset >> v) & 1
        if inu != inv:
            cut.append((pos[u], ei, v) if inu else (pos[v], ei, u))
    cut.sort()
    m_cut = len(cut)

    prefix_edges = [e for e, _ in induced_edge_sets(G, [mask_of(prefix[:r]) for r in range(t + 1)])]
    outside = G.full_vertex_mask() & ~pset
    reached = 0  # the outside components part 1 holds
    full = G.full_edge_mask()
    out = []
    e1 = 0
    for pi, ei, w in cut:
        e1 |= 1 << ei | prefix_edges[pi + 1]
        if not (reached >> w) & 1:
            comp = closure(G.neighbor_masks, w, outside)
            reached |= comp
            e1 |= G.edge_set_of_vertices(comp)
        e2 = full & ~e1
        if e2:
            parts = [e1, e2]
            _check_cover(parts, full, "path-cut partition")
            out.append(parts)
    if reached != outside:
        raise ConstructionFailedError("outside component has no cut edge")
    if not out and G.m >= 2:
        # only one cut edge leaves e2 empty, and only a one-vertex prefix of degree 1 has one
        out.append(_single_edge_split(G))
    pairs = {profile_of(ps) for ps in out}
    report = PathCutReport(
        core_size=core.size,
        delta_core=delta,
        path_len=len(path),
        prefix_len=t,
        m_cut=m_cut,
        emitted=len(out),
        distinct_pairs=len(pairs),
    )
    return out, report


def _check_path(G, path):
    """Consecutive vertices of ``path`` are adjacent, so each of its
    subpaths is connected."""
    for u, v in zip(path, path[1:]):
        if not (G.neighbor_masks[u] >> v) & 1:
            raise ConstructionFailedError(f"long path skips from {u} to {v}")


def _single_edge_split(G):
    """[{e}, E - e] for the lowest-id pendant edge e."""
    full = G.full_edge_mask()
    for ei, (u, v) in enumerate(G.edges):
        if G.degree(u) == 1 or G.degree(v) == 1:
            return [1 << ei, full & ~(1 << ei)]
    # the path cut falls back only when G has a pendant edge
    raise ConstructionFailedError("no pendant edge found")


@dataclass
class TreePacking:
    graph: Graph
    vertices: int  # vertex bitmask the trees span
    trees: list  # k edge bitmasks, each a spanning tree of G[vertices]
    leftover: int  # edge bitmask, the rest of E(vertices)


def spanning_tree_packing(G, k, mask):
    """k edge-disjoint spanning trees of the subgraph induced by vertex
    bitmask ``mask``, via incremental matroid-union augmentation;
    deterministic edge order.  Raises PackingInfeasibleError with the final
    forests if that subgraph has no such packing.

    The edges of E(mask) are added in ascending id order.  For edge e, a BFS
    over exchange edges (``prevE``) looks, for each edge f it reaches, at
    every forest i that does not own f: if f joins two trees of forest i, the
    chain of swaps back to e is applied; otherwise the edges on f's cycle in
    forest i are queued.  An edge for which no swap chain exists stays in the
    leftover.

    Each swap chain adds exactly one edge to the forests, so the loop stops
    once they hold k * (|mask| - 1) edges, and every later edge of E(mask)
    stays in the leftover.  Stopping changes nothing: each forest then has
    |mask| - 1 edges inside G[mask], a basis of that graphic matroid, so
    ``forest_path`` finds a path for every edge, no chain can exist and no
    forest would change.  An infeasible packing never reaches the count.

    Cycle queries read rooted forests: each forest gets, per vertex, its
    parent, parent edge, depth and tree root, built on the first query that
    needs it and dropped only when an augmentation inserts into or removes
    from that forest.  A query compares roots to detect different trees and
    otherwise climbs from both ends to their lowest common ancestor.  A
    forest has one path between two vertices, and ``forest_path`` lists it
    from ``dst`` back to ``src``, so the BFS queues the same edges in the
    same order whichever vertex a tree is rooted at, and the trees, the
    leftover and the infeasible forests depend only on the edge order."""
    if not is_connected_vertex_set(G, mask):
        raise DisconnectedError("packing needs a connected graph")
    n = G.n
    need = mask.bit_count() - 1  # edges in each spanning tree
    owner = [-1] * G.m
    fadj = [[[] for _ in range(n)] for _ in range(k)]  # forest -> vertex -> [(nbr, eid)]
    rooted = [None] * k  # forest -> (parent, parent edge, depth, root) lists

    def root_forest(i):
        parent, pedge, depth, root = [-1] * n, [-1] * n, [0] * n, [-1] * n
        for r in bits(mask):
            if root[r] >= 0:
                continue
            root[r] = r
            stack = [r]
            while stack:
                x = stack.pop()
                for y, eid in fadj[i][x]:
                    if root[y] < 0:
                        root[y], parent[y], pedge[y] = r, x, eid
                        depth[y] = depth[x] + 1
                        stack.append(y)
        rooted[i] = (parent, pedge, depth, root)
        return rooted[i]

    def forest_path(i, src, dst):
        """Edge ids on the path from dst back to src in forest i, or None."""
        parent, pedge, depth, root = rooted[i] or root_forest(i)
        if root[src] != root[dst]:
            return None
        up, down = [], []  # dst's climb, src's climb
        x, y = dst, src
        while x != y:
            if depth[x] >= depth[y]:
                up.append(pedge[x])
                x = parent[x]
            else:
                down.append(pedge[y])
                y = parent[y]
        down.reverse()
        return up + down

    def insert(i, eid):
        u, v = G.edges[eid]
        owner[eid] = i
        fadj[i][u].append((v, eid))
        fadj[i][v].append((u, eid))
        rooted[i] = None

    def remove(i, eid):
        u, v = G.edges[eid]
        fadj[i][u].remove((v, eid))
        fadj[i][v].remove((u, eid))
        rooted[i] = None

    edges = G.edge_set_of_vertices(mask)
    placed = 0  # tree edges in the forests
    for e in bits(edges):
        if placed == k * need:
            break  # every forest spans G[mask]: the rest is leftover
        prevE = {e: None}
        q = deque([e])
        found = None
        while q and found is None:
            f = q.popleft()
            fu, fv = G.edges[f]
            for i in range(k):
                if owner[f] == i:
                    continue
                cyc = forest_path(i, fu, fv)
                if cyc is None:
                    found = (f, i)
                    break
                for h in cyc:
                    if h not in prevE:
                        prevE[h] = f
                        q.append(h)
        if found is None:
            continue  # edge stays in the leftover
        f, i = found
        while True:
            g = prevE[f]
            j = owner[f]
            if j >= 0:
                remove(j, f)
            insert(i, f)
            if g is None:
                break
            f, i = g, j
        placed += 1

    trees = [0] * k
    for eid, o in enumerate(owner):
        if o >= 0:
            trees[o] |= 1 << eid
    if any(t.bit_count() != need for t in trees):
        raise PackingInfeasibleError(
            f"no {k} edge-disjoint spanning trees (forest sizes "
            f"{[t.bit_count() for t in trees]}, need {need})",
            forests=trees,
        )
    leftover = edges & ~sum(trees)
    packing = TreePacking(G, mask, trees, leftover)
    _check_packing(packing)
    return packing


def _check_packing(packing):
    """The trees are k edge-disjoint spanning trees of G[vertices], and they
    and the leftover partition E(vertices).  A tree of |V| - 1 edges inside
    E(V) spans V exactly when it connects V; otherwise it closes a cycle."""
    G, V = packing.graph, packing.vertices
    edges = G.edge_set_of_vertices(V)
    need = V.bit_count() - 1
    seen = 0
    for t in packing.trees:
        if seen & t:
            raise ConstructionFailedError("trees not edge-disjoint")
        seen |= t
        if t.bit_count() != need or t & ~edges:
            raise ConstructionFailedError("forest does not span")
        tadj = [0] * G.n
        for u, v in (G.edges[eid] for eid in bits(t)):
            tadj[u] |= 1 << v
            tadj[v] |= 1 << u
        if closure(tadj, (V & -V).bit_length() - 1, V) != V:
            raise ConstructionFailedError("forest has a cycle")
    if seen & packing.leftover:
        raise ConstructionFailedError("leftover edges overlap the trees")
    if seen | packing.leftover != edges:
        raise ConstructionFailedError("trees and leftover do not cover the edges of the vertex set")


def _check_cover(parts, full, what):
    """The per-partition share of a certified family's check: nonempty,
    pairwise disjoint parts whose union is ``full``."""
    if not is_partition(parts, full):
        raise ConstructionFailedError(f"{what} is not a partition of the graph")


@dataclass
class PackingReport:
    core_size: int
    delta_core: int
    packed_k: int
    leftover: int
    emitted: int


def packing_partitions(G, k):
    """Connected k-edge-partitions from a spanning-tree packing of the dense
    core: tree i plus a block of leftover edges, with everything outside the
    core hanging off the last tree.

    Certified once per call: each tree spans the core, the trees and the
    leftover partition E(core) (both checked by ``spanning_tree_packing``),
    and the last tree with the outside edges is connected.  Tree i plus any
    block of E(core) is then connected, so each emitted partition needs only
    the O(k) cover check."""
    if k < 2:
        raise TooSmallError("k must be >= 2")
    if G.n == 1:
        raise TooSmallError(f"a one-vertex graph has no edges to pack into {k} trees")
    if not is_connected(G):
        raise DisconnectedError("packing pipeline needs a connected graph")
    core = dense_core(G)
    packing = spanning_tree_packing(G, k, core.vertices)  # may raise PackingInfeasibleError
    prefix = [0]  # prefix[i]: the first i leftover edges by id
    for ei in bits(packing.leftover):
        prefix.append(prefix[-1] | 1 << ei)
    full = G.full_edge_mask()
    outside = full & ~G.edge_set_of_vertices(core.vertices)
    if not is_connected_edge_set(G, packing.trees[k - 1] | outside):
        raise ConstructionFailedError("outside edges are cut off from the last tree")

    out = []
    for sizes in ascending_compositions(packing.leftover.bit_count(), k):
        parts, at = [], 0
        for tree, a in zip(packing.trees, sizes):
            parts.append(tree | (prefix[at + a] ^ prefix[at]))
            at += a
        parts[k - 1] |= outside
        _check_cover(parts, full, "packing partition")
        out.append(parts)
    report = PackingReport(
        core_size=core.size,
        delta_core=core.min_degree,
        packed_k=k,
        leftover=packing.leftover.bit_count(),
        emitted=len(out),
    )
    return out, report


def _attach_table(G, assigned):
    """For each vertex v of ``assigned``, the union of the components of
    G - assigned that touch v (0 off ``assigned``).  Raises when a component
    touches no vertex of ``assigned``, so no part could take it."""
    table = [0] * G.n
    for c in components(G, removed=assigned):
        nb = 0
        for v in bits(c):
            nb |= G.neighbor_masks[v]
        nb &= assigned
        if not nb:
            raise ConstructionFailedError("outside component touches no part")
        for v in bits(nb):
            table[v] |= c
    return table


def _attach(parts, reaches, outside):
    """Join each component of ``outside`` to the first part it touches.
    ``reaches[j]`` is the union of the components part j touches, for every
    part but the last: part j takes it less what earlier parts took, and the
    last part takes the rest of ``outside``."""
    out, taken = [], 0
    for p, reach in zip(parts, reaches):
        out.append(p | reach & ~taken)
        taken |= reach
    out.append(parts[-1] | outside & ~taken)
    return out


def _attach_by_table(table, parts, outside):
    """``_attach`` with each part's reach the union of its vertices' rows of
    ``_attach_table``."""
    reaches = []
    for p in parts[:-1]:
        reach = 0
        for v in bits(p):
            reach |= table[v]
        reaches.append(reach)
    return _attach(parts, reaches, outside)


def connected_cut_bound(G, r=2):
    """A certified connected r-partite cut witness built inside the dense
    core (st-numbering split of a largest block for r=2, prescribed-size
    connected partition for r >= 3), with outside components re-attached."""
    if not is_connected(G):
        raise DisconnectedError("cut bound needs a connected graph")
    if r < 1:
        raise TooSmallError(f"r={r} must be at least 1")
    if G.n < r:
        raise TooSmallError(f"cannot cut {G.n} vertices into {r} parts")
    core = dense_core(G)
    H, n_core = core.vertices, core.size
    delta = core.min_degree

    if r == 2:
        # n >= 2, so dense_core's delta >= 1 and st_split gets 1 <= s < |bmask|
        bmask = largest_first(blocks(G, H))[0]
        parts = st_split(G, bmask, min((delta + 1) // 2, bmask.bit_count() - 1))
    elif n_core < r:
        # G has at least r vertices (checked above), though its core has not
        parts = _leaf_peel(G, r, G.full_vertex_mask())
    else:
        # (r - 1) s < n_core, as r <= n_core and (r - 1) s < delta / 2 < n_core
        s = max(1, delta // (2 * r))
        sizes = [s] * (r - 1) + [n_core - (r - 1) * s]
        # under the budget the search is exact, so greedy growth, whose parts
        # have these sizes too, could find nothing it missed
        if n_core <= PRESCRIBED_VERTEX_BUDGET:
            parts = prescribed_partition(G, sizes, H)
        else:
            parts = _greedy_regions(G, sizes, H)
        if parts is None:
            parts = _leaf_peel(G, r, H)

    # at r=2 the parts cover one block, not the whole core
    assigned = sum(parts)
    parts = _attach_by_table(_attach_table(G, assigned), parts, G.full_vertex_mask() & ~assigned)
    if not validate_vertex_partition(G, parts, k=r):
        raise ConstructionFailedError("cut witness failed validation")
    return CutWitness(parts, cut_size(G, parts))


def _greedy_regions(G, sizes, mask):
    """BFS region growing in the vertex bitmask ``mask``: each part is the
    first s vertices of the BFS order from the lowest remaining vertex, the
    last part is the remainder (validated for connectivity).  Each BFS visits
    neighbors by ascending id and stops once it has s vertices."""
    remaining = mask
    parts = []
    for s in sizes[:-1]:
        order = [(remaining & -remaining).bit_length() - 1]
        seen = 1 << order[0]
        for v in order:
            if len(order) >= s:
                break
            new = G.neighbor_masks[v] & remaining & ~seen
            seen |= new
            order.extend(bits(new))
        if len(order) < s:
            return None
        S = mask_of(order[:s])
        parts.append(S)
        remaining &= ~S
    # grown parts are connected by construction; the sizes sum to |mask|, so remaining != 0
    if not is_connected_vertex_set(G, remaining):
        return None
    parts.append(remaining)
    return parts


def _leaf_peel(G, r, mask):
    """Always-valid fallback partition of the connected vertex bitmask
    ``mask``: r-1 spanning-tree leaves become singleton parts, the remaining
    tree is the last part."""
    alive = mask
    _, _, tree = bfs_tree(G.neighbor_masks, (mask & -mask).bit_length() - 1, alive)
    parts = []
    for _ in range(r - 1):
        leaf = next(v for v in bits(alive) if (tree[v] & alive).bit_count() <= 1)
        parts.append(1 << leaf)
        alive &= ~(1 << leaf)
    parts.append(alive)
    return parts


@dataclass
class OrderedPartitionReport:
    core_size: int
    delta_core: int
    path_len: int
    subpath_lens: list = field(default_factory=list)
    attempted: int = 0
    succeeded: int = 0


def ordered_vertex_partitions(G, k):
    """Connected k-vertex-partitions with pairwise distinct ordered size
    vectors: prefixes of k-1 subpaths of a long core path, remainder of the
    core as the last part (connectivity verified directly), outside
    components attached to the first part they touch.  Distinct tuples give
    distinct vectors: where two first differ, the longer prefix's part is larger.

    Certified once per call: consecutive path vertices are adjacent, so every
    subpath prefix is connected, and every component of G - core touches the
    core, so ``_attach_table`` joins it to a part it touches.  Each emitted
    partition then needs only the O(k) cover check.  Each subpath prefix
    carries the union of its vertices' table rows, so a tried tuple costs
    O(k) mask operations and one connectivity check of the remainder.  When
    no tuple of prefixes leaves a connected remainder, a core with at least k
    vertices still yields one partition: the leaf peel of the core, validated
    in full."""
    if k < 2:
        raise TooSmallError("k must be >= 2")
    if G.n < k:
        raise TooSmallError(f"cannot split {G.n} vertices into {k} parts")
    if not is_connected(G):
        raise DisconnectedError("ordered partitions need a connected graph")
    core = dense_core(G)
    hmask = core.vertices
    path = long_path(G, hmask)
    _check_path(G, path)

    report = OrderedPartitionReport(
        core_size=core.size, delta_core=core.min_degree, path_len=len(path)
    )
    full = G.full_vertex_mask()
    outside = full & ~hmask
    table = _attach_table(G, hmask)

    # the last path vertex is reserved for the final part, so every prefix
    # choice leaves it nonempty; a path of fewer than k vertices leaves a
    # subpath empty, and no tuple is tried
    usable = path[:-1]
    base, extra = divmod(len(usable), k - 1)
    subpaths = [usable[i * base + min(i, extra) : (i + 1) * base + min(i + 1, extra)]
                for i in range(k - 1)]
    report.subpath_lens = [len(p) for p in subpaths]

    # per subpath, each prefix's vertex mask and the outside vertices it reaches
    prefixes = [list(zip(itertools.accumulate((1 << v for v in sp), or_),
                         itertools.accumulate((table[v] for v in sp), or_)))
                for sp in subpaths]
    out = []
    for xs in itertools.product(*prefixes):
        report.attempted += 1
        masks, reaches = zip(*xs)
        xk = hmask & ~sum(masks)
        if not is_connected_vertex_set(G, xk):
            continue
        parts = _attach([*masks, xk], reaches, outside)
        _check_cover(parts, full, "ordered partition")
        out.append(parts)
    if not out and core.size >= k:
        parts = _attach_by_table(table, _leaf_peel(G, k, hmask), outside)
        if not validate_vertex_partition(G, parts, k=k):
            raise ConstructionFailedError("leaf-peel partition failed validation")
        out.append(parts)
    report.succeeded = len(out)
    return out, report

