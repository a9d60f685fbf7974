"""Nested split sequences of trees and the edge-partition families built from
them: the recursive k-partition family (at k=2, the 2-partition family over a
BFS spanning tree), the Case I/II tree construction, and a polynomial exact
solver for 2-edge-partition profiles of trees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import t_value
from .errors import ConstructionFailedError, DisconnectedError, TooSmallError
from .graph import (
    RootedTree,
    bfs_tree,
    bits,
    closure,
    components,
    induced_edge_sets,
    is_connected,
    is_connected_edge_set,
    is_partition,
    largest_first,
    mask_components,
)


@dataclass
class SplitSequence:
    """Sequence of (A_i, B_i, v_i) vertex-bitmask triples over a rooted tree.

    Invariants: A_i and B_i intersect exactly in {v_i}, cover V, both induce
    connected subtrees, A strictly shrinks while B strictly grows, every
    earlier pivot lies in all later B sets, and the length is at least
    t(n) + 1.
    """

    tree: RootedTree
    items: list  # [(A_mask, B_mask, v), ...]

    def __len__(self):
        return len(self.items)

    def check(self):
        """Check all four invariants; raises ConstructionFailedError on
        violation (also under ``python -O``).

        S in a tree is connected iff |E(S)| = |S| - 1 (``RootedTree`` guarantees
        a tree).  One ``induced_edge_sets`` walk over the Bs yields E(B) and the
        edges touching B.  Once A and B meet in {v} and cover V, A = V - (B - v),
        so E(A) is E less the edges touching B - v: those touching B but not v,
        and those of E(B) at v.  Later pivots are read off a suffix AND of the Bs.
        """
        T = self.tree
        G = T.graph
        full, full_e = G.full_vertex_mask(), G.full_edge_mask()
        inc = G._inc_mask
        items = self.items
        if not items:
            raise ConstructionFailedError("empty split sequence")
        if items[0][2] != T.root:
            raise ConstructionFailedError("first pivot is not the root")
        later = [full] * len(items)  # later[i]: AND of B_j over j > i
        for i in range(len(items) - 1, 0, -1):
            later[i - 1] = later[i] & items[i][1]
        walk = induced_edge_sets(G, [B for _, B, _ in items])
        for i, ((A, B, v), (eB, touch)) in enumerate(zip(items, walk)):
            if A & B != 1 << v:
                raise ConstructionFailedError(f"A and B of item {i} do not meet in its pivot")
            if A | B != full:
                raise ConstructionFailedError(f"A and B of item {i} do not cover V")
            eA = full_e & ~((touch & ~inc[v]) | (eB & inc[v]))
            if eA.bit_count() != A.bit_count() - 1 or eB.bit_count() != B.bit_count() - 1:
                raise ConstructionFailedError(f"A or B of item {i} is not connected")
            if not (later[i] >> v) & 1:
                raise ConstructionFailedError("earlier pivot missing from later B")
        # with the checks above, a strictly shrinking A makes B strictly grow,
        # so B needs no test: B_i = (V - A_i) | {v_i} and v_i lies in B_{i+1},
        # so A_{i+1} <= A_i gives B_i <= B_{i+1}; and B_i = B_{i+1} would put
        # v_{i+1} (in A_{i+1} <= A_i) in A_i & B_i = {v_i}, so A_{i+1} = A_i
        for (A1, _, _), (A2, _, _) in zip(items, items[1:]):
            if A2 & ~A1 or A1 == A2:
                raise ConstructionFailedError("A sets not strictly decreasing")
        if len(items) < t_value(G.n) + 1:
            raise ConstructionFailedError(
                f"length {len(items)} is below t(n) + 1 = {t_value(G.n) + 1}"
            )


def nested_split_sequence(T):
    """The nested (A_i, B_i, v_i) sequence of a rooted tree."""
    G = T.graph
    return SplitSequence(T, _split_items(G.neighbor_masks, G.full_vertex_mask(), T.root))


def _split_items(tree, mask, v):
    """The split items of the subtree ``mask`` rooted at v, for ``tree`` the
    per-vertex tree-neighbor masks; ids are those of ``tree``.

    At each level the components of the current subtree minus its root are
    peeled off one by one: the rest smallest first, then the first of
    ``largest_first`` (ties by smallest contained vertex id, in both orders);
    the walk continues inside that largest component, rooted at the root's
    neighbor there, with everything peeled so far in every B.
    """
    items = []
    ext = 0
    while mask != 1 << v:
        comps = largest_first(mask_components(tree, mask & ~(1 << v)))
        largest = comps[0]
        rest = sorted(comps[1:], key=lambda c: (c.bit_count(), (c & -c).bit_length()))
        a, b = mask, ext | 1 << v
        for c in rest + [largest]:
            items.append((a, b, v))
            a &= ~c
            b |= c
        ext |= mask & ~largest
        v = (tree[v] & largest).bit_length() - 1
        mask = largest
    items.append((mask, ext | mask, v))
    return items


def validate_edge_partition(G, parts, k=None):
    """True iff ``parts`` (k of them if k is given) partition E(G) into connected sets."""
    if k is not None and len(parts) != k:
        return False
    return (is_partition(parts, G.full_edge_mask())
            and all(is_connected_edge_set(G, p) for p in parts))


def profile_of(parts):
    """Canonical (sorted descending) size tuple of a partition."""
    return tuple(sorted((p.bit_count() for p in parts), reverse=True))


def _subtree_sizes(order, parent):
    """Subtree sizes of a BFS tree given by its visit order and parents,
    indexed by vertex id (0 off the tree)."""
    sz = [0] * len(parent)
    for v in reversed(order):
        sz[v] += 1
        if parent[v] >= 0:
            sz[parent[v]] += sz[v]
    return sz


def _centroid(order, parent, sz):
    """Vertex of a BFS tree with subtree sizes ``sz`` minimizing its largest
    branch; ties by smallest id.  A vertex off the tree (size 0) scores
    len(order), above every tree vertex."""
    worst = [len(order) - s for s in sz]  # the branch through the parent
    for u in order[1:]:
        worst[parent[u]] = max(worst[parent[u]], sz[u])
    return worst.index(min(worst))


def recursive_k_partitions(G, k):
    """Connected k-edge-partitions with pairwise distinct ordered size tuples.

    k=2 is the split-sequence family over a BFS spanning tree.  For k > 2 the
    graph is split at a spanning-tree centroid into a chunk holding roughly a
    third to a half of the vertices; the split sequence runs inside the chunk
    and the construction recurses with k-1 parts on the complement side of
    every split.
    """
    if k < 2:
        raise TooSmallError("k must be >= 2")
    if G.m < k:
        raise TooSmallError(f"graph has {G.m} edges < k={k}")
    if not is_connected(G):
        raise DisconnectedError("graph is disconnected")
    return _k_partitions(G, G.full_vertex_mask(), G.full_edge_mask(), k)


def _k_partitions(G, vmask, emask, k):
    """``recursive_k_partitions`` of G[vmask], whose edges are ``emask``, in
    G's ids; the BFS spanning tree of G[vmask] is rooted at its lowest vertex.
    Every split whose B side holds at least k - 1 edges recurses on G[B]."""
    if k == 1:
        return [[emask]]
    root = (vmask & -vmask).bit_length() - 1
    order, parent, tree = bfs_tree(G.neighbor_masks, root, vmask)
    if k == 2:
        return _split_rows(G, tree, vmask, emask, vmask, root, k)
    v = _centroid(order, parent, _subtree_sizes(order, parent))
    return _split_rows(G, tree, vmask, emask, _centroid_chunk(tree, vmask, v), v, k)


def _split_rows(G, tree, vmask, emask, chunk, v, k):
    """The rows of ``_k_partitions(G, vmask, emask, k)`` from the split
    sequence of the subtree ``chunk`` of ``tree`` (per-vertex tree-neighbor
    masks) rooted at v: each split's B, with everything outside the chunk,
    holding at least k - 1 of the edges recurses with k - 1 parts, and the
    rest of ``emask`` is the first part."""
    ext = vmask & ~chunk
    Bs = [ext | B for _, B, _ in _split_items(tree, chunk, v)]
    out = []
    for B, (e2, _) in zip(Bs, induced_edge_sets(G, Bs)):
        e1 = emask & ~e2
        if e1 and e2.bit_count() >= k - 1:
            out.extend([e1, *row] for row in _k_partitions(G, B, e2, k - 1))
    return out


def _chunk_prefix(comps, n):
    """The union of the shortest prefix of ``comps``, the components of an
    n-vertex tree minus one vertex in ``largest_first`` order, that holds at
    least (n - 1)/3 vertices.  Both chunk rules, ``_centroid_chunk``'s and
    Case II's, choose between it and the rest."""
    pref = 0
    for c in comps:
        pref |= c
        if 3 * pref.bit_count() >= n - 1:
            break
    return pref


def _centroid_chunk(tree, mask, v):
    """The chunk of the tree ``mask`` (per-vertex tree-neighbor masks
    ``tree``) around its centroid v that ``recursive_k_partitions`` runs its
    split sequence in: the smaller of two components, a largest component
    that holds n/3 vertices, or else the ``_chunk_prefix`` side or the rest,
    whichever fits n/2."""
    n = mask.bit_count()
    comps = largest_first(mask_components(tree, mask & ~(1 << v)))
    if len(comps) == 2:
        sel = comps[1]  # the smaller one
    elif 3 * comps[0].bit_count() >= n:  # one component holds n - 1 >= n/3 too
        sel = comps[0]
    else:
        sel = _chunk_prefix(comps, n)
        other = mask & ~sel & ~(1 << v)
        # prefer the accumulated side; fall back to whichever fits n/2
        if 2 * (sel.bit_count() + 1) > n and 2 * (other.bit_count() + 1) <= n:
            sel = other
    return sel | 1 << v


def tree_exact_P2(T):
    """Exact 2-edge-partition profile of a tree.

    Any connected 2-edge-partition of a tree splits the branches at a single
    shared vertex, so the achievable sizes are exactly the proper subset sums
    of one vertex's branch edge counts.  One pass up the BFS order collects
    each vertex's subset sums over its child branches by bitset convolution;
    a non-root vertex adds its parent branch, of n - sz[v] edges, as it is
    read.  A vertex with one branch reaches only 0 and m, masked off below.
    """
    G = T.graph
    n, m = G.n, G.m
    if m == 0:
        return set()
    parent = T.parent
    sz = _subtree_sizes(T.order, parent)
    reach = [1] * n
    sums = 0
    for v in reversed(T.order[1:]):  # every child of v is read before v
        r = reach[v]
        sums |= r | r << (n - sz[v])
        reach[parent[v]] |= reach[parent[v]] << sz[v]
    sums |= reach[T.root]
    return {(max(s, m - s), min(s, m - s)) for s in bits(sums & ((1 << m) - 2))}


def tree_lower_bound_partitions(T):
    """Distinct-size connected 2-edge-partitions of a tree via the equal-split
    (Case I) or oriented-sink (Case II) construction; count >= t(n) - 2.

    Both cases pick a chunk, a subtree that meets the rest of the tree only
    at its root v, and run the split sequence inside it.  Since v lies in
    every B, a split (A, B) gives [E(A), E(rest + B)]."""
    G = T.graph
    n = G.n
    if n < 2:
        return []
    full = G.full_vertex_mask()
    sz = _subtree_sizes(T.order, T.parent)

    # Case I: an edge whose removal splits the tree into equal halves; the
    # root's subtree holds all n vertices, so one of n/2 hangs below an edge
    if n % 2 == 0 and n // 2 in sz:
        half_vertex = sz.index(n // 2)
        # the subtree below half_vertex is all it reaches without its parent
        above = 1 << T.parent[half_vertex]
        sub_mask = closure(G.neighbor_masks, half_vertex, full & ~above)
        return _split_rows(G, G.neighbor_masks, full, G.full_edge_mask(), sub_mask, half_vertex, 2)

    # Case II: no edge halves the tree, so its centroid is the unique vertex
    # whose branches all hold fewer than n/2 vertices
    sink = _centroid(T.order, T.parent, sz)
    pref = _chunk_prefix(largest_first(components(G, removed=1 << sink)), n)
    # whichever of the prefix/suffix sides stays at or below ceil(n/2) becomes
    # the chunk; a prefix of one component always does, as it holds < n/2
    if 2 * pref.bit_count() < n:
        tmask = pref | (1 << sink)
    else:
        tmask = full & ~pref  # the other components and the sink
    if 3 * tmask.bit_count() < n - 1:
        raise ConstructionFailedError("Case II chunk too small")
    return _split_rows(G, G.neighbor_masks, full, G.full_edge_mask(), tmask, sink, 2)
