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
    induced_edge_sets,
    is_connected,
    is_connected_edge_set,
    is_partition,
    largest_first,
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
    tree, sz = G.neighbor_masks, _subtree_sizes(T.order, T.parent)
    comps = _branches(tree, sz, G.full_vertex_mask(), T.root)
    return SplitSequence(T, _split_items(tree, sz, T.root, comps))


def _branches(tree, sz, mask, v):
    """The components of ``mask`` - v in ``largest_first`` order, for ``tree``
    the per-vertex tree-neighbor masks, ``sz`` the subtree sizes of one
    rooting of the whole tree, and ``mask`` v with some of its whole branches.

    A neighbor w of v is v's child when sz[w] < sz[v] and then heads a branch
    of sz[w] vertices; the branch through v's parent holds the rest of the
    mask.  Every branch but one largest is closed, and that one is what the
    others leave of ``mask`` - v.  A walk that steps into a largest branch at
    every level thus closes no more at a level than its mask holds beyond its
    root and the next level's mask: at most n - 1 vertices in all, each one
    once unless tied largest branches send the walk into one it closed.
    """
    rest = mask & ~(1 << v)
    heads = tree[v] & rest
    if not heads & heads - 1:  # one branch or none: the rest of the mask
        return [rest] if rest else []
    up, most = rest.bit_count(), 0
    h = heads
    while h:
        b = h & -h
        h ^= b
        s = sz[b.bit_length() - 1]
        if s > sz[v]:
            p = b
        else:
            up -= s
            if s > most:
                big, most = b, s
    if up > most:  # v's parent heads the largest branch
        big = p
    comps = []
    h = heads ^ big
    while h:
        b = h & -h
        h ^= b
        comps.append(closure(tree, b.bit_length() - 1, rest))
    comps.append(rest & ~sum(comps))  # the branches are disjoint
    return largest_first(comps)


def _split_items(tree, sz, v, comps):
    """The split items of the subtree made of v and ``comps``, its branches
    at v in ``largest_first`` order, for ``tree`` and ``sz`` as in
    ``_branches``; ids are those of ``tree``.

    At each level the branches of the current subtree at its root are peeled
    off one by one: the rest smallest first (ties by smallest contained
    vertex id), then the largest; the walk continues inside that largest
    branch, rooted at the root's neighbor there, with everything peeled so
    far in every B.  Each subtree the walk reaches is its root with whole
    branches of the tree, so ``_branches`` gives the next level's branches
    without closing a largest one: the walk closes at most n - 1 vertices,
    O(n) closure steps in all, where closing every branch at every level
    costs O(n) per level.
    """
    items = []
    ext = 0
    mask = sum(comps, 1 << v)  # the branches are disjoint
    while comps:
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
        comps = _branches(tree, sz, mask, v)
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
    sz[order[0]] = 1
    for v in order[:0:-1]:  # every vertex after its children, the root last
        s = sz[v] + 1
        sz[v] = s
        sz[parent[v]] += s
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
    sz = _subtree_sizes(order, parent)
    if k == 2:
        return _split_rows(G, tree, sz, vmask, emask, root, _branches(tree, sz, vmask, root), k)
    v = _centroid(order, parent, sz)
    return _split_rows(G, tree, sz, vmask, emask, v, _centroid_chunk(tree, sz, vmask, v), k)


def _split_rows(G, tree, sz, vmask, emask, v, comps, k):
    """The rows of ``_k_partitions(G, vmask, emask, k)`` from the split
    sequence of the chunk made of v and ``comps``, its branches at v in the
    tree ``tree`` with subtree sizes ``sz`` (as in ``_branches``): each
    split's B, with everything outside the chunk, holding at least k - 1 of
    the edges recurses with k - 1 parts, and the rest of ``emask`` is the
    first part."""
    items = _split_items(tree, sz, v, comps)
    ext = vmask & ~items[0][0]  # the first A is the whole chunk
    Bs = [ext | B for _, B, _ in items]
    out = []
    for B, (e2, _) in zip(Bs, induced_edge_sets(G, Bs)):
        e1 = emask & ~e2
        if e1 and e2.bit_count() >= k - 1:
            out.extend([e1, *row] for row in _k_partitions(G, B, e2, k - 1))
    return out


def _chunk_prefix(comps, n):
    """The length and vertex count of the shortest prefix of ``comps``, the
    branches of an n-vertex tree at one vertex in ``largest_first`` order,
    that holds at least (n - 1)/3 vertices.  Both chunk rules,
    ``_centroid_chunk``'s and Case II's, choose between it and the rest."""
    j = s = 0
    while 3 * s < n - 1:
        s += comps[j].bit_count()
        j += 1
    return j, s


def _centroid_chunk(tree, sz, mask, v):
    """The branches at its centroid v, largest first, of the chunk of the
    tree ``mask`` (``tree`` and ``sz`` as in ``_branches``) that
    ``recursive_k_partitions`` runs its split sequence in: the smaller of two
    branches, a largest branch that holds n/3 vertices, or else the
    ``_chunk_prefix`` side or the rest, whichever fits n/2."""
    n = mask.bit_count()
    comps = _branches(tree, sz, mask, v)
    if len(comps) == 2:
        return comps[1:]  # the smaller one
    if 3 * comps[0].bit_count() >= n:  # one branch holds n - 1 >= n/3 too
        return comps[:1]
    j, s = _chunk_prefix(comps, n)
    # prefer the prefix side; fall back to the rest if only it fits n/2
    if 2 * (s + 1) > n and 2 * (n - s) <= n:
        return comps[j:]
    return comps[:j]


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
    tree, full = G.neighbor_masks, G.full_vertex_mask()
    sz = _subtree_sizes(T.order, T.parent)

    # Case I: an edge whose removal splits the tree into equal halves; the
    # root's subtree holds all n vertices, so one of n/2 hangs below an edge
    if n % 2 == 0 and n // 2 in sz:
        v = sz.index(n // 2)
        # the branch through v's parent holds n/2 vertices, more than v's
        # children together, so it comes first: the chunk is v's subtree
        comps = _branches(tree, sz, full, v)[1:]
    else:
        # Case II: no edge halves the tree, so its centroid is the unique
        # vertex whose branches all hold fewer than n/2 vertices
        v = _centroid(T.order, T.parent, sz)
        comps = _branches(tree, sz, full, v)
        j, s = _chunk_prefix(comps, n)
        # whichever of the prefix/suffix sides stays at or below ceil(n/2)
        # becomes the chunk; a prefix of one branch always does, as it holds
        # < n/2
        if 2 * s < n:
            comps, size = comps[:j], s + 1
        else:
            comps, size = comps[j:], n - s  # the other branches and the sink
        if 3 * size < n - 1:
            raise ConstructionFailedError("Case II chunk too small")
    return _split_rows(G, tree, sz, full, G.full_edge_mask(), v, comps, 2)
