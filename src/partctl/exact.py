"""Exact oracles: connected edge/vertex partition profiles, connected r-partite
maximum cuts, and small-scale connected partitions with prescribed sizes.

All solvers enumerate connected sets with the standard grow-by-boundary,
forbid-rejected scheme, so each connected set is visited exactly once.  Part 1
of any partition is anchored at the lowest-id unused element, which kills the
k! permutation symmetry.

A search node growing part j of k can be finished only if the residual (the
unused elements outside the growing part) splits into at most k - j connected
components.  A rejected element never joins the growing part, so it stays in
the residual of every descendant; once rejected elements lie in more than k - j
components the node is dead.  Neither test needs the full decomposition:
``_count_components`` first closes the components that hold a rejected element,
stopping as soon as there are too many, then counts the others only up to
k - j + 1.  The nodes visited, and their order, are those of a full
decomposition.

For k=2 profiles a branch whose whole range of part-1 sizes is already
witnessed is skipped.  The edge search is seeded before it starts with the
paper's split family, ``recursive_k_partitions(G, 2)``: the split sequence of
the BFS spanning tree at root 0.  On ladders and twin cliques it witnesses the
balanced keys that the enumeration would reach only in its last branch, so the
skip fires early.  The profile stays exact: every seed is a connected
partition, so it adds only true keys, and the skip drops only subtrees whose
every reachable key is already recorded.

``cmc`` is a branch-and-bound over the same search.  It carries the cut down
the recursion instead of recounting it at each leaf: ``committed`` is the cut
of the closed parts, ``bdry`` the number of edges from S (the growing part) to
the rest of ``rem`` (the vertices not in a closed part).  Adding v to S
changes ``bdry`` by ``|N(v) & rest| - |N(v) & S|``, and a leaf's cut is
``committed + bdry``.  A node is pruned when its bound

    committed + E(rem) - E(S) - (|rem| - |S| - parts_left)

is at most the best cut found, where E(X) counts the edges inside X and
parts_left is the number of parts still to open after S.  The bound is
admissible: the final part S' grows from S by adding one vertex at a time, and
each added vertex brings at least one edge inside S'; each of the parts_left
later parts is connected, so it holds at least its size minus one edges.
Together at least ``|rem| - |S| - parts_left`` edges of ``rem`` beyond E(S)
end up inside a part, and the rest of E(rem) is at most the cut still to come.
The bound needs no graph work: it starts at ``m - n + r``, adding v lowers it
by ``|N(v) & S| - 1``, and closing S leaves it unchanged.

The incumbent is replaced only by a strictly larger cut.  A pruned subtree
holds no cut above the incumbent, so it holds nothing that would replace it,
and pruning at equality is as exact as pruning below.  The witness is the
first maximum in the order of ``iter_connected_vertex_partitions``, as for an
exhaustive scan: until that partition is reached the incumbent is below the
maximum, so the subtrees on its path, whose bounds are at least the maximum,
are never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DisconnectedError,
    SizeMismatchError,
    TooLargeError,
    TooSmallError,
)
from .graph import bits, is_biconnected, is_connected, st_numbering
from .splits import recursive_k_partitions

DEFAULT_EDGE_BUDGET = {2: 40, 3: 20, 4: 16}
DEFAULT_VERTEX_BUDGET = {2: 24, 3: 18, 4: 14}
FALLBACK_EDGE_BUDGET = 12
FALLBACK_VERTEX_BUDGET = 12


@dataclass
class ProfileResult:
    """Exact size profile plus one stored witness partition per tuple."""

    profile: set = field(default_factory=set)
    witnesses: dict = field(default_factory=dict)

    @property
    def value(self):
        return len(self.profile)

    def record(self, parts):
        key = tuple(sorted((p.bit_count() for p in parts), reverse=True))
        if key not in self.profile:
            self.profile.add(key)
            self.witnesses[key] = list(parts)


@dataclass
class CutWitness:
    parts: list  # vertex bitmasks
    cut_size: int


def cut_size(G, parts):
    """Number of edges whose endpoints land in different parts."""
    where = {}
    for i, p in enumerate(parts):
        for v in bits(p):
            where[v] = i
    return sum(1 for u, v in G.edges if where[u] != where[v])


def _closure(adj, start, mask):
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


def _count_components(adj, comp, forb, limit):
    """Number of connected components of ``comp``, counted no further than
    ``limit + 1``, or -1 when more than ``limit`` of them hold an element of
    ``forb`` (a subset of ``comp``)."""
    count = 0
    while forb:
        count += 1
        if count > limit:
            return -1
        c = _closure(adj, (forb & -forb).bit_length() - 1, comp)
        comp &= ~c
        forb &= ~c
    while comp:
        count += 1
        if count > limit:
            break
        comp &= ~_closure(adj, (comp & -comp).bit_length() - 1, comp)
    return count


def _neighbor_masks(G):
    return tuple(map(G.neighbor_mask, range(G.n)))


def edge_partition_profile(G, k, max_edges=None):
    """Exact set of canonical size k-tuples of connected edge partitions.

    P(G, k) is the size of the returned profile.  Graphs with fewer than k
    edges get an empty profile.
    """
    if not is_connected(G):
        raise DisconnectedError("edge partition profile needs a connected graph")
    result = ProfileResult()
    if k == 1 and G.m:
        result.record([G.full_edge_mask()])
        return result
    budget = max_edges or DEFAULT_EDGE_BUDGET.get(k, FALLBACK_EDGE_BUDGET)
    if G.m > budget:
        raise TooLargeError(f"m={G.m} exceeds budget {budget} for k={k}")
    m = G.m
    if m < k:
        return result
    ea = G.edge_adjacency()
    if k == 2:
        for parts in recursive_k_partitions(G, 2):
            result.record(parts)

    def all_sizes_taken(lo, hi):
        for s in range(lo, hi + 1):
            if (max(s, m - s), min(s, m - s)) not in result.profile:
                return False
        return True

    def grow(rem, acc, j, S, cand, forb):
        comp = rem & ~S
        parts_left = k - j
        count = _count_components(ea, comp, forb, parts_left)
        if count < 0:
            return
        if comp and count <= parts_left:
            if parts_left == 1:
                result.record(acc + [S, comp])
            else:
                descend(comp, acc + [S], j + 1)
        avail = cand & ~forb & comp
        if k == 2 and avail:
            # every descendant part-1 lies strictly between these sizes
            ssz = S.bit_count()
            hi = min(ssz + (comp & ~forb).bit_count(), m - 1)
            if all_sizes_taken(ssz + 1, hi):
                return
        f = forb
        while avail:
            b = avail & -avail
            e = b.bit_length() - 1
            grow(rem, acc, j, S | b, cand | ea[e], f)
            avail ^= b
            f |= b

    def descend(rem, acc, j):
        anchor = rem & -rem
        e = anchor.bit_length() - 1
        grow(rem, acc, j, anchor, ea[e] & rem, 0)

    descend(G.full_edge_mask(), [], 1)
    return result


def vertex_partition_profile(G, k, max_vertices=None):
    """Exact profile of connected vertex partitions; pi(G, k) is its size."""
    if not is_connected(G):
        raise DisconnectedError("vertex partition profile needs a connected graph")
    result = ProfileResult()
    if k == 1:
        result.record([G.full_vertex_mask()])
        return result
    budget = max_vertices or DEFAULT_VERTEX_BUDGET.get(k, FALLBACK_VERTEX_BUDGET)
    if G.n > budget:
        raise TooLargeError(f"n={G.n} exceeds budget {budget} for k={k}")
    n = G.n
    if n < k:
        return result
    nbr = _neighbor_masks(G)

    def all_sizes_taken(lo, hi):
        for s in range(lo, hi + 1):
            if (max(s, n - s), min(s, n - s)) not in result.profile:
                return False
        return True

    def grow(rem, acc, j, S, cand, forb):
        comp = rem & ~S
        parts_left = k - j
        count = _count_components(nbr, comp, forb, parts_left)
        if count < 0:
            return
        if comp and count <= parts_left:
            if parts_left == 1:
                result.record(acc + [S, comp])
            else:
                descend(comp, acc + [S], j + 1)
        avail = cand & ~forb & comp
        if k == 2 and avail:
            ssz = S.bit_count()
            hi = min(ssz + (comp & ~forb).bit_count(), n - 1)
            if all_sizes_taken(ssz + 1, hi):
                return
        f = forb
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            grow(rem, acc, j, S | b, cand | nbr[v], f)
            avail ^= b
            f |= b

    def descend(rem, acc, j):
        anchor = rem & -rem
        v = anchor.bit_length() - 1
        grow(rem, acc, j, anchor, nbr[v] & rem, 0)

    descend(G.full_vertex_mask(), [], 1)
    return result


def iter_connected_vertex_partitions(G, r):
    """Yield every connected vertex partition into r >= 2 parts exactly once
    (parts anchored at lowest unused vertex; no size-based pruning)."""
    nbr = _neighbor_masks(G)

    def grow(rem, acc, j, S, cand, forb):
        comp = rem & ~S
        parts_left = r - j
        count = _count_components(nbr, comp, forb, parts_left)
        if count < 0:
            return
        if comp and count <= parts_left:
            if parts_left == 1:
                yield acc + [S, comp]
            else:
                yield from descend(comp, acc + [S], j + 1)
        avail = cand & ~forb & comp
        f = forb
        while avail:
            b = avail & -avail
            v = b.bit_length() - 1
            yield from grow(rem, acc, j, S | b, cand | nbr[v], f)
            avail ^= b
            f |= b

    def descend(rem, acc, j):
        anchor = rem & -rem
        v = anchor.bit_length() - 1
        yield from grow(rem, acc, j, anchor, nbr[v] & rem, 0)

    return descend(G.full_vertex_mask(), [], 1)


def cmc(G, r=2, max_vertices=None):
    """Connected r-partite maximum cut with a witness partition.

    Raises ``TooSmallError`` when G has fewer than r vertices."""
    if not is_connected(G):
        raise DisconnectedError("cmc needs a connected graph")
    if r == 1:
        return CutWitness([G.full_vertex_mask()], 0)
    budget = max_vertices or DEFAULT_VERTEX_BUDGET.get(r, FALLBACK_VERTEX_BUDGET)
    if G.n > budget:
        raise TooLargeError(f"n={G.n} exceeds budget {budget} for r={r}")
    if G.n < r:
        raise TooSmallError(f"cannot split {G.n} vertices into {r} connected parts")
    nbr = _neighbor_masks(G)
    best = -1
    witness = None

    # committed: cut of the closed parts; bdry: edges from S to rem & ~S;
    # ub: the cut bound of this node (see the module docstring)
    def grow(rem, acc, j, S, cand, forb, committed, bdry, ub):
        nonlocal best, witness
        comp = rem & ~S
        parts_left = r - j
        count = _count_components(nbr, comp, forb, parts_left)
        if count < 0:
            return
        if comp and count <= parts_left:
            if parts_left == 1:
                cut = committed + bdry
                if cut > best:
                    best, witness = cut, acc + [S, comp]
            else:
                descend(comp, acc + [S], j + 1, committed + bdry, ub)
        avail = cand & ~forb & comp
        f = forb
        while avail:
            b = avail & -avail
            nv = nbr[b.bit_length() - 1]
            inner = (nv & S).bit_count()
            sub = ub + 1 - inner
            if sub > best:
                grow(rem, acc, j, S | b, cand | nv, f, committed,
                     bdry - inner + (nv & comp).bit_count(), sub)
            avail ^= b
            f |= b

    def descend(rem, acc, j, committed, ub):
        anchor = rem & -rem
        nv = nbr[anchor.bit_length() - 1]
        grow(rem, acc, j, anchor, nv & rem, 0, committed, (nv & rem).bit_count(), ub)

    descend(G.full_vertex_mask(), [], 1, 0, G.m - G.n + r)
    return CutWitness(witness, best)


def validate_vertex_partition(G, parts, k=None, sizes=None):
    if k is not None and len(parts) != k:
        return False
    if sizes is not None and sorted(p.bit_count() for p in parts) != sorted(sizes):
        return False
    nbr = _neighbor_masks(G)
    union = 0
    for p in parts:
        if p == 0 or (union & p):
            return False
        union |= p
        if _closure(nbr, (p & -p).bit_length() - 1, p) != p:
            return False
    return union == G.full_vertex_mask()


def gyori_lovasz(G, sizes, max_vertices=16):
    """A connected vertex partition with the given part sizes, or None.

    For k=2 on a 2-connected graph the st-numbering prefix construction
    always succeeds; otherwise an exhaustive search runs (n <= max_vertices).
    """
    sizes = list(sizes)
    if sum(sizes) != G.n or any(s < 1 for s in sizes):
        raise SizeMismatchError(f"sizes {sizes} do not sum to n={G.n}")
    k = len(sizes)
    if k == 1:
        return [G.full_vertex_mask()] if is_connected(G) else None
    if k == 2 and is_biconnected(G):
        order = st_numbering(G, 0, G.n - 1)
        a = 0
        for v in order[: sizes[0]]:
            a |= 1 << v
        return [a, G.full_vertex_mask() & ~a]
    if G.n > max_vertices:
        raise TooLargeError(f"n={G.n} exceeds search budget {max_vertices}")

    nbr = _neighbor_masks(G)

    def connected_sets_of_size(allowed, anchor_bit, s):
        """Connected-in-G subsets of `allowed` containing the anchor with
        exactly s vertices."""
        found = []
        v0 = anchor_bit.bit_length() - 1

        def grow(S, cand, forb):
            if S.bit_count() == s:
                found.append(S)
                return
            # every descendant of S stays inside this closure
            if _closure(nbr, v0, allowed & ~forb).bit_count() < s:
                return
            avail = cand & ~forb & allowed & ~S
            f = forb
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                grow(S | b, cand | nbr[v], f)
                avail ^= b
                f |= b

        grow(anchor_bit, nbr[v0], 0)
        return found

    def search(rem, remaining_sizes):
        if not remaining_sizes:
            return []
        anchor = rem & -rem
        for s in sorted(set(remaining_sizes)):
            rest = list(remaining_sizes)
            rest.remove(s)
            for S in connected_sets_of_size(rem, anchor, s):
                sub = search(rem & ~S, rest)
                if sub is not None:
                    return [S] + sub
        return None

    parts = search(G.full_vertex_mask(), sorted(sizes))
    if parts is None:
        return None
    # reorder the found parts to match the requested size order
    pool = list(parts)
    ordered = []
    for s in sizes:
        i = next(i for i, p in enumerate(pool) if p.bit_count() == s)
        ordered.append(pool.pop(i))
    return ordered
