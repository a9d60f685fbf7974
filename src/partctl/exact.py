"""Exact oracles: connected edge/vertex partition profiles, connected r-partite
maximum cuts, and small-scale connected partitions with prescribed sizes.

A set of edges is connected exactly when it is a connected set of vertices of
the line graph L(G), so ``P(G, k) = pi(L(G), k)``: both profiles come from one
enumerator, ``_connected_partitions``, run over an adjacency tuple (per-element
neighbor bitmasks).  P runs it over ``G.edge_adjacency()``, pi over
``G.neighbor_masks``; with no ``open_part`` it is the unpruned scan.

The enumerator grows each connected part by its boundary and forbids every
element it has rejected, so each connected set is visited exactly once.  Part
1 of any partition is anchored at the lowest-id unused element, which kills
the k! permutation symmetry.  Each part starts with the elements of ``rem``
(the elements not in a closed part) that its anchor cannot reach already
rejected.  It could never add them, as it grows only by neighbours inside
``rem``, so no child and no leaf changes; they only count as rejected in the
component test below.

A search node growing part j of k can be finished only if the residual
``comp`` (the unused elements outside the growing part S) splits into at most
k - j connected components.  A rejected element never joins S, so it stays in
the residual of every descendant; once rejected elements lie in more than
k - j components the node is dead, and with the unreachable elements rejected
this fires as soon as the residual holds too many components S cannot reach.
Neither test needs the full decomposition: ``_count_components`` first closes
the components that hold a rejected element, stopping as soon as there are
too many, then counts the others only up to k - j + 1.  A dead node holds no
leaf, so the leaves and their order are those of a full decomposition.

The sibling cut drops the later children of a node at once, in ``cmc``'s copy
of the search too.  Child i adds b_i to S and inherits ``forb`` plus b_1 ..
b_{i-1} as rejected.  Its residual is ``comp`` less b_i, so two elements in
different components of ``comp`` lie in different components of it as well:
once the rejected elements meet more than k - j components of ``comp``, child
i fails its component test, and so does every later sibling, as its rejected
set only grows.  The loop over the children adds the closure in ``comp`` of
each b_i outside the components it knows to hold a rejected element, and
returns once there are more than k - j of them.  It tracks them only when
``comp`` has more than k - j components, as otherwise the cut cannot fire.
The children it drops are dead, so no leaf, witness or first maximum changes.

A profile search drops a subtree once every key it can reach is witnessed.
At a node growing part j, the sizes c of the closed parts 1..j-1 are fixed.
Its own leaf or ``descend`` ends part j as S, its children as a connected S'
that strictly contains S, and the parts_left parts still to open split the
other |rem| - |S'| elements.  So every key below the node is the sorted
c + (s,) + p for s = |S'| and an integer partition p of |rem| - s into
parts_left positive parts; size s is *wanted* while one of these keys is not
in the profile, which needs s <= |rem| - parts_left.  When ``descend`` opens
part j, ``open_part(c)`` returns the wanted sizes as bits of an int in a
one-element list that the caller keeps live: it clears bit s once every key
of (c, s) is recorded.  The profile only grows, so the wanted set only
shrinks.  Every node of part j reads the bits inline, with no call:

- At entry, before the component count: the node's own leaf or ``descend``
  has size |S|, and each child ends part j with at most |S| plus the
  unrejected elements of ``comp``.  When no size in that range is wanted the
  node returns at once; once the profile is full, every node does.
- At the node's own leaf or ``descend``: it ends part j with |S| elements,
  so it runs only while |S| is wanted.
- After the leaf or ``descend``: s is the least wanted size in a range lo..hi
  that holds all the sizes S' can reach, and the children are dropped when
  there is none.  hi is |S| plus the unrejected elements of ``comp``, and:
  - Reach: S' grows from S by elements it has not rejected, so it lies in R,
    the closure of the anchor in ``rem`` minus the rejected elements, and
    s <= |R|.  R costs a closure, so it is computed only when s exceeds
    |S| + |avail|: avail, the neighbours of S a child may add, lies in R.
  - Held components: a rejected element ends in a later part, and a later
    part is connected, so it lies inside one component of ``comp``.  When the
    components that hold a rejected element number exactly parts_left, each
    of them holds one later part and no later part lies elsewhere, so S'
    takes every other component and lo = |S| + |comp outside them|.
    ``_count_components`` has closed these components already and returns
    their union.
- In the child loop: each child rejects one more element than the one
  before, so hi drops by one per child, and the loop ends once s > hi.  No
  later child can reach s, and no size below s is wanted any more.

Each test drops only subtrees whose keys are all in the profile or that no
leaf of the subtree reaches, so it is admissible at every level and for
every k; for k=2 it is a range of part-1 sizes.  ``_profile`` keeps, for each
(c, s), a scan over its keys that stops at the first one not yet recorded
and waits on it; when a leaf records that key the scan goes on, and bit s is
cleared when it runs out.  So each key of each (c, s) is looked up once.

Without seeds every witness is the first partition with its key in
enumeration order, as in the unpruned scan: a key enters the profile only at
a leaf, so a subtree dropped because its keys are all recorded holds no first
occurrence, and the bounds above only leave out sizes no leaf of the subtree
has.  The edge search at k=2 is seeded before it starts with the
paper's split family, ``recursive_k_partitions(G, 2)``: the split sequence of
the BFS spanning tree at root 0.  On ladders and twin cliques it witnesses the
balanced keys that the enumeration would reach only in its last branch, so
the skip fires early.  The keys it misses are seeded by the cuts of two BFS
orders of L(G), from edge 0 and then from the last edge of the first (a
double sweep).  A BFS prefix is connected, as each later edge was found from
an earlier one that shares an endpoint with it; one closure checks the
suffix, run only for a cut whose key no seed has yet.  The profile stays
exact: every seed is a connected partition, so it adds only true keys.  Seeds
change which partition witnesses a seeded key, so k >= 3 is not seeded.

A prescribed-size query, ``prescribed_partition``, is the same search over a
vertex mask with one wanted key, the sorted sizes.  Its ``open_part`` returns
the sizes the target still holds once the closed sizes are taken out of it.
A node closes part j, by its leaf or ``descend``, only while bit |S| is set,
so every closed size tuple fits the target and the last part's size is the
one the target has left: every leaf has the target key, and the first one
stops the search.  That leaf is the key's first occurrence in enumeration
order, for the reason above: the search is not seeded, and a dropped subtree
holds no leaf with the key.

``cmc`` keeps its own copy of the search, as a branch-and-bound, and starts
each part with the unreachable elements rejected too.  It carries
the cut down the recursion instead of recounting it at each leaf:
``committed`` is the cut of the closed parts, ``bdry`` the number of edges
from S (the growing part) to the rest of ``rem`` (the vertices not in a closed
part).  Adding v to S changes ``bdry`` by ``|N(v) & rest| - |N(v) & S|``,
and a leaf's cut is ``committed + bdry``.  A node is pruned when its bound

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
first maximum in the order of the unpruned scan, as for an exhaustive scan:
until that partition is reached the incumbent is below the maximum, so the
subtrees on its path, whose bounds are at least the maximum, are never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import ascending_compositions
from .errors import (
    DisconnectedError,
    NotBiconnectedError,
    SizeMismatchError,
    TooLargeError,
    TooSmallError,
)
from .graph import (
    bfs_tree,
    closure,
    induced_edge_sets,
    is_connected,
    is_connected_vertex_set,
    is_partition,
    st_split,
)
from .splits import profile_of, recursive_k_partitions

DEFAULT_EDGE_BUDGET = {2: 40, 3: 20, 4: 16}
DEFAULT_VERTEX_BUDGET = {2: 24, 3: 18, 4: 14}
FALLBACK_BUDGET = 12  # edges or vertices, for a k or r missing from its table
PRESCRIBED_VERTEX_BUDGET = 16  # prescribed-size searches run up to this n


@dataclass
class ProfileResult:
    """Exact size profile plus one stored witness partition per tuple."""

    profile: set = field(default_factory=set)
    witnesses: dict = field(default_factory=dict)

    @property
    def value(self):
        return len(self.profile)

    def record(self, parts):
        key = profile_of(parts)
        if key not in self.profile:
            self.profile.add(key)
            self.witnesses[key] = list(parts)
            return key


@dataclass
class CutWitness:
    parts: list  # vertex bitmasks
    cut_size: int


def cut_size(G, parts):
    """Edges between different parts of a vertex partition: m less each |E(p)|."""
    return G.m - sum(e.bit_count() for e, _ in induced_edge_sets(G, parts))


def _count_components(adj, comp, forb, limit):
    """Connected components of ``comp``, counted no further than ``limit + 1``,
    as ``(count, nheld, held)``: ``held`` is the union of the ``nheld``
    components that hold an element of ``forb`` (a subset of ``comp``).
    ``count`` is -1 when more than ``limit`` components hold one."""
    count = 0
    held = 0
    while forb:
        count += 1
        if count > limit:
            return -1, 0, 0
        c = closure(adj, (forb & -forb).bit_length() - 1, comp)
        held |= c
        comp &= ~c
        forb &= ~c
    nheld = count
    while comp:
        count += 1
        if count > limit:
            break
        comp &= ~closure(adj, (comp & -comp).bit_length() - 1, comp)
    return count, nheld, held


def _connected_partitions(adj, mask, k, leaf, open_part=lambda closed: [-1]):
    """Call ``leaf(parts)`` once for every partition of the elements of the
    bitmask ``mask`` into k >= 2 parts that are each connected along ``adj``.

    When ``descend`` opens part j, it calls ``open_part(closed)`` once, with
    the descending tuple of the sizes of parts 1..j-1.  The call returns a
    one-element list whose int has bit s set while some key
    ``closed + (s,) + p`` is still wanted; the caller keeps it live, clearing
    bits as those keys are recorded.  The nodes of part j test these bits
    inline: at entry, before the component count, before and after their
    leaf or ``descend``, and in the child loop (module docstring), and drop
    what can end part j only with sizes no longer wanted.  With no
    ``open_part`` every size is wanted.
    """

    def grow(rem, acc, want, parts_left, S, cand, forb):
        comp = rem & ~S
        ssz = S.bit_count()
        hi = ssz + (comp & ~forb).bit_count()
        # this node's leaf or descend ends part j with ssz elements, each child
        # with ssz + 1 .. hi
        if not want[0] >> ssz & (2 << hi - ssz) - 1:
            return
        count, nheld, held = _count_components(adj, comp, forb, parts_left)
        if count < 0:
            return
        if comp and count <= parts_left and want[0] >> ssz & 1:
            if parts_left == 1:
                leaf(acc + [S, comp])
            else:
                descend(comp, acc + [S])
        avail = cand & ~forb & comp
        if not avail:
            return
        # every later part lies in a held component: part j takes the rest
        lo = ssz + max(1, (comp & ~held).bit_count()) if nheld == parts_left else ssz + 1
        w = want[0] >> lo & (2 << hi - lo) - 1  # read after the leaf or descend
        s = lo + (w & -w).bit_length() - 1  # the least size still wanted
        # part j ends inside its reach, which holds at least S and avail
        if not w or (s > ssz + avail.bit_count() and
                     s > closure(adj, (S & -S).bit_length() - 1, rem & ~forb).bit_count()):
            return
        f = forb
        track = count > parts_left  # the sibling cut (module docstring) can fire
        # child i ends part j with at most hi elements, and hi drops by one per
        # child; the wanted sizes only shrink, so once s > hi no later child
        # can add a key
        while avail and s <= hi:
            b = avail & -avail
            grow(rem, acc, want, parts_left, S | b, cand | adj[b.bit_length() - 1], f)
            avail ^= b
            f |= b
            hi -= 1
            if track and not b & held:
                nheld += 1
                if nheld > parts_left:
                    return
                held |= closure(adj, b.bit_length() - 1, comp)

    def descend(rem, acc):
        anchor = rem & -rem
        a = anchor.bit_length() - 1
        # the elements the anchor cannot reach start out rejected
        grow(rem, acc, open_part(profile_of(acc)), k - 1 - len(acc), anchor, adj[a] & rem,
             rem & ~closure(adj, a, rem))

    descend(mask, [])


def _profile(adj, size, k, seeds):
    """Profile of the connected k-partitions of 0..size-1 along ``adj``,
    after recording ``seeds``, partitions known to be connected."""
    result = ProfileResult()
    for parts in seeds:
        result.record(parts)
    if not 2 <= k <= size:
        return result
    states = {}  # closed -> [bits of the sizes s whose keys are not all recorded]
    waiting = {}  # an unrecorded key -> the (closed, s, key scan) stopped at it

    def keys_of(head, later):
        for a in ascending_compositions(size - sum(head) - later, later):
            yield tuple(sorted(head + tuple(1 + x for x in a), reverse=True))

    def scan(closed, s, keys):
        # stop at the next unrecorded key of (closed, s), or clear bit s
        for key in keys:
            if key not in result.profile:
                waiting.setdefault(key, []).append((closed, s, keys))
                return
        states[closed][0] ^= 1 << s

    def open_part(closed):
        if closed not in states:
            later = k - len(closed) - 1
            cap = size - sum(closed) - later
            states[closed] = [(2 << cap) - 2]
            for s in range(1, cap + 1):
                scan(closed, s, keys_of(closed + (s,), later))
        return states[closed]

    def leaf(parts):
        for closed, s, keys in waiting.pop(result.record(parts), ()):
            scan(closed, s, keys)

    _connected_partitions(adj, (1 << size) - 1, k, leaf, open_part)
    return result


def edge_partition_profile(G, k, max_edges=None):
    """Exact set of canonical size k-tuples of connected edge partitions.

    P(G, k) is the size of the returned profile.  Graphs with fewer than k
    edges get an empty profile.
    """
    if not is_connected(G):
        raise DisconnectedError("edge partition profile needs a connected graph")
    if k == 1 and G.m:
        return _profile(None, G.m, 1, [[G.full_edge_mask()]])
    budget = (DEFAULT_EDGE_BUDGET.get(k, FALLBACK_BUDGET)
              if max_edges is None else max_edges)
    if G.m > budget:
        raise TooLargeError(f"m={G.m} exceeds budget {budget} for k={k}")
    seeds = _k2_edge_seeds(G) if k == 2 and G.m >= 2 else ()
    return _profile(G.edge_adjacency(), G.m, k, seeds)


def _k2_edge_seeds(G):
    """The split family plus the line-graph BFS cuts it lacks (module docstring)."""
    adj, full, m = G.edge_adjacency(), G.full_edge_mask(), G.m
    seeds = recursive_k_partitions(G, 2)
    keys = {profile_of(parts) for parts in seeds}
    order = [0]  # the first order starts at edge 0, the second where it ends
    for _ in range(2):
        order = bfs_tree(adj, order[-1], full)[0]
        rest = full
        for i, e in enumerate(order[:-1], 1):
            rest ^= 1 << e
            key = (max(i, m - i), min(i, m - i))
            if key not in keys and closure(adj, order[-1], rest) == rest:
                keys.add(key)
                seeds.append([full ^ rest, rest])
    return seeds


def vertex_partition_profile(G, k, max_vertices=None):
    """Exact profile of connected vertex partitions; pi(G, k) is its size."""
    if not is_connected(G):
        raise DisconnectedError("vertex partition profile needs a connected graph")
    if k == 1:
        return _profile(None, G.n, 1, [[G.full_vertex_mask()]])
    budget = (DEFAULT_VERTEX_BUDGET.get(k, FALLBACK_BUDGET)
              if max_vertices is None else max_vertices)
    if G.n > budget:
        raise TooLargeError(f"n={G.n} exceeds budget {budget} for k={k}")
    return _profile(G.neighbor_masks, G.n, k, ())


def cmc(G, r=2, max_vertices=None):
    """Connected r-partite maximum cut with a witness partition.

    Raises ``TooSmallError`` when r < 1 or G has fewer than r vertices."""
    if not is_connected(G):
        raise DisconnectedError("cmc needs a connected graph")
    if r < 1:
        raise TooSmallError(f"r={r} must be at least 1")
    if r == 1:
        return CutWitness([G.full_vertex_mask()], 0)
    budget = (DEFAULT_VERTEX_BUDGET.get(r, FALLBACK_BUDGET)
              if max_vertices is None else max_vertices)
    if G.n > budget:
        raise TooLargeError(f"n={G.n} exceeds budget {budget} for r={r}")
    if G.n < r:
        raise TooSmallError(f"cannot split {G.n} vertices into {r} connected parts")
    nbr = G.neighbor_masks
    best = -1
    witness = None

    # committed: cut of the closed parts; bdry: edges from S to rem & ~S;
    # ub: the cut bound of this node (see the module docstring)
    def grow(rem, acc, j, S, cand, forb, committed, bdry, ub):
        nonlocal best, witness
        comp = rem & ~S
        parts_left = r - j
        count, nheld, held = _count_components(nbr, comp, forb, parts_left)
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
        track = count > parts_left
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
            if track and not b & held:
                nheld += 1
                if nheld > parts_left:
                    return
                held |= closure(nbr, b.bit_length() - 1, comp)

    def descend(rem, acc, j, committed, ub):
        anchor = rem & -rem
        a = anchor.bit_length() - 1
        nv = nbr[a]
        grow(rem, acc, j, anchor, nv & rem, rem & ~closure(nbr, a, rem), committed,
             (nv & rem).bit_count(), ub)

    descend(G.full_vertex_mask(), [], 1, 0, G.m - G.n + r)
    return CutWitness(witness, best)


def validate_vertex_partition(G, parts, k=None):
    """True iff ``parts`` (k of them if k is given) partition V(G) into connected sets."""
    if k is not None and len(parts) != k:
        return False
    return (is_partition(parts, G.full_vertex_mask())
            and all(is_connected_vertex_set(G, p) for p in parts))


def gyori_lovasz(G, sizes):
    """A connected vertex partition with the given part sizes, or None.

    For k=2 on a 2-connected graph the st-numbering prefix construction
    (``st_split``, as in the r=2 cut bound) always succeeds; otherwise an
    exhaustive search runs (n <= PRESCRIBED_VERTEX_BUDGET).
    """
    sizes = list(sizes)
    if sum(sizes) != G.n or any(s < 1 for s in sizes):
        raise SizeMismatchError(f"sizes {sizes} do not sum to n={G.n}")
    if len(sizes) == 2:
        try:  # st_split checks 2-connectivity itself
            return st_split(G, G.full_vertex_mask(), sizes[0])
        except NotBiconnectedError:
            pass
    if G.n > PRESCRIBED_VERTEX_BUDGET:
        raise TooLargeError(f"n={G.n} exceeds search budget {PRESCRIBED_VERTEX_BUDGET}")
    return prescribed_partition(G, sizes, G.full_vertex_mask())


class _Found(Exception):
    """Ends a prescribed-size search at its first matching leaf."""


def prescribed_partition(G, sizes, mask):
    """A partition of the vertex bitmask ``mask`` into connected parts of the
    given sizes (each >= 1, summing to its size), listed in the order of
    ``sizes``, or None.  The partition is the first with these sizes in the
    order of the unpruned scan: the profile search with this one key wanted."""
    k = len(sizes)
    if k == 1:
        return [mask] if is_connected_vertex_set(G, mask) else None
    target = tuple(sorted(sizes, reverse=True))

    def open_part(closed):
        # the sizes the target still holds once the closed sizes are taken out;
        # a part closes only with a wanted size, so each closed size is in it
        rest = list(target)
        for c in closed:
            rest.remove(c)
        return [sum(1 << s for s in set(rest))]

    def leaf(parts):
        # the closed sizes fit the target and the last size is wanted, so it
        # is the one size the target has left: every leaf has the target key
        raise _Found(parts)

    try:
        _connected_partitions(G.neighbor_masks, mask, k, leaf, open_part)
    except _Found as found:
        pool = found.args[0]
        return [pool.pop(next(i for i, p in enumerate(pool) if p.bit_count() == s))
                for s in sizes]
    return None
