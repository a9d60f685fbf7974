"""Seeded cross-checks of the exact solvers against brute-force assignment.

The oracle assigns every element to one of k parts in every possible way and
keeps the assignments whose parts are all nonempty and connected.  It shares
no code with the solvers, so it checks the search, its prunes and the k=2
split seeding from outside.  The ``cmc`` branch-and-bound is also checked
against the unpruned scan ``scan_partitions``, whose first maximum fixes the
witness as well as the cut.  The edge profile is
checked against the vertex profile of the line graph, and the bitmask
connectivity primitives against a set-based BFS.
"""

import itertools
import random

from partctl import (
    Graph,
    cmc,
    components,
    connected_cut_bound,
    cut_size,
    edge_partition_profile,
    gyori_lovasz,
    is_connected_edge_set,
    is_connected_vertex_set,
    random_connected_graph,
    validate_edge_partition,
    validate_vertex_partition,
    vertex_partition_profile,
)
from partctl import exact
from partctl.exact import prescribed_partition
from partctl.graph import bits, closure


def _connected(adj, members):
    start = members[0]
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in members and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(members)


def brute_partitions(adj, k):
    """Every connected k-partition of the elements 0..len(adj)-1 under the
    adjacency lists ``adj``, once each (element 0 always in part 0)."""
    for rest in itertools.product(range(k), repeat=len(adj) - 1):
        parts = [[] for _ in range(k)]
        for x, j in enumerate((0,) + rest):
            parts[j].append(x)
        if all(parts) and all(_connected(adj, p) for p in parts):
            yield parts


def scan_partitions(G, r):
    """Every connected vertex partition into r >= 2 parts exactly once, in
    enumeration order: the search with no ``open_part``, so unpruned."""
    out = []
    exact._connected_partitions(G.neighbor_masks, G.full_vertex_mask(), r, out.append)
    return out


def vertex_adj(G):
    adj = [set() for _ in range(G.n)]
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edge_adj(G):
    return [
        {f for f, other in enumerate(G.edges) if f != e and set(other) & set(ends)}
        for e, ends in enumerate(G.edges)
    ]


def brute_profile(adj, k):
    return {
        tuple(sorted(map(len, parts), reverse=True))
        for parts in brute_partitions(adj, k)
    }


def key_of(parts):
    return tuple(sorted((p.bit_count() for p in parts), reverse=True))


def graphs(seed, count, max_n, max_m):
    """Seeded random connected graphs with n <= max_n and m <= max_m."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(3, max_n)
        m = rng.randint(n - 1, min(max_m, n * (n - 1) // 2))
        yield random_connected_graph(n, m, seed=seed * 1000 + i)


def sparse_graphs(seed, count, max_n):
    """Seeded random trees with n <= max_n plus 0-3 chords: their residuals
    fall apart, so the skip's held-component and reach bounds fire."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(3, max_n)
        chords = rng.randint(0, min(3, (n - 1) * (n - 2) // 2))
        yield random_connected_graph(n, n - 1 + chords, seed=seed * 1000 + i)


def check_profiles(G, solve, adj, validate, ks):
    for k in ks:
        res = solve(G, k)
        assert res.profile == brute_profile(adj, k), (G.edges, k)
        for key, parts in res.witnesses.items():
            assert validate(G, parts, k)
            assert key_of(parts) == key


def test_edge_profiles_match_brute_force():
    # the oracle tries k^(m-1) assignments, so k=4 runs on smaller graphs
    for inputs, ks in ((graphs(1, 40, 8, 10), (2, 3)), (graphs(11, 40, 7, 8), (4,)),
                       (sparse_graphs(21, 40, 8), (2, 3)), (sparse_graphs(22, 40, 6), (4,))):
        for G in inputs:
            check_profiles(G, edge_partition_profile, edge_adj(G), validate_edge_partition, ks)


def test_vertex_profiles_match_brute_force():
    for seed, max_n, max_m, ks in ((2, 8, 14, (2, 3)), (12, 7, 14, (4,))):
        for G in graphs(seed, 40, max_n, max_m):
            check_profiles(G, vertex_partition_profile, vertex_adj(G),
                           validate_vertex_partition, ks)


def test_cmc_matches_brute_force():
    for G in graphs(3, 40, 8, 14):
        adj = vertex_adj(G)
        for r in (2, 3):
            best = 0
            for parts in brute_partitions(adj, r):
                where = {v: j for j, p in enumerate(parts) for v in p}
                best = max(best, sum(where[u] != where[v] for u, v in G.edges))
            w = cmc(G, r)
            assert w.cut_size == best, (G.edges, r)
            assert validate_vertex_partition(G, w.parts, r)
            assert cut_size(G, w.parts) == w.cut_size


def test_cmc_matches_first_maximum_of_enumeration():
    # the branch-and-bound must return the cut and the witness of an
    # exhaustive scan: a bound one edge too eager changes one or the other
    for G in graphs(5, 60, 13, 24):
        for r in (2, 3, 4):
            if r > G.n:
                continue
            first = max(scan_partitions(G, r), key=lambda ps: cut_size(G, ps))
            w = cmc(G, r)
            assert (w.cut_size, w.parts) == (cut_size(G, first), first), (G.edges, r)


def dict_loop_cut_size(G, parts):
    """The cut as ``cut_size`` counted it before it took m - sum |E(p)|:
    a vertex-to-part dict, then one test per edge."""
    where = {}
    for i, p in enumerate(parts):
        for v in bits(p):
            where[v] = i
    return sum(1 for u, v in G.edges if where[u] != where[v])


def test_cut_size_matches_dict_loop():
    rng = random.Random(11)
    for G in graphs(11, 80, 30, 90):
        for r in (1, 2, 3, 5):
            # any vertex partition, connected or not, some parts empty
            parts = [0] * r
            for v in range(G.n):
                parts[rng.randrange(r)] |= 1 << v
            assert cut_size(G, parts) == dict_loop_cut_size(G, parts), (G.edges, parts)
            if r <= G.n:
                w = connected_cut_bound(G, r)
                assert w.cut_size == dict_loop_cut_size(G, w.parts), (G.edges, r)


def test_gyori_lovasz_matches_brute_force():
    for G in graphs(4, 40, 8, 11):
        adj = vertex_adj(G)
        for k in (2, 3):
            feasible = brute_profile(adj, k)
            for sizes in itertools.product(range(1, G.n), repeat=k):
                if sum(sizes) != G.n:
                    continue
                parts = gyori_lovasz(G, sizes)
                assert (parts is not None) == (tuple(sorted(sizes, reverse=True)) in feasible), (
                    G.edges,
                    sizes,
                )
                if parts is not None:
                    assert validate_vertex_partition(G, parts, k)
                    assert [p.bit_count() for p in parts] == list(sizes)


def in_order(parts, sizes):
    """``parts`` listed in the order of ``sizes``; equal sizes keep their order."""
    pool = list(parts)
    return [pool.pop([p.bit_count() for p in pool].index(s)) for s in sizes]


def test_prescribed_partition_is_the_first_occurrence():
    # a prescribed-size query is the profile search with one wanted key, so
    # its witness is the first partition with that key in enumeration order
    rng = random.Random(31)
    found = {True: 0, False: 0}
    for G in itertools.chain(graphs(9, 40, 12, 18), sparse_graphs(26, 40, 12)):
        for k in (2, 3, 4):
            if k > G.n:
                continue
            first = {}
            for parts in scan_partitions(G, k):
                first.setdefault(key_of(parts), parts)
            # near-equal sizes, which sparse graphs often cannot meet, and
            # random compositions of n
            tries = [[G.n // k + (i < G.n % k) for i in range(k)]]
            for _ in range(5):
                cuts = sorted(rng.sample(range(1, G.n), k - 1))
                tries.append([b - a for a, b in zip([0, *cuts], [*cuts, G.n])])
            for sizes in tries:
                want = first.get(tuple(sorted(sizes, reverse=True)))
                got = prescribed_partition(G, sizes, G.full_vertex_mask())
                found[want is not None] += 1
                assert got == (None if want is None else in_order(want, sizes)), (G.edges, sizes)
    assert min(found.values()) >= 50, found


def line_graph(G):
    """L(G) as a Graph: vertex e of L(G) is edge e of G."""
    ends = [set(e) for e in G.edges]
    return Graph(G.m, [(e, f) for f in range(G.m) for e in range(f) if ends[e] & ends[f]])


def test_edge_profile_is_vertex_profile_of_line_graph():
    # a connected edge set is a connected vertex set of L(G): P(G,k) = pi(L(G),k)
    for G in graphs(6, 40, 9, 12):
        L = line_graph(G)
        for k in (2, 3):
            P = edge_partition_profile(G, k).profile
            assert P == vertex_partition_profile(L, k).profile, (G.edges, k)


def test_witnesses_are_first_occurrences_of_the_unpruned_scan():
    # the skip drops only subtrees whose keys are all recorded, so without
    # seeds each witness is the first partition with its key in enumeration
    # order; P at k=2 is seeded, so only its profile is compared
    for G in itertools.chain(graphs(8, 40, 9, 12), sparse_graphs(23, 40, 9)):
        L = line_graph(G)
        for k in (2, 3, 4):
            pi, P = vertex_partition_profile(G, k), edge_partition_profile(G, k)
            for H, res in ((G, pi), (L, P)):
                first = {}
                for parts in scan_partitions(H, k) if k <= H.n else ():
                    first.setdefault(key_of(parts), parts)
                assert res.profile == first.keys(), (G.edges, H is L, k)
                if H is G or k > 2:
                    assert res.witnesses == first, (G.edges, H is L, k)


def unseeded_partitions(G, r):
    """The unpruned enumerator as it was before it started each part with the
    elements its anchor cannot reach already rejected."""
    adj = G.neighbor_masks
    out = []

    def count_components(comp, forb, limit):
        count = 0
        while forb:
            count += 1
            if count > limit:
                return -1
            c = closure(adj, (forb & -forb).bit_length() - 1, comp)
            comp &= ~c
            forb &= ~c
        while comp:
            count += 1
            if count > limit:
                break
            comp &= ~closure(adj, (comp & -comp).bit_length() - 1, comp)
        return count

    def grow(rem, acc, parts_left, S, cand, forb):
        comp = rem & ~S
        count = count_components(comp, forb, parts_left)
        if count < 0:
            return
        if comp and count <= parts_left:
            if parts_left == 1:
                out.append(acc + [S, comp])
            else:
                descend(comp, acc + [S])
        avail = cand & ~forb & comp
        f = forb
        while avail:
            b = avail & -avail
            grow(rem, acc, parts_left, S | b, cand | adj[b.bit_length() - 1], f)
            avail ^= b
            f |= b

    def descend(rem, acc):
        anchor = rem & -rem
        grow(rem, acc, r - 1 - len(acc), anchor, adj[anchor.bit_length() - 1] & rem, 0)

    descend(G.full_vertex_mask(), [])
    return out


def test_unreachable_seed_keeps_the_leaves_and_their_order():
    # rejecting up front what the anchor cannot reach, and the sibling cut,
    # prune only nodes whose residual already has too many components, which
    # hold no leaf
    for G in itertools.chain(sparse_graphs(24, 30, 11), graphs(25, 30, 11, 16)):
        for r in (2, 3, 4):
            if r <= G.n:
                assert scan_partitions(G, r) == unseeded_partitions(G, r), (
                    G.edges, r)


def members(mask):
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def test_connectivity_primitives_match_bfs():
    rng = random.Random(7)
    for G in graphs(7, 40, 10, 18):
        vadj, eadj = vertex_adj(G), edge_adj(G)
        for _ in range(20):
            S = rng.randrange(1, 1 << G.n)
            assert is_connected_vertex_set(G, S) == _connected(vadj, members(S)), (G.edges, S)
            F = rng.randrange(1, 1 << G.m)
            assert is_connected_edge_set(G, F) == _connected(eadj, members(F)), (G.edges, F)
            removed = rng.randrange(0, 1 << G.n)
            alive = G.full_vertex_mask() & ~removed
            comps = components(G, removed)
            assert comps == sorted(comps, key=lambda c: c & -c)
            assert sum(c.bit_count() for c in comps) == alive.bit_count()
            where = {}
            for i, c in enumerate(comps):
                assert c & alive == c and _connected(vadj, members(c)), (G.edges, removed)
                where.update((v, i) for v in members(c))
            assert len(where) == alive.bit_count()
            for u, v in G.edges:
                if u in where and v in where:
                    assert where[u] == where[v], (G.edges, removed)
