import itertools
import math
import random
from collections import deque

import pytest

from partctl import (
    Graph,
    bits,
    blocks,
    cmc,
    components,
    connected_cut_bound,
    count_partitions,
    dense_core,
    edge_partition_profile,
    long_path,
    mask_of,
    min_degree,
    ordered_vertex_partitions,
    packing_partitions,
    path_cut_partitions,
    random_connected_graph,
    random_tree,
    spanning_tree_packing,
    st_numbering,
    validate_edge_partition,
    validate_vertex_partition,
    vertex_partition_profile,
)
from partctl import bounds
from partctl.bounds import _leaf_peel
from partctl.errors import (
    ConstructionFailedError,
    PackingInfeasibleError,
    PartctlError,
    TooSmallError,
)
from partctl.exact import prescribed_partition
from partctl.graph import bfs_tree
from partctl.splits import profile_of


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(q):
    return Graph(q + 1, [(0, i) for i in range(1, q + 1)])


# ------------------------------------------------------------- dense core


def test_dense_core_complete():
    core = dense_core(complete(5))
    assert core.vertices == mask_of(range(5))
    assert core.min_degree == 4


def test_dense_core_path():
    core = dense_core(path(6))
    assert core.vertices == mask_of(range(6))  # threshold < 1 removes nothing


def _reference_peel(G):
    """The multi-pass peel: sweep every vertex, lowest id first, and peel
    those of degree < m/n until a sweep peels none; returns the survivors."""
    n, m = G.n, G.m
    alive = G.full_vertex_mask()
    deg = [G.degree(v) for v in range(n)]
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if (alive >> v) & 1 and deg[v] * n < m:
                alive &= ~(1 << v)
                for u in bits(G.neighbor_masks[v] & alive):
                    deg[u] -= 1
                changed = True
    return alive


def _reference_dense_core(G):
    """(vertex mask, min degree) of the largest component left by the
    multi-pass peel, the lowest-id one on ties."""
    comps = components(G, removed=G.full_vertex_mask() & ~_reference_peel(G))
    comps.sort(key=lambda c: (-c.bit_count(), (c & -c).bit_length()))
    core = comps[0]
    return core, min((G.neighbor_masks[v] & core).bit_count() for v in bits(core))


def test_dense_core_k4_with_pendant():
    G = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    core = dense_core(G)
    assert sorted(bits(core.vertices)) == [0, 1, 2, 3]
    assert (core.vertices, core.min_degree) == _reference_dense_core(G)
    assert core.min_degree == 3


def _seeded_core_graphs(rng, count):
    """Random connected graphs, and as many made of one or two dense random
    blobs with a random tree periphery, two blobs joined by a path through
    1-3 new vertices: their cores are proper, and a peel may leave both
    blobs as separate components."""
    for i in range(count):
        if i % 2 == 0:
            n = rng.randint(2, 40)
            yield random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=i)
            continue
        blobs = []
        for _ in range(rng.randint(1, 2)):
            nb = rng.randint(5, 12)
            blobs.append(random_connected_graph(nb, rng.randint(2 * nb, nb * (nb - 1) // 2), seed=i))
        edges, n = [], 0
        for blob in blobs:
            edges += [(u + n, v + n) for u, v in blob.edges]
            n += blob.n
        if len(blobs) == 2:
            end = rng.randrange(blobs[0].n)
            for _ in range(rng.randint(1, 3)):
                edges.append((end, n))
                end, n = n, n + 1
            edges.append((end, blobs[0].n + rng.randrange(blobs[1].n)))
        extra = rng.randint(0, 30)
        edges += [(rng.randrange(v), v) for v in range(n, n + extra)]
        yield Graph(n + extra, edges)


def test_dense_core_matches_multi_pass_reference():
    rng = random.Random(31)
    proper = split = 0
    for G in _seeded_core_graphs(rng, 1200):
        core = dense_core(G)
        want = _reference_dense_core(G)
        assert (core.vertices, core.min_degree) == want, G.edges
        # what lets connected_cut_bound split the core at r = 2 unguarded
        assert G.n < 2 or (core.size >= 2 and core.min_degree >= 1), G.edges
        proper += want[0] != G.full_vertex_mask()
        split += len(components(G, removed=G.full_vertex_mask() & ~_reference_peel(G))) > 1
    assert proper >= 600 and split >= 100, (proper, split)


def test_dense_core_guarantee_random():
    rng = random.Random(12)
    for i in range(40):
        n = rng.randint(3, 40)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=i)
        core = dense_core(G)
        # min degree of the core is at least half the average degree
        assert 2 * core.min_degree >= 2 * G.m / G.n - 1e-9


# -------------------------------------------------------------- long path


def test_long_path_cycle_and_complete():
    assert len(long_path(cycle(7), mask_of(range(7)))) == 7
    assert len(long_path(complete(4), mask_of(range(4)))) == 4


def test_long_path_star():
    p = long_path(star(4), mask_of(range(5)))
    assert len(p) == 3 >= min_degree(star(4)) + 1


def test_long_path_lower_bound_random():
    rng = random.Random(13)
    for i in range(30):
        n = rng.randint(2, 30)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=i)
        p = long_path(G, G.full_vertex_mask())
        assert len(p) >= min_degree(G) + 1
        assert len(set(p)) == len(p)
        for u, v in zip(p, p[1:]):
            assert (G.neighbor_masks[u] >> v) & 1


# --------------------------------------------------------------- path cut


def test_path_cut_c6():
    parts, rep = path_cut_partitions(cycle(6))
    for p in parts:
        assert validate_edge_partition(cycle(6), p, 2)
    assert rep.distinct_pairs >= -(-rep.m_cut // 2)


def test_path_cut_k6():
    parts, rep = path_cut_partitions(complete(6))
    assert rep.delta_core == 5
    assert rep.prefix_len == 3
    assert rep.m_cut >= 6  # ceil(delta^2/4)
    assert rep.distinct_pairs >= 3


def test_path_cut_tree_degenerate():
    parts, rep = path_cut_partitions(path(6))
    assert len(parts) >= 1
    for p in parts:
        assert validate_edge_partition(path(6), p, 2)


def test_path_cut_profiles_subset_of_exact():
    rng = random.Random(14)
    for i in range(20):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=i)
        parts, rep = path_cut_partitions(G)
        assert rep.emitted == len(parts)
        emitted = {profile_of(p) for p in parts}
        assert emitted <= edge_partition_profile(G, 2, max_edges=45).profile


# ---------------------------------------------------------------- packing


def nash_williams_feasible(G, k):
    """Reference: k spanning trees exist iff every vertex partition P has at
    least k*(|P|-1) crossing edges."""

    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in set_partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    if G.m < k * (G.n - 1):
        return False
    for blocks in set_partitions(list(range(G.n))):
        if len(blocks) == 1:
            continue
        where = {}
        for bi, b in enumerate(blocks):
            for v in b:
                where[v] = bi
        crossing = sum(1 for u, v in G.edges if where[u] != where[v])
        if crossing < k * (len(blocks) - 1):
            return False
    return True


def test_packing_k1_is_spanning_tree():
    G = cycle(5)
    packing = spanning_tree_packing(G, 1, G.full_vertex_mask())
    assert packing.trees[0].bit_count() == 4
    assert packing.leftover.bit_count() == 1


def test_packing_k4():
    packing = spanning_tree_packing(complete(4), 2, mask_of(range(4)))
    assert packing.leftover == 0
    assert all(t.bit_count() == 3 for t in packing.trees)


def test_packing_one_vertex_mask_gives_empty_trees():
    G = complete(4)
    for k in (1, 2, 3):
        packing = spanning_tree_packing(G, k, 1 << 2)
        assert packing.trees == [0] * k
        assert packing.leftover == 0


def test_packing_cycle_infeasible():
    for n in (3, 5, 8):
        with pytest.raises(PackingInfeasibleError) as exc:
            spanning_tree_packing(cycle(n), 2, mask_of(range(n)))
        assert len(exc.value.forests) == 2


def test_packing_matches_nash_williams():
    rng = random.Random(15)
    for i in range(25):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=i)
        for k in (1, 2, 3):
            want = nash_williams_feasible(G, k)
            try:
                packing = spanning_tree_packing(G, k, G.full_vertex_mask())
                got = True
                seen = 0
                for t in packing.trees:
                    assert seen & t == 0
                    seen |= t
            except PackingInfeasibleError:
                got = False
            assert got == want, (i, k)


def reference_packing(G, k):
    """The matroid-union augmentation with a BFS path query per forest, kept
    as a plain reference: the final forests and the leftover edge mask."""
    n, m = G.n, G.m
    owner = [-1] * m
    fadj = [[[] for _ in range(n)] for _ in range(k)]

    def forest_path(i, src, dst):
        prev = {src: (-1, -1)}
        q = deque([src])
        while q:
            x = q.popleft()
            if x == dst:
                path = []
                while x != src:
                    x, pe = prev[x]
                    path.append(pe)
                return path
            for y, eid in fadj[i][x]:
                if y not in prev:
                    prev[y] = (x, eid)
                    q.append(y)
        return None

    for e in range(m):
        prevE = {e: None}
        q = deque([e])
        found = None
        while q and found is None:
            f = q.popleft()
            for i in range(k):
                if owner[f] == i:
                    continue
                cyc = forest_path(i, *G.edges[f])
                if cyc is None:
                    found = (f, i)
                    break
                for h in cyc:
                    if h not in prevE:
                        prevE[h] = f
                        q.append(h)
        if found is None:
            continue
        f, i = found
        while f is not None:
            u, v = G.edges[f]
            j = owner[f]
            if j >= 0:
                fadj[j][u].remove((v, f))
                fadj[j][v].remove((u, f))
            owner[f] = i
            fadj[i][u].append((v, f))
            fadj[i][v].append((u, f))
            f, i = prevE[f], j
    trees = [sum(1 << e for e in range(m) if owner[e] == i) for i in range(k)]
    return trees, G.full_edge_mask() & ~sum(trees)


def _shuffled_packing_matches_reference(n, m, k, seed, rng):
    """Compare spanning_tree_packing with ``reference_packing`` on a random
    connected graph whose edge ids are shuffled, so that augmentations swap
    edges across forests.  Returns the reference's trees and leftover."""
    edges = list(random_connected_graph(n, m, seed=seed).edges)
    rng.shuffle(edges)
    G = Graph(n, edges)
    trees, leftover = reference_packing(G, k)
    if all(t.bit_count() == n - 1 for t in trees):
        packing = spanning_tree_packing(G, k, G.full_vertex_mask())
        assert (packing.trees, packing.leftover) == (trees, leftover), (n, m, k, seed)
    else:
        with pytest.raises(PackingInfeasibleError) as exc:
            spanning_tree_packing(G, k, G.full_vertex_mask())
        assert exc.value.forests == trees, (n, m, k, seed)
    return trees, leftover


def test_packing_matches_bfs_reference():
    rng = random.Random(61)
    outcomes = {True: 0, False: 0}
    for i in range(200):
        n = rng.randint(3, 30)
        k = rng.randint(1, 4)
        lo = max(n - 1, k * (n - 1) - 2)
        m = rng.randint(min(lo, n * (n - 1) // 2), min(k * (n - 1) + n // 2, n * (n - 1) // 2))
        trees, _ = _shuffled_packing_matches_reference(n, m, k, i, rng)
        outcomes[all(t.bit_count() == n - 1 for t in trees)] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_dense_packing_matches_bfs_reference():
    # m from k(n-1) + n to 4k(n-1): most edges come after the k trees span,
    # where the packing stops searching and leaves them over
    rng = random.Random(63)
    after = total = 0
    for i in range(40):
        k = rng.randint(1, 4)
        n = rng.randint(2 * k + 3, 20)
        top = n * (n - 1) // 2
        m = rng.randint(min(k * (n - 1) + n, top), min(4 * k * (n - 1), top))
        trees, leftover = _shuffled_packing_matches_reference(n, m, k, 1000 + i, rng)
        after += (leftover >> sum(trees).bit_length()).bit_count()
        total += m
    assert 3 * after > total, (after, total)


def test_packing_stops_searching_once_the_trees_span(monkeypatch):
    # one exchange search (one deque) per edge, up to the edge that
    # completes the k-th tree and no further
    started = []

    def counting_deque(items):
        started.extend(items)
        return deque(items)

    monkeypatch.setattr(bounds, "deque", counting_deque)
    G = complete(8)
    packing = spanning_tree_packing(G, 2, G.full_vertex_mask())
    last = sum(packing.trees).bit_length() - 1
    assert last < G.m - 1
    assert started == list(range(last + 1))


def test_packing_partitions_k5():
    parts, rep = packing_partitions(complete(5), 2)
    assert rep.leftover == 2
    profs = {profile_of(p) for p in parts}
    assert profs == {(6, 4), (5, 5)}
    assert len(parts) == count_partitions(2 + 2, 2) == 2
    exact = edge_partition_profile(complete(5), 2).profile
    assert profs <= exact


def test_packing_partitions_k4():
    parts, rep = packing_partitions(complete(4), 2)
    assert rep.leftover == 0
    assert {profile_of(p) for p in parts} == {(3, 3)}


def test_packing_infeasible_forests_in_input_ids():
    # K4 on {1..4} plus the pendant edge (0,1): the core is the K4, whose
    # 6 edges cannot hold 3 spanning trees of 3 edges each
    G = Graph(5, [(0, 1)] + [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    with pytest.raises(PackingInfeasibleError) as exc:
        packing_partitions(G, 3)
    core_edges = G.edge_set_of_vertices(dense_core(G).vertices)
    assert exc.value.forests
    for f in exc.value.forests:
        assert f & ~core_edges == 0, bin(f)


def test_packing_partitions_counts():
    rng = random.Random(16)
    done = 0
    i = 0
    while done < 8 and i < 200:
        i += 1
        n = rng.randint(4, 8)
        m = rng.randint(2 * (n - 1), n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=i)
        try:
            parts, rep = packing_partitions(G, 2)
        except PackingInfeasibleError:
            continue
        done += 1
        assert len(parts) == count_partitions(rep.leftover + 2, 2)
        for p in parts:
            assert validate_edge_partition(G, p, 2)
    assert done == 8


def cored(n, n_core, m_core, seed):
    """A dense random core on 0..n_core-1 plus a random tree periphery."""
    rng = random.Random(seed)
    core = random_connected_graph(n_core, m_core, seed=seed)
    return Graph(n, list(core.edges) + [(rng.randrange(v), v) for v in range(n_core, n)])


def test_certified_families_validate_in_full():
    # the packing and ordered families check a certificate once per call and
    # each partition only by masks; every partition must still pass the full
    # validators
    seen = {"packing": 0, "ordered": 0, "outside edges": 0, "outside comps": 0}
    for s in range(12):
        G = cored(24, 10, 30, s)
        hmask = dense_core(G).vertices
        seen["outside edges"] += G.full_edge_mask() != G.edge_set_of_vertices(hmask)
        for k in (2, 3):
            try:
                parts_list, rep = packing_partitions(G, k)
            except PackingInfeasibleError:
                continue
            assert len(parts_list) == count_partitions(rep.leftover + k, k)
            for parts in parts_list:
                assert validate_edge_partition(G, parts, k), (s, k)
            seen["packing"] += 1
        for k in (2, 3):
            parts_list, rep = ordered_vertex_partitions(G, k)
            assert parts_list and len(parts_list) == rep.succeeded
            for parts in parts_list:
                assert validate_vertex_partition(G, parts, k), (s, k)
            seen["ordered"] += 1
        seen["outside comps"] += len(bounds.components(G, removed=hmask)) > 1
    assert min(seen.values()) >= 10, seen


def k5_plus_edge():
    """K5 and a disjoint edge (5, 6): the dense core is the K5."""
    return Graph(7, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(5, 6)])


def test_packing_certificate_rejects_leftover_outside_core(monkeypatch):
    G = Graph(6, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(4, 5)])
    pendant = 1 << G.edges.index((4, 5))

    class LeakyPacking(bounds.TreePacking):
        def __init__(self, graph, vertices, trees, leftover):
            super().__init__(graph, vertices, trees, leftover | pendant)

    monkeypatch.setattr(bounds, "TreePacking", LeakyPacking)
    with pytest.raises(ConstructionFailedError, match="do not cover the edges"):
        packing_partitions(G, 2)


def test_packing_certificate_rejects_outside_edges_cut_off(monkeypatch):
    monkeypatch.setattr(bounds, "is_connected", lambda G: True)
    with pytest.raises(ConstructionFailedError, match="cut off from the last tree"):
        packing_partitions(k5_plus_edge(), 2)


def test_ordered_certificate_rejects_a_non_path(monkeypatch):
    real = bounds.long_path
    monkeypatch.setattr(bounds, "long_path", lambda G, mask: sorted(real(G, mask), key=lambda v: v % 2))
    with pytest.raises(ConstructionFailedError, match="long path skips"):
        ordered_vertex_partitions(cycle(8), 2)


def test_ordered_certificate_rejects_unattached_outside_component(monkeypatch):
    monkeypatch.setattr(bounds, "is_connected", lambda G: True)
    with pytest.raises(ConstructionFailedError, match="touches no part"):
        ordered_vertex_partitions(k5_plus_edge(), 3)


def test_path_cut_certificate_rejects_a_non_path(monkeypatch):
    # K4,4 has minimum degree 4, so the prefix is the path's first two
    # vertices; sorted, those are 0 and 1, on the same side
    G = Graph(8, [(i, j) for i in range(4) for j in range(4, 8)])
    real = bounds.long_path
    monkeypatch.setattr(bounds, "long_path", lambda G, mask: sorted(real(G, mask)))
    with pytest.raises(ConstructionFailedError, match="long path skips from 0 to 1"):
        path_cut_partitions(G)


def test_path_cut_certificate_rejects_an_unreached_outside_component(monkeypatch):
    monkeypatch.setattr(bounds, "is_connected", lambda G: True)
    with pytest.raises(ConstructionFailedError, match="outside component has no cut edge"):
        path_cut_partitions(k5_plus_edge())


def test_single_edge_split_needs_a_pendant_edge():
    with pytest.raises(ConstructionFailedError, match="no pendant edge"):
        bounds._single_edge_split(cycle(5))


def test_path_cut_falls_back_to_the_lowest_pendant_edge(monkeypatch):
    # the fallback scans pendant edges only: wherever it runs, G has one
    calls = []
    real = bounds._single_edge_split
    monkeypatch.setattr(bounds, "_single_edge_split", lambda G: calls.append(G) or real(G))
    corpus = _small_connected_graphs() + [random_tree(n, seed=s).graph
                                          for s, n in enumerate(range(2, 40))]
    for G in corpus:
        before = len(calls)
        parts, _ = path_cut_partitions(G)
        if len(calls) > before:
            e = min(ei for ei, (u, v) in enumerate(G.edges)
                    if min(G.neighbor_masks[u].bit_count(), G.neighbor_masks[v].bit_count()) == 1)
            assert parts == [[1 << e, G.full_edge_mask() & ~(1 << e)]], G.edges
    assert len(calls) >= 100, len(calls)


P4 = path(4)  # edges 0 = (0, 1), 1 = (1, 2), 2 = (2, 3)
# name -> (vertex parts, edge parts) of P4 that are not a partition
NOT_PARTITIONS = {
    "empty part": ([0, 0b1111], [0, 0b111]),
    "overlapping parts": ([0b0111, 0b1110], [0b011, 0b110]),
    "missing element": ([0b0011, 0b0100], [0b001, 0b100]),
    "bit at n or m": ([0b1111, 1 << 4], [0b111, 1 << 3]),
    "bit past n or m": ([0b1111, 1 << 7], [0b111, 1 << 7]),
}


@pytest.mark.parametrize("vparts, eparts", NOT_PARTITIONS.values(), ids=NOT_PARTITIONS)
def test_validators_and_cover_check_reject_a_non_partition(vparts, eparts):
    assert not validate_vertex_partition(P4, vparts, 2)
    assert not validate_edge_partition(P4, eparts, 2)
    for parts, full in ((vparts, P4.full_vertex_mask()), (eparts, P4.full_edge_mask())):
        with pytest.raises(ConstructionFailedError, match="not a partition"):
            bounds._check_cover(parts, full, "test partition")


def test_validators_reject_a_wrong_k_and_a_disconnected_part():
    assert validate_vertex_partition(P4, [0b0011, 0b1100], 2)
    assert validate_edge_partition(P4, [0b011, 0b100], 2)
    assert not validate_vertex_partition(P4, [0b0011, 0b1100], 3)
    assert not validate_edge_partition(P4, [0b011, 0b100], 3)
    assert not validate_vertex_partition(P4, [0b0101, 0b1010])
    assert not validate_edge_partition(P4, [0b101, 0b010])
    assert not validate_edge_partition(path(3), [0b11, 1 << 7])


def test_path_cut_and_ordered_certificates_hold_under_python_O(python_O_check):
    python_O_check("certificates")


# ------------------------------------------------------------- cut bounds


def test_cut_bound_k6():
    w = connected_cut_bound(complete(6), 2)
    assert sorted(p.bit_count() for p in w.parts) == [3, 3]
    assert w.cut_size == 9


def test_cut_bound_tree():
    for i in range(5):
        T = random_tree(8, seed=i)
        w = connected_cut_bound(T.graph, 2)
        assert w.cut_size == 1


def test_cut_bound_below_exact():
    rng = random.Random(17)
    for i in range(25):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=i)
        for r in (2, 3):
            w = connected_cut_bound(G, r)
            assert validate_vertex_partition(G, w.parts, r)
            assert w.cut_size <= cmc(G, r).cut_size


def test_cut_bound_rejects_a_witness_that_drops_the_outside(monkeypatch):
    # the core is the whole graph; at r = 2 the parts cover the triangle block,
    # and the pendant vertex 3 must be attached to one of them
    G = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    real = bounds._attach_by_table
    monkeypatch.setattr(bounds, "_attach_by_table", lambda table, parts, outside: real(table, parts, 0))
    with pytest.raises(ConstructionFailedError, match="^cut witness failed validation$"):
        connected_cut_bound(G, 2)


def test_cut_bound_k5_r3():
    w = connected_cut_bound(complete(5), 3)
    assert validate_vertex_partition(complete(5), w.parts, 3)
    assert w.cut_size <= cmc(complete(5), 3).cut_size


def test_cut_bound_with_a_core_smaller_than_r():
    # a core of fewer than r vertices falls back to the leaf peel of all of G
    rng = random.Random(5)
    small = 0
    for s in range(300):
        n = rng.randint(4, 9)
        G = random_connected_graph(n, rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n)), seed=s)
        n_core = dense_core(G).size
        for r in range(3, min(6, n) + 1):
            small += n_core < r
            w = connected_cut_bound(G, r)
            assert validate_vertex_partition(G, w.parts, r), (G.edges, r)
            assert w.cut_size <= cmc(G, r).cut_size, (G.edges, r)
    assert small >= 30, small


# --------------------------------------------------- ordered vertex parts


def test_ordered_k6():
    parts, rep = ordered_vertex_partitions(complete(6), 2)
    assert rep.attempted == rep.succeeded == 5  # every prefix works
    vecs = [tuple(p.bit_count() for p in ps) for ps in parts]
    assert len(set(vecs)) == len(vecs)


def test_ordered_c8():
    G = cycle(8)
    parts, rep = ordered_vertex_partitions(G, 2)
    for ps in parts:
        assert validate_vertex_partition(G, ps, 2)
    assert -(-rep.succeeded // 2) <= vertex_partition_profile(G, 2).value == 4


def test_ordered_p5_k3():
    G = path(5)
    parts, rep = ordered_vertex_partitions(G, 3)
    assert rep.succeeded == len(parts)
    for ps in parts:
        assert validate_vertex_partition(G, ps, 3)
    assert ordered_vertex_partitions(G, 5)[1].subpath_lens == [1, 1, 1, 1]
    with pytest.raises(TooSmallError):  # more parts than vertices
        ordered_vertex_partitions(G, 6)


def test_ordered_pi_bound_random():
    rng = random.Random(18)
    for i in range(20):
        n = rng.randint(4, 10)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=i)
        for k in (2, 3):
            parts, rep = ordered_vertex_partitions(G, k)
            vecs = [tuple(p.bit_count() for p in ps) for ps in parts]
            assert len(set(vecs)) == len(vecs) == rep.succeeded
            lower = -(-rep.succeeded // math.factorial(k))
            assert lower <= vertex_partition_profile(G, k).value


def test_ordered_falls_back_to_leaf_peel():
    # random_connected_graph(12, 24, seed=762348696): the core is all of G,
    # and 6 and 9 touch only 5, the first vertex of the second subpath, so
    # every tuple of path prefixes cuts them off from the remainder
    G = Graph(12, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (4, 7), (7, 8),
                   (6, 9), (7, 10), (5, 11), (2, 4), (7, 11), (1, 8), (0, 5), (3, 7),
                   (5, 8), (8, 10), (5, 9), (1, 4), (1, 7), (3, 10), (4, 11), (3, 5)])
    parts, rep = ordered_vertex_partitions(G, 3)
    assert rep.attempted == 16 and rep.subpath_lens == [4, 4]
    assert rep.succeeded == 1
    assert parts == [_leaf_peel(G, 3, G.full_vertex_mask())]
    assert validate_vertex_partition(G, parts[0], 3)


def test_ordered_rejects_a_leaf_peel_that_cuts_off_vertices(monkeypatch):
    # the graph of test_ordered_falls_back_to_leaf_peel; peeling 5, which is no
    # leaf, leaves 6 and 9 cut off from the rest of the last part
    G = Graph(12, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (4, 7), (7, 8),
                   (6, 9), (7, 10), (5, 11), (2, 4), (7, 11), (1, 8), (0, 5), (3, 7),
                   (5, 8), (8, 10), (5, 9), (1, 4), (1, 7), (3, 10), (4, 11), (3, 5)])
    monkeypatch.setattr(bounds, "_leaf_peel",
                        lambda G, r, mask: [1 << 5, 1 << 11, mask & ~(1 << 5 | 1 << 11)])
    with pytest.raises(ConstructionFailedError, match="^leaf-peel partition failed validation$"):
        ordered_vertex_partitions(G, 3)


def _leaf_peel_reference(H, r):
    """The leaf peel over the BFS spanning tree's edge list: tree degrees are
    counted from the edges and lowered by a rescan of them after each peel."""
    order, parent, _ = bfs_tree(H.neighbor_masks, 0, H.full_vertex_mask())
    edges = [(parent[u], u) for u in order[1:]]
    tdeg = [0] * H.n
    for u, v in edges:
        tdeg[u] += 1
        tdeg[v] += 1
    alive = H.full_vertex_mask()
    parts = []
    for _ in range(r - 1):
        leaf = next(v for v in bits(alive) if tdeg[v] <= 1)
        parts.append(1 << leaf)
        alive &= ~(1 << leaf)
        for u, v in edges:
            if u == leaf and (alive >> v) & 1:
                tdeg[v] -= 1
            elif v == leaf and (alive >> u) & 1:
                tdeg[u] -= 1
    parts.append(alive)
    return parts


def test_leaf_peel_matches_edge_scan_reference():
    rng = random.Random(21)
    for s in range(120):
        n = rng.randint(1, 14)
        G = random_connected_graph(n, rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n)), seed=s)
        for r in range(1, n + 1):
            parts = _leaf_peel(G, r, G.full_vertex_mask())
            assert parts == _leaf_peel_reference(G, r), (G.edges, r)
            assert validate_vertex_partition(G, parts, k=r)


# ------------------------------------------ mask helpers against relabeling


def _lift(mask, ids):
    return mask_of(ids[i] for i in bits(mask))


def _masked_graphs():
    """100 seeded (G, connected vertex mask, induced subgraph, vmap, emap)."""
    rng = random.Random(23)
    out = []
    for s in range(100):
        n = rng.randint(4, 14)
        G = random_connected_graph(n, rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n)), seed=s)
        mask = 1 << rng.randrange(n)
        for _ in range(rng.randint(0, n - 1)):
            grow = [u for x in bits(mask) for u in bits(G.neighbor_masks[x] & ~mask)]
            mask |= 1 << rng.choice(grow)
        out.append((G, mask, *G.induced(mask)))
    return out


MASKED = _masked_graphs()


def test_long_path_and_blocks_on_mask_match_relabeled():
    for G, mask, sub, vmap, _ in MASKED:
        full = sub.full_vertex_mask()
        assert long_path(G, mask) == [vmap[v] for v in long_path(sub, full)]
        assert blocks(G, mask) == [_lift(b, vmap) for b in blocks(sub, full)]


def test_st_numbering_on_block_matches_relabeled():
    done = 0
    for G, mask, *_ in MASKED:
        for b in blocks(G, mask):
            if b.bit_count() < 3:
                continue
            sub, vmap, _ = G.induced(b)
            want = [vmap[v] for v in st_numbering(sub, 0, sub.n - 1, sub.full_vertex_mask())]
            assert st_numbering(G, vmap[0], vmap[-1], b) == want
            done += 1
    assert done >= 30, done


def test_packing_on_mask_matches_relabeled():
    outcomes = {True: 0, False: 0}
    for G, mask, sub, _, emap in MASKED:
        for k in (1, 2, 3):
            try:
                want = spanning_tree_packing(sub, k, sub.full_vertex_mask())
            except PartctlError as exc:
                outcomes[False] += isinstance(exc, PackingInfeasibleError)
                with pytest.raises(type(exc)) as got:
                    spanning_tree_packing(G, k, mask)
                assert str(got.value) == str(exc)
                forests = getattr(exc, "forests", [])
                assert getattr(got.value, "forests", []) == [_lift(f, emap) for f in forests]
                continue
            outcomes[True] += 1
            got = spanning_tree_packing(G, k, mask)
            assert got.vertices == mask
            assert got.trees == [_lift(t, emap) for t in want.trees]
            assert got.leftover == _lift(want.leftover, emap)
    assert min(outcomes.values()) >= 50, outcomes


def test_prescribed_partition_on_mask_matches_relabeled():
    found = {True: 0, False: 0}
    for G, mask, sub, vmap, _ in MASKED:
        size = mask.bit_count()
        for k in (2, 3, 4):
            if size < k:
                continue
            # near-equal sizes, which sparse masks often cannot meet
            sizes = [size // k + (i < size % k) for i in range(k)]
            want = prescribed_partition(sub, sizes, sub.full_vertex_mask())
            got = prescribed_partition(G, sizes, mask)
            found[want is not None] += 1
            assert got == (None if want is None else [_lift(p, vmap) for p in want])
    assert min(found.values()) >= 10, found


# --------------------------------- earlier forms of the pipelines as references


def _long_path_reference(G, mask):
    """long_path with its tail and head extensions as two copied blocks."""
    start = (mask & -mask).bit_length() - 1
    path = deque([start])
    onpath = 1 << start
    while True:
        cand = G.neighbor_masks[path[-1]] & mask & ~onpath
        if cand:
            v = (cand & -cand).bit_length() - 1
            path.append(v)
            onpath |= 1 << v
            continue
        cand = G.neighbor_masks[path[0]] & mask & ~onpath
        if cand:
            v = (cand & -cand).bit_length() - 1
            path.appendleft(v)
            onpath |= 1 << v
            continue
        return list(path)


def _path_cut_reference(G):
    """The path-cut partitions from a table of the components of G minus the
    path prefix, each attached at the first cut edge into it, found by a scan
    of every component per cut edge."""
    core = dense_core(G)
    path = long_path(G, core.vertices)
    prefix = path[: max(1, (core.min_degree + 1) // 2)]
    pset = mask_of(prefix)
    pos = {v: i for i, v in enumerate(prefix)}
    cut = sorted((pos[u] if (pset >> u) & 1 else pos[v], ei)
                 for ei, (u, v) in enumerate(G.edges) if (pset >> u) & 1 != (pset >> v) & 1)
    comps = bounds.components(G, removed=pset)
    attach = [None] * len(comps)
    for idx, (_, ei) in enumerate(cut, start=1):
        u, v = G.edges[ei]
        w = v if (pset >> u) & 1 else u
        ci = next(ci for ci, c in enumerate(comps) if (c >> w) & 1)
        if attach[ci] is None:
            attach[ci] = idx
    full = G.full_edge_mask()
    out = []
    e1 = 0
    for idx, (pi, ei) in enumerate(cut, start=1):
        e1 |= 1 << ei | G.edge_set_of_vertices(mask_of(prefix[: pi + 1]))
        for ci, c in enumerate(comps):
            if attach[ci] == idx:
                e1 |= G.edge_set_of_vertices(c)
        if full & ~e1:
            out.append([e1, full & ~e1])
    if not out and G.m >= 2:
        out.append(bounds._single_edge_split(G))
    return out


def _greedy_regions_reference(G, sizes, mask):
    """_greedy_regions with each part grown by its own deque BFS that stops
    at the part's size."""
    remaining = mask
    parts = []
    for s in sizes[:-1]:
        seed = (remaining & -remaining).bit_length() - 1
        S = 1 << seed
        frontier = deque([seed])
        while S.bit_count() < s and frontier:
            x = frontier.popleft()
            for y in bits(G.neighbor_masks[x] & remaining & ~S):
                if S.bit_count() >= s:
                    break
                S |= 1 << y
                frontier.append(y)
        if S.bit_count() != s:
            return None
        parts.append(S)
        remaining &= ~S
    if remaining == 0 or not bounds.is_connected_vertex_set(G, remaining):
        return None
    return parts + [remaining]


def _acyclic_reference(G, emask):
    """Union-find cycle test of an edge mask."""
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in bits(emask):
        ru, rv = (find(x) for x in G.edges[eid])
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _reference_graphs():
    """Seeded random graphs and cored graphs, a 30-vertex dense core plus a
    tree periphery, whose core is above the prescribed-size budget."""
    rng = random.Random(71)
    out = []
    for s in range(60):
        n = rng.randint(2, 24)
        out.append(random_connected_graph(n, rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n)), seed=s))
    return out + [cored(60, 30, 150, s) for s in range(12)]


REFERENCE_GRAPHS = _reference_graphs()
# each reference graph with its dense core, and the seeded connected masks
REFERENCE_MASKS = [(G, dense_core(G).vertices) for G in REFERENCE_GRAPHS] + [
    (G, mask) for G, mask, *_ in MASKED]


def test_long_path_matches_two_block_reference():
    for G, mask in REFERENCE_MASKS:
        assert long_path(G, mask) == _long_path_reference(G, mask)


def test_path_cut_matches_attach_table_reference():
    several = 0
    for G in REFERENCE_GRAPHS:
        parts, rep = path_cut_partitions(G)
        assert parts == _path_cut_reference(G), G.edges
        assert rep.emitted == len(parts)
        pset = mask_of(long_path(G, dense_core(G).vertices)[: rep.prefix_len])
        several += len(bounds.components(G, removed=pset)) > 1
    assert several >= 8, several


def _outside_groups_reference(G, assigned):
    """The components of G - assigned, joined into one group per set of
    neighbours in ``assigned``: a dict from that set to the group."""
    groups = {}
    for c in components(G, removed=assigned):
        nb = 0
        for v in bits(c):
            nb |= G.neighbor_masks[v]
        groups[nb & assigned] = groups.get(nb & assigned, 0) | c
    return groups


def _attach_reference(groups, parts):
    """Join each group of ``_outside_groups_reference`` to the first part it
    touches, by a scan of the parts per group."""
    for nb, c in groups.items():
        for j, p in enumerate(parts):
            if nb & p:
                parts[j] = p | c
                break
        else:
            raise ConstructionFailedError("outside component touches no part")
    return parts


def _small_connected_graphs():
    """Every labelled connected graph on 1 to 5 vertices: 772 graphs."""
    out = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((0, 1), repeat=len(pairs)):
            G = Graph(n, [e for e, c in zip(pairs, chosen) if c])
            if bounds.is_connected(G):
                out.append(G)
    return out


def test_path_cut_ordered_and_cut_bound_validate_in_full_and_attach_by_groups(monkeypatch):
    # the path cut and the ordered family check a certificate once per call,
    # and the ordered family and the cut bound attach outside components by
    # a per-vertex table; every output must still pass the full validators,
    # and each part must hold the outside groups the first-touch scan gives it
    small = _small_connected_graphs()
    assert len(small) == 772
    assigned = []
    real_table = bounds._attach_table
    monkeypatch.setattr(bounds, "_attach_table", lambda G, a: assigned.append(a) or real_table(G, a))

    def attached_by_groups(G, partitions):
        a = assigned[-1]
        groups = _outside_groups_reference(G, a)
        return all(_attach_reference(groups, [p & a for p in parts]) == parts for parts in partitions)

    seen = {"path cut": 0, "ordered": 0, "cut bound": 0, "ordered outside": 0, "cut bound outside": 0}
    for G in small + REFERENCE_GRAPHS:
        for parts in path_cut_partitions(G)[0]:
            assert validate_edge_partition(G, parts, 2), G.edges
            seen["path cut"] += 1
        for k in range(2, min(4, G.n) + 1):
            got = ordered_vertex_partitions(G, k)[0]
            assert attached_by_groups(G, got), (G.edges, k)
            for parts in got:
                assert validate_vertex_partition(G, parts, k), (G.edges, k)
            seen["ordered"] += len(got)
            seen["ordered outside"] += assigned[-1] != G.full_vertex_mask()
        for r in range(2, min(3, G.n) + 1):
            parts = connected_cut_bound(G, r).parts
            assert attached_by_groups(G, [parts]), (G.edges, r)
            assert validate_vertex_partition(G, parts, r), (G.edges, r)
            seen["cut bound"] += 1
            seen["cut bound outside"] += assigned[-1] != G.full_vertex_mask()
    assert min(seen.values()) >= 200, seen


def test_greedy_regions_match_deque_reference():
    found = {True: 0, False: 0}
    rng = random.Random(72)
    for G, mask in REFERENCE_MASKS:
        size = mask.bit_count()
        for r in range(2, min(5, size) + 1):
            cuts = sorted(rng.sample(range(1, size), r - 1))
            sizes = [b - a for a, b in zip([0, *cuts], [*cuts, size])]
            want = _greedy_regions_reference(G, sizes, mask)
            assert bounds._greedy_regions(G, sizes, mask) == want, (G.edges, sizes)
            found[want is not None] += 1
    assert min(found.values()) >= 20, found


def test_check_packing_rejects_exactly_the_swaps_that_close_a_cycle():
    outcomes = {True: 0, False: 0}
    for s in range(4):
        G = cored(40, 12, 50, s)
        packing = spanning_tree_packing(G, 2, dense_core(G).vertices)
        bounds._check_packing(packing)
        for i, tree in enumerate(packing.trees):
            for e in bits(tree):
                for f in bits(packing.leftover):
                    trees = list(packing.trees)
                    trees[i] = tree & ~(1 << e) | 1 << f
                    swapped = bounds.TreePacking(G, packing.vertices, trees,
                                                 packing.leftover & ~(1 << f) | 1 << e)
                    ok = _acyclic_reference(G, trees[i])
                    outcomes[ok] += 1
                    if ok:
                        bounds._check_packing(swapped)
                    else:
                        with pytest.raises(ConstructionFailedError, match="forest has a cycle"):
                            bounds._check_packing(swapped)
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("corrupt, message", [
    (lambda p: (p.trees[0], p.trees[1] | p.trees[0] & -p.trees[0], p.leftover), "not edge-disjoint"),
    (lambda p: (p.trees[0] & p.trees[0] - 1, p.trees[1], p.leftover), "does not span"),
    (lambda p: (p.trees[0], p.trees[1], p.leftover | p.trees[0]), "leftover edges overlap"),
    (lambda p: (p.trees[0], p.trees[1], p.leftover & p.leftover - 1), "do not cover"),
])
def test_check_packing_messages(corrupt, message):
    G = complete(6)
    packing = spanning_tree_packing(G, 2, G.full_vertex_mask())
    assert packing.leftover
    t0, t1, leftover = corrupt(packing)
    with pytest.raises(ConstructionFailedError, match=message):
        bounds._check_packing(bounds.TreePacking(G, packing.vertices, [t0, t1], leftover))
