import itertools
import random
from collections import Counter

import pytest

from partctl import (
    Graph,
    RootedTree,
    cmc,
    count_partitions,
    edge_partition_profile,
    gyori_lovasz,
    is_biconnected,
    make_nonmonotone_example,
    mask_of,
    profile_of,
    random_connected_graph,
    random_tree,
    recursive_k_partitions,
    validate_edge_partition,
    validate_vertex_partition,
    vertex_partition_profile,
)
from partctl import bounds, exact
from partctl.errors import DisconnectedError, SizeMismatchError, TooLargeError
from partctl.exact import ProfileResult, cut_size


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(q):
    return Graph(q + 1, [(0, i) for i in range(1, q + 1)])


def brute_edge_profile(G, k):
    """Assign every edge to a part directly; exponential reference oracle."""
    from partctl import is_connected_edge_set

    profile = set()
    for assign in itertools.product(range(k), repeat=G.m):
        parts = [0] * k
        for e, j in enumerate(assign):
            parts[j] |= 1 << e
        if any(p == 0 for p in parts):
            continue
        if all(is_connected_edge_set(G, p) for p in parts):
            profile.add(tuple(sorted((p.bit_count() for p in parts), reverse=True)))
    return profile


def test_c4_profile():
    res = edge_partition_profile(cycle(4), 2)
    assert res.profile == {(3, 1), (2, 2)}
    assert res.value == 2


def test_profile_against_direct_assignment():
    rng = random.Random(11)
    for i in range(15):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, min(10, n * (n - 1) // 2))  # 3^m reference
        G = random_connected_graph(n, m, seed=i)
        for k in (2, 3):
            if G.m < k:
                continue
            assert edge_partition_profile(G, k).profile == brute_edge_profile(G, k)


def test_profile_witnesses_validate():
    from partctl import validate_edge_partition

    G = random_connected_graph(7, 12, seed=3)
    res = edge_partition_profile(G, 3)
    for key, parts in res.witnesses.items():
        assert validate_edge_partition(G, parts, 3)
        assert tuple(sorted((p.bit_count() for p in parts), reverse=True)) == key


def test_profile_fewer_edges_than_k():
    assert edge_partition_profile(path(2), 2).value == 0


TWO_EDGES = Graph(4, [(0, 1), (2, 3)])  # two components


def test_budget_errors():
    K10 = complete(10)
    with pytest.raises(TooLargeError):
        edge_partition_profile(K10, 2)  # m=45 over the default budget
    assert edge_partition_profile(K10, 2, max_edges=45).value == 22
    with pytest.raises(DisconnectedError):
        edge_partition_profile(TWO_EDGES, 2)
    for solve in (edge_partition_profile, vertex_partition_profile, cmc):
        with pytest.raises(TooLargeError):
            solve(path(4), 2, 0)  # a zero budget is a budget, not the default


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: vertex_partition_profile(TWO_EDGES, 2), "vertex partition profile", id="pi"),
    pytest.param(lambda: cmc(TWO_EDGES, 2), "cmc", id="cmc"),
    pytest.param(lambda: recursive_k_partitions(TWO_EDGES, 2), "graph is disconnected", id="recursive"),
    pytest.param(lambda: bounds.path_cut_partitions(TWO_EDGES), "path-cut", id="pathcut"),
    pytest.param(lambda: bounds.spanning_tree_packing(TWO_EDGES, 2, TWO_EDGES.full_vertex_mask()),
                 "packing needs", id="tree-packing"),
    pytest.param(lambda: bounds.packing_partitions(TWO_EDGES, 2), "packing pipeline", id="packing"),
    pytest.param(lambda: bounds.connected_cut_bound(TWO_EDGES, 2), "cut bound", id="cut-bound"),
    pytest.param(lambda: bounds.ordered_vertex_partitions(TWO_EDGES, 2), "ordered", id="ordered"),
    # n - 1 edges, so only the BFS finds that they do not span
    pytest.param(lambda: RootedTree(Graph(4, [(0, 1), (1, 2), (0, 2)]), 0),
                 "not a tree: disconnected", id="rooted-tree"),
])
def test_disconnected_graph_is_refused(build, message):
    with pytest.raises(DisconnectedError, match=message):
        build()


def test_skip_bounds_the_leaves_visited(monkeypatch):
    # a skip that fires less keeps every profile exact, so only the work shows
    # it; unpruned, the three k >= 3 cases visit 50185, 2907 and 1464 leaves,
    # and before the entry test of each node (no wanted size in its range)
    # 107, 30 and 39
    leaves = []
    record = ProfileResult.record
    monkeypatch.setattr(ProfileResult, "record",
                        lambda self, parts: leaves.append(parts) or record(self, parts))
    for solve, G, k, most in (
        (edge_partition_profile, make_nonmonotone_example()[0], 2, 20),
        (edge_partition_profile, random_connected_graph(8, 12, seed=3), 4, 23),
        (vertex_partition_profile, random_connected_graph(13, 18, seed=3), 3, 17),
        (vertex_partition_profile, random_connected_graph(12, 16, seed=4), 4, 19),
    ):
        leaves.clear()
        solve(G, k)
        # pytest.fail, not assert: CI also runs the tests under python -O; a
        # leaf that bypassed ProfileResult.record would pass with no leaves
        if not leaves or len(leaves) > most:
            pytest.fail(f"k={k}: {len(leaves)} leaves, bound {most}")


def test_prescribed_search_bounds_the_leaves_visited(monkeypatch):
    # near-equal sizes on sparse graphs, which often cannot meet them: 59 of
    # the 80 queries find a partition, after 86 leaves in all (112 when each
    # node still reached its leaf with no wanted size in its range)
    leaves = []
    real = exact._connected_partitions
    monkeypatch.setattr(exact, "_connected_partitions", lambda adj, mask, k, leaf, open_part: real(
        adj, mask, k, lambda parts: leaves.append(parts) or leaf(parts), open_part))
    rng = random.Random(7)
    found = 0
    for i in range(40):
        n = rng.randint(7, 12)
        G = random_connected_graph(n, rng.randint(n - 1, n + 4), seed=i)
        for k in (3, 4):
            sizes = [n // k + (j < n % k) for j in range(k)]
            found += exact.prescribed_partition(G, sizes, G.full_vertex_mask()) is not None
    # pytest.fail, not assert: CI also runs the tests under python -O
    if found != 59 or len(leaves) > 94:
        pytest.fail(f"{found} partitions found after {len(leaves)} leaves")


def wanted_sizes(profile, size, k, closed):
    """The bits s for which some key ``closed + (s,) + p`` of a connected
    k-partition of ``size`` elements is missing from ``profile``."""
    later = k - len(closed) - 1
    rest = size - sum(closed)
    # what is left of each recorded key that holds the closed sizes
    tails = [Counter(key) - Counter(closed) for key in profile
             if not Counter(closed) - Counter(key)]
    bits = 0
    for s in range(1, rest + 1):
        if sum(s in tail for tail in tails) < count_partitions(rest - s, later):
            bits |= 1 << s
    return bits


def test_open_part_bits_match_the_final_profile(monkeypatch):
    # each open part's bitmask is kept live as keys are found, so once the
    # search ends it must equal what the final profile leaves wanted
    opened = []
    real = exact._connected_partitions

    def spy(adj, mask, k, leaf, open_part):
        def capture(closed):
            want = open_part(closed)
            opened.append((closed, want))
            return want
        return real(adj, mask, k, leaf, capture)

    monkeypatch.setattr(exact, "_connected_partitions", spy)
    nonmonotone = make_nonmonotone_example()[0]
    cases = [(edge_partition_profile, nonmonotone, nonmonotone.m, k, nonmonotone.m) for k in (2, 3, 4)]
    for i, (n, m) in enumerate(((7, 9), (8, 12), (9, 11), (10, 14))):
        G = random_connected_graph(n, m, seed=i)
        cases += [(solve, G, size, k, None) for k in (2, 3, 4)
                  for solve, size in ((edge_partition_profile, G.m), (vertex_partition_profile, G.n))]
    checked = 0
    for solve, G, size, k, budget in cases:
        opened.clear()
        res = solve(G, k, budget)
        states = dict(opened)
        # pytest.fail, not assert: CI also runs the tests under python -O
        if not states or len(states) != len({id(want) for _, want in opened}):
            pytest.fail(f"k={k}: not one state per closed tuple")
        for closed, want in states.items():
            expect = wanted_sizes(res.profile, size, k, closed)
            if want[0] != expect:
                pytest.fail(f"{solve.__name__} k={k} closed={closed}: {want[0]:b}, not {expect:b}")
            checked += 1
    if checked < 100:
        pytest.fail(f"only {checked} states checked")


def binary_tree_with_chords(height, chords):
    """Complete binary tree (heap labels) plus the first ``chords`` edges
    joining sibling leaves."""
    n = 2 ** (height + 1) - 1
    edges = [((v - 1) // 2, v) for v in range(1, n)]
    edges += [(v, v + 1) for v in range(n // 2, n, 2)][:chords]
    return Graph(n, sorted(edges))


def test_skip_bounds_the_search_nodes_visited(monkeypatch):
    # every search node that passes the entry test (some size in its range is
    # still wanted) calls _count_components once; with the size range bounded
    # by reach and by held components and the sibling cut, the P cases visit
    # 143, 175, 79 and 9546 nodes, against 1012, 1399, 339 and 43835 without
    # the cut and 33327, 60971, 5949 and 130053 with neither the cut nor the
    # range bounds (the range |S|+1 .. |S|+|unrejected|), and the P(G,3) case
    # 9557 without the entry test; the pi(G,2) and cmc(G,2) cases visit 78
    # and 322 nodes, against 92 without the entry test and 276 and 420
    # without the cut
    nodes = []
    count = exact._count_components
    monkeypatch.setattr(exact, "_count_components",
                        lambda *args: nodes.append(1) or count(*args))
    nonmonotone = make_nonmonotone_example()[0]
    for solve, G, k, most in (
        (edge_partition_profile, binary_tree_with_chords(5, 0), 2, 157),
        (edge_partition_profile, binary_tree_with_chords(5, 16), 2, 192),
        (edge_partition_profile, nonmonotone, 2, 87),
        (edge_partition_profile, nonmonotone, 3, 10500),
        (vertex_partition_profile, random_connected_graph(20, 30, seed=0), 2, 86),
        (cmc, random_connected_graph(16, 25, seed=0), 2, 354),
    ):
        nodes.clear()
        solve(G, k, G.m)  # m >= n in every case, so G.m lifts the size budget
        # pytest.fail, not assert: CI also runs the tests under python -O
        if len(nodes) > most:
            pytest.fail(f"{solve.__name__} m={G.m} k={k}: {len(nodes)} nodes, bound {most}")


def twin_cliques(size, path):
    """Root 0 joined by a path of ``path`` edges to a vertex of each of two K_size."""
    edges, n = [], 1
    for _ in range(2):
        chain = [0, *range(n, n + path + size - 1)]
        n = chain[-1] + 1
        edges += zip(chain, chain[1:path + 1])
        edges += itertools.combinations(chain[path:], 2)
    return Graph(n, edges)


def k2_seed_corpus():
    rng = random.Random(41)
    for i in range(50):
        n = rng.randint(3, 12)
        yield random_connected_graph(n, rng.randint(n - 1, min(22, n * (n - 1) // 2)), seed=i)
        yield random_connected_graph(n, n - 1 + rng.randint(0, min(3, (n - 1) * (n - 2) // 2)),
                                     seed=100 + i)
        yield random_tree(n, seed=200 + i).graph
    for size, path in ((4, 1), (5, 1), (5, 3), (6, 1)):
        yield twin_cliques(size, path)
    for chords in (0, 2, 8, 16):
        yield binary_tree_with_chords(5, chords)


def test_k2_edge_seeds_are_connected_partitions_past_the_split_family():
    # the line-graph BFS cuts add only true keys, so the seeded profile is the
    # unseeded one; they must also witness keys the split family misses
    extra = 0
    for G in k2_seed_corpus():
        seeds = exact._k2_edge_seeds(G)
        for parts in seeds:
            assert validate_edge_partition(G, parts, 2), (G.edges, parts)
        split = recursive_k_partitions(G, 2)
        assert seeds[:len(split)] == split, G.edges
        # each cut seeded holds a key no earlier seed has
        split_keys = {profile_of(parts) for parts in split}
        cut_keys = {profile_of(parts) for parts in seeds[len(split):]}
        assert len(cut_keys) == len(seeds) - len(split) and not cut_keys & split_keys, G.edges
        extra += len(cut_keys)
        unseeded = exact._profile(G.edge_adjacency(), G.m, 2, ()).profile
        assert edge_partition_profile(G, 2, max_edges=G.m).profile == unseeded, G.edges
    assert extra >= 100, extra


def test_vertex_profile_path():
    assert vertex_partition_profile(path(4), 2).profile == {(3, 1), (2, 2)}
    assert vertex_partition_profile(path(4), 3).profile == {(2, 1, 1)}


def test_vertex_profile_complete_is_partition_count():
    for n in range(4, 9):
        for k in (2, 3):
            res = vertex_partition_profile(complete(n), k)
            assert res.value == count_partitions(n, k)


def test_iter_partitions_unique_and_complete():
    G = cycle(5)
    seen = set()
    scan = []  # the unpruned scan: the enumerator with no open_part
    exact._connected_partitions(G.neighbor_masks, G.full_vertex_mask(), 2, scan.append)
    for parts in scan:
        key = tuple(sorted(parts))
        assert key not in seen
        seen.add(key)
        assert validate_vertex_partition(G, parts, 2)
    # connected 2-partitions of C5 are arc pairs: 5 rotations * 2 sizes
    assert len(seen) == 10


def test_cmc_tree_is_one():
    rng = random.Random(2)
    for i in range(10):
        n = rng.randint(2, 10)
        T = random_tree(n, seed=i)
        assert cmc(T.graph, 2).cut_size == 1


def test_cmc_small_graphs():
    assert cmc(complete(4), 2).cut_size == 4
    assert cmc(cycle(4), 2).cut_size == 2
    w = cmc(complete(6), 3)
    assert w.cut_size == 12  # sizes (2,2,2): 15 - 3 internal edges
    assert validate_vertex_partition(complete(6), w.parts, 3)


def test_cut_size_helper():
    G = cycle(4)
    assert cut_size(G, [mask_of([0, 1]), mask_of([2, 3])]) == 2


def test_gyori_lovasz_biconnected_all_sizes():
    rng = random.Random(4)
    found = 0
    while found < 15:
        n = rng.randint(4, 10)
        m = rng.randint(n, n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=rng.randrange(10**6))
        if not is_biconnected(G):
            continue
        found += 1
        for s in range(1, n):
            parts = gyori_lovasz(G, [s, n - s])
            assert parts is not None
            assert validate_vertex_partition(G, parts, 2)
            assert [p.bit_count() for p in parts] == [s, n - s]


def test_gyori_lovasz_c5():
    parts = gyori_lovasz(cycle(5), [2, 3])
    assert parts is not None
    assert [p.bit_count() for p in parts] == [2, 3]


def test_gyori_lovasz_star_not_found():
    assert gyori_lovasz(star(4), [2, 3]) is None


def test_gyori_lovasz_k4_and_errors():
    assert gyori_lovasz(complete(4), [2, 2]) is not None
    with pytest.raises(SizeMismatchError):
        gyori_lovasz(complete(4), [1, 2])


def test_gyori_lovasz_three_parts():
    G = complete(5)
    parts = gyori_lovasz(G, [1, 2, 2])
    assert parts is not None
    assert validate_vertex_partition(G, parts, 3)
    assert [p.bit_count() for p in parts] == [1, 2, 2]


def test_gyori_lovasz_path_needs_more_than_the_frontier():
    # the 3-vertex part must grow past the first frontier of its anchor
    parts = gyori_lovasz(path(4), [3, 1])
    assert parts is not None
    assert validate_vertex_partition(path(4), parts, 2)
    assert [p.bit_count() for p in parts] == [3, 1]


def test_single_part_is_the_whole_set():
    for G in (path(1), path(4), cycle(5), complete(6)):
        vp = vertex_partition_profile(G, 1)
        assert vp.profile == {(G.n,)}
        assert vp.witnesses[(G.n,)] == [G.full_vertex_mask()]
        w = cmc(G, 1)
        assert (w.parts, w.cut_size) == ([G.full_vertex_mask()], 0)
        if G.m:
            ep = edge_partition_profile(G, 1)
            assert ep.profile == {(G.m,)}
            assert ep.witnesses[(G.m,)] == [G.full_edge_mask()]
    assert edge_partition_profile(path(1), 1).value == 0
