import random
import re

import pytest

from partctl import (
    Graph,
    RootedTree,
    bits,
    components,
    edge_partition_profile,
    make_complete_ternary,
    make_T_ell,
    mask_of,
    nested_split_sequence,
    random_connected_graph,
    random_tree,
    recursive_k_partitions,
    t_value,
    tree_exact_P2,
    tree_lower_bound_partitions,
    validate_edge_partition,
)
from partctl import graph, splits
from partctl.errors import ConstructionFailedError, TooSmallError
from partctl.graph import bfs_tree, closure, induced_edge_sets, largest_first, mask_components
from partctl.splits import (
    SplitSequence,
    _centroid,
    _centroid_chunk,
    _subtree_sizes,
    profile_of,
)

from graphs import complete, cycle, path, star


def caterpillar(n, spine, rng):
    """A spine path of ``spine`` vertices with each of the other n - spine
    vertices hung on a random spine vertex, ids shuffled; ``spine`` = n is a
    path."""
    ids = list(range(n))
    rng.shuffle(ids)
    edges = [(ids[j], ids[j + 1]) for j in range(spine - 1)]
    edges += [(ids[rng.randrange(spine)], ids[j]) for j in range(spine, n)]
    return Graph(n, edges)


def _deep_trees(rng, count, top):
    """``count`` paths and caterpillars of up to ``top`` vertices, with ids
    shuffled and random roots: the deep walks, and walks that reach branches
    through a vertex's parent in the rooting."""
    out = []
    for i in range(count):
        n = rng.randint(2, top)
        G = caterpillar(n, n if i % 2 else rng.randint(1, n), rng)
        out.append(RootedTree(G, rng.randrange(n)))
    return out


def _every_branch_items(tree, mask, v):
    """The split items with every branch closed at every level: the walk
    before the largest branch was derived from subtree sizes."""
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


def centroid(T):
    """Vertex minimizing the largest component of T - v; ties by smallest id."""
    return _centroid(T.order, T.parent, _subtree_sizes(T.order, T.parent))


def test_split_sequence_single_vertex():
    T = RootedTree(Graph(1, []), 0)
    seq = nested_split_sequence(T)
    assert seq.items == [(1, 1, 0)]
    seq.check()


def test_split_sequence_star():
    T = RootedTree(star(3), 0)
    seq = nested_split_sequence(T)
    assert len(seq) == t_value(4) + 1 == 4
    bsets = [sorted(bits(B)) for _, B, _ in seq.items]
    assert bsets[0] == [0]
    assert bsets[-1] == [0, 1, 2, 3]
    seq.check()


def test_split_sequence_path_endpoint():
    # a path rooted at an end is the deepest walk: one level per vertex
    for n in (2, 5, 9, 1100):
        T = RootedTree(path(n), 0)
        seq = nested_split_sequence(T)
        assert len(seq) == n  # every level peels one vertex
        seq.check()


def test_split_sequence_invariants_random():
    rng = random.Random(1)
    for i in range(60):
        n = rng.randint(2, 120)
        T = random_tree(n, seed=i)
        nested_split_sequence(T).check()


def test_split_items_match_every_branch_walk():
    rng = random.Random(17)
    trees = [RootedTree(random_tree(n, seed=6000 + i).graph, rng.randrange(n))
             for i, n in enumerate(rng.randint(1, 119) for _ in range(300))]
    trees += [RootedTree(path(n), 0) for n in (2, 5, 9, 300)]
    trees += _deep_trees(rng, 40, 400)
    for T in trees:
        G = T.graph
        want = _every_branch_items(G.neighbor_masks, G.full_vertex_mask(), T.root)
        assert nested_split_sequence(T).items == want, (G.edges, T.root)


def _closed_vertices(monkeypatch):
    """A one-element list that sums the sizes of the sets ``closure`` returns
    from now on, called from ``splits`` or inside ``graph`` (as
    ``mask_components`` does)."""
    closed = [0]
    real = graph.closure

    def counting(adj, start, mask):
        c = real(adj, start, mask)
        closed[0] += c.bit_count()
        return c

    monkeypatch.setattr(splits, "closure", counting)
    monkeypatch.setattr(graph, "closure", counting)
    return closed


def test_split_walks_close_at_most_n_minus_1_vertices(monkeypatch):
    # pytest.fail, not assert: the test also runs under -O
    closed = _closed_vertices(monkeypatch)
    rng = random.Random(19)
    trees = [RootedTree(random_tree(n, seed=7000 + i).graph, rng.randrange(n))
             for i, n in enumerate(rng.randint(2, 200) for _ in range(150))]
    trees += [RootedTree(star(q), rng.randrange(q + 1)) for q in range(2, 40)]
    trees += _deep_trees(rng, 30, 1000)
    for T in trees:
        for build in (nested_split_sequence, tree_lower_bound_partitions):
            closed[0] = 0
            build(T)
            if closed[0] > T.n - 1:
                pytest.fail(f"{build.__name__} closed {closed[0]} vertices of "
                            f"{T.graph.edges} rooted at {T.root}")
    # a path rooted at an end has one branch per level, which is never closed
    for n in (2, 5, 9, 300, 1100):
        closed[0] = 0
        nested_split_sequence(RootedTree(path(n), 0))
        if closed[0]:
            pytest.fail(f"path of {n}: {closed[0]} vertices closed")


def test_two_partitions_c4():
    G = cycle(4)
    out = recursive_k_partitions(G, 2)
    assert len(out) >= 2
    exact = edge_partition_profile(G, 2).profile
    pairs = {profile_of(p) for p in out}
    assert len(pairs) == len(out)
    assert pairs <= exact
    for p in out:
        assert validate_edge_partition(G, p, 2)


def test_two_partitions_e2_increasing():
    G = star(4)
    out = recursive_k_partitions(G, 2)
    sizes = [p[1].bit_count() for p in out]
    assert sizes == sorted(set(sizes))
    for p in out:
        assert validate_edge_partition(G, p, 2)


def test_two_partitions_p4():
    G = path(4)
    out = recursive_k_partitions(G, 2)
    assert len(out) >= t_value(4) + 1 - 2
    assert {profile_of(p) for p in out} <= {(2, 1)}


def test_centroid():
    assert centroid(RootedTree(path(5), 0)) == 2
    assert centroid(RootedTree(star(4), 1)) == 0
    assert centroid(RootedTree(path(4), 0)) == 1  # tie broken by id


def test_recursive_k_partitions_small_tree():
    G = path(3)
    out = recursive_k_partitions(G, 2)
    for p in out:
        assert validate_edge_partition(G, p, 2)
    assert {profile_of(p) for p in out} == {(1, 1)}


def test_recursive_k_partitions_c6_k3():
    G = cycle(6)
    out = recursive_k_partitions(G, 3)
    ordered = [tuple(p.bit_count() for p in ps) for ps in out]
    assert len(set(ordered)) == len(ordered)
    exact = edge_partition_profile(G, 3).profile
    for p in out:
        assert validate_edge_partition(G, p, 3)
        assert profile_of(p) in exact


def test_recursive_k_partitions_k4():
    G = complete(4)
    out = recursive_k_partitions(G, 2)
    assert len({profile_of(p) for p in out}) >= 2


def _edges_inside(G, S):
    return mask_of(ei for ei, (u, v) in enumerate(G.edges) if (S >> u) & 1 and (S >> v) & 1)


def _bfs_spanning_tree(G):
    """The BFS spanning tree of G rooted at 0, neighbors by ascending id."""
    order, parent, _ = bfs_tree(G.neighbor_masks, 0, G.full_vertex_mask())
    return RootedTree(Graph(G.n, [(parent[u], u) for u in order[1:]]), 0)


def _reference_k_partitions(G, k):
    """recursive_k_partitions as a plain per-item loop: each B is rebuilt and
    remapped bit by bit, each E(B) found by a scan over all edges, and each
    inner part remapped on its own."""
    if G.m < k:
        raise TooSmallError(f"graph has {G.m} edges < k={k}")
    T = _bfs_spanning_tree(G)
    full = G.full_edge_mask()
    out = []
    tree, vfull = T.graph.neighbor_masks, T.graph.full_vertex_mask()
    if k == 2:
        for _, B, _ in _every_branch_items(tree, vfull, 0):
            e2 = _edges_inside(G, B)
            if full & ~e2 and e2:
                out.append([full & ~e2, e2])
        return out
    v = centroid(T)
    a1 = _reference_centroid_chunk(T, v)
    subT, tvmap, _ = T.graph.induced(a1)
    for _, B_loc, _ in _every_branch_items(subT.neighbor_masks, subT.full_vertex_mask(),
                                           tvmap.index(v)):
        B = vfull & ~a1 | mask_of(tvmap[i] for i in bits(B_loc))
        e2 = _edges_inside(G, B)
        e1 = full & ~e2
        if not e1 or e2.bit_count() < k - 1:
            continue
        sub, _, emap = G.induced(B)
        try:
            inner = _reference_k_partitions(sub, k - 1)
        except TooSmallError:
            continue
        for parts in inner:
            out.append([e1] + [mask_of(emap[j] for j in bits(p)) for p in parts])
    return out


def test_recursive_k_partitions_match_per_item_reference():
    rng = random.Random(4)
    graphs = []
    for s in range(40):
        n = rng.randint(4, 16)
        graphs.append(random_connected_graph(n, rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n)),
                                             seed=s))
    graphs += [T.graph for T in _deep_trees(rng, 16, 24) if T.n >= 4]
    for G in graphs:
        for k in (2, 3, 4):
            try:
                want = _reference_k_partitions(G, k)
            except TooSmallError:
                with pytest.raises(TooSmallError):
                    recursive_k_partitions(G, k)
                continue
            assert recursive_k_partitions(G, k) == want, (G.edges, k)


def test_recursive_k_partitions_builds_no_graph(monkeypatch):
    G = random_connected_graph(14, 30, seed=3)
    built = []
    init = Graph.__init__

    def counting_init(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    assert recursive_k_partitions(G, 3)
    assert built == []


def _orientation_sink(T):
    """The vertex all of whose branches hold fewer than n/2 vertices, by a
    scan of every vertex's branches with the edges oriented to the larger
    side."""
    G, n = T.graph, T.graph.n
    sz = [1] * n
    for v in reversed(T.order):
        if T.parent[v] >= 0:
            sz[T.parent[v]] += sz[v]
    for v in range(n):
        if all(2 * (sz[u] if T.parent[u] == v else n - sz[v]) < n
               for u in bits(G.neighbor_masks[v])):
            return v
    return -1


def test_centroid_is_orientation_sink_without_halving_edge():
    rng = random.Random(13)
    checked = 0
    for i in range(300):
        n = rng.randint(1, 60)
        T = random_tree(n, seed=3000 + i)
        T = RootedTree(T.graph, rng.randrange(n))
        sink = _orientation_sink(T)
        if sink >= 0:
            assert centroid(T) == sink
            checked += 1
    assert checked > 150


def _reference_centroid_chunk(T, v):
    """The chunk around v from the components of T - v, the far side of the
    accumulated components gathered by a scan of the components."""
    n = T.graph.n
    comps = sorted(components(T.graph, removed=1 << v),
                   key=lambda c: (-c.bit_count(), (c & -c).bit_length()))
    if len(comps) <= 2:
        sel = comps[-1]
    elif 3 * comps[0].bit_count() >= n:
        sel = comps[0]
    else:
        sel, s = 0, 0
        for c in comps:
            sel |= c
            s += c.bit_count()
            if 3 * s >= n - 1:
                break
        other = 0
        for c in comps:
            if not c & sel:
                other |= c
        if 2 * (sel.bit_count() + 1) > n and 2 * (other.bit_count() + 1) <= n:
            sel = other
    return sel | 1 << v


def test_centroid_chunk_matches_component_reference():
    # the branch sizes come from T's random root, so a branch through the
    # centroid's parent is sized by what its children's branches leave
    rng = random.Random(15)
    trees = [RootedTree(random_tree(n, seed=4000 + i).graph, rng.randrange(n))
             for i, n in enumerate(rng.randint(2, 40) for _ in range(300))]
    for T in trees + _deep_trees(rng, 40, 200):
        v = centroid(T)
        G = T.graph
        got = _centroid_chunk(G.neighbor_masks, _subtree_sizes(T.order, T.parent),
                              G.full_vertex_mask(), v)
        want = _reference_centroid_chunk(T, v)
        assert got == largest_first(components(G, removed=G.full_vertex_mask() & ~want | 1 << v))
        assert sum(got, 1 << v) == want, (G.edges, T.root)


def test_recursive_rejects_small():
    with pytest.raises(TooSmallError):
        recursive_k_partitions(path(2), 2)


def test_tree_exact_p2_path():
    for n in range(3, 11):
        prof = tree_exact_P2(RootedTree(path(n), 0))
        want = {(n - 1 - i, i) for i in range(1, (n - 1) // 2 + 1)}
        assert prof == want


def test_tree_exact_p2_star():
    for q in range(2, 9):
        prof = tree_exact_P2(RootedTree(star(q), 0))
        assert len(prof) == q // 2


def test_tree_exact_p2_matches_brute_force():
    rng = random.Random(7)
    for i in range(80):
        n = rng.randint(2, 11)
        T = random_tree(n, seed=1000 + i)
        assert tree_exact_P2(T) == edge_partition_profile(T.graph, 2).profile


def _reference_tree_exact_P2(T):
    """The per-vertex form: list each vertex's branch edge counts (one per
    child, plus the parent branch), convolve them into a subset-sum mask of
    its own when there are at least two, and read that mask's proper sums."""
    G = T.graph
    n, m = G.n, G.m
    if m == 0:
        return set()
    sz = [1] * n
    for u in reversed(T.order[1:]):
        sz[T.parent[u]] += sz[u]
    children = [[] for _ in range(n)]
    for u in range(n):
        if T.parent[u] >= 0:
            children[T.parent[u]].append(u)
    profile = set()
    interior = (1 << (m + 1)) - 2  # bits 1..m-1 plus m; m masked off below
    for v in range(n):
        branches = [sz[c] for c in children[v]]
        if v != T.root:
            branches.append(n - sz[v])
        if len(branches) < 2:
            continue
        reach = 1
        for b in branches:
            reach |= reach << b
        for s in bits(reach & interior & ~(1 << m)):
            profile.add((max(s, m - s), min(s, m - s)))
    return profile


def test_tree_exact_p2_matches_per_vertex_reference():
    rng = random.Random(41)
    trees = [make_T_ell(ell) for ell in (1, 2, 3)]
    trees += [make_complete_ternary(h) for h in range(5)]
    for i in range(2000):
        trees.append(random_tree(rng.randint(1, 80), seed=5000 + i))
    for T in trees:
        T = RootedTree(T.graph, rng.randrange(T.graph.n))
        assert tree_exact_P2(T) == _reference_tree_exact_P2(T), (T.graph.edges, T.root)


def test_tree_lower_bound_case1():
    out = tree_lower_bound_partitions(RootedTree(path(4), 0))
    assert len(out) >= t_value(4) - 2


def test_tree_lower_bound_case2_star():
    out = tree_lower_bound_partitions(RootedTree(star(4), 0))
    assert len(out) >= t_value(5) - 2
    for p in out:
        assert validate_edge_partition(star(4), p, 2)


def test_tree_lower_bound_random():
    rng = random.Random(9)
    for i in range(60):
        n = rng.randint(2, 100)
        T = random_tree(n, seed=2000 + i)
        out = tree_lower_bound_partitions(T)
        assert len(out) >= t_value(n) - 2
        sizes = {profile_of(p) for p in out}
        assert len(sizes) == len(out)
        for p in out:
            assert validate_edge_partition(T.graph, p, 2)


def test_tree_lower_bound_subset_of_exact():
    T = make_T_ell(2)
    out = tree_lower_bound_partitions(T)
    exact = tree_exact_P2(T)
    assert len(out) >= t_value(T.graph.n) - 2 == len(exact)
    assert {profile_of(p) for p in out} <= exact


def test_check_rejects_an_empty_sequence(monkeypatch):
    monkeypatch.setattr(splits, "_split_items", lambda tree, sz, v, comps: [])
    with pytest.raises(ConstructionFailedError, match="^empty split sequence$"):
        nested_split_sequence(RootedTree(path(4), 0)).check()


def test_case_ii_rejects_a_chunk_below_a_third(monkeypatch):
    # a path of 7 has no halving edge; taken as the sink, its end 0 leaves a
    # chunk of one vertex
    monkeypatch.setattr(splits, "_centroid", lambda order, parent, sz: 0)
    with pytest.raises(ConstructionFailedError, match="^Case II chunk too small$"):
        tree_lower_bound_partitions(RootedTree(path(7), 0))


def test_check_rejects_truncated_sequence_under_python_O(python_O_check):
    python_O_check("truncated_sequence")


def _broom():
    """Path 0-1-2-3-4 with leaf 5 on vertex 1, rooted at 0; its split sequence
    is the six items below, and t(6) + 1 = 5."""
    T = RootedTree(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]), 0)
    items = nested_split_sequence(T).items
    assert [(sorted(bits(A)), sorted(bits(B)), v) for A, B, v in items] == [
        ([0, 1, 2, 3, 4, 5], [0], 0),
        ([1, 2, 3, 4, 5], [0, 1], 1),
        ([1, 2, 3, 4], [0, 1, 5], 1),
        ([2, 3, 4], [0, 1, 2, 5], 2),
        ([3, 4], [0, 1, 2, 3, 5], 3),
        ([4], [0, 1, 2, 3, 4, 5], 4),
    ]
    return T, items


def _move(items, i, x, to_a):
    """items with vertex x moved from B_i to A_i (to_a) or back."""
    A, B, v = items[i]
    bit = 1 << x
    moved = (A | bit, B & ~bit, v) if to_a else (A & ~bit, B | bit, v)
    return items[:i] + [moved] + items[i + 1:]


def _swap(items, i, j):
    out = list(items)
    out[i], out[j] = out[j], out[i]
    return out


# B cannot stop growing while A shrinks and every item passes: B_i is the
# complement of A_i plus v_i, and v_i must lie in every later B.  So a B that
# stops growing is caught by the A test; check() has no B test.
@pytest.mark.parametrize("corrupt, message", [
    (lambda it: _move(it, 3, 5, to_a=True), "A or B of item 3 is not connected"),
    (lambda it: _move(it, 3, 4, to_a=False), "A or B of item 3 is not connected"),
    (lambda it: _swap(it, 1, 2), "A sets not strictly decreasing"),
    (lambda it: it[:4] + it[3:], "A sets not strictly decreasing"),
    (lambda it: _swap(it, 2, 3), "earlier pivot missing from later B"),
    (lambda it: it[:4], "length 4 is below t(n) + 1 = 5"),
], ids=["disconnected-A", "disconnected-B", "A-not-shrinking", "B-not-growing",
        "earlier-pivot-missing", "too-short"])
def test_check_rejects_corrupted_sequence(corrupt, message):
    T, items = _broom()
    SplitSequence(T, items).check()
    with pytest.raises(ConstructionFailedError) as exc:
        SplitSequence(T, corrupt(items)).check()
    assert str(exc.value) == message


def _b_not_growing_corruptions():
    """The broom's tree, and every sequence made from its items by replacing
    or inserting one (A, B, v) whose A and B meet in v and cover V, such that
    some B does not strictly grow."""
    T, items = _broom()
    full = T.graph.full_vertex_mask()
    triples = [(A, full & ~A | 1 << v, v) for A in range(1, full + 1) for v in bits(A)]
    seqs = [items[:i] + [t] + items[i + 1:] for i in range(len(items)) for t in triples]
    seqs += [items[:i] + [t] + items[i:] for i in range(len(items) + 1) for t in triples]
    return T, [seq for seq in seqs
               if any(B1 & ~B2 or B1 == B2 for (_, B1, _), (_, B2, _) in zip(seq, seq[1:]))]


def test_check_rejects_every_b_not_growing_corruption():
    # pytest.fail and pytest.raises, not assert: the test also runs under -O
    T, seqs = _b_not_growing_corruptions()
    if len(seqs) < 1000:
        pytest.fail(f"only {len(seqs)} corruptions")
    for seq in seqs:
        with pytest.raises(ConstructionFailedError):
            SplitSequence(T, seq).check()


def test_b_not_growing_corruptions_rejected_under_python_O(python_O_check):
    python_O_check("test_check_rejects_every_b_not_growing_corruption")


def _two_pass_check(T, items):
    """SplitSequence.check() as it was with one ``induced_edge_sets`` pass over
    the As and another over the Bs: the reference for the one-walk check."""
    G = T.graph
    full = G.full_vertex_mask()
    if not items:
        raise ConstructionFailedError("empty split sequence")
    if items[0][2] != T.root:
        raise ConstructionFailedError("first pivot is not the root")
    later = [full] * len(items)
    for i in range(len(items) - 1, 0, -1):
        later[i - 1] = later[i] & items[i][1]
    eAs = (e for e, _ in induced_edge_sets(G, [A for A, _, _ in items]))
    eBs = (e for e, _ in induced_edge_sets(G, [B for _, B, _ in items]))
    for i, ((A, B, v), eA, eB) in enumerate(zip(items, eAs, eBs)):
        if A & B != 1 << v:
            raise ConstructionFailedError(f"A and B of item {i} do not meet in its pivot")
        if A | B != full:
            raise ConstructionFailedError(f"A and B of item {i} do not cover V")
        if eA.bit_count() != A.bit_count() - 1 or eB.bit_count() != B.bit_count() - 1:
            raise ConstructionFailedError(f"A or B of item {i} is not connected")
        if not (later[i] >> v) & 1:
            raise ConstructionFailedError("earlier pivot missing from later B")
    for (A1, _, _), (A2, _, _) in zip(items, items[1:]):
        if A2 & ~A1 or A1 == A2:
            raise ConstructionFailedError("A sets not strictly decreasing")
    if len(items) < t_value(G.n) + 1:
        raise ConstructionFailedError(
            f"length {len(items)} is below t(n) + 1 = {t_value(G.n) + 1}"
        )


def _verdict(check, T, items):
    """The message ``check`` rejects ``items`` with, or None if it accepts."""
    try:
        check(T, items)
    except ConstructionFailedError as exc:
        return str(exc)
    return None


def _corruptions(rng, T, items):
    """Seeded corruptions of a valid split sequence: a vertex moved between A
    and B or dropped from its side, two items swapped, an item duplicated or
    dropped, a changed pivot, and two of these on top of each other."""
    n = T.graph.n

    def one(it):
        i = rng.randrange(len(it))
        A, B, v = it[i]
        kind = rng.randrange(5)
        if kind == 0:
            bit = 1 << rng.randrange(n)
            lands = bit if rng.random() < 0.5 else 0  # else the vertex drops out
            moved = (A | lands, B & ~bit, v) if B & bit else (A & ~bit, B | lands, v)
            return it[:i] + [moved] + it[i + 1:]
        if kind == 1:
            return _swap(it, i, rng.randrange(len(it)))
        if kind == 2:
            return it[:i + 1] + it[i:]
        if kind == 3:
            return it[:i] + it[i + 1:] or it
        return it[:i] + [(A, B, rng.randrange(n))] + it[i + 1:]

    return [one(items) for _ in range(12)] + [one(one(items)) for _ in range(6)]


def test_check_matches_two_pass_reference():
    # pytest.fail, not assert: the test also runs under -O
    rng = random.Random(28)
    seen = {}
    for i in range(300):
        T = random_tree(rng.randint(2, 40), seed=2800 + i)
        T = RootedTree(T.graph, rng.randrange(T.graph.n))
        items = nested_split_sequence(T).items
        for seq in [items] + _corruptions(rng, T, items):
            want = _verdict(_two_pass_check, T, seq)
            got = _verdict(lambda T, it: SplitSequence(T, it).check(), T, seq)
            if got != want:
                pytest.fail(f"{T.graph.edges} root {T.root} {seq}: {got!r} != {want!r}")
            kind = want and re.sub(r"\d+", "#", want)
            seen[kind] = seen.get(kind, 0) + 1
    kinds = {None, "first pivot is not the root", "A and B of item # do not meet in its pivot",
             "A and B of item # do not cover V", "A or B of item # is not connected",
             "earlier pivot missing from later B", "A sets not strictly decreasing",
             "length # is below t(n) + # = #"}
    if set(seen) != kinds or min(seen.values()) < 20:
        pytest.fail(f"verdicts seen: {seen}")


def test_check_matches_two_pass_reference_under_python_O(python_O_check):
    python_O_check("test_check_matches_two_pass_reference")


def _tree_lower_bound_reference(T):
    """tree_lower_bound_partitions with each split turned into a partition by
    its own loop over the A sides: [E(A), E(T) - E(A)]."""
    G = T.graph
    n = G.n
    if n < 2:
        return []
    below = {u: closure(G.neighbor_masks, u, G.full_vertex_mask() & ~(1 << T.parent[u]))
             for u in range(n) if T.parent[u] >= 0}
    half = [u for u in sorted(below) if 2 * below[u].bit_count() == n]
    if half:
        chunk, v = below[half[0]], half[0]
    else:
        v = centroid(T)
        comps = sorted(components(G, removed=1 << v), key=lambda c: (-c.bit_count(), c & -c))
        pref, s = 0, 0
        for c in comps:
            pref |= c
            s += c.bit_count()
            if 3 * s >= n - 1:
                break
        chunk = pref | 1 << v if 2 * s < n or pref == comps[0] else G.full_vertex_mask() & ~pref
    full = G.full_edge_mask()
    out = []
    for A, _, _ in _every_branch_items(G.neighbor_masks, chunk, v):
        e1 = _edges_inside(G, A)
        if e1 and full & ~e1:
            out.append([e1, full & ~e1])
    return out


def test_tree_lower_bound_matches_per_split_reference():
    rng = random.Random(31)
    for i in range(150):
        T = random_tree(rng.randint(1, 40), seed=3000 + i)
        T = RootedTree(T.graph, rng.randrange(T.graph.n))
        assert tree_lower_bound_partitions(T) == _tree_lower_bound_reference(T), T.graph.edges
    for T in _deep_trees(rng, 40, 300):
        assert tree_lower_bound_partitions(T) == _tree_lower_bound_reference(T), (T.graph.edges,
                                                                                  T.root)
    for T in (RootedTree(path(6), 2), RootedTree(star(5), 3), make_T_ell(2)):
        assert tree_lower_bound_partitions(T) == _tree_lower_bound_reference(T)
