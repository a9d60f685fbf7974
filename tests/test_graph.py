import io
import itertools
import random

import pytest

from partctl import (
    Graph,
    RootedTree,
    bits,
    blocks,
    components,
    is_biconnected,
    is_connected_edge_set,
    is_connected_vertex_set,
    mask_of,
    min_degree,
    read_graph,
    st_numbering,
    write_graph,
)
from partctl.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    NotBiconnectedError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from partctl.graph import _lowpoint_dfs, bfs_tree, induced_edge_sets

from graphs import complete, cycle, path, star


def test_build_basic():
    g = Graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert tri.m == 3
    # edges are stored min endpoint first regardless of input order
    g2 = Graph(3, [(2, 0), (1, 0)])
    assert g2.edges == ((0, 2), (0, 1))


def test_build_rejects_bad_edges():
    with pytest.raises(SelfLoopError):
        Graph(2, [(0, 0)])
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(VertexOutOfRangeError):
        Graph(2, [(0, 2)])


def test_bits_and_mask_roundtrip():
    ids = [0, 3, 7]
    assert list(bits(mask_of(ids))) == ids


def test_connected_vertex_set():
    p4 = path(4)
    assert is_connected_vertex_set(p4, mask_of([0, 1]))
    assert not is_connected_vertex_set(p4, mask_of([0, 2]))
    k4 = complete(4)
    for r in range(1, 5):
        for sub in itertools.combinations(range(4), r):
            assert is_connected_vertex_set(k4, mask_of(sub))


def test_connected_edge_set():
    p4 = path(4)
    assert is_connected_edge_set(p4, mask_of([0]))
    assert not is_connected_edge_set(p4, mask_of([0, 2]))
    # every nonempty edge subset of a star shares the center
    s4 = star(4)
    for emask in range(1, 16):
        assert is_connected_edge_set(s4, emask)


def test_components():
    p3 = path(3)
    assert components(p3, removed=mask_of([1])) == [mask_of([0]), mask_of([2])]
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert components(tri) == [mask_of([0, 1, 2])]
    s3 = star(3)
    assert components(s3, removed=mask_of([0])) == [2, 4, 8]


def test_bfs_tree_on_a_mask_matches_queue_bfs():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 16)
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
        mask = rng.getrandbits(n)
        if not mask:
            continue
        root = rng.choice(list(bits(mask)))
        order, parent, tree = bfs_tree(G.neighbor_masks, root, mask)
        want, want_parent, queue, seen = [], [-1] * n, [root], 1 << root
        while queue:
            v = queue.pop(0)
            want.append(v)
            for u in sorted(bits(G.neighbor_masks[v])):
                if (mask >> u) & 1 and not (seen >> u) & 1:
                    seen |= 1 << u
                    want_parent[u] = v
                    queue.append(u)
        assert order == want and parent == want_parent
        for v in range(n):
            kids = mask_of(u for u in range(n) if want_parent[u] == v)
            up = 1 << want_parent[v] if want_parent[v] >= 0 else 0
            assert tree[v] == kids | up


def test_rooted_tree_parent_map():
    T = RootedTree(path(4), 1)
    assert T.parent[1] == -1
    assert T.parent[0] == 1 and T.parent[2] == 1 and T.parent[3] == 2
    assert T.order == (1, 0, 2, 3)


def test_st_numbering_c4():
    c4 = cycle(4)
    order = st_numbering(c4, 0, 1, c4.full_vertex_mask())
    assert order == [0, 3, 2, 1]
    for i in range(1, 4):
        assert is_connected_vertex_set(c4, mask_of(order[:i]))
        assert is_connected_vertex_set(c4, mask_of(order[i:]))


def test_st_numbering_k4_all_pairs():
    k4 = complete(4)
    for s in range(4):
        for t in range(4):
            if s == t:
                continue
            order = st_numbering(k4, s, t, k4.full_vertex_mask())
            assert order[0] == s and order[-1] == t
            assert sorted(order) == [0, 1, 2, 3]


def test_st_numbering_rejects_non_biconnected():
    with pytest.raises(NotBiconnectedError):
        st_numbering(path(3), 0, 2, mask_of(range(3)))


# the lowpoint DFS of this graph from 0, 3 first, reaches 2 from 1; hung under
# 0 instead, 2 is listed in [0, 2, 1, 3] before both its neighbors, and hung
# under 3 it is listed in [0, 1, 3, 2] after both of them
@pytest.mark.parametrize("parent_of_2", [0, 3], ids=["no-earlier-neighbor", "no-later-neighbor"])
def test_st_numbering_rejects_an_order_from_a_wrong_dfs(monkeypatch, parent_of_2):
    G = Graph(4, [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)])
    real = _lowpoint_dfs

    def wrong_parent(G, mask, root, first=None):
        preorder, pre, parent, low = real(G, mask, root, first)
        if first is not None:  # blocks() runs the same DFS, unchanged
            parent = parent[:2] + [parent_of_2] + parent[3:]
        return preorder, pre, parent, low

    monkeypatch.setattr("partctl.graph._lowpoint_dfs", wrong_parent)
    with pytest.raises(NotBiconnectedError, match="^st-numbering failed validation$"):
        st_numbering(G, 0, 3, G.full_vertex_mask())


def test_st_numbering_random_biconnected():
    import random

    from partctl import random_connected_graph

    rng = random.Random(5)
    k2 = Graph(2, [(0, 1)])
    cases = [(k2, 0, 1, 0b11), (k2, 1, 0, 0b11)]
    while len(cases) < 22:
        n = rng.randint(4, 10)
        m = rng.randint(n, n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=rng.randrange(10**6))
        if is_biconnected(G):
            cases.append((G, 0, n - 1, G.full_vertex_mask()))
    # every bridge block of sparse seeded graphs, in both orientations
    for _ in range(30):
        n = rng.randint(5, 12)
        G = random_connected_graph(n, rng.randint(n - 1, n + 2), seed=rng.randrange(10**6))
        for b in blocks(G, G.full_vertex_mask()):
            if b.bit_count() == 2:
                u, v = bits(b)
                cases += [(G, u, v, b), (G, v, u, b)]
    assert len(cases) >= 100
    for G, s, t, mask in cases:
        order = st_numbering(G, s, t, mask)
        # on a two-vertex block this is order == [s, t]
        assert order[0] == s and order[-1] == t and sorted(order) == list(bits(mask))
        for i in range(1, len(order)):
            assert is_connected_vertex_set(G, mask_of(order[:i]))
            assert is_connected_vertex_set(G, mask_of(order[i:]))


def test_min_degree_and_blocks():
    assert min_degree(cycle(5)) == 2
    assert blocks(path(3), mask_of(range(3))) == [mask_of([0, 1]), mask_of([1, 2])]
    assert blocks(complete(4), mask_of(range(4))) == [mask_of([0, 1, 2, 3])]
    assert is_biconnected(Graph(2, [(0, 1)]))
    assert not is_biconnected(path(3))


def _blocks_reference(G, mask):
    """Blocks with no DFS: the maximal vertex sets B of ``mask`` with |B| >= 2
    such that G[B] is connected and stays connected after deleting any one
    vertex."""
    found = []
    sub = mask
    while sub:
        if sub.bit_count() >= 2 and is_connected_vertex_set(G, sub) and all(
                is_connected_vertex_set(G, sub & ~(1 << v)) for v in bits(sub)):
            found.append(sub)
        sub = (sub - 1) & mask
    maximal = [B for B in found if not any(B != C and B & C == B for C in found)]
    return sorted(maximal, key=lambda bm: ((bm & -bm).bit_length(), bm))


def test_blocks_match_subset_reference():
    rng = random.Random(29)
    nonempty = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        p = rng.choice([0.2, 0.4, 0.7])
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        mask = rng.getrandbits(n) if rng.random() < 0.7 else G.full_vertex_mask()
        want = _blocks_reference(G, mask)
        assert blocks(G, mask) == want, (G.edges, mask)
        nonempty += bool(want)
    assert nonempty >= 150, nonempty


def test_lowpoint_dfs_matches_definition():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 12)
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35])
        mask = rng.getrandbits(n) | 1
        others = [v for v in bits(mask) if v]
        first = rng.choice(others) if others and rng.random() < 0.5 else None
        preorder, pre, parent, low = _lowpoint_dfs(G, mask, 0, first)
        if first is not None:
            assert preorder[1] == first and parent[first] == 0
        tree = {(parent[v], v) for v in preorder[1:]}
        for i, v in enumerate(preorder):
            assert pre[v] == i
            if i:
                # a DFS: the parent is the latest visited vertex adjacent to v
                # (or the root, for a forced first child)
                earlier = [u for u in preorder[:i] if (G.neighbor_masks[v] >> u) & 1]
                if v != first:
                    assert parent[v] == max(earlier, key=pre.__getitem__)
        for v in preorder:
            sub = {v}
            for u in preorder[pre[v] + 1:]:
                if parent[u] in sub:
                    sub.add(u)
            reach = [pre[w] for x in sub for w in bits(G.neighbor_masks[x] & mask)
                     if (x, w) not in tree and (w, x) not in tree]
            assert low[v] == min([pre[v], *reach]), (G.edges, mask, v)
        assert all(pre[v] == -1 for v in range(n) if v not in preorder)


def test_graph_io_roundtrip():
    g = cycle(5)
    buf = io.StringIO()
    write_graph(g, buf)
    buf.seek(0)
    g2 = read_graph(buf)
    assert g2 == g


def test_read_graph_skips_comments():
    g = read_graph(io.StringIO("# hello\n3 2\n0 1\n1 2\n"))
    assert g.edges == ((0, 1), (1, 2))


def test_read_graph_rejects_too_few_edges_before_allocating():
    with pytest.raises(DisconnectedError):
        read_graph(io.StringIO("5000000 3\n0 1\n1 2\n2 3\n"))
    assert read_graph(io.StringIO("4 3\n0 1\n1 2\n2 3\n")).n == 4


def test_induced_subgraph_maps():
    g = cycle(5)
    sub, vmap, emap = g.induced(mask_of([1, 2, 3]))
    assert vmap == [1, 2, 3]
    assert sub.m == 2
    assert [g.edges[e] for e in emap] == [(1, 2), (2, 3)]


def _edges_inside(G, S):
    """E(S) by a scan over every edge: the reference for induced_edge_sets."""
    return mask_of(ei for ei, (u, v) in enumerate(G.edges) if (S >> u) & 1 and (S >> v) & 1)


def _edges_touching(G, S):
    """The edges with an end in S by a scan over every edge."""
    return mask_of(ei for ei, (u, v) in enumerate(G.edges) if (S >> u) & 1 or (S >> v) & 1)


def _chains(rng, n):
    """Vertex-mask sequences of every shape: nested increasing and decreasing,
    random masks (mixed adds and removes), repeats, and empty masks."""
    order = rng.sample(range(n), n)
    grow = [mask_of(order[:i]) for i in range(n + 1)]
    mixed = [rng.getrandbits(n) for _ in range(10)]
    full = (1 << n) - 1
    return [grow, grow[::-1], mixed, [m for m in mixed[:5] for _ in range(2)],
            [0, full, 0, 0, full], []]


def test_induced_edge_sets_match_brute_force():
    rng = random.Random(11)
    for _ in range(80):
        n, p = rng.randint(1, 16), rng.choice([0.2, 0.5, 0.9])
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for chain in _chains(rng, n):
            assert list(induced_edge_sets(G, chain)) == [
                (_edges_inside(G, S), _edges_touching(G, S)) for S in chain]
        S = rng.getrandbits(n)
        assert G.edge_set_of_vertices(S) == _edges_inside(G, S)
