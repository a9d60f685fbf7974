import math

import pytest

from partctl import (
    Graph,
    is_connected,
    make_binary_clique_graph,
    make_complete_ternary,
    make_nonmonotone_example,
    make_T_ell,
    random_connected_graph,
    random_tree,
)
from partctl.errors import InfeasibleDensityError, OutOfRangeError
from partctl.families import MAX_RANDOM_GRAPH_VERTICES


def test_complete_ternary():
    T = make_complete_ternary(0)
    assert T.graph.n == 1
    T2 = make_complete_ternary(2)
    assert T2.graph.n == 13
    assert T2.graph.m == 12
    # every internal vertex has exactly three children
    assert all(len([u for u in range(1, 13) if (u - 1) // 3 == v]) == 3
               for v in range(4))


def test_t_ell_sizes():
    assert make_T_ell(1).graph.n == 16
    assert make_T_ell(2).graph.n == 49
    for ell in (1, 2, 3):
        T = make_T_ell(ell)
        assert T.graph.m == T.graph.n - 1
        assert is_connected(T.graph)


def test_t_ell_budget():
    # ell = 7 has 12,028 vertices and ell = 8 has 36,085
    with pytest.raises(OutOfRangeError):
        make_T_ell(8)
    with pytest.raises(OutOfRangeError):
        make_T_ell(13)
    with pytest.raises(OutOfRangeError):
        make_T_ell(0)
    with pytest.raises(OutOfRangeError):  # 3**ell is never computed
        make_T_ell(10**12)


def test_t_ell_leaves_are_path_middles():
    T = make_T_ell(1)
    G = T.graph
    # leaves of the height-1 ternary core are ids 1,2,3; each becomes the
    # middle of a 5-vertex path (parent edge + two attached 2-paths)
    for leaf in (1, 2, 3):
        deg = G.degree(leaf)
        assert deg == 3  # parent + two attached 2-paths


def test_binary_clique_counts():
    for (h1, h2), (n, m) in {
        (1, 1): (7, 8),
        (2, 1): (15, 18),
        (1, 2): (15, 44),
    }.items():
        G = make_binary_clique_graph(h1, h2)
        assert (G.n, G.m) == (n, m)
        assert is_connected(G)
        assert G.m == 2 ** (h1 + 1) - 2 + 2**h1 * math.comb(2 ** (h2 + 1) - 1, 2)


def test_binary_clique_budget():
    # h1 + h2 = 15 gives 2^16 - 1 vertices; the larger ones never compute 2**h
    for h1, h2 in ((15, 0), (1, 10**12), (10**12, 0)):
        with pytest.raises(OutOfRangeError):
            make_binary_clique_graph(h1, h2)


def test_binary_clique_h2_zero_is_binary_tree():
    for h1 in (1, 2, 3):
        G = make_binary_clique_graph(h1, 0)
        assert G.m == G.n - 1
        assert set(G.edges) == {((v - 1) // 2, v) for v in range(1, G.n)}


def _binary_clique_edges_by_bfs(h1, h2):
    """The construction walked out: tree edges down to depth h1, then each
    depth-h1 subtree, gathered by a queue BFS over heap children, made a clique."""
    n = 2 ** (h1 + h2 + 1) - 1
    edges = {((v - 1) // 2, v) for v in range(1, 2 ** (h1 + 1) - 1)}
    for root in range(2**h1 - 1, 2 ** (h1 + 1) - 1):
        sub = [root]
        for v in sub:
            sub += [c for c in (2 * v + 1, 2 * v + 2) if c < n]
        edges |= {(min(u, w), max(u, w)) for u in sub for w in sub if u != w}
    return sorted(edges)


def test_binary_clique_formula_larger():
    for h1 in range(1, 5):
        for h2 in range(5):
            G = make_binary_clique_graph(h1, h2)
            assert G.n == 2 ** (h1 + h2 + 1) - 1
            assert G.m == 2 ** (h1 + 1) - 2 + 2**h1 * math.comb(2 ** (h2 + 1) - 1, 2)
            assert list(G.edges) == _binary_clique_edges_by_bfs(h1, h2), (h1, h2)


def test_nonmonotone_example():
    G, e = make_nonmonotone_example()
    assert (G.n, G.m) == (31, 38)
    assert e == (29, 30)
    assert G.degree(0) == 2  # root of the underlying binary tree
    eid = G.edge_id(*e)
    G2 = Graph(G.n, [ed for i, ed in enumerate(G.edges) if i != eid])
    assert G2.m == 37
    assert is_connected(G2)


def test_random_tree():
    T = random_tree(5, seed=4)
    assert T.graph.m == 4
    assert is_connected(T.graph)
    assert random_tree(9, seed=2).graph.edges == random_tree(9, seed=2).graph.edges


def test_random_connected_graph():
    G = random_connected_graph(5, 4, seed=0)
    assert G.m == 4 and is_connected(G)
    K4 = random_connected_graph(4, 6, seed=99)
    assert K4.m == 6  # forced complete
    a = random_connected_graph(6, 8, seed=1)
    b = random_connected_graph(6, 8, seed=1)
    assert a.edges == b.edges
    with pytest.raises(InfeasibleDensityError):
        random_connected_graph(5, 3, seed=0)
    with pytest.raises(InfeasibleDensityError):
        random_connected_graph(4, 7, seed=0)
    # the cap is checked before the O(n^2) candidate-edge list is built
    for n in (MAX_RANDOM_GRAPH_VERTICES + 1, 2000, 10**12):
        with pytest.raises(OutOfRangeError):
            random_connected_graph(n, n, seed=0)


def test_random_connected_graph_rejects_no_vertices():
    # n - 1 <= m <= n(n-1)/2 alone lets these through
    for n, m in ((0, 0), (0, -1), (-3, -4)):
        with pytest.raises(InfeasibleDensityError):
            random_connected_graph(n, m, seed=0)


def test_complete_ternary_rejects_more_than_a_million_vertices():
    # height 12 has 797,161 vertices and height 13 has 2,391,484
    with pytest.raises(OutOfRangeError):
        make_complete_ternary(13)
    with pytest.raises(OutOfRangeError):
        make_complete_ternary(25)
    with pytest.raises(OutOfRangeError):  # n would have 4,771 digits
        make_complete_ternary(10**4)
    with pytest.raises(OutOfRangeError):
        make_complete_ternary(10**12)
