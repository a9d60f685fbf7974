"""Acceptance gate: one test per headline guarantee of the package.

Each test is self-contained and asserts exact values or exact inequalities;
expected constants come from independent derivations frozen here.
"""

import math
import random

from partctl import (
    Graph,
    cmc,
    connected_cut_bound,
    count_partitions,
    edge_partition_profile,
    gyori_lovasz,
    is_biconnected,
    make_binary_clique_graph,
    make_nonmonotone_example,
    make_T_ell,
    nested_split_sequence,
    ordered_vertex_partitions,
    packing_partitions,
    path_cut_partitions,
    random_connected_graph,
    random_tree,
    t_value,
    tree_exact_P2,
    tree_lower_bound_partitions,
    validate_edge_partition,
    validate_vertex_partition,
    vertex_partition_profile,
)
from partctl.arith import build_t_table, t_preimage_closed_form
from partctl.cli import verify_inequalities
from partctl.errors import PackingInfeasibleError
from partctl.splits import profile_of


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_01_nonmonotone_example_exact_profiles():
    G, e = make_nonmonotone_example()
    res = edge_partition_profile(G, 2)
    assert res.value == 8
    assert {min(t) for t in res.profile} == {1, 2, 3, 4, 8, 9, 18, 19}

    eid = G.edge_id(*e)
    G2 = Graph(G.n, [ed for i, ed in enumerate(G.edges) if i != eid])
    res2 = edge_partition_profile(G2, 2)
    assert res2.value == 9
    assert {min(t) for t in res2.profile} == {1, 2, 3, 4, 7, 8, 9, 17, 18}


def test_02_t_table_global_properties():
    cap = 10**6
    vals = build_t_table(cap)
    assert all(vals[n] <= vals[n + 1] for n in range(1, cap))
    # the d=3 recurrence identity; n=11 and n=23 are its only exceptions,
    # where d=2 is strictly better by one
    bad = [n for n in range(11, cap + 1) if vals[n] != 3 + vals[(n - 2) // 3 + 1]]
    assert bad == [11, 23]
    # the table's runs, read off its entries; the last one may be cut short
    starts = [n for n in range(2, cap + 1) if vals[n] != vals[n - 1]]
    intervals = list(zip([1] + starts, [s - 1 for s in starts]))
    for h in range(8, len(intervals)):
        assert intervals[h] == t_preimage_closed_form(h)
    # anchor family: tripling n adds exactly 3 to t
    ell = 0
    while 10 * 3**ell <= cap:
        assert vals[10 * 3**ell] == vals[10] + 3 * ell
        ell += 1
    assert ell >= 10


def test_03_t_ell_trees_realize_t_minus_2():
    for ell in range(1, 7):
        T = make_T_ell(ell)
        prof = tree_exact_P2(T)
        assert len(prof) == t_value(T.graph.n) - 2, ell


def test_04_oracle_equivalence():
    rng = random.Random(0)
    for i in range(200):
        n = rng.randint(2, 11)
        T = random_tree(n, seed=i)
        assert tree_exact_P2(T) == edge_partition_profile(T.graph, 2).profile

    found = 0
    while found < 25:
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


def test_05_inequality_suite_100_graphs():
    records = list(verify_inequalities(seed=0))
    assert len(records) >= 400
    assert all(r["ok"] for r in records), [r for r in records if not r["ok"]][:3]
    # the suite covers P(G,2) >= ceil(CMC/2), cut-bound <= cmc, path-cut and
    # feasible packing profiles inside exact profiles, and ordered counts
    # below pi for k=2,3
    names = {r["check"] for r in records}
    assert "P2>=ceil(CMC/2)" in names
    assert "cut_bound<=cmc" in names
    assert "pathcut<=exactP2" in names
    assert "packing<=exactP2" in names
    assert "ceil(ordered/3!)<=pi3" in names

    # constructive pipelines beyond path-cut: packing and the recursive
    # split family stay inside the exact profiles as well.  The public k = 2
    # search is seeded with the split family, so that family is checked
    # against the unseeded search and validated partition by partition.
    from partctl import recursive_k_partitions
    from partctl.exact import _profile

    rng = random.Random(77)
    packing_hits = 0
    for i in range(40):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=7000 + i)
        exact2 = edge_partition_profile(G, 2, max_edges=45).profile
        split_parts = recursive_k_partitions(G, 2)
        assert all(validate_edge_partition(G, p, k=2) for p in split_parts)
        assert {profile_of(p) for p in split_parts} <= _profile(G.edge_adjacency(), G.m, 2, ()).profile
        try:
            parts, _ = packing_partitions(G, 2)
        except PackingInfeasibleError:
            pass
        else:
            packing_hits += 1
            assert {profile_of(p) for p in parts} <= exact2
        if 3 <= G.m <= 12:
            exact3 = edge_partition_profile(G, 3).profile
            assert {profile_of(p) for p in recursive_k_partitions(G, 3)} <= exact3
    assert packing_hits >= 3


def test_06_split_sequence_property_suite():
    rng = random.Random(42)
    for i in range(500):
        n = rng.randint(2, 500)
        T = random_tree(n, seed=i)
        nested_split_sequence(T).check()  # all four invariants + length
        lb = tree_lower_bound_partitions(T)
        assert len(lb) >= t_value(n) - 2, (i, n)


def test_07_path_cut_pipeline_guarantees():
    for d in (8, 16, 24):
        for seed in range(4):
            G = random_connected_graph(64, 64 * d // 2, seed=seed)
            parts, rep = path_cut_partitions(G)
            assert rep.delta_core >= d / 2  # the peel guarantee
            assert rep.m_cut >= math.ceil(rep.delta_core**2 / 4)
            assert rep.distinct_pairs >= math.ceil(rep.m_cut / 2) >= d * d / 32
            for p in parts:
                assert validate_edge_partition(G, p, 2)


def test_08_packing_pipeline():
    parts, rep = packing_partitions(complete(5), 2)
    assert {profile_of(p) for p in parts} == {(6, 4), (5, 5)}
    assert len(parts) == count_partitions(rep.leftover + 2, 2)

    for n in (4, 6, 9):
        try:
            packing_partitions(cycle(n), 2)
            assert False, f"C_{n} packing should be infeasible"
        except PackingInfeasibleError:
            pass

    rng = random.Random(5)
    hits = 0
    for i in range(60):
        n = rng.randint(4, 8)
        m = rng.randint(2 * (n - 1), n * (n - 1) // 2)
        G = random_connected_graph(n, m, seed=i)
        try:
            parts, rep = packing_partitions(G, 2)
        except PackingInfeasibleError:
            continue
        hits += 1
        assert len(parts) == count_partitions(rep.leftover + 2, 2)
    assert hits >= 10


def test_09_binary_clique_upper_bound():
    k = 2
    expected_P = {(1, 1): 4, (2, 1): 6, (1, 2): 22}  # regression fixtures
    for (h1, h2), want in expected_P.items():
        G = make_binary_clique_graph(h1, h2)
        assert G.m == 2 ** (h1 + 1) - 2 + 2**h1 * math.comb(2 ** (h2 + 1) - 1, 2)
        res = edge_partition_profile(G, k, max_edges=max(G.m, 40))
        assert res.value == want, (h1, h2)
        bound = 2 ** (k * k) * sum(
            2 ** (i * (2 * h2 + 1)) * h1 ** (k - 1 - i) for i in range(k)
        )
        assert res.value <= bound, (h1, h2)


def test_10_erdos_lehner_ratio():
    # pi(n,k) of a path is the number of integer partitions of n into k parts
    p6 = Graph(6, [(i, i + 1) for i in range(5)])
    assert vertex_partition_profile(p6, 3).value == count_partitions(6, 3)
    for n, k in [(100, 2), (100, 3)]:
        exact_pi = count_partitions(n, k)
        ratio = exact_pi * math.factorial(k) / math.comb(n - 1, k - 1)
        assert abs(ratio - 1.0) <= 0.1, (n, k, ratio)
