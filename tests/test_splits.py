import os
import random
import subprocess
import sys

import pytest

import partctl
from partctl import (
    Graph,
    RootedTree,
    bits,
    edge_partition_profile,
    mask_of,
    nested_split_sequence,
    random_tree,
    recursive_k_partitions,
    spanning_tree,
    t_value,
    tree_exact_P2,
    tree_lower_bound_partitions,
    two_partitions_from_splits,
    validate_edge_partition,
)
from partctl.errors import TooSmallError
from partctl.splits import centroid, profile_of


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(q):
    return Graph(q + 1, [(0, i) for i in range(1, q + 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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
    for n in (2, 5, 9):
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


def test_two_partitions_c4():
    G = cycle(4)
    out = two_partitions_from_splits(G, spanning_tree(G, 0))
    assert len(out) >= 2
    exact = edge_partition_profile(G, 2).profile
    pairs = {profile_of(p) for p in out}
    assert len(pairs) == len(out)
    assert pairs <= exact
    for p in out:
        assert validate_edge_partition(G, p, 2)


def test_two_partitions_e2_increasing():
    G = star(4)
    out = two_partitions_from_splits(G, spanning_tree(G, 0))
    sizes = [p[1].bit_count() for p in out]
    assert sizes == sorted(set(sizes))
    for p in out:
        assert validate_edge_partition(G, p, 2)


def test_two_partitions_p4():
    G = path(4)
    out = two_partitions_from_splits(G, spanning_tree(G, 0))
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


def test_recursive_rejects_small():
    with pytest.raises(TooSmallError):
        recursive_k_partitions(path(2), 2)


def test_tree_exact_p2_path():
    for n in range(3, 11):
        prof = tree_exact_P2(path(n))
        want = {(n - 1 - i, i) for i in range(1, (n - 1) // 2 + 1)}
        assert prof == want


def test_tree_exact_p2_star():
    for q in range(2, 9):
        prof = tree_exact_P2(star(q))
        assert len(prof) == q // 2


def test_tree_exact_p2_matches_brute_force():
    rng = random.Random(7)
    for i in range(80):
        n = rng.randint(2, 11)
        T = random_tree(n, seed=1000 + i)
        assert tree_exact_P2(T) == edge_partition_profile(T.graph, 2).profile


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
    from partctl import make_T_ell

    T = make_T_ell(2)
    out = tree_lower_bound_partitions(T)
    exact = tree_exact_P2(T)
    assert len(out) >= t_value(T.graph.n) - 2 == len(exact)
    assert {profile_of(p) for p in out} <= exact


def test_check_rejects_truncated_sequence_under_python_O():
    # assert statements vanish under -O; the invariant checks must not
    script = (
        "from partctl import nested_split_sequence, random_tree\n"
        "from partctl.errors import ConstructionFailedError\n"
        "assert False, 'asserts are live'\n"
        "seq = nested_split_sequence(random_tree(12, seed=1))\n"
        "seq.check()\n"
        "seq.items = seq.items[:2]\n"
        "try:\n"
        "    seq.check()\n"
        "except ConstructionFailedError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(partctl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
