"""Deterministic generators for the named graph families plus seeded random
instances.  Vertex labeling of every construction is canonical breadth-first;
random generation uses the Mersenne Twister (python stdlib ``random.Random``)
with an explicit integer seed, so fixtures are reproducible.
"""

from __future__ import annotations

import itertools
import random

from .errors import InfeasibleDensityError, OutOfRangeError
from .graph import Graph, RootedTree

# a Graph on a breadth-first-labelled tree holds about n^2/8 bytes of masks
# (60 MiB for random_tree(20000)), so the tree families stop at this n
MAX_TREE_VERTICES = 2 * 10**4
MAX_BINARY_CLIQUE_VERTICES = 2**15
# the candidate-edge list of random_connected_graph takes O(n^2) memory
MAX_RANDOM_GRAPH_VERTICES = 1000


def _check_exponent(name, value, cap):
    """Refuse a size argument past cap's bit length before n is computed.

    Each family's n is at least 2**(value - 1), so such a value is over the
    cap; computing n would take long, and printing it could fail."""
    if value > cap.bit_length():
        raise OutOfRangeError(f"{name}={value} gives n over budget {cap}")


def make_complete_ternary(height):
    """Complete ternary tree of the given height, BFS-labeled from the root."""
    if height < 0:
        raise OutOfRangeError("height must be >= 0")
    _check_exponent("height", height, MAX_TREE_VERTICES)
    n = (3 ** (height + 1) - 1) // 2
    if n > MAX_TREE_VERTICES:
        raise OutOfRangeError(f"n={n} exceeds budget {MAX_TREE_VERTICES}")
    edges = []
    for v in range(1, n):
        edges.append(((v - 1) // 3, v))
    return RootedTree(Graph(n, edges), 0)


def make_T_ell(ell):
    """Complete ternary tree of height ell with every leaf turned into the
    middle vertex of a 5-vertex path; n = 4*3^ell + sum_{i<=ell} 3^i."""
    if ell < 1:
        raise OutOfRangeError("ell must be >= 1")
    _check_exponent("ell", ell, MAX_TREE_VERTICES)
    core = (3 ** (ell + 1) - 1) // 2
    n = core + 4 * 3**ell
    if n > MAX_TREE_VERTICES:
        raise OutOfRangeError(f"n={n} exceeds budget {MAX_TREE_VERTICES}")
    edges = [((v - 1) // 3, v) for v in range(1, core)]
    leaves = range(core - 3**ell, core)
    nxt = core
    for leaf in leaves:
        # two fresh 2-paths hanging off the leaf: a-b-leaf-c-d
        edges.append((leaf, nxt))
        edges.append((nxt, nxt + 1))
        edges.append((leaf, nxt + 2))
        edges.append((nxt + 2, nxt + 3))
        nxt += 4
    return RootedTree(Graph(n, edges), 0)


def make_binary_clique_graph(h1, h2):
    """Complete binary tree of height h1+h2 whose depth-h1 descendant
    subtrees are completed into cliques.

    Heap labeling: children of v are 2v+1 and 2v+2.
    """
    if h1 < 1 or h2 < 0:
        raise OutOfRangeError("need h1 >= 1 and h2 >= 0")
    _check_exponent("h1+h2", h1 + h2, MAX_BINARY_CLIQUE_VERTICES)
    n = 2 ** (h1 + h2 + 1) - 1
    if n > MAX_BINARY_CLIQUE_VERTICES:
        raise OutOfRangeError(f"n={n} exceeds budget {MAX_BINARY_CLIQUE_VERTICES}")
    edges = set()
    for v in range(1, 2 ** (h1 + 1) - 1):
        edges.add(((v - 1) // 2, v))
    first = 2**h1 - 1
    for root in range(first, 2 * first + 1):
        # depth d below root holds the ids (root+1)2^d - 1 .. (root+2)2^d - 2
        sub = [v for d in range(h2 + 1) for v in range((root + 1 << d) - 1, (root + 2 << d) - 1)]
        edges.update(itertools.combinations(sub, 2))  # sub ascends: each pair is (min, max)
    return Graph(n, sorted(edges))


def make_nonmonotone_example():
    """The 31-vertex complete binary tree with 8 extra edges joining
    neighboring leaves (0-indexed), plus the distinguished edge whose removal
    increases the 2-partition profile."""
    edges = []
    for i in range(1, 16):
        edges.append((i - 1, 2 * i - 1))
        edges.append((i - 1, 2 * i))
    for i in range(16, 31, 2):
        edges.append((i - 1, i))
    return Graph(31, edges), (29, 30)


def random_tree(n, seed=0):
    """Random labeled tree: each vertex i >= 1 picks a uniform parent < i."""
    if n < 1:
        raise OutOfRangeError(f"n={n} must be >= 1")
    if n > MAX_TREE_VERTICES:
        raise OutOfRangeError(f"n={n} exceeds budget {MAX_TREE_VERTICES}")
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return RootedTree(Graph(n, edges), 0)


def random_connected_graph(n, m, seed=0):
    """Random parent-array tree plus m-(n-1) distinct random non-tree edges."""
    if n < 1 or not n - 1 <= m <= n * (n - 1) // 2:
        raise InfeasibleDensityError(f"m={m} infeasible for n={n}")
    if n > MAX_RANDOM_GRAPH_VERTICES:
        raise OutOfRangeError(f"n={n} exceeds budget {MAX_RANDOM_GRAPH_VERTICES}")
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in present
    ]
    extra = rng.sample(candidates, m - (n - 1))
    return Graph(n, edges + extra)
