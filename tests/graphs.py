"""The small named graphs the tests build: paths, cycles, complete graphs
and stars, with vertices 0..n-1."""

from partctl import Graph


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(q):
    return Graph(q + 1, [(0, i) for i in range(1, q + 1)])
