"""Each input guard raises its own error, named by its message, on the input it
exists to refuse."""

import contextlib
import io

import pytest

from partctl import (
    Graph,
    cmc,
    connected_cut_bound,
    dense_core,
    gyori_lovasz,
    is_connected_edge_set,
    is_connected_vertex_set,
    long_path,
    read_graph,
    recursive_k_partitions,
    st_numbering,
)
from partctl.cli import main
from partctl.errors import (
    ConstructionFailedError,
    EmptySetError,
    NotBiconnectedError,
    ParseError,
    TooLargeError,
    TooSmallError,
)

from graphs import path


C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def reversed_then_missing_edge(_):
    assert C4.edge_id(1, 0) == C4.edge_id(0, 1) == 0
    C4.edge_id(0, 2)


def exact_exit(comments):
    """``partctl exact`` on ``comments``, its exit code and stderr raised as
    one SystemExit message."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["exact", "--what", "P", "--input", str(comments)])
    raise SystemExit(f"exit {code}: {err.getvalue().strip()}")


GUARDS = {
    "gyori_lovasz-budget": (lambda _: gyori_lovasz(path(17), [8, 9]), TooLargeError,
                            "n=17 exceeds search budget 16"),
    "edge_id-missing": (reversed_then_missing_edge, KeyError, r"\(0, 2\)"),
    "connected-vertex-set-empty": (lambda _: is_connected_vertex_set(C4, 0), EmptySetError,
                                   "empty vertex set"),
    "connected-edge-set-empty": (lambda _: is_connected_edge_set(C4, 0), EmptySetError,
                                 "empty edge set"),
    "long_path-empty": (lambda _: long_path(C4, 0), EmptySetError, "empty vertex set"),
    "st_numbering-s-is-t": (lambda _: st_numbering(C4, 2, 2, C4.full_vertex_mask()), NotBiconnectedError,
                            "s and t must be two distinct vertices"),
    "st_numbering-negative-s": (lambda _: st_numbering(C4, -1, 2, C4.full_vertex_mask()),
                                NotBiconnectedError, "s and t must be two distinct vertices"),
    "st_numbering-negative-t": (lambda _: st_numbering(C4, 0, -2, C4.full_vertex_mask()),
                                NotBiconnectedError, "s and t must be two distinct vertices"),
    # path(30) is past every vertex budget of cmc: r is refused before the budget
    "cmc-r0": (lambda _: cmc(path(30), 0), TooSmallError, "r=0 must be at least 1"),
    "connected_cut_bound-r0": (lambda _: connected_cut_bound(C4, 0), TooSmallError,
                               "r=0 must be at least 1"),
    "connected_cut_bound-r-negative": (lambda _: connected_cut_bound(C4, -1), TooSmallError,
                                       "r=-1 must be at least 1"),
    "read_graph-comments-only": (lambda f: read_graph(io.StringIO(f.read_text())), ParseError,
                                 "empty graph file"),
    "cli-exact-comments-only": (exact_exit, SystemExit, "exit 3: error: empty graph file"),
    "recursive_k_partitions-k1": (lambda _: recursive_k_partitions(C4, 1), TooSmallError,
                                  "k must be >= 2"),
    "dense_core-empty-graph": (lambda _: dense_core(Graph(0, [])), ConstructionFailedError,
                               "peeling emptied the graph"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_refuses_its_input(guard, tmp_path):
    call, error, message = GUARDS[guard]
    comments = tmp_path / "comments.txt"
    comments.write_text("# a comment\n\n  # and an indented one\n")
    with pytest.raises(error, match=message):
        call(comments)
