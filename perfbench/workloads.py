"""The three workloads: seeded inputs, the ops that run on them, and the checks
of their outputs.

``BUILDERS[name](seed, workdir)`` returns one pass as a list of ``Op``.  An op's
``make`` builds its input afresh from plain data, outside the timed region, so
the lazy caches of a ``Graph`` never carry over from one pass to the next.
``call`` is the timed region: one call into the public API or one ``partctl``
command, called in-process.  ``digest`` turns the output into a plain value
that later passes must reproduce, and ``check`` validates the first pass's
digest with the independent checks of ``checks.py``.

The seed draws every random graph.  Sizes are fixed per family, and in
exact-p2 the structured instances, the same for every seed, carry most of
the cost, so run-to-run figures move with the program rather than the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
from partctl import arith, bounds, cli, exact, families, splits
from partctl.graph import Graph, RootedTree, write_graph

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    kind: str
    label: str
    make: Callable[[], object]
    call: Callable[[object], object]
    digest: Callable[[object], object]
    check: Callable[[object], object]


def fresh(G):
    return Graph(G.n, G.edges)


def masks(id_lists):
    out = []
    for ids in id_lists:
        m = 0
        for i in ids:
            m |= 1 << i
        out.append(m)
    return out


def _seeds(rng, count):
    return [rng.randrange(1 << 30) for _ in range(count)]


# ------------------------------------------------------------------ exact-p2

def twin_cliques(size, drop, path=1):
    """Root 0 joined by a path of ``path`` edges to one vertex of each of two
    K_size cliques, with the last ``drop`` edges of each clique removed."""
    edges, n = [], 1
    for _ in range(2):
        prev = 0
        for _ in range(path - 1):
            edges.append((prev, n))
            prev, n = n, n + 1
        clique = list(range(n, n + size))
        n += size
        edges.append((prev, clique[0]))
        pairs = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]]
        edges += pairs[: len(pairs) - drop]
    return Graph(n, sorted(edges))


def binary_tree_chords(height, chords):
    """Complete binary tree (heap labels) with ``chords`` sibling-leaf edges,
    spread evenly over the leaves."""
    n = 2 ** (height + 1) - 1
    edges = [((v - 1) // 2, v) for v in range(1, n)]
    pairs = [(a, a + 1) for a in range(n // 2, n, 2)]
    edges += [pairs[i * len(pairs) // chords] for i in range(chords)]
    return Graph(n, sorted(edges))


def structured_p2():
    """The seed-independent exact-p2 instances, by label.

    Their costs fall off smoothly from about two seconds to a few
    milliseconds, so the p90 op (the 11th slowest of each pass) sits among
    neighbours of similar cost and does not jump when one instance speeds up.
    """
    G, e = families.make_nonmonotone_example()
    eid = G.edge_id(*e)
    return {
        # the twin-clique ladder: the balanced key sits in the last branch,
        # so the search runs long before the size-range prune can stop it
        **{f"ladder-K6-drop{d}": twin_cliques(6, d) for d in (6, 5, 4, 3, 2)},
        **{f"twin-K5-path{p}": twin_cliques(5, 0, p) for p in range(1, 7)},
        "twin-K5-drop1-path1": twin_cliques(5, 1, 1),
        "nonmonotone": G,
        "nonmonotone-minus-edge": Graph(G.n, [ed for i, ed in enumerate(G.edges) if i != eid]),
        "binary-clique-1-1": families.make_binary_clique_graph(1, 1),
        "binary-clique-2-1": families.make_binary_clique_graph(2, 1),
        **{f"bintree5-chords{c}": binary_tree_chords(5, c) for c in (0, 2, 8, 16)},
    }


RANDOM_P2 = 80  # with the 20 structured instances, 100 ops per pass


def build_exact_p2(seed, workdir):
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["exact-p2"]
    rng = random.Random(seed)
    graphs = list(structured_p2().items())
    for i, s in enumerate(_seeds(rng, RANDOM_P2)):
        m = 26 + i % 7
        graphs.append((f"random-n20-m{m}-{s}", families.random_connected_graph(20, m, seed=s)))
    ops = []
    for idx, (label, G) in enumerate(graphs):
        text = io.StringIO()
        write_graph(G, text)
        inp = os.path.join(workdir, f"g{idx}.txt")
        argv = ["exact", "--what", "P", "--k", "2", "--max-size", str(G.m), "--input", inp]
        ops.append(Op(
            kind="cli-exact-P2",
            label=label,
            make=lambda argv=argv, inp=inp, text=text.getvalue(): _write_input(argv, inp, text),
            call=_captured_main,
            digest=lambda res: res,
            check=lambda d, G=G, ref=reference.get(label): _check_p2_json(G, d, ref),
        ))
    rng.shuffle(ops)
    return ops


def _write_input(argv, path, text):
    # Creating a file on a shared disk takes anywhere from 0.1 to 1 ms,
    # so the graph file is written here, outside both setup and the timed
    # call, and the CLI's JSON goes to captured stdout rather than --out.
    with open(path, "w") as fh:
        fh.write(text)
    return list(argv)


def _check_p2_json(G, digest, ref):
    code, text = digest
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(text)
    prof = [tuple(k) for k in doc["profile"]]
    if doc["value"] != len(prof) or len(set(prof)) != len(prof):
        return "value does not match profile"
    if ref is not None and sorted(prof) != sorted(tuple(k) for k in ref):
        return f"profile differs from the frozen reference ({len(prof)} vs {len(ref)} keys)"
    if sorted(doc["witness"]) != sorted(",".join(map(str, k)) for k in prof):
        return "witness keys differ from profile"
    view = checks.View(G)
    for key, parts in doc["witness"].items():
        bad = view.edge_partition(masks(parts), key=tuple(map(int, key.split(","))), k=2)
        if bad:
            return f"witness {key}: {bad}"
    return None


# --------------------------------------------------------------- exact-sweep

# (kind, count, n, m, function); sizes keep one pass near five seconds on a
# 2-vCPU host while every op still enumerates thousands of search nodes.
# An op's cost varies widely with the drawn graph, so the pass holds 300 of
# them, enough that its median and p90 hardly move with the seed.
SWEEP = (
    ("P3", 42, 8, 11, lambda G: exact.edge_partition_profile(G, 3)),
    ("pi3", 54, 13, 18, lambda G: exact.vertex_partition_profile(G, 3)),
    ("cmc3", 54, 12, 18, lambda G: exact.cmc(G, 3)),
    ("cmc2", 60, 16, 25, lambda G: exact.cmc(G, 2)),
    ("pi2", 90, 20, 30, lambda G: exact.vertex_partition_profile(G, 2)),
)


def build_exact_sweep(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for kind, count, n, m, fn in SWEEP:
        for s in _seeds(rng, count):
            G = families.random_connected_graph(n, m, seed=s)
            if kind.startswith("cmc"):
                r = int(kind[3:])
                digest, check = _cut_digest, (lambda d, G=G, r=r: _check_cmc(G, d, r))
            else:
                k = int(kind[-1])
                edges = kind.startswith("P")
                digest = _profile_digest
                check = lambda d, G=G, k=k, edges=edges: _check_profile(G, d, k, edges)
            ops.append(Op(kind, f"{kind}-n{n}-m{m}-{s}", lambda G=G: fresh(G), fn, digest, check))
    rng.shuffle(ops)
    return ops


def _profile_digest(res):
    return tuple(sorted((key, tuple(res.witnesses[key])) for key in res.profile))


def _cut_digest(w):
    return (w.cut_size, tuple(w.parts))


def _check_profile(G, digest, k, edges):
    total = G.m if edges else G.n
    view = checks.View(G)
    validate = view.edge_partition if edges else view.vertex_partition
    for key, parts in digest:
        if len(key) != k or sum(key) != total:
            return f"malformed key {key}"
        bad = validate(list(parts), key=key, k=k)
        if bad:
            return f"witness {key}: {bad}"
    return None if digest else "empty profile"


def _check_cmc(G, digest, r):
    cut, parts = digest
    view = checks.View(G)
    bad = view.vertex_partition(list(parts), k=r)
    if bad:
        return bad
    if view.cut_edges(parts) != cut:
        return f"cut recount {view.cut_edges(parts)} != reported {cut}"
    lower = bounds.connected_cut_bound(G, r).cut_size
    if cut < lower:
        return f"cmc {cut} below the constructive witness {lower}"
    return None


# ----------------------------------------------------------------- pipelines

def cored_graph(n, n_core, m_core, seed):
    """A dense random core on ids 0..n_core-1 with a random tree periphery:
    every later vertex hangs off a uniformly chosen earlier one."""
    rng = random.Random(seed)
    core = families.random_connected_graph(n_core, m_core, seed=seed)
    edges = list(core.edges) + [(rng.randrange(v), v) for v in range(n_core, n)]
    return Graph(n, edges)


CHECK_LIMIT = 40  # partitions validated per op, evenly spaced; the program validates all


def build_pipelines(seed, workdir):
    rng = random.Random(seed)
    ops = []

    def add(kind, label, G, fn, check, tree=False):
        make = (lambda: RootedTree(fresh(G.graph), G.root)) if tree else (lambda: fresh(G))
        digest = _parts_digest if kind in _PARTS_KINDS else _plain_digest
        ops.append(Op(kind, label, make, fn, digest, check))

    # Sizes are fixed within each family, so every op kind forms a plateau
    # of near-equal costs.  The counts put the median op mid-way through the
    # plateau of tree profiles and path cuts, and the p90 op among the
    # ordered vertex partitions, so that neither moves much with the seed.
    # dense graphs: tree packing plus emission of every composition
    for (n, m, k), s in zip(((40, 300, 2), (48, 400, 2), (40, 300, 3)), _seeds(rng, 3)):
        G = families.random_connected_graph(n, m, seed=s)
        add(f"packing-k{k}", f"dense-n{n}-m{m}-{s}", G,
            lambda G, k=k: bounds.packing_partitions(G, k),
            lambda d, G=G, k=k: _check_reported(G, d, k, edges=True, exact_ok=False))
    # dense core with a tree periphery
    for s in _seeds(rng, 24):
        _add_cut_family(add, f"cored-n350-{s}", cored_graph(350, 30, 120, s), exact_ok=False)
    for s in _seeds(rng, 9):
        G = cored_graph(120, 30, 120, s)
        add("rkp3", f"cored-n120-{s}", G, lambda G: splits.recursive_k_partitions(G, 3),
            lambda d, G=G: _check_family(G, d, 3, edges=True, exact_ok=False, distinct_ordered=True))
    # random trees: split sequences and the tree families
    for s in _seeds(rng, 33):
        T = families.random_tree(700, seed=s)
        label = f"tree-n700-{s}"
        add("split-seq", label, T, _split_sequence_checked,
            lambda d, T=T: _check_split_seq(T, d), tree=True)
        add("tree-lb", label, T, lambda T: splits.tree_lower_bound_partitions(T),
            lambda d, T=T: _check_tree_lb(T, d), tree=True)
        add("tree-p2", label, T, lambda T: splits.tree_exact_P2(T),
            lambda d, T=T: _check_tree_p2(T, d), tree=True)
    # small graphs inside the exact budgets, so every emitted profile is
    # checked against the exact oracle
    for s in _seeds(rng, 9):
        _add_cut_family(add, f"small-n12-m24-{s}",
                        families.random_connected_graph(12, 24, seed=s), exact_ok=True)
        D = families.random_connected_graph(9, 30, seed=s)
        add("packing-k2", f"small-n9-m30-{s}", D, lambda G: bounds.packing_partitions(G, 2),
            lambda d, G=D: _check_reported(G, d, 2, edges=True, exact_ok=True))
        S = families.random_connected_graph(8, 12, seed=s)
        add("rkp3", f"small-n8-m12-{s}", S, lambda G: splits.recursive_k_partitions(G, 3),
            lambda d, G=S: _check_family(G, d, 3, edges=True, exact_ok=True, distinct_ordered=True))
    rng.shuffle(ops)
    # the t-table suite, cold as every CLI user meets it, last in the pass
    ops.append(Op("cli-verify-t-table", "t-table", _cold_t_table_argv, _captured_main,
                  _t_table_digest, _check_t_table))
    return ops


_PARTS_KINDS = ("packing-k2", "packing-k3", "pathcut", "ovp3")


def _add_cut_family(add, label, G, exact_ok):
    add("pathcut", label, G, lambda G: bounds.path_cut_partitions(G),
        lambda d: _check_reported(G, d, 2, edges=True, exact_ok=exact_ok))
    for r in (2, 3):
        add(f"ccb{r}", label, G, lambda G, r=r: bounds.connected_cut_bound(G, r),
            lambda d, r=r: _check_cut_bound(G, d, r, exact_ok))
    add("ovp3", label, G, lambda G: bounds.ordered_vertex_partitions(G, 3),
        lambda d: _check_reported(G, d, 3, edges=False, exact_ok=exact_ok, distinct_ordered=True))


def _parts_digest(res):
    parts, report = res
    return (tuple(map(tuple, parts)), tuple(sorted(vars(report).items(), key=str)))


def _plain_digest(res):
    if isinstance(res, splits.SplitSequence):
        return tuple(res.items)
    if isinstance(res, exact.CutWitness):
        return (res.cut_size, tuple(res.parts))
    if isinstance(res, set):
        return tuple(sorted(res))
    if isinstance(res, list):
        return tuple(map(tuple, res))
    return res


def _split_sequence_checked(T):
    seq = splits.nested_split_sequence(T)
    seq.check()
    return seq


def _cold_t_table_argv():
    # drop the package's memo tables so this op builds them as a new process does
    for name, val in vars(arith).items():
        if name.startswith("_") and not name.startswith("__") and isinstance(val, dict):
            val.clear()
    return ["verify", "--suite", "t-table"]


def _captured_main(argv):
    """``partctl <argv>`` in-process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return (code, buf.getvalue())


def _t_table_digest(res):
    code, out = res
    return (code, out.splitlines()[-1].rsplit(" time=", 1)[0])


def _check_t_table(d):
    code, summary = d
    return None if code == 0 and "failures=0" in summary else f"t-table suite: {summary}"


def _exact_keys(G, k, edges):
    return (exact.edge_partition_profile(G, k) if edges else exact.vertex_partition_profile(G, k)).profile


def _check_family(G, parts_list, k, edges, exact_ok, distinct_ordered=False):
    """Partitions of a constructive family: right shape, each one valid (up to
    CHECK_LIMIT of them, evenly spaced), keys inside the exact profile when
    the graph fits the exact budget."""
    if not parts_list:
        return "nothing emitted"
    if distinct_ordered:
        vecs = [tuple(p.bit_count() for p in parts) for parts in parts_list]
        if len(set(vecs)) != len(vecs):
            return "repeated ordered size vector"
    view = checks.View(G)
    validate = view.edge_partition if edges else view.vertex_partition
    for parts in checks.spread(parts_list, CHECK_LIMIT):
        bad = validate(list(parts), k=k)
        if bad:
            return bad
    if exact_ok:
        extra = {checks.key_of(p) for p in parts_list} - _exact_keys(G, k, edges)
        if extra:
            return f"emitted keys outside the exact profile: {sorted(extra)[:3]}"
    return None


def _check_reported(G, d, k, edges, exact_ok, distinct_ordered=False):
    parts_list, report = d
    report = dict(report)
    if report.get("emitted", report.get("succeeded")) != len(parts_list):
        return "report count differs from partitions returned"
    return _check_family(G, parts_list, k, edges, exact_ok, distinct_ordered)


def _check_cut_bound(G, d, r, exact_ok):
    cut, parts = d
    view = checks.View(G)
    bad = view.vertex_partition(list(parts), k=r)
    if bad:
        return bad
    if view.cut_edges(parts) != cut:
        return "cut recount differs"
    if exact_ok and cut > exact.cmc(G, r).cut_size:
        return "constructive cut exceeds the exact cmc"
    return None


def t_reference(n):
    """t(n) from its defining recurrence (d <= 3 suffices for n >= 4)."""
    t = [0, 0, 1, 2]
    for x in range(4, n + 1):
        t.append(min(d + t[-(-(x - 1) // d)] for d in (1, 2, 3)))
    return t[n]


def _check_split_seq(T, items):
    view = checks.View(T.graph)
    full = (1 << view.n) - 1
    if not items or items[0][2] != T.root:
        return "sequence does not start at the root"
    for A, B, v in items:
        if A & B != 1 << v or A | B != full:
            return "A and B do not meet exactly in the pivot"
        if not (view.connected_vertices(checks.ids(A)) and view.connected_vertices(checks.ids(B))):
            return "A or B disconnected"
    for (A1, B1, _), (A2, B2, _) in zip(items, items[1:]):
        if A2 & ~A1 or A1 == A2 or B1 & ~B2 or B1 == B2:
            return "A does not shrink or B does not grow"
    if len(items) < t_reference(view.n) + 1:
        return "sequence shorter than t(n) + 1"
    return None


def _check_tree_lb(T, parts_list):
    keys = [checks.key_of(p) for p in parts_list]
    if len(set(keys)) != len(keys):
        return "repeated size pair"
    if len(keys) < t_reference(T.n) - 2:
        return "fewer than t(n) - 2 partitions"
    if not set(keys) <= splits.tree_exact_P2(T):
        return "size pairs outside the exact tree profile"
    return _check_family(T.graph, parts_list, 2, edges=True, exact_ok=False)


def _check_tree_p2(T, keys):
    m = T.graph.m
    if not keys or any(a < b or b < 1 or a + b != m for a, b in keys):
        return "malformed tree profile"
    if (m - 1, 1) not in keys:
        return "leaf split missing"
    return None


BUILDERS = {
    "exact-p2": build_exact_p2,
    "exact-sweep": build_exact_sweep,
    "pipelines": build_pipelines,
}
