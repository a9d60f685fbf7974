"""Command-line interface: exact solvers, constructive bounds, family
generators, the t-table, split sequences, and the verification harness.

Exit codes: 0 ok, 2 usage, 3 input/parse, 4 budget exceeded, 5 internal
check or verification failure.  All JSON output carries "schema":"partctl/1".
"""

from __future__ import annotations

import argparse
import bisect
import functools
import math
import random
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import arith, bounds, exact, families, splits
from .errors import (
    ConstructionFailedError,
    PackingInfeasibleError,
    ParseError,
    PartctlError,
    TooLargeError,
)
from .graph import Graph, bits, read_graph, write_graph, RootedTree

SCHEMA = "partctl/1"

EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_CHECK = 5


def _to_json(x, pad="\n"):
    """The bytes json writes for ``x`` with ``indent=2``, for str-keyed dicts,
    lists, tuples, str, bool, None, int and float; anything else is a
    TypeError.  With any indent CPython's json runs its pure-Python encoder, a
    generator per container; here a list of plain ints is joined in one step."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):  # json's rule: repr, or its names for nan and inf
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    if not isinstance(x, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    inner = pad + "  "
    if isinstance(x, dict):  # encode_basestring_ascii refuses a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + _to_json(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if {*map(type, x)} == {int}:
        return "[" + inner + ("," + inner).join(map(int.__repr__, x)) + pad + "]"
    return "[" + inner + ("," + inner).join([_to_json(v, inner) for v in x]) + pad + "]"


def _emit(payload, out=None):
    text = _to_json({"schema": SCHEMA, **payload})
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_graph(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return read_graph(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror or exc})") from exc


def _witness_json(witnesses):
    return {
        ",".join(map(str, key)): [list(bits(p)) for p in parts]
        for key, parts in sorted(witnesses.items(), reverse=True)
    }


# ---------------------------------------------------------------- commands


def cmd_exact(args):
    G = _load_graph(args.input)
    if args.what in ("P", "pi"):
        solve = {"P": exact.edge_partition_profile, "pi": exact.vertex_partition_profile}
        res = solve[args.what](G, args.k, args.max_size)
        payload = {
            "what": args.what,
            "k": args.k,
            "value": res.value,
            "profile": sorted(res.profile, reverse=True),
            "witness": _witness_json(res.witnesses),
        }
    else:  # cmc
        w = exact.cmc(G, r=args.r, max_vertices=args.max_size)
        payload = {
            "what": "cmc",
            "r": args.r,
            "value": w.cut_size,
            "witness": {"parts": [list(bits(p)) for p in w.parts]},
        }
    _emit(payload, args.out)
    return 0


def cmd_bounds(args):
    G = _load_graph(args.input)
    if args.method == "pathcut":
        parts, rep = bounds.path_cut_partitions(G)
        payload = {
            "method": "pathcut",
            "report": vars(rep),
            "profiles": sorted({splits.profile_of(ps) for ps in parts}, reverse=True),
        }
    elif args.method == "packing":
        try:
            parts, rep = bounds.packing_partitions(G, args.k)
        except PackingInfeasibleError as exc:
            payload = {
                "method": "packing",
                "k": args.k,
                "feasible": False,
                "reason": str(exc),
                "forest_sizes": [f.bit_count() for f in exc.forests],
            }
        else:
            payload = {
                "method": "packing",
                "k": args.k,
                "feasible": True,
                "report": vars(rep),
                "profiles": sorted({splits.profile_of(ps) for ps in parts}, reverse=True),
            }
    elif args.method == "cmc":
        w = bounds.connected_cut_bound(G, r=args.r)
        payload = {
            "method": "cmc",
            "r": args.r,
            "cut_size": w.cut_size,
            "parts": [list(bits(p)) for p in w.parts],
        }
    else:  # pi
        parts, rep = bounds.ordered_vertex_partitions(G, args.k)
        payload = {
            "method": "pi",
            "k": args.k,
            "report": vars(rep),
            "size_vectors": [[p.bit_count() for p in ps] for ps in parts],
        }
    _emit(payload, args.report)
    return 0


def _nonmonotone_example(args):
    G, (u, v) = families.make_nonmonotone_example()
    return G, f"distinguished_edge={u},{v}"


# each --name: its graph and the rest of its "# <name> ..." line, from the args
FAMILIES = {
    "T_ell": lambda a: (families.make_T_ell(a.ell).graph, f"ell={a.ell}"),
    "ternary": lambda a: (families.make_complete_ternary(a.height).graph, f"height={a.height}"),
    "binary_clique": lambda a: (families.make_binary_clique_graph(a.h1, a.h2),
                                f"h1={a.h1} h2={a.h2}"),
    "nonmonotone_example": _nonmonotone_example,
    "random_tree": lambda a: (families.random_tree(a.n, seed=a.seed).graph,
                              f"n={a.n} seed={a.seed}"),
    "random_connected": lambda a: (families.random_connected_graph(a.n, a.m, seed=a.seed),
                                   f"n={a.n} m={a.m} seed={a.seed}"),
}


def cmd_family(args):
    G, rest = FAMILIES[args.name](args)

    def dump(fh):
        fh.write(f"# {args.name} {rest}\n")
        write_graph(G, fh)

    if args.out:
        with open(args.out, "w") as fh:
            dump(fh)
    else:
        dump(sys.stdout)
    return 0


def cmd_tseq(args):
    runs = arith.t_runs(args.max)
    if args.intervals:
        # the last run is dropped: --max may cut it short
        lines = (f"{h},{lo},{hi}\n" for h, (_, lo, hi) in enumerate(runs[:-1]))
        sys.stdout.writelines(chain(["h,lo,hi\n"], lines))
    else:
        lines = (f"{n},{v}\n" for v, lo, hi in runs for n in range(lo, hi + 1))
        sys.stdout.writelines(chain(["n,t\n"], lines))
    return 0


def cmd_splits(args):
    G = _load_graph(args.input)
    T = RootedTree(G, args.root)
    seq = splits.nested_split_sequence(T)
    seq.check()
    payload = {
        "n": G.n,
        "root": args.root,
        "length": len(seq),
        "items": [
            {"A": list(bits(A)), "B": list(bits(B)), "v": v}
            for A, B, v in seq.items
        ],
    }
    _emit(payload, args.out)
    return 0


def cmd_tree_p2(args):
    G = _load_graph(args.input)
    profile = splits.tree_exact_P2(RootedTree(G, 0))
    lines = (f"{a},{b}\n" for a, b in sorted(profile, reverse=True))
    sys.stdout.writelines(chain(["larger,smaller\n"], lines))
    return 0


# ---------------------------------------------------------------- verify


def _record(name, ok, lhs=None, rhs=None, spec=None):
    return {"check": name, "ok": bool(ok), "lhs": lhs, "rhs": rhs, "spec": spec}


def verify_t_table(seed=0):
    """t up to 10^6, checked on its runs from ``arith.t_runs``."""
    capacity = 10**6
    runs = arith.t_runs(capacity)
    los = [lo for _, lo, _ in runs]
    vals = [v for v, _, _ in runs]
    tiled = los == [1] + [hi + 1 for _, _, hi in runs[:-1]] and runs[-1][2] == capacity
    yield _record(
        "monotone",
        tiled and all(lo <= hi for _, lo, hi in runs) and vals == sorted(vals),
        spec=f"capacity={capacity}",
    )

    def t_at(n):
        return vals[bisect.bisect_right(los, n) - 1]

    # the d=3 identity fails at exactly n=11 and n=23 (there d=2 wins by one);
    # it holds everywhere else, which is what the check pins down.  Both sides
    # are constant between the starts of t's runs and of 3 + t((n-2)//3 + 1)'s,
    # which are 3*lo - 1; each stretch where they differ adds its first 11 n,
    # enough for the first 10 and to tell the list apart from [11, 23]
    cuts = sorted({11} | {n for lo in los for n in (lo, 3 * lo - 1) if 11 < n <= capacity})
    bad = []
    for a, b in zip(cuts, cuts[1:] + [capacity + 1]):
        if t_at(a) != 3 + t_at((a - 2) // 3 + 1):
            bad += range(a, min(b, a + 11))
    yield _record(
        "recurrence-d3",
        bad == [11, 23],
        lhs=bad[:10],
        rhs=[11, 23],
        spec="t(n)=3+t(ceil((n-1)/3)) for n>=11 except n in {11,23}",
    )
    # the runs' bounds against the closed forms; the last run may be cut short
    intervals = [(lo, hi) for _, lo, hi in runs[:-1]]
    wrong = [h for h in range(8, len(intervals)) if intervals[h] != arith.t_preimage_closed_form(h)]
    for h in wrong:
        yield _record("closed-form", False, lhs=intervals[h],
                      rhs=arith.t_preimage_closed_form(h), spec=f"h={h}")
    if not wrong:
        yield _record("closed-form", True, spec=f"h=8..{len(intervals) - 1}")
    ell = 0
    while 10 * 3**ell <= capacity:
        n = 10 * 3**ell
        yield _record("anchor", t_at(n) == t_at(10) + 3 * ell,
                      lhs=t_at(n), rhs=t_at(10) + 3 * ell, spec=f"ell={ell}")
        ell += 1


def verify_inequalities(seed=0):
    rng = random.Random(seed)
    for i in range(100):
        n = rng.randint(4, 10)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        gseed = seed * 100003 + i
        G = families.random_connected_graph(n, m, seed=gseed)
        spec = f"n={n} m={m} seed={gseed}"
        p2 = exact.edge_partition_profile(G, 2, max_edges=45)
        w = exact.cmc(G, r=2)
        yield _record(
            "P2>=ceil(CMC/2)", p2.value >= -(-w.cut_size // 2),
            lhs=p2.value, rhs=-(-w.cut_size // 2), spec=spec,
        )
        cw = bounds.connected_cut_bound(G, r=2)
        yield _record(
            "cut_bound<=cmc", cw.cut_size <= w.cut_size,
            lhs=cw.cut_size, rhs=w.cut_size, spec=spec,
        )
        two_part = {"pathcut": bounds.path_cut_partitions(G)[0]}
        try:
            two_part["packing"] = bounds.packing_partitions(G, 2)[0]
        except PackingInfeasibleError:
            pass
        for name, parts in two_part.items():
            emitted = {splits.profile_of(ps) for ps in parts}
            yield _record(
                f"{name}<=exactP2", emitted <= p2.profile,
                lhs=sorted(emitted - p2.profile), rhs=None, spec=spec,
            )
        for k in (2, 3):
            pv = exact.vertex_partition_profile(G, k)
            ov, rep = bounds.ordered_vertex_partitions(G, k)
            yield _record(
                f"ceil(ordered/{k}!)<=pi{k}",
                -(-rep.succeeded // math.factorial(k)) <= pv.value,
                lhs=rep.succeeded, rhs=pv.value, spec=spec,
            )


def _split_sequence_record(T, spec):
    try:
        splits.nested_split_sequence(T).check()
        error = None
    except ConstructionFailedError as exc:
        error = str(exc)
    return _record("split_sequence.check", error is None, lhs=error, spec=spec)


def verify_trees(seed=0):
    rng = random.Random(seed)
    for i in range(200):
        n = rng.randint(2, 11)
        tseed = seed * 100003 + i
        T = families.random_tree(n, seed=tseed)
        spec = f"n={n} seed={tseed}"
        fast = splits.tree_exact_P2(T)
        brute = exact.edge_partition_profile(T.graph, 2).profile
        yield _record(
            "tree_exact_P2==brute", fast == brute,
            lhs=len(fast), rhs=len(brute), spec=spec,
        )
        yield _split_sequence_record(T, spec)
    # paths and caterpillars with ids shuffled and random roots: the deepest
    # split walks, several of whose branches are reached through a parent
    for i in range(20):
        n = rng.randint(2, 1000)
        spine = n if i % 2 else rng.randint(1, n)
        ids = rng.sample(range(n), n)
        edges = [(ids[j], ids[j + 1]) for j in range(spine - 1)]
        edges += [(ids[rng.randrange(spine)], ids[j]) for j in range(spine, n)]
        T = RootedTree(Graph(n, edges), rng.randrange(n))
        spec = f"{'path' if spine == n else 'caterpillar'} n={n} spine={spine} root={T.root}"
        yield _split_sequence_record(T, spec)
        lb = splits.tree_lower_bound_partitions(T)
        pairs = {splits.profile_of(p) for p in lb}
        need = arith.t_value(n) - 2
        yield _record(
            "tree_lb>=t(n)-2", len(pairs) == len(lb) >= need and pairs <= splits.tree_exact_P2(T),
            lhs=len(pairs), rhs=need, spec=spec,
        )


def verify_constr_upper(seed=0):
    k = 2
    for h1, h2 in [(1, 1), (2, 1), (1, 2)]:
        G = families.make_binary_clique_graph(h1, h2)
        m_expect = 2 ** (h1 + 1) - 2 + 2**h1 * math.comb(2 ** (h2 + 1) - 1, 2)
        yield _record(
            "edge-count", G.m == m_expect,
            lhs=G.m, rhs=m_expect, spec=f"h1={h1} h2={h2}",
        )
        res = exact.edge_partition_profile(G, k, max_edges=max(G.m, 40))
        bound = 2 ** (k * k) * sum(
            2 ** (i * (2 * h2 + 1)) * h1 ** (k - 1 - i) for i in range(k)
        )
        yield _record(
            "P<=size-choice-bound", res.value <= bound,
            lhs=res.value, rhs=bound, spec=f"h1={h1} h2={h2} k={k}",
        )


def verify_erdos_lehner(seed=0):
    for n, k in [(100, 2), (100, 3)]:
        ratio = arith.count_partitions(n, k) / arith.erdos_lehner_estimate(n, k)
        yield _record(
            "erdos-lehner-ratio", abs(ratio - 1.0) <= 0.1,
            lhs=round(ratio, 6), rhs=1.0, spec=f"n={n} k={k}",
        )


SUITES = {
    "t-table": verify_t_table,
    "inequalities": verify_inequalities,
    "trees": verify_trees,
    "constr-upper": verify_constr_upper,
    "erdos-lehner": verify_erdos_lehner,
}


def cmd_verify(args):
    start = time.perf_counter()
    records = list(SUITES[args.suite](seed=args.seed))
    elapsed = time.perf_counter() - start
    if not records:  # a suite that checks nothing must not pass
        print(f"error: suite {args.suite} yielded no check", file=sys.stderr)
        return EXIT_CHECK
    failures = [r for r in records if not r["ok"]]
    width = max(len(r["check"]) for r in records)
    for r in records:
        status = "ok" if r["ok"] else "FAIL"
        extra = f"  ({r['spec']})" if r["spec"] else ""
        cmp_ = ""
        if r["lhs"] is not None and r["rhs"] is not None:
            cmp_ = f"  {r['lhs']} vs {r['rhs']}"
        print(f"{r['check']:<{width}}  {status}{cmp_}{extra}")
    print(
        f"suite={args.suite} seed={args.seed} checks={len(records)} "
        f"failures={len(failures)} time={elapsed:.2f}s"
    )
    if args.out:
        _emit(
            {
                "suite": args.suite,
                "seed": args.seed,
                "elapsed": elapsed,
                "records": records,
                "failures": len(failures),
            },
            args.out,
        )
    return EXIT_CHECK if failures else 0


# ---------------------------------------------------------------- dispatch


def _at_least(low):
    """argparse type: an integer, at least ``low``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


@functools.cache
def build_parser():
    """The ``partctl`` parser, built once per process and shared by every
    ``main`` call: ``parse_args`` keeps no state between calls."""
    p = argparse.ArgumentParser(
        prog="partctl",
        description="exact connected-partition profiles and certified bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("exact", help="exact P / pi / cmc on a graph file")
    q.add_argument("--what", choices=["P", "pi", "cmc"], required=True)
    q.add_argument("--k", type=_at_least(1), default=2)
    q.add_argument("--r", type=_at_least(1), default=2)
    q.add_argument("--max-size", type=_at_least(1), default=None,
                   help="override the edge/vertex budget")
    q.add_argument("--input", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_exact)

    q = sub.add_parser("bounds", help="constructive lower-bound pipelines")
    q.add_argument("--method", choices=["pathcut", "packing", "cmc", "pi"],
                   required=True)
    q.add_argument("--k", type=_at_least(1), default=2)
    q.add_argument("--r", type=_at_least(1), default=2)
    q.add_argument("--input", required=True)
    q.add_argument("--report", default=None, help="write JSON report here")
    q.set_defaults(func=cmd_bounds)

    q = sub.add_parser("family", help="write a named family graph")
    q.add_argument("--name", required=True, choices=list(FAMILIES))
    q.add_argument("--ell", type=int, default=1)
    q.add_argument("--height", type=int, default=2)
    q.add_argument("--h1", type=int, default=1)
    q.add_argument("--h2", type=int, default=1)
    q.add_argument("--n", type=int, default=10)
    q.add_argument("--m", type=int, default=15)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_family)

    q = sub.add_parser("tseq", help="CSV of the t sequence or its intervals")
    q.add_argument("--max", type=_at_least(0), required=True)
    q.add_argument("--intervals", action="store_true")
    q.set_defaults(func=cmd_tseq)

    q = sub.add_parser("splits", help="nested split sequence of a tree (JSON)")
    q.add_argument("--input", required=True)
    q.add_argument("--root", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_splits)

    q = sub.add_parser("tree-p2", help="exact 2-partition profile of a tree (CSV)")
    q.add_argument("--input", required=True)
    q.set_defaults(func=cmd_tree_p2)

    q = sub.add_parser("verify", help="run a verification suite")
    q.add_argument("--suite", required=True, choices=list(SUITES))
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None, help="write the JSON report here")
    q.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConstructionFailedError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (OSError, PartctlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
