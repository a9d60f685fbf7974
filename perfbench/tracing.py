"""Layer tracing from outside the program.

Every public function of the traced ``partctl`` modules is replaced, in every
module namespace that holds a reference to it, by a wrapper that records a
span (name, start, end, parent span, op id).  A few ``Graph`` and
``SplitSequence`` methods that do real work are wrapped on their class.
Nothing in ``src/`` is changed; ``uninstall`` puts the originals back.

Generator functions (``graph.bits``, ``exact.iter_connected_vertex_partitions``)
are left unwrapped: their work runs while the caller iterates, so it is
charged to the caller.  Constructors (``Graph``, ``RootedTree``) are likewise
charged to their caller.

Spans live in flat ``array`` columns, so a pass with a million graph calls
costs tens of megabytes, not hundreds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("op", "graph", "arith", "splits", "exact", "bounds", "families", "cli")
TRACED_MODULES = ("graph", "arith", "splits", "exact", "bounds", "families", "cli")
# methods that do work proportional to the graph; O(1) accessors stay bare
METHODS = {
    ("graph", "Graph"): ("edge_adjacency", "edge_set_of_vertices", "induced", "edge_id"),
    ("splits", "SplitSequence"): ("check",),
}
VALIDATORS = ("splits.validate_edge_partition", "exact.validate_vertex_partition")
# bounds functions whose result is (partitions, report)
BOUNDS_FAMILIES = ("path_cut_partitions", "packing_partitions", "ordered_vertex_partitions")

_now = time.perf_counter_ns


class Tracer:
    """Span store plus the wrappers that fill it.

    The wrappers are installed only around traced work, so untraced passes
    and output checks run the bare program.
    """

    def __init__(self):
        self.op = -1
        self.names = []  # name id -> qualified name
        self.name_layer = array("b")
        self.name_ids = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.result_counts = {}  # qualified name -> summed result size
        self.stack = []
        self._restore = []

    # ---------------------------------------------------------- recording

    def name_id(self, layer, name):
        key = f"{layer}.{name}"
        nid = self.name_ids.get(key)
        if nid is None:
            nid = len(self.names)
            self.names.append(key)
            self.name_layer.append(LAYERS.index(layer))
            self.name_ids[key] = nid
        return nid

    def enter(self, nid):
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_op.append(self.op)
        self.s_end.append(0)
        self.stack.append(idx)
        self.s_start.append(_now())
        return idx

    def exit(self, idx):
        self.s_end[idx] = _now()
        self.stack.pop()

    def clear(self):
        for col in (self.s_name, self.s_parent, self.s_op, self.s_start, self.s_end):
            del col[:]
        self.result_counts = {}

    def count_result(self, key, n):
        self.result_counts[key] = self.result_counts.get(key, 0) + n

    # ---------------------------------------------------------- wrappers

    def _wrap(self, layer, fn, counter=None):
        nid = self.name_id(layer, fn.__name__)
        tracer = self
        key = self.names[nid]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.enter(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if counter is not None:
                tracer.count_result(key, counter(res))
            return res

        return wrapper

    def install(self):
        mods = {name: importlib.import_module(f"partctl.{name}") for name in TRACED_MODULES}
        pkg = importlib.import_module("partctl")
        wrapped = {}  # id(original) -> wrapper
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not obj.__name__.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrapped[id(obj)] = self._wrap(name, obj, _counter(name, obj.__name__))
        for (modname, clsname), methods in METHODS.items():
            cls = getattr(mods[modname], clsname)
            for meth in methods:
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(modname, orig, _counter(modname, meth)))
                self._restore.append((cls, meth, orig))
        # rebind every namespace that holds one of the originals, including
        # names imported across modules (e.g. partctl.exact.components)
        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # ---------------------------------------------------------- analysis

    def summarize(self):
        """Per-layer aggregates of the spans recorded since the last clear."""
        n = len(self.s_name)
        layer_of = [self.name_layer[nid] for nid in self.s_name]
        dur = [self.s_end[i] - self.s_start[i] for i in range(n)]
        child = [0] * n
        anc = [0] * n  # bitmask of layers on the path above each span
        parent = self.s_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                anc[i] = anc[p] | (1 << layer_of[p])
        nl = len(LAYERS)
        calls = [0] * nl
        self_ns = [0] * nl
        busy_ns = [0] * nl
        by_name_busy = {}
        by_name_calls = {}
        cross = {}  # (parent layer, child layer) -> calls
        validations_from_bounds = 0
        validators = {self.name_ids.get(v) for v in VALIDATORS}
        bounds_l = LAYERS.index("bounds")
        for i in range(n):
            lay = layer_of[i]
            calls[lay] += 1
            self_ns[lay] += dur[i] - child[i]
            outermost = not (anc[i] >> lay) & 1
            if outermost:
                busy_ns[lay] += dur[i]
            nid = self.s_name[i]
            by_name_calls[nid] = by_name_calls.get(nid, 0) + 1
            # summed span time: exact for the functions read from it
            # (dense_core, spanning_tree_packing, check), which never recurse
            by_name_busy[nid] = by_name_busy.get(nid, 0) + dur[i]
            p = parent[i]
            if p >= 0:
                pl = layer_of[p]
                cross[(pl, lay)] = cross.get((pl, lay), 0) + 1
                if pl == bounds_l and nid in validators:
                    validations_from_bounds += 1
        return {
            "spans": n,
            "calls": {LAYERS[i]: calls[i] for i in range(nl)},
            "self_s": {LAYERS[i]: self_ns[i] / 1e9 for i in range(nl)},
            "busy_s": {LAYERS[i]: busy_ns[i] / 1e9 for i in range(nl)},
            "name_calls": {self.names[k]: v for k, v in by_name_calls.items()},
            "name_busy_s": {self.names[k]: v / 1e9 for k, v in by_name_busy.items()},
            "cross_calls": {f"{LAYERS[a]}->{LAYERS[b]}": v for (a, b), v in cross.items()},
            "bounds_validations": validations_from_bounds,
            "result_counts": dict(self.result_counts),
        }

    def write_spans(self, path):
        """Tab-separated spans: id, op, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.s_name)):
                fh.write(
                    f"{i}\t{self.s_op[i]}\t{self.s_parent[i]}\t{names[self.s_name[i]]}"
                    f"\t{self.s_start[i]}\t{self.s_end[i]}\n"
                )


def _counter(layer, name):
    """Size of a result that a deterministic counter sums, or None."""
    if layer == "exact" and name in ("edge_partition_profile", "vertex_partition_profile"):
        return lambda res: len(res.profile)
    if layer == "bounds" and name in BOUNDS_FAMILIES:
        return lambda res: len(res[0])
    if layer == "bounds" and name == "connected_cut_bound":
        return lambda res: 1
    if layer == "splits" and name == "nested_split_sequence":
        return lambda res: len(res.items)
    return None
