"""perfbench's tracer fetches ``partctl`` functions and methods by name, so a
rename or removal in ``src/`` must fail here, not only in a traced benchmark
run."""

import importlib.util
import inspect
from pathlib import Path

import partctl
from partctl import Graph, bounds

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_current_package():
    tracing = _tracing()
    families = {name: getattr(bounds, name, None) for name in tracing.BOUNDS_FAMILIES}
    for name, fn in families.items():
        assert inspect.isfunction(fn), f"bounds.{name} is gone"
    methods = {(cls, meth): cls.__dict__[meth]
               for (modname, clsname), meths in tracing.METHODS.items()
               for cls in [getattr(importlib.import_module(f"partctl.{modname}"), clsname)]
               for meth in meths}

    tracer = tracing.Tracer()
    tracer.install()  # raises KeyError when a traced method is gone
    try:
        for name, fn in families.items():
            assert getattr(bounds, name) is not fn and getattr(partctl, name) is not fn, name
        for (cls, meth), fn in methods.items():
            assert cls.__dict__[meth] is not fn, (cls, meth)
        tracer.op = 0
        G = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        sizes = {"path_cut_partitions": len(partctl.path_cut_partitions(G)[0]),
                 "packing_partitions": len(partctl.packing_partitions(G, 2)[0]),
                 "ordered_vertex_partitions": len(partctl.ordered_vertex_partitions(G, 3)[0])}
        summary = tracer.summarize()
    finally:
        tracer.uninstall()

    assert set(sizes) == set(tracing.BOUNDS_FAMILIES)
    for name, size in sizes.items():
        assert summary["result_counts"][f"bounds.{name}"] == size > 0, name
    assert summary["calls"]["bounds"] >= 3
    for name, fn in families.items():
        assert getattr(bounds, name) is fn and getattr(partctl, name) is fn, name
    for (cls, meth), fn in methods.items():
        assert cls.__dict__[meth] is fn, (cls, meth)
