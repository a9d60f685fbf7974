import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partctl
from partctl import Graph, arith, bounds, cli, families, make_binary_clique_graph, make_nonmonotone_example, splits
from partctl.cli import EXIT_CHECK, SUITES, build_parser, main, _to_json
from partctl.errors import ConstructionFailedError
from partctl.graph import read_graph, write_graph

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def check_golden(code, out, name):
    # pytest.fail, not assert: CI also runs the frozen tests under python -O
    if code != 0 or out != (GOLDEN / name).read_text():
        pytest.fail(f"exit code {code}, or output differs from golden/{name}")


def write_c4(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    return str(p)


def test_exact_c4(tmp_path, capsys):
    code, out, _ = run(capsys, "exact", "--what", "P", "--k", "2",
                       "--input", write_c4(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "partctl/1"
    assert data["value"] == 2
    assert data["profile"] == [[3, 1], [2, 2]]


def test_family_then_exact(tmp_path, capsys):
    g = str(tmp_path / "g.txt")
    code, _, _ = run(capsys, "family", "--name", "nonmonotone_example",
                     "--out", g)
    assert code == 0
    code, out, _ = run(capsys, "exact", "--what", "P", "--k", "2",
                       "--input", g)
    assert code == 0
    assert json.loads(out)["value"] == 8


def test_family_roundtrip_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for f in (a, b):
        run(capsys, "family", "--name", "random_connected",
            "--n", "8", "--m", "12", "--seed", "5", "--out", f)
    with open(a) as fa, open(b) as fb:
        assert fa.read() == fb.read()


# each family at the parser's defaults, built by the library
FAMILY_DEFAULTS = {
    "T_ell": lambda: families.make_T_ell(1).graph,
    "ternary": lambda: families.make_complete_ternary(2).graph,
    "binary_clique": lambda: families.make_binary_clique_graph(1, 1),
    "nonmonotone_example": lambda: families.make_nonmonotone_example()[0],
    "random_tree": lambda: families.random_tree(10, seed=0).graph,
    "random_connected": lambda: families.random_connected_graph(10, 15, seed=0),
}


def test_family_defaults_name_every_family():
    family = next(a for a in build_parser()._actions if a.dest == "command").choices["family"]
    assert next(a for a in family._actions if a.dest == "name").choices == list(FAMILY_DEFAULTS)


@pytest.mark.parametrize("name", FAMILY_DEFAULTS)
def test_family_writes_the_library_graph(tmp_path, capsys, name):
    g = tmp_path / "g.txt"
    code, out, _ = run(capsys, "family", "--name", name)
    assert code == 0 and main(["family", "--name", name, "--out", str(g)]) == 0
    assert g.read_text() == out
    assert read_graph(io.StringIO(out)) == FAMILY_DEFAULTS[name]()


def test_tseq_csv(capsys):
    code, out, _ = run(capsys, "tseq", "--max", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,t"
    assert "16,6" in lines


def test_tseq_intervals(capsys):
    code, out, _ = run(capsys, "tseq", "--max", "100", "--intervals")
    assert code == 0
    assert "6,12,16" in out.splitlines()


def test_splits_json(tmp_path, capsys):
    p = tmp_path / "p4.txt"
    p.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "splits", "--input", str(p), "--root", "0")
    assert code == 0
    data = json.loads(out)
    assert data["length"] == 4
    assert data["items"][0]["v"] == 0


def test_tree_p2_csv(tmp_path, capsys):
    p = tmp_path / "p5.txt"
    p.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    code, out, _ = run(capsys, "tree-p2", "--input", str(p))
    assert code == 0
    assert out.strip().splitlines() == ["larger,smaller", "3,1", "2,2"]


def test_bounds_pathcut(tmp_path, capsys):
    code, out, _ = run(capsys, "bounds", "--method", "pathcut",
                       "--input", write_c4(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["report"]["emitted"] >= 1


def test_bounds_packing_infeasible(tmp_path, capsys):
    code, out, _ = run(capsys, "bounds", "--method", "packing", "--k", "2",
                       "--input", write_c4(tmp_path))
    assert code == 0  # infeasibility is a reported outcome, not an error
    assert json.loads(out)["feasible"] is False


def test_bounds_report_file(tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    code, _, _ = run(capsys, "bounds", "--method", "pi", "--k", "2",
                     "--input", write_c4(tmp_path), "--report", rep)
    assert code == 0
    with open(rep) as fh:
        data = json.load(fh)
    assert data["schema"] == "partctl/1"
    assert data["report"]["succeeded"] >= 1


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "exact", "--what", "P", "--input", str(bad))
    assert code == 3


def test_exit_code_budget(tmp_path, capsys):
    k10 = tmp_path / "k10.txt"
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    k10.write_text("10 45\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, _, _ = run(capsys, "exact", "--what", "P", "--k", "2",
                     "--input", str(k10))
    assert code == 4
    code, out, _ = run(capsys, "exact", "--what", "P", "--k", "2",
                       "--max-size", "45", "--input", str(k10))
    assert code == 0
    assert json.loads(out)["value"] == 22


def test_exit_code_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and all(name in err for name in SUITES)
    with pytest.raises(SystemExit) as exc:
        main(["exact"])  # missing required flags
    assert exc.value.code == 2


def test_exit_code_internal_check(monkeypatch, tmp_path, capsys):
    # K4,4's path prefix is its first two vertices; sorted, 0 and 1 are not adjacent
    g = tmp_path / "k44.txt"
    with g.open("w") as fh:
        write_graph(Graph(8, [(i, j) for i in range(4) for j in range(4, 8)]), fh)
    real = bounds.long_path
    monkeypatch.setattr(bounds, "long_path", lambda G, mask: sorted(real(G, mask)))
    code, out, err = run(capsys, "bounds", "--method", "pathcut", "--input", str(g))
    assert code == 5 and out == ""
    assert err.startswith("error: internal check failed: long path skips from 0 to 1")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # every main() call parses with the one parser: a flag given in one call
    # must not become the next call's default, nor a usage error leave a trace
    c4 = write_c4(tmp_path)
    argv = ["exact", "--what", "P", "--k", "3", "--input", c4]
    code, first, _ = run(capsys, *argv)
    assert code == 0 and json.loads(first)["k"] == 3
    code, out, _ = run(capsys, "exact", "--what", "P", "--input", c4)
    assert code == 0 and json.loads(out)["k"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--what", "P", "--k", "0", "--input", c4])
    assert exc.value.code == 2 and "usage: partctl exact" in capsys.readouterr().err
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == first


def test_module_run_prints_the_in_process_bytes(tmp_path, capsys):
    g = tmp_path / "nonmonotone.txt"
    with open(g, "w") as fh:
        write_graph(make_nonmonotone_example()[0], fh)
    argv = ["exact", "--what", "P", "--k", "2", "--input", str(g)]
    code, out, _ = run(capsys, *argv)
    src = os.path.dirname(os.path.dirname(partctl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "partctl.cli", *argv], env=env,
                          capture_output=True, timeout=60)
    assert code == proc.returncode == 0
    assert proc.stdout == out.encode()


def test_verify_suites_pass(capsys, tmp_path):
    for suite in SUITES:
        out_file = str(tmp_path / f"{suite}.json")
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--out", out_file)
        assert code == 0, suite
        assert "failures=0" in out
        with open(out_file) as fh:
            data = json.load(fh)
        assert data["failures"] == 0
        assert all(r["ok"] for r in data["records"])


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "trees", "--seed", "3")
    _, out2, _ = run(capsys, "verify", "--suite", "trees", "--seed", "3")
    assert out1.splitlines()[:-1] == out2.splitlines()[:-1]  # all but timing


def test_exact_single_part(tmp_path, capsys):
    c4 = write_c4(tmp_path)
    for what, flag in (("P", "--k"), ("pi", "--k"), ("cmc", "--r")):
        code, out, _ = run(capsys, "exact", "--what", what, flag, "1",
                           "--input", c4)
        assert code == 0
        data = json.loads(out)
        if what == "cmc":
            assert data["value"] == 0
            assert data["witness"]["parts"] == [[0, 1, 2, 3]]
        else:
            assert data["profile"] == [[4]]


def test_exact_k3_witnesses_frozen(tmp_path, capsys):
    # the k >= 3 search is not seeded, so its witnesses are the first
    # occurrences of the unpruned scan; a prune that moves one shows here
    g = tmp_path / "nonmonotone.txt"
    with open(g, "w") as fh:
        write_graph(make_nonmonotone_example()[0], fh)
    code, out, _ = run(capsys, "exact", "--what", "P", "--k", "3", "--max-size", "38",
                       "--input", str(g))
    check_golden(code, out, "nonmonotone_P_k3.json")


@pytest.mark.parametrize("max_, intervals", [
    ("100", False), ("100000", True),
    *((m, iv) for m in ("0", "1", "2", "3") for iv in (False, True)),
])
def test_tseq_frozen(capsys, max_, intervals):
    # the intervals drop the last run, which the table may cut short; at
    # --max 0..3 the table holds only t(1..max), so few runs or none remain
    code, out, _ = run(capsys, "tseq", "--max", max_, *(["--intervals"] if intervals else []))
    check_golden(code, out, f"tseq_max{max_}{'_intervals' if intervals else ''}.csv")


def test_verify_t_table_frozen(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "t-table")
    lines = out.splitlines(keepends=True)
    lines[-1] = lines[-1].rsplit(" time=", 1)[0] + "\n"
    check_golden(code, "".join(lines), "verify_t_table.txt")


# perturbations of run 20 of t (t = 20 on 1904..2794, around the ell = 5
# anchor n = 2430): each must fail the suite's run-level checks
def _gap(runs):  # n = 1904 lies in no run
    v, lo, hi = runs[20]
    runs[20] = (v, lo + 1, hi)


def _drop(runs):  # run 20 falls below run 19
    runs[20] = (runs[19][0] - 1, *runs[20][1:])


def _shift(runs):  # run 20 moves up one n, over the first n of run 21
    v, lo, hi = runs[20]
    runs[20] = (v, lo + 1, hi + 1)


def _move_boundary(runs):  # the runs still tile 1..10^6 and never decrease
    (u, a, b), (v, lo, hi) = runs[19:21]
    runs[19:21] = [(u, a, b + 1), (v, lo + 1, hi)]


@pytest.mark.parametrize("perturb, failing", [
    (_gap, {"monotone", "recurrence-d3", "closed-form"}),
    (_drop, {"monotone", "recurrence-d3", "anchor"}),
    (_shift, {"monotone", "recurrence-d3", "closed-form"}),
    (_move_boundary, {"recurrence-d3", "closed-form"}),
])
def test_verify_t_table_fails_on_perturbed_runs(capsys, monkeypatch, perturb, failing):
    real = arith.t_runs

    def perturbed(capacity):
        runs = real(capacity)
        perturb(runs)
        return runs

    monkeypatch.setattr(arith, "t_runs", perturbed)
    code, out, _ = run(capsys, "verify", "--suite", "t-table")
    records = [line.split() for line in out.splitlines()[:-1]]
    assert code == EXIT_CHECK
    assert {r[0] for r in records if r[1] == "FAIL"} == failing


def test_verify_trees_records_a_failing_check(capsys, monkeypatch, tmp_path):
    def fail(self):
        raise ConstructionFailedError("forced failure")

    monkeypatch.setattr(splits.SplitSequence, "check", fail)
    out_file = tmp_path / "trees.json"
    code, out, _ = run(capsys, "verify", "--suite", "trees", "--out", str(out_file))
    failed = [line for line in out.splitlines() if line.split()[:2] == ["split_sequence.check", "FAIL"]]
    checks = [r for r in json.loads(out_file.read_text())["records"]
              if r["check"] == "split_sequence.check"]
    # pytest.fail, not assert: CI also runs the tests under python -O
    if code != EXIT_CHECK or len(failed) != 220 or len(checks) != 220:
        pytest.fail(f"exit code {code}, {len(failed)} FAIL lines, {len(checks)} records")
    if any(r["ok"] or r["lhs"] != "forced failure" for r in checks):
        pytest.fail("a split_sequence.check record does not carry the failure")


def test_verify_fails_a_suite_that_checks_nothing(capsys, monkeypatch, tmp_path):
    def empty(seed=0):
        yield from ()

    monkeypatch.setitem(cli.SUITES, "trees", empty)
    out_file = tmp_path / "trees.json"
    code, out, err = run(capsys, "verify", "--suite", "trees", "--out", str(out_file))
    # pytest.fail, not assert: CI also runs the tests under python -O
    if code != EXIT_CHECK or out or out_file.exists():
        pytest.fail(f"exit code {code}, stdout {out!r}")
    if err != "error: suite trees yielded no check\n":
        pytest.fail(f"stderr {err!r}")


@pytest.mark.parametrize("name, argv", [
    ("pathcut", ("--method", "pathcut")),
    ("packing_k2", ("--method", "packing", "--k", "2")),
    ("cmc_r2", ("--method", "cmc", "--r", "2")),
    ("cmc_r3", ("--method", "cmc", "--r", "3")),
    ("pi_k3", ("--method", "pi", "--k", "3")),
    ("packing_k3", ("--method", "packing", "--k", "3")),
])
def test_bounds_reports_frozen(tmp_path, capsys, name, argv):
    # the dense core of binary_clique(1,2) is 7 of its 15 vertices, so each
    # pipeline works on a proper vertex mask of the input graph
    g = tmp_path / "binary_clique.txt"
    with open(g, "w") as fh:
        write_graph(make_binary_clique_graph(1, 2), fh)
    code, out, _ = run(capsys, "bounds", *argv, "--input", str(g))
    check_golden(code, out, f"binary_clique_1_2_bounds_{name}.json")


BINARY_CLIQUE_1_1 = ("--name", "binary_clique", "--h1", "1", "--h2", "1")
BINARY_CLIQUE_1_2 = ("--name", "binary_clique", "--h1", "1", "--h2", "2")
T_ELL_1 = ("--name", "T_ell", "--ell", "1")


def family_file(tmp_path, family):
    g = str(tmp_path / "g.txt")
    assert main(["family", *family, "--out", g]) == 0
    return g


# binary_clique(1,1) has 7 vertices, within both exact budgets, where the
# nonmonotone fixture's 31 are not
@pytest.mark.parametrize("name, family, argv", [
    ("binary_clique_1_1_exact_pi_k3", BINARY_CLIQUE_1_1, ("exact", "--what", "pi", "--k", "3")),
    ("binary_clique_1_1_exact_cmc_r3", BINARY_CLIQUE_1_1, ("exact", "--what", "cmc", "--r", "3")),
    ("binary_clique_1_1_bounds_packing_k5", BINARY_CLIQUE_1_1,
     ("bounds", "--method", "packing", "--k", "5")),
    ("splits_T_ell_1_root0", T_ELL_1, ("splits", "--root", "0")),
])
def test_json_commands_frozen(tmp_path, capsys, name, family, argv):
    code, out, _ = run(capsys, *argv, "--input", family_file(tmp_path, family))
    check_golden(code, out, f"{name}.json")


def check_same_as_json(x):
    # pytest.fail, not assert, so that the -O run pins the format as well
    if _to_json(x) != json.dumps(x, indent=2):
        pytest.fail(f"_to_json differs from json.dumps(indent=2) on {x!r:.200}")


def record_payloads(monkeypatch):
    """The payloads ``cli._emit`` is given from now on; each is still written."""
    payloads = []
    emit = cli._emit

    def record(payload, out=None):
        payloads.append({"schema": cli.SCHEMA, **payload})
        emit(payload, out)

    monkeypatch.setattr(cli, "_emit", record)
    return payloads


@pytest.mark.parametrize("family, argv", [
    (BINARY_CLIQUE_1_1, ("exact", "--what", "P", "--k", "2")),
    (BINARY_CLIQUE_1_1, ("exact", "--what", "pi", "--k", "3")),
    (BINARY_CLIQUE_1_1, ("exact", "--what", "cmc", "--r", "3")),
    (BINARY_CLIQUE_1_2, ("bounds", "--method", "pathcut")),
    (BINARY_CLIQUE_1_2, ("bounds", "--method", "packing", "--k", "2")),
    (BINARY_CLIQUE_1_1, ("bounds", "--method", "packing", "--k", "5")),
    (BINARY_CLIQUE_1_2, ("bounds", "--method", "cmc", "--r", "3")),
    (BINARY_CLIQUE_1_2, ("bounds", "--method", "pi", "--k", "3")),
    (T_ELL_1, ("splits", "--root", "0")),
], ids=lambda v: "-".join(v).replace("--", ""))
def test_writer_matches_json_on_command_payloads(tmp_path, capsys, monkeypatch, family, argv):
    g = family_file(tmp_path, family)
    payloads = record_payloads(monkeypatch)
    code, out, _ = run(capsys, *argv, "--input", g)
    assert code == 0 and len(payloads) == 1
    check_same_as_json(payloads[0])
    assert out == _to_json(payloads[0]) + "\n"


@pytest.mark.parametrize("suite", SUITES)
def test_writer_matches_json_on_verify_reports(tmp_path, capsys, monkeypatch, suite):
    payloads = record_payloads(monkeypatch)
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", suite, "--out", str(report))
    assert code == 0 and len(payloads) == 1
    assert isinstance(payloads[0]["elapsed"], float)
    check_same_as_json(payloads[0])
    assert report.read_text() == _to_json(payloads[0]) + "\n"


@pytest.mark.parametrize("x", [
    "plain", "quote \" backslash \\ slash /", "\x00\x01\x1f\x7f\b\f\n\r\t",
    "caf\u00e9 \u2603 \U0001f600 \ud800", "",
    {"k\"\\\n\u00e9\u2603": "v", "": 0, "a": {"b": {"c": []}}},
    [], {}, [[]], [{}], [[], {}, [[[]]], {"e": {}}], {"e": [], "f": {}},
    (), (1, 2), [(1, (2, 3)), ()], {"t": (4, "x", None)},
    -1, 0, -(10**99), 10**99, [10**100, -(10**100), 0],
    0.1, -0.0, 1e300, -1e-300, 5e-324, 1.0, float("nan"), float("inf"), -float("inf"),
    [0.1, -0.0, float("nan"), float("inf"), -float("inf"), 2],
    True, False, None, [True, 1, False, 0, None], {"b": True, "i": 1, "n": None},
    [1, "1", 1.0, [1], {"1": 1}],
])
def test_writer_matches_json_on_values(x):
    check_same_as_json(x)


@pytest.mark.parametrize("x", [{1, 2}, object(), {1: "int key"}, {("t",): 0}, [1, {"s": {2}}]],
                         ids=["set", "object", "int-key", "tuple-key", "nested-set"])
def test_writer_refuses_other_types(x):
    # json.dumps turns an int key into a str; no payload has one, so the
    # writer takes str keys only
    with pytest.raises(TypeError):
        _to_json(x)


@pytest.mark.parametrize("name, argv", [
    ("T_ell_2", ("--name", "T_ell", "--ell", "2")),
    ("random_tree_200_seed7", ("--name", "random_tree", "--n", "200", "--seed", "7")),
])
def test_tree_p2_frozen(tmp_path, capsys, name, argv):
    g = str(tmp_path / "tree.txt")
    assert main(["family", *argv, "--out", g]) == 0
    code, out, _ = run(capsys, "tree-p2", "--input", g)
    check_golden(code, out, f"tree_p2_{name}.csv")


@pytest.mark.parametrize("argv", [
    ("exact", "--what", "P", "--k", "0"),
    ("exact", "--what", "pi", "--k", "-1"),
    ("exact", "--what", "cmc", "--r", "0"),
    ("bounds", "--method", "cmc", "--r", "0"),
    ("bounds", "--method", "packing", "--k", "0"),
    ("exact", "--what", "P", "--max-size", "0"),
    ("exact", "--what", "pi", "--max-size", "-3"),
])
def test_part_count_below_one_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", write_c4(tmp_path)])
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-4", "-1", "x"])
def test_tseq_max_below_zero_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["tseq", "--max", value])
    assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err


def test_cut_bound_with_a_core_smaller_than_r(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert main(["family", "--name", "random_connected", "--n", "5", "--m", "6",
                 "--seed", "4", "--out", str(g)]) == 0
    code, out, _ = run(capsys, "exact", "--what", "cmc", "--r", "5", "--input", str(g))
    assert code == 0 and json.loads(out)["value"] == 6
    code, out, _ = run(capsys, "bounds", "--method", "cmc", "--r", "5", "--input", str(g))
    assert code == 0 and json.loads(out)["cut_size"] == 6


@pytest.mark.parametrize("text, argv", [
    ("4 3\n0 1\n1 2\n2 3\n", ("splits", "--root", "9")),
    ("-1 0\n", ("exact", "--what", "P")),
    ("2 1\n0 1\n", ("exact", "--what", "cmc", "--r", "3")),
    ("1 0\n", ("exact", "--what", "cmc")),
    ("1 0\n", ("bounds", "--method", "cmc")),
    ("1 0\n", ("bounds", "--method", "cmc", "--r", "3")),
    ("1 0\n", ("bounds", "--method", "packing")),
    ("1 0\n", ("bounds", "--method", "packing", "--k", "3")),
    ("4 3\n0 1\n1 2\n2 3\n", ("splits", "--out", "{dir}")),
    ("4 4\n0 1\n1 2\n2 3\n0 3\n", ("bounds", "--method", "cmc", "--report", "{dir}")),
    ("4 4\n0 1\n1 2\n2 3\n0 3\n", ("exact", "--what", "P", "--out", "{dir}")),
    (None, ("verify", "--suite", "erdos-lehner", "--out", "{dir}")),
    ("4 4\n0 1\n1 2\n2 3\n0 3\n", ("tree-p2",)),
    (None, ("family", "--name", "random_connected", "--n", "0", "--m", "0")),
    (None, ("family", "--name", "random_connected", "--n", "-3", "--m", "-4")),
    (None, ("family", "--name", "ternary", "--height", "25")),
    (None, ("family", "--name", "ternary", "--height", "9")),
    (None, ("family", "--name", "T_ell", "--ell", "8")),
    (None, ("family", "--name", "random_tree", "--n", "20001")),
    ("4 4\n0 1\n1 2\n2 3\n0 3\n", ("bounds", "--method", "packing", "--k", "1")),
    ("4 4\n0 1\n1 2\n2 3\n0 3\n", ("bounds", "--method", "pi", "--k", "1")),
], ids=["splits-root-out-of-range", "negative-header", "cmc-fewer-vertices-than-r",
        "one-vertex-exact-cmc", "one-vertex-cut-bound", "one-vertex-cut-bound-r3",
        "one-vertex-packing", "one-vertex-packing-k3", "splits-out-is-directory",
        "bounds-report-is-directory", "exact-out-is-directory", "verify-out-is-directory",
        "tree-p2-not-a-tree", "family-random-connected-n0", "family-random-connected-negative-n",
        "family-ternary-too-tall", "family-ternary-height-9", "family-T-ell-8",
        "family-random-tree-20001", "packing-k1", "pi-k1"])
def test_bad_input_is_input_error(tmp_path, capsys, text, argv):
    # "{dir}" names a directory, where an output file cannot be written
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    if text is not None:
        g = tmp_path / "g.txt"
        g.write_text(text)
        argv += ["--input", str(g)]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_two_vertex_packing_still_reports_infeasible(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("2 1\n0 1\n")
    code, out, _ = run(capsys, "bounds", "--method", "packing", "--input", str(g))
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is False and data["forest_sizes"] == [1, 0]
