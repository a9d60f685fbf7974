"""Seeded fuzz of the file-reading CLI commands, and out-of-range size
arguments.

Malformed graph files (bad headers, non-UTF-8 bytes, huge vertex counts,
short edge lists, self-loops, out-of-range ids) and argument vectors across
``exact``, ``bounds``, ``splits`` and ``tree-p2`` must end with a documented
exit code, never with a traceback, and quickly.  Huge vertex counts appear
only in headers; a parser that allocated per vertex before rejecting them
would take seconds on each and fail the per-case cap.  The same holds for
huge and negative ``family`` sizes and for ``bounds --method pi`` with more
parts than vertices: each is an input error, refused before anything is
built at its size.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

from partctl.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

EXIT_CODES = {0, 2, 3, 4, 5}
CASE_CAP_S = 1.0

ARGVS = [
    ("exact", "--what", "P"),
    ("exact", "--what", "P", "--k", "3"),
    ("exact", "--what", "P", "--max-size", "2"),
    ("exact", "--what", "pi", "--k", "3"),
    ("exact", "--what", "cmc", "--r", "3"),
    ("exact", "--what", "cmc", "--k", "x"),
    ("bounds", "--method", "pathcut"),
    ("bounds", "--method", "packing", "--k", "2"),
    ("bounds", "--method", "packing", "--k", "3"),
    ("bounds", "--method", "pi", "--k", "3"),
    ("bounds", "--method", "cmc", "--r", "2"),
    ("bounds", "--method", "nope"),
    ("splits",),
    ("splits", "--root", "3"),
    ("splits", "--root", "-1"),
    ("tree-p2",),
]

BASES = [
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    (6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]),
]

BAD_HEADERS = ["", "x y", "3", "3 2 1", "-2 1", "3 -1", "3.0 2", "0x3 2", "1e9 0"]


def mutate(rng, n, edges):
    """One seeded malformed (or, for 'valid', well-formed) graph file."""
    kind = rng.choice(["valid", "header", "bytes", "huge", "short",
                       "loop", "range", "line"])
    header = f"{n} {len(edges)}"
    lines = [f"{u} {v}" for u, v in edges]
    if kind == "header":
        header = rng.choice(BAD_HEADERS)
    elif kind == "huge":  # a matching edge count, so only the n > m + 1 rule stops it
        del lines[rng.randint(0, len(lines)):]
        header = f"{rng.randint(4 * 10 ** 6, 10 ** 7)} {len(lines)}"
    elif kind == "short":
        del lines[rng.randrange(len(lines)):]
    elif kind == "loop":
        v = rng.randrange(n)
        lines[rng.randrange(len(lines))] = f"{v} {v}"
    elif kind == "range":
        bad = rng.choice([n, n + rng.randint(1, 9), -1, 10 ** 12])
        lines[rng.randrange(len(lines))] = f"{rng.randrange(n)} {bad}"
    elif kind == "line":
        lines[rng.randrange(len(lines))] = rng.choice(["0 1 2", "0", "a b", "0,1"])
    data = ("\n".join([header, *lines]) + "\n").encode()
    if kind == "bytes":
        at = rng.randrange(len(data) + 1)
        data = data[:at] + bytes([rng.choice([0x80, 0xC3, 0xFE, 0xFF])]) + data[at:]
    return kind, data


def run_case(capsys, argv):
    start = time.perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    elapsed = time.perf_counter() - start
    return code, capsys.readouterr().err, elapsed


def test_malformed_files_end_with_documented_exit_codes(tmp_path, capsys):
    rng = random.Random(2022)
    kinds = set()
    for case in range(48):
        kind, data = mutate(rng, *rng.choice(BASES))
        kinds.add(kind)
        path = tmp_path / f"g{case}.txt"
        path.write_bytes(data)
        for argv in rng.sample(ARGVS, 6):
            code, err, elapsed = run_case(capsys, [*argv, "--input", str(path)])
            where = (kind, data, argv)
            assert code in EXIT_CODES, where
            assert "Traceback" not in err, where
            assert elapsed < CASE_CAP_S, where
            assert kind == "valid" or code != 0, where
    assert len(kinds) == 8


def test_non_utf8_file_exits_3_without_traceback(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"3 2\n0 1\n1 \xff2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "partctl.cli", "exact", "--what", "P",
         "--input", str(path)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and "not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_directory_input_exits_3_naming_the_path(tmp_path, capsys):
    for argv in [("exact", "--what", "P"), ("bounds", "--method", "pathcut"),
                 ("splits",), ("tree-p2",)]:
        code, err, _ = run_case(capsys, [*argv, "--input", str(tmp_path)])
        assert code == 3, argv
        assert err.startswith(f"error: {tmp_path}: cannot read"), (argv, err)
        assert "Traceback" not in err, argv


FAMILY_SIZES = {
    "ternary": ("--height",),
    "T_ell": ("--ell",),
    "binary_clique": ("--h1", "--h2"),
    "random_tree": ("--n",),
    "random_connected": ("--n", "--m"),
}
OUT_OF_RANGE = [-10 ** 12, -1, 20001, 10 ** 5, 10 ** 12, 10 ** 40]


def test_out_of_range_family_sizes_exit_3_quickly(capsys):
    # each flag out of range, the others at their defaults; random_connected
    # also with n = m, which passes its density check, from just over its cap
    cases = [(name, (flag, str(v))) for name, flags in FAMILY_SIZES.items()
             for flag in flags for v in OUT_OF_RANGE]
    cases += [("random_connected", ("--n", str(v), "--m", str(v)))
              for v in [1001, 2000, *OUT_OF_RANGE]]
    cases += [("random_tree", ("--n", str(v))) for v in (-5, 0)]
    for name, sizes in cases:
        code, err, elapsed = run_case(capsys, ["family", "--name", name, *sizes])
        where = (name, sizes)
        assert code == 3, where
        assert err.startswith("error: ") and "Traceback" not in err, where
        # a tree with no vertex is refused by its n, not by the root it lacks
        if name == "random_tree" and int(sizes[1]) < 1:
            assert err == f"error: n={sizes[1]} must be >= 1\n", where
        assert elapsed < CASE_CAP_S, where


def test_more_parts_than_vertices_exit_3_quickly(tmp_path, capsys):
    for i, (n, edges) in enumerate(BASES):
        path = tmp_path / f"g{i}.txt"
        path.write_text("\n".join([f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]) + "\n")
        for k in (n + 1, 10 ** 6):
            argv = ["bounds", "--method", "pi", "--k", str(k), "--input", str(path)]
            code, err, elapsed = run_case(capsys, argv)
            assert code == 3, argv
            assert err.startswith("error: ") and "Traceback" not in err, argv
            assert elapsed < CASE_CAP_S, argv
