import math

import pytest

from partctl.arith import (
    ascending_compositions,
    build_t_table,
    count_partitions,
    erdos_lehner_estimate,
    t_preimage_closed_form,
    t_runs,
    t_value,
)
from partctl.errors import OutOfRangeError


def brute_t(limit):
    """Reference table minimizing over the full divisor range."""
    t = [0, 0, 1, 2]
    for n in range(4, limit + 1):
        t.append(min(d + t[-(-(n - 1) // d)] for d in range(1, n)))
    return t


def test_base_cases():
    assert t_value(1) == 0
    assert t_value(2) == 1
    assert t_value(3) == 2


def test_known_values():
    assert t_value(11) == 5
    assert t_value(16) == 6


def element_loop_t_table(capacity):
    """The table one n at a time from the d <= 3 recurrence, as
    ``build_t_table`` built it before it expanded ``t_runs``."""
    values = [0, 0][: max(capacity, 0) + 1]
    for n in range(2, capacity + 1):
        best = 1 + values[n - 1]
        c2 = 2 + values[(n - 2) // 2 + 1]
        if c2 < best:
            best = c2
        c3 = 3 + values[(n - 2) // 3 + 1]
        if c3 < best:
            best = c3
        values.append(best)
    return values


def test_table_matches_full_minimization():
    assert build_t_table(400) == brute_t(400)


def test_table_matches_element_loop():
    # the element loop's entries do not depend on its capacity, so one
    # reference at 10^6 holds the reference table of every smaller capacity
    ref = element_loop_t_table(10**6)
    assert element_loop_t_table(3000) == ref[:3001]
    for c in range(3001):
        assert build_t_table(c) == ref[: c + 1], c
    assert build_t_table(10**6) == ref


def test_runs_tile_and_merge():
    for c in [*range(3001), 10**6, 10**80]:
        runs = t_runs(c)
        ends = [0] + [hi for _, _, hi in runs]
        assert [lo for _, lo, _ in runs] == [e + 1 for e in ends[:-1]], c
        assert all(lo <= hi for _, lo, hi in runs) and ends[-1] == c, c
        # merged neighbours: the d = 1 term lets t climb by at most one a step
        assert all(w == v + 1 for (v, _, _), (w, _, _) in zip(runs, runs[1:])), c
    assert t_runs(-3) == [] and len(t_runs(10**6)) == 38


def test_t_value_out_of_range():
    with pytest.raises(OutOfRangeError):
        t_value(0)
    # the table holds t(1..capacity) after its unused entry 0, nothing more
    assert [len(build_t_table(c)) for c in (0, 1, 2, 3, 100)] == [1, 2, 3, 4, 101]


def test_preimage_intervals():
    runs = t_runs(10**4)
    assert runs[7] == (7, 17, 23)
    assert runs[3] == (3, 4, 5)
    assert runs[9] == (9, 35, 49)


def test_closed_form_matches_table():
    runs = t_runs(10**80)[:-1]  # the last run may be cut short; 502 runs remain
    for h in range(8, len(runs)):
        assert runs[h] == (h, *t_preimage_closed_form(h))
    with pytest.raises(OutOfRangeError):
        t_preimage_closed_form(7)


def test_t_value_matches_table():
    # t_value reads the last run of t_runs(n); the table is the reference for
    # every n <= 10^5 and at each run edge to 10^6
    vals = build_t_table(10**6)
    assert [t_value(n) for n in range(1, 10**5 + 1)] == vals[1 : 10**5 + 1]
    for _, lo, hi in t_runs(10**6):
        for n in (lo - 1, lo, hi, hi + 1):
            if 1 <= n <= 10**6:
                assert t_value(n) == vals[n], n
    # the anchor identity t(10 * 3^l) = t(10) + 3l at an n no table could hold
    assert t_value(10 * 3**200) == t_value(10) + 600


def test_t_value_builds_no_table(monkeypatch):
    from partctl import arith

    vals = build_t_table(10**4)

    def no_table(capacity):
        raise AssertionError("t_value built a table")

    monkeypatch.setattr(arith, "build_t_table", no_table)
    assert [t_value(n) for n in range(1, 10**4 + 1)] == vals[1:]
    assert t_value(10 * 3**200) == vals[10] + 600


def test_monotone():
    tab = build_t_table(5000)
    assert all(tab[n] <= tab[n + 1] for n in range(1, 5000))


def test_empirical_constant_bounded():
    # t(n) >= 3*log3(n) - C; the observed gap should be a small constant
    tab = build_t_table(10**5)
    c = max(3 * math.log(n, 3) - tab[n] for n in range(1, 10**5 + 1))
    assert 0 < c < 6


def test_count_partitions_basic():
    for n in range(1, 10):
        assert count_partitions(n, 1) == 1
    assert count_partitions(6, 3) == 3  # (4,1,1),(3,2,1),(2,2,2)
    assert count_partitions(2 + 2, 2) == 2  # {2,0},{1,1} with nonnegative parts
    assert count_partitions(3, 5) == 0
    assert count_partitions(5, 0) == 0


def test_count_partitions_against_enumeration():
    import itertools

    for n in range(1, 12):
        for k in range(1, 6):
            brute = [
                c
                for c in itertools.combinations_with_replacement(range(1, n + 1), k)
                if sum(c) == n
            ]
            assert count_partitions(n, k) == len(brute), (n, k)
            shifted = [tuple(1 + a for a in c) for c in ascending_compositions(n - k, k)]
            assert sorted(shifted) == brute, (n, k)


def test_erdos_lehner_estimate():
    assert erdos_lehner_estimate(100, 2) == 49.5
    assert erdos_lehner_estimate(100, 3) == 808.5
    assert erdos_lehner_estimate(7, 1) == 1.0


def test_estimate_tracks_exact_counts():
    # the binomial estimate is asymptotically exact; check the ratio shrinks
    r50 = count_partitions(50, 2) * 2 / math.comb(49, 1)
    r500 = count_partitions(500, 2) * 2 / math.comb(499, 1)
    assert abs(r500 - 1) < abs(r50 - 1)
