import math

import pytest

from partctl.arith import (
    ascending_compositions,
    build_interval_table,
    build_t_table,
    count_partitions,
    empirical_lower_bound_constant,
    erdos_lehner_estimate,
    t_preimage,
    t_preimage_closed_form,
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


def test_table_matches_full_minimization():
    ref = brute_t(400)
    tab = build_t_table(400)
    assert tab.values == ref


def test_t_value_out_of_range():
    with pytest.raises(OutOfRangeError):
        t_value(0)
    tab = build_t_table(100)
    with pytest.raises(OutOfRangeError):
        tab.t(101)


def test_preimage_intervals():
    assert t_preimage(7, capacity=10**4) == (17, 23)
    assert t_preimage(3, capacity=10**4) == (4, 5)
    assert t_preimage(9, capacity=10**4) == (35, 49)


def test_t_preimage_builds_its_interval_table_once(monkeypatch):
    from partctl import arith

    builds = []
    real = arith.build_t_table
    monkeypatch.setattr(arith, "_interval_cache", {})
    monkeypatch.setattr(arith, "build_t_table", lambda cap: builds.append(cap) or real(cap))
    assert t_preimage(7, capacity=3000) == (17, 23)
    assert t_preimage(9, capacity=3000) == (35, 49)
    assert builds == [3000]


def test_closed_form_matches_table():
    itab = build_interval_table(10**5)
    for h in range(8, itab.max_h + 1):
        assert itab.preimage(h) == t_preimage_closed_form(h)
    with pytest.raises(OutOfRangeError):
        t_preimage_closed_form(7)


def test_t_value_closed_form_search_matches_table():
    # beyond SMALL_T, t_value searches the closed-form intervals; the table
    # is the reference for every n <= 10^5 and at each interval edge to 10^6
    vals = build_t_table(10**6).values
    assert [t_value(n) for n in range(1, 10**5 + 1)] == vals[1 : 10**5 + 1]
    for lo, hi in build_interval_table(10**6).intervals:
        for n in (lo - 1, lo, hi, hi + 1):
            if 1 <= n <= 10**6:
                assert t_value(n) == vals[n], n
    # the anchor identity t(10 * 3^l) = t(10) + 3l at an n no table could hold
    assert t_value(10 * 3**200) == t_value(10) + 600


def test_monotone():
    tab = build_t_table(5000)
    assert all(tab.values[n] <= tab.values[n + 1] for n in range(1, 5000))


def test_empirical_constant_bounded():
    # t(n) >= 3*log3(n) - C; the observed gap should be a small constant
    c = empirical_lower_bound_constant(10**5)
    assert 0 < c < 6


def test_count_partitions_basic():
    for n in range(1, 10):
        assert count_partitions(n, 1) == 1
    assert count_partitions(6, 3) == 3  # (4,1,1),(3,2,1),(2,2,2)
    assert count_partitions(2, 2, allow_zero=True) == 2  # {2,0},{1,1}
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
