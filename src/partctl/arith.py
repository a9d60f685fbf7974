"""Integer machinery: the split-length sequence t(n), its preimage intervals,
exact integer-partition counts, and the binomial estimate they are compared
against.

t is defined by t(1)=0, t(2)=1, t(3)=2 and, for n >= 4,
t(n) = min over d >= 1 of d + t(ceil((n-1)/d)).  Only d in {1,2,3} can attain
the minimum once n >= 4 (any d >= 4 is dominated by a composition of two
smaller divisors; the tests re-check this by full-range minimization), and
``t_runs`` derives t's O(log n) runs of equal values from that d <= 3 form.
"""

from __future__ import annotations

import math

from .errors import OutOfRangeError


def t_runs(capacity):
    """The runs (t, lo, hi) of t on 1..capacity, in order: t(n) = t for
    lo <= n <= hi, and neighbours with equal t are merged.

    c_d(n) = d + t((n-2)//d + 1), for d = 2, 3, is constant while (n-2)//d + 1
    stays in one known run (lo, hi): up to n = d*hi + 1.  From a to the nearer
    of those breakpoints M = min(c_2, c_3) is constant, and the d = 1 term
    1 + t(n-1) gives t(n) = min(t(a-1) + n - a + 1, M).
    """
    if capacity < 1:
        return []
    vals, his = [0], [1]  # run i holds t = vals[i] up to n = his[i]
    i2 = i3 = 0  # the runs holding (a-2)//2 + 1 and (a-2)//3 + 1
    a = 2
    while a <= capacity:
        while his[i2] < (a - 2) // 2 + 1:
            i2 += 1
        while his[i3] < (a - 2) // 3 + 1:
            i3 += 1
        b = min(2 * his[i2] + 1, 3 * his[i3] + 1, capacity)
        m = min(2 + vals[i2], 3 + vals[i3])
        v = vals[-1]
        while a <= b:
            v = min(v + 1, m)
            hi = b if v == m else a
            if v == vals[-1]:
                his[-1] = hi
            else:
                vals.append(v)
                his.append(hi)
            a = hi + 1
    return [(v, hi0 + 1, hi) for v, hi0, hi in zip(vals, [0] + his, his)]


def build_t_table(capacity):
    """The list [0, t(1), ..., t(capacity)] of capacity + 1 entries: the
    expansion of ``t_runs(capacity)``; index 0 is unused."""
    values = [0]
    for v, lo, hi in t_runs(capacity):
        values += [v] * (hi - lo + 1)
    return values


def t_value(n):
    """Exact t(n), with no table.

    Up to n = 23 it is read from a literal.  Beyond, it is the h whose
    closed-form preimage interval holds n: the intervals for h >= 8 tile
    [24, inf) in order, so a binary search over 8 <= h <= 3 * n.bit_length()
    finds it in O(log log n) closed-form evaluations of O(log n)-digit
    integers.
    """
    if n < 1:
        raise OutOfRangeError(f"n={n} must be positive")
    if n <= 23:
        return (0, 1, 2, 3, 3, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7)[n - 1]
    # the interval of h = 3b, b = n.bit_length(), ends above 3^b > 2^b > n
    lo, hi = 8, 3 * n.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if t_preimage_closed_form(mid)[1] < n:
            lo = mid + 1
        else:
            hi = mid
    return lo


def t_preimage_closed_form(h):
    """Closed-form preimage interval by residue class of h; valid for h >= 8."""
    if h < 8:
        raise OutOfRangeError("closed forms only apply for h >= 8")
    if h % 3 == 2:  # h = 3k - 1
        k = (h + 1) // 3
        lo = (3**k - 1) // 2 + 3 ** (k - 1) + 3 ** (k - 3) + 1
        hi = (3 ** (k + 1) - 1) // 2 - 3 ** (k - 1) + 3 ** (k - 2)
    elif h % 3 == 0:  # h = 3k
        k = h // 3
        lo = (3 ** (k + 1) - 1) // 2 - 3 ** (k - 1) + 3 ** (k - 2) + 1
        hi = (3 ** (k + 1) - 1) // 2 + 3 ** (k - 1)
    else:  # h = 3k + 1
        k = (h - 1) // 3
        lo = (3 ** (k + 1) - 1) // 2 + 3 ** (k - 1) + 1
        hi = (3 ** (k + 1) - 1) // 2 + 3**k + 3 ** (k - 2)
    return lo, hi


def count_partitions(n, k):
    """Number of multisets of k positive integers summing to n (with
    nonnegative parts: ``count_partitions(n + k, k)``).  Exact big-integer
    DP."""
    if k < 1 or n < k:
        return 0
    # p[j] = partitions of the current n into exactly j positive parts
    p = [[0] * (k + 1) for _ in range(n + 1)]
    p[0][0] = 1
    for nn in range(1, n + 1):
        for j in range(1, k + 1):
            p[nn][j] = p[nn - 1][j - 1]
            if nn >= j:
                p[nn][j] += p[nn - j][j]
    return p[n][k]


def ascending_compositions(total, k):
    """Nondecreasing k-tuples of nonnegative ints summing to total: the
    integer partitions that ``count_partitions(total + k, k)`` counts, each once."""

    def rec(rest, parts_left, minimum):
        if parts_left == 1:
            if rest >= minimum:
                yield (rest,)
            return
        for a in range(minimum, rest // parts_left + 1):
            for tail in rec(rest - a, parts_left - 1, a):
                yield (a,) + tail

    return rec(total, k, 0)


def erdos_lehner_estimate(n, k):
    """C(n-1, k-1) / k! as a float."""
    return math.comb(n - 1, k - 1) / math.factorial(k)
