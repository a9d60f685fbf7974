"""Integer machinery: the split-length sequence t(n), its preimage intervals,
exact integer-partition counts, and the binomial estimate they are compared
against.

t is defined by t(1)=0, t(2)=1, t(3)=2 and, for n >= 4,
t(n) = min over d >= 1 of d + t(ceil((n-1)/d)).  Only d in {1,2,3} can attain
the minimum once n >= 4 (any d >= 4 is dominated by a composition of two
smaller divisors; the tests re-check this by full-range minimization), and
``t_runs`` derives t's O(log n) runs of equal values from the recurrence
hi_h = max over d <= 3 of d*hi_{h-d} + 1 of their last values.
"""

from __future__ import annotations

import math

from .errors import OutOfRangeError


def t_runs(capacity):
    """The runs (t, lo, hi) of t on 1..capacity, in order: t(n) = t for
    lo <= n <= hi, and t climbs by one from each run to the next.

    hi_h, the last n with t(n) = h, is 1, 2, 3 for h = 0, 1, 2, and then:
    t never decreases, so t(m) <= h exactly when m <= hi_h;
    so, for n >= 4, d + t(ceil((n-1)/d)) <= h exactly when n <= d*hi_{h-d} + 1;
    so hi_h = max over d <= 3 of d*hi_{h-d} + 1 (hi_{h-1} + 1 keeps each run
    nonempty), and each value gets exactly one run, with no merging step.
    """
    his = [0, 1, 2, 3]  # his[h + 1] = hi_h, after the empty run before t = 0
    while his[-1] < capacity:
        his.append(max(d * his[-d] + 1 for d in (1, 2, 3)))
    return [(h, his[h] + 1, min(his[h + 1], capacity))
            for h in range(len(his) - 1) if his[h] < capacity]


def build_t_table(capacity):
    """The list [0, t(1), ..., t(capacity)] of capacity + 1 entries: the
    expansion of ``t_runs(capacity)``; index 0 is unused."""
    values = [0]
    for v, lo, hi in t_runs(capacity):
        values += [v] * (hi - lo + 1)
    return values


def t_value(n):
    """Exact t(n), with no table: the value of the last run of ``t_runs(n)``,
    the run that holds n, found in O(log n) steps of the recurrence."""
    if n < 1:
        raise OutOfRangeError(f"n={n} must be positive")
    return t_runs(n)[-1][0]


def t_preimage_closed_form(h):
    """Closed-form preimage interval by residue class of h; valid for h >= 8.
    A claim about ``t_runs``, checked against it by the ``t-table`` verify
    suite and the tests, not a lookup path: ``t_value`` reads the runs."""
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
    # taking one from each of the k parts leaves a partition of n - k into
    # parts of size at most k
    ways = [1] + [0] * (n - k)
    for part in range(1, k + 1):
        for s in range(part, n - k + 1):
            ways[s] += ways[s - part]
    return ways[n - k]


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
