"""Integer machinery: the split-length sequence t(n), its preimage intervals,
exact integer-partition counts, and the binomial estimate they are compared
against.

t is defined by t(1)=0, t(2)=1, t(3)=2 and, for n >= 4,
t(n) = min over d >= 1 of d + t(ceil((n-1)/d)).  Only d in {1,2,3} can attain
the minimum once n >= 4 (any d >= 4 is dominated by a composition of two
smaller divisors); the table builder exploits that and the test suite
re-validates it against full-range minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRangeError

DEFAULT_CAPACITY = 10**6
SMALL_T = 4096  # t_value reads a table up to here, closed forms beyond


@dataclass
class TTable:
    values: list  # values[n] = t(n), index 0 unused

    @property
    def capacity(self):
        return len(self.values) - 1

    def t(self, n):
        if not 1 <= n <= self.capacity:
            raise OutOfRangeError(f"n={n} outside table capacity {self.capacity}")
        return self.values[n]


@dataclass
class IntervalTable:
    intervals: list  # intervals[h] = (lo, hi), t(n)=h exactly for lo<=n<=hi

    @property
    def max_h(self):
        return len(self.intervals) - 1

    def preimage(self, h):
        if not 0 <= h <= self.max_h:
            raise OutOfRangeError(f"h={h} outside interval table range {self.max_h}")
        return self.intervals[h]


_cache = {}
_interval_cache = {}


def build_t_table(capacity=DEFAULT_CAPACITY):
    """Memoized t-table up to the given capacity."""
    for cap in _cache:
        if cap >= capacity:
            tab = _cache[cap]
            if cap == capacity:
                return tab
            return TTable(tab.values[: capacity + 1])
    values = [0, 0, 1, 2]
    for n in range(4, capacity + 1):
        # d=1 is 1 + t(n-1); d=2,3 use ceil((n-1)/d)
        best = 1 + values[n - 1]
        c2 = 2 + values[(n - 2) // 2 + 1]
        if c2 < best:
            best = c2
        c3 = 3 + values[(n - 2) // 3 + 1]
        if c3 < best:
            best = c3
        values.append(best)
    tab = TTable(values)
    _cache[capacity] = tab
    return tab


def t_value(n):
    """Exact t(n).

    For n <= SMALL_T it is read from the memoized recurrence table.  Beyond
    that it is the h whose closed-form preimage interval holds n: the
    intervals for h >= 8 tile [24, inf) in order, so a binary search over
    8 <= h <= 3 * n.bit_length() finds it in O(log log n) closed-form
    evaluations of O(log n)-digit integers, with no table.
    """
    if n < 1:
        raise OutOfRangeError(f"n={n} must be positive")
    if n <= SMALL_T:
        return build_t_table(SMALL_T).t(n)
    # the interval of h = 3b, b = n.bit_length(), ends above 3^b > 2^b > n
    lo, hi = 8, 3 * n.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if t_preimage_closed_form(mid)[1] < n:
            lo = mid + 1
        else:
            hi = mid
    return lo


def build_interval_table(capacity=DEFAULT_CAPACITY):
    """Memoized preimage intervals t^{-1}(h) = [lo, hi] derived from the
    t-table, one table per capacity.

    The last interval is dropped if truncated by the table capacity.
    """
    itab = _interval_cache.get(capacity)
    if itab is None:
        tab = build_t_table(capacity)
        intervals = []
        lo = 1
        for n in range(2, capacity + 1):
            if tab.values[n] != tab.values[lo]:
                intervals.append((lo, n - 1))
                lo = n
        itab = _interval_cache[capacity] = IntervalTable(intervals)
    return itab


def t_preimage(h, capacity=DEFAULT_CAPACITY):
    return build_interval_table(capacity).preimage(h)


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


def empirical_lower_bound_constant(capacity=DEFAULT_CAPACITY):
    """Largest gap max_n (3*log3(n) - t(n)) over the table.

    The proposition guarantees t(n) >= 3*log3(n) - C for some absolute C but
    never pins the constant; this reports the observed one.
    """
    tab = build_t_table(capacity)
    log3 = math.log(3)
    return max(3 * math.log(n) / log3 - tab.values[n] for n in range(1, capacity + 1))


def count_partitions(n, k, allow_zero=False):
    """Number of multisets of k positive (or, with allow_zero, nonnegative)
    integers summing to n.  Exact big-integer DP."""
    if k < 1:
        return 0
    if allow_zero:
        return count_partitions(n + k, k, allow_zero=False)
    if n < k:
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
    integer partitions that ``count_partitions(total, k, allow_zero=True)``
    counts, each once."""

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
