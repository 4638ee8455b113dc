"""Order statistics, and the verdict rule of the compare mode."""

from __future__ import annotations

import statistics


def percentile(values, pct):
    """The pct-th percentile (inclusive method); the value itself for one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def quartiles(values):
    """(first quartile, median, third quartile), from statistics.quantiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the quartiles, as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(base, new, bound, better):
    """better / worse / unchanged / unresolved for one metric on one workload.

    `base` and `new` are the runs of the parent and the change, paired in
    order. A gain needs the change to win at least nine tenths of the
    pairs (ties count for neither) and the medians to differ by more than
    the base's quartile distance. A loss is a median worse than the base's
    by more than `bound` (a share of the base median). Otherwise, when
    either side's spread exceeds the bound, the result is unresolved unless
    every run of the change reads better than every run of the base.
    """
    sign = 1 if better == "lower" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    q1, _, q3 = quartiles(base)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    if wins >= 0.9 * len(pairs) and sign * (mb - mn) > q3 - q1:
        return "better"
    if sign * (mn - mb) > bound * abs(mb):
        return "worse"
    if max(spread(base), spread(new)) > bound:
        if all(sign * (b - n) > 0 for b in base for n in new):
            return "unchanged"
        return "unresolved"
    return "unchanged"
