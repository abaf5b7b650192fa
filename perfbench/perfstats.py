"""Helper math of the benchmark: medians, tail percentiles, span self time
and failure fractions. Free of I/O so that test_perfstats.py can pin it.

Spans are dicts with integer nanosecond ``start``/``end``, the index of
their ``parent`` span (-1 for a root) and a ``layer``. Aggregates are
dicts with a ``parent`` span index, a ``layer`` and ``total_s``: the
summed time of many short calls made inside that parent.
"""

import math
import statistics

# Percentiles tried, highest first, when reporting a tail.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def samples_beyond(n, p):
    """Samples strictly past the nearest-rank p-th percentile of n samples."""
    return n - math.ceil(p / 100.0 * n)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """Highest TAIL_LADDER percentile keeping MIN_BEYOND samples past it, or None."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile_keeping_tail(values, p):
    """The p-th percentile; refuses when fewer than MIN_BEYOND samples lie past it."""
    beyond = samples_beyond(len(values), p)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(values)} samples leaves {beyond} beyond it (< {MIN_BEYOND})")
    return percentile(values, p)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times_s(spans, aggregates=()):
    """Per span: its duration minus the part its child spans cover, minus the
    aggregated calls booked to it, in seconds. Children may overlap each
    other; aggregates are assumed disjoint from the child spans."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    booked = [0.0] * len(spans)
    for a in aggregates:
        if a["parent"] >= 0:
            booked[a["parent"]] += a["total_s"]
    result = []
    for i, s in enumerate(spans):
        covered = covered_length(children[i], s["start"], s["end"])
        result.append((s["end"] - s["start"] - covered) * 1e-9 - booked[i])
    return result


def self_time_by_layer(spans, aggregates=(), keep=lambda span: True):
    """Summed self time per layer over the spans `keep` accepts; an aggregate
    counts towards its own layer when its parent span is kept."""
    selfs = self_times_s(spans, aggregates)
    table = {}
    for s, t in zip(spans, selfs):
        if keep(s):
            table[s["layer"]] = table.get(s["layer"], 0.0) + t
    for a in aggregates:
        if a["parent"] >= 0 and keep(spans[a["parent"]]):
            table[a["layer"]] = table.get(a["layer"], 0.0) + a["total_s"]
    return table


def count_operations(groups):
    """(attempted, failed) from the harness's check groups: each group is
    [operations, all_failed, some_failed]. A failed check on the group fails
    all of its operations; otherwise some_failed of them failed."""
    attempted = failed = 0
    for operations, all_failed, some_failed in groups:
        attempted += operations
        failed += operations if all_failed else min(some_failed, operations)
    return attempted, failed


def failed_frac(attempted, failed):
    """Failed operations over attempted ones; a failed output check is a failure."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted
