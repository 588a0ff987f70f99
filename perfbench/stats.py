"""Percentiles, sample-count rules and the result line of the benchmark."""

import json
import math


def percentile(xs, p):
    """The p-th percentile (0..100) of xs, interpolating linearly between
    the two nearest ranks (the `inclusive` method of statistics.quantiles)."""
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    s = sorted(xs)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(xs):
    return percentile(xs, 50)


# A percentile is reported only from a sample with at least this many
# values beyond it.
TAIL_SAMPLES = 10


def min_samples(p):
    """Smallest sample with TAIL_SAMPLES values above the p-th percentile:
    200 for p95, 100 for p90, 20 for the median."""
    if not 0 <= p < 100:
        raise ValueError(f"percentile {p} outside [0, 100)")
    return math.ceil(TAIL_SAMPLES * 100 / (100 - p) - 1e-9)


def supports(p, n):
    """Whether n samples support reporting the p-th percentile."""
    return n >= min_samples(p)


def result_line(correct, attempted, failed, metrics):
    """The last line the benchmark prints: one JSON object.

    metrics maps a name to (value, unit); every value must be finite."""
    if not isinstance(attempted, int) or attempted < 1:
        raise ValueError(f"attempted must be a whole number >= 1, got {attempted!r}")
    if not isinstance(failed, int) or not 0 <= failed <= attempted:
        raise ValueError(f"failed must be a whole number in [0, attempted], got {failed!r}")
    out = {}
    for name, (value, unit) in metrics.items():
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"metric {name} is not finite: {value!r}")
        out[name] = {"value": v, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": out})
