"""Per-query microbenchmarks: direct calls to the public query functions.

Each (function, set) pair is called a few times to warm up, then timed call
by call on the window (-0.3, 0.9).  The median and the 90th percentile are
reported with the sample count; 200 samples leave 20 beyond the p90.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

QUERY_SETS = ("integers", "geometric_naturals", "cantor", "random_finite")
QUERY_FUNCS = ("runs_in", "rho", "sigma_at", "integrate", "triple_value", "neighborhood_measure")
LO, HI = -0.3, 0.9
WARMUP = 5
SAMPLES = 200


def _queries(e):
    from poroweights.intervals import Interval
    from poroweights.muckenhoupt import triple_value
    from poroweights.porosity import rho, sigma_at
    from poroweights.sets import neighborhood_measure
    from poroweights.weights import WeightSpec, integrate

    i = Interval(LO, HI)
    w = WeightSpec(e, 0.5)
    mid = 0.5 * (LO + HI)
    return {
        "runs_in": lambda: e.runs_in(LO, HI),
        "rho": lambda: rho(e, i),
        "sigma_at": lambda: sigma_at(e, i, 0.5, "right"),
        "integrate": lambda: integrate(w, i),
        "triple_value": lambda: triple_value(w, LO, mid, HI, "plus"),
        "neighborhood_measure": lambda: neighborhood_measure(e, i, 0.01),
    }


def run(seed: int) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    """Metrics `query.<fn>_us.<set>` (median) and `.p90`, plus sample counts."""
    from poroweights.presets import preset

    metrics: dict[str, tuple[float, str]] = {}
    counts: dict[str, int] = {}
    for set_name in QUERY_SETS:
        queries = _queries(preset(set_name, seed=seed))
        for fn in QUERY_FUNCS:
            call = queries[fn]
            for _ in range(WARMUP):
                call()
            times = []
            for _ in range(SAMPLES):
                t0 = perf_counter_ns()
                call()
                times.append((perf_counter_ns() - t0) / 1000.0)
            name = f"query.{fn}_us.{set_name}"
            metrics[name] = (statistics.median(times), "us")
            metrics[name + ".p90"] = (statistics.quantiles(times, n=10)[-1], "us")
            counts[name] = len(times)
    return metrics, counts
