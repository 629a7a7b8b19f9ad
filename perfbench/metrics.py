"""Metric arithmetic for perfbench: percentiles, span self times, trace
coverage and the per-layer metrics of a traced op. Pure functions over the
raw records the perfbench binary writes; tested by test_metrics.py."""

import math

# Percentiles considered for the reported tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def samples_beyond(n, percentile):
    """Samples of n that lie strictly beyond the given percentile's rank."""
    return n - math.ceil(n * percentile / 100.0)


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND of n
    samples beyond it, with that count; (None, 0) when even the median has
    too few."""
    best = (None, 0)
    for p in TAIL_LADDER:
        beyond = samples_beyond(n, p)
        if beyond >= MIN_BEYOND:
            best = (p, beyond)
    return best


def duration(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def covered(interval, children):
    """Seconds of `interval` (start_ns, end_ns) covered by the union of the
    children's intervals, each clipped to it."""
    lo, hi = interval
    pieces = sorted((max(lo, c[0]), min(hi, c[1])) for c in children)
    total = 0
    cur_lo = cur_hi = None
    for a, b in pieces:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total * 1e-9


def children_of(spans, index):
    return [(s["start_ns"], s["end_ns"]) for s in spans if s["parent"] == index]


def self_times(spans):
    """Self seconds of each span: its duration minus the part of it that
    its child spans cover."""
    return [duration(s) - covered((s["start_ns"], s["end_ns"]), children_of(spans, i))
            for i, s in enumerate(spans)]


def coverage(spans, selfs, op):
    """Share of the op span's wall time covered by its child spans (the
    top-level layer spans): 1 - self / duration of the op span."""
    for i, s in enumerate(spans):
        if s["op"] == op and s["name"] == "op":
            return 1.0 - selfs[i] / duration(s)
    raise ValueError("op %d has no op span" % op)


def ratio(num, den):
    return num / den if den > 0 else 0.0


# Spans of the stage-2 entry call, by workload: its wall is core.stage2_s.
STAGE2_SPANS = ("core.run_aggregate_analysis", "scenario.run_scenario_sweep")


def op_layers(record, spans, selfs, op):
    """Per-layer metrics of one traced op, from the self times of its spans
    and the numbers the library reported (record["attrs"]). Layers the op
    does not touch read 0."""
    a = record["attrs"]
    by_name = {}
    for i, s in enumerate(spans):
        if s["op"] == op:
            by_name[s["name"]] = by_name.get(s["name"], 0.0) + selfs[i]

    def span_s(name):
        return by_name.get(name, 0.0)

    quote_sim = a.get("quote_sim_s", 0.0)
    price_s = span_s("core.price")
    # Stage 2 is the engine or sweep call; for a quote it is the
    # simulation part of price().
    stage2 = sum(span_s(n) for n in STAGE2_SPANS) + quote_sim
    # A quote's resolutions are call-local builds, seen only in the
    # resolver.build_seconds histogram.
    resolve = a["resolve_s"] if "resolve_s" in a else a.get("resolver_build_s", 0.0)
    wait = a.get("wait_s", 0.0)
    kernel = stage2 - resolve - wait
    occ = a.get("occ_evals", 0.0)
    hits, misses = a.get("resolver_hits", 0.0), a.get("resolver_misses", 0.0)
    lanes = a.get("simd_vector", 0.0) + a.get("simd_tail", 0.0) + a.get("simd_scalar", 0.0)
    model_s, dfa_s = span_s("catmod.run_cat_model"), span_s("dfa.run")
    return {
        "catmod.model_s": model_s,
        "catmod.pairs_per_s": ratio(a.get("pairs", 0.0), model_s),
        "catmod.yelt_s": span_s("catmod.simulate_yelt"),
        "data.write_s": span_s("data.save_yelt_chunked"),
        "data.bytes_written": a.get("bytes_written", 0.0),
        "data.decode_s": a.get("decode_s", 0.0),
        "data.wait_s": wait,
        "data.bytes_read": a.get("bytes_read", 0.0),
        "data.resolve_s": resolve,
        "data.resolver_hit_ratio": ratio(hits, hits + misses),
        "core.stage2_s": stage2,
        "core.kernel_s": kernel,
        "core.occ_evals": occ,
        "core.occ_per_s": ratio(occ, kernel),
        "core.sampling_s": stage2 - a["stage2_off_s"] if a.get("stage2_off_s", 0.0) > 0 else 0.0,
        "core.simd_vector_share": ratio(a.get("simd_vector", 0.0), lanes),
        "core.quote_sim_s": quote_sim,
        "core.quote_post_s": price_s - quote_sim if price_s > 0 else 0.0,
        "core.metrics_s": span_s("core.metrics"),
        "scenario.slots": a.get("scenario_slots", 0.0),
        "scenario.resolutions_avoided": a.get("scenario_resolutions_avoided", 0.0),
        "scenario.distinct_masks": a.get("scenario_distinct_masks", 0.0),
        "dfa.run_s": dfa_s,
        "dfa.trials_per_s": ratio(a.get("dfa_trials", 0.0), dfa_s),
    }


def end_to_end(result):
    """End-to-end metrics of an untraced run: per-op medians and p90 over
    all its client processes, and the median process's set-up time and
    peak memory."""
    ops = result["ops"]
    walls = [o["wall_s"] for o in ops]
    return {
        "op_p50_s": median(walls),
        "op_p90_s": quantile(walls, 0.9),
        "op_cpu_s": median([o["cpu_s"] for o in ops]),
        "setup_s": median(result["setup_s"]),
        "peak_rss_mb": median(result["peak_rss_mb"]),
    }


def per_layer(result):
    """Per-layer metrics of a traced run: the median over traced ops of
    each op's layer metrics, the op CPU/wall ratio, the lowest trace
    coverage of any traced op, and traced / untraced median op wall.
    Returns (metrics, [trace coverage of each traced op])."""
    ops, spans = result["ops"], result["spans"]
    traced = [i for i, o in enumerate(ops) if o["traced"]]
    untraced = [o["wall_s"] for o in ops if not o["traced"]]
    if not traced or not untraced:
        raise ValueError("a traced run needs traced and untraced ops")
    selfs = self_times(spans)
    rows = [op_layers(ops[i], spans, selfs, i) for i in traced]
    out = {name: median([r[name] for r in rows]) for name in rows[0]}
    out["parallel.cpu_per_wall"] = median([ratio(o["cpu_s"], o["wall_s"]) for o in ops])
    coverages = [coverage(spans, selfs, i) for i in traced]
    out["trace.coverage"] = min(coverages)
    out["trace.overhead"] = median([ops[i]["wall_s"] for i in traced]) / median(untraced)
    return out, coverages
