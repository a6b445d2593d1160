"""Per-layer metrics derived from one traced child's spans and counters.

Layer names are the diophlab modules.  ``self_s`` of a layer is the time of
its outermost spans minus the union of the intervals covered by the first
spans of other layers below them (calls into other layers); spans of the
same layer below an outermost span count as its own time.

Which end-to-end metric each layer should move, and where: counting moves
wall_s and samples_per_s on every workload (escalations on clt-n1-deep, the
float path on lln-n1 and cov-n2-euclid, the kernel build and peak RSS on
cov-n2-euclid); theory moves wall_s on cov-n2-euclid only, the one workload
that evaluates Theta_inf, and at ~5% of its wall a theory change is claimed
on the call counts, not on time; montecarlo and cli are small everywhere.
The lattice metrics come from the traced alpha probes (see probes.py).
The cumulants and problem modules are on no experiment's hot path, so no
metric times them.
"""

from __future__ import annotations

import statistics

NS = 1e-9
ALPHA_FLOW_TIMES = (3, 6, 9)  # s = ceil(4 log L) for L = 2, 4, 8, as in alpha-tail --kappa 4
RUN_SPANS = ("montecarlo.run_lln", "montecarlo.run_clt", "montecarlo.run_covariance")

# wrapped target -> metrics that read "not observed" when the target is gone
WRAPPED_FOR = {
    "counting.kernel_build": ("counting.kernel_build_s", "counting.kernel_q_points", "counting.kernel_bytes_computed"),
    "counting.block_counts": ("counting.block_counts_calls", "counting.block_counts_ms_p50", "counting.block_counts_ms_p95",
                              "counting.escalations_per_sample"),
    "counting.per_q_product_counts": ("counting.per_q_s", "counting.escalation_share", "counting.float_path_ns_per_q"),
    "counting.exact_open_count": ("counting.escalations_per_sample", "counting.escalation_s", "counting.escalation_share",
                                  "counting.float_path_ns_per_q"),
    "lattice.alpha": ("lattice.alpha_calls",) + tuple(
        f"lattice.alpha_ms_{q}_s{s}" for s in ALPHA_FLOW_TIMES for q in ("p50", "p95")),
    "lattice.lll_reduce": ("lattice.lll_s",),
    "lattice.fincke_pohst": ("lattice.fp_calls", "lattice.fp_vectors", "lattice.fp_s", "lattice.covolume_rounds_per_call"),
    "lattice.min_covolume": ("lattice.covolume_rounds_per_call",),
    "lattice.scan_min_covolume": ("lattice.scan_s",),
    "theory.constants": ("theory.busy_s",),
    "theory.theta_infinity": ("theory.theta_infinity_calls", "theory.theta_infinity_distinct_args", "theory.busy_s"),
    "theory.zeta": ("theory.zeta_calls",),
    "montecarlo.sample_u_at": ("montecarlo.sample_u_s",),
    "cli.main": ("cli.self_s",),
    "cli.emit_results": ("cli.emit_s",),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _union_length(intervals, lo: int, hi: int) -> int:
    covered, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_seconds(spans, layer: str) -> float:
    children: dict = {}
    for span in spans:
        children.setdefault(span[2], []).append(span)
    by_id = {span[0]: span for span in spans}
    total = 0
    for span in spans:
        parent = by_id.get(span[2])
        if _layer(span[1]) != layer or (parent is not None and _layer(parent[1]) == layer):
            continue
        boundary, todo = [], list(children.get(span[0], ()))
        while todo:
            child = todo.pop()
            if _layer(child[1]) == layer:
                todo.extend(children.get(child[0], ()))
            else:
                boundary.append((child[3], child[4]))
        total += span[4] - span[3] - _union_length(boundary, span[3], span[4])
    return total * NS


def metrics(dump: dict) -> dict:
    spans = dump["spans"]
    counters = dump["counters"]
    named: dict = {}
    for span in spans:
        named.setdefault(span[1], []).append(span)

    def dur(name):
        return [(s[4] - s[3]) * NS for s in named.get(name, ())]

    def extra(name, key):
        return [s[6][key] for s in named.get(name, ()) if s[6] and key in s[6]]

    out: dict = {}

    out["counting.kernel_build_s"] = sum(dur("counting.kernel_build"))
    out["counting.kernel_q_points"] = sum(extra("counting.kernel_build", "q_points"))
    out["counting.kernel_bytes_computed"] = sum(extra("counting.kernel_build", "bytes"))
    block_ms = [d * 1e3 for d in dur("counting.block_counts")]
    out["counting.block_counts_calls"] = len(block_ms)
    out["counting.block_counts_ms_p50"] = percentile(block_ms, 50)
    out["counting.block_counts_ms_p95"] = percentile(block_ms, 95)
    per_q_s = sum(dur("counting.per_q_product_counts"))
    per_q_points = sum(extra("counting.per_q_product_counts", "q_points"))
    escalations, escalation_ns = counters.get("counting.exact_open_count", (0, 0))
    out["counting.per_q_s"] = per_q_s
    out["counting.escalations_per_sample"] = escalations / len(block_ms) if block_ms else 0.0
    out["counting.escalation_s"] = escalation_ns * NS
    out["counting.escalation_share"] = escalation_ns * NS / per_q_s if per_q_s else 0.0
    out["counting.float_path_ns_per_q"] = (
        (per_q_s - escalation_ns * NS) / per_q_points * 1e9 if per_q_points else 0.0
    )

    alphas = named.get("lattice.alpha", ())
    out["lattice.alpha_calls"] = len(alphas)
    for s in ALPHA_FLOW_TIMES:
        ms = [(a[4] - a[3]) * NS * 1e3 for a in alphas if a[6] and a[6].get("s") == s and a[6].get("d") == 3]
        out[f"lattice.alpha_ms_p50_s{s}"] = percentile(ms, 50)
        out[f"lattice.alpha_ms_p95_s{s}"] = percentile(ms, 95)
    out["lattice.lll_s"] = sum(dur("lattice.lll_reduce"))
    fp = named.get("lattice.fincke_pohst", ())
    out["lattice.fp_calls"] = len(fp)
    out["lattice.fp_vectors"] = sum(extra("lattice.fincke_pohst", "vectors"))
    out["lattice.fp_s"] = sum(dur("lattice.fincke_pohst"))
    out["lattice.scan_s"] = sum(dur("lattice.scan_min_covolume"))
    covolume_ids = {s[0] for s in named.get("lattice.min_covolume", ())}
    rounds = sum(1 for s in fp if s[2] in covolume_ids)
    out["lattice.covolume_rounds_per_call"] = rounds / len(covolume_ids) if covolume_ids else 0.0

    out["theory.theta_infinity_calls"] = len(named.get("theory.theta_infinity", ()))
    out["theory.theta_infinity_distinct_args"] = len({tuple(k) for k in extra("theory.theta_infinity", "key")})
    # constants runs on every workload, so this time is never a constant 0
    out["theory.busy_s"] = sum(dur("theory.constants")) + sum(dur("theory.theta_infinity"))
    out["theory.zeta_calls"] = counters.get("theory.zeta", (0, 0))[0]

    out["montecarlo.self_s"] = self_seconds(spans, "montecarlo")
    out["montecarlo.sample_u_s"] = counters.get("montecarlo.sample_u_at", (0, 0))[1] * NS
    runs = [s for name in RUN_SPANS for s in named.get(name, ())]
    run_wall = sum((s[4] - s[3]) * NS for s in runs)
    run_cpu = sum(s[6]["cpu_s"] for s in runs if s[6])
    out["montecarlo.parallelism"] = run_cpu / run_wall if run_wall else 0.0

    out["cli.self_s"] = self_seconds(spans, "cli")
    out["cli.emit_s"] = sum(dur("cli.emit_results"))
    return out


def not_observed(missing) -> list:
    """Metric names that depend on a wrapped function the package no longer has."""
    names = []
    for target in missing:
        names.extend(n for n in WRAPPED_FOR.get(target, ()) if n not in names)
    return names


def median_metrics(per_child) -> dict:
    keys = per_child[0].keys()
    return {k: float(statistics.median(m[k] for m in per_child)) for k in keys}
