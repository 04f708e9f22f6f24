"""The names, units and directions of every reported metric.

``BENCHMARK.json`` is generated from these tables (and from the calibrated
bounds) by ``calibration/calibrate.py``; the harness reports exactly them.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name, unit, which direction is better.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: name → (unit, which direction is better), in reporting order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "logic.parse_ms": ("ms", "lower"),
    "lifted.eval_ms": ("ms", "lower"),
    "plans.build_ms": ("ms", "lower"),
    "plans.exec_ms": ("ms", "lower"),
    "plans.rows_out_per_op": ("count", "lower"),
    "relational.csv_load_ms": ("ms", "lower"),
    "relational.encode_ms": ("ms", "lower"),
    "relational.shm_publish_ms": ("ms", "lower"),
    "relational.shm_attach_ms": ("ms", "lower"),
    "lineage.ground_ms": ("ms", "lower"),
    "lineage.vars_per_op": ("count", "lower"),
    "booleans.unique_nodes_per_op": ("count", "lower"),
    "booleans.cofactor_memo_hit_ratio": ("ratio", "higher"),
    "wmc.dpll_ms": ("ms", "lower"),
    "wmc.shannon_expansions_per_op": ("count", "lower"),
    "wmc.component_cache_hit_ratio": ("ratio", "higher"),
    "wmc.kl_ms": ("ms", "lower"),
    "wmc.kl_samples_per_op": ("count", "lower"),
    "kc.compile_ms": ("ms", "lower"),
    "kc.circuit_nodes_per_op": ("count", "lower"),
    "kc.differentiate_ms": ("ms", "lower"),
    "condition.install_ms": ("ms", "lower"),
    "condition.posterior_ms": ("ms", "lower"),
    "condition.whatif_ms": ("ms", "lower"),
    "core.update_ms": ("ms", "lower"),
    "core.fingerprint_ms": ("ms", "lower"),
    "engine.hit_ms": ("ms", "lower"),
    "engine.answer_hit_ratio": ("ratio", "higher"),
    "engine.evictions_per_kop": ("count", "lower"),
    "engine.unread_write_miss_share": ("ratio", "lower"),
    "server.protocol_ms": ("ms", "lower"),
    "server.ladder_ms": ("ms", "lower"),
    "server.frontdoor_overhead_ms": ("ms", "lower"),
    "server.hot_p50_ms": ("ms", "lower"),
    "server.loaded_p99_ms": ("ms", "lower"),
    "server.rung_share.exact": ("ratio", "higher"),
    "server.rung_share.sampled": ("ratio", "lower"),
    "server.coalesced_share": ("ratio", "higher"),
    "server.overloaded_count": ("count", "lower"),
    "server.worker_imbalance": ("ratio", "lower"),
    "obs.scrape_ms": ("ms", "lower"),
    "harness.round_spread_pct": ("%", "lower"),
    "harness.trace_overhead_pct": ("%", "lower"),
    "harness.layer_sum_gap_pct": ("%", "lower"),
}
