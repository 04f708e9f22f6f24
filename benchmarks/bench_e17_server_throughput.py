"""E17 — serving layer: coalescing throughput and tail latency under load.

A closed-loop load generator drives a real :class:`repro.server.QueryServer`
over TCP sockets (each client thread owns one connection and fires its next
request the moment the previous answer lands). Three measurements:

* **coalescing on vs off** — the same repeated-traffic workload against
  (a) a server with request coalescing + the shared session cache, and
  (b) the naive baseline (``coalesce=False``: every request is admitted
  and computed from scratch). Coalescing must deliver ≥ 3× the
  throughput — concurrent identical requests share one computation.
* **tail latency under oversubscription** — 4× more client threads than
  evaluation workers; the p99 request latency must stay bounded (within
  ``P99_BUDGET_S``) because coalescing collapses the pile-up instead of
  queueing duplicate work.
* **degradation correctness** — every answer names its ladder rung and
  guarantee, and degraded answers agree with the exact probability
  within the rung's stated error bound.

Run directly for tables (``--quick`` for the CI smoke variant), or via
pytest for the assertions.
"""

import argparse
import statistics
import threading
import time

from repro.engine.session import EngineSession
from repro.obs import MetricsRegistry
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.workloads.generators import full_tid

from tables import print_table

#: The repeated-traffic workload: two #P-hard queries (grounded DPLL — the
#: expensive evaluations coalescing pays off on) plus one safe query.
WORKLOAD = (
    "R(x), S(x,y), T(y)",
    "T(y), S(x,y), R(x) | R(u), T(u)",
    "R(x), S(x,y)",
)

#: Absolute tail-latency budget under 4× oversubscription. Generous for CI
#: machines; the point is that p99 does not grow with the duplicate-request
#: pile-up the way the naive server's does.
P99_BUDGET_S = 5.0

WORKERS = 2
SEED = 17

# Filled by main() for run_all_tables.py / BENCH_results.json.
BENCH_RESULTS = {}


def _make_server(domain_size, coalesce):
    session = EngineSession(full_tid(41, domain_size), seed=SEED)
    config = ServerConfig(
        workers=WORKERS,
        max_pending=1024,
        coalesce=coalesce,
        request_timeout_s=120.0,
    )
    return ServerThread(session, config, registry=MetricsRegistry())


def closed_loop(port, clients, requests_each, queries=WORKLOAD):
    """Drive the server with *clients* threads; return (latencies, responses)."""
    latencies = []
    responses = []
    lock = threading.Lock()
    errors = []

    def run_client(index):
        try:
            with ServerClient("127.0.0.1", port, timeout_s=120.0) as client:
                local_lat, local_resp = [], []
                for i in range(requests_each):
                    query = queries[(index + i) % len(queries)]
                    start = time.perf_counter()
                    response = client.query(query, id=f"c{index}-{i}")
                    local_lat.append(time.perf_counter() - start)
                    local_resp.append(response)
                with lock:
                    latencies.extend(local_lat)
                    responses.extend(local_resp)
        except Exception as error:  # noqa: BLE001 - surfaced to the caller
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=run_client, args=(i,)) for i in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return latencies, responses, elapsed


def measure_mode(domain_size, clients, requests_each, coalesce):
    """Throughput + latency stats for one server mode."""
    with _make_server(domain_size, coalesce) as server:
        latencies, responses, elapsed = closed_loop(
            server.port, clients, requests_each
        )
        snapshot = server.server.registry.snapshot()
    total = clients * requests_each
    assert len(responses) == total
    for response in responses:
        assert response.get("ok"), f"request failed: {response}"
        assert response.get("rung") in ("exact", "bounds", "sampled"), response
        assert response.get("guarantee"), f"answer must state a guarantee: {response}"
    latencies.sort()
    return {
        "throughput": total / elapsed,
        "elapsed": elapsed,
        "p50": latencies[len(latencies) // 2],
        "p99": latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))],
        "mean": statistics.fmean(latencies),
        "coalesced": int(snapshot.get("server_coalesced_total", 0)),
        "responses": responses,
    }


def degraded_agreement(domain_size=3):
    """Force degraded rungs; check each against the exact answer and bound.

    Returns ``(records, ok)`` where each record is
    ``(rung, exact_p, answer_p, stated_bound, within)``.
    """
    session = EngineSession(full_tid(41, domain_size), seed=SEED)
    hard = "R(x), S(x,y), T(y)"
    exact_p = session.query(hard).probability

    records = []
    with ServerThread(
        session,
        ServerConfig(workers=WORKERS, request_timeout_s=120.0),
        registry=MetricsRegistry(),
    ) as server:
        with ServerClient("127.0.0.1", server.port, timeout_s=120.0) as client:
            # Bounds rung: at ε = 4 the DPLL call budget, ⌈3·n·ln(2/δ)/ε²⌉ = 11
            # for the 15-variable lineage, is below the ≈100 calls it needs.
            bounded = client.query(hard, deadline_ms=10_000, epsilon=4.0)
            if bounded.get("rung") == "bounds":
                lower, upper = bounded["bounds"]["lower"], bounded["bounds"]["upper"]
                half_width = (upper - lower) / 2
                within = (
                    lower - 1e-12 <= exact_p <= upper + 1e-12
                    and abs(bounded["probability"] - exact_p) <= half_width + 1e-12
                )
                records.append(
                    ("bounds", exact_p, bounded["probability"], half_width, within)
                )

            # Sampled rung: a deadline nothing exact can meet.
            sampled = client.query(
                hard, deadline_ms=0.0001, epsilon=0.25, delta=0.05
            )
            assert sampled.get("rung") == "sampled", sampled
            bound = sampled["epsilon"] * exact_p  # relative error guarantee
            within = abs(sampled["probability"] - exact_p) <= bound
            records.append(
                ("sampled", exact_p, sampled["probability"], bound, within)
            )
    return records, all(r[-1] for r in records)


# -- assertions (tier-1 / CI) -------------------------------------------------


def test_e17_coalescing_throughput():
    on = measure_mode(4, clients=4 * WORKERS, requests_each=16, coalesce=True)
    off = measure_mode(4, clients=4 * WORKERS, requests_each=16, coalesce=False)
    speedup = on["throughput"] / off["throughput"]
    assert speedup >= 3.0, (
        f"coalescing speedup {speedup:.1f}× < 3× "
        f"(on: {on['throughput']:.0f} rps, off: {off['throughput']:.0f} rps)"
    )


def test_e17_bounded_p99_under_oversubscription():
    result = measure_mode(
        4, clients=4 * WORKERS, requests_each=16, coalesce=True
    )
    assert result["p99"] <= P99_BUDGET_S, (
        f"p99 {result['p99']:.2f}s over budget {P99_BUDGET_S}s "
        f"under {4 * WORKERS} clients / {WORKERS} workers"
    )


def test_e17_degraded_answers_within_stated_bounds():
    records, ok = degraded_agreement(domain_size=3)
    assert any(rung == "sampled" for rung, *_ in records)
    assert ok, f"degraded answers outside stated bounds: {records}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small instances (CI smoke run)"
    )
    args = parser.parse_args()
    domain_size = 4 if args.quick else 5
    clients = 4 * WORKERS
    requests_each = 16 if args.quick else 24

    on = measure_mode(domain_size, clients, requests_each, coalesce=True)
    off = measure_mode(domain_size, clients, requests_each, coalesce=False)
    speedup = on["throughput"] / off["throughput"]
    print_table(
        f"E17a: closed-loop throughput ({clients} clients × {requests_each} "
        f"requests, {WORKERS} workers, domain n={domain_size})",
        ["server mode", "throughput", "p50", "p99", "coalesced"],
        [
            (
                "naive (coalescing off, no cache)",
                f"{off['throughput']:.0f} rps",
                f"{off['p50'] * 1e3:.1f}ms",
                f"{off['p99'] * 1e3:.1f}ms",
                str(off["coalesced"]),
            ),
            (
                "coalescing + shared cache",
                f"{on['throughput']:.0f} rps",
                f"{on['p50'] * 1e3:.1f}ms",
                f"{on['p99'] * 1e3:.1f}ms",
                str(on["coalesced"]),
            ),
        ],
    )
    print(f"coalescing speedup: {speedup:.1f}× (must be ≥ 3×)")
    print(
        f"p99 under {clients / WORKERS:.0f}× oversubscription: "
        f"{on['p99'] * 1e3:.1f}ms (budget {P99_BUDGET_S:.0f}s)"
    )
    print()

    records, ok = degraded_agreement(domain_size=3)
    print_table(
        "E17b: degraded rungs vs the exact probability",
        ["rung", "exact P", "answer P", "stated bound", "within"],
        [
            (
                rung,
                f"{exact_p:.6f}",
                f"{answer_p:.6f}",
                f"±{bound:.4f}",
                str(within),
            )
            for rung, exact_p, answer_p, bound, within in records
        ],
    )
    assert ok, "degraded answers must honor their stated error bounds"

    BENCH_RESULTS.update(
        {
            "coalescing_speedup": round(speedup, 2),
            "throughput_rps_coalescing": round(on["throughput"], 1),
            "throughput_rps_naive": round(off["throughput"], 1),
            "p99_ms_oversubscribed": round(on["p99"] * 1e3, 2),
            "coalesced_requests": on["coalesced"],
            "degraded_within_bounds": ok,
        }
    )


if __name__ == "__main__":
    main()
