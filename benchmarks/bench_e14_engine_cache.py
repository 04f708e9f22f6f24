"""E14 — engine sessions: content-addressed caching of repeated traffic.

The session layer (`repro.engine`) targets the serving workload the
ROADMAP aims at: the same queries arriving over and over against a
database that changes rarely. Three measurements:

* **cold vs warm** — a workload of mixed safe/hard queries evaluated
  twice through one `EngineSession`; the second pass is pure cache
  (fingerprint + LRU lookup) and must be ≥ 5× faster (in practice it is
  orders of magnitude faster);
* **sequential vs batch** — a repeated-traffic workload evaluated one
  call at a time (a) by the plain uncached façade and (b) by one
  `EngineSession`, whose cache computes each distinct query exactly once
  and serves every repeat;
* **write to an unread relation** — after the workload is warm, a fact is
  added to ``Audit``, which no workload query names. The workload is all
  CQs/UCQs, whose answers are keyed on the relations they read, so every
  re-read must still be a cache hit with a bit-identical answer.

Cached answers are asserted numerically identical to uncached ones.

Run directly for tables (``--quick`` for the CI smoke variant), or via
pytest for the assertions.
"""

import argparse
import time

from repro import EngineSession, ProbabilisticDatabase
from repro.workloads.generators import full_tid

from tables import print_table

WORKLOAD = (
    "R(x), S(x,y), T(y)",       # #P-hard H0: grounded DPLL
    "R(x), S(x,y)",             # safe: lifted
    "S(x,y), T(y)",             # safe: lifted
    "R(x), S(x,y) | T(u), S(u,v)",  # UCQ
)


def cold_warm_times(domain_size=5, warm_rounds=3):
    """One session, same workload twice; returns per-pass times + agreement."""
    session = EngineSession(full_tid(41, domain_size), seed=0)
    start = time.perf_counter()
    cold = [session.query(q) for q in WORKLOAD]
    cold_time = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(warm_rounds):
        warm = [session.query(q) for q in WORKLOAD]
    warm_time = (time.perf_counter() - start) / warm_rounds
    identical = all(
        c.probability == w.probability for c, w in zip(cold, warm)
    ) and all(w.stats.cache_hit for w in warm)
    return cold_time, warm_time, identical, session


def batch_vs_sequential(domain_size=5, repeat=4):
    """Repeated traffic: plain uncached loop vs the same loop on a session."""
    queries = list(WORKLOAD) * repeat
    uncached = ProbabilisticDatabase(tid=full_tid(41, domain_size), seed=0)
    start = time.perf_counter()
    sequential = [uncached.probability(q) for q in queries]
    sequential_time = time.perf_counter() - start

    session = EngineSession(full_tid(41, domain_size), seed=0)
    start = time.perf_counter()
    batched = [session.query(q) for q in queries]
    batch_time = time.perf_counter() - start

    identical = [a.probability for a in batched] == [
        a.probability for a in sequential
    ]
    return sequential_time, batch_time, identical, session


def unread_write_reread(domain_size=5):
    """Warm the workload, write to an unread relation, re-read it.

    Returns the re-read time, whether every re-read hit the cache, and
    whether every re-read answer is bit-identical to the warm one.
    """
    session = EngineSession(full_tid(41, domain_size), seed=0)
    warm = [session.query(q) for q in WORKLOAD]
    session.add_fact("Audit", ("a-new-constant",), 1.0)
    start = time.perf_counter()
    reread = [session.query(q) for q in WORKLOAD]
    reread_time = time.perf_counter() - start
    all_hits = all(a.stats.cache_hit for a in reread)
    identical = [a.probability for a in reread] == [a.probability for a in warm]
    return reread_time, all_hits, identical


# -- assertions (tier-1 / CI) -------------------------------------------------


def test_e14_warm_cache_speedup():
    cold_time, warm_time, identical, _ = cold_warm_times(domain_size=4)
    assert identical
    assert cold_time >= 5 * warm_time, (
        f"warm pass not ≥5× faster: cold={cold_time:.4f}s warm={warm_time:.4f}s"
    )


def test_e14_batch_beats_sequential():
    sequential_time, batch_time, identical, session = batch_vs_sequential(
        domain_size=4, repeat=4
    )
    assert identical
    assert batch_time < sequential_time, (
        f"batch {batch_time:.4f}s not faster than sequential "
        f"{sequential_time:.4f}s"
    )
    # each distinct query computed once, the rest served from the cache
    assert session.stats.cache_misses == len(WORKLOAD)


def test_e14_cached_equals_uncached():
    session = EngineSession(full_tid(41, 4), seed=0)
    reference = ProbabilisticDatabase(tid=full_tid(41, 4), seed=0)
    for query in WORKLOAD:
        cold = session.query(query)
        warm = session.query(query)
        assert warm.probability == cold.probability
        assert cold.probability == reference.probability(query).probability


def test_e14_unread_write_keeps_answers_cached():
    _, all_hits, identical = unread_write_reread(domain_size=4)
    assert all_hits
    assert identical


# Filled by main() for run_all_tables.py / BENCH_results.json.
BENCH_RESULTS = {}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small instances (CI smoke run)"
    )
    args = parser.parse_args()
    domain_size = 4 if args.quick else 5
    repeat = 3 if args.quick else 6

    cold_time, warm_time, identical, session = cold_warm_times(domain_size)
    print_table(
        f"E14a: cold vs warm (domain n={domain_size}, {len(WORKLOAD)} queries)",
        ["pass", "time", "speedup", "identical"],
        [
            ("cold (first evaluation)", f"{cold_time * 1e3:.1f}ms", "1×", "-"),
            (
                "warm (content-addressed cache)",
                f"{warm_time * 1e3:.3f}ms",
                f"{cold_time / warm_time:.0f}×",
                str(identical),
            ),
        ],
    )
    print(session.report())
    print()

    sequential_time, batch_time, identical, session = batch_vs_sequential(
        domain_size, repeat
    )
    print_table(
        f"E14b: repeated traffic ({len(WORKLOAD)} queries × {repeat})",
        ["strategy", "time", "speedup", "identical"],
        [
            (
                "sequential, uncached façade",
                f"{sequential_time * 1e3:.1f}ms",
                "1×",
                "-",
            ),
            (
                "sequential, session cache",
                f"{batch_time * 1e3:.1f}ms",
                f"{sequential_time / batch_time:.1f}×",
                str(identical),
            ),
        ],
    )
    print(session.report())
    print()

    reread_time, all_hits, identical = unread_write_reread(domain_size)
    print_table(
        "E14c: write to an unread relation, then re-read the warm workload",
        ["pass", "time", "all hits", "bit-identical"],
        [("re-read after Audit write", f"{reread_time * 1e3:.3f}ms", str(all_hits), str(identical))],
    )
    if not (all_hits and identical):
        raise SystemExit("E14c: a write to an unread relation disturbed cached answers")
    BENCH_RESULTS.update(
        {
            "cold_warm_speedup": round(cold_time / warm_time, 1),
            "batch_speedup": round(sequential_time / batch_time, 2),
        }
    )


if __name__ == "__main__":
    main()
