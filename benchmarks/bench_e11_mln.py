"""E11 — Sec. 3 / Prop. 3.1: MLNs as TIDs conditioned on constraints.

Regenerates the Manager/HighlyCompensated example (weight 3.9): direct MLN
semantics vs both TID encodings, including the erratum: the paper's prose
sets p(R) = 1/(w−1) = 1/2.9 ≈ 0.345, but that value is the *weight*; the
probability that makes Prop. 3.1 an identity is 1/w (cf. the appendix,
where weight(X₄) = 1/(w₄−1) ⇒ p = 1/w).
"""

import pytest

from repro.condition import ConditionedScenario
from repro.logic.parser import parse
from repro.mln.mln import MarkovLogicNetwork, SoftConstraint
from repro.mln.translate import Encoding, mln_query_probability, mln_to_tid

from tables import print_table

DOMAIN = ("a", "b")
QUERIES = [
    "exists m. HighComp(m)",
    "Manager('a','b') & HighComp('a')",
    "forall m. forall e. (Manager(m,e) -> HighComp(m))",
    "exists m. exists e. Manager(m,e)",
]


def manager_mln(weight=3.9):
    return MarkovLogicNetwork(
        [SoftConstraint(weight, parse("Manager(m,e) -> HighComp(m)"))],
        domain=DOMAIN,
    )


def agreement_rows():
    mln = manager_mln()
    rows = []
    for text in QUERIES:
        sentence = parse(text)
        direct = mln.probability(sentence)
        via_or = mln_query_probability(mln, sentence, Encoding.OR)
        via_iff = mln_query_probability(mln, sentence, Encoding.IFF)
        rows.append(
            (
                text[:44],
                f"{direct:.8f}",
                f"{via_or:.8f}",
                f"{via_iff:.8f}",
                "ok"
                if abs(direct - via_or) < 1e-9 and abs(direct - via_iff) < 1e-9
                else "MISMATCH",
            )
        )
        assert abs(direct - via_or) < 1e-9
        assert abs(direct - via_iff) < 1e-9
    return rows


def erratum_rows():
    """Paper's 1/(w−1) as probability vs the verified 1/w."""
    mln = manager_mln()
    sentence = parse("exists m. HighComp(m)")
    target = mln.probability(sentence)
    rows = []
    import itertools

    from repro.core.tid import TupleIndependentDatabase
    from repro.logic.formulas import Atom, Or, forall_many
    from repro.logic.terms import Var

    for label, p_aux in (("1/(w-1) [paper prose]", 1 / 2.9), ("1/w [verified]", 1 / 3.9)):
        db = TupleIndependentDatabase()
        db.explicit_domain = frozenset(DOMAIN)
        for name, arity in (("Manager", 2), ("HighComp", 1)):
            for values in itertools.product(DOMAIN, repeat=arity):
                db.add_fact(name, values, 0.5)
        for values in itertools.product(DOMAIN, repeat=2):
            db.add_fact("Aux0", values, p_aux)
        m, e = Var("m"), Var("e")
        gamma = forall_many(
            (m, e),
            Or.of((Atom("Aux0", (m, e)), parse("Manager(m,e) -> HighComp(m)"))),
        )
        got = ConditionedScenario.compile(db, [str(gamma)]).posterior(sentence).probability
        rows.append((label, f"{p_aux:.4f}", f"{got:.8f}", f"{target:.8f}",
                     "ok" if abs(got - target) < 1e-9 else "off"))
    return rows


def test_e11_proposition_31_both_encodings():
    agreement_rows()


def test_e11_erratum_only_one_over_w_matches():
    rows = erratum_rows()
    assert rows[0][4] == "off"
    assert rows[1][4] == "ok"


def test_e11_translation_is_symmetric_database():
    encoded = mln_to_tid(manager_mln(), Encoding.OR)
    assert encoded.database.is_symmetric()


def lifted_scaling_rows(sizes=(2, 4, 8, 16)):
    """SlimShot route: lifted MLN inference via symmetric WFOMC."""
    import time

    from repro.mln.translate import mln_query_probability_symmetric

    sentence = parse("forall m. forall e. (Manager(m,e) -> HighComp(m))")
    rows = []
    for n in sizes:
        mln = MarkovLogicNetwork(
            [SoftConstraint(3.9, parse("Manager(m,e) -> HighComp(m)"))],
            domain=tuple(f"p{i}" for i in range(n)),
        )
        start = time.perf_counter()
        p = mln_query_probability_symmetric(mln, sentence)
        elapsed = time.perf_counter() - start
        tuples = n * n + n + n * n
        rows.append((n, tuples, f"{p:.6f}", f"{elapsed * 1000:.1f} ms"))
    return rows


def test_e11_lifted_mln_scaling():
    rows = lifted_scaling_rows(sizes=(2, 6))
    assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)


@pytest.mark.benchmark(group="e11-mln")
def test_e11_lifted_mln_domain10(benchmark):
    from repro.mln.translate import mln_query_probability_symmetric

    mln = MarkovLogicNetwork(
        [SoftConstraint(3.9, parse("Manager(m,e) -> HighComp(m)"))],
        domain=tuple(f"p{i}" for i in range(10)),
    )
    sentence = parse("exists m. HighComp(m)")

    def run():
        return mln_query_probability_symmetric(mln, sentence)

    assert 0.0 <= benchmark(run) <= 1.0


@pytest.mark.benchmark(group="e11-mln")
def test_e11_translated_query(benchmark):
    mln = manager_mln()
    sentence = parse("exists m. HighComp(m)")

    def run():
        return mln_query_probability(mln, sentence, Encoding.IFF)

    assert 0.0 <= benchmark(run) <= 1.0


@pytest.mark.benchmark(group="e11-mln")
def test_e11_direct_mln(benchmark):
    mln = manager_mln()
    sentence = parse("exists m. HighComp(m)")
    result = benchmark(mln.probability, sentence)
    assert 0.0 <= result <= 1.0


# Filled by main() for run_all_tables.py / BENCH_results.json.
BENCH_RESULTS = {}


def main():
    rows_agree = agreement_rows()
    rows_erratum = erratum_rows()
    rows_lifted = lifted_scaling_rows()
    print_table(
        "E11a: Prop. 3.1 — p_MLN(Q) vs p_D(Q|Γ) (w = 3.9, domain = 2)",
        ["query", "direct MLN", "or-encoding", "iff-encoding", "status"],
        rows_agree,
    )
    print_table(
        "E11b: erratum — auxiliary probability 1/(w−1) vs 1/w",
        ["p(Aux) formula", "value", "p_D(Q|Γ)", "p_MLN(Q)", "status"],
        rows_erratum,
    )
    print_table(
        "E11c: lifted MLN inference (symmetric WFOMC; enumeration infeasible past n=2)",
        ["domain n", "possible tuples", "p(∀ rule)", "time"],
        rows_lifted,
    )
    BENCH_RESULTS.update(
        {
            "agreement_queries": len(rows_agree),
            "lifted_max_domain": rows_lifted[-1][0],
        }
    )


if __name__ == "__main__":
    main()
