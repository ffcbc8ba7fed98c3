"""Top-level acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (with its runtime) straight to
the terminal, so a full run reads as a ten-line scoreboard.  Criteria
with a stated time budget fail when they exceed it.
"""

import json
import random
import time

import pytest

from propsemiring.algebra import (Subalgebra, free_boolean_algebra,
                                  table_semiring)
from propsemiring.cli import main
from propsemiring.differences import (difference_semiring, extended_order,
                                      subtrahend_ideal,
                                      verify_difference_cancellation)
from propsemiring.formulas import evaluate, parse, unparse
from propsemiring.morphisms import (enumerate_homs, factor, is_isomorphism,
                                    kernel, refines, verify_iso_theorem)
from propsemiring.order import (canonical_order, check_bound_decomposition,
                                check_monotony, check_operation_bounds,
                                check_pairwise_monotony, check_poset, cones,
                                discrete_order)
from propsemiring.properties import (additively_cancellable_elements,
                                     check_semiring_axioms, compute_center,
                                     is_entire, is_multiplicatively_absorbing,
                                     is_simple, is_zerosumfree)

from helpers import random_formula, truth_bits, zmod_spec


def criterion(capsys, tag, description, body, limit=None):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:  # report, then re-raise
        failure = exc
    elapsed = time.perf_counter() - start
    over_budget = limit is not None and elapsed >= limit
    status = "FAIL" if failure is not None or over_budget else "PASS"
    with capsys.disabled():
        print(f"{tag} {status} {description} [{elapsed:.2f}s]")
    if failure is not None:
        raise failure
    if over_budget:
        pytest.fail(f"{tag} took {elapsed:.2f}s, budget {limit:.0f}s")


def test_criterion_01_semiring_axioms(capsys):
    def body():
        for n in range(3):
            algebra = free_boolean_algebra(n)
            for report in check_semiring_axioms(algebra):
                assert report.holds, (n, report.property, report.witness)
                assert report.witness is None

    criterion(capsys, "ACCEPT-01",
              "semiring axioms hold exhaustively on the free algebras n=0,1,2",
              body, limit=5.0)


def test_criterion_02_classification_ledger(capsys):
    def body():
        ba2 = free_boolean_algebra(2)
        assert is_zerosumfree(ba2).holds
        assert is_simple(ba2).holds
        assert is_multiplicatively_absorbing(ba2).holds
        assert len(compute_center(ba2)) == ba2.size

        entire = is_entire(ba2)
        assert not entire.holds
        p, q = (ba2.element_named(w) for w in entire.witness)
        assert ba2.complement(p) == q  # a complementary pair refutes it
        assert is_entire(free_boolean_algebra(0)).holds

        # both verdicts surface in the CLI claim ledger
        assert main(["check", "--free-atoms", "2"]) == 0
        claims = {c["id"]: c for c in json.loads(capsys.readouterr().out)["claims"]}
        assert claims["entire"]["verdict"] == "refuted-with-witness"
        assert claims["entire"]["witness"] == list(entire.witness)
        for claim_id in ("zerosumfree", "simple", "commutative",
                         "multiplicatively-absorbing"):
            assert claims[claim_id]["verdict"] == "confirmed"

    criterion(capsys, "ACCEPT-02",
              "classification ledger on two atoms; entire refuted by a "
              "complementary pair", body)


def test_criterion_03_canonical_order_laws(capsys):
    def body():
        for n in range(4):
            algebra = free_boolean_algebra(n)
            order = canonical_order(algebra)
            reports = (check_poset(order)
                       + check_monotony(order)
                       + [check_operation_bounds(order),
                          check_bound_decomposition(order)])
            pairwise = check_pairwise_monotony(order)
            reports.append(pairwise)
            for report in reports:
                assert report.holds, (n, report.property, report.witness)
            assert pairwise.details == {"mode": "exhaustive"}
            assert pairwise.checked == algebra.size ** 4

    criterion(capsys, "ACCEPT-03",
              "canonical order satisfies poset, monotony, bound and pairwise "
              "laws exhaustively up to n=3", body, limit=30.0)


def test_criterion_04_cones(capsys):
    def body():
        ba2 = free_boolean_algebra(2)
        positive, negative = cones(canonical_order(ba2))
        assert len(positive) == ba2.size
        assert [e.name for e in negative] == ["⊥"]

    criterion(capsys, "ACCEPT-04",
              "positive cone is the whole carrier, negative cone is exactly "
              "{⊥}", body)


def test_criterion_05_cancellable_elements(capsys):
    def body():
        for n in (1, 2):
            cancellable = additively_cancellable_elements(free_boolean_algebra(n))
            assert [e.name for e in cancellable] == ["⊤"]

    criterion(capsys, "ACCEPT-05",
              "only ⊤ is additively cancellable on one and two atoms", body)


def test_criterion_06_homomorphism_counts(capsys):
    def body():
        ba0 = free_boolean_algebra(0)
        counted = []
        for n, expected in ((1, 2), (2, 4)):
            homs = enumerate_homs(free_boolean_algebra(n), ba0, "bpa")
            assert len(homs) == expected
            counted.extend(homs)
        for psi in counted:
            image = Subalgebra(parent=psi.target,
                               members=psi.image_indices())
            assert image.closure_defect(bpa_closed=True) is None

    criterion(capsys, "ACCEPT-06",
              "exactly 2 and 4 structure maps onto the two-element algebra; "
              "every image is a closed subalgebra", body, limit=10.0)


def test_criterion_07_factorization(capsys):
    def body():
        algebras = {m: free_boolean_algebra(m) for m in range(3)}
        factored = 0
        for n in (1, 2):
            source = algebras[n]
            homs_by_target = {m: enumerate_homs(source, algebras[m], "bpa")
                              for m in range(3)}
            for m1 in range(3):
                surjective = [h for h in homs_by_target[m1]
                              if h.is_surjective()]
                for psi1 in surjective:
                    k1 = kernel(psi1)
                    for m2 in range(3):
                        for psi2 in homs_by_target[m2]:
                            expected = refines(k1, kernel(psi2))
                            psi = factor(psi1, psi2)
                            assert (psi is not None) == expected
                            if psi is not None:
                                factored += 1
                                for x in range(source.size):
                                    assert psi.apply_i(psi1.apply_i(x)) == \
                                        psi2.apply_i(x)
        assert factored > 0

    criterion(capsys, "ACCEPT-07",
              "factoring succeeds exactly on kernel refinement and the "
              "factored map recomposes pointwise", body)


def test_criterion_08_iso_theorem(capsys):
    def body():
        algebras = {m: free_boolean_algebra(m) for m in range(3)}
        for n in range(3):
            for m in range(3):
                report = verify_iso_theorem(algebras[n], algebras[m],
                                            "bpa", "embedding")
                assert report.holds, (n, m, report.counterexamples)

        monotone = verify_iso_theorem(algebras[1], algebras[0],
                                      "bpa", "monotone")
        assert not monotone.holds
        maps = [c["map"] for c in monotone.counterexamples]
        assert {"⊥": "⊥", "!a": "⊥", "a": "⊤", "⊤": "⊤"} in maps

    criterion(capsys, "ACCEPT-08",
              "onto + order-embedding is equivalent to isomorphism for all "
              "map pairs up to n=2; the monotone reading is refuted", body)


def test_criterion_09_differences(capsys):
    def body():
        ba1 = free_boolean_algebra(1)
        diff = difference_semiring(subtrahend_ideal(ba1))
        assert is_isomorphism(diff.embedding, "semiring").holds
        extension = extended_order(canonical_order(ba1), diff.subtrahends)
        assert extension.stability.holds

        for p in (2, 3, 5):
            algebra = table_semiring(zmod_spec(p))
            ideal = subtrahend_ideal(algebra)
            assert ideal.size == p
            diff = difference_semiring(ideal)
            assert is_isomorphism(diff.embedding, "semiring").holds
            extension = extended_order(discrete_order(algebra), ideal)
            assert extension.stability.holds

            outcome = verify_difference_cancellation(ideal)
            assert outcome.hypothesis_met
            assert outcome.quotient_cancellative.holds
            assert outcome.criterion.holds
            assert outcome.biconditional_holds

    criterion(capsys, "ACCEPT-09",
              "difference semirings of trivial ideals and modular tables are "
              "isomorphic copies; extension stability and the cancellation "
              "biconditional hold", body, limit=10.0)


def test_criterion_10_parser_round_trip(capsys):
    def body():
        rng = random.Random(1729)
        atoms = ["a", "b", "c"]
        algebra = free_boolean_algebra(3)
        for _ in range(1000):
            f = random_formula(rng, atoms)
            assert parse(unparse(f)) == f
            assert evaluate(f, algebra).index == truth_bits(f, atoms)

    criterion(capsys, "ACCEPT-10",
              "1000 seeded formulas round-trip through print/parse and "
              "evaluate to their independent truth tables", body)
