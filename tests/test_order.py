import pytest

from propsemiring.algebra import (DomainError, SizeLimitError, Subalgebra,
                                  UnsupportedOperationError,
                                  free_boolean_algebra, subalgebra_closure)
from propsemiring.order import (DEFAULT_SEED, SAMPLED_TUPLES, OrderRelation,
                                canonical_order, check_bound_decomposition,
                                check_monotony, check_operation_bounds,
                                check_pairwise_monotony, check_poset, cones,
                                discrete_order, subalgebra_order_report)

from test_properties import noncommutative_spec
from propsemiring.algebra import table_semiring


class TestCanonicalOrder:
    def test_matrix_on_one_atom(self, ba1):
        # p ≼ q iff p + q = q; carrier order ⊥, !a, a, ⊤
        assert canonical_order(ba1).to_matrix() == [
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [1, 0, 1, 0],
            [1, 1, 1, 1],
        ]

    def test_top_is_minimum_and_bot_is_maximum(self, ba2):
        order = canonical_order(ba2)
        for p in range(ba2.size):
            assert order.leq_i(ba2.top_index, p)
            assert order.leq_i(p, ba2.bot_index)

    def test_order_mirrors_reverse_implication(self, ba2):
        # p ≼ q exactly when q's truth rows are a subset of p's
        order = canonical_order(ba2)
        for p in range(ba2.size):
            for q in range(ba2.size):
                assert order.leq_i(p, q) == (p | q == p)

    def test_needs_idempotent_addition(self, z3):
        with pytest.raises(UnsupportedOperationError, match="idempotent"):
            canonical_order(z3)

    def test_needs_commutative_addition(self):
        algebra = table_semiring(noncommutative_spec())
        with pytest.raises(UnsupportedOperationError, match="commutative"):
            canonical_order(algebra)

    def test_matrix_round_trip(self, ba1):
        order = canonical_order(ba1)
        again = OrderRelation.from_matrix(ba1, order.to_matrix())
        assert again == order

    def test_from_matrix_validation(self, ba1):
        with pytest.raises(DomainError, match="4 rows"):
            OrderRelation.from_matrix(ba1, [[1, 0], [0, 1]])
        with pytest.raises(DomainError, match="entries"):
            OrderRelation.from_matrix(ba1, [[1], [1], [1], [1]])
        bad = [[1, 0, 0, 2]] + [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        with pytest.raises(DomainError, match="0 or 1"):
            OrderRelation.from_matrix(ba1, bad)

    def test_from_matrix_takes_booleans_and_floats(self, ba1):
        matrix = canonical_order(ba1).to_matrix()
        loose = [[bool(cell) if p % 2 else float(cell) for cell in row]
                 for p, row in enumerate(matrix)]
        assert OrderRelation.from_matrix(ba1, loose) == canonical_order(ba1)

    def test_discrete_order_refuses_carriers_above_the_dense_limit(self):
        with pytest.raises(SizeLimitError, match="65536 exceeds 4096"):
            discrete_order(free_boolean_algebra(4))


class TestPosetLaws:
    def test_canonical_order_is_a_poset(self, ba2):
        for report in check_poset(canonical_order(ba2)):
            assert report.holds, report.property

    def test_poset_report_names(self, ba1):
        reports = check_poset(canonical_order(ba1))
        assert [r.property for r in reports] == \
            ["reflexivity", "antisymmetry", "transitivity"]

    def test_missing_reflexivity_is_reported(self, ba1):
        matrix = canonical_order(ba1).to_matrix()
        matrix[2][2] = 0
        report = check_poset(OrderRelation.from_matrix(ba1, matrix))[0]
        assert not report.holds and report.witness == ("a",)

    def test_symmetric_pair_breaks_antisymmetry(self, ba1):
        matrix = canonical_order(ba1).to_matrix()
        matrix[0][3] = 1  # now ⊥ ≼ ⊤ and ⊤ ≼ ⊥
        report = check_poset(OrderRelation.from_matrix(ba1, matrix))[1]
        assert not report.holds and report.witness == ("⊥", "⊤")

    def test_broken_transitivity_is_reported(self, ba1):
        # keep only reflexivity plus ⊤ ≼ a ≼ ⊥, dropping ⊤ ≼ ⊥
        matrix = [[1 if p == q else 0 for q in range(4)] for p in range(4)]
        matrix[3][2] = 1
        matrix[2][0] = 1
        report = check_poset(OrderRelation.from_matrix(ba1, matrix))[2]
        assert not report.holds and report.witness == ("⊤", "a", "⊥")


class TestMonotonyAndBounds:
    def test_canonical_order_is_monotone(self, ba2):
        order = canonical_order(ba2)
        for report in check_monotony(ba2, order):
            assert report.holds, report.property

    def test_sparse_order_fails_monotony(self, ba1):
        # identity plus the single pair ⊥ ≼ ⊤
        matrix = [[1 if p == q else 0 for q in range(4)] for p in range(4)]
        matrix[0][3] = 1
        order = OrderRelation.from_matrix(ba1, matrix)
        add_report, mul_report = check_monotony(ba1, order)
        assert not mul_report.holds
        assert mul_report.witness == ("⊥", "⊤", "!a")
        # replay: ⊥ × !a = !a and ⊤ × !a = ⊤, but !a ≼ ⊤ is not in the order
        assert not add_report.holds

    def test_operation_bounds_hold_canonically(self, ba1, ba2):
        for algebra in (ba1, ba2):
            report = check_operation_bounds(algebra, canonical_order(algebra))
            assert report.holds and report.checked == algebra.size ** 2

    def test_operation_bounds_fail_on_discrete_order(self, ba1):
        report = check_operation_bounds(ba1, discrete_order(ba1))
        assert not report.holds
        assert report.witness == ("!a", "⊥")
        assert report.details == {"claim": "p ≼ p + q"}

    def test_bound_decomposition_holds_canonically(self, ba1):
        report = check_bound_decomposition(ba1, canonical_order(ba1))
        assert report.holds and report.checked == ba1.size ** 3

    def test_pairwise_monotony_exhaustive_on_small_carriers(self, ba1, ba2):
        report = check_pairwise_monotony(ba1, canonical_order(ba1))
        assert report.holds and report.checked == ba1.size ** 4
        assert report.details == {"mode": "exhaustive"}
        report = check_pairwise_monotony(ba2, canonical_order(ba2))
        assert report.holds and report.checked == 16 ** 4

    def test_pairwise_monotony_samples_large_carriers(self):
        algebra = free_boolean_algebra(3)
        report = check_pairwise_monotony(algebra, canonical_order(algebra))
        assert report.holds and report.checked == SAMPLED_TUPLES
        assert report.details == {"mode": "sampled", "seed": DEFAULT_SEED,
                                  "samples": SAMPLED_TUPLES}
        again = check_pairwise_monotony(algebra, canonical_order(algebra))
        assert again == report  # same seed, same verdict

    def test_discrete_order_is_a_monotone_poset(self, z3):
        order = discrete_order(z3)
        for report in check_poset(order) + check_monotony(z3, order):
            assert report.holds, report.property


class TestCones:
    def test_free_algebra_cones(self, ba1):
        positive, negative = cones(ba1, canonical_order(ba1))
        assert [e.name for e in positive] == ["⊥", "!a", "a", "⊤"]
        assert [e.name for e in negative] == ["⊥"]

    def test_two_element_cones(self, ba0):
        positive, negative = cones(ba0, canonical_order(ba0))
        assert [e.name for e in positive] == ["⊥", "⊤"]
        assert [e.name for e in negative] == ["⊥"]


class TestSubalgebraReports:
    def test_whole_carrier_subalgebra(self, ba1):
        sub = subalgebra_closure(ba1, [ba1.element_named("a")], bpa_closed=True)
        report = subalgebra_order_report(ba1, sub, canonical_order(ba1))
        assert report.equal
        assert report.difference == ()
        assert report.difference_within_top
        assert report.cancellable == ("⊤",)
        assert report.top_cancellable
        for r in report.restriction_poset + report.restriction_monotony:
            assert r.holds, r.property

    def test_proper_subalgebra_of_two_atoms(self, ba2):
        sub = subalgebra_closure(ba2, [ba2.element_named("a")], bpa_closed=True)
        report = subalgebra_order_report(ba2, sub, canonical_order(ba2))
        assert not report.equal
        assert len(report.difference) == 12
        assert not report.difference_within_top
        assert report.top_cancellable
        for r in report.restriction_poset + report.restriction_monotony:
            assert r.holds, r.property
        doc = report.to_json()
        assert doc["equal"] is False
        assert doc["restriction"]["poset"][0]["verdict"] == "holds"

    def test_reflexivity_failure_reports_its_position(self, ba2):
        sub = subalgebra_closure(ba2, [ba2.element_named("a")], bpa_closed=True)
        matrix = canonical_order(ba2).to_matrix()
        second = sub.members[1]
        matrix[second][second] = 0
        report = subalgebra_order_report(
            ba2, sub, OrderRelation.from_matrix(ba2, matrix))
        reflexivity = report.restriction_poset[0]
        assert not reflexivity.holds
        assert reflexivity.witness == (ba2.name_of(second),)
        assert reflexivity.checked == 2

    def test_invalid_subalgebra_is_rejected(self, ba2):
        order = canonical_order(ba2)
        open_set = Subalgebra(parent=ba2,
                              members=(0, ba2.index_of("a"),
                                       ba2.index_of("0100"), ba2.mask))
        with pytest.raises(DomainError, match="not a subalgebra"):
            subalgebra_order_report(ba2, open_set, order)

    def test_foreign_subalgebra_is_rejected(self, ba1, ba2):
        sub = subalgebra_closure(ba1, [], bpa_closed=True)
        with pytest.raises(DomainError, match="different algebra"):
            subalgebra_order_report(ba2, sub, canonical_order(ba2))
