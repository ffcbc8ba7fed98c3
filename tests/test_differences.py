import re

import pytest

import propsemiring.differences as differences
import propsemiring.order as order_module
import propsemiring.properties as properties_module
from propsemiring.algebra import (DomainError, SizeLimitError, TableLoadError,
                                  UnsupportedOperationError, table_semiring)
from propsemiring.differences import (CongruenceError, SubtrahendIdeal,
                                      difference_cancellation_criterion,
                                      difference_semiring, extended_order,
                                      is_ideal, mult_left_cancellative,
                                      subtrahend_ideal,
                                      verify_difference_cancellation)
from propsemiring.morphisms import is_isomorphism
from propsemiring.order import OrderRelation, canonical_order, discrete_order

from helpers import difference_oracle, zmod_spec


@pytest.fixture
def z4():
    return table_semiring(zmod_spec(4))


class TestIdeals:
    def test_singleton_top_is_an_ideal(self, ba1):
        assert is_ideal(ba1, ["⊤"]).holds

    def test_principal_upward_set_is_an_ideal(self, ba1):
        assert is_ideal(ba1, ["⊤", "a"]).holds

    def test_top_must_be_present(self, ba1):
        report = is_ideal(ba1, ["a"])
        assert not report.holds
        assert report.details == {"condition": "⊤ ∈ I"}

    def test_addition_must_not_escape(self, ba1):
        report = is_ideal(ba1, ["⊤", "!a", "a"])
        assert not report.holds
        assert report.witness == ("!a", "a")
        assert report.details == {"condition": "closed under +"}

    def test_multiplication_must_absorb(self, z4):
        # {0, 1} is +-broken and ×-broken; + is scanned first
        report = is_ideal(z4, ["0", "1"])
        assert not report.holds
        assert report.details == {"condition": "closed under +"}
        # {0, 2} is closed both ways
        assert is_ideal(z4, ["0", "2"]).holds

    def test_members_may_be_elements_indices_or_names(self, ba1):
        by_name = is_ideal(ba1, ["⊤", "a"])
        mixed = is_ideal(ba1, [ba1.top, 2])
        assert by_name.holds and mixed.holds

    @pytest.mark.parametrize("index", [-1, 4])
    def test_indices_outside_the_carrier_are_rejected(self, ba1, index):
        with pytest.raises(DomainError, match=f"index {index} outside"):
            is_ideal(ba1, [3, index])

    def test_downward_sets_are_not_ideals(self, ba1):
        # ⊥ pulls in !a via !a × ⊥ = !a, so {⊥, a, ⊤} fails absorption
        report = is_ideal(ba1, ["⊥", "a", "⊤"])
        assert not report.holds
        assert report.details == {"condition": "absorbing under ×"}
        assert report.witness == ("!a", "⊥")


class TestSubtrahendIdeals:
    def test_boolean_carriers_only_offer_top(self, ba1, ba2):
        for algebra in (ba1, ba2):
            ideal = subtrahend_ideal(algebra)
            assert ideal.element_names() == ["⊤"]
            assert ideal.opposite_of(algebra.top_index) == algebra.top_index

    def test_groups_offer_the_whole_carrier(self, z3, z5):
        ideal = subtrahend_ideal(z3)
        assert ideal.element_names() == ["0", "1", "2"]
        assert ideal.opposite_of(1) == 2 and ideal.opposite_of(2) == 1
        ideal = subtrahend_ideal(z5)
        assert ideal.size == 5
        assert ideal.opposite_of(2) == 3

    def test_explicit_members_are_validated(self, z3, ba1):
        ideal = subtrahend_ideal(z3, ["0"])
        assert ideal.element_names() == ["0"]
        with pytest.raises(DomainError, match="not an ideal"):
            subtrahend_ideal(z3, ["0", "1"])
        with pytest.raises(DomainError, match="cancellable"):
            subtrahend_ideal(ba1, ["⊤", "a"])

    def test_z4_keeps_everything(self, z4):
        # every element of a group is cancellable and has an opposite
        assert subtrahend_ideal(z4).size == 4

    @pytest.mark.parametrize("top_squared", [0, 2])
    def test_a_non_associative_sum_is_refused(self, top_squared):
        # {0, 2} is an ideal with opposites, but (1 + 1) + 2 ≠ 1 + (1 + 2),
        # so shrinking from the cancellable elements loses it: it ends at
        # {0}, or with 0 × 0 = 2 at a set that is no ideal
        names = ["0", "1", "2", "3"]
        add = [[0, 1, 2, 3], [1, 0, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
        mul = [[top_squared, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2],
               [0, 3, 2, 1]]
        algebra = table_semiring({
            "name": "nonassoc", "elements": names, "zero": "0", "one": "1",
            "add": [[names[v] for v in row] for row in add],
            "mul": [[names[v] for v in row] for row in mul]})
        with pytest.raises(UnsupportedOperationError,
                           match=re.escape("+ is not associative at (1, 1, 2)")):
            subtrahend_ideal(algebra)
        assert subtrahend_ideal(algebra, ["0", "2"]).element_names() == ["0", "2"]


class TestDifferenceSemiring:
    def test_trivial_subtrahends_give_a_copy(self, ba1):
        diff = difference_semiring(subtrahend_ideal(ba1))
        assert diff.algebra.size == ba1.size
        assert [len(block) for block in diff.classes] == [1, 1, 1, 1]
        assert diff.algebra.name_of(diff.algebra.top_index) == "⊤-⊤"
        assert diff.algebra.name_of(diff.algebra.bot_index) == "⊥-⊤"
        iso = is_isomorphism(diff.embedding, "semiring")
        assert iso.holds

    def test_z3_quotient_is_z3_again(self, z3):
        diff = difference_semiring(subtrahend_ideal(z3))
        assert diff.algebra.size == 3
        assert [len(block) for block in diff.classes] == [3, 3, 3]
        assert is_isomorphism(diff.embedding, "semiring").holds
        # classes collect pairs of equal difference
        for block in diff.classes:
            deltas = {(p - a) % 3 for p, a in block}
            assert len(deltas) == 1

    def test_explicit_singleton_subtrahend(self, z3):
        diff = difference_semiring(subtrahend_ideal(z3, ["0"]))
        assert diff.algebra.size == 3
        assert all(len(block) == 1 for block in diff.classes)

    def test_construction_reports(self, z3):
        diff = difference_semiring(subtrahend_ideal(z3))
        reports = diff.reports
        assert reports["equivalence"].holds
        assert reports["equivalence"].checked == 9 ** 3
        assert reports["congruence"].holds
        assert reports["embedding"].holds
        assert reports["embedding"].property == "difference-embedding"
        assert reports["embedding"].details == {"injective": True}

    def test_table_dict_records_provenance(self, z3):
        doc = difference_semiring(subtrahend_ideal(z3)).to_table_dict()
        assert doc["provenance"] == {"parent": "z3",
                                     "subtrahends": ["0", "1", "2"]}
        # the emitted table is reloadable
        assert table_semiring(doc).size == 3

    def test_forged_subtrahends_break_transitivity(self, ba1):
        # {!a, ⊤} is an ideal, but !a is not cancellable; hand it over
        # unvalidated and the difference relation stops being transitive
        forged = SubtrahendIdeal(algebra=ba1, members=(1, 3), opposites=(1, 3))
        with pytest.raises(CongruenceError, match="transitive"):
            difference_semiring(forged)

    def test_dense_relation_limit(self):
        # ℤ65 has 65 subtrahends, so 4225 formal differences; with 2 × 2
        # changed × no longer distributes, so the relation is held as
        # dense rows, which stop at 4096
        spec = zmod_spec(65)
        spec["mul"][2][2] = "5"
        z65 = table_semiring(spec)
        with pytest.raises(SizeLimitError, match="4225"):
            difference_semiring(subtrahend_ideal(z65))

    @pytest.mark.parametrize("add, mul, zero, one, members, message", [
        ([[0, 0, 0], [0, 1, 2], [2, 2, 1]], [[0, 1, 2], [1, 1, 1], [2, 2, 1]],
         1, 0, (1, 2), "⊗ not well defined at 0-1 ~ 0-2, 1-2 ~ 1-2"),
        # + is not commutative here, so p + β and β + p differ
        ([[0, 1, 2], [1, 0, 1], [2, 2, 1]], [[0, 1, 0], [1, 1, 1], [0, 1, 2]],
         0, 2, (0, 1), "⊕ not well defined at 0-0 ~ 1-1, 2-0 ~ 2-0"),
        # × is not commutative in the next two, and ⊗ differs between
        # pairs of one class in its first argument only, then in its
        # second argument only: rows against representatives catch the
        # first, columns the second
        ([[1, 2, 0], [2, 0, 1], [0, 1, 2]], [[2, 0, 1], [0, 1, 2], [2, 2, 2]],
         2, 1, (0, 1, 2), "⊗ not well defined at 0-1 ~ 1-2, 0-1 ~ 0-1"),
        ([[1, 2, 0], [2, 0, 1], [0, 1, 2]], [[0, 1, 2], [1, 1, 2], [2, 1, 2]],
         2, 0, (0, 1, 2), "⊗ not well defined at 0-1 ~ 0-1, 0-1 ~ 1-2"),
    ])
    def test_forged_subtrahends_break_the_congruence(self, add, mul, zero, one,
                                                     members, message):
        names = ["0", "1", "2"]
        algebra = table_semiring({
            "name": "forged", "elements": names, "zero": names[zero],
            "one": names[one],
            "add": [[names[v] for v in row] for row in add],
            "mul": [[names[v] for v in row] for row in mul]})
        assert is_ideal(algebra, members).holds
        forged = SubtrahendIdeal(algebra=algebra, members=members,
                                 opposites=members)
        with pytest.raises(CongruenceError) as caught:
            difference_semiring(forged)
        assert str(caught.value) == message

    def test_unclosed_forged_subtrahends_are_refused(self):
        # 1 + 1 = 2 lies outside {0, 1}, so the pair (0, 1) ⊕ (0, 1)
        # would have no place among the pairs
        z6 = table_semiring(zmod_spec(6))
        forged = SubtrahendIdeal(algebra=z6, members=(0, 1), opposites=(0, 5))
        with pytest.raises(DomainError, match=re.escape(
                "subtrahends are not an ideal: closed under + fails at "
                "witness ('1', '1')")):
            difference_semiring(forged)

    def test_holding_congruence_runs_no_scan(self, count_calls):
        # ℤ9 has 81 pairs in 9 classes of 9: the reduction decides the
        # congruence, and the count is still that of the definition's scan
        scans = count_calls("_scan_rows", differences)
        z9 = table_semiring(zmod_spec(9))
        diff = difference_semiring(subtrahend_ideal(z9))
        assert [c for c in scans if c[0] == "difference-congruence"] == []
        assert diff.reports["congruence"].holds
        assert diff.reports["congruence"].checked == (9 * 9 ** 2) ** 2

    def test_labels_run_no_scan(self, count_calls):
        # + is commutative and associative on ℤ9, × distributes and each
        # subtrahend's opposite undoes it, so the labels p + α′ decide
        # transitivity and the congruence without a scan; only the
        # subtrahends are checked to be an ideal
        ideal = subtrahend_ideal(table_semiring(zmod_spec(9)))
        scans = count_calls("_scan_rows", differences, order_module,
                            properties_module)
        diff = difference_semiring(ideal)
        assert [args[0] for args in scans] == ["ideal"]
        assert diff.reports["equivalence"].checked == 81 ** 3
        assert differences._labels(ideal) == bytes(
            (p - a) % 9 for p in range(9) for a in range(9))

    def test_labels_lift_the_pair_limit(self):
        # ℤ65 has 4225 differences, more than the dense relation holds,
        # and 65 classes: (p, α) lies in the class of p - α, and the
        # class of q has its head at (0, -q)
        z65 = table_semiring(zmod_spec(65))
        diff = difference_semiring(subtrahend_ideal(z65))
        assert [len(block) for block in diff.classes] == [65] * 65
        assert all({(p - a) % 65 for p, a in block} == {-k % 65}
                   for k, block in enumerate(diff.classes))
        assert diff.embedding_isomorphism().holds
        assert diff.reports["congruence"].checked == (65 * 65 ** 2) ** 2

    @pytest.mark.parametrize("names, one, add, mul, members, forged", [
        # + is not commutative (1 + 2 = 1, 2 + 1 = 2), so the member 1 is
        # not central, nor associative, and × does not distribute; {0, 1}
        # is an ideal, handed over with opposites that undo each member
        ("012", 2, [[0, 1, 2], [1, 0, 1], [2, 2, 1]],
         [[0, 1, 0], [1, 1, 1], [0, 1, 2]], (0, 1), True),
        # + is not associative ((1 + 1) + 2 ≠ 1 + (1 + 2)) and × does not
        # distribute; the explicit subtrahends {0, 2} validate
        ("0123", 1, [[0, 1, 2, 3], [1, 0, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
         [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]], (0, 2),
         False),
        # ℤ3 with 2 × 2 = 0, so × does not distribute
        ("012", 1, [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
         [[0, 0, 0], [0, 1, 2], [0, 2, 0]], (0, 1, 2), False),
        # ℤ2 × the chain a < b under max, with a × that does not
        # distribute: 0b × (1b + 1a) = 0b × 1b = 1b, but 0b×1b + 0b×1a =
        # 1b + 1a = 0b.  The other premises hold, so distributivity alone
        # keeps the labels from building a quotient
        (("0a", "0b", "1a", "1b"), 1,
         [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 0, 1], [3, 3, 1, 1]],
         [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 3]], (0, 2),
         False),
        # + is commutative but not associative ((1 + 1) + 2 = 2, but
        # 1 + (1 + 2) = 0), and × distributes; the explicit subtrahends
        # {0, 2} validate, with opposites 0 and 2
        ("012", 1, [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
         [[0, 0, 0], [0, 1, 2], [0, 2, 0]], (0, 2), False),
        # + is associative, × distributes (and is associative and
        # commutative), and {0, 1} is an ideal of units, but 1 is not
        # central: 1 + 4 = 4 while 4 + 1 = 5.  Centrality alone fails,
        # and the labels p + α′ would build a quotient where ⊕ is not
        # well defined
        ("012345", 4,
         [[0, 1, 2, 3, 4, 5], [1, 0, 2, 3, 4, 5], [2, 2, 2, 3, 3, 3],
          [3, 3, 3, 2, 2, 2], [4, 5, 3, 2, 2, 2], [5, 4, 3, 2, 2, 2]],
         [[0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1], [0, 0, 2, 2, 2, 2],
          [0, 1, 2, 3, 3, 3], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4]],
         (0, 1), False),
    ])
    def test_a_failed_premise_scans_the_relation(self, names, one, add, mul,
                                                  members, forged,
                                                  count_calls):
        algebra = table_semiring({
            "name": "premise", "elements": list(names), "zero": names[0],
            "one": names[one],
            "add": [[names[v] for v in row] for row in add],
            "mul": [[names[v] for v in row] for row in mul]})
        if forged:
            ideal = SubtrahendIdeal(algebra=algebra, members=members,
                                    opposites=members)
        else:
            ideal = subtrahend_ideal(algebra, [names[m] for m in members])
        assert not differences._label_premises(ideal)
        scans = count_calls("_scan_rows", order_module)
        expected = difference_oracle(add, mul, members, algebra.names)
        assert expected[0] == "error"
        with pytest.raises(CongruenceError) as caught:
            difference_semiring(ideal)
        assert str(caught.value) == expected[1]
        assert [args[0] for args in scans] == ["transitivity"]

    def test_quotient_element_names_must_stay_distinct(self):
        # ℤ6 relabelled: with ⊖ = {0, 2, 4} two classes are named b-a-b,
        # and the second one, renamed b-a-b#3, meets an earlier class name
        names = ["b", "b-a", "a-b", "a", "a-b#3", "c"]
        spec = zmod_spec(6)
        algebra = table_semiring({
            "name": "z6", "elements": names, "zero": "b", "one": "b-a",
            "add": [[names[int(v)] for v in row] for row in spec["add"]],
            "mul": [[names[int(v)] for v in row] for row in spec["mul"]]})
        ideal = subtrahend_ideal(algebra, ["b", "a-b", "a-b#3"])
        with pytest.raises(TableLoadError, match="'elements' must be distinct"):
            difference_semiring(ideal)


class TestExtendedOrder:
    def test_boolean_extension_changes_nothing(self, ba1):
        base = canonical_order(ba1)
        result = extended_order(base, subtrahend_ideal(ba1))
        assert result.relation == base
        assert result.matches_base
        assert all(r.holds for r in result.poset)
        assert result.stability.holds
        assert result.base_stability.holds
        assert result.similarity_iff
        assert result.order_used == "supplied"

    def test_discrete_base_on_a_group_stays_discrete(self, z3):
        base = discrete_order(z3)
        result = extended_order(base, subtrahend_ideal(z3))
        assert result.matches_base
        assert result.base_stability.holds
        assert result.similarity_iff

    def test_partial_base_grows_a_cycle(self, z3):
        # base: equality plus the single pair 0 ≼ 1
        matrix = [[1 if p == q else 0 for q in range(3)] for p in range(3)]
        matrix[0][1] = 1
        base = OrderRelation.from_matrix(z3, matrix)
        result = extended_order(base, subtrahend_ideal(z3))

        # shifting 0 ≼ 1 by every Δ puts p ≼' p+1 everywhere, closing a cycle
        assert result.relation.to_matrix() == [[1, 1, 0],
                                               [0, 1, 1],
                                               [1, 0, 1]]
        poset = {r.property: r for r in result.poset}
        assert poset["reflexivity"].holds
        assert poset["antisymmetry"].holds
        assert not poset["transitivity"].holds
        assert not result.matches_base

        # the extension is translation-invariant even though the base is not
        assert result.stability.holds
        assert not result.base_stability.holds
        assert result.base_stability.witness == ("0", "1", "1")
        # (≼' = ≼) ⇔ base stability: False ⇔ False
        assert result.similarity_iff

    def test_foreign_subtrahends_are_rejected(self, z3):
        # a carrier of the same size, whose ideal would otherwise be read
        other = table_semiring(zmod_spec(3))
        with pytest.raises(DomainError, match="different algebra"):
            extended_order(discrete_order(z3), subtrahend_ideal(other))

    def test_universal_quantifier_is_stricter(self, z3):
        matrix = [[1 if p == q else 0 for q in range(3)] for p in range(3)]
        matrix[0][1] = 1
        base = OrderRelation.from_matrix(z3, matrix)
        existential = extended_order(base, subtrahend_ideal(z3))
        universal = extended_order(base, subtrahend_ideal(z3),
                                   universal=True)
        assert universal.universal and not existential.universal
        assert universal.relation.to_matrix() == [[1, 0, 0],
                                                  [0, 1, 0],
                                                  [0, 0, 1]]
        assert all(r.holds for r in universal.poset)
        assert universal.relation != existential.relation

    def test_base_rows_are_shifted_once(self, z3, count_calls):
        calls = count_calls("_shifted", differences)
        base = discrete_order(z3)
        result = extended_order(base, subtrahend_ideal(z3))
        orders = [order for order, _ in calls]
        assert orders[0] is base and orders[1] is result.relation
        assert len(orders) == 2

    def test_json_shape(self, ba1):
        base = canonical_order(ba1)
        doc = extended_order(base, subtrahend_ideal(ba1)).to_json()
        assert doc["matches_base"] is True
        assert doc["similarity_iff"] is True
        assert doc["order_used"] == "supplied"
        assert [r["property"] for r in doc["poset"]] == \
            ["reflexivity", "antisymmetry", "transitivity"]


class TestCancellation:
    def test_left_cancellative_instances(self, ba0, z3, z5):
        assert mult_left_cancellative(ba0).holds
        assert mult_left_cancellative(z3).holds
        assert mult_left_cancellative(z5).holds

    def test_boolean_carrier_is_not_cancellative(self, ba1):
        report = mult_left_cancellative(ba1)
        assert not report.holds
        assert report.witness == ("!a", "⊥", "!a")
        # replay: !a × ⊥ = !a = !a × !a with ⊥ ≠ !a
        c, a, b = (ba1.element_named(w) for w in report.witness)
        assert ba1.mul(c, a) == ba1.mul(c, b) and a != b

    def test_composite_modulus_is_not_cancellative(self, z4):
        report = mult_left_cancellative(z4)
        assert not report.holds
        assert report.witness == ("2", "0", "2")

    def test_criterion_against_field_arithmetic(self, z5):
        ideal = subtrahend_ideal(z5)
        report = difference_cancellation_criterion(ideal)
        # oracle: c·a + Δ·b = c·b + Δ·a ⇔ (c − Δ)(a − b) ≡ 0, and a field
        # kills no product of two non-zero factors
        violations = [(a, b, c, d)
                      for a in range(5) for b in range(5) if a != b
                      for c in range(5) for d in range(5) if d != c
                      if (c - d) * (a - b) % 5 == 0]
        assert report.holds == (not violations)
        assert report.holds

    def test_criterion_fails_on_z4_with_the_oracle_witness(self, z4):
        ideal = subtrahend_ideal(z4)
        report = difference_cancellation_criterion(ideal)
        assert not report.holds
        witness = None
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                for c in range(4):
                    for d in range(4):
                        if d == c:
                            continue
                        if (c - d) * (a - b) % 4 == 0 and witness is None:
                            witness = (str(a), str(b), str(c), str(d))
        assert report.witness == witness == ("0", "2", "0", "2")

    def test_biconditional_on_prime_moduli(self, z2, z3, z5):
        for algebra in (z2, z3, z5):
            outcome = verify_difference_cancellation(subtrahend_ideal(algebra))
            assert outcome.hypothesis_met
            assert outcome.quotient_cancellative.holds
            assert outcome.criterion.holds
            assert outcome.biconditional_holds

    def test_biconditional_survives_broken_hypothesis(self, z4):
        outcome = verify_difference_cancellation(subtrahend_ideal(z4))
        assert not outcome.hypothesis_met
        assert not outcome.quotient_cancellative.holds
        assert not outcome.criterion.holds
        assert outcome.biconditional_holds  # both sides fail together

    def test_boolean_case_is_out_of_hypothesis(self, ba1):
        outcome = verify_difference_cancellation(subtrahend_ideal(ba1))
        assert not outcome.hypothesis_met
        assert outcome.hypothesis.witness == ("!a", "⊥", "!a")
        # with ⊖ = {⊤} the criterion collapses to left-cancellation itself
        assert not outcome.criterion.holds
        assert not outcome.quotient_cancellative.holds
        assert outcome.biconditional_holds
        doc = outcome.to_json()
        assert doc["hypothesis_met"] is False
        assert doc["biconditional_holds"] is True
