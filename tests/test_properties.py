from propsemiring.algebra import free_boolean_algebra, table_semiring
from propsemiring.properties import (additively_cancellable_elements,
                                     check_semiring_axioms, compute_center,
                                     is_entire, is_multiplicatively_absorbing,
                                     is_simple, is_zerosumfree)

from helpers import zmod_spec

AXIOM_ORDER = ["add-commutativity", "add-associativity", "add-identity",
               "mul-commutativity", "mul-associativity", "mul-identity",
               "distributivity", "top-absorbing"]


def noncommutative_spec() -> dict:
    """Left projection off the identity: x·y = x, y·x = y."""
    rows = [["e", "x", "y"], ["x", "x", "x"], ["y", "y", "y"]]
    return {"name": "proj3", "elements": ["e", "x", "y"],
            "add": rows, "mul": rows, "zero": "e", "one": "e"}


class TestAxiomChecks:
    def test_report_order_is_fixed(self, ba1):
        assert [r.property for r in check_semiring_axioms(ba1)] == AXIOM_ORDER

    def test_all_axioms_hold_on_free_algebras(self, ba2):
        for report in check_semiring_axioms(ba2):
            assert report.holds, report.property
            assert report.witness is None

    def test_all_axioms_hold_on_z3(self, z3):
        for report in check_semiring_axioms(z3):
            assert report.holds, report.property

    def test_checked_counts_are_exhaustive(self, ba1):
        n = ba1.size
        counts = {r.property: r.checked for r in check_semiring_axioms(ba1)}
        assert counts["add-commutativity"] == n * n
        assert counts["add-associativity"] == n ** 3
        assert counts["add-identity"] == n
        assert counts["distributivity"] == n ** 3
        assert counts["top-absorbing"] == n

    def test_corrupted_cell_fails_with_replayable_witness(self):
        doc = zmod_spec(3)
        doc["add"][1][2] = "1"  # ought to be "0"
        algebra = table_semiring(doc)
        reports = {r.property: r for r in check_semiring_axioms(algebra)}

        comm = reports["add-commutativity"]
        assert not comm.holds and comm.witness == ("1", "2")

        assoc = reports["add-associativity"]
        assert not assoc.holds and assoc.witness == ("1", "1", "1")
        # replaying the cited triple reproduces the violated equation
        i, j, k = (algebra.element_named(w) for w in assoc.witness)
        left = algebra.add(algebra.add(i, j), k)
        right = algebra.add(i, algebra.add(j, k))
        assert left != right

        # the untouched multiplication still passes
        assert reports["mul-associativity"].holds

    def test_identity_reports_name_the_identity(self, ba1):
        reports = {r.property: r for r in check_semiring_axioms(ba1)}
        assert reports["add-identity"].to_json()["identity"] == "⊤"
        assert reports["mul-identity"].to_json()["identity"] == "⊥"

    def test_broken_absorption_found_by_scan(self):
        doc = zmod_spec(3)
        doc["mul"][2][2] = "1"  # 2·2 should be 1 anyway; corrupt 0-row instead
        doc["mul"][0][2] = "2"
        algebra = table_semiring(doc)
        report = is_multiplicatively_absorbing(algebra)
        assert not report.holds and report.witness == ("2",)


class TestClassifications:
    def test_zerosumfree(self, ba1, ba2, z3):
        assert is_zerosumfree(ba1).holds
        assert is_zerosumfree(ba2).holds
        report = is_zerosumfree(z3)
        assert not report.holds
        assert report.witness == ("1", "2")
        # replay: the witness pair really does sum to the additive identity
        p, q = (z3.element_named(w) for w in report.witness)
        assert z3.add(p, q) == z3.top

    def test_entire_holds_only_on_the_two_element_algebra(self, ba0, ba1, z3):
        assert is_entire(ba0).holds
        assert is_entire(z3).holds  # a field has no zero divisors
        report = is_entire(ba1)
        assert not report.holds
        assert report.witness == ("!a", "a")  # complementary pair
        p, q = (ba1.element_named(w) for w in report.witness)
        assert ba1.mul(p, q) == ba1.top
        assert p != ba1.top and q != ba1.top

    def test_entire_witness_is_complementary_in_two_atoms(self, ba2):
        report = is_entire(ba2)
        assert not report.holds
        p, q = (ba2.element_named(w) for w in report.witness)
        assert ba2.complement(p) == q

    def test_simple(self, ba1, ba2, z3):
        assert is_simple(ba1).holds
        assert is_simple(ba2).holds
        report = is_simple(z3)
        assert not report.holds and report.witness == ("1",)

    def test_linear_laws_run_on_carriers_too_large_to_compile(self):
        ba4 = free_boolean_algebra(4)
        for report in (is_simple(ba4), is_multiplicatively_absorbing(ba4)):
            assert report.holds and report.checked == 65536, report.property

    def test_center_of_a_commutative_algebra_is_everything(self, ba2, z3):
        assert [e.index for e in compute_center(ba2)] == list(range(16))
        assert [e.name for e in compute_center(z3)] == ["0", "1", "2"]

    def test_center_of_left_projection_is_the_identity(self):
        algebra = table_semiring(noncommutative_spec())
        assert [e.name for e in compute_center(algebra)] == ["e"]
        reports = {r.property: r for r in check_semiring_axioms(algebra)}
        assert not reports["mul-commutativity"].holds
        assert reports["mul-commutativity"].witness == ("x", "y")

    def test_additively_cancellable(self, ba1, ba2, z3):
        assert [e.name for e in additively_cancellable_elements(ba1)] == ["⊤"]
        assert [e.name for e in additively_cancellable_elements(ba2)] == ["⊤"]
        # in a group every element cancels
        assert len(additively_cancellable_elements(z3)) == 3


class TestFreeAlgebraInvariants:
    """The fixed profile every free algebra up to two atoms must show."""

    def test_profile(self):
        for n in range(3):
            algebra = free_boolean_algebra(n)
            assert is_zerosumfree(algebra).holds
            assert is_simple(algebra).holds
            assert is_multiplicatively_absorbing(algebra).holds
            assert len(compute_center(algebra)) == algebra.size
            cancellable = additively_cancellable_elements(algebra)
            assert [e.name for e in cancellable] == ["⊤"]
            assert is_entire(algebra).holds == (algebra.size == 2)


class TestReportSerialization:
    def test_failing_report_schema(self, ba1):
        doc = is_entire(ba1).to_json()
        assert doc == {"property": "entire", "verdict": "fails",
                       "witness": ["!a", "a"], "checked": 7}

    def test_passing_report_schema(self, ba1):
        doc = is_zerosumfree(ba1).to_json()
        assert doc == {"property": "zerosumfree", "verdict": "holds",
                       "witness": None, "checked": 16}

    def test_details_merge_flat(self, ba1):
        doc = check_semiring_axioms(ba1)[2].to_json()
        assert doc["property"] == "add-identity"
        assert doc["identity"] == "⊤"
        assert "details" not in doc
