import pytest

import propsemiring.morphisms as morphisms
from propsemiring.algebra import (CompiledTables, DomainError,
                                  SizeLimitError, UnsupportedOperationError,
                                  free_boolean_algebra, table_semiring)
from propsemiring.morphisms import (Morphism, check_morphism, enumerate_homs,
                                    factor, is_isomorphism, kernel, refines,
                                    verify_iso_theorem)

from helpers import bool2_spec


@pytest.fixture
def eval_top(ba1, ba0):
    """Evaluate at the assignment making a true: keeps row 1 of each table."""
    return Morphism.from_names(ba1, ba0, {"⊥": "⊥", "!a": "⊥",
                                          "a": "⊤", "⊤": "⊤"})


@pytest.fixture
def eval_bot(ba1, ba0):
    """Evaluate at the assignment making a false: keeps row 0."""
    return Morphism.from_names(ba1, ba0, {"⊥": "⊥", "!a": "⊤",
                                          "a": "⊥", "⊤": "⊤"})


@pytest.fixture
def identity1(ba1):
    return Morphism(ba1, ba1, range(ba1.size))


class TestMorphismBasics:
    def test_from_names_and_apply(self, eval_top, ba1, ba0):
        assert eval_top.apply(ba1.element_named("a")) == ba0.top
        assert eval_top.apply(ba1.element_named("!a")) == ba0.bot
        assert eval_top.name_map() == {"⊥": "⊥", "!a": "⊥",
                                       "a": "⊤", "⊤": "⊤"}

    def test_from_names_requires_totality(self, ba1, ba0):
        with pytest.raises(DomainError, match="does not cover"):
            Morphism.from_names(ba1, ba0, {"⊥": "⊥", "⊤": "⊤"})
        with pytest.raises(DomainError):
            Morphism.from_names(ba1, ba0, {"⊥": "nope", "!a": "⊥",
                                           "a": "⊤", "⊤": "⊤"})

    def test_an_element_named_twice_is_rejected(self, ba1, ba0):
        # "top" is another name of ⊤
        with pytest.raises(DomainError, match="'top' is mapped twice"):
            Morphism.from_names(ba1, ba0, {"⊥": "⊥", "!a": "⊥", "a": "⊤",
                                           "⊤": "⊤", "top": "⊤"})

    def test_mapping_length_is_checked(self, ba1, ba0):
        with pytest.raises(DomainError, match="all 4 elements"):
            Morphism(ba1, ba0, [0, 1])
        with pytest.raises(DomainError, match="outside"):
            Morphism(ba1, ba0, [0, 0, 9, 1])

    def test_injectivity_and_surjectivity(self, eval_top, identity1):
        assert eval_top.is_surjective() and not eval_top.is_injective()
        assert identity1.is_surjective() and identity1.is_injective()

    def test_compose(self, eval_top, identity1, ba1, ba0):
        assert eval_top.compose(identity1) == eval_top
        inclusion = Morphism(ba0, ba1, [0, ba1.mask])
        back = inclusion.compose(eval_top)
        assert back.mapping == (0, 0, 3, 3)
        with pytest.raises(DomainError, match="compose"):
            eval_top.compose(eval_top)

    def test_names_of_a_carrier_above_the_table_limit_are_not_listed(
            self, ba0):
        ba4 = free_boolean_algebra(4)
        inclusion = Morphism(ba0, ba4, [0, ba4.mask])
        assert inclusion.name_map() == {"⊥": "⊥", "⊤": "⊤"}
        # free:4's 65,536 names are read one index at a time, free:0's
        # from a tuple
        assert ba4.name_lookup == ba4.name_of
        assert ba0.name_lookup.__self__ == ("⊥", "⊤")

    def test_to_json(self, eval_top):
        assert eval_top.to_json() == {
            "source": "free:1", "target": "free:0",
            "map": {"⊥": "⊥", "!a": "⊥", "a": "⊤", "⊤": "⊤"}}


class TestCheckMorphism:
    def test_identity_is_a_bpa_homomorphism(self, ba2):
        psi = Morphism(ba2, ba2, range(ba2.size))
        report = check_morphism(psi, "bpa")
        assert report.holds
        assert report.checked == 2 + ba2.size ** 2 + ba2.size

    def test_evaluation_maps_are_homomorphisms(self, eval_top, eval_bot):
        for psi in (eval_top, eval_bot):
            assert check_morphism(psi, "semiring").holds
            assert check_morphism(psi, "bpa").holds

    def test_collapsing_map_breaks_top_preservation(self, ba1, ba0):
        psi = Morphism(ba1, ba0, [0, 0, 0, 0])
        report = check_morphism(psi, "semiring")
        assert not report.holds
        assert report.witness == ("⊤",)
        assert report.details == {"condition": "⊤ preserved"}

    def test_addition_violation_is_caught_with_pair(self, ba1):
        # send both literals to ⊤: their sum must land on ⊥ but lands on ⊤
        psi = Morphism.from_names(ba1, ba1, {"⊥": "⊥", "!a": "⊤",
                                             "a": "⊤", "⊤": "⊤"})
        report = check_morphism(psi, "semiring")
        assert not report.holds
        assert report.witness == ("!a", "a")
        assert report.details == {"condition": "+ preserved"}

    def test_complement_violation_only_matters_for_bpa(self, ba1, ba2):
        # embed ba1 into ba2 by a ↦ a & b: semiring-fine, complement breaks
        a_and_b = ba2.element_named("1000")
        images = {"⊥": "⊥", "⊤": "⊤", "a": a_and_b.name,
                  "!a": ba2.complement(a_and_b).name}
        psi = Morphism.from_names(ba1, ba2, images)
        assert check_morphism(psi, "semiring").holds
        assert check_morphism(psi, "bpa").holds
        # now pair a with a non-complementary image
        images["!a"] = ba2.element_named("0001").name
        psi = Morphism.from_names(ba1, ba2, images)
        assert not check_morphism(psi, "semiring").holds

    def test_bpa_kind_needs_complements(self, ba1, z3):
        psi = Morphism(z3, z3, range(3))
        message = "bpa morphisms need complements on both algebras"
        with pytest.raises(UnsupportedOperationError, match=message):
            check_morphism(psi, "bpa")
        with pytest.raises(UnsupportedOperationError, match=message):
            enumerate_homs(z3, z3, "bpa")
        with pytest.raises(DomainError, match="kind"):
            check_morphism(Morphism(ba1, ba1, range(4)), "ring")
        with pytest.raises(DomainError, match="kind"):
            enumerate_homs(ba1, ba1, "ring")
        # is_isomorphism asks for complements before it reads injectivity
        for mapping in ([0, 0, 0], range(3)):
            with pytest.raises(UnsupportedOperationError, match=message):
                is_isomorphism(Morphism(z3, z3, mapping), "bpa")


    def test_four_atom_target_is_read_at_the_images(self, ba0, ba1):
        ba4 = free_boolean_algebra(4)
        a = ba4.atom_value(0)
        inclusion = Morphism(ba0, ba4, [0, ba4.mask])
        assert check_morphism(inclusion, "bpa").checked == 2 + 4 + 2
        atom = Morphism(ba1, ba4, [0, ba4.mask ^ a, a, ba4.mask])
        report = check_morphism(atom, "bpa")
        assert report.holds and report.checked == 2 + 16 + 4
        # !a ↦ a: !a + a = ⊥ but a + a = a
        broken = Morphism(ba1, ba4, [0, a, a, ba4.mask])
        report = check_morphism(broken, "bpa")
        assert not report.holds and report.witness == ("!a", "a")
        assert report.checked == 2 + 4 + 3
        assert report.details == {"condition": "+ preserved"}

    def test_a_holding_map_is_checked_in_few_row_compositions(
            self, ba1, monkeypatch):
        # b ↦ its values at the assignments 0 and 1: a homomorphism onto
        # free:1.  Per image value one + and one × row, per band one + and
        # one × composition (log₂ 256 + 1 bands), and one ! row each side;
        # no composition reads more than 2¹⁶ positions.
        ba3 = free_boolean_algebra(3)
        psi = Morphism(ba3, ba1, [e & 3 for e in range(ba3.size)])
        compose, calls = CompiledTables.compose, []

        def counted(outer, inner):
            calls.append(len(inner))
            return compose(outer, inner)

        monkeypatch.setattr(CompiledTables, "compose", staticmethod(counted))
        report = check_morphism(psi, "bpa")
        assert report.holds and report.checked == 2 + 256 ** 2 + 256
        assert len(calls) <= 2 * len(psi.image_indices()) + 2 * 9 + 2
        assert max(calls) <= 1 << 16

    def test_four_atom_source_hits_the_table_limit(self, ba0):
        ba4 = free_boolean_algebra(4)
        for image in ([i & 1 for i in range(ba4.size)], [0] * ba4.size):
            # also when ⊤ is not preserved
            with pytest.raises(SizeLimitError, match="4096"):
                check_morphism(Morphism(ba4, ba0, image))


class TestKernelsAndFactoring:
    def test_kernel_blocks(self, eval_top, identity1):
        assert kernel(eval_top).to_json() == [["⊥", "!a"], ["a", "⊤"]]
        assert kernel(identity1).to_json() == [["⊥"], ["!a"], ["a"], ["⊤"]]

    def test_block_of(self, eval_top):
        ker = kernel(eval_top)
        assert ker.block_of(0) == (0, 1)
        assert ker.block_of(3) == (2, 3)
        with pytest.raises(DomainError):
            ker.block_of(9)

    def test_refines(self, eval_top, eval_bot, identity1):
        fine = kernel(identity1)
        assert refines(fine, kernel(eval_top))
        assert not refines(kernel(eval_top), fine)
        assert refines(kernel(eval_top), kernel(eval_top))
        # the two evaluation kernels cut the carrier crosswise
        assert not refines(kernel(eval_top), kernel(eval_bot))
        assert not refines(kernel(eval_bot), kernel(eval_top))

    def test_factor_through_identity(self, identity1, eval_top):
        psi = factor(identity1, eval_top)
        assert psi is not None
        for x in range(4):
            assert psi.apply_i(identity1.apply_i(x)) == eval_top.apply_i(x)

    def test_factor_through_itself_gives_identity(self, eval_top, ba0):
        psi = factor(eval_top, eval_top)
        assert psi is not None and psi.mapping == (0, 1)

    def test_factor_fails_across_crossing_kernels(self, eval_top, eval_bot):
        assert factor(eval_top, eval_bot) is None
        assert factor(eval_bot, eval_top) is None

    def test_factor_requires_surjective_psi1(self, ba1, ba0, eval_top):
        collapse = Morphism(ba1, ba0, [0, 0, 0, 0])
        with pytest.raises(ValueError, match="surjective"):
            factor(collapse, eval_top)

    def test_factor_compares_every_source_element(self, ba2, ba1):
        # ψ₁ puts 15 in the class of 0, and ψ₂ splits them only there
        psi1 = Morphism(ba2, ba1, [a % 4 for a in range(15)] + [0])
        psi2 = Morphism(ba2, ba2, [0] * 15 + [1])
        assert factor(psi1, psi2) is None
        constant = Morphism(ba2, ba2, [0] * 16)
        assert factor(psi1, constant).mapping == (0,) * 4

    def test_factor_requires_shared_source(self, eval_top, ba0):
        other = Morphism(ba0, ba0, [0, 1])
        with pytest.raises(DomainError, match="shared source"):
            factor(other, eval_top)


@pytest.fixture
def atom_swap(ba2):
    """The automorphism of free:2 that exchanges a and b."""

    def rename(i):
        # permute the two assignment bits that a and b disagree on
        out = 0
        for k in range(4):
            if (i >> k) & 1:
                a_bit, b_bit = k & 1, (k >> 1) & 1
                out |= 1 << (a_bit << 1 | b_bit)
        return out

    return Morphism(ba2, ba2, [rename(i) for i in range(16)])


class TestIsomorphisms:
    def test_identity_is_an_isomorphism(self, identity1):
        assert is_isomorphism(identity1, "bpa").holds

    def test_atom_swap_is_an_automorphism(self, ba2, atom_swap):
        assert atom_swap.apply(ba2.element_named("a")) == \
            ba2.element_named("b")
        assert is_isomorphism(atom_swap, "bpa").holds

    @pytest.mark.parametrize("kind, checked", [("semiring", 516),
                                               ("bpa", 548)])
    def test_checked_counts_both_directions(self, atom_swap, kind, checked):
        # 2 identities and 16² pairs (and 16 complements for bpa), once
        # for the map and once for its inverse
        report = is_isomorphism(atom_swap, kind)
        assert report.holds and report.checked == checked

    def test_a_bijective_homomorphism_is_checked_once(self, atom_swap,
                                                      count_calls):
        calls = count_calls("check_morphism", morphisms)
        assert is_isomorphism(atom_swap, "bpa").holds
        assert calls == [(atom_swap, "bpa")]

    def test_complement_map_is_no_homomorphism(self, ba1):
        psi = Morphism(ba1, ba1, [ba1.comp_i(i) for i in range(4)])
        report = is_isomorphism(psi, "semiring")
        assert not report.holds
        assert report.to_json()["reason"] == "forward map fails"

    def test_non_injective_and_non_surjective_reasons(self, eval_top, ba0, ba1):
        report = is_isomorphism(eval_top)
        assert not report.holds
        assert report.to_json()["reason"] == "not injective"
        assert report.witness == ("⊥", "!a")
        # the blocks are {⊥, ⊤} and {!a, a}; a is the first element
        # whose image is taken
        folded = is_isomorphism(Morphism(ba1, ba1, [0, 1, 1, 0]))
        assert folded.witness == ("!a", "a")

        inclusion = Morphism(ba0, ba1, [0, ba1.mask])
        report = is_isomorphism(inclusion)
        assert not report.holds
        assert report.to_json()["reason"] == "not surjective"
        assert report.witness == ("!a",)

    def test_two_element_table_is_isomorphic_to_free_0(self, ba0):
        algebra = table_semiring(bool2_spec())
        psi = Morphism.from_names(ba0, algebra, {"⊥": "F", "⊤": "T"})
        assert is_isomorphism(psi, "bpa").holds


class TestEnumeration:
    def test_frozen_bpa_counts(self, ba0, ba1, ba2):
        assert len(enumerate_homs(ba1, ba0, "bpa")) == 2
        assert len(enumerate_homs(ba2, ba0, "bpa")) == 4
        assert len(enumerate_homs(ba0, ba0, "bpa")) == 1
        assert len(enumerate_homs(ba1, ba1, "bpa")) == 4
        assert len(enumerate_homs(ba2, ba1, "bpa")) == 16

    def test_every_enumerated_map_is_a_homomorphism(self, ba2, ba1):
        for psi in enumerate_homs(ba2, ba1, "bpa"):
            assert check_morphism(psi, "bpa").holds

    def test_evaluation_maps_are_the_only_homs_to_free_0(self, ba1, ba0,
                                                         eval_top, eval_bot):
        homs = enumerate_homs(ba1, ba0, "bpa")
        assert eval_top in homs and eval_bot in homs

    def test_brute_force_agrees_with_generator_route(self, ba1):
        via_atoms = enumerate_homs(ba1, ba1, "bpa")
        brute = enumerate_homs(ba1, ba1, "semiring")
        # complements come along for free, so the sets coincide
        assert sorted(m.mapping for m in via_atoms) == \
            sorted(m.mapping for m in brute)

    def test_field_has_only_the_identity_endomorphism(self, z3):
        homs = enumerate_homs(z3, z3, "semiring")
        assert [psi.mapping for psi in homs] == [(0, 1, 2)]

    def test_candidate_cap(self, ba2, ba1, monkeypatch):
        with pytest.raises(SizeLimitError, match="cap"):
            enumerate_homs(free_boolean_algebra(3), free_boolean_algebra(2),
                           "semiring")  # 16^8 candidates
        monkeypatch.setattr(morphisms, "ENUMERATION_CAP", 10)
        with pytest.raises(SizeLimitError, match="cap 10"):
            enumerate_homs(ba2, ba1, "semiring")  # 4^4 candidates

    def test_cap_counts_generator_images(self, z3, ba2, ba1, monkeypatch):
        # ℤ3 is generated by ⊤ and ⊥, free:2 by its 4 minterms under +
        # and ×, and by its 2 atoms once ! is allowed; the cap is read
        # when the search runs
        monkeypatch.setattr(morphisms, "ENUMERATION_CAP", 1)
        assert len(enumerate_homs(z3, z3, "semiring")) == 1
        monkeypatch.setattr(morphisms, "ENUMERATION_CAP", 4 ** 4)
        assert len(enumerate_homs(ba2, ba1, "semiring")) == 16
        monkeypatch.setattr(morphisms, "ENUMERATION_CAP", 4 ** 4 - 1)
        with pytest.raises(SizeLimitError, match="256 candidate"):
            enumerate_homs(ba2, ba1, "semiring")
        free3 = free_boolean_algebra(3)
        monkeypatch.setattr(morphisms, "ENUMERATION_CAP", 4 ** 3)
        assert len(enumerate_homs(free3, ba1, "bpa")) == 64
        monkeypatch.setattr(morphisms, "ENUMERATION_CAP", 4 ** 3 - 1)
        with pytest.raises(SizeLimitError, match="64 candidate"):
            enumerate_homs(free3, ba1, "bpa")

    def test_closure_takes_products_in_both_orders(self, monkeypatch):
        # b + b = c and b + c = d: b was combined with what was reached
        # before c, so d is reached from the column of c.  ⊤ and ⊥
        # generate everything, and the one candidate is the identity.
        rows = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 0, 2, 2], [3, 3, 3, 3]]
        names = ["t", "b", "c", "d"]
        algebra = table_semiring({
            "name": "one-sided", "elements": names,
            "add": [[names[v] for v in row] for row in rows],
            "mul": [[names[i * j if 1 in (i, j) else 0] for j in range(4)]
                    for i in range(4)],
            "zero": "t", "one": "b"})
        monkeypatch.setattr(morphisms, "ENUMERATION_CAP", 1)
        homs = enumerate_homs(algebra, algebra, "semiring")
        assert [psi.mapping for psi in homs] == [(0, 1, 2, 3)]

    def test_semiring_kind_finds_the_bpa_maps_between_boolean_algebras(
            self, ba2, ba1):
        # preserving AND, OR, ⊤ and ⊥ forces complements to be preserved;
        # the orders differ (over the map, over atom images)
        semiring = enumerate_homs(ba2, ba1, "semiring")
        assert len(semiring) == 16
        assert set(semiring) == set(enumerate_homs(ba2, ba1, "bpa"))


class TestIsoTheorem:
    def test_embedding_mode_holds_between_free_algebras(self, ba1, ba0):
        report = verify_iso_theorem(ba1, ba0, "bpa", "embedding")
        assert report.holds
        assert report.hom_count == 2
        assert report.to_json()["verdict"] == "holds"

    def test_embedding_mode_holds_on_endomorphisms(self, ba1):
        report = verify_iso_theorem(ba1, ba1, "bpa", "embedding")
        assert report.holds and report.hom_count == 4

    def test_monotone_mode_fails_via_collapse(self, ba1, ba0):
        report = verify_iso_theorem(ba1, ba0, "bpa", "monotone")
        assert not report.holds
        assert report.hom_count == 2
        assert len(report.counterexamples) == 2
        maps = [c["map"] for c in report.counterexamples]
        assert {"⊥": "⊥", "!a": "⊥", "a": "⊤", "⊤": "⊤"} in maps
        for c in report.counterexamples:
            assert c["onto"] and c["order_preserving"]
            assert not c["isomorphism"]

    def test_unknown_mode_is_rejected_first(self, z3):
        # before the canonical orders, which ℤ3 does not have
        with pytest.raises(DomainError, match="unknown mode 'isotone'"):
            verify_iso_theorem(z3, z3, "semiring", "isotone")

    def test_semiring_kind_via_brute_force(self, ba0):
        report = verify_iso_theorem(ba0, ba0, "semiring", "embedding")
        assert report.holds and report.hom_count == 1
