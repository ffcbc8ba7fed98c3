import pytest
from hypothesis import given, settings, strategies as st

from propsemiring.algebra import (CompiledTables, DomainError, SizeLimitError,
                                  Subalgebra, TableLoadError,
                                  UnsupportedOperationError,
                                  free_boolean_algebra, subalgebra_closure,
                                  table_semiring)

from helpers import bool2_spec, closure_oracle, zmod_spec


class TestFreeBooleanAlgebra:
    def test_carrier_sizes(self):
        """2^(2^n) Boolean functions of n atoms."""
        for n, expected in [(0, 2), (1, 4), (2, 16), (3, 256)]:
            assert free_boolean_algebra(n).size == expected

    def test_atom_count_guard(self):
        with pytest.raises(SizeLimitError):
            free_boolean_algebra(5)
        with pytest.raises(SizeLimitError):
            free_boolean_algebra(-1)
        assert free_boolean_algebra(4).size == 65536

    def test_atom_names_must_match_the_count(self):
        with pytest.raises(DomainError, match="expected 2 atom names, got 1"):
            free_boolean_algebra(2, ["a"])

    def test_four_atoms_are_too_large_for_a_table_dict(self):
        with pytest.raises(SizeLimitError, match="too large .*65536"):
            free_boolean_algebra(4).to_table_dict()

    def test_identity_roles(self, ba1):
        # additive identity is ⊤ (all-ones), multiplicative is ⊥ (all-zeros)
        assert ba1.top.index == ba1.mask
        assert ba1.bot.index == 0
        for p in ba1.elements():
            assert ba1.add(p, ba1.top) == p
            assert ba1.add(ba1.top, p) == p
            assert ba1.mul(p, ba1.bot) == p
            assert ba1.mul(ba1.bot, p) == p
            assert ba1.mul(p, ba1.top) == ba1.top

    def test_operations_match_pointwise_truth(self, ba2):
        """+ is AND and × is OR of truth tables, row by row."""
        rows = ba2.rows
        for i in range(ba2.size):
            for j in range(ba2.size):
                s = ba2.add_i(i, j)
                p = ba2.mul_i(i, j)
                for k in range(rows):
                    bi, bj = (i >> k) & 1, (j >> k) & 1
                    assert (s >> k) & 1 == (bi and bj)
                    assert (p >> k) & 1 == (bi or bj)

    def test_complement_is_pointwise_not(self, ba2):
        for i in range(ba2.size):
            c = ba2.comp_i(i)
            assert c ^ i == ba2.mask
        x = ba2.element_named("a")
        assert ba2.complement(ba2.complement(x)) == x
        assert ba2.complement(ba2.top) == ba2.bot

    def test_atom_truth_tables(self, ba2):
        # assignment k feeds bit i of k to atom i, so atom a is 1010
        assert ba2.element_named("a").bits() == "1010"
        assert ba2.element_named("b").bits() == "1100"
        assert ba2.element_named("!a").bits() == "0101"

    def test_names_and_lookup(self, ba1):
        assert [e.name for e in ba1.elements()] == ["⊥", "!a", "a", "⊤"]
        assert ba1.element_named("top") == ba1.top
        assert ba1.element_named("bot") == ba1.bot
        assert ba1.element_named("10") == ba1.element_named("a")
        with pytest.raises(DomainError):
            ba1.element_named("c")

    def test_atoms_are_sorted_lexically(self):
        algebra = free_boolean_algebra(2, ["q", "p"])
        assert algebra.atoms == ("p", "q")
        with pytest.raises(DomainError):
            free_boolean_algebra(2, ["x", "x"])
        with pytest.raises(DomainError):
            free_boolean_algebra(1, ["not-an-ident!"])

    def test_elements_from_other_algebras_are_rejected(self, ba1, ba2):
        with pytest.raises(DomainError):
            ba2.add(ba1.top, ba2.top)
        with pytest.raises(DomainError):
            ba1.complement(ba2.element(3))

    def test_combine_dispatch(self, ba1):
        a = ba1.element_named("a")
        na = ba1.element_named("!a")
        assert ba1.combine("add", a, na) == ba1.bot
        assert ba1.combine("mul", a, na) == ba1.top
        with pytest.raises(DomainError):
            ba1.combine("sub", a, na)


class TestSemiringLaws:
    """Direct triple scans, independent of the checker module."""

    def test_free_algebra_axioms_exhaustively(self, ba1):
        n = ba1.size
        for i in range(n):
            for j in range(n):
                assert ba1.add_i(i, j) == ba1.add_i(j, i)
                assert ba1.mul_i(i, j) == ba1.mul_i(j, i)
                for k in range(n):
                    assert ba1.add_i(ba1.add_i(i, j), k) == \
                        ba1.add_i(i, ba1.add_i(j, k))
                    assert ba1.mul_i(ba1.mul_i(i, j), k) == \
                        ba1.mul_i(i, ba1.mul_i(j, k))
                    assert ba1.mul_i(i, ba1.add_i(j, k)) == \
                        ba1.add_i(ba1.mul_i(i, j), ba1.mul_i(i, k))

    def test_z3_tables_match_modular_arithmetic(self, z3):
        for i in range(3):
            for j in range(3):
                assert z3.name_of(z3.add_i(i, j)) == str((i + j) % 3)
                assert z3.name_of(z3.mul_i(i, j)) == str((i * j) % 3)


class TestCompiledTables:
    @pytest.mark.parametrize("outer, inner, expected", [
        (b"\5\6\7", b"\2\0", b"\7\5"),
        (b"\5\6\7", (2, 0, 2), b"\7\5\7"),
        ((5, 6, 7), b"\1", (6,)),
        ((5, 6, 7), (2,), (7,)),
        ((5, 6, 7), (), ()),
        (bytes(300), (299, 0), b"\0\0"),
    ])
    def test_compose_keeps_the_type_of_the_outer_row(self, outer, inner,
                                                      expected):
        assert CompiledTables.compose(outer, inner) == expected

    def test_rows_and_complement(self, ba1, z3):
        c = ba1.compiled
        assert c.add[1] == bytes(ba1.add_i(1, j) for j in range(4))
        assert c.mul_t[2] == bytes(ba1.mul_i(i, 2) for i in range(4))
        assert c.comp == bytes(ba1.comp_i(i) for i in range(4))
        assert z3.compiled.comp is None
        assert c.indicator([0, 3]) == b"\1\0\0\1"


class TestTableLoading:
    def test_z3_loads_with_expected_roles(self, z3):
        assert z3.size == 3
        assert z3.top.name == "0"   # additive identity plays the ⊤ role
        assert z3.bot.name == "1"
        assert not z3.has_complement
        with pytest.raises(UnsupportedOperationError):
            z3.comp_i(0)

    def test_unknown_cell_is_named(self):
        doc = zmod_spec(2)
        doc["add"][1][0] = "7"
        with pytest.raises(TableLoadError, match=r"add\[1\]\[0\]"):
            table_semiring(doc)

    def test_broken_identity_is_named(self):
        doc = zmod_spec(2)
        doc["add"][0][1] = "0"  # 0 + 1 must be 1
        with pytest.raises(TableLoadError, match="identity law"):
            table_semiring(doc)

    @pytest.mark.parametrize("edits, cell", [
        ([("add", 0, 2, "1")], "add['0']['2'] = '1', expected '2'"),
        ([("add", 2, 0, "1")], "add['2']['0'] = '1', expected '2'"),
        ([("mul", 1, 2, "0")], "mul['1']['2'] = '0', expected '2'"),
        ([("mul", 2, 1, "0")], "mul['2']['1'] = '0', expected '2'"),
        # two cells of one x: add[zero][x], add[x][zero], mul[one][x],
        # mul[x][one] are checked in this order, x by x
        ([("add", 2, 0, "1"), ("add", 0, 2, "1")],
         "add['0']['2'] = '1', expected '2'"),
        ([("mul", 1, 2, "0"), ("add", 2, 0, "1")],
         "add['2']['0'] = '1', expected '2'"),
        ([("mul", 2, 1, "0"), ("mul", 1, 2, "0")],
         "mul['1']['2'] = '0', expected '2'"),
        ([("mul", 1, 2, "0"), ("add", 0, 1, "2")],
         "add['0']['1'] = '2', expected '1'"),
    ])
    def test_first_broken_identity_cell_is_named(self, edits, cell):
        doc = zmod_spec(3)
        for op, row, col, value in edits:
            doc[op][row][col] = value
        with pytest.raises(TableLoadError) as caught:
            table_semiring(doc)
        assert str(caught.value) == "identity law broken at " + cell

    def test_duplicate_elements_rejected(self):
        doc = zmod_spec(2)
        doc["elements"] = ["0", "0"]
        with pytest.raises(TableLoadError, match="distinct"):
            table_semiring(doc)

    def test_missing_table_rejected(self):
        doc = zmod_spec(2)
        del doc["mul"]
        with pytest.raises(TableLoadError, match="'mul'"):
            table_semiring(doc)

    def test_unknown_zero_rejected(self):
        doc = zmod_spec(2)
        doc["zero"] = "9"
        with pytest.raises(TableLoadError, match="'zero'"):
            table_semiring(doc)

    def test_non_identity_laws_are_not_enforced(self):
        # a corrupted non-identity cell loads fine; checkers judge it later
        doc = zmod_spec(3)
        doc["add"][1][2] = "1"
        algebra = table_semiring(doc)
        assert algebra.add_i(1, 2) == 1

    def test_bool2_matches_free_0_up_to_renaming(self, ba0):
        algebra = table_semiring(bool2_spec())
        rename = {0: algebra.index_of("F"), 1: algebra.index_of("T")}
        for i in range(2):
            for j in range(2):
                assert rename[ba0.add_i(i, j)] == \
                    algebra.add_i(rename[i], rename[j])
                assert rename[ba0.mul_i(i, j)] == \
                    algebra.mul_i(rename[i], rename[j])
        assert rename[ba0.top_index] == algebra.top_index
        assert rename[ba0.bot_index] == algebra.bot_index

    def test_order_field_loads(self):
        doc = zmod_spec(2)
        doc["order"] = [[1, 0], [0, 1]]
        algebra = table_semiring(doc)
        assert algebra.order_matrix == ((1, 0), (0, 1))
        doc["order"] = [[1, 2], [0, 1]]
        with pytest.raises(TableLoadError, match="0 or 1"):
            table_semiring(doc)

    def test_index_of_reads_top_and_bot_aliases(self, z3):
        assert z3.index_of("top") == z3.top_index == 0
        assert z3.index_of("bot") == z3.bot_index == 1
        with pytest.raises(DomainError, match="'7' names no element of z3"):
            z3.index_of("7")

    def test_table_dict_keeps_a_loaded_order(self):
        doc = zmod_spec(2)
        doc["order"] = [[1, 1], [0, 1]]
        table = table_semiring(doc).to_table_dict()
        assert table["order"] == [[1, 1], [0, 1]]
        assert table_semiring(table).order_matrix == ((1, 1), (0, 1))

    def test_round_trip_through_table_dict(self, ba1):
        reloaded = table_semiring(ba1.to_table_dict())
        assert reloaded.size == ba1.size
        for i in range(ba1.size):
            assert reloaded.comp_i(i) == ba1.comp_i(i)
            for j in range(ba1.size):
                assert reloaded.add_i(i, j) == ba1.add_i(i, j)
                assert reloaded.mul_i(i, j) == ba1.mul_i(i, j)


@st.composite
def small_tables(draw):
    """A table algebra of at most five elements with random operations
    and complement, edited to keep the identity laws."""
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    add = [[draw(cell) for _ in range(n)] for _ in range(n)]
    mul = [[draw(cell) for _ in range(n)] for _ in range(n)]
    zero, one = draw(cell), draw(cell)
    for x in range(n):
        add[zero][x] = add[x][zero] = x
        mul[one][x] = mul[x][one] = x
    names = [f"x{i}" for i in range(n)]
    return table_semiring({
        "name": "random", "elements": names,
        "zero": names[zero], "one": names[one],
        "add": [[names[v] for v in row] for row in add],
        "mul": [[names[v] for v in row] for row in mul],
        "complement": [names[draw(cell)] for _ in range(n)]})


class TestSubalgebraClosure:
    def test_empty_generators_give_constants(self, ba1):
        sub = subalgebra_closure(ba1, [], bpa_closed=True)
        assert sub.element_names() == ["⊥", "⊤"]

    def test_single_atom_without_complement(self, ba1):
        sub = subalgebra_closure(ba1, [ba1.element_named("a")],
                                 bpa_closed=False)
        assert sub.element_names() == ["⊥", "a", "⊤"]

    def test_single_atom_with_complement(self, ba2):
        sub = subalgebra_closure(ba2, [ba2.element_named("a")],
                                 bpa_closed=True)
        assert sub.element_names() == ["⊥", "!a", "a", "⊤"]

    def test_closure_is_idempotent(self, ba2):
        sub = subalgebra_closure(ba2, [ba2.element_named("a"),
                                       ba2.element_named("b")],
                                 bpa_closed=False)
        again = subalgebra_closure(ba2, sub.elements(), bpa_closed=False)
        assert again.members == sub.members

    def test_matches_independent_closure_oracle(self, ba2, z3):
        for algebra, gens, with_comp in [
                (ba2, {ba2.index_of("a")}, True),
                (ba2, {ba2.index_of("a"), ba2.index_of("b")}, False),
                (z3, {2}, False)]:
            elements = [algebra.element(i) for i in gens]
            sub = subalgebra_closure(algebra, elements, bpa_closed=with_comp)
            assert set(sub.members) == closure_oracle(algebra, gens, with_comp)

    def test_closure_in_a_carrier_too_large_to_compile(self):
        ba4 = free_boolean_algebra(4)
        sub = subalgebra_closure(ba4, [ba4.element_named("a")])
        assert sub.element_names() == ["⊥", "!a", "a", "⊤"]

    def test_bpa_closure_needs_complement(self, z3):
        with pytest.raises(UnsupportedOperationError):
            subalgebra_closure(z3, [], bpa_closed=True)

    @pytest.mark.parametrize("names, bpa_closed, defect", [
        (["⊥"], False, "⊤ is missing"),
        (["⊤"], False, "⊥ is missing"),
        # a + b and a × b both escape: + is named first
        (["⊥", "a", "b", "⊤"], False, "a + b = 1000 escapes"),
        (["⊥", "1000", "a", "b", "⊤"], False, "a × b = 1110 escapes"),
        # × escapes at an earlier pair than +
        (["⊥", "0001", "!b", "a", "⊤"], False, "0001 × a = 1011 escapes"),
        (["⊥", "1000", "a", "b", "1110", "⊤"], False, None),
        (["⊥", "1000", "a", "b", "1110", "⊤"], True, "!1000 = 0111 escapes"),
    ])
    def test_closure_defect_names_the_first_violation(self, ba2, names,
                                                      bpa_closed, defect):
        from propsemiring.algebra import Subalgebra
        members = tuple(sorted(map(ba2.index_of, names)))
        sub = Subalgebra(parent=ba2, members=members)
        assert sub.closure_defect(bpa_closed) == defect

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_set_is_closed_exactly_when_its_closure_adds_nothing(self, data):
        algebra = data.draw(st.one_of(st.just(free_boolean_algebra(2)),
                                      small_tables()))
        bpa_closed = data.draw(st.booleans())
        members = tuple(sorted(data.draw(st.sets(st.sampled_from(
            range(algebra.size)))) | {algebra.top_index, algebra.bot_index}))
        closed = Subalgebra(parent=algebra, members=members).closure_defect(
            bpa_closed) is None
        closure = subalgebra_closure(algebra, map(algebra.element, members),
                                     bpa_closed=bpa_closed)
        assert closed == (closure.members == members)
        assert set(closure.members) == closure_oracle(algebra, set(members),
                                                      bpa_closed)

    def test_validate_flags_non_closed_sets(self, ba1):
        from propsemiring.algebra import Subalgebra
        bad = Subalgebra(parent=ba1, members=(0, 2))  # ⊤ missing
        with pytest.raises(DomainError):
            bad.validate()
        good = subalgebra_closure(ba1, [ba1.element_named("a")],
                                  bpa_closed=False)
        good.validate(bpa_closed=False)
        with pytest.raises(DomainError):
            good.validate(bpa_closed=True)  # !a escapes
