import dataclasses
import random

import pytest

from propsemiring.algebra import UnsupportedOperationError
from propsemiring.formulas import (And, Atom, Const, Iff, Implies, Not, Or,
                                   ParseError, UnboundAtomError, atoms_of,
                                   evaluate, parse, unparse)

from helpers import random_formula, truth_bits


class TestParsing:
    def test_precedence_ladder(self):
        # ! binds tightest, then &, |, ->, <-> loosest
        f = parse("!a & b | c -> d <-> e")
        assert f == Iff(Implies(Or(And(Not(Atom("a")), Atom("b")),
                                   Atom("c")),
                                Atom("d")),
                        Atom("e"))

    def test_implication_is_right_associative(self):
        assert parse("a -> b -> c") == \
            Implies(Atom("a"), Implies(Atom("b"), Atom("c")))
        # <-> chains to the left, like & and |
        assert parse("a <-> b <-> c") == \
            Iff(Iff(Atom("a"), Atom("b")), Atom("c"))

    def test_parentheses_override(self):
        assert parse("(a | b) & c") == And(Or(Atom("a"), Atom("b")),
                                           Atom("c"))
        assert parse("a | (b & c)") == Or(Atom("a"),
                                          And(Atom("b"), Atom("c")))

    def test_constants_and_double_negation(self):
        assert parse("1") == Const(True)
        assert parse("0") == Const(False)
        assert parse("!!a") == Not(Not(Atom("a")))

    def test_unicode_connectives(self):
        assert parse("¬a ∧ b") == parse("!a & b")
        assert parse("a ∨ b") == parse("a | b")
        assert parse("a → b") == parse("a -> b")
        assert parse("a ↔ b") == parse("a <-> b")

    def test_whitespace_is_free(self):
        assert parse("a&b") == parse("  a  &  b  ")

    def test_error_positions_count_bytes(self):
        with pytest.raises(ParseError) as err:
            parse("a & & b")
        assert err.value.position == 4
        with pytest.raises(ParseError) as err:
            parse("a &")
        assert err.value.position == 3
        with pytest.raises(ParseError) as err:
            parse("(a | b")
        assert err.value.position == 6
        with pytest.raises(ParseError) as err:
            parse("a $ b")
        assert err.value.position == 2

    def test_error_positions_after_multibyte_chars(self):
        # ¬ is 2 bytes in UTF-8, so the $ after "¬a " sits at byte 4
        with pytest.raises(ParseError) as err:
            parse("¬a $")
        assert err.value.position == 4

    @pytest.mark.parametrize("text, message", [
        ("¬a ∧ $", "unexpected character '$' (byte 8)"),
        ("a b", "unexpected 'b' after formula (byte 2)"),
        ("(a | b c", "expected ')', found 'c' (byte 7)"),
        ("(a | b  ", "expected ')', found end of input (byte 8)"),
        ("a →", "unexpected end of input (byte 5)"),
        ("a & ) b", "unexpected token ')' (byte 4)"),
        ("a ↔ ¬", "unexpected end of input (byte 8)"),
        ("\t∨", "unexpected token '∨' (byte 1)"),
    ])
    def test_error_messages(self, text, message):
        # the end of input sits at the whole UTF-8 length, trailing
        # whitespace included; a token is quoted as it was spelled
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("a b")
        with pytest.raises(ParseError):
            parse("a ) b")
        with pytest.raises(ParseError):
            parse("")


class TestNodes:
    @pytest.mark.parametrize("node", [And, Or, Implies, Iff])
    def test_binary_nodes_are_frozen_values(self, node):
        a, b = Atom("a"), Atom("b")
        assert node(a, b) == node(left=a, right=b)
        assert hash(node(a, b)) == hash(node(Atom("a"), Atom("b")))
        assert repr(node(a, b)) == (f"{node.__name__}(left=Atom(name='a'), "
                                    f"right=Atom(name='b'))")
        # equal fields make no equal nodes across connectives
        assert [other for other in (And, Or, Implies, Iff)
                if other(a, b) == node(a, b)] == [node]
        with pytest.raises(dataclasses.FrozenInstanceError):
            node(a, b).left = b


class TestPrinting:
    def test_minimal_parentheses(self):
        cases = [
            "a & b | c",
            "(a | b) & c",
            "!(a & b)",
            "!a & !b",
            "a -> b -> c",
            "(a -> b) -> c",
            "a <-> b | c",
            "(a <-> b) -> c",
        ]
        for text in cases:
            assert unparse(parse(text)) == text

    def test_round_trip_on_random_formulas(self):
        rng = random.Random(1729)
        for _ in range(300):
            f = random_formula(rng, ["a", "b", "c"])
            assert parse(unparse(f)) == f

    def test_atoms_are_sorted_and_unique(self):
        assert atoms_of(parse("c & a | b & a")) == ["a", "b", "c"]
        assert atoms_of(parse("1 | 0")) == []


class TestEvaluation:
    def test_frozen_values_in_two_atoms(self, ba2):
        e = evaluate(parse("a & b"), ba2)
        assert (e.index, e.bits()) == (8, "1000")
        e = evaluate(parse("a -> b"), ba2)
        assert (e.index, e.bits()) == (13, "1101")
        assert evaluate(parse("a <-> a"), ba2) == ba2.top
        assert evaluate(parse("a & !a"), ba2) == ba2.bot

    def test_matches_row_by_row_oracle(self, ba2):
        rng = random.Random(99)
        atoms = list(ba2.atoms)
        for _ in range(200):
            f = random_formula(rng, atoms)
            assert evaluate(f, ba2).index == truth_bits(f, atoms)

    def test_connectives_agree_with_algebra_operations(self, ba2):
        """& is the semiring +, | the semiring ×, ! the complement."""
        for i in range(ba2.size):
            for j in range(ba2.size):
                x, y = ba2.element(i), ba2.element(j)
                binding = {"a": x, "b": y}
                f = evaluate(parse("a & b"), ba2, binding)
                assert f == ba2.add(x, y)
                g = evaluate(parse("a | b"), ba2, binding)
                assert g == ba2.mul(x, y)
            assert evaluate(parse("!a"), ba2, {"a": ba2.element(i)}) == \
                ba2.complement(ba2.element(i))

    def test_default_binding_uses_algebra_atoms(self, ba1):
        assert evaluate(parse("a"), ba1) == ba1.element_named("a")

    def test_unbound_atom_raises(self, ba1):
        with pytest.raises(UnboundAtomError):
            evaluate(parse("z"), ba1)
        with pytest.raises(UnboundAtomError):
            evaluate(parse("a & b"), ba1, {"a": ba1.top})

    def test_evaluation_needs_a_free_algebra(self, z3):
        with pytest.raises(UnsupportedOperationError,
                           match="needs a free Boolean algebra"):
            evaluate(parse("a"), z3)

    def test_binding_by_element_name(self, ba2):
        a, not_b = ba2.element_named("a"), ba2.element_named("!b")
        assert evaluate(parse("x & y"), ba2, {"x": "a", "y": "!b"}) == \
            evaluate(parse("x & y"), ba2, {"x": a, "y": "!b"}) == \
            ba2.add(a, not_b)

    def test_explicit_binding_may_shadow(self, ba2):
        binding = {"a": ba2.bot, "b": ba2.top}
        assert evaluate(parse("a | b"), ba2, binding) == ba2.top

    def test_constants(self, ba2):
        assert evaluate(parse("1"), ba2) == ba2.top
        assert evaluate(parse("0"), ba2) == ba2.bot
