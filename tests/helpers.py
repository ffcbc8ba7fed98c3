"""Shared oracles for the tests, independent of the library internals.

Tables are rebuilt from modular arithmetic, formulas are re-evaluated
row by row with plain Python booleans, and closures are recomputed with
a different fixed-point shape, so agreement with the library is a real
check rather than the code confirming itself.
"""

from __future__ import annotations

import random

from propsemiring.formulas import (And, Atom, Const, Formula, Iff, Implies,
                                   Not, Or)


def zmod_spec(n: int) -> dict:
    """Table description of ℤn built directly from modular arithmetic."""
    names = [str(i) for i in range(n)]
    return {
        "name": f"z{n}",
        "elements": names,
        "add": [[str((i + j) % n) for j in range(n)] for i in range(n)],
        "mul": [[str((i * j) % n) for j in range(n)] for i in range(n)],
        "zero": "0",
        "one": "1",
    }


def bool2_spec() -> dict:
    """The 2-element Boolean table: AND as +, OR as ×, ⊤ additive identity."""
    return {
        "name": "bool2",
        "elements": ["F", "T"],
        "add": [["F", "F"], ["F", "T"]],   # AND
        "mul": [["F", "T"], ["T", "T"]],   # OR
        "zero": "T",
        "one": "F",
        "complement": ["T", "F"],
    }


def eval_row(formula: Formula, row: dict[str, bool]) -> bool:
    """Plain recursive truth evaluation under one atom assignment."""
    if isinstance(formula, Const):
        return bool(formula.value)
    if isinstance(formula, Atom):
        return row[formula.name]
    if isinstance(formula, Not):
        return not eval_row(formula.operand, row)
    if isinstance(formula, And):
        return eval_row(formula.left, row) and eval_row(formula.right, row)
    if isinstance(formula, Or):
        return eval_row(formula.left, row) or eval_row(formula.right, row)
    if isinstance(formula, Implies):
        return (not eval_row(formula.left, row)) or eval_row(formula.right, row)
    if isinstance(formula, Iff):
        return eval_row(formula.left, row) == eval_row(formula.right, row)
    raise TypeError(formula)


def truth_bits(formula: Formula, atoms: list[str]) -> int:
    """Pack the row-by-row oracle into truth-table bits (row k = bit k)."""
    bits = 0
    for k in range(1 << len(atoms)):
        row = {atom: bool((k >> i) & 1) for i, atom in enumerate(atoms)}
        if eval_row(formula, row):
            bits |= 1 << k
    return bits


def random_formula(rng: random.Random, atoms: list[str],
                   depth: int = 4) -> Formula:
    """A seeded random AST over the given atoms."""
    if depth == 0 or rng.random() < 0.2:
        kind = rng.randrange(3)
        if kind == 0:
            return Const(rng.randrange(2))
        return Atom(rng.choice(atoms))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    node = (And, Or, Implies, Iff)[kind - 1]
    return node(left, right)


def closure_oracle(algebra, seeds: set[int], with_complement: bool) -> set[int]:
    """Recursive closure, shaped differently from the library's loop."""
    members = set(seeds)
    members.add(algebra.top_index)
    members.add(algebra.bot_index)

    def expand(i: int, j: int) -> None:
        for r in (algebra.add_i(i, j), algebra.mul_i(i, j)):
            if r not in members:
                members.add(r)
                grow(r)

    def grow(new: int) -> None:
        if with_complement:
            c = algebra.comp_i(new)
            if c not in members:
                members.add(c)
                grow(c)
        for other in list(members):
            expand(new, other)
            expand(other, new)

    for start in list(members):
        grow(start)
    return members


# -- law oracles --------------------------------------------------------------
#
# Each oracle scans the tuples of one law in lexicographic order, straight
# from its definition, over plain nested lists: add[i][j] = i + j,
# mul[i][j] = i × j and leq[p][q] = 1 iff p ≼ q.  They return the first
# violating tuple, how many tuples were examined up to and including it
# (all of them when the law holds) and, for two-part laws, which part
# failed first.


def first_violation(tuples, violated):
    """(witness, checked, tag) of the first tuple where ``violated``
    returns a truthy tag; (None, number scanned, None) when none does."""
    checked = 0
    for t in tuples:
        checked += 1
        tag = violated(*t)
        if tag:
            return t, checked, tag
    return None, checked, None


def triples(n):
    return ((i, j, k) for i in range(n) for j in range(n) for k in range(n))


def ordered_triples(leq):
    """(p, q, r) for every p ≼ q and every r, in lexicographic order."""
    n = len(leq)
    return ((p, q, r) for p in range(n) for q in range(n) if leq[p][q]
            for r in range(n))


def commutativity_oracle(op):
    n = len(op)
    pairs = ((i, j) for i in range(n) for j in range(n))
    return first_violation(pairs, lambda i, j: op[i][j] != op[j][i])


def associativity_oracle(op):
    return first_violation(triples(len(op)),
                           lambda i, j, k: op[op[i][j]][k] != op[i][op[j][k]])


def distributivity_oracle(add, mul):
    def violated(i, j, k):
        if mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]]:
            return "left"
        if mul[add[j][k]][i] != add[mul[j][i]][mul[k][i]]:
            return "right"
        return None
    return first_violation(triples(len(add)), violated)


def transitivity_oracle(leq):
    return first_violation(ordered_triples(leq),
                           lambda p, q, r: leq[q][r] and not leq[p][r])


def monotony_oracle(op, leq):
    return first_violation(ordered_triples(leq),
                           lambda p, q, r: not leq[op[p][r]][op[q][r]])


def bound_decomposition_oracle(add, mul, leq):
    def violated(p, q, r):
        if leq[add[p][q]][r] and not (leq[p][r] and leq[q][r]):
            return "p + q ≼ r"
        if leq[p][mul[q][r]] and not (leq[p][q] and leq[p][r]):
            return "p ≼ q × r"
        return None
    return first_violation(triples(len(add)), violated)


def cancellable_oracle(add):
    """Indices a for which x ↦ a + x and x ↦ x + a are both injective."""
    n = len(add)

    def injective(images):
        return len(set(images)) == n

    return [a for a in range(n)
            if injective([add[a][x] for x in range(n)])
            and injective([add[x][a] for x in range(n)])]
