"""Shared oracles for the tests, independent of the library internals.

Tables are rebuilt from modular arithmetic, formulas are re-evaluated
row by row with plain Python booleans, and closures are recomputed with
a different fixed-point shape, so agreement with the library is a real
check rather than the code confirming itself.
"""

from __future__ import annotations

import itertools
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


def pairs_of(n):
    return ((p, q) for p in range(n) for q in range(n))


def zerosumfree_oracle(add, top):
    return first_violation(pairs_of(len(add)), lambda p, q: add[p][q] == top
                           and not (p == top and q == top))


def entire_oracle(mul, top):
    return first_violation(pairs_of(len(mul)), lambda p, q: mul[p][q] == top
                           and p != top and q != top)


def reflexivity_oracle(leq):
    return first_violation(((p,) for p in range(len(leq))),
                           lambda p: not leq[p][p])


def antisymmetry_oracle(leq):
    return first_violation(pairs_of(len(leq)), lambda p, q: p != q
                           and leq[p][q] and leq[q][p])


def operation_bounds_oracle(add, mul, leq):
    def violated(p, q):
        if not leq[p][add[p][q]]:
            return "p ≼ p + q"
        if not leq[mul[p][q]][q]:
            return "p × q ≼ q"
        return None
    return first_violation(pairs_of(len(add)), violated)


def cones_oracle(add, leq):
    """(positive, negative) cone members as index lists."""
    n = len(add)
    positive = [p for p in range(n) if all(leq[p][add[p][q]] for q in range(n))]
    negative = [p for p in range(n) if all(leq[add[p][q]][p] for q in range(n))]
    return positive, negative


def pairwise_monotony_violation(add, mul, leq):
    def violated(p, q, r, s):
        if not (leq[p][q] and leq[r][s]):
            return None
        if not leq[add[p][r]][add[q][s]]:
            return "p + r ≼ q + s"
        if not leq[mul[p][r]][mul[q][s]]:
            return "p × r ≼ q × s"
        return None
    return violated


def pairwise_monotony_oracle(add, mul, leq):
    n = len(add)
    return first_violation(((p, q, r, s) for p in range(n) for q in range(n)
                            for r in range(n) for s in range(n)),
                           pairwise_monotony_violation(add, mul, leq))


def sampled_pairwise_monotony_oracle(add, mul, leq, seed, samples):
    """The pairwise law on ``samples`` draws of (p, q, r, s), each drawn
    as four successive ``randrange(n)`` calls of one seeded generator."""
    rng, n = random.Random(seed), len(add)
    draws = (tuple(rng.randrange(n) for _ in range(4)) for _ in range(samples))
    return first_violation(draws, pairwise_monotony_violation(add, mul, leq))


def canonical_order_oracle(add, names):
    """The matrix p ≼ q iff p + q = q, or the error message for + that is
    not idempotent or not commutative."""
    n = len(add)
    for p in range(n):
        if add[p][p] != p:
            return (f"+ is not idempotent ({names[p]} + {names[p]} = "
                    f"{names[add[p][p]]}); supply an order matrix")
    for p in range(n):
        for q in range(p + 1, n):
            if add[p][q] != add[q][p]:
                return (f"+ is not commutative at ({names[p]}, {names[q]}); "
                        f"supply an order matrix")
    return [[int(add[p][q] == q) for q in range(n)] for p in range(n)]


def morphism_oracle(src, dst, f, kind):
    """Verify ψ = f between algebras given as dicts of add, mul, comp
    (or None), top and bot: ⊤, ⊥, then + and × per pair, then !."""
    if f[src["top"]] != dst["top"]:
        return (src["top"],), 1, "⊤ preserved"
    if f[src["bot"]] != dst["bot"]:
        return (src["bot"],), 2, "⊥ preserved"
    n = len(f)

    def violated(a, b):
        for op, tag in (("add", "+ preserved"), ("mul", "× preserved")):
            if f[src[op][a][b]] != dst[op][f[a]][f[b]]:
                return tag
        return None
    witness, checked, tag = first_violation(pairs_of(n), violated)
    checked += 2
    if witness or kind != "bpa":
        return witness, checked, tag
    witness, more, tag = first_violation(
        ((a,) for a in range(n)),
        lambda a: f[src["comp"][a]] != dst["comp"][f[a]] and "! preserved")
    return witness, checked + more, tag


def order_map_oracle(leq_src, leq_dst, f, mode):
    def violated(x, y):
        forward, image = leq_src[x][y], leq_dst[f[x]][f[y]]
        if forward and not image:
            return "x ≼ y"
        if mode == "embedding" and image and not forward:
            return "ψx ≼ ψy"
        return None
    return first_violation(pairs_of(len(f)), violated)


def ideal_oracle(add, mul, top, members):
    inside = set(members)
    if top not in inside:
        return (top,), 1, "⊤ ∈ I"
    witness, checked, tag = first_violation(
        ((i, j) for i in members for j in members),
        lambda i, j: add[i][j] not in inside and "closed under +")
    if witness:
        return witness, checked, tag
    witness, more, tag = first_violation(
        ((p, i) for p in range(len(add)) for i in members),
        lambda p, i: (mul[p][i] not in inside or mul[i][p] not in inside)
        and "absorbing under ×")
    return witness, checked + more, tag


def subtrahend_ideal_oracle(add, mul, top, cancellable):
    """(members, opposites) of the union of every subset of the
    cancellable elements plus ⊤ that is an ideal in which each member has
    an opposite; None when no such subset exists.  The opposite of m is
    the first member b with m + b = ⊤."""
    candidates = sorted(set(cancellable) - {top})
    union = set()
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            members = sorted({top, *subset})
            if ideal_oracle(add, mul, top, members)[0] is None and all(
                    any(add[m][b] == top for b in members) for m in members):
                union.update(members)
    if not union:
        return None
    members = sorted(union)
    return members, [next(b for b in members if add[m][b] == top)
                     for m in members]


def mult_left_cancellative_oracle(mul, top):
    n = len(mul)
    return first_violation(
        ((c, a, b) for c in range(n) if c != top
         for a in range(n) for b in range(n)),
        lambda c, a, b: a != b and mul[c][a] == mul[c][b])


def cancellation_criterion_oracle(add, mul, members):
    n = len(add)
    return first_violation(
        ((a, b, c, d) for a in range(n) for b in range(n) if a != b
         for c in range(n) for d in members if d != c),
        lambda a, b, c, d: add[mul[c][a]][mul[d][b]] == add[mul[c][b]][mul[d][a]])


def extended_order_oracle(add, leq, members, universal):
    quantifier = all if universal else any
    n = len(add)
    return [[int(quantifier(leq[add[p][d]][add[q][d]] for d in members))
             for q in range(n)] for p in range(n)]


def translation_invariance_oracle(add, leq, members):
    n = len(add)

    def violated(p, q, xi):
        base = leq[p][q]
        if base != leq[add[p][xi]][add[q][xi]]:
            return "p ≼ q but not shifted" if base else "shifted but not p ≼ q"
        return None
    return first_violation(((p, q, xi) for p in range(n) for q in range(n)
                            for xi in members), violated)


def difference_oracle(add, mul, members, names):
    """The difference relation on pairs (p, α), checked from its
    definition: ("error", message) when it is no equivalence or no
    congruence, else ("ok", classes, equivalence count, congruence count)."""
    pairs = [(p, a) for p in range(len(add)) for a in members]

    def related(x, y):
        return add[x[0]][y[1]] == add[y[0]][x[1]]

    def name(x):
        return f"{names[x[0]]}-{names[x[1]]}"

    for x in pairs:
        if not related(x, x):
            return "error", f"relation not reflexive at {x}"
    for x in pairs:
        for y in pairs:
            if related(x, y) != related(y, x):
                return "error", f"relation not symmetric at {x}, {y}"
    for x in pairs:
        for y in pairs:
            for z in pairs:
                if related(x, y) and related(y, z) and not related(x, z):
                    return "error", (f"relation not transitive at {name(x)}, "
                                     f"{name(y)}, {name(z)}")
    classes = []
    for x in pairs:
        if not any(x in block for block in classes):
            classes.append([y for y in pairs if related(x, y)])
    label = {y: k for k, block in enumerate(classes) for y in block}
    ops = (("⊕", lambda x, y: (add[x[0]][y[0]], add[x[1]][y[1]])),
           ("⊗", lambda x, y: (add[mul[x[0]][y[0]]][mul[x[1]][y[1]]],
                               add[mul[x[0]][y[1]]][mul[x[1]][y[0]]])))
    checked = 0
    for bx in classes:
        for x in bx:
            for x2 in bx:
                for by in classes:
                    for y in by:
                        for y2 in by:
                            checked += 1
                            for sign, op in ops:
                                if label[op(x, y)] != label[op(x2, y2)]:
                                    return "error", (
                                        f"{sign} not well defined at {name(x)} ~ "
                                        f"{name(x2)}, {name(y)} ~ {name(y2)}")
    return "ok", classes, len(pairs) ** 3, checked


def quotient_identity_oracle(add, mul, top, bot, classes, names):
    """The error for the first cell of the quotient tables where the class
    of (⊤, ⊤) is no additive or that of (⊥, ⊤) no multiplicative identity,
    or None.  ``classes`` lists the classes of pairs (p, α) as
    difference_oracle returns them, each named after its first pair; the
    parent ``names`` must not contain "-", so that these names differ."""
    label = {y: k for k, block in enumerate(classes) for y in block}
    reps = [block[0] for block in classes]
    quotient = [f"{names[p]}-{names[a]}" for p, a in reps]
    tables = {"add": [[label[(add[x[0]][y[0]], add[x[1]][y[1]])]
                       for y in reps] for x in reps],
              "mul": [[label[(add[mul[x[0]][y[0]]][mul[x[1]][y[1]]],
                              add[mul[x[0]][y[1]]][mul[x[1]][y[0]]])]
                       for y in reps] for x in reps]}
    zero, one = label[(top, top)], label[(bot, top)]
    for x in range(len(reps)):
        for op, row, col in (("add", zero, x), ("add", x, zero),
                             ("mul", one, x), ("mul", x, one)):
            got = tables[op][row][col]
            if got != x:
                return (f"identity law broken at {op}[{quotient[row]!r}]"
                        f"[{quotient[col]!r}] = {quotient[got]!r}, "
                        f"expected {quotient[x]!r}")
    return None
