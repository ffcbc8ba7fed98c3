"""The row-scan law kernels against the definition oracles in helpers.

Random Cayley tables (at most 6 elements, often deliberately broken) and
random 0/1 relations must give the same verdict, first witness, checked
count and details as a plain scan of each law's definition.  Tables of
257-300 elements take the tuple-row path of the compiled tables; they are
broken near the start so that the oracles stay cheap.
"""

import random

from hypothesis import given, settings, strategies as st

from propsemiring.algebra import table_semiring
from propsemiring.order import (OrderRelation, check_bound_decomposition,
                                check_monotony, check_poset)
from propsemiring.properties import (additively_cancellable_elements,
                                     check_semiring_axioms)

from helpers import (associativity_oracle, bound_decomposition_oracle,
                     cancellable_oracle, commutativity_oracle,
                     distributivity_oracle, monotony_oracle,
                     transitivity_oracle)


def algebra_of(add, mul, zero, one):
    names = [f"x{i}" for i in range(len(add))]
    return table_semiring({
        "name": "random",
        "elements": names,
        "add": [[names[v] for v in row] for row in add],
        "mul": [[names[v] for v in row] for row in mul],
        "zero": names[zero],
        "one": names[one],
    })


@st.composite
def cayley_tables(draw):
    """(add, mul, zero, one): a semiring, a lattice or noise, then edited."""
    n = draw(st.integers(1, 6))
    cell = st.integers(0, n - 1)
    base = draw(st.sampled_from(("zmod", "chain", "noise")))
    if base == "zmod":
        add = [[(i + j) % n for j in range(n)] for i in range(n)]
        mul = [[(i * j) % n for j in range(n)] for i in range(n)]
        zero, one = 0, 1 % n
    elif base == "chain":
        add = [[min(i, j) for j in range(n)] for i in range(n)]
        mul = [[max(i, j) for j in range(n)] for i in range(n)]
        zero, one = n - 1, 0
    else:
        add = [[draw(cell) for _ in range(n)] for _ in range(n)]
        mul = [[draw(cell) for _ in range(n)] for _ in range(n)]
        zero, one = draw(cell), draw(cell)
    for on_add, i, j, value in draw(st.lists(
            st.tuples(st.booleans(), cell, cell, cell), max_size=3)):
        (add if on_add else mul)[i][j] = value
    for x in range(n):  # loading enforces the two identity laws
        add[zero][x] = add[x][zero] = x
        mul[one][x] = mul[x][one] = x
    return add, mul, zero, one


@st.composite
def relations(draw, add):
    """A 0/1 matrix: noise, a chain, the diagonal, everything, or the
    canonical order of ``add``; then a few entries flipped."""
    n = len(add)
    base = draw(st.sampled_from(("noise", "chain", "diagonal", "full",
                                 "canonical")))
    bit = {"chain": lambda p, q: p <= q, "diagonal": lambda p, q: p == q,
           "full": lambda p, q: True,
           "canonical": lambda p, q: add[p][q] == q}.get(base)
    if bit is None:
        leq = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    else:
        leq = [[int(bit(p, q)) for q in range(n)] for p in range(n)]
    cell = st.integers(0, n - 1)
    for p, q in draw(st.lists(st.tuples(cell, cell), max_size=3)):
        leq[p][q] ^= 1
    return leq


def assert_matches(report, oracle, detail_key=None):
    witness, checked, tag = oracle
    assert report.holds == (witness is None), report.property
    expected = None if witness is None else tuple(f"x{i}" for i in witness)
    assert report.witness == expected, report.property
    assert report.checked == checked, report.property
    details = {detail_key: tag} if detail_key and tag else None
    assert report.details == details, report.property


def assert_axioms_match(table):
    add, mul, _, _ = table
    algebra = algebra_of(*table)
    reports = {r.property: r for r in check_semiring_axioms(algebra)}
    assert_matches(reports["add-commutativity"], commutativity_oracle(add))
    assert_matches(reports["mul-commutativity"], commutativity_oracle(mul))
    assert_matches(reports["add-associativity"], associativity_oracle(add))
    assert_matches(reports["mul-associativity"], associativity_oracle(mul))
    assert_matches(reports["distributivity"],
                   distributivity_oracle(add, mul), "side")
    assert ([e.index for e in additively_cancellable_elements(algebra)]
            == cancellable_oracle(add))
    return algebra


def assert_order_laws_match(table, leq):
    add, mul, _, _ = table
    algebra = algebra_of(*table)
    order = OrderRelation.from_matrix(algebra, leq)
    assert_matches(check_poset(order)[2], transitivity_oracle(leq))
    monotony_add, monotony_mul = check_monotony(algebra, order)
    assert_matches(monotony_add, monotony_oracle(add, leq))
    assert_matches(monotony_mul, monotony_oracle(mul, leq))
    assert_matches(check_bound_decomposition(algebra, order),
                   bound_decomposition_oracle(add, mul, leq), "claim")
    return algebra


@settings(max_examples=300, deadline=None)
@given(cayley_tables())
def test_axiom_kernels_match_definitions(table):
    assert assert_axioms_match(table).compiled.row is bytes


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_order_kernels_match_definitions(data):
    table = data.draw(cayley_tables())
    assert_order_laws_match(table, data.draw(relations(table[0])))


@settings(max_examples=4, deadline=None)
@given(n=st.integers(257, 300), a=st.integers(1, 6), b=st.integers(1, 6),
       c=st.integers(2, 6), seed=st.integers(0, 2 ** 32))
def test_wide_rows_match_definitions(n, a, b, c, seed):
    # ℤn with a + b and 0 × c changed: every law then fails within the
    # first rows, so the definition scans stop early.
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    add[a][b] = (a + b + 1) % n
    mul[0][c] = c + 1
    table = (add, mul, 0, 1)
    assert assert_axioms_match(table).compiled.row is tuple
    rng = random.Random(seed)
    leq = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
    assert_order_laws_match(table, leq)
