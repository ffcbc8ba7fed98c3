"""The row-scan law kernels against the definition oracles in helpers.

Random Cayley tables (at most 6 elements, often deliberately broken),
random 0/1 relations, random subsets and random maps must give the same
verdict, first witness, checked count and details as a plain scan of each
law's definition.  Tables of 257-300 elements take the tuple-row path of
the compiled tables; they are broken near the start so that the oracles
stay cheap, and maps between them and ℤ₃ mix byte rows with tuple rows.
"""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from propsemiring.algebra import (AlgebraError, DomainError, TableLoadError,
                                  table_semiring)
from propsemiring.differences import (CongruenceError, SubtrahendIdeal,
                                      difference_cancellation_criterion,
                                      difference_semiring, extended_order,
                                      is_ideal, mult_left_cancellative,
                                      subtrahend_ideal)
from propsemiring.morphisms import (Morphism, check_morphism,
                                    order_relation_of_map)
from propsemiring.order import (SAMPLED_TUPLES, OrderRelation, canonical_order,
                                check_bound_decomposition, check_monotony,
                                check_operation_bounds, check_pairwise_monotony,
                                check_poset, cones)
from propsemiring.properties import (additively_cancellable_elements,
                                     check_semiring_axioms, is_entire,
                                     is_zerosumfree)

from helpers import (antisymmetry_oracle, associativity_oracle,
                     bound_decomposition_oracle, cancellable_oracle,
                     cancellation_criterion_oracle, canonical_order_oracle,
                     commutativity_oracle, cones_oracle, difference_oracle,
                     distributivity_oracle, entire_oracle,
                     extended_order_oracle, ideal_oracle, monotony_oracle,
                     morphism_oracle, mult_left_cancellative_oracle,
                     operation_bounds_oracle, order_map_oracle,
                     pairwise_monotony_oracle, quotient_identity_oracle,
                     reflexivity_oracle, sampled_pairwise_monotony_oracle,
                     subtrahend_ideal_oracle, transitivity_oracle,
                     translation_invariance_oracle, zerosumfree_oracle)


def algebra_of(add, mul, zero, one, comp=None):
    names = [f"x{i}" for i in range(len(add))]
    doc = {
        "name": "random",
        "elements": names,
        "add": [[names[v] for v in row] for row in add],
        "mul": [[names[v] for v in row] for row in mul],
        "zero": names[zero],
        "one": names[one],
    }
    if comp is not None:
        doc["complement"] = [names[v] for v in comp]
    return table_semiring(doc)


@st.composite
def cayley_tables(draw, sizes=st.integers(1, 6)):
    """(add, mul, zero, one): a semiring, a lattice or noise, then edited."""
    n = draw(sizes)
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


def assert_matches(report, oracle, detail_key=None, always=None):
    """``always`` holds the details reported whatever the verdict."""
    witness, checked, tag = oracle
    assert report.holds == (witness is None), report.property
    expected = None if witness is None else tuple(f"x{i}" for i in witness)
    assert report.witness == expected, report.property
    assert report.checked == checked, report.property
    details = dict(always or {})
    if detail_key and tag:
        details[detail_key] = tag
    assert report.details == (details or None), report.property


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
    top = algebra.top_index
    assert_matches(is_zerosumfree(algebra), zerosumfree_oracle(add, top))
    assert_matches(is_entire(algebra), entire_oracle(mul, top))
    return algebra


def assert_order_laws_match(table, leq):
    add, mul, _, _ = table
    algebra = algebra_of(*table)
    order = OrderRelation.from_matrix(algebra, leq)
    reflexive, antisymmetric, transitive = check_poset(order)
    assert_matches(reflexive, reflexivity_oracle(leq))
    assert_matches(antisymmetric, antisymmetry_oracle(leq))
    assert_matches(transitive, transitivity_oracle(leq))
    monotony_add, monotony_mul = check_monotony(algebra, order)
    assert_matches(monotony_add, monotony_oracle(add, leq))
    assert_matches(monotony_mul, monotony_oracle(mul, leq))
    assert_matches(check_bound_decomposition(algebra, order),
                   bound_decomposition_oracle(add, mul, leq), "claim")
    assert_matches(check_operation_bounds(algebra, order),
                   operation_bounds_oracle(add, mul, leq), "claim")
    positive, negative = cones(algebra, order)
    assert ([e.index for e in positive], [e.index for e in negative]) \
        == cones_oracle(add, leq)
    return algebra, order


@settings(max_examples=300, deadline=None)
@given(cayley_tables())
def test_axiom_kernels_match_definitions(table):
    assert assert_axioms_match(table).compiled.row is bytes


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_order_kernels_match_definitions(data):
    table = data.draw(cayley_tables())
    leq = data.draw(relations(table[0]))
    algebra, order = assert_order_laws_match(table, leq)
    assert_matches(check_pairwise_monotony(algebra, order),
                   pairwise_monotony_oracle(table[0], table[1], leq), "claim",
                   always={"mode": "exhaustive"})


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sampled_pairwise_draw_matches_definition(data):
    table = data.draw(cayley_tables(st.integers(17, 24)))
    leq = data.draw(relations(table[0]))
    seed = data.draw(st.integers(0, 2 ** 32))
    algebra = algebra_of(*table)
    report = check_pairwise_monotony(
        algebra, OrderRelation.from_matrix(algebra, leq), seed=seed)
    assert_matches(report, sampled_pairwise_monotony_oracle(
        table[0], table[1], leq, seed, SAMPLED_TUPLES), "claim",
        always={"mode": "sampled", "seed": seed, "samples": SAMPLED_TUPLES})


@settings(max_examples=300, deadline=None)
@given(cayley_tables())
# ℤ2 = {0, 1} below a semilattice z < w under +; the row of 1 under ×
# stays in {0, 1} but its column does not, so 1 must go
@example(([[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
          [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 2, 3], [0, 3, 3, 3]], 0, 2))
def test_subtrahend_ideal_matches_definition(table):
    # The shrinking loop drops an element whose sums leave the current
    # set, so where + is not a commutative monoid it can lose a subset
    # that the definition keeps; the comparison is made where it is.
    add, mul, zero, _ = table
    assume(commutativity_oracle(add)[0] is None
           and associativity_oracle(add)[0] is None)
    algebra = algebra_of(*table)
    expected = subtrahend_ideal_oracle(add, mul, zero, cancellable_oracle(add))
    if expected is None:
        with pytest.raises(DomainError):
            subtrahend_ideal(algebra)
        return
    ideal = subtrahend_ideal(algebra)
    assert (list(ideal.members), list(ideal.opposites)) == expected


@settings(max_examples=300, deadline=None)
@given(cayley_tables())
def test_canonical_order_matches_definition(table):
    algebra = algebra_of(*table)
    expected = canonical_order_oracle(table[0], algebra.names)
    if isinstance(expected, str):
        with pytest.raises(AlgebraError) as caught:
            canonical_order(algebra)
        assert str(caught.value) == expected
    else:
        assert canonical_order(algebra).to_matrix() == expected


def table_dict(table, comp):
    add, mul, zero, one = table
    return {"add": add, "mul": mul, "top": zero, "bot": one, "comp": comp}


@st.composite
def maps(draw):
    """(src, dst, f): tables with complements and a map between them.

    The map is random, the identity into a copy of the source whose
    complement may differ (so that only ! can fail), or a relabelling
    onto an isomorphic copy; the last two are then edited a little, which
    breaks ⊤, ⊥, + or × preservation depending on the entry.
    """
    src = draw(cayley_tables())
    n = len(src[0])
    comp = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("random", "identity", "relabelled")))
    if shape == "random":
        dst = draw(cayley_tables())
        m = len(dst[0])
        dst_comp = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        f = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        return table_dict(src, comp), table_dict(dst, dst_comp), f
    if shape == "identity":
        f = list(range(n))
        dst = src
        dst_comp = draw(st.sampled_from((comp, list(reversed(comp)))))
    else:
        f = draw(st.permutations(range(n)))
        add, mul, zero, one = src
        inverse = {v: k for k, v in enumerate(f)}
        dst = tuple([[f[table[inverse[i]][inverse[j]]] for j in range(n)]
                     for i in range(n)] for table in (add, mul)) \
            + (f[zero], f[one])
        dst_comp = [f[comp[inverse[i]]] for i in range(n)]
    for k, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=1)):
        f[k] = v
    return table_dict(src, comp), table_dict(dst, dst_comp), f


def algebra_from(t):
    return algebra_of(t["add"], t["mul"], t["top"], t["bot"], t["comp"])


@settings(max_examples=300, deadline=None)
@given(maps())
def test_morphism_kernel_matches_definition(case):
    src, dst, f = case
    psi = Morphism(algebra_from(src), algebra_from(dst), f)
    for kind in ("semiring", "bpa"):
        assert_matches(check_morphism(psi, kind),
                       morphism_oracle(src, dst, f, kind), "condition")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_order_map_kernel_matches_definition(data):
    src, dst, f = data.draw(maps())
    leq_src = data.draw(relations(src["add"]))
    leq_dst = data.draw(relations(dst["add"]))
    source, target = algebra_from(src), algebra_from(dst)
    psi = Morphism(source, target, f)
    orders = (OrderRelation.from_matrix(source, leq_src),
              OrderRelation.from_matrix(target, leq_dst))
    assert_matches(order_relation_of_map(psi, *orders, mode="monotone"),
                   order_map_oracle(leq_src, leq_dst, f, "monotone"), "direction")
    embedding = order_map_oracle(leq_src, leq_dst, f, "embedding")
    assert_matches(order_relation_of_map(psi, *orders, mode="embedding"),
                   embedding, "direction",
                   always=None if embedding[0] else
                   {"injective": len(set(f)) == len(f)})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_difference_kernels_match_definitions(data):
    table = data.draw(cayley_tables())
    add, mul, zero, _ = table
    n = len(add)
    algebra = algebra_of(*table)
    members = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=2))
                     | data.draw(st.sampled_from(({zero}, set()))))
    assert_matches(is_ideal(algebra, members),
                   ideal_oracle(add, mul, zero, members), "condition")
    assert_matches(mult_left_cancellative(algebra),
                   mult_left_cancellative_oracle(mul, zero))
    forged = SubtrahendIdeal(algebra=algebra, members=tuple(members),
                             opposites=tuple(members))
    assert_matches(difference_cancellation_criterion(algebra, forged),
                   cancellation_criterion_oracle(add, mul, members))
    leq = data.draw(relations(add))
    universal = data.draw(st.booleans())
    result = extended_order(algebra, OrderRelation.from_matrix(algebra, leq),
                            forged, universal=universal)
    extended = extended_order_oracle(add, leq, members, universal)
    assert result.relation.to_matrix() == extended
    assert_matches(result.stability,
                   translation_invariance_oracle(add, extended, members),
                   "direction")
    assert_matches(result.base_stability,
                   translation_invariance_oracle(add, leq, members), "direction")
    if ideal_oracle(add, mul, zero, members)[0] is not None:
        return  # pairs could combine to pairs outside the carrier of pairs
    expected = difference_oracle(add, mul, members, algebra.names)
    if expected[0] == "error":
        with pytest.raises(CongruenceError) as caught:
            difference_semiring(algebra, forged)
        assert str(caught.value) == expected[1]
        return
    _, classes, equivalence, congruence = expected
    broken = quotient_identity_oracle(add, mul, zero, table[3], classes,
                                      algebra.names)
    if broken is not None:
        with pytest.raises(TableLoadError) as caught:
            difference_semiring(algebra, forged)
        assert str(caught.value) == broken
        return
    try:
        diff = difference_semiring(algebra, forged)
    except CongruenceError as exc:
        assert str(exc) == "embedding p ↦ (p, ⊤) failed verification"
        return
    assert [list(block) for block in diff.classes] == classes
    assert diff.reports["equivalence"].checked == equivalence
    assert diff.reports["congruence"].checked == congruence


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
    algebra = algebra_of(*table)
    members = [0, b, n - b]
    assert_matches(is_ideal(algebra, members),
                   ideal_oracle(add, mul, 0, members), "condition")


@settings(max_examples=4, deadline=None)
@given(n=st.integers(257, 300), k=st.integers(1, 2), edit=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32))
def test_maps_between_byte_and_tuple_rows(n, k, edit, seed):
    # ℤ3 against a ℤn table: byte rows on one side, tuple rows on the
    # other.  x ↦ k·x mod 3 from ℤn is a homomorphism exactly when 3
    # divides n, and one image is then changed; the maps from ℤ3 keep ⊤
    # and ⊥, so that + is compared across the two row types.
    small = [[(i + j) % 3 for j in range(3)] for i in range(3)], \
        [[(i * j) % 3 for j in range(3)] for i in range(3)], 0, 1
    wide = [[(i + j) % n for j in range(n)] for i in range(n)], \
        [[(i * j) % n for j in range(n)] for i in range(n)], 0, 1
    z3 = table_dict(small, [(-x) % 3 for x in range(3)])
    zn = table_dict(wide, [(-x) % n for x in range(n)])
    down = [(k * x) % 3 for x in range(n)]
    down[edit] = (down[edit] + 1) % 3
    up = [0, 1, 2 if k == 1 else n - 1]
    rng = random.Random(seed)
    for src, dst, f in ((zn, z3, down), (z3, zn, up)):
        source, target = algebra_from(src), algebra_from(dst)
        psi = Morphism(source, target, f)
        assert {source.compiled.row, target.compiled.row} == {bytes, tuple}
        for kind in ("semiring", "bpa"):
            assert_matches(check_morphism(psi, kind),
                           morphism_oracle(src, dst, f, kind), "condition")
        leq_src, leq_dst = ([[rng.randrange(2) for _ in range(len(t["add"]))]
                             for _ in range(len(t["add"]))] for t in (src, dst))
        orders = (OrderRelation.from_matrix(source, leq_src),
                  OrderRelation.from_matrix(target, leq_dst))
        assert_matches(order_relation_of_map(psi, *orders),
                       order_map_oracle(leq_src, leq_dst, f, "monotone"),
                       "direction")
