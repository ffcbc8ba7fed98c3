"""The row-scan law kernels against the definition oracles in helpers.

Random Cayley tables (at most 6 elements, often deliberately broken),
random 0/1 relations, random subsets and random maps must give the same
verdict, first witness, checked count and details as a plain scan of each
law's definition.  Tables of 257-300 elements take the tuple-row path of
the compiled tables; they are broken near the start so that the oracles
stay cheap, and maps between them and ℤ₃ mix byte rows with tuple rows.
The n³ laws decide every outer index at once on every carrier, so all of
these tables reach the slabs and per-index verdicts; tables of 9-24
elements, chains that fail late inside one outer index and ℤm tables
whose slabs take two bands check them further.  Pairwise monotony is
exact on every carrier: tables of 17-24 elements under random relations,
chains and discrete orders, a relation monotone in each argument but not
transitive, a non-commutative table monotone in one argument only, and
tables of 257-300 elements check both of its ways, the reduction to
monotony in each argument and the slab scan; chains of 17-257 elements
whose last row of + fails in a few drawn columns check that the scan
names the first witness when it lies in the last q.  Holding n³ laws
are decided on generating sets: the sets are compared with a closure
from their definition, the laws with the scans on relabelled Boolean
tables with a few cells changed, on ℤn and on ℤn of 257-300 elements,
and three tables pin the fallback to the scan where the test at the
generators, or its associativity premise, fails.  ``CompiledTables.closure``
is compared with the stall rule from its definition on random tables,
seeds and preferred sets, on byte and tuple rows, and its steps with
the sides they name.  Light's test alone is
compared with the associativity oracle for both operations of every
hypothesis table, and ``transposed`` with a transpose oracle on byte and
tuple rows at the byte-row edge.  ``CompiledTables.equal`` is compared
with ``bytes(map(eq, x, y))`` on byte rows and on tuple rows, and the
canonical order it builds with its definition on the subsets of 7 and
of 9 points (128 elements on byte rows, 512 on tuple rows).  The tests of
257-300 elements report a failing example as drawn, without shrinking.
Bound decomposition, decided from transitivity and the four operation
bounds, is compared with its definition where exactly one bound fails
under a chain and where every bound holds under a relation that is not
transitive.  The difference
congruence, decided against class representatives, is compared with
its definition scan, also on ℤn with a random × and every element a
subtrahend, where ~ is an equivalence and mostly no congruence; a set
of subtrahends that is no ideal must be refused with the condition it
fails.  The labels p + α′ that decide the difference semiring where
their premises hold are compared with their definition on those tables
with drawn opposites, and wherever the premises hold they must be a
homomorphism of the pairs whose kernel is the difference relation, by
a scan of every pair of pairs; the construction from the labels equals
the one from the dense relation, field for field, there, on relabelled
ℤn and products of two ℤn of at most 16 elements, and on every `diff`
table of the golden corpus.  The poset laws and monotony of +,
decided from the identities of + where the relation is the canonical
order of a semilattice +, are compared with their definitions on tables
whose + is idempotent and commutative, associative or not, under their
canonical rows and one cell away from them; six cases pin the scan
where a premise fails or a cell is flipped, and free:3, the canonical
matrix of free:2 supplied as a matrix and a canonical order restricted
to a subalgebra run no scan.  The homomorphism search, which
decides candidates on the rows
of the generators where both carriers are associative, is compared
with its definition where + is not associative on one side and a
candidate keeps those rows but fails elsewhere, and where only ! fails,
and the image of each map it finds with a closure from the definition;
the iso-theorem verdicts of both modes are rebuilt from the oracles on
tables whose + is idempotent and commutative.  Count tests pin two
slabs per generator for associativity on free:3 and at most 16 row
compositions to find each of its generating sets, no scan of bound
decomposition on free:3, no transitivity scan and one test of
monotony at generators (of ×) per ``order`` command on free:3, no map
scan in the free:3 → free:1 search of the bpa kind and no order map in
its monotone iso-theorem,
and ``check_morphism`` in a search from a non-associative source.  The
staged search is pinned by the candidates its screens leave on free:3
→ free:1 of the semiring kind, by a screen of the new generator on the
left of ×, and by blocks of 1 to 100 candidates, which must give the
same maps in the same order.  Every way of deriving its columns is
compared with the definition: byte and tuple columns into relabelled
chains of 20, 256 and 257 elements and into free:3, the scalar
operations on hypothesis tables, and free:1 → free:4 of the bpa kind
above the table limit; a chain of 1200 elements into one element runs
more stages than the recursion limit.
"""

import itertools
import json
import random
import re
import sys
from operator import eq, itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from propsemiring.algebra import (ADD, MAX_DENSE_CARRIER, MUL, AlgebraError,
                                  CompiledTables, DomainError, SizeLimitError,
                                  TableLoadError, UnsupportedOperationError,
                                  free_boolean_algebra, subalgebra_closure,
                                  table_semiring, transposed)
import propsemiring.differences as differences_module
import propsemiring.morphisms as morphisms_module
import propsemiring.order as order_module
import propsemiring.properties as properties_module
from propsemiring.cli import main
from propsemiring.differences import (CongruenceError, SubtrahendIdeal,
                                      difference_cancellation_criterion,
                                      difference_semiring, extended_order,
                                      is_ideal, mult_left_cancellative,
                                      subtrahend_ideal)
from propsemiring.morphisms import (KINDS, MODES, Morphism, check_morphism,
                                    enumerate_homs, verify_iso_theorem)
from propsemiring.order import (OrderRelation, canonical_order,
                                check_bound_decomposition, check_monotony,
                                check_operation_bounds, check_pairwise_monotony,
                                check_poset, cones, subalgebra_order_report)
from propsemiring.properties import (BAND_POSITIONS, _associative,
                                     _associativity, _distributivity,
                                     additively_cancellable_elements,
                                     check_semiring_axioms, is_entire,
                                     is_zerosumfree)

from helpers import (antisymmetry_oracle, associativity_oracle,
                     bound_decomposition_oracle, cancellable_oracle,
                     cancellation_criterion_oracle, canonical_order_oracle,
                     closure_oracle, commutativity_oracle, cones_oracle,
                     difference_oracle, distributivity_oracle, entire_oracle,
                     extended_order_oracle, generators_oracle, homs_oracle,
                     ideal_oracle, irreducible_oracle,
                     label_homomorphism_oracle, monotony_oracle, morphism_oracle,
                     mult_left_cancellative_oracle,
                     operation_bounds_oracle, order_map_oracle, pairs_of,
                     pairwise_monotony_oracle, pinned_homs_oracle,
                     product_spec, quotient_identity_oracle,
                     reflexivity_oracle, semilattice_order_oracle,
                     stall_generators_oracle, subtrahend_ideal_oracle,
                     transitivity_oracle, translation_invariance_oracle,
                     transpose_oracle, zerosumfree_oracle, zmod_spec)


# Each example of 257-300 elements builds and scans n² tables, so shrinking
# a failing one takes Hypothesis minutes; such a failure is reported as
# drawn.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


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
    monotony_add, monotony_mul = check_monotony(order)
    assert_matches(monotony_add, monotony_oracle(add, leq))
    assert_matches(monotony_mul, monotony_oracle(mul, leq))
    assert_matches(check_bound_decomposition(order),
                   bound_decomposition_oracle(add, mul, leq), "claim")
    assert_matches(check_operation_bounds(order),
                   operation_bounds_oracle(add, mul, leq), "claim")
    positive, negative = cones(order)
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
    assert_matches(check_pairwise_monotony(order),
                   pairwise_monotony_oracle(table[0], table[1], leq), "claim",
                   always={"mode": "exhaustive"})


def assert_pairwise_matches(table, leq):
    algebra = algebra_of(*table)
    assert_matches(check_pairwise_monotony(
        OrderRelation.from_matrix(algebra, leq)),
        pairwise_monotony_oracle(table[0], table[1], leq), "claim",
        always={"mode": "exhaustive"})


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pairwise_monotony_above_16_matches_definition(data):
    table = data.draw(cayley_tables(st.integers(17, 24)))
    assert_pairwise_matches(table, data.draw(relations(table[0])))


@pytest.mark.parametrize("n", [17, 24])
def test_pairwise_monotony_of_a_nontransitive_relation(n):
    # Saturating + and min as × under p ≼ p + 1: monotone in each
    # argument, but 0 ≼ 1 ≼ 2 without 0 ≼ 2, and 0 + 0 ⋠ 1 + 1.
    add = [[min(i + j, n - 1) for j in range(n)] for i in range(n)]
    mul = [[min(i, j) for j in range(n)] for i in range(n)]
    leq = [[int(q - p in (0, 1)) for q in range(n)] for p in range(n)]
    assert transitivity_oracle(leq)[0] == (0, 1, 2)
    assert all(monotony_oracle(op, leq)[0] is None for op in (add, mul))
    assert pairwise_monotony_oracle(add, mul, leq)[0] == (0, 1, 0, 1)
    assert_pairwise_matches((add, mul, 0, n - 1), leq)


def right_zero_table(n):
    """p + r = r unless r = 0, with 0 the identity, and × = min with
    identity n - 1: + is monotone in its first argument under every
    reflexive relation, and in its second one only where 0 is related
    to nothing else."""
    add = [[j or i for j in range(n)] for i in range(n)]
    mul = [[min(i, j) for j in range(n)] for i in range(n)]
    return add, mul, 0, n - 1


@pytest.mark.parametrize("isolated", [False, True])
def test_pairwise_monotony_of_a_noncommutative_table(isolated):
    # The preorder of the levels ⌊p/2⌋ is transitive; ``isolated`` takes
    # 0 out of the least level, so that + is monotone in both arguments.
    n = 18
    table = right_zero_table(n)
    add, mul = table[:2]
    leq = [[int(p == q if 0 in (p, q) and isolated else p // 2 <= q // 2)
            for q in range(n)] for p in range(n)]
    transpose = [list(col) for col in zip(*add)]
    assert transitivity_oracle(leq)[0] is None
    assert monotony_oracle(add, leq)[0] is None
    assert monotony_oracle(mul, leq)[0] is None
    assert (monotony_oracle(transpose, leq)[0] is None) == isolated
    assert_pairwise_matches(table, leq)
    if not isolated:
        assert pairwise_monotony_oracle(add, mul, leq)[0] == (2, 2, 0, 1)


@settings(max_examples=300, deadline=None)
@given(cayley_tables())
# ℤ2 = {0, 1} below a semilattice z < w under +; the row of 1 under ×
# stays in {0, 1} but its column does not, so 1 must go
@example(([[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
          [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 2, 3], [0, 3, 3, 3]], 0, 2))
def test_subtrahend_ideal_matches_definition(table):
    # The shrinking loop drops an element whose sums leave the current
    # set, so where + is not a commutative monoid it can lose a subset
    # that the definition keeps; there the library refuses, naming the
    # first violation, and elsewhere it matches the definition.
    add, mul, zero, _ = table
    algebra = algebra_of(*table)
    for law, (witness, _, _) in (("commutative", commutativity_oracle(add)),
                                 ("associative", associativity_oracle(add))):
        if witness is not None:
            names = ", ".join(f"x{i}" for i in witness)
            with pytest.raises(UnsupportedOperationError,
                               match=re.escape(f"+ is not {law} at ({names})")):
                subtrahend_ideal(algebra)
            return
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


@st.composite
def row_pairs(draw):
    """Two rows of one length, bytes or tuples, equal at about half of the
    positions; tuple entries reach past one byte, or stay below it."""
    rng = draw(st.randoms(use_true_random=False))
    as_tuple = draw(st.booleans())
    top = draw(st.sampled_from([256, 4096])) if as_tuple else 256
    x = [rng.randrange(top) for _ in range(draw(st.integers(0, 300)))]
    y = [v if rng.random() < 0.5 else rng.randrange(top) for v in x]
    row = tuple if as_tuple else bytes
    return row(x), row(y)


@settings(max_examples=200, deadline=None)
@given(row_pairs())
# A tuple row that int.from_bytes would read, beside one it cannot.
@example(((0, 7, 255, 3), (0, 7, 256, 9)))
@example(((0, 4095, 2), (0, 255, 2)))
def test_equal_rows_match_definition(rows):
    x, y = rows
    assert CompiledTables.equal(x, y) == bytes(map(eq, x, y))


def table_dict(table, comp):
    add, mul, zero, one = table
    return {"add": add, "mul": mul, "top": zero, "bot": one, "comp": comp}


def relabelled(table, comp, f):
    """The copy of (table, comp) whose element i is renamed f[i]."""
    add, mul, zero, one = table
    n = len(add)
    inverse = {v: k for k, v in enumerate(f)}
    copy = tuple([[f[rows[inverse[i]][inverse[j]]] for j in range(n)]
                  for i in range(n)] for rows in (add, mul)) \
        + (f[zero], f[one])
    return copy, [f[comp[inverse[i]]] for i in range(n)]


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
        dst, dst_comp = relabelled(src, comp, f)
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


@st.composite
def algebra_pairs(draw, tables=cayley_tables(st.integers(1, 5))):
    """(src, dst): tables of at most 5 elements with complements, drawn
    apart, or a table with itself or with a relabelled copy of it, so
    that homomorphisms exist."""
    src = draw(tables)
    n = len(src[0])
    comp = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("random", "itself", "relabelled")))
    if shape == "itself":
        return table_dict(src, comp), table_dict(src, comp)
    if shape == "relabelled":
        dst, dst_comp = relabelled(src, comp, draw(st.permutations(range(n))))
        return table_dict(src, comp), table_dict(dst, dst_comp)
    dst = draw(tables)
    m = len(dst[0])
    dst_comp = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    return table_dict(src, comp), table_dict(dst, dst_comp)


@settings(max_examples=300, deadline=None)
@given(algebra_pairs())
def test_hom_search_matches_definition(pair):
    src, dst = pair
    source, target = algebra_from(src), algebra_from(dst)
    for kind in ("semiring", "bpa"):
        homs = enumerate_homs(source, target, kind)
        assert [psi.mapping for psi in homs] == homs_oracle(src, dst, kind)
        for psi in homs:  # the image of a homomorphism is a subalgebra
            image = set(psi.mapping)
            assert image == closure_oracle(target, image, kind == "bpa")


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(8)))
def test_generator_count_does_not_depend_on_labelling(f):
    # The subsets of 3 points with + = ∩ and × = ∪: the three two-point
    # sets are no intersection of two other sets and give the rest under
    # ∩, so every relabelling needs 3 generators, 8^3 candidate maps.
    table = ([[i & j for j in range(8)] for i in range(8)],
             [[i | j for j in range(8)] for i in range(8)], 7, 0)
    copy, comp = relabelled(table, [7 - i for i in range(8)], f)
    algebra = algebra_from(table_dict(copy, comp))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(morphisms_module, "ENUMERATION_CAP", 8 ** 3)
        homs = [psi.mapping
                for psi in enumerate_homs(algebra, algebra, "semiring")]
        # one per map of the points
        assert len(homs) == 27 and homs == sorted(homs)
        patch.setattr(morphisms_module, "ENUMERATION_CAP", 8 ** 3 - 1)
        with pytest.raises(SizeLimitError, match="512 candidate"):
            enumerate_homs(algebra, algebra, "semiring")


def free_dict(k):
    """The free Boolean algebra on k atoms as truth tables of 2^k bits:
    + is AND, × is OR, ! is NOT."""
    mask = (1 << (1 << k)) - 1
    n = mask + 1
    return {"add": [[i & j for j in range(n)] for i in range(n)],
            "mul": [[i | j for j in range(n)] for i in range(n)],
            "comp": [mask ^ i for i in range(n)], "top": mask, "bot": 0}


@pytest.mark.parametrize("k, m", [(0, 2), (1, 0), (1, 1), (1, 2), (2, 0)])
def test_hom_search_on_free_algebras_matches_definition(k, m):
    # The semiring kind lists maps in product order; the bpa kind lists
    # them by the images of the atoms, which generate.
    src, dst = free_dict(k), free_dict(m)
    source, target = free_boolean_algebra(k), free_boolean_algebra(m)
    maps = [psi.mapping for psi in enumerate_homs(source, target, "semiring")]
    assert maps == homs_oracle(src, dst, "semiring")
    atoms = [sum(1 << row for row in range(1 << k) if row >> i & 1)
             for i in range(k)]
    maps = [psi.mapping for psi in enumerate_homs(source, target, "bpa")]
    assert maps == sorted(homs_oracle(src, dst, "bpa"),
                          key=lambda f: [f[a] for a in atoms])


def generator_rows_hold(src, dst, f):
    """ψ(g ∘ b) = ψ(g) ∘ ψ(b) for + and ×, every generator g of ∘
    (generators_oracle) and every b."""
    return all(f[src[op][g][b]] == dst[op][f[g]][f[b]]
               for op in ("add", "mul") for g in generators_oracle(src[op])
               for b in range(len(f)))


def skewed_subsets(k):
    """The subsets of k points with ∅ + {0} changed from ∅ to {0}: + is
    then neither commutative nor associative."""
    add, mul, zero, one = subsets_table(k)
    add[0][1] = 1
    return add, mul, zero, one


@pytest.mark.parametrize("case", ["skewed-source", "skewed-target",
                                  "identity-complement"])
def test_hom_search_where_generator_rows_hold_and_the_map_fails(case):
    # Some map keeps + and × on the rows of the generators of both
    # operations and is no homomorphism: + is not associative on one
    # side, and the map fails in row ∅ of +, or both sides are
    # associative and the map fails at !, which is the identity on the
    # source.
    subsets, skewed = (table_dict(table, [3, 2, 1, 0])
                       for table in (subsets_table(2), skewed_subsets(2)))
    src, dst, kind = {
        "skewed-source": (skewed, subsets, "semiring"),
        "skewed-target": (subsets, skewed, "semiring"),
        "identity-complement": (table_dict(subsets_table(2), [0, 1, 2, 3]),
                                subsets, "bpa")}[case]
    homs = homs_oracle(src, dst, kind)
    assert any(f not in homs and generator_rows_hold(src, dst, f)
               for f in itertools.product(range(4), repeat=4))
    source, target = algebra_from(src), algebra_from(dst)
    assert [psi.mapping for psi in enumerate_homs(source, target, kind)] \
        == homs


def semilattice_sum(table):
    """The table with + made idempotent and commutative: each cell below
    the diagonal copies its mirror, and x + x = x."""
    add, mul, zero, one = table
    n = len(add)
    return ([[add[min(i, j)][max(i, j)] if i != j else i for j in range(n)]
             for i in range(n)], mul, zero, one)


@settings(max_examples=200, deadline=None)
@given(algebra_pairs(cayley_tables(st.integers(1, 5)).map(semilattice_sum)))
def test_iso_theorem_verdicts_match_definition(pair):
    # Both carriers have canonical orders.  Every homomorphism is monotone
    # under them, and it is an order embedding exactly when it is
    # injective, so neither verdict scans a map.  The counterexamples are
    # rebuilt from the oracles of the homomorphisms and of the order maps.
    src, dst = pair
    source, target = algebra_from(src), algebra_from(dst)
    leq_src, leq_dst = canonical_matrix(src["add"]), canonical_matrix(dst["add"])
    names = [f"x{i}" for i in range(max(len(leq_src), len(leq_dst)))]
    for kind in KINDS:
        homs = homs_oracle(src, dst, kind)
        for f in homs:
            assert order_map_oracle(leq_src, leq_dst, f, "monotone")[0] is None
            assert (order_map_oracle(leq_src, leq_dst, f, "embedding")[0]
                    is None) == (len(set(f)) == len(f))
        for mode in MODES:
            expected = []
            for f in homs:
                onto = len(set(f)) == len(leq_dst)
                preserving = order_map_oracle(leq_src, leq_dst, f, mode)[0] is None
                iso = onto and len(set(f)) == len(f)
                if (onto and preserving) != iso:
                    expected.append({"map": {names[a]: names[t]
                                             for a, t in enumerate(f)},
                                     "onto": onto,
                                     "order_preserving": preserving,
                                     "isomorphism": iso})
            report = verify_iso_theorem(source, target, kind, mode)
            assert (report.hom_count, report.counterexamples) \
                == (len(homs), expected)


@st.composite
def subtrahend_cases(draw):
    """(table, members): a random table with at most three subtrahends,
    or ℤn (n ≤ 4) under + with a random × and the whole carrier as
    subtrahends.  + is then a group, so ~ is an equivalence, and on three
    or four elements the random × mostly keeps it from being a
    congruence."""
    if draw(st.booleans()):
        table = draw(cayley_tables())
        n, zero = len(table[0]), table[2]
        return table, sorted(draw(st.sets(st.integers(0, n - 1), max_size=2))
                             | draw(st.sampled_from(({zero}, set()))))
    n = draw(st.integers(2, 4))
    cell = st.integers(0, n - 1)
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[draw(cell) for _ in range(n)] for _ in range(n)]
    one = draw(cell)
    for x in range(n):
        mul[one][x] = mul[x][one] = x
    return (add, mul, 0, one), list(range(n))


def by_relation(subtrahends):
    """``difference_semiring`` with the premises of its labels refused, so
    that it builds the relation as dense rows."""
    with mock.patch.object(differences_module, "_label_premises",
                           return_value=False):
        return difference_semiring(subtrahends)


def difference_outcome(build, subtrahends):
    """Every field of the difference semiring that ``build`` makes, or the
    type and text of the error it raises."""
    try:
        diff = build(subtrahends)
    except AlgebraError as exc:
        return type(exc), str(exc)
    quotient = diff.algebra
    return (diff.parent, diff.subtrahends, diff.classes, diff.reports,
            diff.embedding.mapping, quotient.name, quotient.names,
            quotient.add_rows, quotient.mul_rows, quotient.top_index,
            quotient.bot_index, quotient.source_spec)


def assert_labels_match(subtrahends, add, mul):
    """The labels p + α′ against their definition, on any table whose
    subtrahends form an ideal; where their premises hold, the labels are
    a homomorphism of the pairs whose kernel is the difference relation."""
    members, opposites = subtrahends.members, subtrahends.opposites
    assert list(differences_module._labels(subtrahends)) == [
        add[p][o] for p in range(len(add)) for o in opposites]
    if differences_module._label_premises(subtrahends):
        assert label_homomorphism_oracle(add, mul, members, opposites) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_difference_kernels_match_definitions(data):
    table, members = data.draw(subtrahend_cases())
    add, mul, zero, _ = table
    algebra = algebra_of(*table)
    assert_matches(is_ideal(algebra, members),
                   ideal_oracle(add, mul, zero, members), "condition")
    assert_matches(mult_left_cancellative(algebra),
                   mult_left_cancellative_oracle(mul, zero))
    # the first member that sums to zero with each, or any members: the
    # labels' premises check that each opposite undoes its member
    inverses = [next((b for b in members if add[a][b] == zero), a)
                for a in members]
    opposites = data.draw(st.one_of(st.just(inverses), st.permutations(
        inverses), st.lists(st.sampled_from(members or [zero]),
                            min_size=len(members), max_size=len(members))))
    forged = SubtrahendIdeal(algebra=algebra, members=tuple(members),
                             opposites=tuple(opposites))
    assert_matches(difference_cancellation_criterion(forged),
                   cancellation_criterion_oracle(add, mul, members))
    leq = data.draw(relations(add))
    universal = data.draw(st.booleans())
    result = extended_order(OrderRelation.from_matrix(algebra, leq),
                            forged, universal=universal)
    extended = extended_order_oracle(add, leq, members, universal)
    assert result.relation.to_matrix() == extended
    assert_matches(result.stability,
                   translation_invariance_oracle(add, extended, members),
                   "direction")
    assert_matches(result.base_stability,
                   translation_invariance_oracle(add, leq, members), "direction")
    ideal = ideal_oracle(add, mul, zero, members)
    if ideal[0] is not None:  # pairs could combine outside the pairs
        with pytest.raises(DomainError,
                           match=re.escape(f"not an ideal: {ideal[2]} fails")):
            difference_semiring(forged)
        return
    assert_labels_match(forged, add, mul)
    assert difference_outcome(difference_semiring, forged) \
        == difference_outcome(by_relation, forged)
    expected = difference_oracle(add, mul, members, algebra.names)
    if expected[0] == "error":
        with pytest.raises(CongruenceError) as caught:
            difference_semiring(forged)
        assert str(caught.value) == expected[1]
        return
    _, classes, equivalence, congruence = expected
    broken = quotient_identity_oracle(add, mul, zero, table[3], classes,
                                      algebra.names)
    if broken is not None:
        with pytest.raises(TableLoadError) as caught:
            difference_semiring(forged)
        assert str(caught.value) == broken
        return
    try:
        diff = difference_semiring(forged)
    except CongruenceError as exc:
        assert str(exc) == "embedding p ↦ (p, ⊤) failed verification"
        return
    assert [list(block) for block in diff.classes] == classes
    assert diff.reports["equivalence"].checked == equivalence
    assert diff.reports["congruence"].checked == congruence


GOLDEN = Path(__file__).parent / "golden"


def golden_difference_cases():
    """(id, algebra, subtrahend names or None) of each diff case of the
    golden corpus."""
    with open(GOLDEN / "cases.json", encoding="utf-8") as handle:
        cases = json.load(handle)
    for case in cases:
        argv = case["argv"]
        if argv[:1] != ["diff"] or "-h" in argv:
            continue
        options = {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}
        if "--table" in options:
            with open(GOLDEN / "inputs" / options["--table"],
                      encoding="utf-8") as handle:
                algebra = table_semiring(json.load(handle))
        else:
            algebra = free_boolean_algebra(int(options["--free-atoms"]))
        names = options.get("--subtrahends")
        yield case["id"], algebra, names and names.split(",")


def test_labels_match_the_relation_on_golden_tables():
    # Each diff table of the corpus, built from its labels where their
    # premises hold and from the relation as dense rows, and its labels
    # compared with their definition; ℤ65 has more pairs than dense rows
    # hold, and its 4225² pairs of pairs are more than the oracle reads.
    refused = []
    for case_id, algebra, names in golden_difference_cases():
        ideal = subtrahend_ideal(algebra, names)
        if not differences_module._label_premises(ideal):
            refused.append(case_id)
        if algebra.size * ideal.size > MAX_DENSE_CARRIER:
            with pytest.raises(SizeLimitError):
                by_relation(ideal)
            assert difference_semiring(ideal).algebra.size == algebra.size
            continue
        assert_labels_match(ideal, *(list(map(list, algebra.table_rows(op)))
                                     for op in (ADD, MUL)))
        assert difference_outcome(difference_semiring, ideal) \
            == difference_outcome(by_relation, ideal), case_id
    assert refused == ["diff-broken-identity", "diff-nondistributive-z3",
                       "diff-nondistributive-z3-top"]


def spec_table(spec: dict):
    """(add, mul, zero, one) of a table description, by element position."""
    index = {e: i for i, e in enumerate(spec["elements"])}
    add, mul = ([[index[v] for v in row] for row in spec[op]]
                for op in ("add", "mul"))
    return add, mul, index[spec["zero"]], index[spec["one"]]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_labels_are_a_homomorphism_on_abelian_groups(data):
    # ℤn (n ≤ 16) or a product of two ℤn, relabelled: + is an abelian
    # group and × distributes, so the premises of the labels hold, with
    # the true opposites, for the whole carrier and for the principal
    # ideal of a drawn element
    if data.draw(st.booleans()):
        spec = zmod_spec(data.draw(st.integers(2, 16)))
    else:
        a = data.draw(st.integers(2, 4))
        spec = product_spec(zmod_spec(a), zmod_spec(data.draw(
            st.integers(2, 16 // a))))
    table = spec_table(spec)
    n = len(table[0])
    table, _ = relabelled(table, range(n), data.draw(st.permutations(range(n))))
    add, mul, zero, _ = table
    algebra = algebra_of(*table)
    if data.draw(st.booleans()):
        ideal = subtrahend_ideal(algebra)
        assert ideal.members == tuple(range(n))
    else:
        g = data.draw(st.integers(0, n - 1))
        ideal = subtrahend_ideal(algebra, sorted({row[g] for row in mul}))
    assert ideal.opposites == tuple(add[a].index(zero) for a in ideal.members)
    assert differences_module._label_premises(ideal)
    assert_labels_match(ideal, add, mul)
    assert difference_outcome(difference_semiring, ideal) \
        == difference_outcome(by_relation, ideal)


@settings(max_examples=4, deadline=None, phases=NO_SHRINK)
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
    chain = [[int(p <= q) for q in range(n)] for p in range(n)]
    for relation in (leq, chain):  # the slab scan joins tuple-row slabs
        assert_pairwise_matches(table, relation)
    algebra = algebra_of(*table)
    members = [0, b, n - b]
    assert_matches(is_ideal(algebra, members),
                   ideal_oracle(add, mul, 0, members), "condition")


def spec_table(spec: dict):
    """(add, mul, zero, one) of a table description, by element position."""
    index = {e: i for i, e in enumerate(spec["elements"])}
    add, mul = ([[index[v] for v in row] for row in spec[op]]
                for op in ("add", "mul"))
    return add, mul, index[spec["zero"]], index[spec["one"]]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_labels_are_a_homomorphism_on_abelian_groups(data):
    # ℤn (n ≤ 16) or a product of two ℤn, relabelled: + is an abelian
    # group and × distributes, so the premises of the labels hold, with
    # the true opposites, for the whole carrier and for the principal
    # ideal of a drawn element
    if data.draw(st.booleans()):
        spec = zmod_spec(data.draw(st.integers(2, 16)))
    else:
        a = data.draw(st.integers(2, 4))
        spec = product_spec(zmod_spec(a), zmod_spec(data.draw(
            st.integers(2, 16 // a))))
    table = spec_table(spec)
    n = len(table[0])
    table, _ = relabelled(table, range(n), data.draw(st.permutations(range(n))))
    add, mul, zero, _ = table
    algebra = algebra_of(*table)
    if data.draw(st.booleans()):
        ideal = subtrahend_ideal(algebra)
        assert ideal.members == tuple(range(n))
    else:
        g = data.draw(st.integers(0, n - 1))
        ideal = subtrahend_ideal(algebra, sorted({row[g] for row in mul}))
    assert ideal.opposites == tuple(add[a].index(zero) for a in ideal.members)
    assert differences_module._label_premises(ideal)
    assert_labels_match(ideal, add, mul)
    assert difference_outcome(difference_semiring, ideal) \
        == difference_outcome(by_relation, ideal)


@settings(max_examples=4, deadline=None, phases=NO_SHRINK)
@given(n=st.integers(257, 300), k=st.integers(1, 2), edit=st.integers(0, 8),
       deep=st.integers(100, 256), col=st.integers(2, 256),
       on_add=st.booleans())
def test_maps_between_byte_and_tuple_rows(n, k, edit, deep, col, on_add):
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
    for src, dst, f in ((zn, z3, down), (z3, zn, up)):
        source, target = algebra_from(src), algebra_from(dst)
        psi = Morphism(source, target, f)
        assert {source.compiled.row, target.compiled.row} == {bytes, tuple}
        for kind in ("semiring", "bpa"):
            assert_matches(check_morphism(psi, kind),
                           morphism_oracle(src, dst, f, kind), "condition")
    # ℤm with 3 dividing m and one cell (deep, col) of + or × changed:
    # x ↦ k·x mod 3 then holds in every row before ``deep``, so the first
    # violation lies several row bands in.
    m = n + (-n) % 3
    table = [[(i + j) % m for j in range(m)] for i in range(m)], \
        [[(i * j) % m for j in range(m)] for i in range(m)], 0, 1
    op = table[0] if on_add else table[1]
    op[deep][col] = (op[deep][col] + 1) % m
    src = table_dict(table, [(-x) % m for x in range(m)])
    f = [(k * x) % 3 for x in range(m)]
    psi = Morphism(algebra_from(src), algebra_from(z3), f)
    for kind in ("semiring", "bpa"):
        assert_matches(check_morphism(psi, kind),
                       morphism_oracle(src, z3, f, kind), "condition")


@settings(max_examples=3, deadline=None, phases=NO_SHRINK)
@given(m=st.integers(280, 300), row=st.integers(240, 279),
       col=st.integers(2, 6), on_add=st.booleans())
def test_law_slabs_across_bands_match_definitions(m, row, col, on_add):
    # ℤm has tuple rows, and the m² positions (j, k) of an outer index
    # take two bands, the first of 65536 // m ≤ 234 rows.  One cell
    # (row, col) of + or × is changed in a row past the first band; the
    # law of that operation then fails at an outer index below 3 (for +
    # at j = row - 1, in the second band), distributivity below 7.
    assert m * m > BAND_POSITIONS and row > BAND_POSITIONS // m
    add = [[(i + j) % m for j in range(m)] for i in range(m)]
    mul = [[(i * j) % m for j in range(m)] for i in range(m)]
    op = add if on_add else mul
    op[row][col] = (op[row][col] + 1) % m
    algebra = algebra_of(add, mul, 0, 1)
    c = algebra.compiled
    assert c.row is tuple
    assert_matches(_associativity("associativity", algebra,
                                  ADD if on_add else MUL),
                   associativity_oracle(op))
    assert_matches(_distributivity(algebra), distributivity_oracle(add, mul),
                   "side")


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_law_slabs_of_byte_rows_match_definitions(data):
    # Tables larger than the other hypothesis tables, so that more of
    # their edits land inside a slab (or a verdict per p for the order
    # laws) after the first outer index.
    table = data.draw(cayley_tables(st.integers(9, 20)))
    algebra = assert_axioms_match(table)
    assert_order_laws_match(table, data.draw(relations(table[0])))
    assert algebra.compiled.row is bytes


def max_min_tables(n, plus_is_max):
    """+ and × as max and min of indices, or min and max."""
    high = [[max(i, j) for j in range(n)] for i in range(n)]
    low = [[min(i, j) for j in range(n)] for i in range(n)]
    return (high, low) if plus_is_max else (low, high)


def late_failure_table(n, law, where, v, x):
    """(add, mul, zero, one, leq) whose first violation of ``law`` lies at
    an outer index p > 0, in the last q of p (``x`` is then its r), in the
    last r (``x`` is then its q) or in both; the edited cell avoids the
    rows and columns of the identities."""
    plus_is_max = law in ("monotony-add", "p + q ≼ r")
    add, mul = max_min_tables(n, plus_is_max)
    zero, one = (0, n - 1) if plus_is_max else (n - 1, 0)
    row, col = {"last q": (n - 1, x), "last r": (x, n - 1),
                "last q and r": (n - 1, n - 1)}[where]
    if law.startswith("monotony"):
        # 0 only below itself, a chain 1 ≼ … ≼ n-1: p ≼ q ⇒ p∘r ≼ q∘r fails
        # first at (v + 1, n - 1, x), at (1, x, n - 1) or at (1, n - 1, n - 1)
        leq = [[int(p == q or 1 <= p <= q) for q in range(n)]
               for p in range(n)]
        (add if law == "monotony-add" else mul)[row][col] = v
    elif law == "p + q ≼ r":  # a chain: fails first at (v, n - 1, x)
        leq = [[int(p <= q) for q in range(n)] for p in range(n)]
        add[v][n - 1] = x
    else:  # a reversed chain: fails first at p = v
        leq = [[int(p >= q) for q in range(n)] for p in range(n)]
        mul[row][col] = v
    return add, mul, zero, one, leq


LATE_FAILURES = [(law, where) for law in ("monotony-add", "monotony-mul",
                                          "p ≼ q × r")
                 for where in ("last q", "last r", "last q and r")] \
    + [("p + q ≼ r", "last q")]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(17, 24), case=st.sampled_from(LATE_FAILURES),
       v=st.integers(2, 12), x=st.integers(1, 12))
def test_order_verdicts_catch_a_late_failure(n, case, v, x):
    # The p after the first are decided by one verdict each; a verdict
    # that missed the last q or r of a failing p would report holds.
    law, where = case
    if where == "last r":
        x = max(x, 2)  # a q above the first element of the chain
    elif law.startswith("monotony"):
        x = min(x, v)  # r ≤ v keeps every p ≤ v monotone
    add, mul, zero, one, leq = late_failure_table(n, law, where, v, x)
    algebra = algebra_of(add, mul, zero, one)
    order = OrderRelation.from_matrix(algebra, leq)
    if law.startswith("monotony"):
        op = add if law == "monotony-add" else mul
        report = check_monotony(order)[op is mul]
        expected = monotony_oracle(op, leq)
        assert_matches(report, expected)
    else:
        expected = bound_decomposition_oracle(add, mul, leq)
        assert_matches(check_bound_decomposition(order), expected,
                       "claim")
        assert expected[2] == law
    p, q, r = expected[0]
    assert p > 0 and (q == n - 1 or where == "last r") \
        and (r == n - 1 or where == "last q")


@pytest.mark.parametrize("n", [17, 31, 32, 33, 127, 128, 129, 255, 256, 257])
@pytest.mark.parametrize("seed", [0, 1, 2, 1729])
def test_bulk_draw_matches_randrange_at_bit_length_edges(n, seed):
    # Named for the sampled draw it pinned at these sizes; it now pins
    # the exact scan there.  A chain ordered by index with + = max and
    # × = min, whose last row of + is 1 in about n / 16 columns drawn with
    # randrange: ≼ is transitive, so only the failing first-argument law
    # sends the check to the slab scan, and its first witness is
    # (0, n-1, 2, s) for the least drawn s.  Rows turn from bytes to
    # tuples between 256 and 257.
    add, mul = max_min_tables(n, True)
    rng = random.Random(seed)
    drawn = {2 + rng.randrange(n - 3) for _ in range(max(1, n // 16))}
    for s in drawn:
        add[n - 1][s] = 1
    leq = [[int(p <= q) for q in range(n)] for p in range(n)]
    algebra = algebra_of(add, mul, 0, n - 1)
    report = check_pairwise_monotony(OrderRelation.from_matrix(algebra, leq))
    s = min(drawn)
    expected = ((0, n - 1, 2, s), (n - 1) * n * n + 2 * n + s + 1,
                "p + r ≼ q + s")
    if n <= 33:
        assert pairwise_monotony_oracle(add, mul, leq) == expected
    assert_matches(report, expected, "claim", always={"mode": "exhaustive"})


@pytest.mark.parametrize("n, p0", [(17, 2), (17, 9), (24, 15)])
def test_bound_verdict_checks_the_last_sum_against_p(n, p0):
    # The chain 0 ≼ n-1 ≼ 1 ≼ 2 ≼ … ≼ n-2 with + its join and × its
    # meet.  p0 + (n-1) is changed from p0 to n-1: up(n-1) still lies in
    # up(q) for q = n-1 but not in up(p0), so only the inclusion of the
    # last sum in up(p) shows the failure, at (p0, n-1, 1).
    key = [0] + list(range(2, n)) + [1]  # the place of each index in the chain
    add = [[max(i, j, key=key.__getitem__) for j in range(n)] for i in range(n)]
    mul = [[min(i, j, key=key.__getitem__) for j in range(n)] for i in range(n)]
    leq = [[int(key[p] <= key[q]) for q in range(n)] for p in range(n)]
    add[p0][n - 1] = n - 1
    algebra = algebra_of(add, mul, 0, n - 2)
    expected = bound_decomposition_oracle(add, mul, leq)
    assert expected[0] == (p0, n - 1, 1)
    assert_matches(check_bound_decomposition(
        OrderRelation.from_matrix(algebra, leq)), expected, "claim")


def failing_bounds(add, mul, leq):
    """The operation bounds that fail for some pair (p, q)."""
    n = len(add)
    bounds = {"p ≼ p + q": lambda p, q: leq[p][add[p][q]],
              "q ≼ p + q": lambda p, q: leq[q][add[p][q]],
              "p × q ≼ p": lambda p, q: leq[mul[p][q]][p],
              "p × q ≼ q": lambda p, q: leq[mul[p][q]][q]}
    return [claim for claim, bound in bounds.items()
            if not all(bound(p, q) for p, q in pairs_of(n))]


@pytest.mark.parametrize("op, row, col, value, bound", [
    ("add", 4, 3, 3, "p ≼ p + q"), ("add", 3, 4, 3, "q ≼ p + q"),
    ("mul", 2, 4, 3, "p × q ≼ p"), ("mul", 4, 2, 3, "p × q ≼ q")])
def test_bound_decomposition_where_one_bound_fails(op, row, col, value,
                                                   bound):
    # The chain of six indices with + max and × min, one cell changed so
    # that the operation is no longer commutative: ≼ is transitive, and
    # only one of the four bounds fails, so the reduction must not apply.
    add, mul = max_min_tables(6, True)
    (add if op == "add" else mul)[row][col] = value
    leq = [[int(p <= q) for q in range(6)] for p in range(6)]
    assert transitivity_oracle(leq)[0] is None
    assert failing_bounds(add, mul, leq) == [bound]
    algebra = algebra_of(add, mul, 0, 5)
    expected = bound_decomposition_oracle(add, mul, leq)
    assert expected[0] is not None
    assert_matches(check_bound_decomposition(
        OrderRelation.from_matrix(algebra, leq)), expected, "claim")


def test_bound_decomposition_of_a_nontransitive_relation():
    # The canonical order of the subsets of three points (q ⊆ p) with
    # 001 ≼ 010 added: every bound holds, but 101 ≼ 001 ≼ 010 and not
    # 101 ≼ 010, so the law fails, first at p = 001, q = 101, r = 010
    # (001 + 101 = 001 ≼ 010, and not 101 ≼ 010).
    add, mul, zero, one = subsets_table(3)
    leq = canonical_matrix(add)
    leq[0b001][0b010] = 1
    assert transitivity_oracle(leq)[0] is not None
    assert failing_bounds(add, mul, leq) == []
    expected = bound_decomposition_oracle(add, mul, leq)
    assert expected[0] == (0b001, 0b101, 0b010)
    assert_order_laws_match((add, mul, zero, one), leq)


def test_holding_bound_decomposition_runs_no_scan(count_calls):
    # free:3 under its canonical order: transitivity, which follows from
    # the semilattice laws of +, and the four bounds decide the law, and
    # the count is still that of the n³ scan
    scans = count_calls("_scan_rows", order_module)
    algebra = free_boolean_algebra(3)
    report = check_bound_decomposition(canonical_order(algebra))
    assert scans == []
    assert (report.holds, report.witness, report.checked, report.details) \
        == (True, None, 256 ** 3, None)


# -- the canonical order of a semilattice -------------------------------------


@st.composite
def idempotent_commutative_tables(draw):
    """(add, mul, zero, one) whose + is idempotent and commutative with
    identity 0: max on a chain, the flat lattice (distinct p, q other
    than 0 sum to n - 1), union on the bit masks of up to 3 points, or
    noise above the diagonal; then up to two pairs of mirrored cells
    changed, so that + is associative only sometimes.  × is noise with a
    drawn identity."""
    base = draw(st.sampled_from(("chain", "flat", "masks", "noise")))
    n = 1 << draw(st.integers(0, 3)) if base == "masks" else draw(
        st.integers(1, 6))
    cell = st.integers(0, n - 1)
    if base == "chain":
        add = [[max(i, j) for j in range(n)] for i in range(n)]
    elif base == "flat":
        add = [[i if i == j else n - 1 for j in range(n)] for i in range(n)]
    elif base == "masks":
        add = [[i | j for j in range(n)] for i in range(n)]
    else:
        add = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            add[i][j] = add[j][i] = draw(cell)
    for i, j, value in draw(st.lists(st.tuples(cell, cell, cell),
                                     max_size=2)):
        add[i][j] = add[j][i] = value
    for x in range(n):
        add[x][x] = x
        add[0][x] = add[x][0] = x
    mul = [[draw(cell) for _ in range(n)] for _ in range(n)]
    one = draw(cell)
    for x in range(n):
        mul[one][x] = mul[x][one] = x
    return add, mul, 0, one


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_semilattice_order_matches_definitions(data):
    # On the canonical rows, and one cell away from them, the poset laws
    # and both monotony laws (``_monotony`` of + and of ×) agree with
    # their definitions whether they are decided from the semilattice laws
    # of + or scanned.
    table = data.draw(idempotent_commutative_tables())
    add = table[0]
    leq = canonical_matrix(add)
    cell = st.integers(0, len(add) - 1)
    for p, q in data.draw(st.lists(st.tuples(cell, cell), max_size=1)):
        leq[p][q] ^= 1
    _, order = assert_order_laws_match(table, leq)
    assert order.semilattice_order == semilattice_order_oracle(add, leq)


def order_premise_table(name):
    """(add, mul, zero, one) of a table whose + fails one premise of the
    semilattice order, or of the subsets of three points (+
    intersection), whose + is a semilattice."""
    return {
        "subsets": subsets_table(3),
        # ℤ3: 1 + 1 = 2
        "not-idempotent": (
            [[(i + j) % 3 for j in range(3)] for i in range(3)],
            [[i * j % 3 for j in range(3)] for i in range(3)], 0, 1),
        # p + r = r unless r = 0: idempotent and associative
        "not-commutative": right_zero_table(4),
        # 1 + 2 = 0, 1 + 3 = 1, 2 + 3 = 3: idempotent and commutative,
        # and 2 ≼ 3 ≼ 1 but not 2 ≼ 1
        "not-associative": (
            [[0, 1, 2, 3], [1, 1, 0, 1], [2, 0, 2, 3], [3, 1, 3, 3]],
            [[min(i, j) for j in range(4)] for i in range(4)], 0, 3),
    }[name]


@pytest.mark.parametrize("name, flip, law, witness", [
    ("subsets", (5, 5), "reflexivity", (5,)),
    ("subsets", (0, 7), "antisymmetry", (0, 7)),
    ("subsets", (7, 0), "transitivity", (7, 1, 0)),
    ("not-idempotent", None, "reflexivity", (1,)),
    ("not-commutative", None, "antisymmetry", (1, 2)),
    ("not-associative", None, "transitivity", (2, 3, 1))])
def test_rows_that_are_no_semilattice_order_are_scanned(count_calls, name,
                                                        flip, law, witness):
    # Canonical rows of a + that breaks one premise, or the canonical
    # order of a semilattice with one cell flipped: the laws are scanned,
    # agree with their definitions, and the law broken names its witness.
    table = order_premise_table(name)
    leq = canonical_matrix(table[0])
    if flip is not None:
        leq[flip[0]][flip[1]] ^= 1
    scans = count_calls("_scan_rows", order_module)
    _, order = assert_order_laws_match(table, leq)
    assert not order.semilattice_order
    reports = {r.property: r for r in check_poset(order)}
    assert reports[law].witness == tuple(f"x{i}" for i in witness)
    assert law in [args[0] for args in scans]


@pytest.mark.parametrize("atoms, supplied", [(3, False), (2, True)])
def test_semilattice_order_runs_no_scan(count_calls, atoms, supplied):
    # free:3 under canonical_order, and free:2 under its canonical order
    # supplied as a matrix: the poset laws and monotony of + follow from
    # the semilattice laws of +, with the counts of their scans.
    algebra = free_boolean_algebra(atoms)
    order = canonical_order(algebra)
    if supplied:
        order = OrderRelation.from_matrix(algebra, order.to_matrix())
    scans = count_calls("_scan_rows", order_module)
    at_generators = count_calls("_monotone_at_generators", order_module)
    reports = [*check_poset(order), order_module._monotony(order, ADD)]
    assert order.semilattice_order
    assert scans == [] and at_generators == []
    n, related = algebra.size, 3 ** (1 << atoms)  # |≼|: 3 states per row
    assert [(r.property, r.holds, r.witness, r.checked) for r in reports] == [
        ("reflexivity", True, None, n), ("antisymmetry", True, None, n * n),
        ("transitivity", True, None, related * n),
        ("monotony-add", True, None, related * n)]


def test_restricted_canonical_order_runs_no_scan(count_calls):
    # The canonical order of free:3 restricted to the subalgebra {⊤, a,
    # !a, ⊥} is the canonical order of the restricted + (|≼| = 9).
    algebra = free_boolean_algebra(3)
    sub = subalgebra_closure(algebra, [algebra.element_named("a")],
                             bpa_closed=True)
    scans = count_calls("_scan_rows", order_module)
    report = subalgebra_order_report(sub, canonical_order(algebra))
    assert scans == []
    assert [(r.property, r.holds, r.checked)
            for r in report.restriction_poset + report.restriction_monotony
            ] == [("reflexivity", True, 4), ("antisymmetry", True, 16),
                  ("transitivity", True, 36), ("monotony-add", True, 36),
                  ("monotony-mul", True, 36)]


# -- laws decided on generating sets ------------------------------------------


def subsets_table(k, f=None):
    """(add, mul, zero, one) of the subsets of k points as bit masks, +
    intersection and × union; mask m is relabelled f[m]."""
    n = 1 << k
    f = list(range(n)) if f is None else f
    add, mul = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            add[f[x]][f[y]] = f[x & y]
            mul[f[x]][f[y]] = f[x | y]
    return add, mul, f[n - 1], f[0]


@pytest.mark.parametrize("k", [7, 9])
def test_canonical_order_of_wide_boolean_tables(k):
    # The subsets of 7 points take byte rows, those of 9 tuple rows.
    f = list(range(1 << k))
    random.Random(k).shuffle(f)
    add, mul, zero, one = subsets_table(k, f)
    algebra = algebra_of(add, mul, zero, one)
    assert algebra.compiled.row is (bytes if k == 7 else tuple)
    assert canonical_order(algebra).to_matrix() == \
        canonical_order_oracle(add, algebra.names)


def canonical_matrix(add):
    n = len(add)
    return [[int(add[p][q] == q) for q in range(n)] for p in range(n)]


@settings(max_examples=300, deadline=None)
@given(cayley_tables())
def test_generating_sets_match_definition(table):
    c = algebra_of(*table).compiled
    for op, rows in ((ADD, table[0]), (MUL, table[1])):
        assert c.irreducible(op) == irreducible_oracle(rows)
        assert c.generators(op) == generators_oracle(rows)


def assert_closure_matches(c, plain, compiled, seeds, preferred):
    """``c.closure`` against the definition, the tables given twice: as
    nested lists and as the compiled rows.  Generator i's stage holds the
    steps that reach the closure with the first i + 1 generators."""
    generators, steps, starts = c.closure(seeds, compiled, preferred)
    expected, closures = stall_generators_oracle(plain, seeds, preferred, c.n)
    assert generators == expected
    reached = set(seeds)
    assert sorted([*reached, *generators, *(e for e, *_ in steps)]) \
        == list(range(c.n))  # the seeds, generators and steps partition
    levels = [next(i for i, closure in enumerate(closures) if e in closure)
              for e, *_ in steps]
    assert starts == [sum(level <= i for level in levels)
                      for i in range(len(generators))]
    assert levels == sorted(levels)
    for before, (e, k, x, y), level in zip([None, *steps], steps, levels):
        reached.update(generators[:level])
        assert plain[k][x][y] == e and x in reached and y in reached
        if before is not None and before[1:3] == (k, x):
            assert before[0] < e  # one side of one x gives e ascending
        reached.add(e)


def closure_sides(add, mul, comp):
    """+, its columns, ×, its columns and the constant complement side."""
    return [add, transpose_oracle(add), mul, transpose_oracle(mul),
            [comp] * len(add)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closure_matches_definition(data):
    # Each generator is the least preferred element, else the least,
    # outside the closure of the seeds and the generators before it, and
    # each step composes two elements reached before the one it reaches.
    add, mul, zero, one = data.draw(cayley_tables(st.integers(1, 9)))
    n = len(add)
    cell = st.integers(0, n - 1)
    comp = data.draw(st.lists(cell, min_size=n, max_size=n))
    c = algebra_of(add, mul, zero, one, comp).compiled
    # a side that depends on x comes with its transpose
    groups = data.draw(st.sets(st.sampled_from(((0, 1), (2, 3), (4,))),
                               min_size=1))
    order = data.draw(st.permutations([k for group in groups for k in group]))
    compiled = [c.add, c.add_t, c.mul, c.mul_t, [c.comp] * n]
    plain = closure_sides(add, mul, comp)
    assert_closure_matches(c, [plain[k] for k in order],
                           [compiled[k] for k in order],
                           data.draw(st.lists(cell, max_size=4)),
                           data.draw(st.frozensets(cell)))


@pytest.mark.parametrize("n", [257, 263])
def test_closure_of_tuple_rows_matches_definition(n):
    # ℤn with a few cells of × changed, from ⊤ alone, preferring three
    # elements: the rows are tuples above 256 elements.
    rng = random.Random(n)
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    for _ in range(3):
        mul[rng.randrange(2, n)][rng.randrange(2, n)] = rng.randrange(n)
    comp = [rng.randrange(n) for _ in range(n)]
    c = algebra_of(add, mul, 0, 1, comp).compiled
    assert c.row is tuple
    assert_closure_matches(
        c, closure_sides(add, mul, comp),
        [c.add, c.add_t, c.mul, c.mul_t, [c.comp] * n], [0],
        frozenset(rng.sample(range(n), 3)))


@pytest.mark.parametrize("n", [1, 2, 256, 257])
@pytest.mark.parametrize("row", [bytes, tuple])
def test_transposed_matches_definition(n, row):
    # 0/1 rows are bytes at every size; table rows are bytes up to 256
    # elements and tuples above.
    rng = random.Random(n)
    rows = [row(rng.randrange(256) for _ in range(n)) for _ in range(n)]
    columns = transposed(rows)
    assert all(type(column) is row for column in columns)
    assert list(map(list, columns)) == transpose_oracle(rows)


@settings(max_examples=300, deadline=None)
@given(cayley_tables())
@example(right_zero_table(5))  # associative, and + is not commutative
def test_light_test_matches_definition(table):
    c = algebra_of(*table).compiled
    for op, rows in ((ADD, table[0]), (MUL, table[1])):
        assert _associative(c, op) == (associativity_oracle(rows)[0] is None)


@st.composite
def subset_tables(draw, points=st.integers(1, 5)):
    """A relabelled subsets table with at most two cells of + or ×
    changed (never in a row or column of the identity), and the canonical
    order of the intact table with at most two entries flipped."""
    k = draw(points)
    n = 1 << k
    add, mul, zero, one = subsets_table(k, draw(st.permutations(range(n))))
    leq = canonical_matrix(add)
    cell = st.integers(0, n - 1)
    for on_add, i, j, v in draw(st.lists(
            st.tuples(st.booleans(), cell, cell, cell), max_size=2)):
        if (zero if on_add else one) not in (i, j):
            (add if on_add else mul)[i][j] = v
    for p, q in draw(st.lists(st.tuples(cell, cell), max_size=2)):
        leq[p][q] ^= 1
    return (add, mul, zero, one), leq


@settings(max_examples=100, deadline=None)
@given(subset_tables())
def test_laws_decided_on_generating_sets_match_definitions(case):
    # An intact table holds every n³ law and its order is monotone, so
    # each law is decided on a generating set; an edit or a flipped entry
    # sends some of them to the scans.
    table, leq = case
    add, mul = table[:2]
    c = assert_axioms_match(table).compiled
    for op, rows in ((ADD, add), (MUL, mul)):
        assert c.generators(op) == generators_oracle(rows)
    algebra, order = assert_order_laws_match(table, leq)
    if len(add) <= 8:
        assert_matches(check_pairwise_monotony(order),
                       pairwise_monotony_oracle(add, mul, leq), "claim",
                       always={"mode": "exhaustive"})


@settings(max_examples=3, deadline=None, phases=NO_SHRINK)
@given(n=st.integers(257, 300), a=st.integers(2, 6), b=st.integers(2, 6),
       steps=st.sets(st.integers(1, 299), max_size=3))
def test_laws_decided_on_generating_sets_of_tuple_rows(n, a, b, steps):
    # ℤn with a × b changed.  + stays associative, and its generating set
    # is the fallback 0, 1; under p ≼ q iff q - p lies in {0} ∪ steps,
    # which is invariant under translation, monotony of + holds over
    # |≼|·n tuples and is decided at those two.  × fails associativity,
    # distributivity and monotony within the first rows, after its
    # generators have been tried.
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    mul[a][b] = (a * b + 1) % n
    algebra = algebra_of(add, mul, 0, 1)
    c = algebra.compiled
    assert c.row is tuple and c.generators(ADD) == (0, 1)
    for op, rows in ((ADD, add), (MUL, mul)):
        assert c.irreducible(op) == irreducible_oracle(rows)
        assert c.generators(op) == generators_oracle(rows)
    reports = {r.property: r for r in check_semiring_axioms(algebra)}
    # ℤn is associative under +, so the law holds on all n³ tuples
    assert (reports["add-associativity"].holds,
            reports["add-associativity"].checked) == (True, n ** 3)
    assert_matches(reports["mul-associativity"], associativity_oracle(mul))
    assert_matches(reports["distributivity"], distributivity_oracle(add, mul),
                   "side")
    leq = [[int((q - p) % n in steps | {0}) for q in range(n)]
           for p in range(n)]
    monotony_add, monotony_mul = check_monotony(
        OrderRelation.from_matrix(algebra, leq))
    assert_matches(monotony_add, monotony_oracle(add, leq))
    assert monotony_add.holds
    assert_matches(monotony_mul, monotony_oracle(mul, leq))


def test_associativity_witness_after_a_generator_failure():
    # The subsets of six points with 101100 + 001110 changed to 101100:
    # Light's test fails at a generator, and the scan then names the
    # first witness, whose third argument is no generator.
    add, mul, zero, one = subsets_table(6)
    add[0b101100][0b001110] = 0b101100
    algebra = algebra_of(add, mul, zero, one)
    c = algebra.compiled
    expected = associativity_oracle(add)
    assert expected[0] == (0b100000, 0b101100, 0b001110)
    assert expected[0][2] not in c.generators(ADD)
    assert not _associative(c, ADD)
    assert_matches(_associativity("associativity", algebra, ADD), expected)


def distributive_at(add, mul, i):
    n = len(add)
    return all(mul[i][add[j][k]] == add[mul[i][j]][mul[i][k]]
               and mul[add[j][k]][i] == add[mul[j][i]][mul[k][i]]
               for j in range(n) for k in range(n))


def test_distributivity_of_a_nonassociative_product_is_scanned():
    # The subsets of four points with 0011 × 0101 changed to 1111: ×
    # still distributes over + at each of its generators (⊥ and the
    # points), but not at 0011, and it is no longer associative, so the
    # generators cannot decide the law.
    add, mul, zero, one = subsets_table(4)
    mul[0b0011][0b0101] = 0b1111
    algebra = algebra_of(add, mul, zero, one)
    c = algebra.compiled
    assert c.generators(MUL) == generators_oracle(mul) == (0, 1, 2, 4, 8)
    assert associativity_oracle(mul)[0] is not None
    assert all(distributive_at(add, mul, g) for g in c.generators(MUL))
    expected = distributivity_oracle(add, mul)
    assert expected[0] is not None
    assert_matches(_distributivity(algebra), expected, "side")


def test_monotony_of_a_nonassociative_sum_is_scanned():
    # The subsets of four points with 0011 + 0101 changed to 0000, under
    # the canonical order of the intact table: + is monotone at each of
    # its generators (the sets of three points and the full set), but
    # not at 0101, and it is no longer associative.
    add, mul, zero, one = subsets_table(4)
    leq = canonical_matrix(add)
    add[0b0011][0b0101] = 0
    table = (add, mul, zero, one)
    c = algebra_of(*table).compiled
    assert c.generators(ADD) == generators_oracle(add) == (7, 11, 13, 14, 15)
    assert associativity_oracle(add)[0] is not None
    assert all(leq[add[p][g]][add[q][g]] for g in c.generators(ADD)
               for p in range(16) for q in range(16) if leq[p][q])
    assert monotony_oracle(add, leq)[0] is not None
    assert_order_laws_match(table, leq)


@pytest.mark.parametrize("n", [3, 7, 12, 16])
def test_generating_set_of_zn_needs_the_fallback(n):
    # No element of ℤn (n ≥ 3) is irreducible under +, so the generating
    # set is the least element, 0, and then the least one it misses, 1.
    table = zmod_table(n)
    c = assert_axioms_match(table).compiled
    assert c.irreducible(ADD) == frozenset()
    assert c.generators(ADD) == generators_oracle(table[0]) == (0, 1)
    for leq in ([[int(p <= q) for q in range(n)] for p in range(n)],
                [[int(p == q) for q in range(n)] for p in range(n)]):
        assert_order_laws_match(table, leq)


def zmod_table(n):
    return ([[(i + j) % n for j in range(n)] for i in range(n)],
            [[(i * j) % n for j in range(n)] for i in range(n)], 0, 1 % n)


def test_associativity_of_three_atoms_takes_two_slabs_per_generator(
        monkeypatch):
    # The exact scan compares 2·256 slabs per operation; Light's test
    # compares two per generator, of which each operation has nine.
    algebra = free_boolean_algebra(3)
    c = algebra.compiled
    calls = []
    slab, composer = c.slab, c.composer

    def counted_composer(rows):
        composed = composer(rows)
        return lambda outer: calls.append("compose") or composed(outer)

    monkeypatch.setattr(c, "slab", lambda rows: calls.append("slab")
                        or slab(rows))
    monkeypatch.setattr(c, "composer", counted_composer)
    for op in (ADD, MUL):
        calls.clear()
        report = _associativity("associativity", algebra, op)
        assert (report.holds, report.checked) == (True, 256 ** 3)
        assert len(c.generators(op)) == 9
        assert calls.count("slab") == calls.count("compose") == 9
    # Finding each set takes at most 16 compositions of rows (14 for +,
    # 16 for ×): the closure starts from the irreducible elements, where
    # one started from nothing would compose up to 512 rows.
    fresh = free_boolean_algebra(3).compiled
    compose = CompiledTables.compose
    monkeypatch.setattr(CompiledTables, "compose", staticmethod(
        lambda outer, inner: calls.append("compose") or compose(outer, inner)))
    for op in (ADD, MUL):
        calls.clear()
        assert fresh.generators(op) == c.generators(op)
        assert len(calls) <= 16


def test_hom_search_decides_on_generator_rows(count_calls):
    # free:3 -> free:1, bpa: the rows of the nine generators of + and of
    # × and the ! row decide all 64 candidates, and both carriers are
    # associative, so no map check scans.  An iso-theorem run in either
    # mode scans only the commutativity of + for each canonical order.
    scans = count_calls("_scan_rows", morphisms_module, order_module,
                        properties_module)
    source, target = free_boolean_algebra(3), free_boolean_algebra(1)
    assert len(enumerate_homs(source, target, "bpa")) == 64
    assert scans == []
    for mode in MODES:
        report = verify_iso_theorem(source, target, "bpa", mode)
        assert report.hom_count == 64
        assert [name for name, *_ in scans] == ["add-commutativity"] * 2
        scans.clear()


def test_hom_search_on_a_nonassociative_source_checks_maps(count_calls):
    # The skewed subsets of 2 points fail Light's test, so each candidate
    # whose generator rows hold goes to check_morphism.  Three maps that
    # fail at ∅ + {0} or later, (0, 1, 2, 3), (0, 2, 1, 3) and (0, 3, 0,
    # 3), keep those rows, but the screen after the first stage rejects
    # them, so only the homomorphism is checked.
    checks = count_calls("check_morphism", morphisms_module)
    add, mul, zero, one = skewed_subsets(2)
    homs = enumerate_homs(algebra_of(add, mul, zero, one),
                          algebra_of(*subsets_table(2)))
    assert [psi.mapping for psi in homs] == [(0, 0, 3, 3)]
    assert [psi.mapping for psi, *_ in checks] == [(0, 0, 3, 3)]


def test_hom_search_screens_the_new_generator_on_the_left(count_calls):
    # The subsets of 3 points with {0, 2} × {0, 1} changed from the full
    # set to {0, 2}: × is neither commutative nor associative, and {0, 2}
    # is the second generator and no generator of ×.  Only the screen of
    # g × x, with the new generator on the left, rejects the maps that
    # keep the generator rows and fail there, so each of the 4 maps that
    # reach check_morphism is a homomorphism.
    checks = count_calls("check_morphism", morphisms_module)
    add, mul, zero, one = subsets_table(3)
    mul[0b101][0b011] = 0b101
    source = algebra_of(add, mul, zero, one)
    assert source.compiled.generators(MUL) == (0, 1, 2, 4)
    homs = enumerate_homs(source, algebra_of(*subsets_table(2)))
    assert len(homs) == 4
    assert [psi for psi, *_ in checks] == homs


def test_hom_search_screens_free3_to_free1(count_calls):
    # 4^8 candidate images of the eight generators of free:3 (the sets of
    # seven points).  After stage k the screen leaves the (k + 1)^2 maps
    # that keep + and × at the new generator, 64 after stage 7, and the
    # last stage adds the 4 images of the eighth: 256 rows, not 65 536,
    # reach the generator-row check, and no map reaches check_morphism.
    rows = count_calls("_generator_rows_hold", morphisms_module)
    screens = count_calls("_screened", morphisms_module)
    checks = count_calls("check_morphism", morphisms_module)
    source, target = free_boolean_algebra(3), free_boolean_algebra(1)
    homs = enumerate_homs(source, target, "semiring")
    assert len(homs) == 64
    assert [len(cols[source.top_index]) for cols, *_ in screens] == [
        4 * k * k for k in range(1, 8)]
    assert len(rows) == 4 * 8 * 8
    assert checks == []


@pytest.mark.parametrize("chunk", [1, 3, 16, 100])
@pytest.mark.parametrize("kind", KINDS)
def test_hom_search_in_small_chunks_keeps_maps_and_order(chunk, kind,
                                                        monkeypatch):
    # Blocks of fewer candidates than one generator has images, and
    # blocks that split the live candidates unevenly, give the same maps
    # in the same order.
    for k, m in ((2, 1), (2, 2), (1, 2)):
        source, target = free_boolean_algebra(k), free_boolean_algebra(m)
        whole = [psi.mapping for psi in enumerate_homs(source, target, kind)]
        with monkeypatch.context() as patch:
            patch.setattr(morphisms_module, "_CHUNK", chunk)
            assert [psi.mapping for psi in
                    enumerate_homs(source, target, kind)] == whole


def chain_table(n):
    """(table, comp) of the chain 0 < … < n-1 with + = min, × = max, ⊤ =
    n-1 and ⊥ = 0, and ! reversing it."""
    return (([[min(i, j) for j in range(n)] for i in range(n)],
             [[max(i, j) for j in range(n)] for i in range(n)], n - 1, 0),
            [n - 1 - i for i in range(n)])


@pytest.mark.parametrize("m", [20, 256, 257])
def test_hom_search_into_wide_targets_matches_definition(m, count_calls):
    # The subsets of 2 points into a relabelled chain of m elements: two
    # homomorphisms of each kind, which send the two points to ⊤ and ⊥.
    # Each search screens the candidates after the first of its two
    # generators, on byte columns up to 256 elements and on tuple columns
    # above; the second stage gives each block of 204, 16 or 15 live
    # candidates every image of the second generator.
    screens = count_calls("_screened", morphisms_module)
    src = table_dict(subsets_table(2), [3, 2, 1, 0])
    order = list(range(m))
    random.Random(m).shuffle(order)
    dst = table_dict(*relabelled(*chain_table(m), order))
    source, target = algebra_from(src), algebra_from(dst)
    for kind in KINDS:
        homs = [psi.mapping for psi in enumerate_homs(source, target, kind)]
        assert homs == pinned_homs_oracle(src, dst, kind)
        assert len(homs) == 2
    assert {type(cols[source.top_index]) for cols, *_ in screens} \
        == {bytes if m <= 256 else tuple}


def test_hom_search_into_free3_matches_definition():
    # free:1 -> free:3: 256 images of each of the two generators of the
    # semiring kind, screened after the first, in blocks of 16 candidates
    # with 256 images each; the bpa kind is not screened and lists the
    # maps by the image of the atom, at index 2.
    src, dst = free_dict(1), free_dict(3)
    source, target = free_boolean_algebra(1), free_boolean_algebra(3)
    maps = [psi.mapping for psi in enumerate_homs(source, target, "semiring")]
    assert maps == pinned_homs_oracle(src, dst, "semiring")
    maps = [psi.mapping for psi in enumerate_homs(source, target, "bpa")]
    assert maps == sorted(pinned_homs_oracle(src, dst, "bpa"),
                          key=itemgetter(2))


class Cells:
    """A table computed when read: ``Cells(f)[x]`` is f(x)."""

    def __init__(self, f):
        self.f = f

    def __getitem__(self, x):
        return self.f(x)


def test_hom_search_above_the_table_limit_matches_definition():
    # free:1 -> free:4 of the bpa kind: 65 536 target elements, above the
    # table limit, so the stage of the atom derives ! with the scalar
    # complement and check_morphism decides every candidate.  A map that
    # keeps ⊤, ⊥ and ! is fixed by the image x of the atom (index 2), so
    # the maps (⊥, !x, x, ⊤) are all there can be, and each must pass the
    # definition, read on the bitwise operations of free:4.
    mask = (1 << 16) - 1
    dst = {"add": Cells(lambda x: Cells(lambda y: x & y)),
           "mul": Cells(lambda x: Cells(lambda y: x | y)),
           "comp": Cells(lambda x: mask ^ x), "top": mask, "bot": 0}
    homs = enumerate_homs(free_boolean_algebra(1), free_boolean_algebra(4),
                          "bpa")
    expected = [(0, mask ^ x, x, mask) for x in range(mask + 1)]
    assert [psi.mapping for psi in homs] == expected
    assert all(morphism_oracle(free_dict(1), dst, f, "bpa")[0] is None
               for f in expected)


@settings(max_examples=100, deadline=None)
@given(algebra_pairs())
def test_hom_search_on_scalar_operations_matches_definition(pair):
    # With the table limit at 0 and tuple rows, as above 4096 elements,
    # every target takes the scalar operations: the steps of the stages
    # and the screens read dst.add_i, dst.mul_i (either way round) and
    # dst.comp_i, and check_morphism decides each candidate left.
    src, dst = pair
    source, target = algebra_from(src), algebra_from(dst)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(morphisms_module, "MAX_DENSE_CARRIER", 0)
        patch.setattr(morphisms_module, "row_type", lambda n: tuple)
        for kind in KINDS:
            homs = enumerate_homs(source, target, kind)
            assert [psi.mapping for psi in homs] \
                == homs_oracle(src, dst, kind)


def test_hom_search_with_more_generators_than_the_recursion_limit(
        count_calls):
    # A chain of 1200 elements needs a generator for nearly each element,
    # so into one element the search runs 1197 stages of one candidate,
    # all in the same loop.  One cell of + is changed, (0 + 2)
    # + 1 = 1 ≠ 0 = 0 + (2 + 1), so Light's test fails at its first
    # generator and check_morphism decides the one map at once.
    n = 1200
    (add, mul, zero, one), _ = chain_table(n)
    add[0][2] = 1
    stages = count_calls("_blocks", morphisms_module)
    homs = enumerate_homs(algebra_of(add, mul, zero, one),
                          algebra_of([[0]], [[0]], 0, 0))
    assert [psi.mapping for psi in homs] == [(0,) * n]
    assert len(stages) > sys.getrecursionlimit()


def test_order_builds_the_canonical_rows_once(monkeypatch, capsys):
    # canonical_order and semilattice_order read one set of rows
    # p + q = q of free:3, one equal per row
    calls, equal = [], CompiledTables.equal

    def counted(x, y):
        calls.append(x)
        return equal(x, y)

    monkeypatch.setattr(CompiledTables, "equal", staticmethod(counted))
    assert main(["order", "--free-atoms", "3"]) == 0
    assert '"transitivity"' in capsys.readouterr().out
    assert len(calls) == 256


def test_order_decides_transitivity_and_monotony_once(count_calls, capsys):
    # check_poset, check_monotony and the reduction of pairwise monotony
    # read the same transitivity and first-argument monotony reports; +
    # and × of free:3 are commutative, so no second-argument law runs.
    # Transitivity and monotony of + follow from the semilattice laws of
    # + under the canonical order, so only monotony of × runs.
    transitivity = count_calls("_transitivity", order_module)
    at_generators = count_calls("_monotone_at_generators", order_module)
    assert main(["order", "--free-atoms", "3"]) == 0
    assert '"pairwise-monotony"' in capsys.readouterr().out
    assert transitivity == []
    assert [args[2] for args in at_generators] == [MUL]
