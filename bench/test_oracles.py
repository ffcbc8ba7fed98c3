"""Self-tests of the benchmark's reference: each closed form or shortcut
in oracles.py against plain brute force on tiny inputs.

Run with:  python3 -m pytest -q bench/test_oracles.py
"""

import itertools
import random

import oracles as ref
import workloads


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


def _is_hom(src, dst, psi):
    return (psi[src.zero] == dst.zero and psi[src.one] == dst.one
            and all(psi[src.add(a, b)] == dst.add(psi[a], psi[b])
                    and psi[src.mul(a, b)] == dst.mul(psi[a], psi[b])
                    for a in src.values for b in src.values))


def _all_homs(src, dst):
    return {psi for psi in itertools.product(dst.values, repeat=src.size)
            if _is_hom(src, dst, psi)}


def test_boolean_theory_matches_brute_force():
    for c in [ref.boolean_table(k) for k in range(4)] + \
             [ref.FreeCarrier(n) for n in range(3)]:
        brute = {law: hit is None for law, hit in ref.first_violations(c).items()}
        assert brute == ref.boolean_theory(c), c.name


def test_first_violation_is_first_in_carrier_order():
    c = ref.zmod(3)
    c.order = [2, 0, 1]
    checked, witness = ref.first_violations(c)["zerosumfree"]
    pairs = list(itertools.product(c.order, repeat=2))
    assert pairs.index(witness) + 1 == checked
    assert all(c.add(p, q) != 0 or p == q == 0 for p, q in pairs[:checked - 1])
    assert ref.violates(c, "zerosumfree", witness)


def test_free_carrier_names():
    c = ref.FreeCarrier(2)
    a, b = c.value_of("a"), c.value_of("b")
    assert c.name_of(c.mul(a, b)) == "1110"          # a ∨ b
    assert c.name_of(c.add(a, b)) == "1000"          # a ∧ b
    assert c.value_of("!a") == c.comp(a) and c.value_of("⊤") == c.zero
    assert all(c.value_of(c.name_of(v)) == v for v in c.values)


def test_truth_bits_rows():
    f = ("implies", ("atom", "a"), ("iff", ("atom", "b"), ("not", ("atom", "a"))))
    assert ref.truth_bits(f, ["a", "b"]) == "0111"
    assert ref.truth_bits(("or", ("atom", "p"), ("not", ("atom", "p"))), ["p"]) == "11"
    assert ref.truth_bits(("const", 0), []) == "0"


def test_cancellative_exactly_when_prime():
    for n in range(2, 13):
        brute = all(not (x * a % n == x * b % n and a != b)
                    for x in range(1, n) for a in range(n) for b in range(n))
        assert ref.mult_left_cancellative(ref.zmod(n)) == brute == _is_prime(n)


def test_subtrahends_form_an_ideal_with_opposites():
    carriers = [ref.zmod(n) for n in range(2, 10)] + \
        [ref.product(m, k) for m, k in workloads.DIFF_PRODUCTS + ((2, 1), (3, 1))] + \
        [ref.boolean_table(k) for k in range(5)]
    for c in carriers:
        subs = ref.subtrahends(c)
        assert c.zero in subs
        assert all(c.add(a, b) in subs for a in subs for b in subs), c.name
        assert all(c.mul(p, a) in subs and c.mul(a, p) in subs
                   for p in c.values for a in subs), c.name
        assert all(any(c.add(a, b) == c.zero for b in subs) for a in subs), c.name


def test_difference_classes_number_the_carrier():
    for c in [ref.zmod(n) for n in range(2, 7)] + [ref.product(2, 2), ref.product(3, 1),
                                                    ref.boolean_table(2)]:
        subs = ref.subtrahends(c)
        pairs = [(p, a) for p in c.values for a in subs]
        classes = {frozenset(y for y in pairs if c.add(x[0], y[1]) == c.add(y[0], x[1]))
                   for x in pairs}
        assert len(classes) == c.size, c.name
        embedded = {next(k for k in classes if (p, c.zero) in k) for p in c.values}
        assert len(embedded) == c.size


def test_criterion_by_hand():
    assert ref.cancellation_criterion(ref.zmod(5), ref.subtrahends(ref.zmod(5)))
    # in ℤ4: c=2, Δ=0, a=0, b=2 gives 2·0 + 0·2 = 0 = 2·2 + 0·0
    assert not ref.cancellation_criterion(ref.zmod(4), ref.subtrahends(ref.zmod(4)))


def test_boolean_homs_match_brute_force():
    for k, j in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3)):
        src, dst = ref.boolean_table(k), ref.boolean_table(j)
        homs = ref.boolean_homs(k, j)
        assert homs == _all_homs(src, dst)
        assert len(homs) == k ** j
        onto_not_bijective = sum(set(p) == set(dst.values) and len(set(p)) < src.size
                                 for p in homs)
        assert onto_not_bijective == ref.onto_not_bijective_homs(k, j)


def test_expected_homs_of_tables_match_brute_force():
    for a, b in ((2, 2), (4, 2), (3, 2), (4, 3), (6, 3), (5, 4)):
        src, dst = ref.zmod(a), ref.zmod(b)
        assert workloads.expected_homs(src, dst) == _all_homs(src, dst), (a, b)
    for k, n in ((1, 2), (2, 3), (2, 5)):
        src, dst = ref.boolean_table(k), ref.zmod(n)
        assert workloads.expected_homs(src, dst) == _all_homs(src, dst) == set()


def test_monotone_on_covers_matches_all_pairs():
    src = ref.boolean_table(2)
    rng = random.Random(5)
    maps = list(itertools.product(range(4), repeat=4)) + \
        [tuple(rng.randrange(8) for _ in range(4)) for _ in range(50)]
    for psi in maps:
        dst = ref.boolean_table(3 if max(psi) > 3 else 2)
        brute = all(dst.leq(psi[p], psi[q]) for p in src.values for q in src.values
                    if src.leq(p, q))
        assert ref.monotone_on_masks(2, psi) == brute


def test_closure_matches_naive_fixpoint():
    rng = random.Random(3)
    for c in (ref.boolean_table(3), ref.FreeCarrier(2)):
        for _ in range(20):
            gens = rng.sample(c.values, rng.randint(1, 3))
            for bpa in (False, True):
                members = {c.zero, c.one, *gens}
                while True:
                    grown = members | {op(x, y) for x in members for y in members
                                       for op in (c.add, c.mul)}
                    if bpa:
                        grown |= {c.comp(x) for x in grown}
                    if grown == members:
                        break
                    members = grown
                assert ref.closure(c, gens, bpa) == members


def test_changed_evaluation_maps_are_not_homomorphisms(tmp_path):
    inputs = workloads.Inputs(tmp_path, random.Random(0))
    for n in (1, 2):
        src, dst = inputs.free(n), inputs.free(0)
        for row in range(src.points):
            psi = ref.preimage_map(src.points, (row,))
            assert _is_hom(src, dst, psi)
            for v in src.values:
                broken = list(psi)
                broken[v] = 1 - psi[v]
                assert not _is_hom(src, dst, broken)


def test_workloads_build_for_several_seeds(tmp_path):
    for name in workloads.WORKLOADS:
        if name == "laws-large":
            continue
        kinds = None
        for seed in (1, 2):
            load = workloads.build(name, seed, tmp_path / f"{name}{seed}")
            got = sorted(job.kind for job in load.jobs)
            assert kinds is None or got == kinds, "job kinds must not depend on the seed"
            kinds = got
