"""Formal differences: ideals of subtrahends, quotient difference
semirings, extended orders and the cancellation criterion.

A subtrahend ideal ⊖ collects additively cancellable elements that have
additive opposites (α + ¬α = ⊤) and is closed as an ideal.  Pairs
(p, α) with α ∈ ⊖ represent formal differences; (p, α) ~ (q, β) iff
p + β = q + α, and the quotient carries

    (p, α) ⊕ (q, β) = (p + q, α + β)
    (p, α) ⊗ (q, β) = (p×q + α×β, p×β + α×q)

For Boolean carriers only ⊤ is cancellable, so ⊖ = {⊤} and the quotient
is a copy of the carrier; modular tables ℤn provide the interesting
cases.  ~ is reflexive and symmetric by its defining equation, which
reads the same from either pair.  Every construction verifies that ⊖ is
an ideal, checks the premises of the labels below, and verifies that
the embedding p ↦ (p, ⊤) is an injective semiring homomorphism.

The quotient is the base where each subtrahend α is central and undone
by its recorded opposite α′, α + p = p + α and (p + α′) + α = p for
every p, and where ⊖ = {⊤} or + is associative and × distributes over
+.  These checked premises make the label l(p, α) = p + α′ a
homomorphism of the pairs onto the carrier whose kernel is ~, so
transitivity and the congruence follow, unscanned, and the label names
each class by an element of the carrier with no N-by-N structure.

Where a premise fails, the relation is built as dense rows, its
transitivity is still scanned, and the quotient's tables are built at
the heads of the classes, their least pairs; each pair is compared with
them, as an equivalence is a congruence iff the operations on classes
are well defined.  That takes O(N²) label comparisons over N pairs where
the definition has (Σ block²)² positions, n⁶ on ℤn.  Where a comparison
fails, the definition's scan names the first witness.  Pair (p, α) is
coded p·|⊖| + position(α), and ⊖ must be an ideal, so those tables are
built from the + table by row operations in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, eq
from typing import Iterable

from .algebra import (ADD, MAX_DENSE_CARRIER, Algebra, AlgebraError,
                      DomainError, Element, SizeLimitError, TableAlgebra,
                      TableLoadError, UnsupportedOperationError,
                      _check_identity_laws, _from_bytes, row_type)
from .morphisms import Morphism, check_morphism, is_isomorphism
from .order import OrderRelation, check_poset, _transitivity
from .properties import (PropertyReport, _associative, _associativity,
                         _commutativity, _distributivity, _names, _scan_rows,
                         additively_cancellable_elements)


class CongruenceError(AlgebraError):
    """The difference relation failed to be an equivalence or congruence."""


def _member_indices(algebra: Algebra, members: Iterable) -> tuple[int, ...]:
    out = set()
    for m in members:
        if isinstance(m, Element):
            out.add(algebra._member(m))
        elif isinstance(m, int):
            if not 0 <= m < algebra.size:
                raise DomainError(f"index {m} outside the carrier of {algebra.name}")
            out.add(m)
        else:
            out.add(algebra.index_of(m))
    return tuple(sorted(out))


def is_ideal(algebra: Algebra, members: Iterable) -> PropertyReport:
    """⊤ present, closed under +, absorbing under × from both sides."""
    indices = _member_indices(algebra, members)
    if algebra.top_index not in indices:
        return PropertyReport("ideal", False, _names(algebra, algebra.top_index),
                              1, details={"condition": "⊤ ∈ I"})
    c = algebra.compiled
    is_member, member_row = c.indicator(indices), c.row(indices)
    holds = b"\1" * len(indices)
    closed, absorbing = ({"condition": "closed under +"},
                         {"condition": "absorbing under ×"})

    def inside(row):  # byte j is 1 iff row[j] lies in I, over j in I
        return c.compose(is_member, c.compose(row, member_row))

    return _scan_rows("ideal", algebra.name_of, chain(
        (((i,), indices, ((inside(c.add[i]), holds, closed),)) for i in indices),
        (((p,), indices, ((inside(mp), holds, absorbing),
                          (inside(cp), holds, absorbing)))
         for p, (mp, cp) in enumerate(zip(c.mul, c.mul_t)))))


@dataclass(frozen=True)
class SubtrahendIdeal:
    """An ideal of additively cancellable elements with opposites in it."""

    algebra: Algebra
    members: tuple[int, ...]
    opposites: tuple[int, ...]  # parallel to members

    @property
    def size(self) -> int:
        return len(self.members)

    def opposite_of(self, index: int) -> int:
        return self.opposites[self.members.index(index)]

    def element_names(self) -> list[str]:
        return [self.algebra.name_of(i) for i in self.members]


def _require_ideal(algebra: Algebra, members: Iterable) -> None:
    """Raise DomainError naming the first condition of :func:`is_ideal`
    that ``members`` fail."""
    ideal_report = is_ideal(algebra, members)
    if not ideal_report.holds:
        raise DomainError(
            f"subtrahends are not an ideal: {ideal_report.details['condition']} "
            f"fails at witness {ideal_report.witness}")


def _validate_subtrahends(algebra: Algebra, members: tuple[int, ...],
                          cancellable: set[int]) -> SubtrahendIdeal:
    _require_ideal(algebra, members)
    for m in members:
        if m not in cancellable:
            raise DomainError(
                f"subtrahend {algebra.name_of(m)} is not additively cancellable")
    c = algebra.compiled
    is_top, member_row = c.indicator((algebra.top_index,)), c.row(members)
    # Each member's opposite exists: its + row is injective and maps the
    # ideal, which is closed under +, into itself, so it permutes the
    # ideal and reaches ⊤ there.  Take the first member b with m + b = ⊤.
    opposites = tuple(
        members[c.compose(is_top, c.compose(c.add[m], member_row)).find(1)]
        for m in members)
    return SubtrahendIdeal(algebra=algebra, members=members,
                           opposites=opposites)


def subtrahend_ideal(algebra: Algebra,
                     members: Iterable | None = None) -> SubtrahendIdeal:
    """The largest usable subtrahend ideal, or a validated explicit one.

    Starts from the additively cancellable elements that have opposites
    and shrinks to the largest subset that is still an ideal with
    opposites inside it (⊤ is kept throughout).  The result can be just
    {⊤}, which is what every Boolean carrier yields.  Shrinking finds that
    subset only when + is commutative and associative, so without
    ``members`` any other + is refused with the first violation.
    """
    indices = None if members is None else _member_indices(algebra, members)
    cancellable = {e.index for e in additively_cancellable_elements(algebra)}
    if indices is not None:
        return _validate_subtrahends(algebra, indices, cancellable)

    top = algebra.top_index
    c = algebra.compiled
    for law, report in (
            ("commutative", _commutativity("add-commutativity",
                                           algebra.name_of, c.add, c.add_t)),
            ("associative", _associativity("add-associativity", algebra,
                                           ADD))):
        if not report.holds:
            raise UnsupportedOperationError(
                f"+ is not {law} at ({', '.join(report.witness)}); "
                f"name the subtrahends")
    compose, is_top = c.compose, c.indicator((top,))

    def keeps(i: int, inside: bytes, member_row) -> bool:
        """i has an opposite in the set, its sums with the set stay inside
        and its products with anything do too."""
        sums = compose(c.add[i], member_row)
        return (1 in compose(is_top, sums) and 0 not in compose(inside, sums)
                and 0 not in compose(inside, c.mul[i])
                and 0 not in compose(inside, c.mul_t[i]))

    current = cancellable | {top}
    while True:
        inside, member_row = c.indicator(current), c.row(sorted(current))
        drop = {i for i in current if i != top
                and not keeps(i, inside, member_row)}
        if not drop:
            return _validate_subtrahends(algebra, tuple(sorted(current)),
                                         cancellable)
        current -= drop


@dataclass
class DifferenceSemiring:
    """Quotient of formal differences, with its verified plumbing.

    ``classes`` lists the ~-classes as (carrier index, subtrahend index)
    pairs in scan order; ``algebra`` is the quotient as a plain table
    algebra; ``embedding`` is p ↦ class of (p, ⊤), verified injective
    and a semiring homomorphism.
    """

    parent: Algebra
    subtrahends: SubtrahendIdeal
    algebra: TableAlgebra
    classes: tuple[tuple[tuple[int, int], ...], ...]
    embedding: Morphism
    reports: dict[str, PropertyReport]

    def embedding_isomorphism(self) -> PropertyReport:
        """``is_isomorphism(embedding, "semiring")`` read off the embedding's
        report: the embedding is an injective homomorphism, so it is an
        isomorphism iff onto, and no map is checked again."""
        if not self.embedding.is_surjective():  # refused before any check
            return is_isomorphism(self.embedding, "semiring")
        return PropertyReport("semiring-isomorphism", True, None,
                              2 * self.reports["embedding"].checked)

    def to_table_dict(self) -> dict:
        doc = self.algebra.to_table_dict()
        doc["provenance"] = {
            "parent": self.parent.name,
            "subtrahends": self.subtrahends.element_names(),
        }
        return doc


def _labels(subtrahends: SubtrahendIdeal):
    """The row x ↦ p + α′ over the pairs x = (p, α), in pair order."""
    c = subtrahends.algebra.compiled
    opposites = c.row(subtrahends.opposites)
    return c.concat([c.compose(row, opposites) for row in c.add])


def _label_premises(subtrahends: SubtrahendIdeal) -> bool:
    """Whether the premises of the labels hold, the cheap ones first: each
    subtrahend α central (its + row is its column) and undone by its
    opposite, (p + α′) + α = p for every p; then ⊖ = {⊤}, or + associative
    and × distributive.  On ⊖ = {⊤} the loop still finds that ⊤′ is ⊤."""
    algebra, members = subtrahends.algebra, subtrahends.members
    c = algebra.compiled
    identity = c.row(range(c.n))
    return (all(c.add[a] == c.add_t[a]
                and c.compose(c.add_t[a], c.add_t[o]) == identity
                for a, o in zip(members, subtrahends.opposites))
            and (members == (algebra.top_index,)
                 or _associative(c, ADD) and _distributivity(algebra).holds))


def _blocks(label, count: int) -> list[list[int]]:
    """The pairs of each class, in pair order, from the row of class
    numbers ``label``."""
    blocks = [[] for _ in range(count)]
    for x, k in enumerate(label):
        blocks[k].append(x)
    return blocks


def difference_semiring(subtrahends: SubtrahendIdeal) -> DifferenceSemiring:
    """Build the difference semiring over ⊖ = ``subtrahends``.

    ⊖ must be an ideal (DomainError naming the condition that fails), so
    that every sum and product of pairs is a pair again.  The relation is
    reflexive and symmetric by its definition, and transitive and a
    congruence for both operations, proved from the premises below or
    verified before the quotient tables are built; violations raise
    CongruenceError with a witness.

    **The quotient is the base** where each α ∈ ⊖ is central and undone
    by its recorded opposite α′, α + p = p + α and (p + α′) + α = p for
    every p, and where ⊖ = {⊤} or + is associative and × distributes
    over + on both sides.  Checked first, these premises make the label
    l(p, α) = p + α′ a homomorphism of the pairs onto the carrier with
    kernel ~, so ~ is a congruence, transitive in particular (Burris &
    Sankappanavar, *A Course in Universal Algebra*, 1981, ch. II §6), and
    no scan runs; the two reports hold with their full counts.  With ⊤
    the identity of + and ⊖ an ideal, p = ⊤ gives α′ + α = ⊤ = α + α′:

    - *⊖ = {⊤} needs no more*: ⊤′ = ⊤, so l(p, ⊤) = p and ~ is equality,
      and the ideal makes ⊤ absorbing, so (p, ⊤) ⊗ (q, ⊤) = (p×q, ⊤).
    - *Opposites are unique, and central*: b′ + a = ⊤ = a + b gives
      b′ = b′ + (a + b) = (b′ + a) + b = b, and
      α′ + p = α′ + p + α + α′ = α′ + α + p + α′ = p + α′.  So ⊖ is
      abelian, the recorded opposite of α + β is α′ + β′, and α′ moves
      past q in l(x ⊕ y) = p + α′ + q + β′ = l(x) + l(y).
    - *p × ⊤ = ⊤ = ⊤ × p*: z = p × ⊤ lies in ⊖, which absorbs ×, and
      distributivity gives z = z + z; adding z′ gives z = ⊤.  So
      (p×β)′ = p×β′ and (α×q)′ = α′×q, and α×β = α′×β′, as both are
      opposites of α′×β.  Then for x = (p, α) and y = (q, β), all terms
      but p×q central, l(x ⊗ y) = p×q + α×β + p×β′ + α′×q =
      (p + α′) × (q + β′) = l(x) × l(y).
    - *~ is the kernel of l*: p + β = q + α iff p + α′ = q + β′ (add
      α′ + β′ to go one way, α + β to go back).  l(q, ⊤) = q, so each
      class holds exactly one pair (q, ⊤) and l names it by q.
    - *The quotient's tables* are the base's + and × read through the
      class numbers, which follow the heads, the least pairs of the
      classes.  No N-by-N structure is held, so the only limit is that
      of the base's compiled tables, n classes.

    Where a premise fails, the relation is built as dense rows, which
    refuses more than MAX_DENSE_CARRIER pairs.  Its transitivity is
    scanned, and the quotient's tables are built at the heads and each
    pair is compared with them.  An equivalence is a congruence iff the
    operation on classes is well defined: iff
    [x∘y] = [h(x)∘h(y)] for all x and y, h(x) being the head of x's
    class, since x ~ x2 and y ~ y2 then give [x∘y] = [h(x)∘h(y)] =
    [x2∘y2].  So row x of the class tables [x ⊕ y] and [x ⊗ y] must be
    the quotient's row of [x] read at [y]: one composed row per class, N
    row comparisons per operation over N pairs.  A congruence that holds
    reports ``checked`` as the definition's scan would, (Σ block²)²
    positions.  Where a comparison fails, x ~ h(x) and y ~ h(y) are a
    witness, and the scan over related pairs names the first.
    """
    algebra, members = subtrahends.algebra, subtrahends.members
    _require_ideal(algebra, members)

    c = algebra.compiled
    n, width = c.n, len(members)
    pairs = [(p, a) for p in range(n) for a in members]

    def pair_name(i: int) -> str:
        p, a = pairs[i]
        return f"{algebra.name_of(p)}-{algebra.name_of(a)}"

    if _label_premises(subtrahends):
        reps, label, classes, add_rows, mul_rows = _by_labels(
            c, _labels(subtrahends))
    else:
        reps, label, classes, add_rows, mul_rows = _by_relation(
            subtrahends, pairs, pair_name)
    equivalence = PropertyReport("difference-relation-equivalence", True, None,
                                 len(pairs) ** 3)
    congruence = PropertyReport("difference-congruence", True, None,
                                sum(len(block) ** 2 for block in classes) ** 2)

    names = []
    seen_names = set()
    for k, rep in enumerate(reps):
        name = pair_name(rep)
        if name in seen_names:
            name = f"{name}#{k}"
        seen_names.add(name)
        names.append(name)
    if len(seen_names) < len(names):  # a renamed class met an earlier name
        raise TableLoadError("'elements' must be distinct")

    # p ↦ class of (p, ⊤) reads every width-th label from (0, ⊤) on
    embedded = tuple(label[members.index(algebra.top_index)::width])
    zero, one = embedded[algebra.top_index], embedded[algebra.bot_index]
    _check_identity_laws(tuple(names), add_rows, mul_rows, zero, one)
    quotient = TableAlgebra(name=f"diff({algebra.name})", names=tuple(names),
                            add_rows=tuple(map(tuple, add_rows)),
                            mul_rows=tuple(map(tuple, mul_rows)),
                            top_index=zero, bot_index=one,
                            source_spec=f"diff({algebra.source_spec})")

    embedding = Morphism(algebra, quotient, embedded)
    emb_report = check_morphism(embedding, "semiring")
    if not emb_report.holds or not embedding.is_injective():
        raise CongruenceError("embedding p ↦ (p, ⊤) failed verification")
    emb_report.property = "difference-embedding"
    emb_report.details = {"injective": True}

    return DifferenceSemiring(
        parent=algebra,
        subtrahends=subtrahends,
        algebra=quotient,
        classes=tuple(tuple(map(pairs.__getitem__, block)) for block in classes),
        embedding=embedding,
        reports={"equivalence": equivalence, "congruence": congruence,
                 "embedding": emb_report},
    )


def _by_labels(c, labels):
    """The heads, class numbers, classes and quotient rows of
    :func:`difference_semiring` from ``labels``, the element of the
    carrier that names each pair's class: the quotient's tables are the
    carrier's, ``c``, read through the class numbers."""
    # the least pair of each label, read backwards so the first wins
    heads = dict(zip(reversed(labels), range(len(labels) - 1, -1, -1)))
    reps = sorted(heads.values())
    order = c.row(map(labels.__getitem__, reps))
    rank = [0] * c.n
    for k, v in enumerate(order):
        rank[v] = k
    rank = c.row(rank)
    label = c.compose(rank, labels)
    add_rows, mul_rows = ([c.compose(rank, c.compose(rows[v], order))
                           for v in order] for rows in (c.add, c.mul))
    return reps, label, _blocks(label, len(reps)), add_rows, mul_rows


def _by_relation(subtrahends: SubtrahendIdeal, pairs: list, pair_name):
    """The heads, class numbers, classes and quotient rows of
    :func:`difference_semiring` from the relation held as dense rows;
    CongruenceError names the first witness of a relation that is not
    transitive or not a congruence."""
    algebra, members = subtrahends.algebra, subtrahends.members
    c = algebra.compiled
    compose, n, width = c.compose, c.n, len(members)
    if len(pairs) > MAX_DENSE_CARRIER:  # the relation is held as dense rows
        raise SizeLimitError(f"{len(pairs)} differences exceed {MAX_DENSE_CARRIER}")
    firsts, seconds = c.row(p for p, _ in pairs), c.row(a for _, a in pairs)
    # related[x][y] is 1 iff x ~ y, that is iff p + β = q + α for
    # x = (p, α) and y = (q, β); read from y it is the same equation, so
    # ~ is reflexive and symmetric, and only transitivity is verified
    related = [c.equal(compose(c.add[p], seconds), compose(c.add_t[a], firsts))
               for p, a in pairs]

    transitivity = _transitivity("transitivity", pair_name, related,
                                 list(map(_from_bytes, related)))
    if not transitivity.holds:
        raise CongruenceError("relation not transitive at {}, {}, {}".format(
            *transitivity.witness))

    # ~ is an equivalence, so row x is the indicator of x's class, whose
    # head, its least member, is the first 1 of the row
    heads = [row.find(1) for row in related]
    reps = sorted(set(heads))
    number = dict(zip(reps, range(len(reps))))
    label = row_type(len(reps))(map(number.__getitem__, heads))
    classes = _blocks(label, len(reps))

    # Pair (u, v) sits at code u·width + position(v).  Per cell
    # k = i·n + j of the + table, high[k] is the code of (i + j, ⊖[0])
    # and low[k] the position of i + j, so a pair's code is a high part
    # plus a low part; the ideal keeps every low part defined.
    position = [0] * n
    for k, a in enumerate(members):
        position[a] = k
    flat = c.concat(c.add)
    high = compose(tuple(range(0, n * width, width)), flat)
    low = compose(tuple(position), flat)

    def classes_of(highs, lows):
        """The row y ↦ label of the pair with code highs[y] + lows[y]."""
        return compose(label, tuple(map(add, highs, lows)))

    # sums[x][y] and products[x][y]: the classes of x ⊕ y and x ⊗ y, over
    # x = (p, α) and y = (q, β).  x ⊕ y reads the + cells p·n + q and
    # α·n + β; x ⊗ y reads (p×q)·n + α×β and (p×β)·n + α×q.
    sum_high = [compose(high[p * n:p * n + n], firsts) for p in range(n)]
    sum_low = {a: compose(low[a * n:a * n + n], seconds) for a in members}
    sums = [classes_of(sum_high[p], sum_low[a]) for p, a in pairs]
    times_n = tuple(range(0, n * n, n))  # i ↦ i·n
    by_p = [(compose(row, firsts), compose(row, seconds))  # (p×q)·n, (p×β)·n
            for row in (compose(times_n, mul_p) for mul_p in c.mul)]
    by_a = {a: (compose(c.mul[a], seconds), compose(c.mul[a], firsts))
            for a in members}  # α×β, α×q
    products = []
    for p, a in pairs:
        (pq, pb), (ab, aq) = by_p[p], by_a[a]
        products.append(classes_of(compose(high, tuple(map(add, pq, ab))),
                                   compose(low, tuple(map(add, pb, aq)))))

    # the quotient's tables at the heads, in class labels
    add_rows = [compose(sums[x], reps) for x in reps]
    mul_rows = [compose(products[x], reps) for x in reps]

    def well_defined(table: list, rows: list) -> bool:
        """[x ∘ y] is [x] ∘ [y] in the quotient: one composed row per class."""
        expected = [compose(row, label) for row in rows]
        return all(map(eq, table, map(expected.__getitem__, label)))

    if not (well_defined(sums, add_rows) and well_defined(products, mul_rows)):
        # x ~ x2 and y ~ y2 force [x ∘ y] = [x2 ∘ y2]: one case per
        # (x, x2), one position per (y, y2); the pairs (x, h(x)) and
        # (y, h(y)) of a failed comparison are among them
        related_pairs = [(y, y2) for block in classes for y in block
                         for y2 in block]
        ys, y2s = zip(*related_pairs)
        plus, times = {"operation": "⊕"}, {"operation": "⊗"}
        congruence = _scan_rows("difference-congruence", lambda v: v, (
            ((x, x2), related_pairs, (
                (compose(sums[x], ys), compose(sums[x2], y2s), plus),
                (compose(products[x], ys), compose(products[x2], y2s), times)))
            for block in classes for x in block for x2 in block))
        x, x2, y, y2 = congruence.witness
        raise CongruenceError("{} not well defined at {} ~ {}, {} ~ {}".format(
            congruence.details["operation"], *map(pair_name, (x, x2, y, y2))))
    return reps, label, classes, add_rows, mul_rows


@dataclass
class ExtendedOrderResult:
    """The order p ≼' q iff ∃Δ ∈ ⊖ with p + Δ ≼ q + Δ, plus its checks.

    ``poset`` reports whether ≼' survives as a poset (it can fail; the
    relation is still returned for inspection).  ``stability`` is the
    invariance of ≼' under adding a subtrahend to both sides;
    ``base_stability`` is the same condition on ≼ itself, and
    ``similarity_iff`` records whether (≼' = ≼) ⇔ base stability.
    """

    relation: OrderRelation
    universal: bool
    poset: list[PropertyReport]
    stability: PropertyReport
    matches_base: bool
    base_stability: PropertyReport
    order_used: str = "supplied"

    @property
    def similarity_iff(self) -> bool:
        return self.matches_base == self.base_stability.holds

    def to_json(self) -> dict:
        return {
            "universal": self.universal,
            "poset": [r.to_json() for r in self.poset],
            "stability": self.stability.to_json(),
            "matches_base": self.matches_base,
            "base_stability": self.base_stability.to_json(),
            "similarity_iff": self.similarity_iff,
            "order_used": self.order_used,
        }


def _shifted(order: OrderRelation, members: tuple[int, ...]):
    """Per p, one 0/1 row over (ξ, q) for ξ among the members and q in
    the carrier: byte k·n + q is 1 iff p + ξ ≼ q + ξ, where ξ = members[k]."""
    c = order.algebra.compiled
    return [b"".join(c.compose(order.rows[add_p[x]], c.add_t[x])
                     for x in members) for add_p in c.add]


def _translation_invariance(prop: str, order: OrderRelation,
                            members: tuple[int, ...],
                            shifted: list[bytes]) -> PropertyReport:
    """p ≼ q exactly when p + ξ ≼ q + ξ, for every ξ among the members;
    ``shifted`` holds the rows of :func:`_shifted` for ``order``.  A p
    holds when its row is up(p) once per member, one case of n·|members|
    tuples; the first p that fails runs the cases (p, q), which name the
    witness."""
    n, width = order.algebra.size, len(members)
    kept, gained = ({"direction": "p ≼ q but not shifted"},
                    {"direction": "shifted but not p ≼ q"})
    always, never = b"\1" * width, bytes(width)

    def cases():
        for p, (up_p, row) in enumerate(zip(order.rows, shifted)):
            if row == up_p * width:
                yield (p,), range(n * width), ()
                continue
            for q in range(n):
                yield (p, q), members, ((row[q::n], always, kept) if up_p[q]
                                        else (row[q::n], never, gained),)

    return _scan_rows(prop, order.algebra.name_of, cases())


def extended_order(base: OrderRelation, subtrahends: SubtrahendIdeal,
                   universal: bool = False) -> ExtendedOrderResult:
    """Extend ≼ through the subtrahends and check its behaviour.

    The defining quantifier is existential (some Δ ∈ ⊖ witnesses
    p + Δ ≼ q + Δ); pass ``universal=True`` for the all-Δ reading.
    """
    algebra = base.algebra
    if subtrahends.algebra is not algebra:
        raise DomainError("subtrahend ideal belongs to a different algebra")
    members, n = subtrahends.members, algebra.size
    quantifier = all if universal else any
    shifted = _shifted(base, members)
    relation = OrderRelation(algebra=algebra, rows=tuple(
        bytes(quantifier(row[q::n]) for q in range(n)) for row in shifted))
    base_stability = _translation_invariance("base-translation-invariance",
                                             base, members, shifted)
    del shifted  # at most one set of shifted rows is held at a time

    poset_reports = check_poset(relation)
    stability = _translation_invariance("translation-invariance", relation,
                                        members, _shifted(relation, members))
    return ExtendedOrderResult(
        relation=relation,
        universal=universal,
        poset=poset_reports,
        stability=stability,
        matches_base=relation.rows == base.rows,
        base_stability=base_stability,
    )


def mult_left_cancellative(algebra: Algebra) -> PropertyReport:
    """c × a = c × b forces a = b, for every c other than ⊤."""
    c = algebra.compiled
    carrier = range(c.n)
    top = algebra.top_index
    units = [c.indicator((v,)) for v in carrier]
    return _scan_rows("mul-left-cancellative", algebra.name_of, (
        ((k, a), carrier, ((hits, hits & 1 << 8 * a, None),))
        for k, row in enumerate(c.mul) if k != top
        # byte b of hits is 1 iff k × b = k × a
        for a, hits in enumerate(_from_bytes(c.compose(units[v], row)) for v in row)))


def difference_cancellation_criterion(subtrahends: SubtrahendIdeal
                                      ) -> PropertyReport:
    """Δ ≠ c and a ≠ b force c×a + Δ×b ≠ c×b + Δ×a, over all a,b,c,Δ∈⊖."""
    algebra = subtrahends.algebra
    c = algebra.compiled
    add, mul, compose = c.add, c.mul, c.compose
    carrier = range(c.n)
    # per k the subtrahends other than k; per such set and b, Δ ↦ Δ × b
    others = [tuple(d for d in subtrahends.members if d != k) for k in carrier]
    times = {ds: [compose(col, c.row(ds)) for col in c.mul_t]
             for ds in set(others)}
    return _scan_rows("difference-cancellation-criterion", algebra.name_of, (
        # byte Δ is 1 iff k×a + Δ×b = k×b + Δ×a
        ((a, b, k), ds, ((bytes(map(eq, compose(add[mul[k][a]], times[ds][b]),
                                    compose(add[mul[k][b]], times[ds][a]))),
                          bytes(len(ds)), None),))
        for a in carrier for b in carrier if a != b
        for k, ds in enumerate(others) if ds))


@dataclass
class DifferenceCancellationReport:
    """Left-cancellativity of the quotient against the pairwise criterion.

    The statement under test: the difference semiring is multiplicatively
    left-cancellative exactly when the criterion holds on the base.  Its
    hypothesis is that the base itself is left-cancellative; when that
    fails the verdict is out-of-hypothesis but both sides are still
    recorded.
    """

    hypothesis: PropertyReport
    quotient_cancellative: PropertyReport
    criterion: PropertyReport
    difference: DifferenceSemiring

    @property
    def hypothesis_met(self) -> bool:
        return self.hypothesis.holds

    @property
    def biconditional_holds(self) -> bool:
        return self.quotient_cancellative.holds == self.criterion.holds

    def to_json(self) -> dict:
        return {
            "hypothesis_met": self.hypothesis_met,
            "hypothesis": self.hypothesis.to_json(),
            "quotient_cancellative": self.quotient_cancellative.to_json(),
            "criterion": self.criterion.to_json(),
            "biconditional_holds": self.biconditional_holds,
        }


def verify_difference_cancellation(subtrahends: SubtrahendIdeal
                                   ) -> DifferenceCancellationReport:
    """Test the cancellation biconditional on a concrete instance."""
    diff = difference_semiring(subtrahends)
    return DifferenceCancellationReport(
        hypothesis=mult_left_cancellative(subtrahends.algebra),
        quotient_cancellative=mult_left_cancellative(diff.algebra),
        criterion=difference_cancellation_criterion(subtrahends),
        difference=diff,
    )
