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
cases.  Every structural fact used here (equivalence, congruence, the
embedding p ↦ (p, ⊤)) is verified at construction time, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import eq, getitem, itemgetter
from typing import Iterable

from .algebra import (MAX_DENSE_CARRIER, Algebra, AlgebraError, DomainError,
                      Element, SizeLimitError, TableAlgebra, TableLoadError,
                      _check_identity_laws)
from .morphisms import Morphism, check_morphism
from .order import (OrderRelation, check_poset, _check_relation, _reflexivity,
                    _transitivity)
from .properties import (PropertyReport, _commutativity, _names, _packed,
                         _scan_rows, additively_cancellable_elements)


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


def _validate_subtrahends(algebra: Algebra,
                          members: tuple[int, ...]) -> SubtrahendIdeal:
    ideal_report = is_ideal(algebra, members)
    if not ideal_report.holds:
        raise DomainError(
            f"subtrahends are not an ideal: {ideal_report.details['condition']} "
            f"fails at witness {ideal_report.witness}")
    cancellable = {e.index for e in additively_cancellable_elements(algebra)}
    for m in members:
        if m not in cancellable:
            raise DomainError(
                f"subtrahend {algebra.name_of(m)} is not additively cancellable")
    c = algebra.compiled
    is_top, member_row = c.indicator((algebra.top_index,)), c.row(members)
    opposites = []
    for m in members:  # the first member b with m + b = ⊤
        k = c.compose(is_top, c.compose(c.add[m], member_row)).find(1)
        if k < 0:
            raise DomainError(
                f"subtrahend {algebra.name_of(m)} has no opposite in the ideal")
        opposites.append(members[k])
    return SubtrahendIdeal(algebra=algebra, members=members,
                           opposites=tuple(opposites))


def subtrahend_ideal(algebra: Algebra,
                     members: Iterable | None = None) -> SubtrahendIdeal:
    """The largest usable subtrahend ideal, or a validated explicit one.

    Starts from the additively cancellable elements that have opposites
    and shrinks to the largest subset that is still an ideal with
    opposites inside it (⊤ is kept throughout).  The result can be just
    {⊤}, which is what every Boolean carrier yields.
    """
    if members is not None:
        return _validate_subtrahends(algebra, _member_indices(algebra, members))

    top = algebra.top_index
    c = algebra.compiled
    compose, is_top = c.compose, c.indicator((top,))

    def keeps(i: int, inside: bytes, member_row) -> bool:
        """i has an opposite in the set, its sums with the set stay inside
        and its products with anything do too."""
        sums = compose(c.add[i], member_row)
        return (1 in compose(is_top, sums) and 0 not in compose(inside, sums)
                and 0 not in compose(inside, c.mul[i])
                and 0 not in compose(inside, c.mul_t[i]))

    current = {e.index for e in additively_cancellable_elements(algebra)}
    current.add(top)
    while True:
        inside, member_row = c.indicator(current), c.row(sorted(current))
        drop = {i for i in current if i != top
                and not keeps(i, inside, member_row)}
        if not drop:
            return _validate_subtrahends(algebra, tuple(sorted(current)))
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

    def to_table_dict(self) -> dict:
        doc = self.algebra.to_table_dict()
        doc["provenance"] = {
            "parent": self.parent.name,
            "subtrahends": self.subtrahends.element_names(),
        }
        return doc


def difference_semiring(algebra: Algebra,
                        subtrahends: SubtrahendIdeal | None = None
                        ) -> DifferenceSemiring:
    """Build the difference semiring over the given (or computed) ⊖.

    The relation is verified to be an equivalence and a congruence for
    both operations before the quotient tables are built; violations
    raise CongruenceError with a witness, though they cannot occur once
    the subtrahends validate as cancellable.
    """
    if subtrahends is None:
        subtrahends = subtrahend_ideal(algebra)
    if subtrahends.algebra is not algebra:
        raise DomainError("subtrahend ideal belongs to a different algebra")

    c = algebra.compiled
    compose, add, mul = c.compose, c.add, c.mul
    pairs = [(p, a) for p in range(algebra.size) for a in subtrahends.members]
    if len(pairs) > MAX_DENSE_CARRIER:  # the relation is held as dense rows
        raise SizeLimitError(f"{len(pairs)} differences exceed {MAX_DENSE_CARRIER}")
    index = {x: i for i, x in enumerate(pairs)}
    firsts, seconds = c.row(p for p, _ in pairs), c.row(a for _, a in pairs)
    # related[x][y] is 1 iff x ~ y, that is iff p + β = q + α for
    # x = (p, α) and y = (q, β)
    related = [bytes(map(eq, compose(add[p], seconds),
                         compose(c.add_t[a], firsts))) for p, a in pairs]

    def pair_name(i: int) -> str:
        p, a = pairs[i]
        return f"{algebra.name_of(p)}-{algebra.name_of(a)}"

    # reflexivity and symmetry are built into the defining equation, but
    # verify all three properties anyway; transitivity is the real one.
    for report, where in (
            (_reflexivity(pairs.__getitem__, related), "reflexive at {}"),
            (_commutativity("symmetry", pairs.__getitem__, related, [
                bytes(map(itemgetter(y), related)) for y in range(len(pairs))]),
             "symmetric at {}, {}"),
            (_transitivity("transitivity", pair_name, related,
                           list(map(_packed, related))),
             "transitive at {}, {}, {}")):
        if not report.holds:
            raise CongruenceError("relation not " + where.format(*report.witness))
    equivalence = PropertyReport("difference-relation-equivalence", True, None,
                                 len(pairs) ** 3)

    label = [-1] * len(pairs)
    classes: list[list[int]] = []  # pair indices in scan order
    for x, row in enumerate(related):
        if label[x] < 0:
            block = list(compress(range(len(pairs)), row))
            for y in block:
                label[y] = len(classes)
            classes.append(block)

    # sums[x][y] and products[x][y]: the classes of x ⊕ y and x ⊗ y
    sums = [tuple(label[index[add[p][q], add[a][b]]] for q, b in pairs)
            for p, a in pairs]
    products = [tuple(label[index[add[mul[p][q]][mul[a][b]],
                                  add[mul[p][b]][mul[a][q]]]] for q, b in pairs)
                for p, a in pairs]
    # x ~ x2 and y ~ y2 force [x ∘ y] = [x2 ∘ y2]: one case per (x, x2),
    # one position per (y, y2)
    related_pairs = [(y, y2) for block in classes for y in block for y2 in block]
    ys, y2s = zip(*related_pairs)
    plus, times = {"operation": "⊕"}, {"operation": "⊗"}
    congruence = _scan_rows("difference-congruence", lambda v: v, (
        ((x, x2), related_pairs, (
            (compose(sums[x], ys), compose(sums[x2], y2s), plus),
            (compose(products[x], ys), compose(products[x2], y2s), times)))
        for block in classes for x in block for x2 in block))
    if not congruence.holds:
        x, x2, (y, y2) = congruence.witness
        raise CongruenceError("{} not well defined at {} ~ {}, {} ~ {}".format(
            congruence.details["operation"], *map(pair_name, (x, x2, y, y2))))

    reps = [block[0] for block in classes]
    names = []
    seen_names = set()
    for n, rep in enumerate(reps):
        name = pair_name(rep)
        if name in seen_names:
            name = f"{name}#{n}"
        seen_names.add(name)
        names.append(name)
    if len(seen_names) < len(names):  # a renamed class met an earlier name
        raise TableLoadError("'elements' must be distinct")

    # the quotient's tables over the representatives, in class labels
    top = algebra.top_index
    zero, one = label[index[(top, top)]], label[index[(algebra.bot_index, top)]]
    add_rows = tuple(compose(sums[x], reps) for x in reps)
    mul_rows = tuple(compose(products[x], reps) for x in reps)
    _check_identity_laws(tuple(names), add_rows, mul_rows, zero, one)
    quotient = TableAlgebra(name=f"diff({algebra.name})", names=tuple(names),
                            add_rows=add_rows, mul_rows=mul_rows,
                            top_index=zero, bot_index=one,
                            source_spec=f"diff({algebra.source_spec})")

    embedding = Morphism(algebra, quotient,
                         tuple(label[index[(p, top)]] for p in range(algebra.size)))
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


def _shifted(algebra: Algebra, order: OrderRelation, members: tuple[int, ...]):
    """Per p, the rows for q = 0, 1, ... over ξ among the members whose
    byte ξ is 1 iff p + ξ ≼ q + ξ."""
    c = algebra.compiled
    up, member_row = order.rows, c.row(members)
    shifts = [c.compose(row, member_row) for row in c.add]  # p + ξ over ξ
    for shift_p in shifts:
        up_of_shift = [up[x] for x in shift_p]
        yield [bytes(map(getitem, up_of_shift, shift_q)) for shift_q in shifts]


def _translation_invariance(prop: str, algebra: Algebra, order: OrderRelation,
                            members: tuple[int, ...]) -> PropertyReport:
    """p ≼ q exactly when p + ξ ≼ q + ξ, for every ξ among the members."""
    kept, gained = ({"direction": "p ≼ q but not shifted"},
                    {"direction": "shifted but not p ≼ q"})
    always, never = b"\1" * len(members), bytes(len(members))
    return _scan_rows(prop, algebra.name_of, (
        ((p, q), members, ((shifted, always, kept) if up_p[q]
                           else (shifted, never, gained),))
        for p, (up_p, row) in enumerate(zip(order.rows,
                                            _shifted(algebra, order, members)))
        for q, shifted in enumerate(row)))


def extended_order(algebra: Algebra, base: OrderRelation,
                   subtrahends: SubtrahendIdeal,
                   universal: bool = False) -> ExtendedOrderResult:
    """Extend ≼ through the subtrahends and check its behaviour.

    The defining quantifier is existential (some Δ ∈ ⊖ witnesses
    p + Δ ≼ q + Δ); pass ``universal=True`` for the all-Δ reading.
    """
    _check_relation(base, algebra)
    if subtrahends.algebra is not algebra:
        raise DomainError("subtrahend ideal belongs to a different algebra")
    members = subtrahends.members
    quantifier = all if universal else any
    relation = OrderRelation(algebra=algebra, rows=tuple(
        bytes(map(quantifier, row)) for row in _shifted(algebra, base, members)))

    poset_reports = check_poset(relation)
    stability = _translation_invariance("translation-invariance", algebra,
                                        relation, members)
    base_stability = _translation_invariance("base-translation-invariance",
                                             algebra, base, members)
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
        for a, hits in enumerate(_packed(c.compose(units[v], row)) for v in row)))


def difference_cancellation_criterion(algebra: Algebra,
                                      subtrahends: SubtrahendIdeal
                                      ) -> PropertyReport:
    """Δ ≠ c and a ≠ b force c×a + Δ×b ≠ c×b + Δ×a, over all a,b,c,Δ∈⊖."""
    if subtrahends.algebra is not algebra:
        raise DomainError("subtrahend ideal belongs to a different algebra")
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


def verify_difference_cancellation(algebra: Algebra,
                                   subtrahends: SubtrahendIdeal | None = None
                                   ) -> DifferenceCancellationReport:
    """Test the cancellation biconditional on a concrete instance."""
    if subtrahends is None:
        subtrahends = subtrahend_ideal(algebra)
    diff = difference_semiring(algebra, subtrahends)
    return DifferenceCancellationReport(
        hypothesis=mult_left_cancellative(algebra),
        quotient_cancellative=mult_left_cancellative(diff.algebra),
        criterion=difference_cancellation_criterion(algebra, subtrahends),
        difference=diff,
    )
