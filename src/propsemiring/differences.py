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
from typing import Iterable

from .algebra import (Algebra, AlgebraError, DomainError, Element, TableAlgebra,
                      table_semiring)
from .morphisms import Morphism, check_morphism
from .order import OrderRelation, check_poset, _check_relation
from .properties import (PropertyReport, _names,
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
    member_set = set(indices)
    checked = 0
    if algebra.top_index not in member_set:
        return PropertyReport("ideal", False, _names(algebra, algebra.top_index),
                              1, details={"condition": "⊤ ∈ I"})
    for i in indices:
        for j in indices:
            checked += 1
            if algebra.add_i(i, j) not in member_set:
                return PropertyReport("ideal", False, _names(algebra, i, j),
                                      checked, details={"condition": "closed under +"})
    for p in range(algebra.size):
        for i in indices:
            checked += 1
            if (algebra.mul_i(p, i) not in member_set
                    or algebra.mul_i(i, p) not in member_set):
                return PropertyReport("ideal", False, _names(algebra, p, i),
                                      checked,
                                      details={"condition": "absorbing under ×"})
    return PropertyReport("ideal", True, None, checked)


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
    member_set = set(members)
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
    opposites = []
    for m in members:
        opp = next((b for b in members
                    if algebra.add_i(m, b) == algebra.top_index), None)
        if opp is None:
            raise DomainError(
                f"subtrahend {algebra.name_of(m)} has no opposite in the ideal")
        opposites.append(opp)
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
    add, mul = algebra.add_i, algebra.mul_i
    cancellable = {e.index for e in additively_cancellable_elements(algebra)}
    current = set(cancellable)
    current.add(top)
    changed = True
    while changed:
        changed = False
        drop = set()
        for i in current:
            if i == top:
                continue
            if not any(add(i, j) == top for j in current):
                drop.add(i)
                continue
            if any(add(i, j) not in current for j in current):
                drop.add(i)
                continue
            if any(mul(p, i) not in current or mul(i, p) not in current
                   for p in range(algebra.size)):
                drop.add(i)
        if drop:
            current -= drop
            changed = True
    return _validate_subtrahends(algebra, tuple(sorted(current)))


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


def _pair_name(algebra: Algebra, pair: tuple[int, int]) -> str:
    return f"{algebra.name_of(pair[0])}-{algebra.name_of(pair[1])}"


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

    add = algebra.add_i
    pairs = [(p, a) for p in range(algebra.size) for a in subtrahends.members]

    def related(x: tuple[int, int], y: tuple[int, int]) -> bool:
        return add(x[0], y[1]) == add(y[0], x[1])

    # reflexivity and symmetry are built into the defining equation, but
    # verify all three properties anyway; transitivity is the real one.
    for x in pairs:
        if not related(x, x):
            raise CongruenceError(f"relation not reflexive at {x}")
    for x in pairs:
        for y in pairs:
            if related(x, y) != related(y, x):
                raise CongruenceError(f"relation not symmetric at {x}, {y}")
    for x in pairs:
        for y in pairs:
            if not related(x, y):
                continue
            for z in pairs:
                if related(y, z) and not related(x, z):
                    raise CongruenceError(
                        f"relation not transitive at "
                        f"{_pair_name(algebra, x)}, {_pair_name(algebra, y)}, "
                        f"{_pair_name(algebra, z)}")
    equivalence = PropertyReport("difference-relation-equivalence", True, None,
                                 len(pairs) ** 3)

    class_of: dict[tuple[int, int], int] = {}
    classes: list[list[tuple[int, int]]] = []
    for x in pairs:
        if x in class_of:
            continue
        label = len(classes)
        block = [y for y in pairs if related(x, y)]
        for y in block:
            class_of[y] = label
        classes.append(block)

    def add_pair(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return (add(x[0], y[0]), add(x[1], y[1]))

    def mul_pair(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        p, alpha = x
        q, beta = y
        mul = algebra.mul_i
        return (add(mul(p, q), mul(alpha, beta)),
                add(mul(p, beta), mul(alpha, q)))

    checked = 0
    for block_x in classes:
        for x in block_x:
            for x2 in block_x:
                for block_y in classes:
                    for y in block_y:
                        for y2 in block_y:
                            checked += 1
                            if (class_of[add_pair(x, y)]
                                    != class_of[add_pair(x2, y2)]):
                                raise CongruenceError(
                                    f"⊕ not well defined at "
                                    f"{_pair_name(algebra, x)} ~ "
                                    f"{_pair_name(algebra, x2)}, "
                                    f"{_pair_name(algebra, y)} ~ "
                                    f"{_pair_name(algebra, y2)}")
                            if (class_of[mul_pair(x, y)]
                                    != class_of[mul_pair(x2, y2)]):
                                raise CongruenceError(
                                    f"⊗ not well defined at "
                                    f"{_pair_name(algebra, x)} ~ "
                                    f"{_pair_name(algebra, x2)}, "
                                    f"{_pair_name(algebra, y)} ~ "
                                    f"{_pair_name(algebra, y2)}")
    congruence = PropertyReport("difference-congruence", True, None, checked)

    reps = [block[0] for block in classes]
    names = []
    seen_names = set()
    for label, rep in enumerate(reps):
        name = _pair_name(algebra, rep)
        if name in seen_names:
            name = f"{name}#{label}"
        seen_names.add(name)
        names.append(name)

    top = algebra.top_index
    doc = {
        "name": f"diff({algebra.name})",
        "elements": names,
        "add": [[names[class_of[add_pair(x, y)]] for y in reps] for x in reps],
        "mul": [[names[class_of[mul_pair(x, y)]] for y in reps] for x in reps],
        "zero": names[class_of[(top, top)]],
        "one": names[class_of[(algebra.bot_index, top)]],
    }
    quotient = table_semiring(doc, source_spec=f"diff({algebra.source_spec})")

    embedding = Morphism(algebra, quotient,
                         tuple(class_of[(p, top)] for p in range(algebra.size)))
    emb_report = check_morphism(embedding, "semiring")
    if not emb_report.holds or not embedding.is_injective():
        raise CongruenceError("embedding p ↦ (p, ⊤) failed verification")
    emb_report.property = "difference-embedding"
    emb_report.details = {"injective": True}

    return DifferenceSemiring(
        parent=algebra,
        subtrahends=subtrahends,
        algebra=quotient,
        classes=tuple(tuple(block) for block in classes),
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


def _translation_invariance(prop: str, algebra: Algebra, leq, members) -> PropertyReport:
    add = algebra.add_i
    checked = 0
    for p in range(algebra.size):
        for q in range(algebra.size):
            base = leq(p, q)
            for xi in members:
                checked += 1
                shifted = leq(add(p, xi), add(q, xi))
                if base != shifted:
                    direction = "p ≼ q but not shifted" if base else \
                        "shifted but not p ≼ q"
                    return PropertyReport(prop, False, _names(algebra, p, q, xi),
                                          checked, details={"direction": direction})
    return PropertyReport(prop, True, None, checked)


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
    n = algebra.size
    add = algebra.add_i
    members = subtrahends.members
    quantifier = all if universal else any
    rows = []
    for p in range(n):
        value = 0
        for q in range(n):
            if quantifier(base.leq_i(add(p, d), add(q, d)) for d in members):
                value |= 1 << q
        rows.append(value)
    relation = OrderRelation(algebra=algebra, rows=tuple(rows))

    poset_reports = check_poset(relation)
    stability = _translation_invariance("translation-invariance", algebra,
                                        relation.leq_i, members)
    base_stability = _translation_invariance("base-translation-invariance",
                                             algebra, base.leq_i, members)
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
    n = algebra.size
    top = algebra.top_index
    mul = algebra.mul_i
    checked = 0
    for c in range(n):
        if c == top:
            continue
        for a in range(n):
            for b in range(n):
                checked += 1
                if a != b and mul(c, a) == mul(c, b):
                    return PropertyReport("mul-left-cancellative", False,
                                          _names(algebra, c, a, b), checked)
    return PropertyReport("mul-left-cancellative", True, None, checked)


def difference_cancellation_criterion(algebra: Algebra,
                                      subtrahends: SubtrahendIdeal
                                      ) -> PropertyReport:
    """Δ ≠ c and a ≠ b force c×a + Δ×b ≠ c×b + Δ×a, over all a,b,c,Δ∈⊖."""
    if subtrahends.algebra is not algebra:
        raise DomainError("subtrahend ideal belongs to a different algebra")
    n = algebra.size
    add, mul = algebra.add_i, algebra.mul_i
    checked = 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for c in range(n):
                for d in subtrahends.members:
                    if d == c:
                        continue
                    checked += 1
                    if add(mul(c, a), mul(d, b)) == add(mul(c, b), mul(d, a)):
                        return PropertyReport(
                            "difference-cancellation-criterion", False,
                            _names(algebra, a, b, c, d), checked)
    return PropertyReport("difference-cancellation-criterion", True, None, checked)


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
