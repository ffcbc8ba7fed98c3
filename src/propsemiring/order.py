"""Partial orders over carriers and the monotony/cone checks.

The canonical (natural) order of an idempotent commutative addition is
p ≼ q iff p + q = q.  Because + is conjunction, on a free algebra this
reads backwards from pointwise truth: p ≼ q exactly when q implies p,
so ⊤ is the minimum and ⊥ the maximum.  Algebras whose addition is not
idempotent and commutative have no canonical order; an explicit matrix
must be supplied instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import getitem

from .algebra import (Algebra, Element, DomainError, SizeLimitError, Subalgebra,
                      TableAlgebra, UnsupportedOperationError)
from .properties import (PropertyReport, additively_cancellable_elements,
                         _names, _scan_rows)

DEFAULT_SEED = 1729
SAMPLED_TUPLES = 65536
EXHAUSTIVE_4TUPLE_CARRIER = 16


@dataclass(frozen=True)
class OrderRelation:
    """A binary relation as bitmask rows: rows[p] bit q set iff p ≼ q."""

    algebra: Algebra
    rows: tuple[int, ...]

    def leq_i(self, p: int, q: int) -> bool:
        return bool((self.rows[p] >> q) & 1)

    @cached_property
    def up_bytes(self) -> tuple[bytes, ...]:
        """Up-sets as 0/1 byte rows: up_bytes[p][q] is 1 iff p ≼ q."""
        n = self.algebra.size
        return tuple(bytes((bits >> q) & 1 for q in range(n))
                     for bits in self.rows)

    @cached_property
    def up_packed(self) -> tuple[int, ...]:
        """The byte rows of :attr:`up_bytes` packed into ints."""
        return tuple(int.from_bytes(row, "little") for row in self.up_bytes)

    def leq(self, x: Element, y: Element) -> bool:
        return self.leq_i(self.algebra._member(x), self.algebra._member(y))

    def to_matrix(self) -> list[list[int]]:
        n = self.algebra.size
        return [[(self.rows[p] >> q) & 1 for q in range(n)] for p in range(n)]

    @classmethod
    def from_matrix(cls, algebra: Algebra,
                    matrix: "list | tuple") -> "OrderRelation":
        n = algebra.size
        if n > 4096:
            raise SizeLimitError(f"order matrices above carrier 4096 are "
                                 f"not supported (carrier {n})")
        if len(matrix) != n:
            raise DomainError(f"order matrix must have {n} rows, got {len(matrix)}")
        rows = []
        for r, row in enumerate(matrix):
            if len(row) != n:
                raise DomainError(f"order matrix row {r} must have {n} entries")
            value = 0
            for q, cell in enumerate(row):
                if cell not in (0, 1, False, True):
                    raise DomainError(f"order matrix entry [{r}][{q}] must be 0 or 1")
                if cell:
                    value |= 1 << q
            rows.append(value)
        return cls(algebra=algebra, rows=tuple(rows))


def canonical_order(algebra: Algebra) -> OrderRelation:
    """The order p ≼ q iff p + q = q; needs idempotent commutative +."""
    n = algebra.size
    if n > 4096:
        raise SizeLimitError(f"canonical order needs a dense matrix; "
                             f"carrier {n} exceeds 4096")
    add = algebra.add_i
    for p in range(n):
        if add(p, p) != p:
            raise UnsupportedOperationError(
                f"+ is not idempotent ({algebra.name_of(p)} + {algebra.name_of(p)} "
                f"= {algebra.name_of(add(p, p))}); supply an order matrix")
    for p in range(n):
        for q in range(p + 1, n):
            if add(p, q) != add(q, p):
                raise UnsupportedOperationError(
                    f"+ is not commutative at ({algebra.name_of(p)}, "
                    f"{algebra.name_of(q)}); supply an order matrix")
    rows = []
    for p in range(n):
        value = 0
        for q in range(n):
            if add(p, q) == q:
                value |= 1 << q
        rows.append(value)
    return OrderRelation(algebra=algebra, rows=tuple(rows))


def discrete_order(algebra: Algebra) -> OrderRelation:
    """p ≼ q iff p = q; a monotone poset over any carrier."""
    return OrderRelation(algebra=algebra,
                         rows=tuple(1 << p for p in range(algebra.size)))


def _check_relation(order: OrderRelation, algebra: Algebra) -> None:
    if order.algebra is not algebra:
        raise DomainError("order relation belongs to a different algebra")


def check_poset(order: OrderRelation) -> list[PropertyReport]:
    """Reflexivity, antisymmetry and transitivity, one report each."""
    algebra = order.algebra
    n = algebra.size
    leq = order.leq_i

    checked = 0
    reflexive = PropertyReport("reflexivity", True, None, n)
    for p in range(n):
        checked += 1
        if not leq(p, p):
            reflexive = PropertyReport("reflexivity", False,
                                       _names(algebra, p), checked)
            break

    checked = 0
    antisymmetric = None
    for p in range(n):
        for q in range(n):
            checked += 1
            if p != q and leq(p, q) and leq(q, p):
                antisymmetric = PropertyReport("antisymmetry", False,
                                               _names(algebra, p, q), checked)
                break
        if antisymmetric:
            break
    if antisymmetric is None:
        antisymmetric = PropertyReport("antisymmetry", True, None, checked)

    packed = order.up_packed
    transitive = _scan_rows(
        "transitivity", algebra,
        (((p, q), ((packed[q], packed[q] & pp),))
         for p, (row, pp) in enumerate(zip(order.up_bytes, packed))
         for q in compress(range(n), row)))

    return [reflexive, antisymmetric, transitive]


def check_monotony(algebra: Algebra, order: OrderRelation) -> list[PropertyReport]:
    """p ≼ q implies p + r ≼ q + r, and the same for ×; one report per law."""
    _check_relation(order, algebra)
    n = algebra.size
    up = order.up_bytes
    holds = b"\1" * n

    def cases(rows):
        for p, row in enumerate(up):
            up_of_row = [up[x] for x in rows[p]]
            for q in compress(range(n), row):
                # byte r is 1 iff p∘r ≼ q∘r
                yield (p, q), ((bytes(map(getitem, up_of_row, rows[q])), holds),)

    c = algebra.compiled
    return [_scan_rows("monotony-add", algebra, cases(c.add)),
            _scan_rows("monotony-mul", algebra, cases(c.mul))]


def check_operation_bounds(algebra: Algebra, order: OrderRelation) -> PropertyReport:
    """p ≼ p + q (sums sit above their terms) and p × q ≼ q, all pairs."""
    _check_relation(order, algebra)
    n = algebra.size
    leq = order.leq_i
    add, mul = algebra.add_i, algebra.mul_i
    checked = 0
    for p in range(n):
        for q in range(n):
            checked += 1
            if not leq(p, add(p, q)):
                return PropertyReport("operation-bounds", False,
                                      _names(algebra, p, q), checked,
                                      details={"claim": "p ≼ p + q"})
            if not leq(mul(p, q), q):
                return PropertyReport("operation-bounds", False,
                                      _names(algebra, p, q), checked,
                                      details={"claim": "p × q ≼ q"})
    return PropertyReport("operation-bounds", True, None, checked)


def check_bound_decomposition(algebra: Algebra,
                              order: OrderRelation) -> PropertyReport:
    """p + q ≼ r bounds both terms; p ≼ q × r bounds p by both factors."""
    _check_relation(order, algebra)
    c = algebra.compiled
    up, packed = order.up_bytes, order.up_packed

    def cases():
        for p, (ap, upp, pp) in enumerate(zip(c.add, up, packed)):
            for q, (mq, pq) in enumerate(zip(c.mul, packed)):
                sum_up = packed[ap[q]]
                below_product = int.from_bytes(bytes(c.compose(upp, mq)),
                                               "little")
                yield (p, q), ((sum_up, sum_up & pp & pq),
                               (below_product,
                                below_product & pp if upp[q] else 0))

    return _scan_rows("bound-decomposition", algebra, cases(),
                      details=({"claim": "p + q ≼ r"}, {"claim": "p ≼ q × r"}))


def check_pairwise_monotony(algebra: Algebra, order: OrderRelation,
                            seed: int = DEFAULT_SEED) -> PropertyReport:
    """p ≼ q and r ≼ s imply p + r ≼ q + s and p × r ≼ q × s.

    Scans all 4-tuples up to carrier 16; larger carriers are sampled
    with the given seed and the report says so.
    """
    _check_relation(order, algebra)
    n = algebra.size
    leq = order.leq_i
    add, mul = algebra.add_i, algebra.mul_i

    def violation(p: int, q: int, r: int, s: int) -> str | None:
        if not (leq(p, q) and leq(r, s)):
            return None
        if not leq(add(p, r), add(q, s)):
            return "p + r ≼ q + s"
        if not leq(mul(p, r), mul(q, s)):
            return "p × r ≼ q × s"
        return None

    checked = 0
    if n <= EXHAUSTIVE_4TUPLE_CARRIER:
        details = {"mode": "exhaustive"}
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        checked += 1
                        claim = violation(p, q, r, s)
                        if claim:
                            details["claim"] = claim
                            return PropertyReport("pairwise-monotony", False,
                                                  _names(algebra, p, q, r, s),
                                                  checked, details=details)
    else:
        rng = random.Random(seed)
        details = {"mode": "sampled", "seed": seed, "samples": SAMPLED_TUPLES}
        for _ in range(SAMPLED_TUPLES):
            p, q, r, s = (rng.randrange(n) for _ in range(4))
            checked += 1
            claim = violation(p, q, r, s)
            if claim:
                details["claim"] = claim
                return PropertyReport("pairwise-monotony", False,
                                      _names(algebra, p, q, r, s), checked,
                                      details=details)
    return PropertyReport("pairwise-monotony", True, None, checked, details=details)


def cones(algebra: Algebra,
          order: OrderRelation) -> tuple[list[Element], list[Element]]:
    """(positive, negative): p with p ≼ p + q resp. p + q ≼ p for all q."""
    _check_relation(order, algebra)
    n = algebra.size
    leq = order.leq_i
    add = algebra.add_i
    positive = [Element(algebra, p) for p in range(n)
                if all(leq(p, add(p, q)) for q in range(n))]
    negative = [Element(algebra, p) for p in range(n)
                if all(leq(add(p, q), p) for q in range(n))]
    return positive, negative


@dataclass
class SubalgebraOrderReport:
    """Auditable pieces of the order-inheritance question for a subalgebra.

    No single verdict is computed; the caller sees (a) whether the
    restricted order still behaves, (b) what the subalgebra misses,
    (c) whether the missing part sits inside {⊤}, (d) which elements are
    additively cancellable, and (e) whether the subalgebra is everything.
    """

    restriction_poset: list[PropertyReport]
    restriction_monotony: list[PropertyReport]
    difference: tuple[str, ...]
    difference_within_top: bool
    cancellable: tuple[str, ...]
    top_cancellable: bool
    equal: bool

    def to_json(self) -> dict:
        return {
            "restriction": {
                "poset": [r.to_json() for r in self.restriction_poset],
                "monotony": [r.to_json() for r in self.restriction_monotony],
            },
            "difference": list(self.difference),
            "difference_within_top": self.difference_within_top,
            "cancellable": list(self.cancellable),
            "top_cancellable": self.top_cancellable,
            "equal": self.equal,
        }


def subalgebra_order_report(algebra: Algebra, sub: Subalgebra,
                            order: OrderRelation) -> SubalgebraOrderReport:
    """Check how the order restricts to a subalgebra, piece by piece."""
    if sub.parent is not algebra:
        raise DomainError("subalgebra belongs to a different algebra")
    sub.validate(bpa_closed=False)
    _check_relation(order, algebra)

    # A validated subalgebra is closed, so it is an algebra in its own
    # right; its elements keep their parent names, so witnesses do too.
    members = sub.members
    position = {m: i for i, m in enumerate(members)}
    restricted = TableAlgebra(
        name=f"{algebra.name}|sub", names=tuple(sub.element_names()),
        add_rows=tuple(tuple(position[algebra.add_i(i, j)] for j in members)
                       for i in members),
        mul_rows=tuple(tuple(position[algebra.mul_i(i, j)] for j in members)
                       for i in members),
        top_index=position[algebra.top_index],
        bot_index=position[algebra.bot_index])
    restricted_order = OrderRelation.from_matrix(
        restricted, [[int(order.leq_i(p, q)) for q in members] for p in members])
    poset_reports = check_poset(restricted_order)
    monotony_reports = check_monotony(restricted, restricted_order)

    member_set = set(members)
    difference = tuple(algebra.name_of(i) for i in range(algebra.size)
                       if i not in member_set)
    difference_within_top = all(i == algebra.top_index
                                for i in range(algebra.size)
                                if i not in member_set)
    cancellable = additively_cancellable_elements(algebra)
    cancellable_names = tuple(e.name for e in cancellable)
    top_cancellable = any(e.index == algebra.top_index for e in cancellable)

    return SubalgebraOrderReport(
        restriction_poset=poset_reports,
        restriction_monotony=monotony_reports,
        difference=difference,
        difference_within_top=difference_within_top,
        cancellable=cancellable_names,
        top_cancellable=top_cancellable,
        equal=len(members) == algebra.size,
    )
