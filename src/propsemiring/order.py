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
from operator import eq, getitem
from typing import Callable

from .algebra import (MAX_DENSE_CARRIER, Algebra, Element, DomainError,
                      SizeLimitError, Subalgebra, TableAlgebra,
                      UnsupportedOperationError)
from .properties import (PropertyReport, additively_cancellable_elements,
                         _commutativity, _first_difference, _names, _packed,
                         _scan_rows)

DEFAULT_SEED = 1729
SAMPLED_TUPLES = 65536
EXHAUSTIVE_4TUPLE_CARRIER = 16

@dataclass(frozen=True)
class OrderRelation:
    """A binary relation as 0/1 byte rows: rows[p][q] is 1 iff p ≼ q."""

    algebra: Algebra
    rows: tuple[bytes, ...]

    def leq_i(self, p: int, q: int) -> bool:
        return self.rows[p][q] == 1

    @cached_property
    def down_bytes(self) -> tuple[bytes, ...]:
        """Down-sets as 0/1 byte rows: down_bytes[q][p] is 1 iff p ≼ q."""
        return tuple(map(bytes, zip(*self.rows)))

    @cached_property
    def up_packed(self) -> tuple[int, ...]:
        """The rows packed into ints, one byte per position."""
        return tuple(map(_packed, self.rows))

    def leq(self, x: Element, y: Element) -> bool:
        return self.leq_i(self.algebra._member(x), self.algebra._member(y))

    def to_matrix(self) -> list[list[int]]:
        return list(map(list, self.rows))

    @classmethod
    def from_matrix(cls, algebra: Algebra,
                    matrix: "list | tuple") -> "OrderRelation":
        n = algebra.size
        if n > MAX_DENSE_CARRIER:
            raise SizeLimitError(f"order matrices above carrier "
                                 f"{MAX_DENSE_CARRIER} are not supported "
                                 f"(carrier {n})")
        if len(matrix) != n:
            raise DomainError(f"order matrix must have {n} rows, got {len(matrix)}")
        for r, row in enumerate(matrix):
            if len(row) != n:
                raise DomainError(f"order matrix row {r} must have {n} entries")
            for q, cell in enumerate(row):
                if cell not in (0, 1):  # True and False compare equal to 1, 0
                    raise DomainError(f"order matrix entry [{r}][{q}] must be 0 or 1")
        return cls(algebra=algebra, rows=tuple(bytes(map(bool, row))
                                               for row in matrix))


def _require_dense(algebra: Algebra, kind: str) -> None:
    if algebra.size > MAX_DENSE_CARRIER:
        raise SizeLimitError(f"{kind} order needs a dense matrix; carrier "
                             f"{algebra.size} exceeds {MAX_DENSE_CARRIER}")


def canonical_order(algebra: Algebra) -> OrderRelation:
    """The order p ≼ q iff p + q = q; needs idempotent commutative +."""
    _require_dense(algebra, "canonical")
    c = algebra.compiled
    carrier = range(c.n)
    name = algebra.name_of
    doubles = c.row(map(getitem, c.add, carrier))
    p = _first_difference(doubles, c.row(carrier))
    if p is not None:
        raise UnsupportedOperationError(
            f"+ is not idempotent ({name(p)} + {name(p)} = {name(doubles[p])}); "
            f"supply an order matrix")
    commutativity = _commutativity("add-commutativity", name, c.add, c.add_t)
    if not commutativity.holds:
        raise UnsupportedOperationError(
            f"+ is not commutative at ({', '.join(commutativity.witness)}); "
            f"supply an order matrix")
    return OrderRelation(algebra=algebra, rows=tuple(  # byte q: p + q = q
        bytes(map(eq, row, carrier)) for row in c.add))


def discrete_order(algebra: Algebra) -> OrderRelation:
    """p ≼ q iff p = q; a monotone poset over any carrier."""
    _require_dense(algebra, "discrete")
    n = algebra.size
    return OrderRelation(algebra=algebra, rows=tuple(
        bytes(p) + b"\1" + bytes(n - p - 1) for p in range(n)))


def _check_relation(order: OrderRelation, algebra: Algebra) -> None:
    if order.algebra is not algebra:
        raise DomainError("order relation belongs to a different algebra")


def _transitivity(name: str, name_of: Callable, up, packed) -> PropertyReport:
    """p ≼ q and q ≼ r imply p ≼ r: the up-set of q lies inside that of
    p whenever p ≼ q (rows as 0/1 bytes and as packed ints)."""
    carrier = range(len(up))
    return _scan_rows(name, name_of,
                      (((p, q), carrier, ((packed[q], packed[q] & pp, None),))
                       for p, (row, pp) in enumerate(zip(up, packed))
                       for q in compress(carrier, row)))


def _reflexivity(name_of: Callable, up) -> PropertyReport:
    carrier = range(len(up))
    return _scan_rows("reflexivity", name_of, [((), carrier, (
        (bytes(map(getitem, up, carrier)), b"\1" * len(up), None),))])


def check_poset(order: OrderRelation) -> list[PropertyReport]:
    """Reflexivity, antisymmetry and transitivity, one report each."""
    name_of = order.algebra.name_of
    up, down, packed = order.rows, order.down_bytes, order.up_packed
    carrier = range(len(up))

    reflexive = _reflexivity(name_of, up)

    antisymmetric = _scan_rows("antisymmetry", name_of, (  # q ≠ p both ways
        ((p,), carrier, ((both, both & 1 << 8 * p, None),))
        for p, both in enumerate(pp & _packed(dp) for pp, dp in zip(packed, down))))
    transitive = _transitivity("transitivity", name_of, up, packed)
    return [reflexive, antisymmetric, transitive]


def check_monotony(algebra: Algebra, order: OrderRelation) -> list[PropertyReport]:
    """p ≼ q implies p + r ≼ q + r, and the same for ×; one report per law."""
    _check_relation(order, algebra)
    carrier = range(algebra.size)
    up = order.rows
    holds = b"\1" * algebra.size

    def cases(rows):
        for p, row in enumerate(up):
            up_of_row = [up[x] for x in rows[p]]
            for q in compress(carrier, row):
                # byte r is 1 iff p∘r ≼ q∘r
                yield (p, q), carrier, (
                    (bytes(map(getitem, up_of_row, rows[q])), holds, None),)

    c = algebra.compiled
    return [_scan_rows("monotony-add", algebra.name_of, cases(c.add)),
            _scan_rows("monotony-mul", algebra.name_of, cases(c.mul))]


def check_operation_bounds(algebra: Algebra, order: OrderRelation) -> PropertyReport:
    """p ≼ p + q (sums sit above their terms) and p × q ≼ q, all pairs."""
    _check_relation(order, algebra)
    c = algebra.compiled
    carrier = range(c.n)
    up = order.rows
    holds = b"\1" * c.n
    above, below = {"claim": "p ≼ p + q"}, {"claim": "p × q ≼ q"}

    return _scan_rows("operation-bounds", algebra.name_of, (
        # byte q is 1 iff p ≼ p + q, resp. iff p × q ≼ q
        ((p,), carrier, ((c.compose(up[p], ap), holds, above),
                         (bytes(map(getitem, map(up.__getitem__, mp), carrier)),
                          holds, below)))
        for p, (ap, mp) in enumerate(zip(c.add, c.mul))))


def check_bound_decomposition(algebra: Algebra,
                              order: OrderRelation) -> PropertyReport:
    """p + q ≼ r bounds both terms; p ≼ q × r bounds p by both factors."""
    _check_relation(order, algebra)
    c = algebra.compiled
    carrier = range(c.n)
    up, packed = order.rows, order.up_packed
    of_sum, of_product = {"claim": "p + q ≼ r"}, {"claim": "p ≼ q × r"}

    def cases():
        for p, (ap, upp, pp) in enumerate(zip(c.add, up, packed)):
            for q, (mq, pq) in enumerate(zip(c.mul, packed)):
                sum_up = packed[ap[q]]
                below_product = _packed(c.compose(upp, mq))
                yield (p, q), carrier, (
                    (sum_up, sum_up & pp & pq, of_sum),
                    (below_product, below_product & pp if upp[q] else 0,
                     of_product))

    return _scan_rows("bound-decomposition", algebra.name_of, cases())


def check_pairwise_monotony(algebra: Algebra, order: OrderRelation,
                            seed: int = DEFAULT_SEED) -> PropertyReport:
    """p ≼ q and r ≼ s imply p + r ≼ q + s and p × r ≼ q × s.

    Scans all 4-tuples up to carrier 16; larger carriers are sampled
    with the given seed and the report says so.
    """
    _check_relation(order, algebra)
    n = algebra.size
    c = algebra.compiled
    up = order.rows
    if n <= EXHAUSTIVE_4TUPLE_CARRIER:
        packed = order.up_packed
        of_sum = {"mode": "exhaustive", "claim": "p + r ≼ q + s"}
        of_product = {"mode": "exhaustive", "claim": "p × r ≼ q × s"}

        def cases():
            for p, (ap, mp, upp) in enumerate(zip(c.add, c.mul, up)):
                for q, (aq, mq) in enumerate(zip(c.add, c.mul)):
                    for r, pr in enumerate(packed):
                        if not upp[q]:
                            yield (p, q, r), range(n), ()
                            continue
                        # bit s is set iff r ≼ s, resp. p∘r ≼ q∘s
                        sums = _packed(c.compose(up[ap[r]], aq))
                        products = _packed(c.compose(up[mp[r]], mq))
                        yield (p, q, r), range(n), (
                            (pr, pr & sums, of_sum), (pr, pr & products, of_product))

        report = _scan_rows("pairwise-monotony", algebra.name_of, cases())
        report.details = report.details or {"mode": "exhaustive"}
        return report
    draw = random.Random(seed).randrange
    details = {"mode": "sampled", "seed": seed, "samples": SAMPLED_TUPLES}
    claims = (("p + r ≼ q + s", c.add), ("p × r ≼ q × s", c.mul))
    for k in range(SAMPLED_TUPLES):
        p, q, r, s = draw(n), draw(n), draw(n), draw(n)
        if up[p][q] and up[r][s]:
            for claim, table in claims:
                if not up[table[p][r]][table[q][s]]:
                    details["claim"] = claim
                    return PropertyReport("pairwise-monotony", False,
                                          _names(algebra, p, q, r, s), k + 1,
                                          details=details)
    return PropertyReport("pairwise-monotony", True, None, SAMPLED_TUPLES,
                          details=details)


def cones(algebra: Algebra,
          order: OrderRelation) -> tuple[list[Element], list[Element]]:
    """(positive, negative): p with p ≼ p + q resp. p + q ≼ p for all q."""
    _check_relation(order, algebra)
    c = algebra.compiled
    holds = b"\1" * c.n
    up, down = order.rows, order.down_bytes
    positive = [Element(algebra, p) for p, row in enumerate(c.add)
                if c.compose(up[p], row) == holds]
    negative = [Element(algebra, p) for p, row in enumerate(c.add)
                if c.compose(down[p], row) == holds]
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
    c = algebra.compiled
    member_row = c.row(members)
    where = [0] * c.n
    for k, m in enumerate(members):
        where[m] = k
    position = c.row(where)

    def restrict(rows):  # row i, column j: the position of i ∘ j
        return tuple(c.compose(position, c.compose(rows[i], member_row))
                     for i in members)

    restricted = TableAlgebra(
        name=f"{algebra.name}|sub", names=tuple(sub.element_names()),
        add_rows=restrict(c.add), mul_rows=restrict(c.mul),
        top_index=position[algebra.top_index],
        bot_index=position[algebra.bot_index])
    restricted_order = OrderRelation(restricted, tuple(
        c.compose(order.rows[p], member_row) for p in members))
    poset_reports = check_poset(restricted_order)
    monotony_reports = check_monotony(restricted, restricted_order)

    outside = set(range(algebra.size)).difference(members)
    cancellable = additively_cancellable_elements(algebra)
    cancellable_names = tuple(e.name for e in cancellable)
    top_cancellable = any(e.index == algebra.top_index for e in cancellable)

    return SubalgebraOrderReport(
        restriction_poset=poset_reports,
        restriction_monotony=monotony_reports,
        difference=tuple(map(algebra.name_of, sorted(outside))),
        difference_within_top=outside <= {algebra.top_index},
        cancellable=cancellable_names,
        top_cancellable=top_cancellable,
        equal=len(members) == algebra.size,
    )
