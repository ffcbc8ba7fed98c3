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
from operator import eq, getitem, itemgetter
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

_DIGITS = bytes.maketrans(b"\0\1", b"01")


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
    def down_bytes(self) -> tuple[bytes, ...]:
        """Down-sets as 0/1 byte rows: down_bytes[q][p] is 1 iff p ≼ q."""
        up = self.up_bytes
        return tuple(bytes(map(itemgetter(q), up)) for q in range(len(up)))

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
        return cls(algebra=algebra, rows=tuple(
            sum(1 << q for q, cell in enumerate(row) if cell) for row in matrix))


def canonical_order(algebra: Algebra) -> OrderRelation:
    """The order p ≼ q iff p + q = q; needs idempotent commutative +."""
    n = algebra.size
    if n > MAX_DENSE_CARRIER:
        raise SizeLimitError(f"canonical order needs a dense matrix; "
                             f"carrier {n} exceeds {MAX_DENSE_CARRIER}")
    c = algebra.compiled
    carrier = range(n)
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
    return OrderRelation(algebra=algebra, rows=tuple(  # bit q: p + q = q
        int(bytes(map(eq, row, carrier))[::-1].translate(_DIGITS), 2)
        for row in c.add))


def discrete_order(algebra: Algebra) -> OrderRelation:
    """p ≼ q iff p = q; a monotone poset over any carrier."""
    return OrderRelation(algebra=algebra,
                         rows=tuple(1 << p for p in range(algebra.size)))


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
    up, down, packed = order.up_bytes, order.down_bytes, order.up_packed
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
    up = order.up_bytes
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
    up = order.up_bytes
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
    up, packed = order.up_bytes, order.up_packed
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
    if n <= EXHAUSTIVE_4TUPLE_CARRIER:
        c = algebra.compiled
        up, packed = order.up_bytes, order.up_packed
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

    rng = random.Random(seed)
    details = {"mode": "sampled", "seed": seed, "samples": SAMPLED_TUPLES}
    checked = 0
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
    c = algebra.compiled
    holds = b"\1" * c.n
    up, down = order.up_bytes, order.down_bytes
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
