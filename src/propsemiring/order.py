"""Partial orders over carriers and the monotony/cone checks.

The canonical (natural) order of an idempotent commutative addition is
p ≼ q iff p + q = q.  Because + is conjunction, on a free algebra this
reads backwards from pointwise truth: p ≼ q exactly when q implies p,
so ⊤ is the minimum and ⊥ the maximum.  Algebras whose addition is not
idempotent and commutative have no canonical order; an explicit matrix
must be supplied instead.

Every check is exact.  Monotony in one argument of an associative
operation holds once it holds at each element of the operation's
generating set, since the r with p∘r ≼ q∘r for all p ≼ q are closed
under ∘; a law that fails there, or an operation that is not
associative, is scanned for its first witness.  Pairwise monotony covers
all n⁴ tuples on every carrier: by monotony in each argument where the
order is transitive, else by a scan of the 4-tuples that names the first
witness.  Bound decomposition covers all n³ tuples the same way: where
the order is transitive it follows from p ≼ p + q, q ≼ p + q,
p × q ≼ p and p × q ≼ q (p + q ≼ r gives p ≼ p + q ≼ r, and p ≼ q × r
gives p ≼ q × r ≼ q), four n² bounds; else a scan names the first
witness.  Transitivity and each monotony law are decided once per
relation, however many checks read them.

Where the relation is the canonical order of a semilattice + (idempotent,
commutative and associative), the poset laws and monotony of + hold by
identities (Davey & Priestley, *Introduction to Lattices and Order*,
2002, ch. 2), so they report their full counts with no scan
(``OrderRelation.semilattice_order``):
reflexivity, p + p = p; antisymmetry, p = q + p = p + q = q;
transitivity, p + r = p + (q + r) = (p + q) + r = q + r = r; and
monotony of +, (p + r) + (q + r) = (p + q) + (r + r) = q + r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import and_, getitem, or_
from typing import Callable

from .algebra import (ADD, MAX_BYTE_CARRIER, MAX_DENSE_CARRIER, MUL, Algebra,
                      CompiledTables, Element, DomainError, SizeLimitError,
                      Subalgebra, TableAlgebra, UnsupportedOperationError,
                      _from_bytes, transposed)
from .properties import (PropertyReport, additively_cancellable_elements,
                         _Band, _associative, _commutativity,
                         _first_difference, _scan_rows)

# above this many elements in up(p), monotony decides p by its translations
FEW_ABOVE = 2
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # complements a 0/1 row

@dataclass(frozen=True)
class OrderRelation:
    """A binary relation as 0/1 byte rows: rows[p][q] is 1 iff p ≼ q."""

    algebra: Algebra
    rows: tuple[bytes, ...]

    def leq_i(self, p: int, q: int) -> bool:
        return self.rows[p][q] == 1

    @cached_property
    def down_bytes(self) -> list[bytes]:
        """Down-sets, the :func:`transposed` rows: down_bytes[q][p] is 1
        iff p ≼ q."""
        return transposed(self.rows)

    @cached_property
    def up_packed(self) -> tuple[int, ...]:
        """The rows packed into ints, one byte per position."""
        return tuple(map(_from_bytes, self.rows))

    @cached_property
    def semilattice_order(self) -> bool:
        """Whether + is idempotent, commutative and associative and the
        rows are its canonical order, p ≼ q iff p + q = q.  Then ≼ is a
        partial order in which + is monotone, by the identities in the
        module docstring, whatever made the rows: ``canonical_order``, a
        supplied matrix or the restriction to a subalgebra."""
        c = self.algebra.compiled
        carrier = c.row(range(c.n))
        return (c.row(map(getitem, c.add, carrier)) == carrier
                and c.add == c.add_t and self.rows == c.canonical_rows
                and _associative(c, ADD))

    @cached_property
    def transitivity(self) -> PropertyReport:
        """The transitivity report, decided once per relation: over all
        |≼|·n tuples with no scan where ``semilattice_order`` holds."""
        if self.semilattice_order:
            return PropertyReport("transitivity", True, None,
                                  b"".join(self.rows).count(1) * len(self.rows))
        return _transitivity("transitivity", self.algebra.name_of, self.rows,
                             self.up_packed)

    @cached_property
    def monotony(self) -> dict[tuple[str, bool], PropertyReport]:
        """The monotony reports decided so far, by operation and argument
        (see :func:`_monotony`)."""
        return {}

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
            if not isinstance(row, (list, tuple)):
                raise DomainError(f"order matrix row {r} must be a list, "
                                  f"got {row!r}")
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


def require_canonical(algebra: Algebra) -> None:
    """Refuse a carrier without a canonical order: + must be idempotent
    and commutative, and the carrier within the table limit."""
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


def canonical_order(algebra: Algebra) -> OrderRelation:
    """The order p ≼ q iff p + q = q; needs idempotent commutative +
    (:func:`require_canonical`)."""
    require_canonical(algebra)
    return OrderRelation(algebra=algebra, rows=algebra.compiled.canonical_rows)


def discrete_order(algebra: Algebra) -> OrderRelation:
    """p ≼ q iff p = q; a monotone poset over any carrier."""
    _require_dense(algebra, "discrete")
    n = algebra.size
    return OrderRelation(algebra=algebra, rows=tuple(
        bytes(p) + b"\1" + bytes(n - p - 1) for p in range(n)))


def _transitivity(name: str, name_of: Callable, up, packed) -> PropertyReport:
    """p ≼ q and q ≼ r imply p ≼ r: the up-set of q lies inside that of
    p whenever p ≼ q (rows as 0/1 bytes and as packed ints)."""
    carrier = range(len(up))
    return _scan_rows(name, name_of,
                      (((p, q), carrier, ((packed[q], packed[q] & pp, None),))
                       for p, (row, pp) in enumerate(zip(up, packed))
                       for q in compress(carrier, row)))


def check_poset(order: OrderRelation) -> list[PropertyReport]:
    """Reflexivity, antisymmetry and transitivity, one report each; with
    no scan where ``order.semilattice_order`` holds."""
    n = len(order.rows)
    if order.semilattice_order:
        return [PropertyReport("reflexivity", True, None, n),
                PropertyReport("antisymmetry", True, None, n * n),
                order.transitivity]
    name_of = order.algebra.name_of
    up, down, packed = order.rows, order.down_bytes, order.up_packed
    carrier = range(n)

    reflexive = _scan_rows("reflexivity", name_of, [((), carrier, (
        (bytes(map(getitem, up, carrier)), b"\1" * n, None),))])

    antisymmetric = _scan_rows("antisymmetry", name_of, (  # q ≠ p both ways
        ((p,), carrier, ((both, both & 1 << 8 * p, None),))
        for p, both in enumerate(pp & _from_bytes(dp) for pp, dp in zip(packed, down))))
    return [reflexive, antisymmetric, order.transitivity]


def _leq_slab(up, left, right, below: dict) -> int:
    """The packed slab over (a, b), 1 where left[a] ≼ right[b]: the rows
    b ↦ x ≼ right[b], built in ``below`` when first needed, joined along
    ``left``."""
    for x in set(left).difference(below):
        below[x] = CompiledTables.compose(up[x], right)
    return _from_bytes(b"".join(map(below.__getitem__, left)))


def _monotone_at_generators(c, up, op: str, cols) -> bool:
    """Whether ∘ = ``op`` is associative and p ≼ s implies
    cols[g][p] ≼ cols[g][s] for every g of its generating set: per g, one
    packed slab over all (p, s), tested against ≼."""
    if not _associative(c, op):
        return False
    ordered = _from_bytes(b"".join(up))  # position (p, s) is 1 iff p ≼ s
    for g in c.generators(op):
        images = cols[g]  # p ↦ p ∘ g, or g ∘ p for the second argument
        # position (p, s) is 1 iff p ∘ g ≼ s ∘ g
        if ordered & ~_leq_slab(up, images, images, {}):
            return False
    return True


def _monotony(order: OrderRelation, op: str,
              second: bool = False) -> PropertyReport:
    """p ≼ q implies p ∘ r ≼ q ∘ r for every r, for the operation ``op``
    (ADD or MUL), or r ∘ p ≼ r ∘ q with ``second``; decided once per
    relation and kept in ``order.monotony``.

    Monotony of + holds over all |≼|·n tuples with no scan where
    ``order.semilattice_order`` holds.  When ∘ is associative, the r for
    which the law holds are closed under ∘, so the law holds over all
    |≼|·n tuples once it holds at each r of the generating set of ∘
    (:func:`_monotone_at_generators`).  Otherwise the cases (p, q) run
    over r and name the witness.  On byte rows, a p with more than
    FEW_ABOVE elements above it is first decided by its translations: for
    every r the images q ∘ r of the q in up(p) must lie in up(p ∘ r), two
    ``bytes.translate`` calls per r.  Such a p that holds is one case of
    |up(p)|·n tuples; one that fails runs its cases.
    """
    key = (op, second)
    if key in order.monotony:
        return order.monotony[key]
    algebra, up = order.algebra, order.rows
    name = f"monotony-{op}" + ("-second" if second else "")
    c = algebra.compiled
    rows, cols = c.tables(op)
    if second:
        rows, cols = cols, rows
    if (op == ADD and order.semilattice_order
            or _monotone_at_generators(c, up, op, cols)):
        order.monotony[key] = PropertyReport(name, True, None,
                                             b"".join(up).count(1) * c.n)
        return order.monotony[key]
    carrier = range(c.n)
    holds = b"\1" * c.n

    def cases():
        tables = None  # up rows and columns as translate tables
        for p, upp in enumerate(up):
            if c.row is bytes and upp.count(1) > FEW_ABOVE:
                if tables is None:
                    tables = [[r.ljust(MAX_BYTE_CARRIER, b"\0") for r in rs]
                              for rs in (up, cols)]
                members = bytes(compress(carrier, upp))
                # per r, byte k is 1 iff p∘r ≼ members[k]∘r
                kept = b"".join(map(bytes.translate,
                                    map(members.translate, tables[1]),
                                    map(tables[0].__getitem__, rows[p])))
                if 0 not in kept:
                    yield (p,), range(len(kept)), ()
                    continue
            up_of_row = [up[x] for x in rows[p]]
            for q in compress(carrier, upp):
                # byte r is 1 iff p∘r ≼ q∘r
                yield (p, q), carrier, (
                    (bytes(map(getitem, up_of_row, rows[q])), holds, None),)

    order.monotony[key] = _scan_rows(name, algebra.name_of, cases())
    return order.monotony[key]


def check_monotony(order: OrderRelation) -> list[PropertyReport]:
    """p ≼ q implies p + r ≼ q + r, and the same for ×; one report per law
    (see :func:`_monotony`)."""
    return [_monotony(order, ADD), _monotony(order, MUL)]


def check_operation_bounds(order: OrderRelation) -> PropertyReport:
    """p ≼ p + q (sums sit above their terms) and p × q ≼ q, all pairs."""
    c = order.algebra.compiled
    carrier = range(c.n)
    holds = b"\1" * c.n
    above, below = {"claim": "p ≼ p + q"}, {"claim": "p × q ≼ q"}
    # the columns q ↦ (p ↦ p × q ≼ q): down(q) composed with column q of ×
    bounded = transposed(list(map(c.compose, order.down_bytes, c.mul_t)))

    return _scan_rows("operation-bounds", order.algebra.name_of, (
        # byte q is 1 iff p ≼ p + q, resp. iff p × q ≼ q
        ((p,), carrier, ((c.compose(up, ap), holds, above),
                         (bounded[p], holds, below)))
        for p, (ap, up) in enumerate(zip(c.add, order.rows))))


def check_bound_decomposition(order: OrderRelation) -> PropertyReport:
    """p + q ≼ r bounds both terms; p ≼ q × r bounds p by both factors.

    Exact over all n³ tuples.  Where ≼ is transitive, the law follows
    from the four operation bounds p ≼ p + q, q ≼ p + q, p × q ≼ p and
    p × q ≼ q: p + q ≼ r then gives p ≼ p + q ≼ r and q ≼ p + q ≼ r,
    and p ≼ q × r gives p ≼ q × r ≼ q and p ≼ q × r ≼ r.  So when the
    bounds hold (one ``compose`` of an up-set or down-set with a row or
    column of + or × per element and bound) and ``order.transitivity``
    holds, the law holds and no tuple is scanned.  Otherwise the cases
    (p, q) run over r and name the witness.  Each p is first
    decided on packed up-sets: up(p + q) ⊆ up(p) ∩ up(q) for every q,
    and no x outside up(p) has a product x × r or r × x inside it (the
    values of row and column x of ×, packed once per call when first
    needed).  A p that holds is one case of n² tuples; one that fails
    runs its cases.
    """
    c = order.algebra.compiled
    carrier = range(c.n)
    up, packed = order.rows, order.up_packed
    holds = b"\1" * c.n

    def bounded(sets, table):  # compose(sets[k], table[k]) is all ones
        return all(c.compose(x, y) == holds for x, y in zip(sets, table))

    # byte q of compose(up[p], add[p]) is 1 iff p ≼ p + q, of
    # compose(up[q], add_t[q]) byte p iff q ≼ p + q, and of the down-sets
    # composed with × and its columns iff p × q ≼ p, resp. p × q ≼ q
    if (bounded(up, c.add) and bounded(up, c.add_t)
            and bounded(order.down_bytes, c.mul)
            and bounded(order.down_bytes, c.mul_t)
            and order.transitivity.holds):
        return PropertyReport("bound-decomposition", True, None, c.n ** 3)
    of_sum, of_product = {"claim": "p + q ≼ r"}, {"claim": "p ≼ q × r"}
    factors = []  # per x, the values of row and column x of ×, packed

    def bounds_hold(ap, upp, pp):
        sums = list(map(packed.__getitem__, ap))  # up(p + q) per q
        if reduce(or_, sums) & ~pp or list(map(and_, sums, packed)) != sums:
            return False
        if not factors:
            factors.extend(_from_bytes(c.indicator(row + col))
                           for row, col in zip(c.mul, c.mul_t))
        return not reduce(or_, compress(factors, upp.translate(_FLIP)), 0) & pp

    def cases():
        for p, (ap, upp, pp) in enumerate(zip(c.add, up, packed)):
            if bounds_hold(ap, upp, pp):
                yield (p,), range(c.n * c.n), ()
                continue
            for q, (mq, pq) in enumerate(zip(c.mul, packed)):
                sum_up = packed[ap[q]]
                below_product = _from_bytes(c.compose(upp, mq))
                yield (p, q), carrier, (
                    (sum_up, sum_up & pp & pq, of_sum),
                    (below_product, below_product & pp if upp[q] else 0,
                     of_product))

    return _scan_rows("bound-decomposition", order.algebra.name_of, cases())


def check_pairwise_monotony(order: OrderRelation) -> PropertyReport:
    """p ≼ q and r ≼ s imply p + r ≼ q + s and p × r ≼ q × s.

    Exact over all n⁴ tuples on every carrier.  Where ≼ is transitive,
    the law follows from monotony in each argument: p∘r ≼ q∘r ≼ q∘s.  So
    when transitivity holds, and monotony holds in the first argument of
    + and × and in the second (a table equal to its transpose has one
    law for both), the law holds and no tuple is scanned.  Those reports
    are the relation's own (``order.transitivity``, :func:`_monotony`),
    so after check_poset and check_monotony only the second-argument
    laws are new.  Otherwise the
    scan runs one case per pair (p, q) over the n² positions (r, s): where
    p ≼ q, the slab r ↦ (s ↦ p∘r ≼ q∘s) must hold wherever r ≼ s.  Its
    rows s ↦ x ≼ q∘s are built once per q and joined along row p of the
    operation, and the first failing case names the witness.
    """
    c = order.algebra.compiled
    n, up = c.n, order.rows
    exhaustive = {"mode": "exhaustive"}
    laws = [(ADD, False), (MUL, False)] + [
        (op, True) for op in (ADD, MUL) if c.tables(op)[0] != c.tables(op)[1]]
    if order.transitivity.holds and all(_monotony(order, op, second).holds
                                        for op, second in laws):
        return PropertyReport("pairwise-monotony", True, None, n ** 4,
                              details=exhaustive)
    positions = _Band(0, n, n)
    ordered = _from_bytes(b"".join(up))  # position (r, s) is 1 iff r ≼ s
    of_sum = dict(exhaustive, claim="p + r ≼ q + s")
    of_product = dict(exhaustive, claim="p × r ≼ q × s")
    below = {}  # per q, the rows s ↦ x ≼ q + s and s ↦ x ≼ q × s by x

    def cases():
        for p, (ap, mp, upp) in enumerate(zip(c.add, c.mul, up)):
            for q, (aq, mq) in enumerate(zip(c.add, c.mul)):
                if not upp[q]:
                    yield (p, q), positions, ()
                    continue
                sums, products = below.setdefault(q, ({}, {}))
                # position (r, s) is 1 iff p∘r ≼ q∘s
                yield (p, q), positions, (
                    (ordered, ordered & _leq_slab(up, ap, aq, sums), of_sum),
                    (ordered, ordered & _leq_slab(up, mp, mq, products),
                     of_product))

    report = _scan_rows("pairwise-monotony", order.algebra.name_of, cases())
    report.details = report.details or exhaustive
    return report


def cones(order: OrderRelation) -> tuple[list[Element], list[Element]]:
    """(positive, negative): p with p ≼ p + q resp. p + q ≼ p for all q."""
    algebra = order.algebra
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


def subalgebra_order_report(sub: Subalgebra,
                            order: OrderRelation) -> SubalgebraOrderReport:
    """Check how the order restricts to a subalgebra, piece by piece."""
    algebra = order.algebra
    if sub.parent is not algebra:
        raise DomainError("subalgebra belongs to a different algebra")
    sub.validate(bpa_closed=False)

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
    monotony_reports = check_monotony(restricted_order)

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
