"""Exhaustive semiring-axiom and classification checkers.

Every checker scans the whole carrier in lexicographic order and returns
a PropertyReport.  A fails verdict always carries the first witness the
scan met, so re-running the cited elements through the operation tables
reproduces the violated equation.  Exhaustive scanning is the point:
these checkers double as the oracle for every claim about an instance.

Every law of n² or more tuples, here and in the other modules, runs on
compiled rows through :func:`_scan_rows`, which compares whole rows over
the last index of the tuple and derives the witness and ``checked`` from
the position of the first violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .algebra import Algebra, Element


@dataclass
class PropertyReport:
    """Outcome of one exhaustive check.

    ``witness`` holds element names; ``checked`` counts the tuples the
    scan examined before stopping (everything, when the property holds).
    """

    property: str
    holds: bool
    witness: tuple[str, ...] | None = None
    checked: int = 0
    details: dict | None = None

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"

    def to_json(self) -> dict:
        doc: dict = {
            "property": self.property,
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
            "checked": self.checked,
        }
        if self.details:
            doc.update(self.details)
        return doc


def _names(algebra: Algebra, *indices: int) -> tuple[str, ...]:
    return tuple(algebra.name_of(i) for i in indices)


def _first_difference(a, b) -> int | None:
    """First position at which two row vectors differ, None when equal.

    A vector is a sequence, or an int packing one byte per position as
    ``int.from_bytes(row, "little")`` does (position k is bit 8k).
    """
    if a == b:
        return None
    if isinstance(a, int):
        d = a ^ b
        return ((d & -d).bit_length() - 1) >> 3
    return next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)


def _scan_rows(name: str, name_of: Callable, cases: Iterable) -> PropertyReport:
    """Verdict of a law stated as equations between row vectors.

    ``cases`` yields ``(prefix, domain, sides)`` in scan order: the
    leading indices of the tuple, the elements that the positions of the
    case's rows stand for, and per side of the law a triple
    ``(a, b, details)`` of two row vectors that the law makes equal and
    the details to report when they differ.  The law fails at the first
    case and the first position k where some pair differs; at equal k the
    earlier side wins.  The witness is the prefix and ``domain[k]``, each
    passed through ``name_of``; ``checked`` counts the domains of the
    earlier cases plus k + 1.
    """
    checked = 0
    for prefix, domain, sides in cases:
        for a, b, _ in sides:
            if a != b:
                break
        else:
            checked += len(domain)
            continue
        k, side = min((k, side) for side, (a, b, _) in enumerate(sides)
                      if (k := _first_difference(a, b)) is not None)
        details = sides[side][2]
        return PropertyReport(name, False,
                              tuple(map(name_of, (*prefix, domain[k]))),
                              checked + k + 1,
                              details=dict(details) if details else None)
    return PropertyReport(name, True, None, checked)


def _packed(row) -> int:
    """A 0/1 row as an int, one byte per position."""
    return int.from_bytes(row, "little")


def _commutativity(name: str, name_of: Callable, rows, cols) -> PropertyReport:
    carrier = range(len(rows))
    return _scan_rows(name, name_of,
                      (((i,), carrier, ((row, cols[i], None),))
                       for i, row in enumerate(rows)))


def _associativity(name: str, algebra: Algebra, rows) -> PropertyReport:
    compose = algebra.compiled.compose
    carrier = range(len(rows))
    return _scan_rows(name, algebra.name_of, (
        ((i, j), carrier, ((rows[ri[j]], compose(ri, rows[j]), None),))
        for i, ri in enumerate(rows) for j in carrier))


def _two_sided(name: str, algebra: Algebra, op: Callable[[int, int], int],
               e: int, absorbing: bool = False,
               details: dict | None = None) -> PropertyReport:
    """e ∘ x = x = x ∘ e for every x, or e ∘ x = e = x ∘ e when
    ``absorbing``.  These laws take n tuples, so they read the scalar
    operations and run on carriers too large to compile."""
    for x in range(algebra.size):
        want = e if absorbing else x
        if op(e, x) != want or op(x, e) != want:
            return PropertyReport(name, False, _names(algebra, x), x + 1,
                                  details=details)
    return PropertyReport(name, True, None, algebra.size, details=details)


def _distributivity(algebra: Algebra) -> PropertyReport:
    """i × (j + k) = i×j + i×k (left) and (j + k) × i = j×i + k×i (right)."""
    c = algebra.compiled
    add, mul, mul_t, compose = c.add, c.mul, c.mul_t, c.compose
    carrier = range(c.n)
    left, right = {"side": "left"}, {"side": "right"}

    def cases():
        for i, (mi, ci) in enumerate(zip(mul, mul_t)):
            for j, aj in enumerate(add):
                yield (i, j), carrier, (
                    (compose(mi, aj), compose(add[mi[j]], mi), left),
                    (compose(ci, aj), compose(add[ci[j]], ci), right))

    return _scan_rows("distributivity", algebra.name_of, cases())


def is_multiplicatively_absorbing(algebra: Algebra) -> PropertyReport:
    """⊤ × p = ⊤ = p × ⊤ for every p."""
    return _two_sided("top-absorbing", algebra, algebra.mul_i,
                      algebra.top_index, absorbing=True)


def check_semiring_axioms(algebra: Algebra) -> list[PropertyReport]:
    """One report per axiom of a commutative semiring with absorbing ⊤."""
    c = algebra.compiled
    return [
        _commutativity("add-commutativity", algebra.name_of, c.add, c.add_t),
        _associativity("add-associativity", algebra, c.add),
        _two_sided("add-identity", algebra, algebra.add_i, algebra.top_index,
                   details={"identity": algebra.name_of(algebra.top_index)}),
        _commutativity("mul-commutativity", algebra.name_of, c.mul, c.mul_t),
        _associativity("mul-associativity", algebra, c.mul),
        _two_sided("mul-identity", algebra, algebra.mul_i, algebra.bot_index,
                   details={"identity": algebra.name_of(algebra.bot_index)}),
        _distributivity(algebra),
        is_multiplicatively_absorbing(algebra),
    ]


def _top_hits(name: str, algebra: Algebra, rows, at_top: int,
              elsewhere: int) -> PropertyReport:
    """Row p meets ⊤ only inside its packed mask: ``at_top`` for p = ⊤,
    ``elsewhere`` for every other p."""
    c = algebra.compiled
    top = algebra.top_index
    is_top = c.indicator((top,))
    return _scan_rows(name, algebra.name_of, (
        ((p,), range(c.n), ((hits, hits & (at_top if p == top else elsewhere),
                             None),))
        for p, hits in enumerate(_packed(c.compose(is_top, row)) for row in rows)))


def is_zerosumfree(algebra: Algebra) -> PropertyReport:
    """p + q = ⊤ forces p = q = ⊤."""
    top_only = 1 << 8 * algebra.top_index
    return _top_hits("zerosumfree", algebra, algebra.compiled.add, top_only, 0)


def is_entire(algebra: Algebra) -> PropertyReport:
    """p × q = ⊤ forces p = ⊤ or q = ⊤ (no zero divisors)."""
    top_only = 1 << 8 * algebra.top_index
    return _top_hits("entire", algebra, algebra.compiled.mul, -1, top_only)


def is_simple(algebra: Algebra) -> PropertyReport:
    """p + ⊥ = ⊥ for every p (⊥ is additively infinite)."""
    return _two_sided("simple", algebra, algebra.add_i, algebra.bot_index,
                      absorbing=True)


def compute_center(algebra: Algebra) -> list[Element]:
    """Elements commuting multiplicatively with the whole carrier."""
    c = algebra.compiled
    return [Element(algebra, p) for p in range(c.n) if c.mul[p] == c.mul_t[p]]


def additively_cancellable_elements(algebra: Algebra) -> list[Element]:
    """Elements a with a + x = a + y (either side) forcing x = y."""
    c = algebra.compiled
    return [Element(algebra, a) for a in range(c.n)
            if len(set(c.add[a])) == c.n and len(set(c.add_t[a])) == c.n]
