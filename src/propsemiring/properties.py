"""Exhaustive semiring-axiom and classification checkers.

Every checker scans the whole carrier in lexicographic order and returns
a PropertyReport.  A fails verdict always carries the first witness the
scan met, so re-running the cited elements through the operation tables
reproduces the violated equation.  Exhaustive scanning is the point:
these checkers double as the oracle for every claim about an instance.

The n² and n³ laws run on the algebra's compiled rows through
:func:`_scan_rows`, which compares whole rows over the last index of the
tuple and derives ``checked`` from the position of the first violation.
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


def _scan_rows(name: str, algebra: Algebra, cases: Iterable,
               details: tuple[dict, ...] | None = None) -> PropertyReport:
    """Verdict of a law stated as equations between row vectors.

    ``cases`` yields ``(prefix, sides)`` in scan order: the leading
    indices of the tuple, and per side of the law one pair ``(a, b)`` of
    row vectors over the last index k that the law makes equal.  The law
    fails at the first case and the first k where some pair differs; at
    equal k the earlier side wins and ``details[side]`` is reported.
    ``checked`` counts n tuples per earlier case plus k + 1.
    """
    n = algebra.size
    rank = -1
    for rank, (prefix, sides) in enumerate(cases):
        for a, b in sides:
            if a != b:
                break
        else:
            continue
        k, side = min((k, side) for side, (a, b) in enumerate(sides)
                      if (k := _first_difference(a, b)) is not None)
        return PropertyReport(name, False, _names(algebra, *prefix, k),
                              rank * n + k + 1,
                              details=dict(details[side]) if details else None)
    return PropertyReport(name, True, None, (rank + 1) * n)


def _commutativity(name: str, algebra: Algebra, rows, cols) -> PropertyReport:
    return _scan_rows(name, algebra, (((i,), ((row, cols[i]),))
                                      for i, row in enumerate(rows)))


def _associativity(name: str, algebra: Algebra, rows) -> PropertyReport:
    compose = algebra.compiled.compose
    return _scan_rows(name, algebra,
                      (((i, j), ((rows[ri[j]], compose(ri, rows[j])),))
                       for i, ri in enumerate(rows) for j in range(len(rows))))


def _identity(name: str, algebra: Algebra, op: Callable[[int, int], int],
              e: int) -> PropertyReport:
    checked = 0
    for x in range(algebra.size):
        checked += 1
        if op(e, x) != x or op(x, e) != x:
            return PropertyReport(name, False, _names(algebra, x), checked,
                                  details={"identity": algebra.name_of(e)})
    return PropertyReport(name, True, None, checked,
                          details={"identity": algebra.name_of(e)})


def _distributivity(algebra: Algebra) -> PropertyReport:
    """i × (j + k) = i×j + i×k (left) and (j + k) × i = j×i + k×i (right)."""
    c = algebra.compiled
    add, mul, mul_t, compose = c.add, c.mul, c.mul_t, c.compose

    def cases():
        for i, (mi, ci) in enumerate(zip(mul, mul_t)):
            for j, aj in enumerate(add):
                yield (i, j), ((compose(mi, aj), compose(add[mi[j]], mi)),
                               (compose(ci, aj), compose(add[ci[j]], ci)))

    return _scan_rows("distributivity", algebra, cases(),
                      details=({"side": "left"}, {"side": "right"}))


def is_multiplicatively_absorbing(algebra: Algebra) -> PropertyReport:
    """⊤ × p = ⊤ = p × ⊤ for every p."""
    top = algebra.top_index
    mul = algebra.mul_i
    checked = 0
    for p in range(algebra.size):
        checked += 1
        if mul(top, p) != top or mul(p, top) != top:
            return PropertyReport("top-absorbing", False, _names(algebra, p), checked)
    return PropertyReport("top-absorbing", True, None, checked)


def check_semiring_axioms(algebra: Algebra) -> list[PropertyReport]:
    """One report per axiom of a commutative semiring with absorbing ⊤."""
    c = algebra.compiled
    return [
        _commutativity("add-commutativity", algebra, c.add, c.add_t),
        _associativity("add-associativity", algebra, c.add),
        _identity("add-identity", algebra, algebra.add_i, algebra.top_index),
        _commutativity("mul-commutativity", algebra, c.mul, c.mul_t),
        _associativity("mul-associativity", algebra, c.mul),
        _identity("mul-identity", algebra, algebra.mul_i, algebra.bot_index),
        _distributivity(algebra),
        is_multiplicatively_absorbing(algebra),
    ]


def is_zerosumfree(algebra: Algebra) -> PropertyReport:
    """p + q = ⊤ forces p = q = ⊤."""
    n = algebra.size
    top = algebra.top_index
    add = algebra.add_i
    checked = 0
    for p in range(n):
        for q in range(n):
            checked += 1
            if add(p, q) == top and not (p == top and q == top):
                return PropertyReport("zerosumfree", False,
                                      _names(algebra, p, q), checked)
    return PropertyReport("zerosumfree", True, None, checked)


def is_entire(algebra: Algebra) -> PropertyReport:
    """p × q = ⊤ forces p = ⊤ or q = ⊤ (no zero divisors)."""
    n = algebra.size
    top = algebra.top_index
    mul = algebra.mul_i
    checked = 0
    for p in range(n):
        for q in range(n):
            checked += 1
            if mul(p, q) == top and p != top and q != top:
                return PropertyReport("entire", False, _names(algebra, p, q), checked)
    return PropertyReport("entire", True, None, checked)


def is_simple(algebra: Algebra) -> PropertyReport:
    """p + ⊥ = ⊥ for every p (⊥ is additively infinite)."""
    bot = algebra.bot_index
    add = algebra.add_i
    checked = 0
    for p in range(algebra.size):
        checked += 1
        if add(p, bot) != bot or add(bot, p) != bot:
            return PropertyReport("simple", False, _names(algebra, p), checked)
    return PropertyReport("simple", True, None, checked)


def compute_center(algebra: Algebra) -> list[Element]:
    """Elements commuting multiplicatively with the whole carrier."""
    c = algebra.compiled
    return [Element(algebra, p) for p in range(c.n) if c.mul[p] == c.mul_t[p]]


def additively_cancellable_elements(algebra: Algebra) -> list[Element]:
    """Elements a with a + x = a + y (either side) forcing x = y."""
    c = algebra.compiled
    return [Element(algebra, a) for a in range(c.n)
            if len(set(c.add[a])) == c.n and len(set(c.add_t[a])) == c.n]
