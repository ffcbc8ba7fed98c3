"""Exact semiring-axiom and classification checkers.

Every checker decides its law over the whole carrier and returns a
PropertyReport.  A fails verdict always carries the first witness in
lexicographic order, so re-running the cited elements through the
operation tables reproduces the violated equation; these checkers double
as the oracle for every claim about an instance.

Every law of n² or more tuples, here and in the other modules, runs on
compiled rows through :func:`_scan_rows`, which compares whole rows over
the last index of the tuple and derives the witness and ``checked`` from
the position of the first violation.

A law of n³ tuples that holds is decided on a generating set G of one
operation (``CompiledTables.generators``), where it holds exactly when
it holds everywhere.  Associativity holds iff (g∘y)∘z = g∘(y∘z) for
every g in G and all y, z, by Light's test (:func:`_associative`); once ×
is associative, distributivity holds iff it holds at every i in G×, and
once ∘ is associative, monotony in one argument of ∘ (``order``) holds
iff it holds at every r in G∘, since in each case the elements where the
law holds are closed under the operation.  A holding law reports every
tuple it covers as ``checked``.  Where that test fails, or its premise
does, the scan below decides the law and names the first witness, so
verdicts, witnesses and ``checked`` do not depend on G.

A scanned law of n³ tuples decides each outer index at once.
Associativity and distributivity compare one slab per index: all its n²
positions (j, k) in scan order, in a few C calls, in bands of at most
2¹⁶ positions above 256 elements (:func:`_bands`), so the first
differing position still names the witness.  Monotony and bound
decomposition (``order``) and translation invariance (``differences``)
decide an index by set inclusions on packed or byte rows instead; an
index that holds is one case with no sides, and the first that fails
runs its cases (p, q), which name the witness.  Pairwise monotony
(``order``) reduces to monotony in each argument where the order is
transitive, and otherwise compares one slab per pair (p, q) over its n²
positions (r, s).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .algebra import ADD, MUL, Algebra, CompiledTables, Element, _from_bytes

# positions of a row band: at least this many after the first band of a
# map check, at most this many in any band
MIN_BAND_POSITIONS = 1 << 8
BAND_POSITIONS = 1 << 16


@dataclass
class PropertyReport:
    """Outcome of one exhaustive check.

    ``witness`` holds element names; ``checked`` counts the tuples the
    verdict covers: those of the scan up to and including the first
    witness when the property fails, and every tuple of the law when it
    holds, also where a generating set or a reduction decided it
    without scanning them.
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

    A vector is a sequence, an int packing one byte per position as
    ``int.from_bytes(row, "little")`` does (position k is bit 8k), or a
    slab of tuple rows (a tuple of equal-length tuples, see
    ``CompiledTables.slab``) whose positions run row by row.  Every
    search stays in C, so a long row costs no Python step per position.
    """
    if a == b:
        return None
    if isinstance(a, bytes):
        a, b = _from_bytes(a), _from_bytes(b)
    if isinstance(a, int):
        d = a ^ b
        return ((d & -d).bit_length() - 1) >> 3
    lo, hi = 0, len(a)  # a[:lo] == b[:lo]; they differ in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    if isinstance(a[lo], tuple):  # the first differing row of a slab
        return lo * len(a[lo]) + _first_difference(a[lo], b[lo])
    return lo


class _Band:
    """The positions (a, b) of rows [a0, a1) by n columns, row by row."""

    __slots__ = ("a0", "a1", "n")

    def __init__(self, a0: int, a1: int, n: int):
        self.a0, self.a1, self.n = a0, a1, n

    def __len__(self) -> int:
        return (self.a1 - self.a0) * self.n

    def __getitem__(self, k: int) -> tuple[int, int]:
        a, b = divmod(k, self.n)
        return self.a0 + a, b


@lru_cache(maxsize=64)
def _bands(n: int, rows: int = 1) -> tuple[tuple[int, int, _Band], ...]:
    """(a0, a1, positions) of the row bands [a0, a1) of an n-by-n scan.

    The first band holds ``rows`` rows; each later band holds twice the
    positions of the one before, at least MIN_BAND_POSITIONS, and no band
    more than BAND_POSITIONS (but at least one row).  A map check starts
    from row 0, so a map that fails in row a costs O(a) and one that
    holds about log₂ n + 1 bands (on a 256-element carrier they hold 1,
    2, 4, … rows); a law's slab asks for all n rows, so it is one band up
    to 256 elements and bands of 2¹⁶ positions above.
    """
    bands, a0, size = [], 0, rows * n
    while a0 < n:
        a1 = min(a0 + max(1, min(size, BAND_POSITIONS) // n), n)
        bands.append((a0, a1, _Band(a0, a1, n)))
        a0, size = a1, min(max(2 * size, MIN_BAND_POSITIONS), BAND_POSITIONS)
    return tuple(bands)


def _scan_rows(name: str, name_of: Callable, cases: Iterable) -> PropertyReport:
    """Verdict of a law stated as equations between row vectors.

    ``cases`` yields ``(prefix, domain, sides)`` in scan order: the
    leading indices of the tuple, the elements that the positions of the
    case's rows stand for, and per side of the law a triple
    ``(a, b, details)`` of two row vectors that the law makes equal and
    the details to report when they differ.  The law fails at the first
    case and the first position k where some pair differs; at equal k the
    earlier side wins.  The witness is the prefix and ``domain[k]``, which
    is spread when it is a tuple of indices, each passed through
    ``name_of``; ``checked`` counts the domains of the earlier cases plus
    k + 1.  A case with no sides holds: an index already decided at once
    counts its tuples through the length of its domain.
    """
    checked = 0
    for prefix, domain, sides in cases:
        for a, b, _ in sides:
            if a != b:
                break
        else:
            checked += len(domain)
            continue
        k, side = min((_first_difference(a, b), side)
                      for side, (a, b, _) in enumerate(sides) if a != b)
        details = sides[side][2]
        position = domain[k]
        if not isinstance(position, tuple):
            position = (position,)
        return PropertyReport(name, False,
                              tuple(map(name_of, (*prefix, *position))),
                              checked + k + 1,
                              details=dict(details) if details else None)
    return PropertyReport(name, True, None, checked)


def _holds(cases: Iterable) -> bool:
    """Whether every side of every :func:`_scan_rows` case is equal."""
    return all(a == b for _, _, sides in cases for a, b, _ in sides)


def _commutativity(name: str, name_of: Callable, rows, cols) -> PropertyReport:
    carrier = range(len(rows))
    return _scan_rows(name, name_of,
                      (((i,), carrier, ((row, cols[i], None),))
                       for i, row in enumerate(rows)))


def _slabs(c, rows) -> list:
    """(rows, positions, composer) per band of a slab over positions
    (j, k): one band up to 256 elements, bands of BAND_POSITIONS above;
    ``rows`` is the band's slice of j and ``composer`` is ``c.composer``
    of the band's rows."""
    return [(slice(a0, a1), positions, c.composer(rows[a0:a1]))
            for a0, a1, positions in _bands(c.n, c.n)]


def _associativity_cases(c: CompiledTables, op: str, outer: Iterable[int]):
    """Per i in ``outer``, one slab per band over the positions (j, k):
    row i∘j of the table against row i composed with row j."""
    rows, slab = c.tables(op)[0], c.slab
    row, slabs = rows.__getitem__, _slabs(c, rows)
    for i in outer:
        for band, positions, composed in slabs:
            yield (i,), positions, ((slab(map(row, rows[i][band])),
                                     composed(rows[i]), None),)


def _associative(c: CompiledTables, op: str) -> bool:
    """Whether ``op`` is associative, by Light's test (Clifford & Preston,
    1961, §1.2) on left elements: the x with (x∘y)∘z = x∘(y∘z) for all
    y, z are closed under ∘, since for two of them, x1 and x2,
    ((x1∘x2)∘y)∘z = (x1∘(x2∘y))∘z = x1∘((x2∘y)∘z) = x1∘(x2∘(y∘z)) =
    (x1∘x2)∘(y∘z).  So it suffices that each x of a generating set passes
    its case of :func:`_associativity`.  Decided once per operation and
    kept in ``c.associative``.
    """
    if op not in c.associative:
        c.associative[op] = _holds(_associativity_cases(c, op, c.generators(op)))
    return c.associative[op]


def _associativity(name: str, algebra: Algebra, op: str) -> PropertyReport:
    """(i∘j)∘k = i∘(j∘k) for the operation ``op`` (ADD or MUL): over all
    n³ tuples where :func:`_associative` holds, else every i runs its
    case and the first difference names the witness."""
    c = algebra.compiled
    if _associative(c, op):
        return PropertyReport(name, True, None, c.n ** 3)
    return _scan_rows(name, algebra.name_of,
                      _associativity_cases(c, op, range(c.n)))


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
    """i × (j + k) = i×j + i×k (left) and (j + k) × i = j×i + k×i (right).

    Each i is one slab per band of positions (j, k): the sums j + k
    composed into row i (column i on the right) against the rows
    k ↦ v + i×k (v + k×i), each built once per value v = i×j (j×i) when
    a band first needs it.  Where column i equals row i, both laws share
    the slabs.  When × is associative, the i for which both laws hold
    are closed under ×, so the law holds over all n³ tuples once it
    holds for each i of the generating set of ×; otherwise every i is
    scanned and the first difference names the witness.
    """
    c = algebra.compiled
    add, compose, slab = c.add, c.compose, c.slab
    left, right = {"side": "left"}, {"side": "right"}

    def cases(outer):
        slabs = _slabs(c, add)
        for i in outer:
            mi, ci = c.mul[i], c.mul_t[i]
            rows = [(mi, {})] if mi == ci else [(mi, {}), (ci, {})]
            for band, positions, of_sums in slabs:
                sides = []
                for row, after in rows:
                    for v in set(row[band]).difference(after):
                        after[v] = compose(add[v], row)
                    sides.append((of_sums(row),
                                  slab(map(after.__getitem__, row[band]))))
                (l, r), (l_t, r_t) = sides[0], sides[-1]
                yield (i,), positions, ((l, r, left), (l_t, r_t, right))

    if _associative(c, MUL) and _holds(cases(c.generators(MUL))):
        return PropertyReport("distributivity", True, None, c.n ** 3)
    return _scan_rows("distributivity", algebra.name_of, cases(range(c.n)))


def is_multiplicatively_absorbing(algebra: Algebra) -> PropertyReport:
    """⊤ × p = ⊤ = p × ⊤ for every p."""
    return _two_sided("top-absorbing", algebra, algebra.mul_i,
                      algebra.top_index, absorbing=True)


def check_semiring_axioms(algebra: Algebra) -> list[PropertyReport]:
    """One report per axiom of a commutative semiring with absorbing ⊤."""
    c = algebra.compiled
    return [
        _commutativity("add-commutativity", algebra.name_of, c.add, c.add_t),
        _associativity("add-associativity", algebra, ADD),
        _two_sided("add-identity", algebra, algebra.add_i, algebra.top_index,
                   details={"identity": algebra.name_of(algebra.top_index)}),
        _commutativity("mul-commutativity", algebra.name_of, c.mul, c.mul_t),
        _associativity("mul-associativity", algebra, MUL),
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
        for p, hits in enumerate(_from_bytes(c.compose(is_top, row)) for row in rows)))


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
