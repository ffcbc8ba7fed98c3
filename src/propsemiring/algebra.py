"""Finite proposition semirings over explicit carriers.

The arithmetic reads logic with the roles swapped relative to habit:
``+`` is conjunction and ``×`` is disjunction, so the additive identity
(the semiring zero) is the always-true proposition ⊤ and the
multiplicative identity (the one) is the always-false proposition ⊥.
Adding makes a proposition harder to satisfy, multiplying easier.  Every
module in this package relies on these roles; they are fixed here once.

Two carrier representations are provided:

* :class:`FreeBooleanAlgebra` -- all Boolean functions of ``n`` named
  atoms.  An element is its truth table packed into an int: bit ``k``
  holds the value under assignment ``k``, where the binary digits of
  ``k`` assign the atoms (least-significant bit = first atom).  The
  carrier index of an element equals its packed truth table, so carrier
  order is numeric order of truth tables.  Operations are bitwise.
* :class:`TableAlgebra` -- explicit operation tables, usually loaded
  from JSON via :func:`table_semiring`.  Loading enforces only closure
  and the two identity laws; every other axiom is left to the checkers,
  so deliberately broken tables can be built and fed to them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import and_, eq, itemgetter, ne, or_
from typing import Callable, Collection, Iterable, Iterator, Sequence

ADD = "add"
MUL = "mul"

MAX_FREE_ATOMS = 4
MAX_DENSE_CARRIER = 4096  # dense n-by-n structures (tables, order matrices)
MAX_BYTE_CARRIER = 256    # carriers whose indices fit in one byte

DEFAULT_ATOMS = ("a", "b", "c", "d")

_call = itemgetter.__call__  # _call(getter, row) is getter(row)
_BYTE_VALUES = bytes(range(MAX_BYTE_CARRIER))
_ZERO_TO_FF = b"\xff" + bytes(MAX_BYTE_CARRIER - 1)  # translate tables
_ZERO_TO_ONE = b"\1" + bytes(MAX_BYTE_CARRIER - 1)


def _from_bytes(data: bytes) -> int:
    return int.from_bytes(data, "little")


def _byte_table(n: int) -> tuple[int, int]:
    """Two n-by-n byte tables packed into ints, rows end to end: byte
    (x, y) is y in the first and x in the second."""
    return (_from_bytes(_BYTE_VALUES[:n] * n),
            _from_bytes(b"".join([bytes((x,)) * n for x in range(n)])))

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class AlgebraError(Exception):
    """Base class for structural errors raised by this package."""


class DomainError(AlgebraError):
    """An element or relation was used with an algebra it does not belong to."""


class SizeLimitError(AlgebraError):
    """A construction or search exceeds the supported bounds."""


class UnsupportedOperationError(AlgebraError):
    """The algebra lacks the structure needed for the requested operation."""


class TableLoadError(AlgebraError):
    """A table description is malformed; the message names the offending cell."""


class Element:
    """A member of a finite algebra, identified by its carrier index."""

    __slots__ = ("algebra", "index")

    def __init__(self, algebra: "Algebra", index: int):
        self.algebra = algebra
        self.index = index

    @property
    def name(self) -> str:
        return self.algebra.name_of(self.index)

    def bits(self) -> str:
        """Truth table as a 0/1 string, highest assignment first."""
        algebra = self.algebra
        if not isinstance(algebra, FreeBooleanAlgebra):
            raise UnsupportedOperationError(
                "only free-algebra elements carry truth tables")
        return format(self.index, "0%db" % algebra.rows)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Element)
                and other.algebra is self.algebra
                and other.index == self.index)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.index))

    def __repr__(self) -> str:
        return f"Element({self.name!r} in {self.algebra.name})"


class Algebra:
    """Shared carrier/operation surface of the two algebra kinds.

    ``top_index``/``bot_index`` locate ⊤ (additive identity) and ⊥
    (multiplicative identity).  The ``*_i`` methods work on carrier
    indices and are what the exhaustive scans use; the element-level
    methods wrap them with membership checks.
    """

    kind = "table"

    def __init__(self, name: str, top_index: int, bot_index: int,
                 order_matrix: tuple[tuple[int, ...], ...] | None = None,
                 source_spec: str | None = None):
        self.name = name
        self.top_index = top_index
        self.bot_index = bot_index
        self.order_matrix = order_matrix
        self.source_spec = source_spec if source_spec is not None else name

    # -- carrier ---------------------------------------------------------

    @property
    def size(self) -> int:
        raise NotImplementedError

    def name_of(self, index: int) -> str:
        raise NotImplementedError

    def index_of(self, name: str) -> int:
        raise NotImplementedError

    @cached_property
    def name_lookup(self) -> Callable[[int], str]:
        """index ↦ name, read from one tuple of every name on carriers of
        at most :data:`MAX_DENSE_CARRIER` elements."""
        if self.size > MAX_DENSE_CARRIER:
            return self.name_of
        return tuple(map(self.name_of, range(self.size))).__getitem__

    def element(self, index: int) -> Element:
        if not 0 <= index < self.size:
            raise DomainError(f"index {index} outside the carrier of {self.name}")
        return Element(self, index)

    def element_named(self, name: str) -> Element:
        return Element(self, self.index_of(name))

    def elements(self) -> Iterator[Element]:
        for i in range(self.size):
            yield Element(self, i)

    @property
    def top(self) -> Element:
        return Element(self, self.top_index)

    @property
    def bot(self) -> Element:
        return Element(self, self.bot_index)

    # -- operations on carrier indices ------------------------------------

    def add_i(self, i: int, j: int) -> int:
        raise NotImplementedError

    def mul_i(self, i: int, j: int) -> int:
        raise NotImplementedError

    @property
    def has_complement(self) -> bool:
        return False

    def comp_i(self, i: int) -> int:
        raise UnsupportedOperationError(f"{self.name} has no complement")

    def table_rows(self, op: str) -> Iterable[Iterable[int]]:
        """Row i of the table of ``op`` (ADD or MUL) lists i ∘ j by j."""
        raise NotImplementedError

    # -- operations on elements -------------------------------------------

    def _member(self, x: Element) -> int:
        if not isinstance(x, Element) or x.algebra is not self:
            raise DomainError(f"{x!r} does not belong to {self.name}")
        return x.index

    def add(self, x: Element, y: Element) -> Element:
        return Element(self, self.add_i(self._member(x), self._member(y)))

    def mul(self, x: Element, y: Element) -> Element:
        return Element(self, self.mul_i(self._member(x), self._member(y)))

    def combine(self, op: str, x: Element, y: Element) -> Element:
        if op == ADD:
            return self.add(x, y)
        if op == MUL:
            return self.mul(x, y)
        raise DomainError(f"unknown operation {op!r}; expected {ADD!r} or {MUL!r}")

    def complement(self, x: Element) -> Element:
        return Element(self, self.comp_i(self._member(x)))

    @cached_property
    def compiled(self) -> "CompiledTables":
        """Both operation tables as rows, built on first use."""
        return CompiledTables(self)

    # -- serialization ------------------------------------------------------

    def to_table_dict(self) -> dict:
        """Row-major table description, reloadable via table_semiring."""
        n = self.size
        if n > MAX_DENSE_CARRIER:
            raise SizeLimitError(
                f"carrier of {self.name} is too large to materialize tables ({n})")
        names = [self.name_of(i) for i in range(n)]
        doc: dict = {
            "name": self.name,
            "elements": names,
            "add": [list(map(names.__getitem__, row))
                    for row in self.table_rows(ADD)],
            "mul": [list(map(names.__getitem__, row))
                    for row in self.table_rows(MUL)],
            "zero": names[self.top_index],
            "one": names[self.bot_index],
        }
        if self.has_complement:
            doc["complement"] = [names[self.comp_i(i)] for i in range(n)]
        if self.order_matrix is not None:
            doc["order"] = [list(row) for row in self.order_matrix]
        return doc

    def summary(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "size": self.size,
            "top": self.name_of(self.top_index),
            "bot": self.name_of(self.bot_index),
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} size={self.size}>"


def row_type(n: int) -> type:
    """Rows over n elements are bytes when each index fits in one byte."""
    return bytes if n <= MAX_BYTE_CARRIER else tuple


def transposed(rows: Sequence) -> list:
    """The columns of the rows of a matrix, of the rows' type: strided
    slices of the joined rows when they are bytes, else tuples from
    ``zip``; either way in C."""
    if isinstance(rows[0], bytes):
        joined, width = b"".join(rows), len(rows[0])
        return [joined[j::width] for j in range(width)]
    return list(zip(*rows))


class CompiledTables:
    """The operation tables of an algebra as one row per element.

    ``add[i][j]`` is i + j and ``mul[i][j]`` is i × j; ``add_t`` and
    ``mul_t`` are their :func:`transposed` columns, so ``add_t[j][i]`` is
    also i + j, and ``comp`` is the complement row (None without a
    complement).  Rows are ``bytes`` when the carrier fits in a byte, so
    that :meth:`compose` runs whole rows through ``bytes.translate`` in
    C, and tuples up to :data:`MAX_DENSE_CARRIER`.

    :meth:`generators` gives a generating set of each operation,
    ``associative`` holds Light's associativity verdict per operation
    (``properties._associative``), and ``canonical_rows`` the rows
    p + q = q; each is computed once per algebra.
    """

    def __init__(self, algebra: Algebra):
        n = algebra.size
        if n > MAX_DENSE_CARRIER:
            raise SizeLimitError(
                f"carrier of {algebra.name} has {n} elements; compiled "
                f"operation tables are limited to {MAX_DENSE_CARRIER}")
        self.n = n
        self.row = row_type(n)
        self.add = list(map(self.row, algebra.table_rows(ADD)))
        self.mul = list(map(self.row, algebra.table_rows(MUL)))
        self.add_t = transposed(self.add)
        self.mul_t = transposed(self.mul)
        self.comp = (self.row(map(algebra.comp_i, range(n)))
                     if algebra.has_complement else None)
        self._irreducible: dict[str, frozenset[int]] = {}
        self._generators: dict[str, tuple[int, ...]] = {}
        self.associative: dict[str, bool] = {}

    @cached_property
    def canonical_rows(self) -> tuple:
        """Per p, the 0/1 byte row that is 1 at q iff p + q = q: the
        canonical order where + is idempotent and commutative."""
        return tuple(map(self.equal, self.add,
                         repeat(self.row(range(self.n)))))

    def tables(self, op: str) -> tuple[list, list]:
        """The rows and the columns of ``op`` (ADD or MUL)."""
        return (self.add, self.add_t) if op == ADD else (self.mul, self.mul_t)

    def irreducible(self, op: str) -> frozenset[int]:
        """The elements v that are no product x ∘ y with x ≠ v ≠ y, found
        in C: on byte rows, each product x ∘ y = y becomes x, and v is
        then a product of two others iff it occurs outside row v; on tuple
        rows, per row x, the products at the columns y ≠ x ∘ y."""
        if op not in self._irreducible:
            n, rows = self.n, self.tables(op)[0]
            carrier = range(n)
            if self.row is bytes:
                table = _from_bytes(b"".join(rows))
                columns, own = _byte_table(n)
                fixed = (table ^ columns).to_bytes(n * n, "little").translate(
                    _ZERO_TO_FF)  # 255 where x ∘ y = y
                find = (table ^ (table ^ own) & _from_bytes(fixed)).to_bytes(
                    n * n, "little").find
                irreducible = frozenset(v for v in carrier if find(v, 0, v * n)
                                        < 0 and find(v, v * n + n) < 0)
            else:
                products = set()
                for x, row in enumerate(rows):
                    found = set(compress(row, map(ne, row, carrier)))
                    found.discard(x)
                    products |= found
                irreducible = frozenset(carrier).difference(products)
            self._irreducible[op] = irreducible
        return self._irreducible[op]

    def closure(self, seeds: Iterable[int], sides: Sequence[Sequence],
                preferred: frozenset[int]
                ) -> tuple[list[int], list[tuple], list[int]]:
        """The generators, steps and stage starts of a closure of ``seeds``
        under ``sides``, tables whose row x lists x ∘ y by y.

        Each element reached is composed once, on whole rows in C, with all
        reached so far, so a side whose rows differ needs its transpose
        too.  At a stall the least unreached element of ``preferred``, else
        the least, is the next generator: preferring the irreducibles keeps
        the generator count of a finite semilattice under relabelling, as
        it is their sums.  A step (e, k, x, y) records that e =
        sides[k][x][y] was reached first that way; steps are in discovery
        order, e ascending within one side of one x.  Generator i's stage
        is the steps from ``starts[i]`` up to the next start; the steps
        before ``starts[0]`` compose the seeds alone.  At a stall every
        reached element has met every other on every side, so the reached
        set is closed: the subalgebra generated so far.
        """
        reached = list(dict.fromkeys(seeds))
        unreached = set(range(self.n)).difference(reached)
        generators, steps, starts = [], [], []
        done = 0  # reached[:done] have been composed
        while unreached:
            if done == len(reached):  # stalled: the next generator
                starts.append(len(steps))
                generators.append(min(unreached & preferred or unreached))
                reached.append(generators[-1])
                unreached.remove(generators[-1])
            x, earlier = reached[done], self.row(reached)
            done += 1
            for k, rows in enumerate(sides):
                values = self.compose(rows[x], earlier)
                found = sorted(unreached.intersection(values))
                if found:  # the first y of each value wins, read backwards
                    first = dict(zip(reversed(values), reversed(earlier)))
                    steps.extend((e, k, x, first[e]) for e in found)
                    unreached.difference_update(found)
                    reached.extend(found)
        return generators, steps, starts

    def generators(self, op: str) -> tuple[int, ...]:
        """A generating set of ``op``, ascending: the irreducible elements
        and the generators of their :meth:`closure` under ``op``."""
        if op not in self._generators:
            seeds = sorted(self.irreducible(op))
            self._generators[op] = tuple(sorted(
                seeds + self.closure(seeds, self.tables(op), frozenset())[0]))
        return self._generators[op]

    def indicator(self, members: Iterable[int]) -> bytes:
        """The 0/1 byte row that is 1 exactly at ``members``."""
        if self.row is bytes:  # in C: maketrans lets the last pair win
            members = bytes(members)
            return bytes.maketrans(_BYTE_VALUES + members,
                                   bytes(MAX_BYTE_CARRIER) + b"\1" * len(members)
                                   )[:self.n]
        return bytes(map(set(members).__contains__, range(self.n)))

    def slab(self, rows: Iterable):
        """The rows of this carrier as one slab, row by row: ``bytes`` rows
        end to end, tuple rows as a tuple of the rows, which copies no
        entry (``properties._first_difference`` reads both kinds)."""
        return b"".join(rows) if self.row is bytes else tuple(rows)

    def composer(self, rows: Sequence) -> Callable:
        """The map outer ↦ slab(compose(outer, row) for row in rows), for a
        row ``outer`` of this carrier; it stays in C: one
        ``bytes.translate`` over the joined rows, or one ``itemgetter``
        per tuple row, built here once."""
        if self.row is bytes:
            translate = b"".join(rows).translate
            return lambda outer: translate(outer.ljust(MAX_BYTE_CARRIER, b"\0"))
        getters = [itemgetter(*row) for row in rows]
        return lambda outer: tuple(map(_call, getters, repeat(outer)))

    @staticmethod
    def compose(outer, inner):
        """The row k ↦ outer[inner[k]], of the type of ``outer``; either
        row may be bytes or a tuple, and come from any carrier."""
        try:  # both bytes and outer at most 256 long: one C call
            return inner.translate(outer.ljust(MAX_BYTE_CARRIER, b"\0"))
        except (AttributeError, ValueError):  # a tuple, or outer is longer
            return type(outer)(itemgetter(*inner)(outer) if len(inner) > 1
                               else [outer[k] for k in inner])

    @staticmethod
    def equal(x, y) -> bytes:
        """The 0/1 byte row that is 1 where rows ``x`` and ``y``, of one
        length, are equal; either may be bytes or a tuple."""
        if isinstance(x, bytes) and isinstance(y, bytes):
            # XOR as ints: the zero bytes, where x and y agree, become 1
            return (_from_bytes(x) ^ _from_bytes(y)).to_bytes(
                len(x), "little").translate(_ZERO_TO_ONE)
        return bytes(map(eq, x, y))

    @staticmethod
    def concat(rows: Sequence):
        """The rows end to end, bytes when they are bytes, else a tuple;
        ``rows`` is a sequence, since the bytes attempt reads it first."""
        try:
            return b"".join(rows)
        except TypeError:
            return tuple(chain.from_iterable(rows))


class FreeBooleanAlgebra(Algebra):
    """All Boolean functions of the given atoms, operations bitwise.

    ``+`` is bitwise AND of truth tables, ``×`` bitwise OR, complement
    bitwise NOT.  ⊤ is the all-ones table, ⊥ the all-zeros table.
    """

    kind = "free"

    def __init__(self, atoms: tuple[str, ...]):
        n = len(atoms)
        self.atoms = atoms
        self.n_atoms = n
        self.rows = 1 << n                 # number of atom assignments
        self.mask = (1 << self.rows) - 1   # all-ones truth table
        super().__init__(name=f"free:{n}", top_index=self.mask, bot_index=0,
                         source_spec=f"free:{n}")
        self._atom_values = tuple(self._atom_bits(i) for i in range(n))
        self._special_names: dict[int, str] = {0: "⊥", self.mask: "⊤"}
        for i, atom in enumerate(atoms):
            self._special_names[self._atom_values[i]] = atom
            self._special_names[self.mask ^ self._atom_values[i]] = "!" + atom
        self._lookup: dict[str, int] | None = None

    def _atom_bits(self, idx: int) -> int:
        v = 0
        for k in range(self.rows):
            if (k >> idx) & 1:
                v |= 1 << k
        return v

    @property
    def size(self) -> int:
        return self.mask + 1

    def name_of(self, index: int) -> str:
        special = self._special_names.get(index)
        if special is not None:
            return special
        return format(index, "0%db" % self.rows)

    def index_of(self, name: str) -> int:
        if self._lookup is None:
            lookup = {"top": self.mask, "bot": 0}
            for index, special in self._special_names.items():
                lookup[special] = index
            self._lookup = lookup
        index = self._lookup.get(name)
        if index is not None:
            return index
        if len(name) == self.rows and set(name) <= {"0", "1"}:
            return int(name, 2)
        raise DomainError(f"{name!r} names no element of {self.name}")

    def atom_value(self, i: int) -> int:
        return self._atom_values[i]

    add_i = staticmethod(and_)
    mul_i = staticmethod(or_)

    def table_rows(self, op: str) -> list[bytes]:
        """One bitwise operation on the byte tables of :func:`_byte_table`,
        cut into rows (compiled tables refuse free:4 before reading them)."""
        n = self.size
        table = (and_ if op == ADD else or_)(*_byte_table(n)).to_bytes(
            n * n, "little")
        return [table[x * n:x * n + n] for x in range(n)]

    @property
    def has_complement(self) -> bool:
        return True

    def comp_i(self, i: int) -> int:
        return self.mask ^ i


class TableAlgebra(Algebra):
    """A finite semiring candidate given by explicit operation tables."""

    kind = "table"

    def __init__(self, name: str, names: tuple[str, ...],
                 add_rows: tuple[tuple[int, ...], ...],
                 mul_rows: tuple[tuple[int, ...], ...],
                 top_index: int, bot_index: int,
                 comp_row: tuple[int, ...] | None = None,
                 order_matrix: tuple[tuple[int, ...], ...] | None = None,
                 source_spec: str | None = None):
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self.add_rows = add_rows
        self.mul_rows = mul_rows
        self.comp_row = comp_row
        super().__init__(name=name, top_index=top_index, bot_index=bot_index,
                         order_matrix=order_matrix, source_spec=source_spec)

    @property
    def size(self) -> int:
        return len(self.names)

    def name_of(self, index: int) -> str:
        return self.names[index]

    def index_of(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            if name == "top":
                return self.top_index
            if name == "bot":
                return self.bot_index
            raise DomainError(f"{name!r} names no element of {self.name}")
        return index

    def add_i(self, i: int, j: int) -> int:
        return self.add_rows[i][j]

    def mul_i(self, i: int, j: int) -> int:
        return self.mul_rows[i][j]

    def table_rows(self, op: str) -> tuple[tuple[int, ...], ...]:
        return self.add_rows if op == ADD else self.mul_rows

    @property
    def has_complement(self) -> bool:
        return self.comp_row is not None

    def comp_i(self, i: int) -> int:
        if self.comp_row is None:
            raise UnsupportedOperationError(f"{self.name} has no complement")
        return self.comp_row[i]


def free_boolean_algebra(n_atoms: int,
                         atoms: Iterable[str] | None = None) -> FreeBooleanAlgebra:
    """The free Boolean algebra on ``n_atoms`` atoms (carrier size 2^(2^n)).

    Atom names default to a, b, c, d and are always sorted lexically;
    assignment ``k`` reads its binary digits onto the sorted atoms,
    least-significant bit first.
    """
    if not 0 <= n_atoms <= MAX_FREE_ATOMS:
        raise SizeLimitError(
            f"atom count {n_atoms} outside the supported range 0..{MAX_FREE_ATOMS}")
    if atoms is None:
        atom_tuple = DEFAULT_ATOMS[:n_atoms]
    else:
        atom_list = list(atoms)
        if len(atom_list) != n_atoms:
            raise DomainError(
                f"expected {n_atoms} atom names, got {len(atom_list)}")
        for atom in atom_list:
            if not isinstance(atom, str) or not _IDENT_RE.match(atom):
                raise DomainError(f"atom name {atom!r} is not an identifier")
        if len(set(atom_list)) != len(atom_list):
            raise DomainError("atom names must be distinct")
        atom_tuple = tuple(sorted(atom_list))
    return FreeBooleanAlgebra(atom_tuple)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TableLoadError(message)


def _indices(cells: list, index: dict[str, int],
             where: str) -> tuple[int, ...]:
    """The indices of the element names ``cells``, mapped in C.  At the
    first cell that names no element, TableLoadError cites it as
    ``where[position]``."""
    try:
        return tuple(map(index.__getitem__, cells))
    except (KeyError, TypeError):  # a missing or an unhashable cell
        for c, cell in enumerate(cells):
            _require(isinstance(cell, str) and cell in index,
                     f"{where}[{c}] = {cell!r} is not an element")
        raise


def _load_rows(doc: dict, key: str, names: tuple[str, ...],
               index: dict[str, int]) -> tuple[tuple[int, ...], ...]:
    table = doc.get(key)
    n = len(names)
    _require(isinstance(table, list) and len(table) == n,
             f"'{key}' must be a list of {n} rows")
    rows = []
    for r, row in enumerate(table):
        _require(isinstance(row, list) and len(row) == n,
                 f"{key}[{r}] must be a list of {n} entries")
        rows.append(_indices(row, index, f"{key}[{r}]"))
    return tuple(rows)


def _check_identity_laws(names: tuple[str, ...], add_rows, mul_rows,
                         zi: int, oi: int) -> None:
    """Raise TableLoadError at the first cell where element ``zi`` is no
    additive or ``oi`` no multiplicative identity of the index tables."""
    laws = (("add", add_rows, zi), ("mul", mul_rows, oi))
    for x in range(len(names)):
        for key, rows, e in laws:
            for i, j in ((e, x), (x, e)):  # e ∘ x, then x ∘ e
                _require(rows[i][j] == x,
                         f"identity law broken at {key}[{names[i]!r}]"
                         f"[{names[j]!r}] = {names[rows[i][j]]!r}, "
                         f"expected {names[x]!r}")


def table_semiring(doc: dict, source_spec: str | None = None) -> TableAlgebra:
    """Build a TableAlgebra from a row-major JSON-style description.

    Only closure (every cell names an element) and the two identity laws
    (zero is the additive identity, one the multiplicative) are enforced
    here.  Associativity, commutativity, distributivity and absorption
    are judged by the checkers so that broken tables remain loadable.
    """
    _require(isinstance(doc, dict), "table description must be an object")
    name = doc.get("name")
    _require(isinstance(name, str) and name != "", "'name' must be a non-empty string")
    elements = doc.get("elements")
    _require(isinstance(elements, list) and elements != [],
             "'elements' must be a non-empty list")
    _require(all(isinstance(e, str) and e != "" for e in elements),
             "'elements' entries must be non-empty strings")
    _require(len(set(elements)) == len(elements), "'elements' must be distinct")
    _require(len(elements) <= MAX_DENSE_CARRIER,
             f"carrier size {len(elements)} exceeds the table limit {MAX_DENSE_CARRIER}")
    names = tuple(elements)
    index = {n: i for i, n in enumerate(names)}

    add_rows = _load_rows(doc, "add", names, index)
    mul_rows = _load_rows(doc, "mul", names, index)

    zero = doc.get("zero")
    one = doc.get("one")
    _require(isinstance(zero, str) and zero in index,
             f"'zero' = {zero!r} is not an element")
    _require(isinstance(one, str) and one in index,
             f"'one' = {one!r} is not an element")
    zi, oi = index[zero], index[one]
    _check_identity_laws(names, add_rows, mul_rows, zi, oi)

    comp_row = None
    if "complement" in doc:
        comp = doc["complement"]
        _require(isinstance(comp, list) and len(comp) == len(names),
                 f"'complement' must list {len(names)} elements")
        comp_row = _indices(comp, index, "complement")

    order_matrix = None
    if "order" in doc:
        order = doc["order"]
        n = len(names)
        _require(isinstance(order, list) and len(order) == n,
                 f"'order' must be a {n}x{n} 0/1 matrix")
        rows = []
        for r, row in enumerate(order):
            _require(isinstance(row, list) and len(row) == n,
                     f"order[{r}] must have {n} entries")
            _require(all(cell in (0, 1) for cell in row),
                     f"order[{r}] entries must be 0 or 1")
            rows.append(tuple(row))
        order_matrix = tuple(rows)

    return TableAlgebra(name=name, names=names, add_rows=add_rows,
                        mul_rows=mul_rows, top_index=zi, bot_index=oi,
                        comp_row=comp_row, order_matrix=order_matrix,
                        source_spec=source_spec)


@dataclass(frozen=True)
class Subalgebra:
    """A subset of a carrier closed under the chosen operations."""

    parent: Algebra
    members: tuple[int, ...]  # sorted carrier indices

    @property
    def size(self) -> int:
        return len(self.members)

    def elements(self) -> list[Element]:
        return [Element(self.parent, i) for i in self.members]

    def element_names(self) -> list[str]:
        return [self.parent.name_of(i) for i in self.members]

    def closure_defect(self, bpa_closed: bool = False) -> str | None:
        """Description of the first closure violation, None when closed."""
        algebra = self.parent
        if algebra.top_index not in self.members:
            return "⊤ is missing"
        if algebra.bot_index not in self.members:
            return "⊥ is missing"
        name_of = algebra.name_of
        for i, symbol, *j, r in _escapes(algebra, self.members, bpa_closed):
            term = (f"{name_of(i)} {symbol} {name_of(*j)}" if j
                    else f"!{name_of(i)}")
            return f"{term} = {name_of(r)} escapes"
        return None

    def validate(self, bpa_closed: bool = False) -> None:
        defect = self.closure_defect(bpa_closed)
        if defect is not None:
            raise DomainError(f"not a subalgebra of {self.parent.name}: {defect}")


def subalgebra_closure(algebra: Algebra, generators: Iterable[Element],
                       bpa_closed: bool = True) -> Subalgebra:
    """Close the generators (plus ⊤ and ⊥) under the operation tables.

    With ``bpa_closed`` the complement is applied as well, which needs an
    algebra that has one.  The closure is the least fixed point of
    repeated table application.
    """
    if bpa_closed and not algebra.has_complement:
        raise UnsupportedOperationError(
            f"{algebra.name} has no complement; cannot close as a BPA")
    members = {algebra.top_index, algebra.bot_index,
               *map(algebra._member, generators)}
    while escaped := {e[-1] for e in _escapes(algebra, members, bpa_closed)}:
        members |= escaped
    return Subalgebra(parent=algebra, members=tuple(sorted(members)))


def _escapes(algebra: Algebra, members: Collection[int],
             bpa_closed: bool) -> Iterator[tuple]:
    """Each sum and product of ``members`` outside them as (i, symbol, j,
    i ∘ j), by i, then j, then + before ×, and then with ``bpa_closed``
    each complement outside them as (i, "!", !i); on scalar operations."""
    inside = set(members)
    operations = (("+", algebra.add_i), ("×", algebra.mul_i))
    for i in members:
        for j in members:
            for symbol, op in operations:
                if (r := op(i, j)) not in inside:
                    yield i, symbol, j, r
    if bpa_closed:
        for i in members:
            if (c := algebra.comp_i(i)) not in inside:
                yield i, "!", c
