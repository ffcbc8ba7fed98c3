"""Reference algebra for the benchmark's correctness checks.

Everything here is written from the definitions (modular arithmetic,
subsets of a finite set, truth tables evaluated row by row) and never
imports propsemiring, so agreement with the program's reports is
evidence rather than the program confirming itself.

Roles follow the workbench: ``+`` is AND with identity ⊤ (the semiring
zero) and ``×`` is OR with identity ⊥ (the semiring one).  A Boolean
carrier is the set of subsets of ``points`` points, each subset a bit
mask; a free algebra on n atoms is the Boolean carrier over its 2^n
truth-table rows.
"""

from __future__ import annotations

import itertools
import math
import random


class OracleMismatch(Exception):
    """The program's output disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


class Carrier:
    """A finite carrier: values, their names and the two operations."""

    def __init__(self, name, values, add, mul, zero, one, comp=None,
                 points=None, names=None):
        self.name = name
        self.values = list(values)
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.comp = comp
        self.points = points          # Boolean carriers only
        self.order = self.values      # carrier order the program sees
        self._name = names or {}
        self._value = {n: v for v, n in self._name.items()}

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def boolean(self) -> bool:
        return self.points is not None

    def leq(self, p, q) -> bool:
        """The canonical order p ≼ q iff p + q = q."""
        return self.add(p, q) == q

    def name_of(self, value) -> str:
        return self._name[value]

    def value_of(self, name: str):
        try:
            return self._value[name]
        except KeyError:
            raise OracleMismatch(f"{name!r} names no element of {self.name}")

    def to_table(self, rng: random.Random | None = None) -> dict:
        """Table JSON in a (seeded) shuffled element order."""
        order = list(self.values)
        if rng is not None:
            rng.shuffle(order)
        self.order = order
        nm = self._name
        doc = {
            "name": self.name,
            "elements": [nm[v] for v in order],
            "add": [[nm[self.add(x, y)] for y in order] for x in order],
            "mul": [[nm[self.mul(x, y)] for y in order] for x in order],
            "zero": nm[self.zero],
            "one": nm[self.one],
        }
        if self.comp is not None:
            doc["complement"] = [nm[self.comp(x)] for x in order]
        return doc


def _relabel(values, rng: random.Random, prefix: str) -> dict:
    labels = list(range(len(values)))
    if rng is not None:
        rng.shuffle(labels)
    return {v: f"{prefix}{label}" for v, label in zip(values, labels)}


def boolean_table(points: int, rng: random.Random | None = None) -> Carrier:
    """Subsets of ``points`` points: + is ∩, × is ∪, ⊤ the full set."""
    full = (1 << points) - 1
    values = range(1 << points)
    return Carrier(f"bool{points}", values, lambda x, y: x & y,
                   lambda x, y: x | y, full, 0, lambda x: full ^ x,
                   points=points, names=_relabel(values, rng, "b"))


def zmod(n: int, rng: random.Random | None = None) -> Carrier:
    values = range(n)
    return Carrier(f"z{n}", values, lambda x, y: (x + y) % n,
                   lambda x, y: (x * y) % n, 0, 1 % n,
                   names=_relabel(values, rng, "z"))


def product(m: int, k: int, rng: random.Random | None = None) -> Carrier:
    """ℤm × 2^k, componentwise; the Boolean factor has k points."""
    full = (1 << k) - 1
    values = [(a, s) for a in range(m) for s in range(1 << k)]
    return Carrier(f"z{m}x2^{k}", values,
                   lambda x, y: ((x[0] + y[0]) % m, x[1] & y[1]),
                   lambda x, y: ((x[0] * y[0]) % m, x[1] | y[1]),
                   (0, full), (1 % m, 0), names=_relabel(values, rng, "p"))


class FreeCarrier(Carrier):
    """The free algebra on n atoms, named as the workbench documents it.

    Bit k of an element is its value under assignment k, whose binary
    digits assign the sorted atoms (first atom least significant).  Names
    are ⊤, ⊥, an atom, ! and an atom, or the truth table as a 0/1 string
    with the highest assignment first.
    """

    ATOMS = ("a", "b", "c", "d")

    def __init__(self, n: int):
        rows = 1 << n
        full = (1 << rows) - 1
        super().__init__(f"free:{n}", range(1 << rows), lambda x, y: x & y,
                         lambda x, y: x | y, full, 0, lambda x: full ^ x,
                         points=rows)
        self.rows = rows
        self.special = {"⊤": full, "⊥": 0}
        for i, atom in enumerate(self.ATOMS[:n]):
            bits = atom_bits(i, rows)
            self.special[atom] = bits
            self.special["!" + atom] = full ^ bits

    def name_of(self, value: int) -> str:
        return format(value, f"0{self.rows}b")

    def value_of(self, name: str) -> int:
        if name in self.special:
            return self.special[name]
        if len(name) == self.rows and set(name) <= {"0", "1"}:
            return int(name, 2)
        raise OracleMismatch(f"{name!r} names no element of {self.name}")


def atom_bits(i: int, rows: int) -> int:
    """Truth table of atom i: true exactly on assignments with bit i set."""
    return sum(1 << k for k in range(rows) if (k >> i) & 1)


# -- laws -------------------------------------------------------------------

def _law_predicates(c: Carrier) -> dict:
    add, mul, zero, one = c.add, c.mul, c.zero, c.one
    return {
        "add-commutativity": (2, lambda x, y: add(x, y) == add(y, x)),
        "add-associativity": (3, lambda x, y, z:
                              add(add(x, y), z) == add(x, add(y, z))),
        "add-identity": (1, lambda x: add(zero, x) == x == add(x, zero)),
        "mul-commutativity": (2, lambda x, y: mul(x, y) == mul(y, x)),
        "mul-associativity": (3, lambda x, y, z:
                              mul(mul(x, y), z) == mul(x, mul(y, z))),
        "mul-identity": (1, lambda x: mul(one, x) == x == mul(x, one)),
        "distributivity": (3, lambda x, y, z:
                           mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
                           and mul(add(y, z), x) == add(mul(y, x), mul(z, x))),
        "top-absorbing": (1, lambda x: mul(zero, x) == zero == mul(x, zero)),
        "zerosumfree": (2, lambda p, q: add(p, q) != zero
                        or (p == zero and q == zero)),
        "entire": (2, lambda p, q: mul(p, q) != zero or p == zero or q == zero),
        "simple": (1, lambda p: add(p, one) == one == add(one, p)),
    }


AXIOMS = ("add-commutativity", "add-associativity", "add-identity",
          "mul-commutativity", "mul-associativity", "mul-identity",
          "distributivity", "top-absorbing")
LAW_ARITY = {"add-commutativity": 2, "add-associativity": 3,
             "add-identity": 1, "mul-commutativity": 2,
             "mul-associativity": 3, "mul-identity": 1, "distributivity": 3,
             "top-absorbing": 1, "zerosumfree": 2, "entire": 2, "simple": 1}
BRUTE_FORCE_TUPLES = 100_000


def first_violations(c: Carrier) -> dict:
    """Per law: None when it holds, else (checked, witness) of its first
    violating tuple in carrier order, checked counting tuples up to it.

    Laws whose scan exceeds BRUTE_FORCE_TUPLES must hold by
    :func:`boolean_theory`, which only covers Boolean carriers.
    """
    out = {}
    for law, (k, pred) in _law_predicates(c).items():
        if c.size ** k > BRUTE_FORCE_TUPLES:
            expect(c.boolean and boolean_theory(c)[law],
                   f"{c.name}: {law} is too large to brute-force")
            out[law] = None
            continue
        out[law] = next(((pos + 1, xs) for pos, xs in enumerate(
            itertools.product(c.order, repeat=k)) if not pred(*xs)), None)
    return out


def boolean_theory(c: Carrier) -> dict[str, bool]:
    """Verdicts on a Boolean carrier: a commutative, zerosumfree, simple
    semiring with absorbing ⊤, entire only with at most one point
    (p ∪ q = everything with p, q proper needs two points)."""
    verdicts = {law: True for law in LAW_ARITY}
    verdicts["entire"] = c.points <= 1
    return verdicts


def violates(c: Carrier, law: str, values) -> bool:
    """True when the tuple of values violates the law in the reference."""
    arity, pred = _law_predicates(c)[law]
    return len(values) == arity and not pred(*values)


def mult_left_cancellative(c: Carrier) -> bool:
    """c × a = c × b forces a = b for every c other than ⊤."""
    return all(len({c.mul(x, a) for a in c.values}) == c.size
               for x in c.values if x != c.zero)


def cancellable(c: Carrier) -> set:
    """Elements a for which a + x = a + y or x + a = y + a forces x = y."""
    return {a for a in c.values
            if len({c.add(a, x) for x in c.values}) == c.size
            and len({c.add(x, a) for x in c.values}) == c.size}


def subtrahends(c: Carrier) -> set:
    """Additively cancellable elements with an additive opposite.

    On every carrier the benchmark builds these already form an ideal,
    which the self-tests confirm, so they are the subtrahend ideal.
    """
    return {a for a in cancellable(c) if any(c.add(a, b) == c.zero for b in c.values)}


def cancellation_criterion(c: Carrier, subs) -> bool:
    """Δ ≠ c and a ≠ b force c×a + Δ×b ≠ c×b + Δ×a (Δ a subtrahend)."""
    add, mul = c.add, c.mul
    return all(add(mul(x, a), mul(d, b)) != add(mul(x, b), mul(d, a))
               for a in c.values for b in c.values if a != b
               for x in c.values for d in subs if d != x)


def closure(c: Carrier, generators, with_complement: bool) -> set:
    """Least set holding ⊤, ⊥ and the generators, closed under the operations."""
    members = {c.zero, c.one, *generators}
    frontier = list(members)
    while frontier:
        new = set()
        for x in frontier:
            for y in list(members):
                new.update((c.add(x, y), c.mul(x, y)))
            if with_complement:
                new.add(c.comp(x))
        frontier = list(new - members)
        members |= new
    return members


# -- homomorphisms between Boolean carriers ------------------------------------

def preimage_map(src_points: int, g: tuple[int, ...]) -> tuple[int, ...]:
    """ψ(S) = {y : g(y) ∈ S}, for g from the target's points to the source's.

    Preimages preserve ∩, ∪, the full and the empty set, so every such ψ
    is a homomorphism between the two Boolean carriers, and every
    homomorphism arises from exactly one g.
    """
    return tuple(sum(1 << y for y, x in enumerate(g) if (s >> x) & 1)
                 for s in range(1 << src_points))


def boolean_homs(src_points: int, dst_points: int) -> set[tuple[int, ...]]:
    """All homomorphisms as value tuples indexed by source value."""
    return {preimage_map(src_points, g)
            for g in itertools.product(range(src_points), repeat=dst_points)}


def onto_not_bijective_homs(src_points: int, dst_points: int) -> int:
    """Onto homomorphisms are the preimage maps of injective g; they are
    bijective exactly when g is, so the rest number P(src, dst)."""
    if dst_points >= src_points:
        return 0
    return math.perm(src_points, dst_points)


def monotone_on_masks(points: int, psi) -> bool:
    """ψ preserves ≼ (q ⊆ p) on a Boolean carrier, checked on covers.

    ≼ is the reflexive-transitive closure of dropping one point, so
    preserving those pairs preserves the whole order.
    """
    for p in range(1 << points):
        for x in range(points):
            if (p >> x) & 1:
                q = p & ~(1 << x)
                if psi[q] & ~psi[p]:
                    return False
    return True


# -- formulas ---------------------------------------------------------------

_TEXT = {"not": ("!", "¬"), "and": ("&", "∧"), "or": ("|", "∨"),
         "implies": ("->", "→"), "iff": ("<->", "↔")}


def random_formula(rng: random.Random, atoms: list[str], depth: int):
    """A seeded formula tree of nested tuples."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return ("const", rng.randrange(2))
        return ("atom", rng.choice(atoms))
    op = rng.choice(("not", "and", "or", "implies", "iff"))
    if op == "not":
        return (op, random_formula(rng, atoms, depth - 1))
    return (op, random_formula(rng, atoms, depth - 1),
            random_formula(rng, atoms, depth - 1))


def render(f, rng: random.Random) -> str:
    """Fully parenthesised text, with ASCII or Unicode connectives."""
    if f[0] == "const":
        return str(f[1])
    if f[0] == "atom":
        return f[1]
    symbol = _TEXT[f[0]][rng.random() < 0.3]
    if f[0] == "not":
        return symbol + render(f[1], rng)
    return f"({render(f[1], rng)} {symbol} {render(f[2], rng)})"


def truth(f, row: dict[str, bool]) -> bool:
    kind = f[0]
    if kind == "const":
        return bool(f[1])
    if kind == "atom":
        return row[f[1]]
    if kind == "not":
        return not truth(f[1], row)
    left, right = truth(f[1], row), truth(f[2], row)
    if kind == "and":
        return left and right
    if kind == "or":
        return left or right
    if kind == "implies":
        return (not left) or right
    return left == right


def formula_atoms(f) -> set[str]:
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(formula_atoms(g) for g in f[1:] if isinstance(g, tuple)))


def truth_bits(f, atoms: list[str]) -> str:
    """Row-by-row truth table over the sorted atoms, highest row first."""
    rows = 1 << len(atoms)
    bits = ["1" if truth(f, {a: bool((k >> i) & 1) for i, a in enumerate(atoms)})
            else "0" for k in range(rows)]
    return "".join(reversed(bits))
