"""Homomorphisms between proposition semirings: checking, enumeration,
kernels, factorization and the onto/order-preserving/isomorphism link.

Two morphism kinds are understood.  ``semiring`` asks for preservation
of +, × and both identities (ψ(⊤) = ⊤, ψ(⊥) = ⊥); ``bpa`` additionally
asks for complements (ψ(!a) = !ψ(a)).  A homomorphism is fixed by its
values on a generating set, so enumeration searches generator images
only.  Each derived map is compared on the rows of the generators of +
and ×, which reject it, or accept it where both carriers are
associative (Light's test); otherwise check_morphism decides.
Under the canonical orders (p ≼ q iff p + q = q) every homomorphism is
monotone, and it reflects ≼ exactly when it is injective, so the
iso-theorem scans no map for its order verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from operator import itemgetter

from .algebra import (ADD, MAX_DENSE_CARRIER, MUL, Algebra, CompiledTables,
                      DomainError, Element, FreeBooleanAlgebra, SizeLimitError,
                      UnsupportedOperationError, row_type)
from .order import canonical_order
from .properties import (PropertyReport, _associative, _bands, _names,
                         _scan_rows)

KINDS = ("semiring", "bpa")
MODES = ("monotone", "embedding")
ENUMERATION_CAP = 10_000_000


class Morphism:
    """A total map between two carriers, stored as target indices."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: Algebra, target: Algebra, mapping):
        mapping = tuple(mapping)
        if len(mapping) != source.size:
            raise DomainError(
                f"map must assign all {source.size} elements of {source.name}, "
                f"got {len(mapping)}")
        size = target.size
        if not (0 <= min(mapping) and max(mapping) < size):
            i, t = next((i, t) for i, t in enumerate(mapping)
                        if not 0 <= t < size)
            raise DomainError(
                f"image of {source.name_of(i)} is index {t}, outside "
                f"the carrier of {target.name}")
        self.source = source
        self.target = target
        self.mapping = mapping

    @classmethod
    def from_names(cls, source: Algebra, target: Algebra,
                   name_map: dict[str, str]) -> "Morphism":
        mapping = [-1] * source.size
        seen = set()
        for src_name, dst_name in name_map.items():
            if not isinstance(dst_name, str):
                raise DomainError(f"the image of {src_name!r} must be an "
                                  f"element name, got {dst_name!r}")
            i = source.index_of(src_name)
            if i in seen:
                raise DomainError(f"{src_name!r} is mapped twice")
            seen.add(i)
            mapping[i] = target.index_of(dst_name)
        if len(seen) != source.size:
            missing = next(source.name_of(i) for i in range(source.size)
                           if i not in seen)
            raise DomainError(f"map does not cover {missing!r}")
        return cls(source, target, mapping)

    def apply_i(self, i: int) -> int:
        return self.mapping[i]

    def apply(self, x: Element) -> Element:
        return Element(self.target, self.mapping[self.source._member(x)])

    def image_indices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.mapping)))

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.size

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.size

    def compose(self, inner: "Morphism") -> "Morphism":
        """self ∘ inner; inner's target must be self's source."""
        if inner.target is not self.source:
            raise DomainError("morphisms do not compose: carrier mismatch")
        return Morphism(inner.source, self.target,
                        tuple(self.mapping[i] for i in inner.mapping))

    def name_map(self) -> dict[str, str]:
        return dict(zip(map(self.source.name_lookup, range(self.source.size)),
                        map(self.target.name_lookup, self.mapping)))

    def to_json(self) -> dict:
        return {"source": self.source.source_spec,
                "target": self.target.source_spec,
                "map": self.name_map()}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Morphism)
                and other.source is self.source
                and other.target is self.target
                and other.mapping == self.mapping)

    def __hash__(self) -> int:
        return hash((id(self.source), id(self.target), self.mapping))

    def __repr__(self) -> str:
        return f"Morphism({self.source.name} -> {self.target.name})"


def _require_kind(kind: str, *carriers: Algebra) -> None:
    """The kind is known and, for ``bpa``, every carrier has complements."""
    if kind not in KINDS:
        raise DomainError(f"unknown morphism kind {kind!r}; expected one of {KINDS}")
    if kind == "bpa" and not all(a.has_complement for a in carriers):
        raise UnsupportedOperationError(
            "bpa morphisms need complements on both algebras")


def _require_mode(mode: str) -> None:
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")


def check_morphism(psi: Morphism, kind: str = "semiring") -> PropertyReport:
    """Exhaustively verify the homomorphism conditions of the given kind.

    + and × are compared over the row bands of :func:`properties._bands`:
    ψ(a ∘ b) on the band's rows a against the rows b ↦ ψ(a) ∘ ψ(b), each
    built once per image value ψ(a) and joined in the band's order.
    """
    src, dst = psi.source, psi.target
    _require_kind(kind, src, dst)
    s = src.compiled
    # ψ as a row over the source, of the target's row type
    f = row_type(dst.size)(psi.mapping)
    compose, concat = CompiledTables.compose, CompiledTables.concat
    top, bot = src.top_index, src.bot_index

    def cases():
        yield (), (top,), (((f[top],), (dst.top_index,),
                            {"condition": "⊤ preserved"}),)
        yield (), (bot,), (((f[bot],), (dst.bot_index,),
                            {"condition": "⊥ preserved"}),)
        # The rows b ↦ v + ψ(b) and b ↦ v × ψ(b), and b ↦ !ψ(b); a target
        # above the table limit is read at the images only.
        if dst.size <= MAX_DENSE_CARRIER:
            d = dst.compiled
            rows_after = lambda v: (compose(d.add[v], f), compose(d.mul[v], f))
            comp_after = lambda: compose(d.comp, f)
        else:
            rows_after = lambda v: (tuple(map(dst.add_i, repeat(v), f)),
                                    tuple(map(dst.mul_i, repeat(v), f)))
            comp_after = lambda: tuple(map(dst.comp_i, f))
        plus, times = {"condition": "+ preserved"}, {"condition": "× preserved"}
        after = {}  # v ↦ rows_after(v), built when a band first needs it
        add, mul, after_of = s.add, s.mul, after.__getitem__
        for a0, a1, positions in _bands(s.n):
            images = f[a0:a1]
            for v in set(images).difference(after):
                after[v] = rows_after(v)
            adds, muls = zip(*map(after_of, images))
            # position (a, b): ψ(a ∘ b) against ψ(a) ∘ ψ(b)
            yield (), positions, (
                (compose(f, concat(add[a0:a1])), concat(adds), plus),
                (compose(f, concat(mul[a0:a1])), concat(muls), times))
        if kind == "bpa":
            yield (), range(s.n), ((compose(f, s.comp), comp_after(),
                                    {"condition": "! preserved"}),)

    return _scan_rows(f"{kind}-homomorphism", src.name_of, cases())


@dataclass(frozen=True)
class KernelRelation:
    """Partition of a source carrier by equal image."""

    source: Algebra
    blocks: tuple[tuple[int, ...], ...]  # each sorted, ordered by least member

    def block_of(self, index: int) -> tuple[int, ...]:
        for block in self.blocks:
            if index in block:
                return block
        raise DomainError(f"index {index} outside the carrier of {self.source.name}")

    def to_json(self) -> list[list[str]]:
        return [[self.source.name_of(i) for i in block] for block in self.blocks]


def kernel(psi: Morphism) -> KernelRelation:
    """Group source elements that share an image."""
    by_image: dict[int, list[int]] = {}
    for i, t in enumerate(psi.mapping):
        by_image.setdefault(t, []).append(i)
    # a key enters at its least index, so blocks come by least member
    return KernelRelation(source=psi.source,
                          blocks=tuple(map(tuple, by_image.values())))


def refines(finer: KernelRelation, coarser: KernelRelation) -> bool:
    """Every block of ``finer`` sits inside some block of ``coarser``."""
    if finer.source is not coarser.source:
        raise DomainError("kernels live on different carriers")
    coarse_of = {i: k for k, block in enumerate(coarser.blocks) for i in block}
    return all(len({coarse_of[i] for i in block}) == 1 for block in finer.blocks)


def factor(psi1: Morphism, psi2: Morphism) -> Morphism | None:
    """The map ψ with ψ ∘ ψ₁ = ψ₂, when ψ₁'s kernel refines ψ₂'s.

    ψ₁ must be surjective and share its source with ψ₂.  One pass over
    the source builds ψ: the first a with ψ₁(a) = t sets ψ(t) = ψ₂(a),
    and a later a with ψ₁(a) = t and ψ₂(a) ≠ ψ(t) shows that the kernels
    do not cooperate, so the result is None.
    """
    if psi1.source is not psi2.source:
        raise DomainError("factorization needs a shared source")
    if not psi1.is_surjective():
        raise ValueError("psi1 must be surjective to factor through")
    mapping = [-1] * psi1.target.size
    for t, v in zip(psi1.mapping, psi2.mapping):
        if mapping[t] == -1:
            mapping[t] = v
        elif mapping[t] != v:
            return None
    return Morphism(psi1.target, psi2.target, mapping)


def is_isomorphism(psi: Morphism, kind: str = "semiring") -> PropertyReport:
    """Bijective homomorphism.  Its inverse then preserves every operation
    too, so ``checked`` is twice ψ's count: both carriers have one size."""
    _require_kind(kind, psi.source, psi.target)
    prop = f"{kind}-isomorphism"
    src = psi.source
    n = src.size
    if not psi.is_injective():  # the first a whose image is taken
        first, a = min((block[:2] for block in kernel(psi).blocks
                        if len(block) > 1), key=itemgetter(1))
        return PropertyReport(prop, False, _names(src, first, a), n,
                              details={"reason": "not injective"})
    if not psi.is_surjective():
        missing = min(set(range(psi.target.size)).difference(psi.mapping))
        return PropertyReport(prop, False,
                              (psi.target.name_of(missing),), n,
                              details={"reason": "not surjective"})
    forward = check_morphism(psi, kind)
    if not forward.holds:
        forward.details = dict(forward.details or {}, reason="forward map fails")
        forward.property = prop
        return forward
    return PropertyReport(prop, True, None, 2 * forward.checked)


def enumerate_homs(src: Algebra, dst: Algebra,
                   kind: str = "semiring") -> list[Morphism]:
    """All homomorphisms src -> dst of the given kind, sorted by map, or
    in atom-image order for a free source of the bpa kind.

    ⊤ and ⊥ are closed under +, × and, for bpa, ! by
    ``CompiledTables.closure``, which prefers the atoms of a free source
    of the bpa kind and else the elements that are no sum of two others
    as generators.  Its steps derive the other images from the generator
    images, and the homomorphisms are kept.  :data:`ENUMERATION_CAP`
    bounds the |dst|^|generators| maps.

    ψ(⊥) = ⊥ holds by construction, and so does ψ(⊤) = ⊤ unless ⊤ = ⊥
    in the source only, where check_morphism refuses every map.  A
    derived map is first compared on the rows of the source's generating
    sets G+ and G× (``CompiledTables.generators``): ψ(g ∘ b) against
    ψ(g) ∘ ψ(b) for g in G∘ and every b, one ``compose`` over the joined
    rows per operation, and for the bpa kind ψ(!a) against !ψ(a) for
    every a.  These positions are some of the definition's, so a
    difference rejects the map.  Where all are equal and + and × are associative on
    both carriers (Light's test, decided once per carrier), the map is a
    homomorphism: the a with ψ(a ∘ b) = ψ(a) ∘ ψ(b) for all b are closed
    under ∘, since for two of them, a1 and a2, ψ((a1∘a2)∘b) =
    ψ(a1∘(a2∘b)) = ψ(a1)∘(ψ(a2)∘ψ(b)) = (ψ(a1)∘ψ(a2))∘ψ(b) =
    ψ(a1∘a2)∘ψ(b), and G∘ generates the carrier under ∘.  Otherwise, or
    above the table limit of the target, check_morphism decides the map.
    """
    _require_kind(kind, src, dst)
    s = src.compiled
    free_bpa = kind == "bpa" and isinstance(src, FreeBooleanAlgebra)
    # side k of the closure gives a step (e, k, a, b) with ψ(e) equal to
    # ops[k](ψ(a), ψ(b)); every row of the ! side is the complement
    ops = [dst.add_i, lambda u, v: dst.add_i(v, u),
           dst.mul_i, lambda u, v: dst.mul_i(v, u), lambda _, v: dst.comp_i(v)]
    sides = [s.add, s.add_t, s.mul, s.mul_t, [s.comp] * s.n]
    generators, steps = s.closure(
        (src.top_index, src.bot_index), sides[:5 if kind == "bpa" else 4],
        frozenset(map(src.atom_value, range(src.n_atoms))) if free_bpa
        else s.irreducible(ADD))
    steps = [(e, ops[k], a, b) for e, k, a, b in steps]
    candidates = dst.size ** len(generators)
    if candidates > ENUMERATION_CAP:
        raise SizeLimitError(f"{candidates} candidate maps exceed the cap "
                             f"{ENUMERATION_CAP}")
    image = [0] * src.size
    image[src.top_index] = dst.top_index
    image[src.bot_index] = dst.bot_index
    compose, concat, as_row = (CompiledTables.compose, CompiledTables.concat,
                               row_type(dst.size))
    by_rows = (dst.size <= MAX_DENSE_CARRIER
               and image[src.top_index] == dst.top_index)  # ψ(⊤) = ⊤
    if by_rows:  # per operation: G∘'s rows joined, G∘ and the target's rows
        d = dst.compiled
        generator_rows = [
            (concat([s.tables(op)[0][g] for g in s.generators(op)]),
             s.generators(op), d.tables(op)[0]) for op in (ADD, MUL)]
    associative = None  # of both carriers, found once a map needs it
    homs = []
    for values in product(range(dst.size), repeat=len(generators)):
        for g, v in zip(generators, values):
            image[g] = v
        for e, op, a, b in steps:
            image[e] = op(image[a], image[b])
        if by_rows:
            f = as_row(image)
            if any(compose(f, joined) != concat([compose(after[f[g]], f)
                                                 for g in gens])
                   for joined, gens, after in generator_rows) or (
                    kind == "bpa" and compose(f, s.comp) != compose(d.comp, f)):
                continue
            if associative is None:
                associative = all(_associative(c, op) for c in (s, d)
                                  for op in (ADD, MUL))
        psi = Morphism(src, dst, image)
        if associative or check_morphism(psi, kind).holds:
            homs.append(psi)
    if not free_bpa:  # generators need not ascend
        homs.sort(key=lambda psi: psi.mapping)
    return homs


@dataclass
class IsoTheoremReport:
    """Outcome of testing: onto and order-preserving iff isomorphism.

    The biconditional is evaluated for every enumerated homomorphism
    against the canonical orders of both carriers; any map breaking it
    lands in ``counterexamples`` with its three verdicts.  A homomorphism
    preserves these orders, and it reflects them iff it is injective
    (:func:`verify_iso_theorem`), so ``order_preserving`` is always true
    in ``monotone`` mode and means injective in ``embedding`` mode.
    """

    kind: str
    mode: str
    hom_count: int
    counterexamples: list[dict]

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    @property
    def witness(self) -> list[str] | None:
        """The first counterexample's map as one "a↦b,…" string, sorted
        by source name."""
        if not self.counterexamples:
            return None
        return [",".join(f"{k}↦{v}" for k, v in
                         sorted(self.counterexamples[0]["map"].items()))]

    def to_json(self) -> dict:
        return {
            "property": "onto-order-preserving-iff-isomorphism",
            "verdict": "holds" if self.holds else "fails",
            "kind": self.kind,
            "mode": self.mode,
            "homomorphisms": self.hom_count,
            "counterexamples": self.counterexamples,
        }


def verify_iso_theorem(src: Algebra, dst: Algebra, kind: str = "bpa",
                       mode: str = "embedding") -> IsoTheoremReport:
    """Test onto ∧ order-preserving ⇔ isomorphism over all homomorphisms.

    Let ψ preserve + and p ≼ q iff p + q = q, with + idempotent and
    commutative (:func:`order.canonical_order`); no associativity is
    needed.  ψ is monotone: p + q = q gives ψp + ψq = ψ(p + q) = ψq.
    ψ reflects ≼ iff it is injective.  If ψ is injective and ψx ≼ ψy,
    then ψ(x + y) = ψx + ψy = ψy, so x + y = y.  If ψa = ψb and ψ
    reflects ≼, then a + b = b and b + a = a, so a = b.  So no map is
    scanned in either mode.  Both orders are built in either mode, so a
    carrier without one is refused alike.
    """
    _require_mode(mode)
    canonical_order(src)
    canonical_order(dst)
    homs = enumerate_homs(src, dst, kind)
    counterexamples = []
    for psi in homs:
        onto, injective = psi.is_surjective(), psi.is_injective()
        preserving = mode == "monotone" or injective
        iso = onto and injective  # psi is already a homomorphism
        if (onto and preserving) != iso:
            counterexamples.append({
                "map": psi.name_map(),
                "onto": onto,
                "order_preserving": preserving,
                "isomorphism": iso,
            })
    return IsoTheoremReport(kind=kind, mode=mode, hom_count=len(homs),
                            counterexamples=counterexamples)
