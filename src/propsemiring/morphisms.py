"""Homomorphisms between proposition semirings: checking, enumeration,
kernels, factorization and the onto/order-preserving/isomorphism link.

Two morphism kinds are understood.  ``semiring`` asks for preservation
of +, × and both identities (ψ(⊤) = ⊤, ψ(⊥) = ⊥); ``bpa`` additionally
asks for complements (ψ(!a) = !ψ(a)).  Enumeration from a free source
fixes atom images only and extends through the disjunctive normal form,
which is complete for the bpa kind because atoms generate under
{+, ×, !}; the extension is re-validated by check_morphism anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat

from .algebra import (MAX_BYTE_CARRIER, MAX_DENSE_CARRIER, Algebra,
                      CompiledTables, DomainError, Element, FreeBooleanAlgebra,
                      SizeLimitError, Subalgebra, UnsupportedOperationError)
from .order import OrderRelation, canonical_order
from .properties import PropertyReport, _names, _packed, _scan_rows

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
        for i, t in enumerate(mapping):
            if not 0 <= t < target.size:
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
        return {self.source.name_of(i): self.target.name_of(t)
                for i, t in enumerate(self.mapping)}

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


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise DomainError(f"unknown morphism kind {kind!r}; expected one of {KINDS}")


def check_morphism(psi: Morphism, kind: str = "semiring") -> PropertyReport:
    """Exhaustively verify the homomorphism conditions of the given kind."""
    _require_kind(kind)
    src, dst = psi.source, psi.target
    if kind == "bpa" and not (src.has_complement and dst.has_complement):
        raise UnsupportedOperationError(
            "bpa morphisms need complements on both algebras")
    s = src.compiled
    # ψ as a row over the source, of the target's row type
    f = bytes(psi.mapping) if dst.size <= MAX_BYTE_CARRIER else psi.mapping
    compose = CompiledTables.compose
    # The rows b ↦ v ∘ ψ(b) and b ↦ !ψ(b); a target above the table
    # limit is read at the images only.
    if dst.size <= MAX_DENSE_CARRIER:
        d = dst.compiled
        add_after = lambda v: compose(d.add[v], f)
        mul_after = lambda v: compose(d.mul[v], f)
        comp_after = lambda: compose(d.comp, f)
    else:
        add_after = lambda v: tuple(map(dst.add_i, repeat(v), f))
        mul_after = lambda v: tuple(map(dst.mul_i, repeat(v), f))
        comp_after = lambda: tuple(map(dst.comp_i, f))
    carrier = range(s.n)
    top, bot = src.top_index, src.bot_index

    def cases():
        yield (), (top,), (((f[top],), (dst.top_index,),
                            {"condition": "⊤ preserved"}),)
        yield (), (bot,), (((f[bot],), (dst.bot_index,),
                            {"condition": "⊥ preserved"}),)
        plus, times = {"condition": "+ preserved"}, {"condition": "× preserved"}
        for a, (add_a, mul_a) in enumerate(zip(s.add, s.mul)):
            # position b: ψ(a ∘ b) against ψ(a) ∘ ψ(b)
            yield (a,), carrier, ((compose(f, add_a), add_after(f[a]), plus),
                                  (compose(f, mul_a), mul_after(f[a]), times))
        if kind == "bpa":
            yield (), carrier, ((compose(f, s.comp), comp_after(),
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
    blocks = sorted((tuple(block) for block in by_image.values()),
                    key=lambda block: block[0])
    return KernelRelation(source=psi.source, blocks=tuple(blocks))


def refines(finer: KernelRelation, coarser: KernelRelation) -> bool:
    """Every block of ``finer`` sits inside some block of ``coarser``."""
    if finer.source is not coarser.source:
        raise DomainError("kernels live on different carriers")
    coarse_of = {}
    for k, block in enumerate(coarser.blocks):
        for i in block:
            coarse_of[i] = k
    for block in finer.blocks:
        k = coarse_of[block[0]]
        if any(coarse_of[i] != k for i in block):
            return False
    return True


def factor(psi1: Morphism, psi2: Morphism) -> Morphism | None:
    """The map ψ with ψ ∘ ψ₁ = ψ₂, when ψ₁'s kernel refines ψ₂'s.

    ψ₁ must be surjective and share its source with ψ₂.  Returns None
    when the kernels do not cooperate; otherwise the result is verified
    pointwise before being returned.
    """
    if psi1.source is not psi2.source:
        raise DomainError("factorization needs a shared source")
    if not psi1.is_surjective():
        raise ValueError("psi1 must be surjective to factor through")
    if not refines(kernel(psi1), kernel(psi2)):
        return None
    mapping = [-1] * psi1.target.size
    for a in range(psi1.source.size):
        a1 = psi1.mapping[a]
        if mapping[a1] == -1:
            mapping[a1] = psi2.mapping[a]
    psi = Morphism(psi1.target, psi2.target, mapping)
    for a in range(psi1.source.size):
        if psi.mapping[psi1.mapping[a]] != psi2.mapping[a]:
            raise AssertionError("factorization failed to verify; this is a bug")
    return psi


def order_relation_of_map(psi: Morphism, order_src: OrderRelation,
                          order_dst: OrderRelation,
                          mode: str = "monotone") -> PropertyReport:
    """Does ψ preserve (monotone) or exactly reflect (embedding) ≼?"""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    if order_src.algebra is not psi.source:
        raise DomainError("source order belongs to a different algebra")
    if order_dst.algebra is not psi.target:
        raise DomainError("target order belongs to a different algebra")
    f = bytes(psi.mapping) if psi.target.size <= MAX_BYTE_CARRIER else psi.mapping
    compose = CompiledTables.compose
    carrier = range(psi.source.size)
    up_dst = order_dst.rows
    ahead, behind = {"direction": "x ≼ y"}, {"direction": "ψx ≼ ψy"}
    width = 2 if mode == "embedding" else 1

    def cases():
        for x, up_x in enumerate(order_src.up_packed):  # bit y: x ≼ y
            images = _packed(compose(up_dst[f[x]], f))   # bit y: ψx ≼ ψy
            yield (x,), carrier, ((up_x, up_x & images, ahead),
                                  (images, images & up_x, behind))[:width]

    report = _scan_rows(f"order-{mode}", psi.source.name_of, cases())
    if report.holds and mode == "embedding":
        report.details = {"injective": psi.is_injective()}
    return report


def is_isomorphism(psi: Morphism, kind: str = "semiring") -> PropertyReport:
    """Bijective homomorphism whose inverse is explicitly checked too."""
    _require_kind(kind)
    prop = f"{kind}-isomorphism"
    src = psi.source
    n = src.size
    if not psi.is_injective():
        seen: dict[int, int] = {}
        for a, t in enumerate(psi.mapping):
            if t in seen:
                return PropertyReport(prop, False, _names(src, seen[t], a), n,
                                      details={"reason": "not injective"})
            seen[t] = a
    if not psi.is_surjective():
        missing = next(t for t in range(psi.target.size)
                       if t not in set(psi.mapping))
        return PropertyReport(prop, False,
                              (psi.target.name_of(missing),), n,
                              details={"reason": "not surjective"})
    forward = check_morphism(psi, kind)
    if not forward.holds:
        forward.details = dict(forward.details or {}, reason="forward map fails")
        forward.property = prop
        return forward
    inverse_mapping = [0] * n
    for a, t in enumerate(psi.mapping):
        inverse_mapping[t] = a
    inverse = Morphism(psi.target, psi.source, inverse_mapping)
    backward = check_morphism(inverse, kind)
    if not backward.holds:
        backward.details = dict(backward.details or {}, reason="inverse map fails")
        backward.property = prop
        return backward
    return PropertyReport(prop, True, None, forward.checked + backward.checked)


def image_subalgebra(psi: Morphism) -> Subalgebra:
    """The image of a homomorphism as a validated subalgebra of the target."""
    report = check_morphism(psi, "semiring")
    if not report.holds:
        raise ValueError(f"not a semiring homomorphism: witness {report.witness}")
    sub = Subalgebra(parent=psi.target, members=psi.image_indices())
    sub.validate(bpa_closed=False)
    return sub


def _extend_atom_images(src: FreeBooleanAlgebra, dst: Algebra,
                        images: tuple[int, ...]) -> tuple[int, ...]:
    """Extend atom images to the whole free carrier via disjunctive form.

    AND lands on the additive table, OR on the multiplicative one, so a
    minterm is a +-product of literals and an element is the ×-sum of
    its minterms.  Empty sums/products fall back to the identities.
    """
    minterms = []
    for k in range(src.rows):
        term = dst.top_index  # identity of the additive (AND) operation
        for i in range(src.n_atoms):
            lit = images[i] if (k >> i) & 1 else dst.comp_i(images[i])
            term = dst.add_i(term, lit)
        minterms.append(term)
    mapping = []
    for e in range(src.size):
        value = dst.bot_index  # identity of the multiplicative (OR) operation
        for k in range(src.rows):
            if (e >> k) & 1:
                value = dst.mul_i(value, minterms[k])
        mapping.append(value)
    return tuple(mapping)


def enumerate_homs(src: Algebra, dst: Algebra, kind: str = "semiring",
                   cap: int = ENUMERATION_CAP) -> list[Morphism]:
    """All homomorphisms src -> dst of the given kind, in scan order.

    Free sources of the bpa kind enumerate atom images only (atoms
    generate); everything else brute-forces all |dst|^|src| maps behind
    the candidate cap.
    """
    _require_kind(kind)
    if kind == "bpa" and not (src.has_complement and dst.has_complement):
        raise UnsupportedOperationError(
            "bpa morphisms need complements on both algebras")
    homs = []
    if kind == "bpa" and isinstance(src, FreeBooleanAlgebra):
        candidates = dst.size ** src.n_atoms
        if candidates > cap:
            raise SizeLimitError(
                f"{candidates} atom assignments exceed the cap {cap}")
        for images in product(range(dst.size), repeat=src.n_atoms):
            psi = Morphism(src, dst, _extend_atom_images(src, dst, images))
            if check_morphism(psi, kind).holds:
                homs.append(psi)
        return homs
    candidates = dst.size ** src.size
    if candidates > cap:
        raise SizeLimitError(
            f"{candidates} candidate maps exceed the cap {cap}; "
            f"use the bpa kind for free sources")
    for mapping in product(range(dst.size), repeat=src.size):
        psi = Morphism(src, dst, mapping)
        if check_morphism(psi, kind).holds:
            homs.append(psi)
    return homs


@dataclass
class IsoTheoremReport:
    """Outcome of testing: onto and order-preserving iff isomorphism.

    The biconditional is evaluated for every enumerated homomorphism
    against the canonical orders of both carriers; any map breaking it
    lands in ``counterexamples`` with its three verdicts.
    """

    kind: str
    mode: str
    hom_count: int
    counterexamples: list[dict]

    @property
    def holds(self) -> bool:
        return not self.counterexamples

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
    """Test onto ∧ order-preserving ⇔ isomorphism over all homomorphisms."""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    order_src = canonical_order(src)
    order_dst = canonical_order(dst)
    homs = enumerate_homs(src, dst, kind)
    counterexamples = []
    for psi in homs:
        onto = psi.is_surjective()
        preserving = order_relation_of_map(psi, order_src, order_dst, mode).holds
        iso = is_isomorphism(psi, kind).holds
        if (onto and preserving) != iso:
            counterexamples.append({
                "map": psi.name_map(),
                "onto": onto,
                "order_preserving": preserving,
                "isomorphism": iso,
            })
    return IsoTheoremReport(kind=kind, mode=mode, hom_count=len(homs),
                            counterexamples=counterexamples)
