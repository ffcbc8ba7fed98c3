"""Homomorphisms between proposition semirings: checking, enumeration,
kernels, factorization and the onto/order-preserving/isomorphism link.

Two morphism kinds are understood.  ``semiring`` asks for preservation
of +, × and both identities (ψ(⊤) = ⊤, ψ(⊥) = ⊥); ``bpa`` additionally
asks for complements (ψ(!a) = !ψ(a)).  A homomorphism is fixed by its
values on a generating set, so enumeration searches generator images
only, in stages, one per generator, on columns that hold an element's
image under every live candidate.  A stage derives the elements it
reaches with one pass in C per step, and a screen drops the candidates
that break + or × (or !) at the new generator before the next stage;
blocks of at most ``_CHUNK`` candidates run depth first.  Each map left
after the last stage is compared on the rows of the generators of + and
×, which reject it, or accept it where both carriers are associative
(Light's test); otherwise check_morphism decides.
Under the canonical orders (p ≼ q iff p + q = q) every homomorphism is
monotone, and it reflects ≼ exactly when it is injective, so the
iso-theorem scans no map for its order verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, product, repeat
from operator import getitem, itemgetter
from typing import Iterator

from .algebra import (ADD, MAX_DENSE_CARRIER, MUL, Algebra, CompiledTables,
                      DomainError, Element, FreeBooleanAlgebra, SizeLimitError,
                      UnsupportedOperationError, _from_bytes, closure,
                      closure_sides, row_type)
from .order import require_canonical
from .properties import (PropertyReport, _associative, _bands, _names,
                         _scan_rows)

KINDS = ("semiring", "bpa")
MODES = ("monotone", "embedding")
ENUMERATION_CAP = 10_000_000
_CHUNK = 1 << 12  # candidates derived together in one stage of the search


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
        add_after, _, mul_after, _, *comp_after = closure_sides(
            dst, kind == "bpa")
        plus, times = {"condition": "+ preserved"}, {"condition": "× preserved"}
        after = {}  # v ↦ both rows of v, built when a band first needs it
        add, mul, after_of = s.add, s.mul, after.__getitem__
        for a0, a1, positions in _bands(s.n):
            images = f[a0:a1]
            for v in set(images).difference(after):
                after[v] = add_after(v, f), mul_after(v, f)
            adds, muls = zip(*map(after_of, images))
            # position (a, b): ψ(a ∘ b) against ψ(a) ∘ ψ(b)
            yield (), positions, (
                (compose(f, concat(add[a0:a1])), concat(adds), plus),
                (compose(f, concat(mul[a0:a1])), concat(muls), times))
        if kind == "bpa":
            yield (), range(s.n), ((compose(f, s.comp),
                                    comp_after[0](None, f),
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


def _generator_rows_hold(f, generator_rows, complements) -> bool:
    """ψ(g ∘ b) = ψ(g) ∘ ψ(b) for g in G∘ and every b, one ``compose``
    over the joined rows per operation, and ψ(!a) = !ψ(a) for every a
    where ``complements`` holds the ! rows of both carriers."""
    compose, concat = CompiledTables.compose, CompiledTables.concat
    return all(compose(f, joined) == concat([compose(after[f[g]], f)
                                             for g in gens])
               for joined, gens, after in generator_rows) and (
        complements is None
        or compose(f, complements[0]) == compose(complements[1], f))


def enumerate_homs(src: Algebra, dst: Algebra,
                   kind: str = "semiring") -> list[Morphism]:
    """All homomorphisms src -> dst of the given kind, sorted by map, or
    in atom-image order for a free source of the bpa kind.

    ⊤ and ⊥ are closed under +, × and, for bpa, ! by
    :func:`algebra.closure`, which prefers the atoms of a free source
    of the bpa kind and else the elements that are no sum of two others
    as generators.  :data:`ENUMERATION_CAP` bounds the |dst|^|generators|
    candidate maps, which are searched in stages, one per generator, on
    columns: entry c of the column of a source element is its image
    under candidate c.  Stage i repeats each live candidate once per
    image of generator i, in product order, and derives the elements
    that its steps reach, one pass in C per step over all candidates:
    ``map`` over the target's table rows, or above the table limit over
    its scalar operations.
    At the end of a stage the reached elements form a subalgebra, and
    before the next stage the screen compares ψ(g ∘ x) with ψ(g) ∘ ψ(x)
    and ψ(x ∘ g) with ψ(x) ∘ ψ(g) for the new generator g and every
    reached x, for + and ×, and ψ(!y) with !ψ(y) for every y new in the
    stage of the bpa kind.  These are positions of the definition, so a
    difference rejects the candidate.  A free source of the bpa kind is
    not screened: its atoms generate it freely, so into a Boolean
    algebra every candidate is a homomorphism and the screen would
    reject none; nor is a search into one element, which has one
    candidate.  The stages run depth first over blocks of at most
    :data:`_CHUNK` candidates, which bounds memory and keeps the product
    order, in one loop, however many generators the source needs.

    Each candidate left after the last stage is the strided slice of the
    joined columns, decided as a row.  ψ(⊥) = ⊥ holds by construction,
    and so does ψ(⊤) = ⊤ unless ⊤ = ⊥ in the source only, where
    check_morphism refuses every map.  The row is first compared on the
    rows of the source's generating sets G+ and G×
    (``CompiledTables.generators``, :func:`_generator_rows_hold`).  Where
    all are equal and + and × are associative on both carriers (Light's
    test, decided once per carrier), the map is a homomorphism: the a
    with ψ(a ∘ b) = ψ(a) ∘ ψ(b) for all b are closed under ∘, since for
    two of them, a1 and a2, ψ((a1∘a2)∘b) = ψ(a1∘(a2∘b)) =
    ψ(a1)∘(ψ(a2)∘ψ(b)) = (ψ(a1)∘ψ(a2))∘ψ(b) = ψ(a1∘a2)∘ψ(b), and G∘
    generates the carrier under ∘.  Otherwise, or above the table limit
    of the target, check_morphism decides the map.
    """
    _require_kind(kind, src, dst)
    s = src.compiled
    bpa = kind == "bpa"
    free_bpa = bpa and isinstance(src, FreeBooleanAlgebra)
    (_, first), *stages = closure(
        s.n, (src.top_index, src.bot_index), closure_sides(src, bpa),
        frozenset(map(src.atom_value, range(src.n_atoms))) if free_bpa
        else s.irreducible(ADD))
    width = dst.size
    candidates = width ** len(stages)
    if candidates > ENUMERATION_CAP:
        raise SizeLimitError(f"{candidates} candidate maps exceed the cap "
                             f"{ENUMERATION_CAP}")
    column = row_type(width)
    compose, concat = CompiledTables.compose, CompiledTables.concat
    # side k of the closure: the column of ψ(e) for a step (e, k, a, b)
    # from the columns of ψ(a) and ψ(b); the ! side, as in closure_sides,
    # reads ψ(b) only
    if width <= MAX_DENSE_CARRIER:
        d = dst.compiled
        derive = [lambda a, b, row=rows.__getitem__:
                  column(map(getitem, map(row, a), b))
                  for rows in (d.add, d.add_t, d.mul, d.mul_t)]
    else:
        derive = [lambda a, b, op=op: column(map(op, a, b)) for op in (
            dst.add_i, lambda u, v: dst.add_i(v, u),
            dst.mul_i, lambda u, v: dst.mul_i(v, u))]
    derive += closure_sides(dst, bpa)[4:]
    reached = {src.top_index, src.bot_index, *(e for e, *_ in first)}
    for i, (g, steps) in enumerate(stages):
        new = [g, *(e for e, *_ in steps)]
        reached.update(new)
        last = i + 1 == len(stages)
        screen = None if free_bpa or width == 1 or last else list(
            dict.fromkeys(chain(  # (e, k, a, b): ψ(e) = derive[k](ψ(a), ψ(b))
                *(((s.add[g][x], 0, g, x), (s.add[x][g], 0, x, g),
                   (s.mul[g][x], 2, g, x), (s.mul[x][g], 2, x, g))
                  for x in sorted(reached)),
                ((s.comp[y], 4, y, y) for y in new if bpa))))
        stages[i] = g, steps, screen  # each stage gains its screen

    seed = [None] * s.n  # the columns of the one candidate before stage 0
    seed[src.top_index] = column([dst.top_index])
    seed[src.bot_index] = column([dst.bot_index])
    for e, k, a, b in first:
        seed[e] = derive[k](seed[a], seed[b])
    if width <= MAX_DENSE_CARRIER and seed[src.top_index][0] == dst.top_index:
        generator_rows = [  # per operation: G∘'s rows joined, G∘, target rows
            (concat([s.tables(op)[0][g] for g in s.generators(op)]),
             s.generators(op), d.tables(op)[0]) for op in (ADD, MUL)]
        complements = (s.comp, d.comp) if bpa else None
    else:  # ψ(⊤) ≠ ⊤, or above the table limit
        generator_rows = complements = None
    associative = None  # of both carriers, found once a map needs it
    homs = []
    for cols in _stages(seed, stages, derive, column, width):
        live = len(cols[src.top_index])
        joined = concat(cols)
        for j in range(live):  # decide each candidate on its row
            f = joined[j::live]
            if generator_rows is not None:
                if not _generator_rows_hold(f, generator_rows, complements):
                    continue
                if associative is None:
                    associative = all(_associative(c, op) for c in (s, d)
                                      for op in (ADD, MUL))
            psi = Morphism(src, dst, f)
            if associative or check_morphism(psi, kind).holds:
                homs.append(psi)
    if not free_bpa:  # generators need not ascend
        homs.sort(key=lambda psi: psi.mapping)
    return homs


def _stages(seed: list, stages: list, derive, column,
            width: int) -> Iterator[list]:
    """Depth first, the blocks of columns that all the stages leave of
    the one candidate whose columns are ``seed``.  The stack holds, per
    stage reached, the blocks that stage has still to give, so no call
    nests per stage and a source may need more generators than the
    recursion limit."""
    stack = [iter([seed])]
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
        elif len(stack) > len(stages):
            yield block
        else:
            stack.append(_blocks(block, stages[len(stack) - 1], derive,
                                 column, width))


def _blocks(cols: list, stage: tuple, derive, column,
            width: int) -> Iterator[list]:
    """The blocks of columns that one stage (g, steps, screen) leaves of
    the candidates whose columns are ``cols``: it gives each candidate
    every image of g, in blocks of at most :data:`_CHUNK` candidates,
    derives its steps and keeps the candidates that pass the screen."""
    g, steps, screen = stage
    live, images = len(next(filter(None, cols))), column(range(width))
    # a block: `per` candidates, each with `span` images of g
    per, span = max(1, _CHUNK // width), min(width, _CHUNK)
    for lo, v in product(range(0, live, per), range(0, width, span)):
        values = images[v:v + span]
        block = [None if x is None else column(chain.from_iterable(
            zip(*repeat(x[lo:lo + per], len(values))))) for x in cols]
        block[g] = values * min(per, live - lo)
        for e, k, a, b in steps:
            block[e] = derive[k](block[a], block[b])
        if screen is not None:
            block = _screened(block, screen, derive, column)
        if block is not None:
            yield block


def _screened(cols: list, positions, derive, column) -> list | None:
    """The columns of the candidates with ψ(e) = derive[k](ψ(a), ψ(b))
    at every position (e, k, a, b), or None when no candidate is left."""
    equal = CompiledTables.equal
    live = len(next(filter(None, cols)))
    everyone = keep = _from_bytes(b"\1" * live)
    for e, k, a, b in positions:
        keep &= _from_bytes(equal(cols[e], derive[k](cols[a], cols[b])))
        if not keep:
            return None
    if keep == everyone:
        return cols
    kept = keep.to_bytes(live, "little")
    return [None if x is None else column(compress(x, kept)) for x in cols]


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
    scanned in either mode, and no order is built: a carrier without a
    canonical order is refused alike in both modes, with the messages of
    :func:`order.canonical_order`.
    """
    _require_mode(mode)
    require_canonical(src)
    require_canonical(dst)
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
