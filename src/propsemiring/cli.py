"""Command-line front end: deterministic JSON reports on stdout.

Subcommands: check (semiring axioms and classifications), order (natural
or supplied partial order), hom (check / enumerate / factor /
iso-theorem), diff (subtrahends, difference semiring, extended order,
cancellation) and parse (formula to truth table).  Findings such as a
refuted classification are ordinary output with exit code 0; exit code 2
means the input or a size limit was the problem.  The claim ledger in
each report records, per statement, one of confirmed /
refuted-with-witness / out-of-hypothesis.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections.abc import Sequence
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring
from operator import itemgetter

from . import __version__
from .algebra import (Algebra, AlgebraError, free_boolean_algebra,
                      subalgebra_closure, table_semiring)
from .differences import (extended_order, subtrahend_ideal,
                          verify_difference_cancellation)
from .formulas import (CONNECTIVES, Atom, Const, Not, ParseError,
                       UnboundAtomError, atoms_of, evaluate, parse, unparse)
from .morphisms import (KINDS, MODES, Morphism, check_morphism,
                        enumerate_homs, factor, kernel,
                        refines, verify_iso_theorem)
from .order import (OrderRelation, canonical_order,
                    check_bound_decomposition, check_monotony,
                    check_operation_bounds, check_pairwise_monotony,
                    check_poset, cones, discrete_order, subalgebra_order_report)
from .properties import (additively_cancellable_elements,
                         check_semiring_axioms, compute_center, is_entire,
                         is_simple, is_zerosumfree)

TOOL_NAME = "propsemiring"

CONFIRMED = "confirmed"
REFUTED = "refuted-with-witness"
OUT_OF_HYPOTHESIS = "out-of-hypothesis"


_CONTAINERS = (dict, list, tuple)


def _dumps(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``,
    byte for byte, with the per-member work in C.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder.  Here each
    container whose members are all scalars, and each scalar, is one call
    of the C encoder of its depth, whose item separator carries the
    newline and indent of the members; only the containers above those
    are laid out in Python.  The keys of a dict that holds containers
    must be strings, as in every report.
    """
    levels: list[tuple] = []  # per depth: encoder, member and bracket indent
    parts: list[str] = []

    def write(value, depth: int) -> None:
        if depth == len(levels):  # markers, default, string encoder,
            # indent, key and item separators, sort_keys, skipkeys, allow_nan
            levels.append((c_make_encoder(
                None, json.JSONEncoder().default, encode_basestring, None,
                ": ", ",\n" + "  " * (depth + 1), True, False, True),
                "\n" + "  " * (depth + 1), "\n" + "  " * depth))
        encoder, inner, outer = levels[depth]
        if isinstance(value, dict):
            brackets, members = "{}", value.values()
        elif isinstance(value, (list, tuple)):
            brackets, members = "[]", value
        else:
            parts.append("".join(encoder(value, 0)))
            return
        if not value:
            parts.append(brackets)
        elif not any(map(isinstance, members, repeat(_CONTAINERS))):
            parts.append(brackets[0] + inner + "".join(encoder(value, 0))[1:-1]
                         + outer + brackets[1])
        else:
            entries = (((encode_basestring(k) + ": ", v)
                        for k, v in sorted(value.items()))
                       if brackets == "{}" else zip(repeat(""), value))
            separator = brackets[0] + inner
            for label, member in entries:
                if isinstance(member, _CONTAINERS):
                    parts.append(separator + label)
                    write(member, depth + 1)
                else:
                    parts.append(separator + label + "".join(encoder(member, 0)))
                separator = "," + inner
            parts.append(outer + brackets[1])

    write(doc, 0)
    return "".join(parts)


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _claim(claim_id: str, statement: str, verdict: str,
           witness: list[str] | None = None) -> dict:
    return {"id": claim_id, "statement": statement, "verdict": verdict,
            "witness": witness}


class _Finding:
    """A verdict that no report carries, for :func:`_claim_from_report`."""

    def __init__(self, holds: bool, witness: list[str] | None):
        self.holds, self.witness = holds, witness


def _claim_from_report(claim_id: str, statement: str, *reports) -> dict:
    """Confirmed when every report holds, else refuted with the witness
    of the first that fails; a report is anything with ``holds`` and
    ``witness``."""
    failing = next((r for r in reports if not r.holds), None)
    if failing is None:
        return _claim(claim_id, statement, CONFIRMED)
    witness = list(failing.witness) if failing.witness else None
    return _claim(claim_id, statement, REFUTED, witness)


def _whole_carrier(algebra: Algebra, elements) -> _Finding:
    """Whether ``elements`` cover the carrier, the first one missing as
    the witness."""
    inside = {e.index for e in elements}
    outside = [algebra.name_of(i) for i in range(algebra.size)
               if i not in inside][:1]
    return _Finding(not outside, outside)


def _read_json(path: str):
    """The JSON document in the file ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError(f"{path}: JSON nests too deeply") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from None


class _Loader:
    """Algebra resolution with per-run caching so shared sources are
    shared objects (factor and compose compare carriers by identity)."""

    def __init__(self):
        self.cache: dict = {}
        self.inputs: list[dict] = []

    def from_args(self, args: argparse.Namespace) -> Algebra:
        if getattr(args, "free_atoms", None) is not None and args.table:
            raise ValueError("give either --free-atoms or --table, not both")
        if getattr(args, "free_atoms", None) is not None:
            return self.resolve(f"free:{args.free_atoms}")
        if getattr(args, "table", None):
            return self.resolve(args.table)
        raise ValueError("an algebra is required: --free-atoms N or --table PATH")

    def resolve(self, spec: str, base: str | None = None) -> Algebra:
        if spec.startswith("free:"):
            tail = spec[5:]
            if not tail.isdigit():
                raise ValueError(f"bad algebra spec {spec!r}: expected free:N")
            if spec not in self.cache:
                self.cache[spec] = free_boolean_algebra(int(tail))
                self.inputs.append({"source": spec})
            return self.cache[spec]
        path = spec[6:] if spec.startswith("table:") else spec
        candidates = [path]
        if base and not os.path.isabs(path):
            candidates.append(os.path.join(base, path))
        found = next((c for c in candidates if os.path.exists(c)), None)
        if found is None:
            raise OSError(f"table file not found: {path}")
        key = ("table", os.path.realpath(found))
        if key not in self.cache:
            self.cache[key] = table_semiring(_read_json(found),
                                             source_spec=f"table:{path}")
            self.inputs.append({"source": path, "sha256": _digest(found)})
        return self.cache[key]

    def morphism(self, path: str) -> Morphism:
        doc = _read_json(path)
        if not isinstance(doc, dict) or not {"source", "target", "map"} <= set(doc):
            raise ValueError(f"{path}: a morphism needs source, target and map")
        for key in ("source", "target"):
            if not isinstance(doc[key], str):
                raise ValueError(f"{path}: '{key}' must be a string, "
                                 f"got {doc[key]!r}")
        base = os.path.dirname(os.path.abspath(path))
        src = self.resolve(doc["source"], base=base)
        dst = self.resolve(doc["target"], base=base)
        if not isinstance(doc["map"], dict):
            raise ValueError(f"{path}: 'map' must be an object")
        self.inputs.append({"source": path, "sha256": _digest(path)})
        return Morphism.from_names(src, dst, doc["map"])


def _order_for(algebra: Algebra, args: argparse.Namespace,
               loader: _Loader, fallback_discrete: bool = False
               ) -> tuple[OrderRelation, str]:
    matrix_path = getattr(args, "order_matrix", None)
    if matrix_path:
        doc = _read_json(matrix_path)
        if isinstance(doc, dict):
            doc = doc.get("order")
        if not isinstance(doc, list):
            raise ValueError(f"{matrix_path}: expected a 0/1 matrix "
                             f"(bare or under an 'order' key)")
        loader.inputs.append({"source": matrix_path,
                              "sha256": _digest(matrix_path)})
        return OrderRelation.from_matrix(algebra, doc), "supplied"
    if algebra.order_matrix is not None:
        return OrderRelation.from_matrix(algebra, algebra.order_matrix), "supplied"
    if fallback_discrete:
        try:
            return canonical_order(algebra), "canonical"
        except AlgebraError:
            return discrete_order(algebra), "discrete-fallback"
    return canonical_order(algebra), "canonical"


# -- check ----------------------------------------------------------------

def cmd_check(args: argparse.Namespace, loader: _Loader) -> dict:
    algebra = loader.from_args(args)
    axioms = check_semiring_axioms(algebra)
    zerosumfree = is_zerosumfree(algebra)
    entire = is_entire(algebra)
    simple = is_simple(algebra)
    absorbing = next(r for r in axioms if r.property == "top-absorbing")
    center = compute_center(algebra)
    cancellable = additively_cancellable_elements(algebra)

    claims = [
        _claim_from_report(
            "semiring",
            "the carrier forms a commutative semiring: both operations are "
            "commutative monoids (identities ⊤ and ⊥), × distributes over + "
            "and ⊤ absorbs under ×", *axioms),
        _claim_from_report("zerosumfree", "p + q = ⊤ forces p = q = ⊤",
                           zerosumfree),
        _claim_from_report("entire", "p × q = ⊤ forces p = ⊤ or q = ⊤", entire),
        _claim_from_report("simple", "p + ⊥ = ⊥ for every p", simple),
        _claim_from_report("commutative",
                           "every element is central: p × q = q × p",
                           _whole_carrier(algebra, center)),
        _claim_from_report("multiplicatively-absorbing",
                           "⊤ × p = ⊤ = p × ⊤ for every p", absorbing),
    ]

    return {
        "algebra": algebra.summary(),
        "checks": [r.to_json() for r in
                   (*axioms, zerosumfree, entire, simple)],
        "center": {"size": len(center), "full": len(center) == algebra.size,
                   "elements": [e.name for e in center]},
        "additively_cancellable": [e.name for e in cancellable],
        "claims": claims,
    }


# -- order ----------------------------------------------------------------

def cmd_order(args: argparse.Namespace, loader: _Loader) -> dict:
    algebra = loader.from_args(args)
    order, order_used = _order_for(algebra, args, loader)

    poset = check_poset(order)
    monotony = check_monotony(order)
    bounds = check_operation_bounds(order)
    decomposition = check_bound_decomposition(order)
    pairwise = check_pairwise_monotony(order)
    positive, negative = cones(order)

    claims = [
        _claim_from_report("poset",
                           "≼ is reflexive, antisymmetric and transitive",
                           *poset),
        _claim_from_report("monotony-add", "p ≼ q implies p + r ≼ q + r",
                           monotony[0]),
        _claim_from_report("monotony-mul", "p ≼ q implies p × r ≼ q × r",
                           monotony[1]),
        _claim_from_report("operation-bounds",
                           "p ≼ p + q and p × q ≼ q for all p, q", bounds),
        _claim_from_report("bound-decomposition",
                           "p + q ≼ r implies p ≼ r and q ≼ r; "
                           "p ≼ q × r implies p ≼ q and p ≼ r", decomposition),
        _claim_from_report("pairwise-monotony",
                           "p ≼ q and r ≼ s imply p + r ≼ q + s and "
                           "p × r ≼ q × s", pairwise),
        _claim_from_report("positive-cone-carrier",
                           "every p satisfies p ≼ p + q for all q "
                           "(the positive cone is the whole carrier)",
                           _whole_carrier(algebra, positive)),
        _claim_from_report("negative-cone-empty",
                           "no p satisfies p + q ≼ p for all q (the negative "
                           "cone is empty)",
                           _Finding(not negative, [e.name for e in negative])),
    ]

    doc = {
        "algebra": algebra.summary(),
        "order_used": order_used,
        "checks": [r.to_json() for r in poset + monotony
                   ] + [bounds.to_json(), decomposition.to_json(),
                        pairwise.to_json()],
        "cones": {"positive": [e.name for e in positive],
                  "negative": [e.name for e in negative]},
        "claims": claims,
    }

    if args.sub is not None:
        names = [s for s in args.sub.split(",") if s]
        generators = [algebra.element_named(n) for n in names]
        sub = subalgebra_closure(algebra, generators,
                                 bpa_closed=args.sub_kind == "bpa")
        doc["subalgebra"] = {
            "generators": names,
            "kind": args.sub_kind,
            "members": sub.element_names(),
            "report": subalgebra_order_report(sub, order).to_json(),
        }
    return doc


# -- hom --------------------------------------------------------------------

def cmd_hom_check(args: argparse.Namespace, loader: _Loader) -> dict:
    psi = loader.morphism(args.map)
    report = check_morphism(psi, args.kind)
    kern = kernel(psi)
    doc = {
        "kind": args.kind,
        "map": psi.name_map(),
        "check": report.to_json(),
        "kernel": kern.to_json(),
        "surjective": psi.is_surjective(),
        "injective": psi.is_injective(),
        "claims": [_claim_from_report(
            "homomorphism",
            "the map preserves +, ×, ⊤ and ⊥ (and ! for the bpa kind)",
            report)],
    }
    if report.holds:  # the image of a homomorphism is a subalgebra
        doc["image"] = [psi.target.name_of(t) for t in psi.image_indices()]
    return doc


def cmd_hom_enumerate(args: argparse.Namespace, loader: _Loader) -> None:
    """One line per map, ``json.dumps(psi.to_json(), sort_keys=True,
    separators=(",", ":"), ensure_ascii=False)`` byte for byte: the keys
    "map" < "source" < "target", and the map's entries in the order of
    the source names, each name encoded once into one %-template."""
    src = loader.resolve(args.src)
    dst = loader.resolve(args.dst)
    homs = enumerate_homs(src, dst, args.kind)
    order = sorted(range(src.size), key=src.name_lookup)
    # itemgetter of one index gives the entry, not a 1-tuple
    pick = itemgetter(*order) if len(order) > 1 else tuple
    values = {t: encode_basestring(dst.name_lookup(t))
              for t in set().union(*(psi.mapping for psi in homs))}.__getitem__
    literal = lambda text: encode_basestring(text).replace("%", "%%")
    line = ('{"map":{' + ",".join(literal(src.name_lookup(i)) + ":%s"
                                  for i in order)
            + '},"source":' + literal(src.source_spec)
            + ',"target":' + literal(dst.source_spec) + "}\n")
    sys.stdout.writelines(line % tuple(map(values, pick(psi.mapping)))
                          for psi in homs)
    print(f"{len(homs)} {args.kind} homomorphisms "
          f"{src.source_spec} -> {dst.source_spec}", file=sys.stderr)


def cmd_hom_factor(args: argparse.Namespace, loader: _Loader) -> dict:
    psi1 = loader.morphism(args.psi1)
    psi2 = loader.morphism(args.psi2)
    k1, k2 = kernel(psi1), kernel(psi2)
    does_refine = refines(k1, k2)
    psi = factor(psi1, psi2)
    verified = psi is not None  # factor returns psi only if ψ ∘ ψ1 = ψ2
    return {
        "kernels": {"psi1": k1.to_json(), "psi2": k2.to_json()},
        "refines": does_refine,
        "factors": psi is not None,
        "psi": psi.to_json() if psi is not None else None,
        "verified": verified,
        "claims": [],
    }


def cmd_hom_iso_theorem(args: argparse.Namespace, loader: _Loader) -> dict:
    src = loader.resolve(args.src)
    dst = loader.resolve(args.dst)
    report = verify_iso_theorem(src, dst, kind=args.kind, mode=args.mode)
    return {
        "result": report.to_json(),
        "claims": [_claim_from_report(
            "onto-order-preserving-iff-isomorphism",
            "a homomorphism is onto and order-preserving exactly when it "
            "is an isomorphism", report)],
    }


# -- diff ---------------------------------------------------------------------

def cmd_diff(args: argparse.Namespace, loader: _Loader) -> dict:
    algebra = loader.from_args(args)
    if args.subtrahends is not None:
        names = [s for s in args.subtrahends.split(",") if s]
        sub = subtrahend_ideal(algebra, names)
    else:
        sub = subtrahend_ideal(algebra)
    cancellation = verify_difference_cancellation(sub)
    diff = cancellation.difference
    order, order_used = _order_for(algebra, args, loader, fallback_discrete=True)
    extension = extended_order(order, sub, universal=args.universal)
    extension.order_used = order_used
    embedding_iso = diff.embedding_isomorphism()

    trivial = sub.members == (algebra.top_index,)
    claims = [
        _claim_from_report(
            "difference-embedding",
            "p ↦ (p - ⊤) is an injective semiring homomorphism into the "
            "difference semiring", diff.reports["embedding"]),
        _claim_from_report(
            "translation-invariance",
            "the extended order is invariant under adding any subtrahend "
            "to both sides", extension.stability),
        _claim_from_report(
            "similarity-iff",
            "the extended order equals ≼ exactly when ≼ is itself "
            "invariant under adding subtrahends",
            _Finding(extension.similarity_iff,
                     [f"matches_base={extension.matches_base}",
                      f"base_stability={extension.base_stability.verdict}"])),
    ]
    if trivial:
        claims.append(_claim_from_report(
            "difference-isomorphic-to-parent",
            "trivial subtrahends ({⊤}) give a difference semiring "
            "isomorphic to the carrier", embedding_iso))
    statement = ("the difference semiring is multiplicatively "
                 "left-cancellative exactly when c×a + Δ×b ≠ c×b + Δ×a "
                 "whenever Δ ≠ c and a ≠ b")
    if not cancellation.hypothesis_met:
        statement += (" (hypothesis: the carrier is multiplicatively "
                      "left-cancellative)")
        verdict = OUT_OF_HYPOTHESIS
        witness = list(cancellation.hypothesis.witness or [])
    elif cancellation.biconditional_holds:
        verdict, witness = CONFIRMED, None
    else:
        quotient, criterion = (cancellation.quotient_cancellative,
                               cancellation.criterion)
        broken = criterion if quotient.holds else quotient
        verdict = REFUTED
        witness = [f"quotient: {quotient.verdict}",
                   f"criterion: {criterion.verdict}", *(broken.witness or ())]
    claims.append(_claim("difference-cancellation-iff", statement, verdict,
                         witness))

    doc = {
        "algebra": algebra.summary(),
        "subtrahends": sub.element_names(),
        "difference": diff.algebra.summary(),
        "checks": [r.to_json() for r in diff.reports.values()],
        "embedding": diff.embedding.name_map(),
        "embedding_isomorphism": embedding_iso.to_json(),
        "extended_order": extension.to_json(),
        "cancellation": cancellation.to_json(),
        "claims": claims,
    }
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(_dumps(diff.to_table_dict()) + "\n")
        doc["emitted"] = args.emit
    return doc


# -- parse ----------------------------------------------------------------

def _ast_json(f) -> dict:
    if isinstance(f, Const):
        return {"const": f.value}
    if isinstance(f, Atom):
        return {"atom": f.name}
    if isinstance(f, Not):
        return {"op": "not", "args": [_ast_json(f.operand)]}
    return {"op": CONNECTIVES[type(f)].name,
            "args": [_ast_json(f.left), _ast_json(f.right)]}


def cmd_parse(args: argparse.Namespace, loader: _Loader) -> dict:
    loader.inputs.append({"source": args.formula})
    try:  # parse, evaluate, unparse and _ast_json recurse on the nesting
        formula = parse(args.formula)
        if args.atoms:
            atom_names = [s for s in args.atoms.split(",") if s]
        else:
            atom_names = atoms_of(formula)
        algebra = free_boolean_algebra(len(atom_names), atom_names)
        element = evaluate(formula, algebra)
        return {
            "formula": unparse(formula),
            "ast": _ast_json(formula),
            "algebra": algebra.summary(),
            "atoms": list(algebra.atoms),
            "element": {"name": element.name, "index": element.index,
                        "bits": element.bits()},
        }
    except RecursionError:
        raise ValueError("formula nests too deeply") from None


# -- wiring ----------------------------------------------------------------

_ALGEBRA_SOURCE = (
    ("--free-atoms", dict(type=int, default=None, metavar="N",
                          help="use the free Boolean algebra on N atoms")),
    ("--table", dict(default=None, metavar="PATH",
                     help="load a table algebra from JSON")),
)

# name -> (help, handler or the table of its own commands, options as
# (flag, add_argument keywords)), in the order help lists them.
_HOM_COMMANDS = {
    "check": ("verify a morphism file", cmd_hom_check, (
        ("--map", dict(required=True, metavar="PATH")),
        ("--kind", dict(choices=KINDS, default="semiring")),
    )),
    "enumerate": ("print all homomorphisms as JSON lines; the whole list is "
                  "found before the first line is printed", cmd_hom_enumerate, (
        ("--src", dict(required=True, metavar="SPEC",
                       help="free:N or a table JSON path")),
        ("--dst", dict(required=True, metavar="SPEC")),
        ("--kind", dict(choices=KINDS, default="semiring")),
    )),
    "factor": ("factor psi2 through surjective psi1", cmd_hom_factor, (
        ("--psi1", dict(required=True, metavar="PATH")),
        ("--psi2", dict(required=True, metavar="PATH")),
    )),
    "iso-theorem": ("test: onto and order-preserving iff isomorphism",
                    cmd_hom_iso_theorem, (
        ("--src", dict(required=True, metavar="SPEC")),
        ("--dst", dict(required=True, metavar="SPEC")),
        ("--kind", dict(choices=KINDS, default="bpa")),
        ("--mode", dict(choices=MODES, default="embedding")),
    )),
}

_COMMANDS = {
    "check": ("semiring axioms and classifications", cmd_check,
              _ALGEBRA_SOURCE),
    "order": ("poset, monotony, bounds and cones", cmd_order, (
        *_ALGEBRA_SOURCE,
        ("--order-matrix", dict(
            default=None, metavar="PATH",
            help="0/1 matrix JSON instead of the canonical order")),
        ("--sub", dict(default=None, metavar="NAMES",
                       help="comma-separated generators of a subalgebra to "
                            "report on")),
        ("--sub-kind", dict(choices=("bpa", "semiring"), default="bpa",
                            help="closure kind for --sub")),
    )),
    "hom": ("homomorphism tools", _HOM_COMMANDS, ()),
    "diff": ("subtrahends, difference semiring and extended order", cmd_diff, (
        *_ALGEBRA_SOURCE,
        ("--subtrahends", dict(default=None, metavar="NAMES",
                               help="comma-separated subtrahend elements "
                                    "(validated); default: computed")),
        ("--order-matrix", dict(default=None, metavar="PATH")),
        ("--universal", dict(action="store_true",
                             help="read the extension quantifier as for-all")),
        ("--emit", dict(default=None, metavar="PATH",
                        help="write the difference semiring as table JSON")),
    )),
    "parse": ("parse and evaluate a formula", cmd_parse, (
        ("formula", {}),
        ("--atoms", dict(default=None, metavar="CSV",
                         help="atom names; default: the formula's own atoms")),
    )),
}


def _add_commands(parser: argparse.ArgumentParser, table: dict, dest: str,
                  words: Sequence[str] | None) -> None:
    """Add the commands of ``table`` under ``dest``: only the one that
    ``words[0]`` names, with the rest of ``words`` for its own commands,
    or all of them when ``words`` is None or names none."""
    commands = parser.add_subparsers(dest=dest, required=True)
    named = words[0] if words and words[0] in table else None
    for name, (help_text, run, options) in table.items():
        if named not in (None, name):
            continue
        sub = commands.add_parser(name, help=help_text)
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
        if isinstance(run, dict):
            _add_commands(sub, run, f"{name}_command",
                          words[1:] if named else None)
        else:
            sub.set_defaults(run=run)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser of the whole command tree, or, when ``argv`` names a
    command, of the one path through the tree that it names.  Building
    the ten parsers of the tree takes longer than many jobs spend on
    their verdict."""
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="verification workbench for finite proposition semirings "
                    "(+ is AND with identity ⊤, × is OR with identity ⊥)")
    _add_commands(parser, _COMMANDS, "command", argv)
    return parser


def main(argv: list[str] | None = None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass
    if argv is None:
        argv = sys.argv[1:]
    args, extra = build_parser(argv).parse_known_args(argv)
    if extra:  # the whole tree reports them, with its usage line
        args = build_parser().parse_args(argv)
    loader = _Loader()
    try:
        body = args.run(args, loader)
        if body is not None:  # hom enumerate prints JSON lines itself
            command = (args.command if args.command != "hom"
                       else f"hom {args.hom_command}")
            print(_dumps({"tool": {"name": TOOL_NAME, "version": __version__},
                          "command": command, "inputs": loader.inputs,
                          **body}))
        return 0
    except (AlgebraError, ParseError, UnboundAtomError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
