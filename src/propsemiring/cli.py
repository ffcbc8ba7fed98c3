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

from . import __version__
from .algebra import (Algebra, AlgebraError, SizeLimitError,
                      free_boolean_algebra, subalgebra_closure, table_semiring)
from .differences import (extended_order, subtrahend_ideal,
                          verify_difference_cancellation)
from .formulas import ParseError, UnboundAtomError, atoms_of, evaluate, parse, \
    unparse, Const, Atom, Not, And, Or, Implies, Iff
from .morphisms import (Morphism, check_morphism, enumerate_homs, factor,
                        is_isomorphism, kernel, refines, verify_iso_theorem)
from .order import (DEFAULT_SEED, OrderRelation, canonical_order,
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


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _claim(claim_id: str, statement: str, verdict: str,
           witness: list[str] | None = None) -> dict:
    return {"id": claim_id, "statement": statement, "verdict": verdict,
            "witness": witness}


def _claim_from_report(claim_id: str, statement: str, report) -> dict:
    verdict = CONFIRMED if report.holds else REFUTED
    witness = list(report.witness) if report.witness else None
    return _claim(claim_id, statement, verdict, witness)


def _report_skeleton(command: str, seed: int, inputs: list[dict]) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "seed": seed,
        "inputs": inputs,
    }


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
            with open(found, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            self.cache[key] = table_semiring(doc, source_spec=f"table:{path}")
            self.inputs.append({"source": path, "sha256": _digest(found)})
        return self.cache[key]

    def morphism(self, path: str) -> Morphism:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict) or not {"source", "target", "map"} <= set(doc):
            raise ValueError(f"{path}: a morphism needs source, target and map")
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
        with open(matrix_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
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

def cmd_check(args: argparse.Namespace) -> int:
    loader = _Loader()
    algebra = loader.from_args(args)
    axioms = check_semiring_axioms(algebra)
    zerosumfree = is_zerosumfree(algebra)
    entire = is_entire(algebra)
    simple = is_simple(algebra)
    absorbing = next(r for r in axioms if r.property == "top-absorbing")
    center = compute_center(algebra)
    cancellable = additively_cancellable_elements(algebra)

    center_full = len(center) == algebra.size
    first_noncentral = next(
        (algebra.name_of(i) for i in range(algebra.size)
         if i not in {e.index for e in center}), None)
    failing_axiom = next((r for r in axioms if not r.holds), None)

    claims = [
        _claim("semiring",
               "the carrier forms a commutative semiring: both operations are "
               "commutative monoids (identities ⊤ and ⊥), × distributes over + "
               "and ⊤ absorbs under ×",
               CONFIRMED if failing_axiom is None else REFUTED,
               list(failing_axiom.witness) if failing_axiom
               and failing_axiom.witness else None),
        _claim_from_report("zerosumfree", "p + q = ⊤ forces p = q = ⊤",
                           zerosumfree),
        _claim_from_report("entire", "p × q = ⊤ forces p = ⊤ or q = ⊤", entire),
        _claim_from_report("simple", "p + ⊥ = ⊥ for every p", simple),
        _claim("commutative", "every element is central: p × q = q × p",
               CONFIRMED if center_full else REFUTED,
               None if center_full else [first_noncentral]),
        _claim_from_report("multiplicatively-absorbing",
                           "⊤ × p = ⊤ = p × ⊤ for every p", absorbing),
    ]

    doc = _report_skeleton("check", args.seed, loader.inputs)
    doc.update({
        "algebra": algebra.summary(),
        "checks": [r.to_json() for r in axioms
                   ] + [zerosumfree.to_json(), entire.to_json(),
                        simple.to_json(), absorbing.to_json()],
        "center": {"size": len(center), "full": center_full,
                   "elements": [e.name for e in center]},
        "additively_cancellable": [e.name for e in cancellable],
        "claims": claims,
    })
    print(_dumps(doc))
    return 0


# -- order ----------------------------------------------------------------

def cmd_order(args: argparse.Namespace) -> int:
    loader = _Loader()
    algebra = loader.from_args(args)
    order, order_used = _order_for(algebra, args, loader)

    poset = check_poset(order)
    monotony = check_monotony(algebra, order)
    bounds = check_operation_bounds(algebra, order)
    decomposition = check_bound_decomposition(algebra, order)
    pairwise = check_pairwise_monotony(algebra, order, seed=args.seed)
    positive, negative = cones(algebra, order)

    positive_full = len(positive) == algebra.size
    outside_positive = next(
        (algebra.name_of(i) for i in range(algebra.size)
         if i not in {e.index for e in positive}), None)
    failing_poset = next((r for r in poset if not r.holds), None)

    claims = [
        _claim("poset", "≼ is reflexive, antisymmetric and transitive",
               CONFIRMED if failing_poset is None else REFUTED,
               list(failing_poset.witness) if failing_poset
               and failing_poset.witness else None),
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
        _claim("positive-cone-carrier",
               "every p satisfies p ≼ p + q for all q "
               "(the positive cone is the whole carrier)",
               CONFIRMED if positive_full else REFUTED,
               None if positive_full else [outside_positive]),
        _claim("negative-cone-empty",
               "no p satisfies p + q ≼ p for all q (the negative cone is empty)",
               CONFIRMED if not negative else REFUTED,
               [e.name for e in negative] if negative else None),
    ]

    doc = _report_skeleton("order", args.seed, loader.inputs)
    doc.update({
        "algebra": algebra.summary(),
        "order_used": order_used,
        "checks": [r.to_json() for r in poset + monotony
                   ] + [bounds.to_json(), decomposition.to_json(),
                        pairwise.to_json()],
        "cones": {"positive": [e.name for e in positive],
                  "negative": [e.name for e in negative]},
        "claims": claims,
    })

    if args.sub is not None:
        names = [s for s in args.sub.split(",") if s]
        generators = [algebra.element_named(n) for n in names]
        sub = subalgebra_closure(algebra, generators,
                                 bpa_closed=args.sub_kind == "bpa")
        doc["subalgebra"] = {
            "generators": names,
            "kind": args.sub_kind,
            "members": sub.element_names(),
            "report": subalgebra_order_report(algebra, sub, order).to_json(),
        }

    print(_dumps(doc))
    return 0


# -- hom --------------------------------------------------------------------

def cmd_hom_check(args: argparse.Namespace) -> int:
    loader = _Loader()
    psi = loader.morphism(args.map)
    report = check_morphism(psi, args.kind)
    kern = kernel(psi)
    doc = _report_skeleton("hom check", args.seed, loader.inputs)
    doc.update({
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
    })
    if report.holds:  # the image of a homomorphism is a subalgebra
        doc["image"] = [psi.target.name_of(t) for t in psi.image_indices()]
    print(_dumps(doc))
    return 0


def cmd_hom_enumerate(args: argparse.Namespace) -> int:
    loader = _Loader()
    src = loader.resolve(args.src)
    dst = loader.resolve(args.dst)
    homs = enumerate_homs(src, dst, args.kind)
    for psi in homs:
        print(json.dumps(psi.to_json(), sort_keys=True,
                         separators=(",", ":"), ensure_ascii=False))
    print(f"{len(homs)} {args.kind} homomorphisms "
          f"{src.source_spec} -> {dst.source_spec}", file=sys.stderr)
    return 0


def cmd_hom_factor(args: argparse.Namespace) -> int:
    loader = _Loader()
    psi1 = loader.morphism(args.psi1)
    psi2 = loader.morphism(args.psi2)
    k1, k2 = kernel(psi1), kernel(psi2)
    does_refine = refines(k1, k2)
    psi = factor(psi1, psi2)
    verified = psi is not None and all(
        psi.mapping[psi1.mapping[a]] == psi2.mapping[a]
        for a in range(psi1.source.size))
    doc = _report_skeleton("hom factor", args.seed, loader.inputs)
    doc.update({
        "kernels": {"psi1": k1.to_json(), "psi2": k2.to_json()},
        "refines": does_refine,
        "factors": psi is not None,
        "psi": psi.to_json() if psi is not None else None,
        "verified": verified,
        "claims": [],
    })
    print(_dumps(doc))
    return 0


def cmd_hom_iso_theorem(args: argparse.Namespace) -> int:
    loader = _Loader()
    src = loader.resolve(args.src)
    dst = loader.resolve(args.dst)
    report = verify_iso_theorem(src, dst, kind=args.kind, mode=args.mode)
    witness = None
    if report.counterexamples:
        first = report.counterexamples[0]
        witness = [",".join(f"{k}↦{v}" for k, v in sorted(first["map"].items()))]
    doc = _report_skeleton("hom iso-theorem", args.seed, loader.inputs)
    doc.update({
        "result": report.to_json(),
        "claims": [_claim(
            "onto-order-preserving-iff-isomorphism",
            "a homomorphism is onto and order-preserving exactly when it "
            "is an isomorphism",
            CONFIRMED if report.holds else REFUTED, witness)],
    })
    print(_dumps(doc))
    return 0


# -- diff ---------------------------------------------------------------------

def cmd_diff(args: argparse.Namespace) -> int:
    loader = _Loader()
    algebra = loader.from_args(args)
    if args.subtrahends is not None:
        names = [s for s in args.subtrahends.split(",") if s]
        sub = subtrahend_ideal(algebra, names)
    else:
        sub = subtrahend_ideal(algebra)
    cancellation = verify_difference_cancellation(algebra, sub)
    diff = cancellation.difference
    order, order_used = _order_for(algebra, args, loader, fallback_discrete=True)
    extension = extended_order(algebra, order, sub, universal=args.universal)
    extension.order_used = order_used
    embedding_iso = is_isomorphism(diff.embedding, "semiring")

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
        _claim("similarity-iff",
               "the extended order equals ≼ exactly when ≼ is itself "
               "invariant under adding subtrahends",
               CONFIRMED if extension.similarity_iff else REFUTED,
               None if extension.similarity_iff else
               [f"matches_base={extension.matches_base}",
                f"base_stability={extension.base_stability.verdict}"]),
    ]
    if trivial:
        claims.append(_claim_from_report(
            "difference-isomorphic-to-parent",
            "trivial subtrahends ({⊤}) give a difference semiring "
            "isomorphic to the carrier", embedding_iso))
    if cancellation.hypothesis_met:
        witness = None
        if not cancellation.biconditional_holds:
            sides = [f"quotient: {cancellation.quotient_cancellative.verdict}",
                     f"criterion: {cancellation.criterion.verdict}"]
            broken = (cancellation.quotient_cancellative
                      if not cancellation.quotient_cancellative.holds
                      else cancellation.criterion)
            if broken.witness:
                sides.extend(broken.witness)
            witness = sides
        claims.append(_claim(
            "difference-cancellation-iff",
            "the difference semiring is multiplicatively left-cancellative "
            "exactly when c×a + Δ×b ≠ c×b + Δ×a whenever Δ ≠ c and a ≠ b",
            CONFIRMED if cancellation.biconditional_holds else REFUTED,
            witness))
    else:
        claims.append(_claim(
            "difference-cancellation-iff",
            "the difference semiring is multiplicatively left-cancellative "
            "exactly when c×a + Δ×b ≠ c×b + Δ×a whenever Δ ≠ c and a ≠ b "
            "(hypothesis: the carrier is multiplicatively left-cancellative)",
            OUT_OF_HYPOTHESIS,
            list(cancellation.hypothesis.witness or [])))

    doc = _report_skeleton("diff", args.seed, loader.inputs)
    doc.update({
        "algebra": algebra.summary(),
        "subtrahends": sub.element_names(),
        "difference": diff.algebra.summary(),
        "checks": [r.to_json() for r in diff.reports.values()],
        "embedding": diff.embedding.name_map(),
        "embedding_isomorphism": embedding_iso.to_json(),
        "extended_order": extension.to_json(),
        "cancellation": cancellation.to_json(),
        "claims": claims,
    })
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(_dumps(diff.to_table_dict()) + "\n")
        doc["emitted"] = args.emit
    print(_dumps(doc))
    return 0


# -- parse ----------------------------------------------------------------

def _ast_json(f) -> dict:
    if isinstance(f, Const):
        return {"const": f.value}
    if isinstance(f, Atom):
        return {"atom": f.name}
    if isinstance(f, Not):
        return {"op": "not", "args": [_ast_json(f.operand)]}
    ops = {And: "and", Or: "or", Implies: "implies", Iff: "iff"}
    return {"op": ops[type(f)],
            "args": [_ast_json(f.left), _ast_json(f.right)]}


def cmd_parse(args: argparse.Namespace) -> int:
    formula = parse(args.formula)
    if args.atoms:
        atom_names = [s for s in args.atoms.split(",") if s]
    else:
        atom_names = atoms_of(formula)
    algebra = free_boolean_algebra(len(atom_names), atom_names)
    element = evaluate(formula, algebra)
    doc = _report_skeleton("parse", args.seed, [{"source": args.formula}])
    doc.update({
        "formula": unparse(formula),
        "ast": _ast_json(formula),
        "algebra": algebra.summary(),
        "atoms": list(algebra.atoms),
        "element": {"name": element.name, "index": element.index,
                    "bits": element.bits()},
    })
    print(_dumps(doc))
    return 0


# -- wiring ----------------------------------------------------------------

def _algebra_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--free-atoms", type=int, default=None, metavar="N",
                        help="use the free Boolean algebra on N atoms")
    parser.add_argument("--table", default=None, metavar="PATH",
                        help="load a table algebra from JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="verification workbench for finite proposition semirings "
                    "(+ is AND with identity ⊤, × is OR with identity ⊥)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for sampled scans (printed in reports)")
    commands = parser.add_subparsers(dest="command", required=True)

    p_check = commands.add_parser(
        "check", help="semiring axioms and classifications")
    _algebra_source(p_check)

    p_order = commands.add_parser(
        "order", help="poset, monotony, bounds and cones")
    _algebra_source(p_order)
    p_order.add_argument("--order-matrix", default=None, metavar="PATH",
                         help="0/1 matrix JSON instead of the canonical order")
    p_order.add_argument("--sub", default=None, metavar="NAMES",
                         help="comma-separated generators of a subalgebra "
                              "to report on")
    p_order.add_argument("--sub-kind", choices=("bpa", "semiring"),
                         default="bpa", help="closure kind for --sub")

    p_hom = commands.add_parser("hom", help="homomorphism tools")
    hom_commands = p_hom.add_subparsers(dest="hom_command", required=True)

    p_hc = hom_commands.add_parser("check", help="verify a morphism file")
    p_hc.add_argument("--map", required=True, metavar="PATH")
    p_hc.add_argument("--kind", choices=("semiring", "bpa"), default="semiring")

    p_he = hom_commands.add_parser(
        "enumerate", help="print all homomorphisms as JSON lines; the whole "
                          "list is found before the first line is printed")
    p_he.add_argument("--src", required=True, metavar="SPEC",
                      help="free:N or a table JSON path")
    p_he.add_argument("--dst", required=True, metavar="SPEC")
    p_he.add_argument("--kind", choices=("semiring", "bpa"), default="semiring")

    p_hf = hom_commands.add_parser("factor",
                                   help="factor psi2 through surjective psi1")
    p_hf.add_argument("--psi1", required=True, metavar="PATH")
    p_hf.add_argument("--psi2", required=True, metavar="PATH")

    p_hi = hom_commands.add_parser(
        "iso-theorem",
        help="test: onto and order-preserving iff isomorphism")
    p_hi.add_argument("--src", required=True, metavar="SPEC")
    p_hi.add_argument("--dst", required=True, metavar="SPEC")
    p_hi.add_argument("--kind", choices=("semiring", "bpa"), default="bpa")
    p_hi.add_argument("--mode", choices=("monotone", "embedding"),
                      default="embedding")

    p_diff = commands.add_parser(
        "diff", help="subtrahends, difference semiring and extended order")
    _algebra_source(p_diff)
    p_diff.add_argument("--subtrahends", default=None, metavar="NAMES",
                        help="comma-separated subtrahend elements "
                             "(validated); default: computed")
    p_diff.add_argument("--order-matrix", default=None, metavar="PATH")
    p_diff.add_argument("--universal", action="store_true",
                        help="read the extension quantifier as for-all")
    p_diff.add_argument("--emit", default=None, metavar="PATH",
                        help="write the difference semiring as table JSON")

    p_parse = commands.add_parser("parse", help="parse and evaluate a formula")
    p_parse.add_argument("formula")
    p_parse.add_argument("--atoms", default=None, metavar="CSV",
                         help="atom names; default: the formula's own atoms")

    return parser


def main(argv: list[str] | None = None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass
    args = build_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "order": cmd_order,
        "diff": cmd_diff,
        "parse": cmd_parse,
    }
    hom_handlers = {
        "check": cmd_hom_check,
        "enumerate": cmd_hom_enumerate,
        "factor": cmd_hom_factor,
        "iso-theorem": cmd_hom_iso_theorem,
    }
    try:
        if args.command == "hom":
            return hom_handlers[args.hom_command](args)
        return handlers[args.command](args)
    except (AlgebraError, ParseError, UnboundAtomError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
