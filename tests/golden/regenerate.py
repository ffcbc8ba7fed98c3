"""Write the golden CLI corpus: input files, cases.json and expected output.

Run from the repository root with the package importable:

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each case runs ``propsemiring.cli.main`` in a scratch copy of ``inputs/``
and records its exit code, its stdout and stderr (``expected/<id>.out``,
``expected/<id>.err``, written when not empty) and, for
``diff --emit``, the emitted table (``expected/<id>.emit``).  A run that
argparse ends, with help or a usage error, records the code it exits
with; ``COLUMNS`` is pinned to 80 so that help text does not depend on
the terminal.
``tests/test_golden.py`` replays the cases and compares bytes.  Only
regenerate when a change of output is intended, and say why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from helpers import bool2_spec, product_spec, zmod_spec  # noqa: E402

from propsemiring.algebra import free_boolean_algebra  # noqa: E402
from propsemiring.cli import main  # noqa: E402
from propsemiring.order import canonical_order  # noqa: E402


def _chain3() -> dict:
    """f < m < t in truth order: + is min, × is max."""
    names = ["t", "m", "f"]
    return {"name": "chain3", "elements": names,
            "add": [[names[max(i, j)] for j in range(3)] for i in range(3)],
            "mul": [[names[min(i, j)] for j in range(3)] for i in range(3)],
            "zero": "t", "one": "f"}


def _chain_matrix(n: int) -> list[list[int]]:
    return [[int(p <= q) for q in range(n)] for p in range(n)]


def _ordered_table(name: str, n: int, add) -> dict:
    """Indices 0 … n-1 with the given + and min as ×: ⊤ is 0, ⊥ is n-1."""
    names = [str(i) for i in range(n)]
    return {"name": name, "elements": names,
            "add": [[names[add(i, j)] for j in range(n)] for i in range(n)],
            "mul": [[names[min(i, j)] for j in range(n)] for i in range(n)],
            "zero": "0", "one": names[n - 1]}


def _boolean(k: int) -> dict:
    """The subsets of k atoms as k-bit masks: + is intersection, × union."""
    names = [format(i, f"0{k}b") for i in range(1 << k)]
    n = len(names)
    return {"name": f"bool{n}", "elements": names,
            "add": [[names[i & j] for j in range(n)] for i in range(n)],
            "mul": [[names[i | j] for j in range(n)] for i in range(n)],
            "zero": names[-1], "one": names[0]}


def _edited(base: dict, name: str, *edits) -> dict:
    doc = json.loads(json.dumps(base))
    doc["name"] = name
    index = {e: i for i, e in enumerate(doc["elements"])}
    for op, row, col, value in edits:
        doc[op][index[row]][index[col]] = value
    return doc


def _inputs() -> dict[str, object]:
    """File name -> JSON document of every input file."""
    files: dict[str, object] = {f"z{n}.json": zmod_spec(n) for n in range(2, 8)}
    files["bool2.json"] = bool2_spec()
    chain, free1 = _chain3(), free_boolean_algebra(1).to_table_dict()
    # One table per semiring axiom that loading does not enforce.
    files.update({
        "broken-add-commutativity.json":
            _edited(chain, "broken-add-comm", ("add", "m", "f", "m")),
        "broken-add-associativity.json":
            _edited(chain, "broken-add-assoc", ("add", "f", "f", "t")),
        "broken-mul-commutativity.json":
            _edited(free1, "broken-mul-comm", ("mul", "!a", "!a", "⊤"),
                    ("mul", "!a", "a", "!a")),
        "broken-mul-associativity.json":
            _edited(free1, "broken-mul-assoc", ("mul", "!a", "!a", "⊥")),
        "broken-distributivity.json":
            _edited(chain, "broken-dist", ("add", "m", "m", "t")),
        "broken-top-absorbing.json":
            _edited(chain, "broken-absorb", ("mul", "t", "t", "m")),
        "chain3c.json": dict(chain, name="chain3c", complement=["f", "m", "t"]),
    })
    for n in LONG_CHAINS:
        files[f"z{n}.json"] = zmod_spec(n)
    for n in (*range(2, 8), *LONG_CHAINS):
        files[f"chain-z{n}.json"] = _chain_matrix(n)
    files["z4xz6.json"] = product_spec(zmod_spec(4), zmod_spec(6))
    files["chain-z4xz6.json"] = _chain_matrix(24)
    files["z2xz4.json"] = product_spec(zmod_spec(2), zmod_spec(4))
    files["chain-z2xz4.json"] = _chain_matrix(8)
    files["z12.json"] = zmod_spec(12)
    # ⊖ is the 4 elements (a, ⊤) of ℤ4 × 2², so the 64 differences fall
    # into 16 classes of 4 pairs each.
    files["z4xbool4.json"] = product_spec(zmod_spec(4), _boolean(2))
    # The discrete order of ℤ6 plus 1 ≼ 4: shifting by the subtrahend 3
    # breaks it at p = 1, past the pairs of p = 0.
    files["z6-one-four.json"] = [[int(p == q or (p, q) == (1, 4))
                                  for q in range(6)] for p in range(6)]
    # Above 16 elements.  Saturating + under p ≼ p + 1: monotone in each
    # argument, but the relation is not transitive and the pairwise law
    # fails at (0, 1, 0, 1).  The right-zero + (p + r = r unless r = 0)
    # under the preorder of the levels ⌊p/2⌋: monotone in its first
    # argument only, since q + 0 = q and q + 1 = 1 need q ≼ 1.
    files["sat17.json"] = _ordered_table("sat17", 17,
                                         lambda i, j: min(i + j, 16))
    files["succ-sat17.json"] = [[int(q - p in (0, 1)) for q in range(17)]
                                for p in range(17)]
    files["rz18.json"] = _ordered_table("rz18", 18, lambda i, j: j or i)
    files["levels-rz18.json"] = [[int(p // 2 <= q // 2) for q in range(18)]
                                 for p in range(18)]
    # 101100 + 001110 changed from 001100 to 101100: + is then neither
    # commutative nor associative, and associativity fails first at
    # (100000, 101100, 001110), half way through the scan, at a third
    # argument that is not a generator of + (the sets of five atoms and
    # the full set).  The order is the canonical one of the intact table.
    files["bool64-late.json"] = _edited(_boolean(6), "bool64-late",
                                        ("add", "101100", "001110", "101100"))
    files["bool64-canonical.json"] = [[int(p & q == q) for q in range(64)]
                                      for p in range(64)]
    # Indices 0 … 11 with + max and × min, 9 × 10 changed from 9 to 10:
    # × is no longer commutative, and under the canonical order (the
    # chain) only the bound p × q ≼ p fails, at (9, 10).  Bound
    # decomposition then fails late, first at (10, 9, 10).
    files["chain12-late.json"] = _edited(
        _ordered_table("chain12", 12, max), "chain12-late",
        ("mul", "9", "10", "10"))
    # The subsets of 2 and 3 atoms, and the 2-atom table with 00 + 01
    # changed from 00 to 01: + is then neither commutative nor
    # associative.  A map between it and the intact table can keep + and
    # × at the generators of both operations (01, 10, 11 and 00, 01, 10)
    # and still fail in row 00 of +, whichever side the edited table is on.
    files["bool4.json"] = _boolean(2)
    files["bool8.json"] = _boolean(3)
    files["bool4-skew.json"] = _edited(_boolean(2), "bool4-skew",
                                       ("add", "00", "01", "01"))
    # One element, so ⊤ = ⊥: no map into free:1 keeps both identities,
    # and the constant map is the one homomorphism from free:1.
    files["one.json"] = {"name": "one", "elements": ["0"], "add": [["0"]],
                         "mul": [["0"]], "zero": "0", "one": "0",
                         "complement": ["0"]}
    # The subsets of 2 points named by strings that JSON escapes (", \\
    # and a tab) or that are not ASCII (⊤), with complements.
    escaped = _boolean(2)
    rename = dict(zip(escaped["elements"], ['"', "\\", "\t", "⊤"]))
    files["escaped.json"] = {
        "name": "escaped", "elements": list(rename.values()),
        **{op: [[rename[x] for x in row] for row in escaped[op]]
           for op in ("add", "mul")},
        "zero": "⊤", "one": '"', "complement": ["⊤", "\t", "\\", '"']}
    # ℤ16 below the limit of 4 096 differences and ℤ65, with 4 225, above
    # it; ℤ3 with 2 × 2 changed from 1 to 0, so that × no longer
    # distributes over + while every element stays a subtrahend.
    files["z16.json"] = zmod_spec(16)
    files["z65.json"] = zmod_spec(65)
    files["z3-nondist.json"] = _edited(zmod_spec(3), "z3-nondist",
                                       ("mul", "2", "2", "0"))
    # Four elements with idempotent, commutative + (1 + 2 = 0, 1 + 3 = 1,
    # 2 + 3 = 3) that is not associative: (1 + 1) + 2 = 0, 1 + (1 + 2) = 1.
    # Its canonical order has 2 ≼ 3 ≼ 1 but not 2 ≼ 1, so transitivity
    # fails at (2, 3, 1).  And the canonical order of free:2 as a matrix.
    semi = [[0, 1, 2, 3], [1, 1, 0, 1], [2, 0, 2, 3], [3, 1, 3, 3]]
    files["nonassoc4.json"] = _ordered_table("nonassoc4", 4,
                                             lambda i, j: semi[i][j])
    files["free2-canonical.json"] = canonical_order(
        free_boolean_algebra(2)).to_matrix()
    # The quotient of this table breaks the multiplicative identity law.
    files["diff-broken-identity.json"] = {
        "name": "pair", "elements": ["0", "1"],
        "add": [["0", "1"], ["1", "0"]],
        "mul": [["1", "0"], ["0", "1"]], "zero": "0", "one": "1"}
    # The canonical order of free:1 with one poset axiom broken each.
    canon = canonical_order(free_boolean_algebra(1)).to_matrix()
    for name, (p, q) in (("nonreflexive", (2, 2)), ("nonantisymmetric", (0, 3)),
                         ("nontransitive", (3, 0))):
        matrix = [row[:] for row in canon]
        matrix[p][q] ^= 1
        files[f"free1-{name}.json"] = matrix
    # The README morphism examples and maps that break one condition each.
    free1_to_0 = {
        "eval_top": {"⊥": "⊥", "!a": "⊥", "a": "⊤", "⊤": "⊤"},
        "map-top": {"⊥": "⊥", "!a": "⊥", "a": "⊤", "⊤": "⊥"},
        "map-bot": {"⊥": "⊤", "!a": "⊥", "a": "⊤", "⊤": "⊤"},
        "map-add": {"⊥": "⊥", "!a": "⊤", "a": "⊤", "⊤": "⊤"},
        "map-mul": {"⊥": "⊥", "!a": "⊥", "a": "⊥", "⊤": "⊤"},
    }
    for name, mapping in free1_to_0.items():
        files[f"{name}.json"] = {"source": "free:1", "target": "free:0",
                                 "map": mapping}
    free2, free1a, free0 = (free_boolean_algebra(k) for k in (2, 1, 0))
    # b ↦ ⊤ (keep the rows of assignments with b true), then a ↦ ⊤.
    files["quotient.json"] = {"source": "free:2", "target": "free:1", "map": {
        free2.name_of(e): free1a.name_of(e >> 2) for e in range(16)}}
    files["collapse.json"] = {"source": "free:2", "target": "free:0", "map": {
        free2.name_of(e): free0.name_of(e >> 3) for e in range(16)}}
    # a ↦ ⊤ (keep the rows with a true): its kernel crosses quotient's.
    files["quotient-a.json"] = {"source": "free:2", "target": "free:1", "map": {
        free2.name_of(e): free1a.name_of((e >> 1 & 1) | (e >> 3 & 1) << 1)
        for e in range(16)}}
    files["map-comp.json"] = {"source": "chain3c.json", "target": "free:0",
                              "map": {"t": "⊤", "m": "⊤", "f": "⊥"}}
    files["z6-to-z3.json"] = {"source": "z6.json", "target": "z3.json",
                              "map": {str(i): str(i % 3) for i in range(6)}}
    files["z3-to-z6.json"] = {"source": "z3.json", "target": "z6.json",
                              "map": {str(i): str(2 * i) for i in range(3)}}
    # Preimage maps free:3 -> free:1 (S ↦ {y : g(y) ∈ S}), homomorphisms,
    # and two with the image of 11111110 changed: the first violation is
    # then at + (g = (0, 0)) or at × (g = (0, 1)), in row 00000001.  No
    # such map fails first at !: a map between Boolean algebras that
    # keeps +, ×, ⊤ and ⊥ keeps complements.
    free3 = free_boolean_algebra(3)
    for name, g, edit in (("free3-to-free1", (0, 1), None),
                          ("free3-plus", (0, 0), 1), ("free3-times", (0, 1), 0)):
        image = [sum(1 << y for y, x in enumerate(g) if s >> x & 1)
                 for s in range(256)]
        if edit is not None:
            image[254] = edit
        files[f"{name}.json"] = {"source": "free:3", "target": "free:1", "map": {
            free3.name_of(e): free1a.name_of(v) for e, v in enumerate(image)}}
    return files


BROKEN = [f"broken-{law}.json" for law in (
    "add-commutativity", "add-associativity", "mul-commutativity",
    "mul-associativity", "distributivity", "top-absorbing")]
TABLES = [f"z{n}.json" for n in range(2, 8)] + ["bool2.json"] + BROKEN
FREE = [f"free:{n}" for n in range(4)]
LONG_CHAINS = range(17, 32)  # ℤn above 16 elements under the chain order


def _source(spec: str) -> list[str]:
    if spec.startswith("free:"):
        return ["--free-atoms", spec[5:]]
    return ["--table", spec]


def _cases() -> list[tuple[str, list[str], str | None]]:
    """(id, argv, emitted file or None) in replay order."""
    cases = []
    for spec in FREE + TABLES:
        tag = spec.replace(":", "").removesuffix(".json")
        cases.append((f"check-{tag}", ["check", *_source(spec)], None))
        cases.append((f"order-{tag}", ["order", *_source(spec)], None))
    subs = {"free:0": "⊥", "free:1": "a", "free:2": "a", "free:3": "a,b",
            "bool2.json": "T"}
    for spec, gens in subs.items():
        tag = spec.replace(":", "").removesuffix(".json")
        for kind in ("bpa", "semiring"):
            cases.append((f"order-sub-{kind}-{tag}",
                          ["order", *_source(spec), "--sub", gens,
                           "--sub-kind", kind], None))
    for n in range(2, 8):
        chain = ["--order-matrix", f"chain-z{n}.json"]
        cases.append((f"order-chain-z{n}",
                      ["order", "--table", f"z{n}.json", *chain], None))
        cases.append((f"order-sub-chain-z{n}",
                      ["order", "--table", f"z{n}.json", *chain, "--sub", "1",
                       "--sub-kind", "semiring"], None))
    for law in BROKEN:
        cases.append((f"order-sub-{law.removesuffix('.json')}",
                      ["order", "--table", law, "--sub", "", "--sub-kind",
                       "semiring"], None))
    for name in ("nonreflexive", "nonantisymmetric", "nontransitive"):
        matrix = ["--order-matrix", f"free1-{name}.json"]
        cases.append((f"order-free1-{name}",
                      ["order", "--free-atoms", "1", *matrix], None))
        cases.append((f"order-sub-free1-{name}",
                      ["order", "--free-atoms", "1", *matrix, "--sub", "a",
                       "--sub-kind", "semiring"], None))
    for spec in [f"z{n}.json" for n in range(2, 8)] + FREE[:3]:
        tag = spec.replace(":", "").removesuffix(".json")
        cases.append((f"diff-{tag}", ["diff", *_source(spec), "--emit",
                                      f"d_{tag}.json"], f"d_{tag}.json"))
    cases += [
        ("diff-universal-z6", ["diff", "--table", "z6.json", "--universal"],
         None),
        ("diff-subtrahends-z4", ["diff", "--table", "z4.json",
                                 "--subtrahends", "0"], None),
        ("diff-chain-z5", ["diff", "--table", "z5.json", "--order-matrix",
                           "chain-z5.json"], None),
    ]
    for name in ("eval_top", "map-top", "map-bot", "map-add", "map-mul",
                 "map-comp", "quotient", "collapse", "z6-to-z3", "z3-to-z6"):
        for kind in ("semiring", "bpa"):
            cases.append((f"hom-check-{kind}-{name}",
                          ["hom", "check", "--map", f"{name}.json",
                           "--kind", kind], None))
    pairs = [("free:1", "free:0"), ("free:1", "free:1"), ("free:2", "free:1"),
             ("free:0", "free:1"), ("z6.json", "z3.json"),
             ("z3.json", "z6.json"), ("bool2.json", "free:0")]
    for src, dst in pairs:
        tag = "-".join(s.replace(":", "").removesuffix(".json")
                       for s in (src, dst))
        for kind in ("semiring", "bpa"):
            cases.append((f"hom-enumerate-{kind}-{tag}",
                          ["hom", "enumerate", "--src", src, "--dst", dst,
                           "--kind", kind], None))
    # Generating sets of every size: atoms, whole carriers, none (free:0
    # into a target above the table limit) and one past the cap.
    kind_pairs = {"bpa": [("free:3", "free:1"), ("free:2", "free:2"),
                          ("free:0", "free:4")],
                  "semiring": [("free:1", "free:2"), ("z6.json", "z6.json"),
                               ("free:0", "free:4"), ("free:3", "free:2")]}
    for kind, kind_pairs_of in kind_pairs.items():
        for src, dst in kind_pairs_of:
            tag = "-".join(s.replace(":", "").removesuffix(".json")
                           for s in (src, dst))
            cases.append((f"hom-enumerate-{kind}-{tag}",
                          ["hom", "enumerate", "--src", src, "--dst", dst,
                           "--kind", kind], None))
    for src, dst in pairs[:4]:
        tag = "-".join(s.replace(":", "") for s in (src, dst))
        for mode in ("monotone", "embedding"):
            cases.append((f"hom-iso-{mode}-{tag}",
                          ["hom", "iso-theorem", "--src", src, "--dst", dst,
                           "--mode", mode], None))
    cases.append(("hom-factor", ["hom", "factor", "--psi1", "quotient.json",
                                 "--psi2", "collapse.json"], None))
    # The chain order breaks the pairwise law on these carriers, first at
    # (0, 1, 1, n - 1).
    for n in LONG_CHAINS:
        cases.append((f"order-chain-z{n}",
                      ["order", "--table", f"z{n}.json", "--order-matrix",
                       f"chain-z{n}.json"], None))
    for gens in ("", "0.1"):
        cases.append((f"order-sub-chain-z4xz6{'-' + gens if gens else ''}",
                      ["order", "--table", "z4xz6.json", "--order-matrix",
                       "chain-z4xz6.json", "--sub", gens, "--sub-kind",
                       "semiring"], None))
    cases.append(("diff-broken-identity",
                  ["diff", "--table", "diff-broken-identity.json"], None))
    cases += [
        ("hom-factor-crossing", ["hom", "factor", "--psi1", "quotient.json",
                                 "--psi2", "quotient-a.json"], None),
        ("hom-factor-not-surjective", ["hom", "factor", "--psi1",
                                       "z3-to-z6.json", "--psi2",
                                       "z3-to-z6.json"], None),
        ("hom-factor-different-sources", ["hom", "factor", "--psi1",
                                          "quotient.json", "--psi2",
                                          "z6-to-z3.json"], None),
        ("diff-one-four-z6", ["diff", "--table", "z6.json", "--subtrahends",
                              "0,3", "--order-matrix", "z6-one-four.json"],
         None),
        ("diff-universal-chain-z2xz4", ["diff", "--table", "z2xz4.json",
                                        "--universal", "--order-matrix",
                                        "chain-z2xz4.json"], None),
    ]
    for name in ("free3-to-free1", "free3-plus", "free3-times"):
        for kind in ("semiring", "bpa"):
            cases.append((f"hom-check-{kind}-{name}",
                          ["hom", "check", "--map", f"{name}.json",
                           "--kind", kind], None))
    cases.append(("hom-iso-embedding-free3-free1",
                  ["hom", "iso-theorem", "--src", "free:3", "--dst", "free:1",
                   "--kind", "bpa", "--mode", "embedding"], None))
    cases += [
        ("order-nontransitive-sat17", ["order", "--table", "sat17.json",
                                       "--order-matrix", "succ-sat17.json"],
         None),
        ("order-preorder-rz18", ["order", "--table", "rz18.json",
                                 "--order-matrix", "levels-rz18.json"], None),
        ("check-bool64-late", ["check", "--table", "bool64-late.json"], None),
        ("order-bool64-late", ["order", "--table", "bool64-late.json",
                               "--order-matrix", "bool64-canonical.json"],
         None),
        ("diff-z12", ["diff", "--table", "z12.json", "--emit", "d_z12.json"],
         "d_z12.json"),
        ("diff-z4xbool4", ["diff", "--table", "z4xbool4.json"], None),
        ("order-chain12-late", ["order", "--table", "chain12-late.json"],
         None),
        ("diff-universal-z4xz6", ["diff", "--table", "z4xz6.json",
                                  "--universal"], None),
        ("hom-iso-monotone-free3-free0",
         ["hom", "iso-theorem", "--src", "free:3", "--dst", "free:0",
          "--kind", "bpa", "--mode", "monotone"], None),
        # The largest report of the corpus (about 400 KB): 56 of the 64
        # maps are counterexamples, each listed with its 256 images.
        ("hom-iso-monotone-free3-free1",
         ["hom", "iso-theorem", "--src", "free:3", "--dst", "free:1",
          "--kind", "bpa", "--mode", "monotone"], None),
        ("hom-iso-monotone-semiring-bool8-bool4",
         ["hom", "iso-theorem", "--src", "bool8.json", "--dst", "bool4.json",
          "--kind", "semiring", "--mode", "monotone"], None),
        ("hom-enumerate-semiring-bool4skew-bool4",
         ["hom", "enumerate", "--src", "bool4-skew.json", "--dst",
          "bool4.json", "--kind", "semiring"], None),
        ("hom-enumerate-semiring-bool4-bool4skew",
         ["hom", "enumerate", "--src", "bool4.json", "--dst",
          "bool4-skew.json", "--kind", "semiring"], None),
    ]
    for src, dst in (("one.json", "free:1"), ("free:1", "one.json")):
        tag = "-".join(s.replace(":", "").removesuffix(".json")
                       for s in (src, dst))
        for kind in ("semiring", "bpa"):
            cases.append((f"hom-enumerate-{kind}-{tag}",
                          ["hom", "enumerate", "--src", src, "--dst", dst,
                           "--kind", kind], None))
    # Embedding mode from a table source of the semiring kind, and from
    # free:2 into itself, where the 256 homs include the 2 automorphisms.
    cases += [
        ("hom-iso-embedding-semiring-bool8-bool4",
         ["hom", "iso-theorem", "--src", "bool8.json", "--dst", "bool4.json",
          "--kind", "semiring", "--mode", "embedding"], None),
        ("hom-iso-embedding-free2-free2",
         ["hom", "iso-theorem", "--src", "free:2", "--dst", "free:2",
          "--kind", "bpa", "--mode", "embedding"], None),
    ]
    # free:3 into free:1 of the semiring kind: 4^8 candidates, 64 maps.
    # Both kinds to and from the table whose names need escapes.
    cases.append(("hom-enumerate-semiring-free3-free1",
                  ["hom", "enumerate", "--src", "free:3", "--dst", "free:1",
                   "--kind", "semiring"], None))
    for src, dst in (("escaped.json", "free:1"), ("free:1", "escaped.json")):
        tag = "-".join(s.replace(":", "").removesuffix(".json")
                       for s in (src, dst))
        for kind in ("semiring", "bpa"):
            cases.append((f"hom-enumerate-{kind}-{tag}",
                          ["hom", "enumerate", "--src", src, "--dst", dst,
                           "--kind", kind], None))
    cases += [
        ("diff-z16", ["diff", "--table", "z16.json", "--emit", "d_z16.json"],
         "d_z16.json"),
        ("diff-z65", ["diff", "--table", "z65.json"], None),
        ("diff-nondistributive-z3", ["diff", "--table", "z3-nondist.json"],
         None),
        ("diff-nondistributive-z3-top", ["diff", "--table", "z3-nondist.json",
                                         "--subtrahends", "0"], None),
        ("order-nonassociative-nonassoc4",
         ["order", "--table", "nonassoc4.json"], None),
        ("order-canonical-matrix-free2",
         ["order", "--free-atoms", "2", "--order-matrix",
          "free2-canonical.json"], None),
    ]
    # Formulas: every precedence level, both associativities, the
    # Unicode spellings, an atom the formula does not mention, and one
    # case per ParseError message (exit 2).
    cases += [(f"parse-{tag}", ["parse", text, *extra], None)
              for tag, text, extra in PARSE]
    cases += [(f"argv-{tag}", argv, None) for tag, argv in ARGV]
    return cases


PARSE = [
    ("ladder", "!a & b | c -> d <-> a", []),
    ("ladder-parenthesised", "((a <-> b) -> c | d) & !(a & 1)", []),
    ("imp-right", "a -> b -> c", []),
    ("imp-left", "(a -> b) -> c", []),
    ("iff-left", "a <-> b <-> c", []),
    ("iff-right", "a <-> (b <-> c)", []),
    ("unicode", "¬a ∧ b ∨ c → 1 ↔ 0", []),
    ("constants", "0 | !1", []),
    ("extra-atom", "b & a", ["--atoms", "a,b,c"]),
    ("error-multibyte-char", "¬a ∧ $", []),
    ("error-trailing", "a b", []),
    ("error-expected-close", "(a | b c", []),
    ("error-close-at-end", "(a | b  ", []),
    ("error-end-of-input", "a →", []),
    ("error-unexpected-token", "a & ) b", []),
]


# Help, usage errors and words argparse refuses, at each level of the
# command tree.
ARGV = [
    ("empty", []),
    ("help", ["-h"]),
    ("bogus", ["bogus"]),
    ("check-bogus-option", ["check", "--bogus"]),
    ("check-extra-word", ["check", "--free-atoms", "1", "extra"]),
    ("check-bad-int", ["check", "--free-atoms", "x"]),
    ("check-help", ["check", "-h"]),
    ("order-help", ["order", "-h"]),
    ("diff-help", ["diff", "-h"]),
    ("parse-no-formula", ["parse"]),
    ("order-bad-sub-kind", ["order", "--free-atoms", "1", "--sub-kind", "x"]),
    ("hom", ["hom"]),
    ("hom-bogus", ["hom", "bogus"]),
    ("hom-help", ["hom", "-h"]),
    ("hom-check-bogus-option", ["hom", "check", "--bogus"]),
    ("hom-check-extra-word", ["hom", "check", "--map", "eval_top.json",
                              "extra"]),
    ("hom-enumerate-help", ["hom", "enumerate", "-h"]),
    ("hom-enumerate-no-dst", ["hom", "enumerate", "--src", "free:1"]),
]


def run_case(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr bytes of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def regenerate() -> None:
    inputs = os.path.join(HERE, "inputs")
    expected = os.path.join(HERE, "expected")
    for path in (inputs, expected):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
    for name, doc in _inputs().items():
        with open(os.path.join(inputs, name), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, ensure_ascii=False, indent=1) + "\n")
    manifest = []
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(inputs, work, dirs_exist_ok=True)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for case_id, argv, emit in _cases():
                code, out, err = run_case(argv)
                for suffix, data in ((".out", out), (".err", err)):
                    if data or suffix == ".out":
                        with open(os.path.join(expected, case_id + suffix),
                                  "wb") as handle:
                            handle.write(data)
                if emit:
                    shutil.copyfile(emit, os.path.join(expected,
                                                       f"{case_id}.emit"))
                manifest.append({"id": case_id, "argv": argv, "exit": code,
                                 "emit": emit})
        finally:
            os.chdir(cwd)
    with open(os.path.join(HERE, "cases.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, ensure_ascii=False, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
