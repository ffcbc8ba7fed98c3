"""Write the golden CLI corpus: input files, cases.json and expected output.

Run from the repository root with the package importable:

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each case runs ``propsemiring.cli.main`` in a scratch copy of ``inputs/``
and records its exit code, its stdout and stderr (``expected/<id>.out``,
``expected/<id>.err``, written when not empty) and, for
``diff --emit``, the emitted table (``expected/<id>.emit``).
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from helpers import bool2_spec, zmod_spec  # noqa: E402

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


def _zmod_product(m: int, k: int) -> dict:
    """ℤm × ℤk, componentwise; its least subalgebra is ℤlcm(m, k)."""
    pairs = [(a, b) for a in range(m) for b in range(k)]
    names = [f"{a}.{b}" for a, b in pairs]

    def table(op):
        return [[f"{op(a, c) % m}.{op(b, d) % k}" for c, d in pairs]
                for a, b in pairs]

    return {"name": f"z{m}xz{k}", "elements": names,
            "add": table(int.__add__), "mul": table(int.__mul__),
            "zero": "0.0", "one": "1.1"}


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
    for n in SAMPLED:
        files[f"z{n}.json"] = zmod_spec(n)
    for n in (*range(2, 8), *SAMPLED):
        files[f"chain-z{n}.json"] = _chain_matrix(n)
    files["z4xz6.json"] = _zmod_product(4, 6)
    files["chain-z4xz6.json"] = _chain_matrix(24)
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
    files["map-comp.json"] = {"source": "chain3c.json", "target": "free:0",
                              "map": {"t": "⊤", "m": "⊤", "f": "⊥"}}
    files["z6-to-z3.json"] = {"source": "z6.json", "target": "z3.json",
                              "map": {str(i): str(i % 3) for i in range(6)}}
    files["z3-to-z6.json"] = {"source": "z3.json", "target": "z6.json",
                              "map": {str(i): str(2 * i) for i in range(3)}}
    return files


BROKEN = [f"broken-{law}.json" for law in (
    "add-commutativity", "add-associativity", "mul-commutativity",
    "mul-associativity", "distributivity", "top-absorbing")]
TABLES = [f"z{n}.json" for n in range(2, 8)] + ["bool2.json"] + BROKEN
FREE = [f"free:{n}" for n in range(4)]
SAMPLED = range(17, 32)  # carriers above 16: pairwise monotony is sampled
SEEDS = (1729, 1, 42, 2024)


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
    for src, dst in pairs[:4]:
        tag = "-".join(s.replace(":", "") for s in (src, dst))
        for mode in ("monotone", "embedding"):
            cases.append((f"hom-iso-{mode}-{tag}",
                          ["hom", "iso-theorem", "--src", src, "--dst", dst,
                           "--mode", mode], None))
    cases.append(("hom-factor", ["hom", "factor", "--psi1", "quotient.json",
                                 "--psi2", "collapse.json"], None))
    # The chain order breaks the sampled pairwise law on these carriers,
    # so the witness and checked pin the seeded draw.
    for seed in SEEDS:
        for n in SAMPLED:
            cases.append((f"order-seed{seed}-chain-z{n}",
                          ["--seed", str(seed), "order", "--table",
                           f"z{n}.json", "--order-matrix",
                           f"chain-z{n}.json"], None))
    for gens in ("", "0.1"):
        cases.append((f"order-sub-chain-z4xz6{'-' + gens if gens else ''}",
                      ["order", "--table", "z4xz6.json", "--order-matrix",
                       "chain-z4xz6.json", "--sub", gens, "--sub-kind",
                       "semiring"], None))
    cases.append(("diff-broken-identity",
                  ["diff", "--table", "diff-broken-identity.json"], None))
    return cases


def run_case(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr bytes of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
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
