import argparse
import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import propsemiring.cli as cli
import propsemiring.differences as differences
import propsemiring.morphisms as morphisms
from propsemiring.algebra import free_boolean_algebra, table_semiring
from propsemiring.cli import main
from propsemiring.properties import PropertyReport

from helpers import zmod_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def claims_of(doc):
    return {c["id"]: c for c in doc["claims"]}


@pytest.fixture
def z3_path(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(zmod_spec(3)), encoding="utf-8")
    return str(path)


def write_morphism(tmp_path, name, source, target, mapping):
    path = tmp_path / name
    path.write_text(json.dumps({"source": source, "target": target,
                                "map": mapping}), encoding="utf-8")
    return str(path)


EVAL_TOP = {"⊥": "⊥", "!a": "⊥", "a": "⊤", "⊤": "⊤"}
EVAL_BOT = {"⊥": "⊥", "!a": "⊤", "a": "⊥", "⊤": "⊤"}
IDENTITY1 = {"⊥": "⊥", "!a": "!a", "a": "a", "⊤": "⊤"}


class TestCheckCommand:
    def test_free_algebra_report(self, capsys):
        doc = run_json(capsys, "check", "--free-atoms", "1")
        assert doc["tool"]["name"] == "propsemiring"
        assert doc["command"] == "check"
        assert doc["inputs"] == [{"source": "free:1"}]
        assert doc["algebra"]["size"] == 4
        assert doc["algebra"]["top"] == "⊤"
        assert doc["additively_cancellable"] == ["⊤"]
        assert doc["center"]["full"] is True

        claims = claims_of(doc)
        assert claims["semiring"]["verdict"] == "confirmed"
        assert claims["zerosumfree"]["verdict"] == "confirmed"
        assert claims["entire"]["verdict"] == "refuted-with-witness"
        assert claims["entire"]["witness"] == ["!a", "a"]
        assert claims["simple"]["verdict"] == "confirmed"
        assert claims["commutative"]["verdict"] == "confirmed"
        assert claims["multiplicatively-absorbing"]["verdict"] == "confirmed"

    def test_table_report(self, capsys, z3_path):
        doc = run_json(capsys, "check", "--table", z3_path)
        assert doc["algebra"] == {"name": "z3", "kind": "table", "size": 3,
                                  "top": "0", "bot": "1"}
        assert len(doc["inputs"]) == 1
        assert doc["inputs"][0]["source"] == z3_path
        assert len(doc["inputs"][0]["sha256"]) == 64

        claims = claims_of(doc)
        assert claims["semiring"]["verdict"] == "confirmed"
        assert claims["zerosumfree"]["verdict"] == "refuted-with-witness"
        assert claims["zerosumfree"]["witness"] == ["1", "2"]
        assert claims["simple"]["verdict"] == "refuted-with-witness"
        assert claims["simple"]["witness"] == ["1"]
        assert claims["entire"]["verdict"] == "confirmed"

    def test_atom_limit_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "check", "--free-atoms", "9")
        assert code == 2
        assert "error:" in err and "0..4" in err

    def test_four_atoms_fail_fast_on_the_table_limit(self, capsys):
        code, out, err = run(capsys, "check", "--free-atoms", "4")
        assert code == 2 and out == ""
        assert "65536" in err and "4096" in err

    def test_algebra_source_is_required_and_exclusive(self, capsys, z3_path):
        code, _, err = run(capsys, "check")
        assert code == 2 and "required" in err
        code, _, err = run(capsys, "check", "--free-atoms", "1",
                           "--table", z3_path)
        assert code == 2 and "not both" in err

    def test_bad_cell_is_reported_by_name(self, capsys, tmp_path):
        doc = zmod_spec(2)
        doc["add"][1][1] = "5"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "check", "--table", str(path))
        assert code == 2
        assert "add[1][1]" in err

    def test_missing_and_malformed_files(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--table", "no-such-file.json")
        assert code == 2 and "not found" in err
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "check", "--table", str(path))
        assert code == 2


class TestOrderCommand:
    def test_canonical_order_report(self, capsys):
        doc = run_json(capsys, "order", "--free-atoms", "1")
        assert doc["order_used"] == "canonical"
        assert doc["cones"] == {"positive": ["⊥", "!a", "a", "⊤"],
                                "negative": ["⊥"]}
        claims = claims_of(doc)
        for claim_id in ("poset", "monotony-add", "monotony-mul",
                        "operation-bounds", "bound-decomposition",
                        "pairwise-monotony", "positive-cone-carrier"):
            assert claims[claim_id]["verdict"] == "confirmed", claim_id
        assert claims["negative-cone-empty"]["verdict"] == \
            "refuted-with-witness"
        assert claims["negative-cone-empty"]["witness"] == ["⊥"]

    def test_non_idempotent_table_needs_a_matrix(self, capsys, z3_path):
        code, _, err = run(capsys, "order", "--table", z3_path)
        assert code == 2 and "idempotent" in err

    def test_supplied_matrix(self, capsys, z3_path, tmp_path):
        matrix = [[1 if p == q else 0 for q in range(3)] for p in range(3)]
        path = tmp_path / "discrete.json"
        path.write_text(json.dumps(matrix), encoding="utf-8")
        doc = run_json(capsys, "order", "--table", z3_path,
                       "--order-matrix", str(path))
        assert doc["order_used"] == "supplied"
        claims = claims_of(doc)
        assert claims["poset"]["verdict"] == "confirmed"
        assert claims["operation-bounds"]["verdict"] == "refuted-with-witness"
        assert claims["operation-bounds"]["witness"] == ["0", "1"]
        assert claims["positive-cone-carrier"]["verdict"] == \
            "refuted-with-witness"
        assert claims["negative-cone-empty"]["verdict"] == "confirmed"

    @pytest.mark.parametrize("row", [1, None, "0110"])
    def test_matrix_row_that_is_no_list(self, capsys, tmp_path, row):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps([[1, 0, 0, 0], row, [0, 0, 1, 0],
                                    [0, 0, 0, 1]]), encoding="utf-8")
        code, out, err = run(capsys, "order", "--free-atoms", "1",
                             "--order-matrix", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: order matrix row 1 must be a list")

    def test_matrix_of_bare_numbers(self, capsys, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text("[1, 2, 3, 4]", encoding="utf-8")
        code, _, err = run(capsys, "order", "--free-atoms", "1",
                           "--order-matrix", str(path))
        assert code == 2
        assert err == "error: order matrix row 0 must be a list, got 1\n"

    @pytest.mark.parametrize("doc", [5, "0110", {"rows": [[1]]}])
    def test_matrix_file_that_is_no_list(self, capsys, tmp_path, doc):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "order", "--free-atoms", "1",
                             "--order-matrix", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}: expected a 0/1 matrix (bare or "
                       f"under an 'order' key)\n")

    def test_matrix_under_an_order_key(self, capsys, tmp_path):
        matrix = [[1 if p == q else 0 for q in range(4)] for p in range(4)]
        path = tmp_path / "discrete.json"
        path.write_text(json.dumps({"order": matrix}), encoding="utf-8")
        doc = run_json(capsys, "order", "--free-atoms", "1",
                       "--order-matrix", str(path))
        assert doc["order_used"] == "supplied"
        assert doc["inputs"][-1]["source"] == str(path)
        assert claims_of(doc)["operation-bounds"]["witness"] == ["!a", "⊥"]

    def test_order_embedded_in_table(self, capsys, tmp_path):
        spec = zmod_spec(2)
        spec["order"] = [[1, 0], [0, 1]]
        path = tmp_path / "z2o.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        doc = run_json(capsys, "order", "--table", str(path))
        assert doc["order_used"] == "supplied"

    def test_subalgebra_section(self, capsys):
        doc = run_json(capsys, "order", "--free-atoms", "2", "--sub", "a")
        sub = doc["subalgebra"]
        assert sub["generators"] == ["a"] and sub["kind"] == "bpa"
        assert sub["members"] == ["⊥", "!a", "a", "⊤"]
        assert sub["report"]["equal"] is False
        assert len(sub["report"]["difference"]) == 12
        assert sub["report"]["difference_within_top"] is False

        doc = run_json(capsys, "order", "--free-atoms", "2",
                       "--sub", "a", "--sub-kind", "semiring")
        assert doc["subalgebra"]["members"] == ["⊥", "a", "⊤"]

    def test_unknown_generator(self, capsys):
        code, _, err = run(capsys, "order", "--free-atoms", "1",
                           "--sub", "zz")
        assert code == 2 and "zz" in err


class TestHomCheck:
    def test_valid_morphism(self, capsys, tmp_path):
        path = write_morphism(tmp_path, "f.json", "free:1", "free:0", EVAL_TOP)
        doc = run_json(capsys, "hom", "check", "--map", path, "--kind", "bpa")
        assert doc["check"]["verdict"] == "holds"
        assert doc["kernel"] == [["⊥", "!a"], ["a", "⊤"]]
        assert doc["surjective"] is True and doc["injective"] is False
        assert doc["image"] == ["⊥", "⊤"]
        assert claims_of(doc)["homomorphism"]["verdict"] == "confirmed"

    def test_invalid_morphism_is_a_finding_not_an_error(self, capsys, tmp_path):
        broken = dict(EVAL_TOP, **{"⊤": "⊥", "⊥": "⊤"})
        path = write_morphism(tmp_path, "f.json", "free:1", "free:0", broken)
        code, out, _ = run(capsys, "hom", "check", "--map", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["check"]["verdict"] == "fails"
        assert "image" not in doc
        assert claims_of(doc)["homomorphism"]["verdict"] == \
            "refuted-with-witness"

    def test_partial_map_is_an_input_error(self, capsys, tmp_path):
        path = write_morphism(tmp_path, "f.json", "free:1", "free:0",
                              {"⊥": "⊥", "⊤": "⊤"})
        code, _, err = run(capsys, "hom", "check", "--map", path)
        assert code == 2 and "does not cover" in err

    @pytest.mark.parametrize("key", ["source", "target"])
    @pytest.mark.parametrize("value", [5, None, ["free:1"]])
    def test_carrier_that_is_no_string(self, capsys, tmp_path, key, value):
        carriers = {"source": "free:1", "target": "free:0", key: value}
        path = write_morphism(tmp_path, "f.json", carriers["source"],
                              carriers["target"], EVAL_TOP)
        code, out, err = run(capsys, "hom", "check", "--map", path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: '{key}' must be a string")

    def test_map_is_required(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"source": "free:1", "target": "free:0"}),
                        encoding="utf-8")
        code, out, err = run(capsys, "hom", "check", "--map", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}: a morphism needs source, target "
                       f"and map\n")

    def test_map_that_is_a_list(self, capsys, tmp_path):
        path = write_morphism(tmp_path, "f.json", "free:1", "free:0",
                              list(EVAL_TOP.items()))
        code, out, err = run(capsys, "hom", "check", "--map", path)
        assert code == 2 and out == ""
        assert err == f"error: {path}: 'map' must be an object\n"

    @pytest.mark.parametrize("image", [7, ["⊤"], None])
    def test_image_that_is_no_name(self, capsys, tmp_path, image):
        path = write_morphism(tmp_path, "f.json", "free:1", "free:0",
                              dict(EVAL_TOP, a=image))
        code, out, err = run(capsys, "hom", "check", "--map", path)
        assert code == 2 and out == ""
        assert err == (f"error: the image of 'a' must be an element name, "
                       f"got {image!r}\n")

    def test_table_paths_resolve_relative_to_the_morphism_file(
            self, capsys, tmp_path, monkeypatch):
        (tmp_path / "z3.json").write_text(json.dumps(zmod_spec(3)),
                                          encoding="utf-8")
        identity = {"0": "0", "1": "1", "2": "2"}
        path = write_morphism(tmp_path, "endo.json", "z3.json", "z3.json",
                              identity)
        monkeypatch.chdir(tmp_path / "..")
        doc = run_json(capsys, "hom", "check", "--map", path)
        assert doc["check"]["verdict"] == "holds"
        assert doc["injective"] is True

    def test_a_homomorphism_is_verified_once(self, capsys, tmp_path,
                                             count_calls):
        calls = count_calls("check_morphism", morphisms, cli)
        path = write_morphism(tmp_path, "f.json", "free:1", "free:0", EVAL_TOP)
        doc = run_json(capsys, "hom", "check", "--map", path, "--kind", "bpa")
        assert doc["check"]["verdict"] == "holds"
        assert doc["image"] == ["⊥", "⊤"]
        assert len(calls) == 1

    def test_four_atom_source_fails_fast_on_the_table_limit(self, capsys,
                                                            tmp_path):
        ba4 = free_boolean_algebra(4)
        # the evaluation at the assignment 0: bit 0 of each truth table
        mapping = {ba4.name_of(i): "⊤" if i & 1 else "⊥" for i in range(ba4.size)}
        path = write_morphism(tmp_path, "f.json", "free:4", "free:0", mapping)
        code, out, err = run(capsys, "hom", "check", "--map", path)
        assert code == 2 and out == ""
        assert "65536" in err and "4096" in err


class TestHomEnumerate:
    def test_streams_json_lines(self, capsys):
        code, out, err = run(capsys, "hom", "enumerate", "--src", "free:1",
                             "--dst", "free:0", "--kind", "bpa")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        maps = [json.loads(line)["map"] for line in lines]
        assert EVAL_BOT in maps and EVAL_TOP in maps
        assert "2 bpa homomorphisms free:1 -> free:0" in err

    def test_counts(self, capsys):
        cases = [("free:0", "free:0", "bpa", 1),
                 ("free:1", "free:1", "bpa", 4),
                 ("free:2", "free:0", "bpa", 4),
                 ("free:1", "free:1", "semiring", 4)]
        for src, dst, kind, expected in cases:
            _, out, err = run(capsys, "hom", "enumerate", "--src", src,
                              "--dst", dst, "--kind", kind)
            assert len(out.strip().splitlines()) == expected, (src, dst, kind)
            assert err.startswith(f"{expected} {kind} homomorphisms")

    def test_free_spec_needs_an_atom_count(self, capsys):
        code, out, err = run(capsys, "hom", "enumerate", "--src", "free:x",
                             "--dst", "free:0")
        assert code == 2 and out == ""
        assert err == "error: bad algebra spec 'free:x': expected free:N\n"

    def test_cap_is_an_input_error(self, capsys):
        # 8 generators under + and ×, so 16^8 candidate maps
        code, _, err = run(capsys, "hom", "enumerate", "--src", "free:3",
                           "--dst", "free:2", "--kind", "semiring")
        assert code == 2 and "cap" in err

    def test_four_atom_source_fails_fast_on_the_table_limit(self, capsys):
        for kind in ("semiring", "bpa"):
            code, out, err = run(capsys, "hom", "enumerate", "--src", "free:4",
                                 "--dst", "free:0", "--kind", kind)
            assert code == 2 and out == "" and "cap" not in err
            assert "65536" in err and "4096" in err


class TestHomFactor:
    def test_factors_through_identity(self, capsys, tmp_path):
        psi1 = write_morphism(tmp_path, "id.json", "free:1", "free:1",
                              IDENTITY1)
        psi2 = write_morphism(tmp_path, "ev.json", "free:1", "free:0",
                              EVAL_TOP)
        doc = run_json(capsys, "hom", "factor", "--psi1", psi1,
                       "--psi2", psi2)
        assert doc["refines"] is True
        assert doc["factors"] is True
        assert doc["verified"] is True
        assert doc["psi"]["map"] == EVAL_TOP

    def test_crossing_kernels_do_not_factor(self, capsys, tmp_path):
        psi1 = write_morphism(tmp_path, "t.json", "free:1", "free:0", EVAL_TOP)
        psi2 = write_morphism(tmp_path, "b.json", "free:1", "free:0", EVAL_BOT)
        doc = run_json(capsys, "hom", "factor", "--psi1", psi1,
                       "--psi2", psi2)
        assert doc["refines"] is False
        assert doc["factors"] is False
        assert doc["psi"] is None and doc["verified"] is False

    def test_each_kernel_is_built_once(self, capsys, tmp_path, count_calls):
        calls = count_calls("kernel", morphisms, cli)
        psi1 = write_morphism(tmp_path, "id.json", "free:1", "free:1",
                              IDENTITY1)
        psi2 = write_morphism(tmp_path, "ev.json", "free:1", "free:0",
                              EVAL_TOP)
        doc = run_json(capsys, "hom", "factor", "--psi1", psi1,
                       "--psi2", psi2)
        assert doc["verified"] is True
        assert len(calls) == 2

    def test_non_surjective_psi1(self, capsys, tmp_path):
        collapse = {"⊥": "⊥", "!a": "⊥", "a": "⊥", "⊤": "⊥"}
        psi1 = write_morphism(tmp_path, "c.json", "free:1", "free:0", collapse)
        psi2 = write_morphism(tmp_path, "e.json", "free:1", "free:0", EVAL_TOP)
        code, _, err = run(capsys, "hom", "factor", "--psi1", psi1,
                           "--psi2", psi2)
        assert code == 2 and "surjective" in err


class TestHomIsoTheorem:
    def test_embedding_mode_confirmed(self, capsys):
        doc = run_json(capsys, "hom", "iso-theorem", "--src", "free:1",
                       "--dst", "free:0", "--kind", "bpa",
                       "--mode", "embedding")
        assert doc["result"]["verdict"] == "holds"
        assert doc["result"]["homomorphisms"] == 2
        claim = claims_of(doc)["onto-order-preserving-iff-isomorphism"]
        assert claim["verdict"] == "confirmed" and claim["witness"] is None

    def test_monotone_mode_refuted(self, capsys):
        doc = run_json(capsys, "hom", "iso-theorem", "--src", "free:1",
                       "--dst", "free:0", "--kind", "bpa",
                       "--mode", "monotone")
        assert doc["result"]["verdict"] == "fails"
        assert len(doc["result"]["counterexamples"]) == 2
        claim = claims_of(doc)["onto-order-preserving-iff-isomorphism"]
        assert claim["verdict"] == "refuted-with-witness"
        assert "↦" in claim["witness"][0]

    def test_orderless_table_is_an_input_error(self, capsys, z3_path):
        code, _, err = run(capsys, "hom", "iso-theorem", "--src", z3_path,
                           "--dst", z3_path, "--kind", "semiring")
        assert code == 2 and "idempotent" in err


class TestDiffCommand:
    def test_one_homomorphism_check(self, capsys, z3_path, count_calls):
        # the embedding, once in the difference semiring; its isomorphism
        # verdict onto the quotient of trivial subtrahends reuses that report
        calls = count_calls("check_morphism", morphisms, differences, cli)
        doc = run_json(capsys, "diff", "--table", z3_path, "--subtrahends",
                       "0")
        assert doc["embedding_isomorphism"]["verdict"] == "holds"
        assert len(calls) == 1

    def test_embedding_isomorphism_of_z9_checks_the_map_once(
            self, capsys, tmp_path, count_calls):
        path = tmp_path / "z9.json"
        path.write_text(json.dumps(zmod_spec(9)), encoding="utf-8")
        calls = count_calls("check_morphism", morphisms, differences, cli)
        doc = run_json(capsys, "diff", "--table", str(path))
        assert len(calls) == 1
        (embedding, _), = calls
        assert doc["embedding_isomorphism"] == \
            morphisms.is_isomorphism(embedding, "semiring").to_json() == {
                "property": "semiring-isomorphism", "verdict": "holds",
                "witness": None, "checked": 166}

    def test_boolean_case(self, capsys):
        doc = run_json(capsys, "diff", "--free-atoms", "1")
        assert doc["subtrahends"] == ["⊤"]
        assert doc["difference"]["size"] == 4
        assert doc["extended_order"]["order_used"] == "canonical"
        assert doc["extended_order"]["matches_base"] is True
        assert doc["cancellation"]["hypothesis_met"] is False

        claims = claims_of(doc)
        assert claims["difference-embedding"]["verdict"] == "confirmed"
        assert claims["translation-invariance"]["verdict"] == "confirmed"
        assert claims["similarity-iff"]["verdict"] == "confirmed"
        assert claims["difference-isomorphic-to-parent"]["verdict"] == \
            "confirmed"
        cancel = claims["difference-cancellation-iff"]
        assert cancel["verdict"] == "out-of-hypothesis"
        assert cancel["witness"] == ["!a", "⊥", "!a"]

    def test_group_case(self, capsys, z3_path):
        doc = run_json(capsys, "diff", "--table", z3_path)
        assert doc["subtrahends"] == ["0", "1", "2"]
        assert doc["difference"]["size"] == 3
        assert doc["extended_order"]["order_used"] == "discrete-fallback"
        claims = claims_of(doc)
        assert claims["difference-cancellation-iff"]["verdict"] == "confirmed"
        assert claims["difference-embedding"]["verdict"] == "confirmed"
        assert "difference-isomorphic-to-parent" not in claims

    @pytest.mark.parametrize("quotient, criterion, witness", [
        (("1", "2", "0"), None, ["quotient: fails", "criterion: holds",
                                 "1", "2", "0"]),
        (None, ("0", "1", "2", "1"), ["quotient: holds", "criterion: fails",
                                      "0", "1", "2", "1"]),
        (None, (), ["quotient: holds", "criterion: fails"]),
    ])
    def test_refuted_cancellation_claim(self, capsys, z3_path, monkeypatch,
                                        quotient, criterion, witness):
        # a valid instance never refutes the biconditional, so one side of
        # a real report is forged to fail (an empty witness stands for
        # one without elements)
        verify = cli.verify_difference_cancellation

        def forged(sub):
            report = verify(sub)
            for side, names in (("quotient_cancellative", quotient),
                                ("criterion", criterion)):
                if names is not None:
                    setattr(report, side, PropertyReport(
                        "forged", False, names or None, 1))
            return report

        monkeypatch.setattr(cli, "verify_difference_cancellation", forged)
        doc = run_json(capsys, "diff", "--table", z3_path)
        assert doc["cancellation"]["biconditional_holds"] is False
        assert claims_of(doc)["difference-cancellation-iff"] == {
            "id": "difference-cancellation-iff",
            "statement": "the difference semiring is multiplicatively "
                         "left-cancellative exactly when c×a + Δ×b ≠ "
                         "c×b + Δ×a whenever Δ ≠ c and a ≠ b",
            "verdict": "refuted-with-witness",
            "witness": witness}

    def test_explicit_subtrahends(self, capsys, z3_path):
        doc = run_json(capsys, "diff", "--table", z3_path,
                       "--subtrahends", "0")
        assert doc["subtrahends"] == ["0"]
        code, _, err = run(capsys, "diff", "--table", z3_path,
                           "--subtrahends", "0,1")
        assert code == 2 and "ideal" in err

    @pytest.mark.parametrize("subtrahends", [[], ["--subtrahends", "0,2"]])
    def test_embedding_that_fails_verification(self, capsys, tmp_path,
                                               subtrahends):
        # {0, 2} is an ideal of cancellable elements, computed or named,
        # but × does not distribute and 0 × 0 = 2, so p ↦ (p, ⊤) is no
        # homomorphism into the quotient
        spec = {"name": "embedding-fails", "elements": ["0", "1", "2"],
                "zero": "0", "one": "1",
                "add": [["0", "1", "2"], ["1", "1", "1"], ["2", "1", "0"]],
                "mul": [["2", "0", "2"], ["0", "1", "2"], ["2", "2", "2"]]}
        assert differences.subtrahend_ideal(
            table_semiring(spec)).members == (0, 2)
        path = tmp_path / "embedding-fails.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run(capsys, "diff", "--table", str(path),
                             *subtrahends)
        assert (code, out) == (2, "")
        assert err == "error: embedding p ↦ (p, ⊤) failed verification\n"

    def test_four_atoms_fail_fast_on_the_table_limit(self, capsys):
        code, out, err = run(capsys, "diff", "--free-atoms", "4")
        assert code == 2 and out == ""
        assert "65536" in err and "4096" in err

    def test_universal_flag(self, capsys, z3_path):
        doc = run_json(capsys, "diff", "--table", z3_path, "--universal")
        assert doc["extended_order"]["universal"] is True

    def test_emit_round_trip(self, capsys, tmp_path, z3_path):
        out_path = str(tmp_path / "diff.json")
        doc = run_json(capsys, "diff", "--table", z3_path,
                       "--emit", out_path)
        assert doc["emitted"] == out_path

        emitted = json.loads(open(out_path, encoding="utf-8").read())
        assert emitted["provenance"]["parent"] == "z3"
        reloaded = run_json(capsys, "check", "--table", out_path)
        assert claims_of(reloaded)["semiring"]["verdict"] == "confirmed"
        assert reloaded["algebra"]["size"] == 3

    def test_partial_order_matrix_case(self, capsys, z3_path, tmp_path):
        matrix = [[1 if p == q else 0 for q in range(3)] for p in range(3)]
        matrix[0][1] = 1
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(matrix), encoding="utf-8")
        doc = run_json(capsys, "diff", "--table", z3_path,
                       "--order-matrix", str(path))
        extension = doc["extended_order"]
        assert extension["order_used"] == "supplied"
        assert extension["matches_base"] is False
        assert extension["base_stability"]["verdict"] == "fails"
        poset = {r["property"]: r["verdict"] for r in extension["poset"]}
        assert poset["transitivity"] == "fails"
        assert claims_of(doc)["similarity-iff"]["verdict"] == "confirmed"


class TestParseCommand:
    def test_contradiction(self, capsys):
        doc = run_json(capsys, "parse", "a & !a", "--atoms", "a")
        assert doc["element"] == {"name": "⊥", "index": 0, "bits": "00"}
        assert doc["formula"] == "a & !a"
        assert doc["atoms"] == ["a"]

    def test_atoms_inferred_from_formula(self, capsys):
        doc = run_json(capsys, "parse", "a -> b")
        assert doc["atoms"] == ["a", "b"]
        assert doc["element"]["index"] == 13
        assert doc["element"]["bits"] == "1101"

    def test_tautology(self, capsys):
        doc = run_json(capsys, "parse", "x | !x")
        assert doc["element"]["name"] == "⊤"

    def test_ast_shape(self, capsys):
        doc = run_json(capsys, "parse", "!a | 1")
        assert doc["ast"] == {"op": "or",
                              "args": [{"op": "not", "args": [{"atom": "a"}]},
                                       {"const": True}]}

    def test_syntax_error_reports_byte(self, capsys):
        code, _, err = run(capsys, "parse", "a & & b")
        assert code == 2 and "byte 4" in err

    def test_unbound_atom(self, capsys):
        code, _, err = run(capsys, "parse", "a & b", "--atoms", "a")
        assert code == 2 and "'b'" in err

    @pytest.mark.parametrize("formula", [
        "(" * 400 + "a" + ")" * 400,
        "!" * 1200 + "a",
        " -> ".join(["a", "b", "c"] * 400),
    ], ids=["parentheses", "negations", "implications"])
    def test_deep_nesting_is_an_input_error(self, capsys, formula):
        code, out, err = run(capsys, "parse", formula)
        assert (code, out) == (2, "")
        assert err == "error: formula nests too deeply\n"


class TestDeterminism:
    def test_reports_are_byte_identical_across_runs(self, capsys, z3_path):
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "check", "--table", z3_path)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

        for _ in range(2):
            code, out, _ = run(capsys, "diff", "--table", z3_path)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 2

    def test_top_level_keys(self, capsys, tmp_path):
        ev = write_morphism(tmp_path, "ev.json", "free:1", "free:0", EVAL_TOP)
        ident = write_morphism(tmp_path, "id.json", "free:1", "free:1",
                               IDENTITY1)
        runs = {
            ("check", "--free-atoms", "1"):
                {"additively_cancellable", "algebra", "center", "checks",
                 "claims"},
            ("order", "--free-atoms", "1"):
                {"algebra", "checks", "claims", "cones", "order_used"},
            ("diff", "--free-atoms", "1"):
                {"algebra", "cancellation", "checks", "claims", "difference",
                 "embedding", "embedding_isomorphism", "extended_order",
                 "subtrahends"},
            ("parse", "a"): {"algebra", "ast", "atoms", "element", "formula"},
            ("hom", "check", "--map", ev):
                {"check", "claims", "image", "injective", "kernel", "kind",
                 "map", "surjective"},
            ("hom", "factor", "--psi1", ident, "--psi2", ev):
                {"claims", "factors", "kernels", "psi", "refines", "verified"},
            ("hom", "iso-theorem", "--src", "free:1", "--dst", "free:0"):
                {"claims", "result"},
        }
        for argv, body in runs.items():
            doc = run_json(capsys, *argv)
            assert set(doc) == {"tool", "command", "inputs"} | body, argv

    def test_seed_option_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "7", "order", "--free-atoms", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_json_is_sorted_and_unicode(self, capsys):
        _, out, _ = run(capsys, "check", "--free-atoms", "0")
        assert "⊤" in out  # ensure_ascii=False keeps the glyphs readable
        doc = json.loads(out)
        assert list(doc) == sorted(doc)


def parsers_built(monkeypatch):
    """The list of the parsers built from now on, by their prog."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_main_builds_only_the_parsers_argv_names(capsys, monkeypatch):
    built = parsers_built(monkeypatch)
    assert run(capsys, "parse", "a")[0] == 0
    assert len(built) <= 2, built
    built.clear()
    assert run(capsys, "hom", "iso-theorem", "--src", "free:1",
               "--dst", "free:0")[0] == 0
    assert len(built) <= 3, built
    built.clear()
    run(capsys, "check", "--free-atoms", "0")
    once = len(built)
    run(capsys, "check", "--free-atoms", "0")
    assert len(built) == 2 * once  # nothing is kept across calls
    built.clear()
    cli.build_parser()
    assert len(built) == 10  # the whole tree: 5 commands, 4 under hom


def test_main_reads_the_command_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["propsemiring", "parse", "a & b"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["formula"] == "a & b"


DEEP = "[" * 100_000  # beyond the decoder's recursion limit


@pytest.mark.parametrize("argv, text", [
    (("check", "--table"), DEEP),
    (("order", "--free-atoms", "1", "--order-matrix"), DEEP),
    (("hom", "check", "--map"),
     '{"source": "free:1", "target": "free:1", "map": ' + DEEP),
], ids=["table", "order-matrix", "morphism"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nests too deeply\n"


@pytest.mark.parametrize("data", [b"{not json", b"\xff\xfe"],
                         ids=["not-json", "not-utf8"])
@pytest.mark.parametrize("argv", [
    ("check", "--table"),
    ("order", "--free-atoms", "1", "--order-matrix"),
    ("hom", "check", "--map"),
], ids=["table", "order-matrix", "morphism"])
def test_undecodable_json_names_its_file(capsys, tmp_path, argv, data):
    broken = tmp_path / "broken.json"
    broken.write_bytes(data)
    path = str(broken)
    if argv[0] == "hom":  # a valid map whose target table is broken
        path = write_morphism(tmp_path, "f.json", "free:1", str(broken),
                              IDENTITY1)
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {broken}: ") and err.count("\n") == 1


# Strings that need escaping or are outside ASCII: quotes, backslashes,
# control characters, the line separators JavaScript rejects, the
# glyphs of the reports and lone surrogates.
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029é⊤⊥↦𐏿\ud800\udfff'),
    st.characters(exclude_categories=())), max_size=6)
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(), st.integers(-2 ** 130, 2 ** 130),  # beyond 64 bits
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))


def documents(depth):
    """Scalars and containers nested up to ``depth`` levels, members of
    one container mixing scalars and containers."""
    if depth == 0:
        return SCALARS
    members = documents(depth - 1)
    return st.one_of(SCALARS, st.lists(members, max_size=4),
                     st.lists(members, max_size=3).map(tuple),
                     st.dictionaries(TEXT, members, max_size=4))


@settings(max_examples=300, deadline=None)
@given(documents(4))
def test_report_writer_matches_indented_json(doc):
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2,
                                         ensure_ascii=False)


# Element names and source specs: % and the escapes of JSON strings, the
# report glyphs, lone surrogates and any other character.
NAME = st.text(st.one_of(st.sampled_from('%s"\\\t/⊤⊥\x00\ud800'),
                         st.characters(exclude_categories=())),
               min_size=1, max_size=6)


def boolean_table(names, spec):
    """The subsets of log2(len(names)) points, mask i named names[i]: +
    is ∩, × is ∪, ! the complement."""
    masks = range(len(names))
    full = masks[-1]
    return table_semiring({
        "name": "named", "elements": names,
        "add": [[names[i & j] for j in masks] for i in masks],
        "mul": [[names[i | j] for j in masks] for i in masks],
        "zero": names[full], "one": names[0],
        "complement": [names[full ^ i] for i in masks]}, source_spec=spec)


class _Given:
    """A loader that resolves the specs of tables built in a test."""

    def __init__(self, *algebras):
        self.algebras = {a.source_spec: a for a in algebras}

    def resolve(self, spec):
        return self.algebras[spec]


@settings(max_examples=200, deadline=None)
@given(st.lists(NAME, min_size=6, max_size=6, unique=True),
       st.lists(NAME, min_size=2, max_size=2, unique=True),
       st.sampled_from(morphisms.KINDS))
def test_enumerate_lines_match_json_dumps(names, specs, kind):
    four, two = boolean_table(names[:4], specs[0]), \
        boolean_table(names[4:], specs[1])
    loader = _Given(four, two)
    for src, dst in ((four, two), (two, four), (four, four)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.cmd_hom_enumerate(argparse.Namespace(
                src=src.source_spec, dst=dst.source_spec, kind=kind), loader)
        assert out.getvalue() == "".join(
            json.dumps(psi.to_json(), sort_keys=True, separators=(",", ":"),
                       ensure_ascii=False) + "\n"
            for psi in morphisms.enumerate_homs(src, dst, kind))
