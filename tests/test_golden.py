"""Replay the golden CLI corpus and compare every byte.

``tests/golden/cases.json`` lists argv vectors over the input files in
``tests/golden/inputs``; the expected exit code, stdout, stderr and
``--emit`` file of each were written by ``tests/golden/regenerate.py``.
A refactor of the law kernels must leave all of them unchanged.
"""

import argparse
import hashlib
import json
import os
import shutil

import pytest

from golden.regenerate import run_case
from propsemiring.cli import build_parser

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as _handle:
    CASES = json.load(_handle)


def _expected(case_id: str, suffix: str) -> bytes:
    path = os.path.join(GOLDEN, "expected", case_id + suffix)
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    shutil.copytree(os.path.join(GOLDEN, "inputs"), work, dirs_exist_ok=True)
    return work


def test_corpus_replays_byte_for_byte(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    mismatches = []
    for case in CASES:
        code, out, err = run_case(case["argv"])
        got = [code, out, err]
        want = [case["exit"], _expected(case["id"], ".out"),
                _expected(case["id"], ".err")]
        if case["emit"]:
            with open(case["emit"], "rb") as handle:
                got.append(handle.read())
            want.append(_expected(case["id"], ".emit"))
        if got != want:
            mismatches.append(case["id"])
    assert not mismatches, mismatches


def _without_pairwise(doc: dict) -> str:
    """The document minus its pairwise-monotony check and claim, as
    sorted JSON."""
    doc = dict(doc, checks=[c for c in doc["checks"]
                            if c["property"] != "pairwise-monotony"],
               claims=[c for c in doc["claims"]
                       if c["id"] != "pairwise-monotony"])
    return json.dumps(doc, sort_keys=True, ensure_ascii=False)


def test_exact_pairwise_changed_only_the_pairwise_report():
    # These order documents once reported pairwise monotony from a
    # sampled draw (every carrier above 16 elements) and were regenerated
    # when the law became exact.  pairwise_regenerated.json holds, per
    # case, the SHA-256 of the sampled document without that check and
    # claim; the exact document without them must hash the same.  The
    # sampled documents also carried "seed": 1729, a key since removed.
    with open(os.path.join(GOLDEN, "pairwise_regenerated.json"),
              encoding="utf-8") as handle:
        digests = json.load(handle)
    assert len(digests) == 22
    for case_id, digest in digests.items():
        with open(os.path.join(GOLDEN, "expected", case_id + ".out"),
                  encoding="utf-8") as handle:
            doc = json.load(handle)
        assert "seed" not in doc, case_id
        rest = _without_pairwise(dict(doc, seed=1729)).encode("utf-8")
        assert hashlib.sha256(rest).hexdigest() == digest, case_id
        pairwise, = (c for c in doc["checks"]
                     if c["property"] == "pairwise-monotony")
        assert pairwise["mode"] == "exhaustive", case_id
        assert "samples" not in pairwise and "seed" not in pairwise, case_id


def test_check_documents_dropped_only_the_repeated_absorbing_report():
    # The check documents once listed the top-absorbing report twice, as
    # the eighth axiom and again as the last check, and were regenerated
    # when the repeat was dropped.  absorbing_regenerated.json holds, per
    # case, the SHA-256 of the earlier document; the current document
    # with its one top-absorbing report appended again must hash the same.
    with open(os.path.join(GOLDEN, "absorbing_regenerated.json"),
              encoding="utf-8") as handle:
        digests = json.load(handle)
    assert sorted(digests) == sorted(case["id"] for case in CASES
                                     if case["id"].startswith("check-"))
    for case_id, digest in digests.items():
        with open(os.path.join(GOLDEN, "expected", case_id + ".out"),
                  encoding="utf-8") as handle:
            doc = json.load(handle)
        absorbing, = (c for c in doc["checks"]
                      if c["property"] == "top-absorbing")
        earlier = json.dumps(dict(doc, checks=doc["checks"] + [absorbing]),
                             sort_keys=True, indent=2, ensure_ascii=False)
        assert hashlib.sha256((earlier + "\n").encode("utf-8")
                              ).hexdigest() == digest, case_id


def _options(parser, prefix=()):
    """(command words, flag) of every option of the parser and its
    sub-parsers, -h aside."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, (*prefix, name))
        for flag in action.option_strings:
            if flag not in ("-h", "--help"):
                yield prefix, flag


def test_every_option_is_exercised_by_a_case():
    # An option that no case passes can change nothing the corpus sees.
    unused = [" ".join((*words, flag))
              for words, flag in _options(build_parser())
              if not any(case["argv"][:len(words)] == list(words)
                         and flag in case["argv"] for case in CASES)]
    assert not unused, unused
