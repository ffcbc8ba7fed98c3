"""Seeded workloads: the files each workload gives the program, the CLI
jobs that run on them, and each job's check against the reference.

A workload is built once per run, before any timing: its tables and
morphism files are written to a work directory and every expectation a
check needs is computed from the definitions in :mod:`oracles`.  The
seed relabels and reorders elements, picks the generated maps, formulas
and subalgebra generators, and shuffles the job order; the carriers and
job kinds, and so the work one pass does, are the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles as ref
from oracles import Carrier, FreeCarrier, OracleMismatch, expect

CONFIRMED = "confirmed"
REFUTED = "refuted-with-witness"
OUT_OF_HYPOTHESIS = "out-of-hypothesis"


@dataclass
class Job:
    kind: str
    argv: list[str]
    verify: Callable[[str, str], None]  # (stdout, stderr) -> raises OracleMismatch


@dataclass
class Workload:
    jobs: list[Job]
    algebras: list[str]  # what setup_s builds: free:N specs and table files
    warmup: list[Job]    # run once, untimed, before the jobs


class Inputs:
    """Writes generated files into the work directory."""

    def __init__(self, workdir: Path, rng: random.Random, prefix: str = ""):
        self.dir = workdir
        self.rng = rng
        self.prefix = prefix
        self.algebras: list[str] = []
        self.files = 0

    def write(self, name: str, doc: dict) -> str:
        name = self.prefix + name
        with open(self.dir / name, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, ensure_ascii=False)
        return name

    def free(self, n: int) -> FreeCarrier:
        c = FreeCarrier(n)
        c.spec, c.args = f"free:{n}", ["--free-atoms", str(n)]
        self.algebras.append(c.spec)
        return c

    def table(self, c: Carrier) -> Carrier:
        c.spec = self.write(c.name.replace("^", "") + ".json", c.to_table(self.rng))
        c.args = ["--table", c.spec]
        self.algebras.append(c.spec)
        return c

    def morphism(self, src: Carrier, dst: Carrier, psi) -> str:
        self.files += 1
        return self.write(f"map{self.files}.json", {
            "source": src.spec, "target": dst.spec,
            "map": {src.name_of(v): dst.name_of(psi[v]) for v in src.values}})


def _doc(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise OracleMismatch(f"stdout is not one JSON document: {exc}")


def _decoder(table: dict) -> Callable:
    def decode(name):
        try:
            return table[name]
        except KeyError:
            raise OracleMismatch(f"{name!r} is not an element of the emitted table")
    return decode


def _claims(doc: dict, expected: dict[str, str]) -> None:
    got = {claim["id"]: claim["verdict"] for claim in doc["claims"]}
    for claim_id, verdict in expected.items():
        expect(got.get(claim_id) == verdict,
               f"claim {claim_id}: expected {verdict}, got {got.get(claim_id)}")


# -- check ------------------------------------------------------------------

def check_job(c: Carrier, argv: list[str] | None = None,
              decode: Callable | None = None) -> Job:
    """check on c; with ``decode`` the carrier is a copy of c under other
    names, so verdicts and replays are compared but not scan positions."""
    first = ref.first_violations(c)
    cancellable = ref.cancellable(c)
    commutative = first["mul-commutativity"] is None
    n = c.size
    exact = decode is None
    decode = decode or c.value_of

    def verify(out: str, err: str) -> None:
        doc = _doc(out)
        expect(doc["algebra"]["size"] == n, f"size {doc['algebra']['size']} != {n}")
        seen = set()
        for report in doc["checks"]:
            law = report["property"]
            expect(law in ref.LAW_ARITY, f"unexpected law {law}")
            seen.add(law)
            total = n ** ref.LAW_ARITY[law]
            if first[law] is None:
                expect(report["verdict"] == "holds" and report["checked"] == total,
                       f"{law}: expected holds with checked={total}, got "
                       f"{report['verdict']} checked={report['checked']}")
                continue
            witness = tuple(decode(x) for x in report["witness"] or ())
            expect(report["verdict"] == "fails" and ref.violates(c, law, witness),
                   f"{law}: expected a failure whose witness replays, got "
                   f"{report['verdict']} {report['witness']}")
            if exact:
                expect((report["checked"], witness) == first[law],
                       f"{law}: first witness at {first[law][0]}, "
                       f"got checked={report['checked']}")
            else:
                expect(1 <= report["checked"] <= total, f"{law}: checked out of range")
        expect(seen == set(ref.LAW_ARITY), f"laws reported: {sorted(seen)}")
        _claims(doc, {
            "semiring": CONFIRMED if all(first[law] is None for law in ref.AXIOMS)
            else REFUTED,
            "zerosumfree": CONFIRMED if first["zerosumfree"] is None else REFUTED,
            "entire": CONFIRMED if first["entire"] is None else REFUTED,
            "simple": CONFIRMED if first["simple"] is None else REFUTED,
            "commutative": CONFIRMED if commutative else REFUTED,
            "multiplicatively-absorbing":
                CONFIRMED if first["top-absorbing"] is None else REFUTED,
        })
        expect(doc["center"]["full"] == commutative, "center")
        expect({decode(x) for x in doc["additively_cancellable"]} == cancellable,
               "additively cancellable elements")

    return Job("check" if exact else "check emitted",
               argv or ["check", *c.args], verify)


# -- order ------------------------------------------------------------------

def order_job(c: Carrier, rng: random.Random | None = None) -> Job:
    """order on a Boolean carrier; with ``rng`` also on a seeded subalgebra.

    p ≼ q means q ⊆ p, so ≼ has 3^points pairs (each point lies in both,
    in p only, or in neither); scans conditioned on p ≼ q check that
    many pairs times n.
    """
    n, pairs = c.size, 3 ** c.points
    counts = {"reflexivity": n, "antisymmetry": n * n,
              "transitivity": pairs * n, "monotony-add": pairs * n,
              "monotony-mul": pairs * n, "operation-bounds": n * n,
              "bound-decomposition": n ** 3}
    argv = ["order", *c.args]
    sub = None
    if rng is not None:
        generators = rng.sample(c.values, rng.randint(1, 2))
        bpa = rng.random() < 0.5
        argv += ["--sub", ",".join(c.name_of(g) for g in generators),
                 "--sub-kind", "bpa" if bpa else "semiring"]
        sub = _subalgebra_expectation(c, ref.closure(c, generators, bpa))

    def verify(out: str, err: str) -> None:
        doc = _doc(out)
        seen = set()
        for report in doc["checks"]:
            prop = report["property"]
            seen.add(prop)
            if prop == "pairwise-monotony":
                want = n ** 4 if report.get("mode") == "exhaustive" \
                    else report.get("samples")
            else:
                want = counts.get(prop)
            expect(report["verdict"] == "holds" and report["checked"] == want,
                   f"{prop}: expected holds with checked={want}, got "
                   f"{report['verdict']} checked={report['checked']}")
        expect(seen == set(counts) | {"pairwise-monotony"}, f"laws: {sorted(seen)}")
        cones = doc["cones"]
        expect({c.value_of(x) for x in cones["positive"]} == set(c.values),
               "positive cone is not the carrier")
        expect([c.value_of(x) for x in cones["negative"]] == [c.one],
               "negative cone is not {⊥}")
        expected = {cid: CONFIRMED for cid in (
            "poset", "monotony-add", "monotony-mul", "operation-bounds",
            "bound-decomposition", "pairwise-monotony", "positive-cone-carrier")}
        expected["negative-cone-empty"] = REFUTED
        _claims(doc, expected)
        if sub is not None:
            sub(doc["subalgebra"])

    return Job("order --sub" if sub else "order", argv, verify)


def _subalgebra_expectation(c: Carrier, members: set) -> Callable:
    m = len(members)
    pairs = sum(c.leq(p, q) for p in members for q in members)
    counts = {"reflexivity": m, "antisymmetry": m * m, "transitivity": pairs * m,
              "monotony-add": pairs * m, "monotony-mul": pairs * m}
    outside = set(c.values) - members

    def verify(doc: dict) -> None:
        expect({c.value_of(x) for x in doc["members"]} == members,
               "subalgebra members differ from the closure")
        report = doc["report"]
        restriction = report["restriction"]["poset"] + report["restriction"]["monotony"]
        expect({r["property"]: (r["verdict"], r["checked"]) for r in restriction}
               == {law: ("holds", k) for law, k in counts.items()},
               "restricted order laws")
        expect({c.value_of(x) for x in report["difference"]} == outside,
               "difference")
        expect(report["difference_within_top"] == (outside <= {c.zero}),
               "difference_within_top")
        expect({c.value_of(x) for x in report["cancellable"]} == {c.zero}
               and report["top_cancellable"], "cancellable elements")
        expect(report["equal"] == (not outside), "equal")

    return verify


# -- diff -------------------------------------------------------------------

def diff_job(c: Carrier, emit: str | None = None,
             embedding: dict | None = None) -> Job:
    """diff on c.  The difference semiring of a finite carrier has one
    class per element (each (p, α) ~ (p + opposite(α), ⊤), and (p, ⊤) ~
    (q, ⊤) only when p = q), so its embedding is an isomorphism and it
    is left-cancellative exactly when c is."""
    subs = ref.subtrahends(c)
    hypothesis = ref.mult_left_cancellative(c)
    criterion = ref.cancellation_criterion(c, subs)
    argv = ["diff", *c.args] + (["--emit", emit] if emit else [])

    def verify(out: str, err: str) -> None:
        doc = _doc(out)
        expect({c.value_of(x) for x in doc["subtrahends"]} == subs, "subtrahends")
        expect(doc["difference"]["size"] == c.size,
               f"{doc['difference']['size']} classes, expected {c.size}")
        image = {c.value_of(p): q for p, q in doc["embedding"].items()}
        expect(set(image) == set(c.values) and len(set(image.values())) == c.size,
               "embedding is not a bijection")
        expect(doc["embedding_isomorphism"]["verdict"] == "holds",
               "embedding is not an isomorphism")
        cancellation = doc["cancellation"]
        expect(cancellation["hypothesis_met"] == hypothesis, "hypothesis")
        expect(cancellation["quotient_cancellative"]["verdict"]
               == ("holds" if hypothesis else "fails"), "quotient cancellation")
        expect(cancellation["criterion"]["verdict"]
               == ("holds" if criterion else "fails"), "criterion")
        _claims(doc, {
            "difference-embedding": CONFIRMED,
            "difference-cancellation-iff":
                OUT_OF_HYPOTHESIS if not hypothesis
                else CONFIRMED if criterion else REFUTED})
        if subs == {c.zero}:
            _claims(doc, {"difference-isomorphic-to-parent": CONFIRMED})
        if emit:
            expect(doc.get("emitted") == emit, "emitted path")
            embedding.clear()
            embedding.update({q: p for p, q in image.items()})

    return Job("diff", argv, verify)


# -- homomorphisms ------------------------------------------------------------

def expected_homs(src: Carrier, dst: Carrier) -> set[tuple]:
    """Homomorphisms as image tuples indexed by source value.

    Boolean to Boolean: the preimage maps.  Boolean to ℤn (n > 1): none,
    since ψ(x) = ψ(x + x) = 2ψ(x) forces ψ = 0 while ψ(⊥) must be 1.
    ℤa to ℤb: ψ(1) = 1 forces ψ(x) = x mod b, well defined iff b | a.
    """
    if src.boolean and dst.boolean:
        return ref.boolean_homs(src.points, dst.points)
    if src.boolean:
        return set()
    a, b = src.size, dst.size
    return {tuple(x % b for x in range(a))} if a % b == 0 else set()


def _decode_map(src: Carrier, dst: Carrier, name_map: dict) -> tuple:
    psi = {src.value_of(k): dst.value_of(v) for k, v in name_map.items()}
    expect(set(psi) == set(src.values), "map does not cover the source")
    return tuple(psi[v] for v in range(src.size))


def enumerate_job(src: Carrier, dst: Carrier, kind: str) -> Job:
    homs = expected_homs(src, dst)

    def verify(out: str, err: str) -> None:
        lines = out.splitlines()
        got = {_decode_map(src, dst, json.loads(line)["map"]) for line in lines}
        expect(len(lines) == len(got) == len(homs) and got == homs,
               f"{len(lines)} maps listed, {len(homs)} homomorphisms expected")
        expect(err.split()[:1] == [str(len(homs))], f"stderr count: {err!r}")

    return Job("hom enumerate", ["hom", "enumerate", "--src", src.spec, "--dst",
                                 dst.spec, "--kind", kind], verify)


def iso_job(src: Carrier, dst: Carrier, kind: str, mode: str) -> Job:
    homs = len(ref.boolean_homs(src.points, dst.points))
    bad = ref.onto_not_bijective_homs(src.points, dst.points) \
        if mode == "monotone" else 0

    def verify(out: str, err: str) -> None:
        result = _doc(out)["result"]
        expect(result["homomorphisms"] == homs,
               f"{result['homomorphisms']} homomorphisms, expected {homs}")
        counter = result["counterexamples"]
        expect(len(counter) == bad, f"{len(counter)} counterexamples, expected {bad}")
        for entry in counter:
            psi = _decode_map(src, dst, entry["map"])
            expect(set(psi) == set(dst.values), "counterexample is not onto")
            expect(ref.monotone_on_masks(src.points, psi), "counterexample not monotone")
            expect(len(set(psi)) < src.size, "counterexample is bijective")
            expect((entry["onto"], entry["order_preserving"], entry["isomorphism"])
                   == (True, True, False), "counterexample verdicts")
        expect(result["verdict"] == ("holds" if bad == 0 else "fails"), "verdict")

    return Job("hom iso-theorem", ["hom", "iso-theorem", "--src", src.spec, "--dst",
                                   dst.spec, "--kind", kind, "--mode", mode], verify)


def _preserves(src: Carrier, dst: Carrier, psi, kind: str) -> bool:
    return (psi[src.zero] == dst.zero and psi[src.one] == dst.one
            and all(psi[src.add(a, b)] == dst.add(psi[a], psi[b])
                    and psi[src.mul(a, b)] == dst.mul(psi[a], psi[b])
                    for a in src.values for b in src.values)
            and (kind != "bpa" or all(psi[src.comp(a)] == dst.comp(psi[a])
                                      for a in src.values)))


def _kernel(c: Carrier, psi) -> set[frozenset]:
    blocks: dict = {}
    for v in c.values:
        blocks.setdefault(psi[v], set()).add(v)
    return {frozenset(block) for block in blocks.values()}


def _violated(src: Carrier, dst: Carrier, psi, condition: str, w) -> bool:
    if condition == "⊤ preserved":
        return w == (src.zero,) and psi[src.zero] != dst.zero
    if condition == "⊥ preserved":
        return w == (src.one,) and psi[src.one] != dst.one
    if condition == "! preserved":
        return len(w) == 1 and psi[src.comp(w[0])] != dst.comp(psi[w[0]])
    op = {"+ preserved": "add", "× preserved": "mul"}.get(condition)
    if op is None or len(w) != 2:
        return False
    s, d = getattr(src, op), getattr(dst, op)
    return psi[s(*w)] != d(psi[w[0]], psi[w[1]])


def hom_check_job(inp: Inputs, src: Carrier, dst: Carrier, psi, kind: str) -> Job:
    holds = _preserves(src, dst, psi, kind)
    n = src.size
    path = inp.morphism(src, dst, psi)

    def verify(out: str, err: str) -> None:
        doc = _doc(out)
        report = doc["check"]
        if holds:
            total = 2 + n * n + (n if kind == "bpa" else 0)
            expect(report["verdict"] == "holds" and report["checked"] == total,
                   f"expected holds with checked={total}, got {report['verdict']}")
            expect({dst.value_of(x) for x in doc["image"]} == set(psi), "image")
        else:
            witness = tuple(src.value_of(x) for x in report["witness"] or ())
            expect(report["verdict"] == "fails" and _violated(
                src, dst, psi, report.get("condition"), witness),
                f"expected a failure whose witness replays, got {report}")
            expect("image" not in doc, "image of a non-homomorphism")
        expect(doc["surjective"] == (set(psi) == set(dst.values)), "surjective")
        expect(doc["injective"] == (len(set(psi)) == n), "injective")
        kernel = {frozenset(src.value_of(x) for x in block) for block in doc["kernel"]}
        expect(kernel == _kernel(src, psi), "kernel")

    return Job("hom check", ["hom", "check", "--map", path, "--kind", kind], verify)


def hom_factor_job(inp: Inputs, src: Carrier, mid: Carrier, dst: Carrier,
                   psi1, psi2) -> Job:
    refines = all(psi2[a] == psi2[b] for a in src.values for b in src.values
                  if psi1[a] == psi1[b])
    argv = ["hom", "factor", "--psi1", inp.morphism(src, mid, psi1),
            "--psi2", inp.morphism(src, dst, psi2)]

    def verify(out: str, err: str) -> None:
        doc = _doc(out)
        expect((doc["refines"], doc["factors"], doc["verified"])
               == (refines, refines, refines), "factorization verdicts")
        kernels = doc["kernels"]
        for key, psi in (("psi1", psi1), ("psi2", psi2)):
            got = {frozenset(src.value_of(x) for x in block) for block in kernels[key]}
            expect(got == _kernel(src, psi), f"kernel of {key}")
        if refines:
            psi = _decode_map(mid, dst, doc["psi"]["map"])
            expect(all(psi[psi1[a]] == psi2[a] for a in src.values),
                   "psi ∘ psi1 != psi2")

    return Job("hom factor", argv, verify)


# -- parse ------------------------------------------------------------------

def parse_job(rng: random.Random) -> Job:
    pool = rng.choice((["a", "b", "c"], ["p", "q", "r"], ["x", "y"]))
    formula = ref.random_formula(rng, pool, rng.randint(1, 5))
    atoms = sorted(ref.formula_atoms(formula))
    argv = ["parse", ref.render(formula, rng)]
    if rng.random() < 0.25:
        extra = sorted(set(atoms) | {rng.choice(pool)})
        argv += ["--atoms", ",".join(extra)]
        atoms = extra
    bits = ref.truth_bits(formula, atoms)

    def verify(out: str, err: str) -> None:
        doc = _doc(out)
        expect(doc["atoms"] == atoms, f"atoms {doc['atoms']} != {atoms}")
        expect(doc["element"]["bits"] == bits,
               f"{argv[1]!r}: bits {doc['element']['bits']} != {bits}")
        expect(doc["algebra"]["size"] == 2 ** 2 ** len(atoms), "algebra size")

    return Job("parse", argv, verify)


# -- workloads ----------------------------------------------------------------

def laws_large(inp: Inputs) -> list[Job]:
    carriers = (inp.free(3), inp.table(ref.boolean_table(7, inp.rng)))
    return [job(c) for c in carriers for job in (check_job, order_job)]


# Sizes chosen so that one pass fits twice into a run and the jobs around
# the median take similar times (about 0.03-0.2 s), which keeps the
# median from jumping between distant jobs.
DIFF_PRODUCTS = ((2, 3), (4, 2), (2, 4), (3, 3), (5, 2), (4, 3))


def diff_tables(inp: Inputs) -> list[Job]:
    carriers = [ref.zmod(n, inp.rng) for n in range(5, 10)] + \
        [ref.product(m, k, inp.rng) for m, k in DIFF_PRODUCTS]
    units = []
    for i, c in enumerate(carriers):
        inp.table(c)
        if i % 2:
            units.append([diff_job(c)])
            continue
        emitted, embedding = "d-" + c.spec, {}
        units.append([diff_job(c, emitted, embedding),
                      check_job(c, ["check", "--table", emitted],
                                decode=_decoder(embedding))])
    inp.rng.shuffle(units)
    return [job for unit in units for job in unit]


def hom_search(inp: Inputs) -> list[Job]:
    f0, f1, f2, f3 = (inp.free(n) for n in range(4))
    b2, b3 = (inp.table(ref.boolean_table(k, inp.rng)) for k in (2, 3))
    z3, z4, z6, z8, z9 = (inp.table(ref.zmod(n, inp.rng)) for n in (3, 4, 6, 8, 9))
    # Six jobs take about 0.3 s each and two about 1.5 s; the rest are
    # chosen so that the median falls among the six and the 90th
    # percentile on the two, rather than at a gap between job sizes.
    pairs = ((f1, f2), (f2, f0), (b3, b2), (z8, z4), (z9, z3), (z6, z6),
             (z6, z4), (b3, z4))
    jobs = [enumerate_job(src, dst, "semiring") for src, dst in pairs]
    jobs += [enumerate_job(f3, f1, "bpa"), enumerate_job(f2, f2, "bpa"),
             iso_job(f1, f1, "bpa", "monotone"), iso_job(f3, f0, "bpa", "monotone")]
    for mode in ("monotone", "embedding"):
        jobs += [iso_job(f2, f1, "bpa", mode), iso_job(f3, f1, "bpa", mode),
                 iso_job(b3, b2, "semiring", mode)]
    inp.rng.shuffle(jobs)
    return jobs


def interactive(inp: Inputs) -> list[Job]:
    rng = inp.rng
    free = [inp.free(n) for n in (0, 1, 2)]
    bools = [inp.table(ref.boolean_table(k, rng)) for k in (1, 2, 3, 4)]
    others = [inp.table(ref.zmod(n, rng)) for n in range(2, 8)] + \
        [inp.table(ref.product(m, k, rng)) for m, k in ((2, 1), (3, 1), (2, 2),
                                                       (3, 2), (2, 3))]
    jobs = [job(c) for c in free + bools + others for job in (check_job, diff_job)]
    jobs += [order_job(c) for c in free + bools]
    jobs += [order_job(c, rng) for c in free[1:] + bools[1:] for _ in range(2)]
    jobs += [parse_job(rng) for _ in range(120)]
    for src, dst in ((free[1], free[0]), (free[2], free[0]), (free[2], free[1]),
                     (free[1], free[2]), (bools[1], bools[0]), (bools[2], bools[1]),
                     (bools[3], bools[1])):
        for _ in range(4):
            kind = rng.choice(("semiring", "bpa"))
            g = tuple(rng.randrange(src.points) for _ in range(dst.points))
            psi = ref.preimage_map(src.points, g)
            broken = list(psi)
            v = rng.choice(src.values)
            broken[v] = rng.choice([w for w in dst.values if w != psi[v]])
            jobs += [hom_check_job(inp, src, dst, psi, kind),
                     hom_check_job(inp, src, dst, broken, kind)]
    for src, mid, dst in ((free[2], free[1], free[0]), (bools[2], bools[1], bools[0])):
        for _ in range(8):
            g1 = tuple(rng.sample(range(src.points), mid.points))
            g2 = tuple(rng.randrange(src.points) for _ in range(dst.points))
            jobs.append(hom_factor_job(inp, src, mid, dst,
                                       ref.preimage_map(src.points, g1),
                                       ref.preimage_map(src.points, g2)))
    rng.shuffle(jobs)
    return jobs


def warmup(inp: Inputs) -> list[Job]:
    """Tiny jobs of every subcommand.  The first calls in a process pay
    one-time costs; running these first keeps that off the timed jobs."""
    f0, f1 = inp.free(0), inp.free(1)
    b2, z2 = inp.table(ref.boolean_table(2, inp.rng)), inp.table(ref.zmod(2, inp.rng))
    evaluation = ref.preimage_map(f1.points, (0,))
    emitted, embedding = inp.prefix + "d.json", {}
    return [check_job(f1), check_job(b2), order_job(f1, inp.rng), order_job(b2),
            diff_job(f1), diff_job(z2, emitted, embedding),
            check_job(z2, ["check", "--table", emitted], decode=_decoder(embedding)),
            parse_job(inp.rng), enumerate_job(f1, f0, "semiring"),
            enumerate_job(z2, z2, "semiring"), enumerate_job(f1, f0, "bpa"),
            iso_job(f1, f0, "bpa", "monotone"), iso_job(b2, f0, "semiring", "embedding"),
            hom_check_job(inp, f1, f0, evaluation, "bpa"),
            hom_factor_job(inp, f1, f1, f0, ref.preimage_map(f1.points, (0, 1)),
                           evaluation)]


WORKLOADS = {"laws-large": laws_large, "diff-tables": diff_tables,
             "hom-search": hom_search, "interactive": interactive}


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    inp = Inputs(workdir, random.Random(f"{name}:{seed}"))
    jobs = WORKLOADS[name](inp)
    warm = warmup(Inputs(workdir, random.Random(f"warmup:{seed}"), prefix="warm-"))
    return Workload(jobs=jobs, algebras=list(dict.fromkeys(inp.algebras)),
                    warmup=warm)
