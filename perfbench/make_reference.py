#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: request pools and expected values.

Each workload is a list of slots; a slot is a pool of candidate requests
of the same command and cost class, differing in q-tuples and norms.
run.py draws one candidate per slot from the seed, so every seed finds
its expected values here.  Candidates within a slot cost about the same
(the DPs are dense whatever q is, and the norm stays in a narrow band),
which keeps run-to-run spread low across seeds.

While generating, every value the oracle budget allows is cross-checked
against brute-force enumeration in ``lenslat.oracle``, and the generating
path's multiplicities on the sphere (p = 1) against harmonic-polynomial
dimensions.  A failed
cross-check aborts without writing.

Run from the repository root:
    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lenslat import SubsetMask, binom, make_lens_space, oracle  # noqa: E402
from lenslat.cli import canonical_q_tuples  # noqa: E402
from run import source_digest  # noqa: E402
from worker import Client, encode, load_census, parse_census, parse_cli  # noqa: E402

# largest enumeration, in candidates, used for a cross-check
ORACLE_BUDGET = 12_000
HUGE_H = (
    10**30,
    10**30 - 1,
    10**30 + 7,
    999_999_999_999_999_999_999_999_989,
    3 * 10**29 + 12_345,
    7 * 10**28 + 1,
)


def _random_q(rng: random.Random, p: int, m: int) -> tuple[int, ...]:
    units = [v for v in range(1, p) if math.gcd(v, p) == 1]
    return tuple(rng.choice(units) for _ in range(m))


def _variant(rng: random.Random, p: int, q: tuple[int, ...]) -> tuple[int, ...]:
    """A symmetric relative of q: permuted, entries negated, scaled by a unit."""
    c = rng.choice([v for v in range(1, p) if math.gcd(v, p) == 1] or [1])
    out = [(c * v * rng.choice((1, -1))) % p or p for v in q]
    rng.shuffle(out)
    return tuple(out)


def _q(q) -> str:
    return ",".join(map(str, q))


def pools() -> dict[str, list[list[dict]]]:
    rng = random.Random(20261017)

    def cli(*argv):
        return {"entry": "cli", "argv": [str(a) for a in argv], "code": 0}

    def script(*argv):
        return {"entry": "census", "argv": [str(a) for a in argv], "code": 0}

    spectrum = [
        [cli("spectrum", "--p", 11, "--q", _q(v), "--i-max", 300)
         for q in canonical_q_tuples(11, 3) for v in (q, _variant(rng, 11, q))],
        [cli("spectrum", "--p", 13, "--q", _q(q), "--i-max", 170, "--format", "json")
         for q in canonical_q_tuples(13, 4)],
        [cli("spectrum", "--p", 7, "--q", _q(v), "--i-max", 100)
         for q in canonical_q_tuples(7, 5) for v in (q, _variant(rng, 7, q))],
        [cli("compare", "--a", f"11:{_q(a)}", "--b", f"11:{_q(b)}", "--i-max", 240, "--format", "json")
         for a, b in [(q, _variant(rng, 11, q)) for q in canonical_q_tuples(11, 3) for _ in range(2)]
         + [((1, 2, 3), (1, 2, 4)), ((1, 2, 4), _variant(rng, 11, (1, 2, 3)))]],
        [cli("parity", "--p", 12, "--q", _q(v), "--i-max", 170)
         for q in canonical_q_tuples(12, 3) for v in (q, _variant(rng, 12, q), _variant(rng, 12, q))],
    ]
    pointwise = [
        [cli("nl", "--p", p, "--q", _q(_random_q(rng, p, m)), "--h", h, *fmt)
         for _ in range(6) for h in HUGE_H]
        for p, m, fmt in ((101, 3, ("--format", "json")), (71, 3, ()), (31, 4, ("--format", "json")))
    ] + [
        [cli("gamma", "--p", 101, "--q", _q(_random_q(rng, 101, 3)), "--s", s, "--format", "json")
         for s in range(146, 155, 2) for _ in range(6)],
        [cli("gamma", "--p", 53, "--q", _q(_random_q(rng, 53, 3)), "--s", s,
             "--subset", rng.choice(("1,2", "1,3", "2,3")))
         for s in range(48, 57, 2) for _ in range(6)],
    ]
    census = [
        [script("--p", 31, "--m", 3, "--i-max", 16)],
        [script("--p", 13, "--m", 4, "--i-max", 30)],
        # phi(p) = 12 for each p, so the tuple scan costs the same; i_max < p
        # truncates every table
        [script("--p", p, "--m", 3, "--i-max", 16) for p in (21, 26, 28)],
    ]
    verify = [
        [cli("verify", "--p-max", 10, "--m", "2,3", "--h-max", 24, "--format", "json")],
        [cli("verify", "--p-max", 5, "--m", "2,3", "--h-max", 8, "--deep", "--format", "json")],
        [cli("verify", "--p", 7, "--q", _q(v), "--h-max", 10, "--deep", "--format", "json")
         for q in canonical_q_tuples(7, 3) for v in (q, _variant(rng, 7, q))],
    ]
    return {"spectrum": spectrum, "pointwise": pointwise, "census": census, "verify": verify}


class CrossCheck:
    """Oracle and sphere cross-checks of generated values, with tallies."""

    def __init__(self):
        self.cache: dict[tuple, int] = {}
        self.tally = {"oracle_count": 0, "oracle_mult": 0, "oracle_gamma": 0,
                      "sphere_mult": 0, "beyond_budget": 0}

    def n_oracle(self, p: int, q: tuple[int, ...], h: int) -> int | None:
        if oracle.l1_sphere_count(len(q), h) > ORACLE_BUDGET:
            return None
        key = (p, q, h)
        if key not in self.cache:
            self.cache[key] = oracle.n_lattice_bruteforce(make_lens_space(p, q), h, ORACLE_BUDGET)
        return self.cache[key]

    def mult_oracle(self, p: int, q: tuple[int, ...], i: int) -> int | None:
        m = len(q)
        total = 0
        for s in range(i // 2 + 1):
            n = self.n_oracle(p, q, i - 2 * s)
            if n is None:
                return None
            total += binom(s + m - 2, m - 2) * n
        return total

    def oracle_prefix(self, spec: str, i_max: int) -> list[int]:
        """Oracle multiplicities of the space 'p:q1,...' for i = 0.. while the budget allows."""
        p, q = int(spec.split(":")[0]), tuple(map(int, spec.split(":")[1].split(",")))
        out = []
        for i in range(i_max + 1):
            mult = self.mult_oracle(p, q, i)
            if mult is None:
                break
            out.append(mult)
        return out

    def mults(self, p: int, q: tuple[int, ...], mults: list[int], what: str) -> None:
        m = len(q)
        for i, mult in enumerate(mults):
            if p == 1:
                harmonic = binom(i + 2 * m - 1, 2 * m - 1) - binom(i + 2 * m - 3, 2 * m - 1)
                self._expect(mult == harmonic, f"{what}: sphere dim at i={i}")
                self.tally["sphere_mult"] += 1
            expected = self.mult_oracle(p, q, i)
            if expected is None:
                self.tally["beyond_budget"] += 1
                continue
            self._expect(mult == expected, f"{what}: oracle multiplicity at i={i}")
            self.tally["oracle_mult"] += 1

    def _expect(self, ok: bool, what: str) -> None:
        if not ok:
            raise SystemExit(f"cross-check failed: {what}")

    def request(self, request: dict, value) -> None:
        argv = request["argv"]
        if request["entry"] == "census":
            p = int(argv[1])
            for members, seq in value[2]:
                for label in members:
                    q = tuple(int(v) for v in label.split(";")[1].rstrip(")").split(","))
                    self.mults(p, q, seq, f"census {label}")
            return
        opt = dict(zip(argv[1::2], argv[2::2]))
        command = argv[0]
        if command in ("spectrum", "parity"):
            p, q = int(opt["--p"]), tuple(map(int, opt["--q"].split(",")))
            self.mults(p, q, [row[1] if command == "parity" else row[2] for row in value],
                       " ".join(argv))
        elif command == "compare":
            self._expect(value[0] and value[2] is None, f"{argv}: pool pairs are isospectral")
            a, b = (self.oracle_prefix(spec, int(opt["--i-max"])) for spec in (opt["--a"], opt["--b"]))
            n = min(len(a), len(b))
            self._expect(a[:n] == b[:n], f"{argv}: oracle multiplicities differ")
            self.tally["oracle_mult"] += n
        elif command == "nl":
            p, q, h = int(opt["--p"]), tuple(map(int, opt["--q"].split(","))), int(opt["--h"])
            expected = self.n_oracle(p, q, h)
            if expected is None:
                self.tally["beyond_budget"] += 1
            else:
                self._expect(value == expected, f"{argv}: oracle count")
                self.tally["oracle_count"] += 1
        elif command == "gamma":
            p, q = int(opt["--p"]), tuple(map(int, opt["--q"].split(",")))
            space = make_lens_space(p, q)
            subset = opt.get("--subset")
            idx = range(len(q)) if subset is None else [int(j) - 1 for j in subset.split(",")]
            mask = sum(1 << j for j in idx)
            if (2 * p - 1) ** len(idx) > ORACLE_BUDGET:
                self.tally["beyond_budget"] += 1
            else:
                expected = oracle.gamma_bruteforce(space, SubsetMask(mask, len(q)), int(opt["--s"]),
                                                   ORACLE_BUDGET)
                self._expect(value == expected, f"{argv}: oracle gamma")
                self.tally["oracle_gamma"] += 1
        elif command == "verify":
            self._expect(value[2] == 0 and value[1] > 0, f"{argv}: verify must check and agree")


def _dump(obj: dict) -> str:
    """JSON with one candidate request per line, so diffs stay readable."""
    head = {k: v for k, v in obj.items() if k != "workloads"}
    lines = ["{"] + [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}," for k, v in head.items()]
    lines.append(' "workloads": {')
    for w, (name, slots) in enumerate(obj["workloads"].items()):
        lines.append(f"  {json.dumps(name)}: [")
        for s, slot in enumerate(slots):
            rows = [f"    {json.dumps(c, sort_keys=True)}" for c in slot]
            lines.append("   [\n" + ",\n".join(rows) + "\n   ]" + ("," if s < len(slots) - 1 else ""))
        lines.append("  ]" + ("," if w < len(obj["workloads"]) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    os.chdir(ROOT)
    import lenslat.cli as cli

    client = Client(cli, load_census())
    checks = CrossCheck()
    # the sphere is in no pool (its table path costs more than a lens
    # space's), so check the generating path on it directly
    for m in (3, 4, 5):
        request = {"entry": "cli", "argv": ["spectrum", "--p", "1", "--q", _q((1,) * m), "--i-max", "100"]}
        _, _, text, _ = client.call(request)
        checks.mults(1, (1,) * m, [row[2] for row in parse_cli(request["argv"], text)], "sphere")
    workloads = pools()
    for name, slots in workloads.items():
        for slot in slots:
            for request in slot:
                _, code, text, error = client.call(request)
                if error is not None or code != request["code"]:
                    raise SystemExit(f"{request['argv']}: exit {code}, {error}")
                value = parse_census(text) if request["entry"] == "census" else parse_cli(request["argv"], text)
                checks.request(request, value)
                request["expect"] = encode(value)
        print(f"{name}: {sum(len(s) for s in slots)} candidates in {len(slots)} slots", file=sys.stderr)
    out = {
        "source_sha256": source_digest(),
        "oracle_budget": ORACLE_BUDGET,
        "cross_checks": checks.tally,
        "workloads": workloads,
    }
    path = Path(__file__).with_name("reference.json")
    path.write_text(_dump(out))
    print(f"wrote {path.relative_to(ROOT)}; cross-checks {checks.tally}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
