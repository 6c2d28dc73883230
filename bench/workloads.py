"""Seeded inputs, operations and correctness checks of the benchmark.

Each workload is a fixed list of strata. One round of a run performs one op
per stratum, in a seeded order, so every run has the same mix of input
sizes and the seed only picks which instance of each stratum is used. An
instance is built from (workload, stratum, instance) alone, by
construction and as text, so the golden digest stored for it holds for
every seed. About one op in twenty is followed by a mutated copy of its
input, which must fail with one named ``DomainError``.

The program is imported as ``steinkit``; the caller puts the checkout's
``src`` first on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction

from steinkit import brieskorn, criteria, fronts, handlebody

MUTATION_RATE = 0.05  # share of ops followed by a mutated copy of their input

@dataclass
class Spec:
    """One op's input. ``expect`` names the error a mutated input must raise."""

    key: str  # "<stratum>/<instance>", the golden lookup key
    data: dict
    profile: dict  # input size: events, components, lattice points, matrix n
    expect: str | None = None


def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _frac(value: Fraction | None):
    return None if value is None else [value.numerator, value.denominator]


def _coprime_at_least(p: int, q: int) -> int:
    while math.gcd(p, q) != 1:
        q += 1
    return q


def _primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


PRIMES = _primes(210_000)


def _prime_at_least(n: int) -> int:
    return PRIMES[bisect.bisect_left(PRIMES, n)]


# --------------------------------------------------------------------------
# Fronts, written as text


def torus_events(p: int, q: int) -> list[str]:
    """Braid-closure front of T(p, q): tb = (p-1)q - p, r = 0."""
    lines = [f"L {i}" for i in range(p)]
    lines += [f"X {i}" for _ in range(q) for i in range(p - 1)]
    lines += [f"R {i}" for i in range(p - 1, -1, -1)]
    return lines


def braid_word(rng: random.Random, m: int, k: int, length: int) -> list[int]:
    """Adjacent transpositions on ``m`` strands whose closure has ``k``
    components: a random word, then a bubble-sort tail that sends each strand
    to its end position under a random permutation with exactly k cycles."""
    word = [rng.randrange(m - 1) for _ in range(length)]
    arr = list(range(m))  # arr[i]: start position of the strand now at i
    for i in word:
        arr[i], arr[i + 1] = arr[i + 1], arr[i]
    order = rng.sample(range(m), m)
    cuts = sorted(rng.sample(range(1, m), k - 1))
    end = {}
    for a, b in zip([0] + cuts, cuts + [m]):
        block = order[a:b]
        for j, s in enumerate(block):
            end[s] = block[(j + 1) % len(block)]
    target = [end[s] for s in arr]
    for i in range(m):
        for j in range(m - 1 - i):
            if target[j] > target[j + 1]:
                target[j], target[j + 1] = target[j + 1], target[j]
                word.append(j)
    return word


def link_events(rng: random.Random, k: int, events: int, extra=(0, 4)
                ) -> tuple[list[str], int]:
    """Closure of a random braid on k + ``extra`` strands (a range) with
    exactly ``k`` components and about ``events`` events; returns the lines
    and the crossing count."""
    m = max(k + rng.randint(*extra), 2)
    length = max(events - 2 * m - m * (m - 1) // 4, 0)
    word = braid_word(rng, m, k, length)
    lines = [f"L {i}" for i in range(m)]
    lines += [f"X {i}" for i in word]
    lines += [f"R {i}" for i in range(m - 1, -1, -1)]
    return lines, len(word)


def front_text(lines: list[str], flips=()) -> str:
    return "\n".join(["# generated front", *lines, *(f"flip {c}" for c in flips)]) + "\n"


def front_profile(lines: list[str], k: int) -> dict:
    return {
        "events": len(lines),
        "components": k,
        "crossings": sum(1 for line in lines if line[0] == "X"),
    }


def mutate_front(rng: random.Random, lines: list[str], k: int):
    """A broken copy of a front and the error it must raise."""
    kind = rng.choice(("drop-line", "bump-position", "flip-range"))
    lines = list(lines)
    if kind == "drop-line":
        rights = [i for i, line in enumerate(lines) if line[0] == "R"]
        del lines[rng.choice(rights)]
        return front_text(lines), "UnbalancedDiagram"
    if kind == "bump-position":
        at = rng.randrange(len(lines))
        strands = 0
        for line in lines[:at]:
            strands += {"L": 2, "R": -2, "X": 0}[line[0]]
        tag = lines[at][0]
        lines[at] = f"{tag} {strands + 1 if tag == 'L' else strands - 1}"
        return front_text(lines), "InvalidPosition"
    return front_text(lines, [k]), "ComponentOutOfRange"


def unimodular_form(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    """Q = U^T D U with U unit upper triangular and D = +-1: det Q = +-1."""
    dens = 0.15 if bound == 1 else 0.3
    u = [[1 if i == j else (rng.randint(-bound, bound) if j > i and rng.random() < dens
                            else 0) for j in range(n)] for i in range(n)]
    d = [rng.choice((1, -1)) for _ in range(n)]
    return [[sum(u[k][i] * d[k] * u[k][j] for k in range(min(i, j) + 1))
             for j in range(n)] for i in range(n)]


def generic_form(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            q[i][j] = q[j][i] = rng.randint(-bound, bound)
    return q


def kirby_text(one_handles, handles, q) -> str:
    lines = ["# generated Stein handlebody", f"1-handles {one_handles}"]
    lines += [f"handle tb={tb} r={r} framing={f}" for tb, r, f in handles]
    n = len(handles)
    lines += [f"lk {i} {j} {q[i][j]}" for i in range(n) for j in range(i + 1, n)
              if q[i][j] != 0]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    strata: tuple[str, ...] = ()
    instances = 40
    in_process = True
    # The kernel of ``reference`` closest to the ops' work, and how strongly
    # the op times follow it, the exponent of ``reference.scale``: the slope
    # of log throughput over log kernel time across 10 to 12 runs of 12 s on
    # one seed, rounded down to 0.1.
    kernel = "mixed"
    speed_exponent = 1.0

    def build(self, stratum: int, instance: int) -> Spec:
        rng = random.Random(f"{self.name}/{stratum}/{instance}")
        spec = self._build(self.strata[stratum], rng)
        spec.key = f"{stratum}/{instance}"
        return spec

    def mutate(self, spec: Spec, rng: random.Random) -> Spec:
        data, expect = self._mutate(spec, rng)
        return Spec(spec.key, data, spec.profile, expect)

    def check(self, spec: Spec, result: dict) -> list[str]:
        """Closed-form oracles; returns the violations found."""
        return []

    def _build(self, stratum: str, rng: random.Random) -> Spec:
        raise NotImplementedError

    def _mutate(self, spec: Spec, rng: random.Random) -> tuple[dict, str]:
        raise NotImplementedError


def _analysis(an) -> dict:
    return {
        "chi": an.chi, "b2": an.b2, "det": an.det, "sig": an.signature,
        "c1sq": _frac(an.c1_squared), "theta": an.theta_boundary,
    }


def _unimodular_checks(result: dict) -> list[str]:
    bad = []
    if abs(result["det"]) == 1 and result["c1sq"] is not None:
        num, den = result["c1sq"]
        if den != 1 or (num - result["sig"]) % 8 != 0:
            bad.append("c1^2 not congruent to sigma mod 8")
        if result["theta"] is None or result["theta"] % 4 != 2:
            bad.append("theta not 2 mod 4")
    return bad


class FrontsQuery(Workload):
    """Parse a front, compute the ``front stats`` payload, then
    ``handlebody.from_front`` and ``analyze``."""

    name = "fronts-query"
    speed_exponent = 0.7  # fit 0.76
    TORUS = {"T3": (3, 50, 60), "T5": (5, 90, 110), "T7": (7, 120, 140),
             "T11": (11, 70, 85), "T19": (19, 50, 57)}
    strata = (
        *TORUS,
        "k1-small", "k1-large", "k3-small", "k3-large", "k6-small",
        "k6-large", "k9-small", "k9-large", "k12-small", "k12-large",
    )

    def _build(self, stratum, rng):
        if stratum in self.TORUS:
            p, lo, hi = self.TORUS[stratum]
            q = _coprime_at_least(p, rng.randint(lo, hi))
            lines = torus_events(p, q)
            flips = [0] if rng.random() < 0.5 else []
            data = {"text": front_text(lines, flips), "k": 1, "torus": [p, q]}
            k = 1
        else:
            k = int(stratum[1:].split("-")[0])
            size = (150, 250) if stratum.endswith("small") else (700, 900)
            lines, _ = link_events(rng, k, rng.randint(*size), extra=(1, 2))
            flips = [c for c in range(k) if rng.random() < 0.3]
            data = {"text": front_text(lines, flips), "k": k, "torus": None}
        data["lines"] = lines
        return Spec("", data, front_profile(lines, k))

    def _mutate(self, spec, rng):
        text, expect = mutate_front(rng, spec.data["lines"], spec.data["k"])
        return dict(spec.data, text=text), expect

    def run(self, spec, ctx=None) -> dict:
        d = fronts.parse_front(spec.data["text"])
        comps = fronts.components(d)
        per = [fronts.invariants(d, c.index) for c in comps]
        lk = [
            fronts.linking_number(d, i, j)
            for i in range(len(comps))
            for j in range(i + 1, len(comps))
        ]
        kirby = handlebody.from_front(d)
        an = handlebody.analyze(kirby)
        return {
            "tb_r": [[inv.tb, inv.r] for inv in per],
            "lk": lk,
            "kirby": [[h.tb, h.r, h.framing] for h in kirby.two_handles],
            "linking": [list(row) for row in kirby.linking],
            **_analysis(an),
        }

    def check(self, spec, result):
        bad = []
        k = spec.data["k"]
        if len(result["tb_r"]) != k:
            bad.append(f"{len(result['tb_r'])} components, built with {k}")
        if spec.data["torus"]:
            p, q = spec.data["torus"]
            if result["tb_r"] != [[(p - 1) * q - p, 0]]:
                bad.append(f"T({p},{q}) gave {result['tb_r']}")
        expected = [[tb, r, tb - 1] for tb, r in result["tb_r"]]
        if result["kirby"] != expected:
            bad.append("from_front handles disagree with the stats payload")
        linking = result["linking"]
        pairs = iter(result["lk"])
        for i in range(len(linking)):
            for j in range(i + 1, len(linking)):
                value = next(pairs, None)
                if not linking[i][j] == linking[j][i] == value:
                    bad.append(f"linking[{i}][{j}] disagrees with lk")
        return bad + _unimodular_checks(result)


class Milnor(Workload):
    """Milnor-fiber invariants of pairwise-coprime triples; the (p, q, pq+-1)
    triples also run seifert_data, brieskorn_embed_plan and prop_theta_check."""

    name = "milnor"
    instances = 60
    kernel = "lattice"
    speed_exponent = 0.8  # fit 0.83
    SIZES = ((8, 2_000), (9_000, 11_000), (45_000, 55_000), (120_000, 140_000),
             (330_000, 370_000))
    strata = tuple(
        f"{form}-{s}" for form in ("generic", "surgery", "pq1") for s in range(5)
    )

    def _build(self, stratum, rng):
        form, s = stratum.split("-")
        lo, hi = self.SIZES[int(s)]
        if form == "generic":
            triple, pqn = self._generic(rng, lo, hi), None
        else:
            triple, pqn = self._surgery(rng, lo, hi, n_is_one=form == "pq1")
        b2 = math.prod(x - 1 for x in triple)
        order = rng.sample(triple, 3)
        return Spec("", {"triple": order, "pqn": pqn}, {"lattice_points": b2})

    @staticmethod
    def _generic(rng, lo, hi):
        if lo < 10 and rng.random() < 0.1:
            return [2, 3, 5]
        while True:
            p1, p2 = sorted(rng.sample(PRIMES[:10], 2))
            p3 = _prime_at_least(rng.randint(lo, hi) // ((p1 - 1) * (p2 - 1)) + 2)
            if p3 > p2 and lo <= (p1 - 1) * (p2 - 1) * (p3 - 1) <= hi:
                return [p1, p2, p3]

    @staticmethod
    def _surgery(rng, lo, hi, n_is_one):
        while True:
            p = rng.randint(2, 23 if n_is_one else 7)
            q = _coprime_at_least(p, rng.randint(p + 1, p + 30))
            eps = rng.choice((1, -1))
            if n_is_one:
                n = 1
                if eps == -1 and (p, q) in ((2, 3), (2, 5)):
                    continue
            else:
                n = max(2, rng.randint(lo, hi) // ((p - 1) * (q - 1) * p * q))
            third = n * p * q + eps
            if lo <= (p - 1) * (q - 1) * (third - 1) <= hi:
                return [p, q, third], [p, q, n, eps]

    def _mutate(self, spec, rng):
        pqn = spec.data["pqn"]
        kinds = ["shared-factor", "unit"] + (["eps"] if pqn and pqn[2] == 1 else [])
        kind = rng.choice(kinds)
        if kind == "eps":
            return dict(spec.data, pqn=[*pqn[:3], 0]), "InvalidParams"
        triple = list(spec.data["triple"])
        if kind == "shared-factor":
            triple[2] *= triple[0]
        else:
            triple[rng.randrange(3)] = 1
        return dict(spec.data, triple=triple), "InvalidParams"

    def run(self, spec, ctx=None) -> dict:
        pqn = spec.data["pqn"]
        if pqn and pqn[2] == 1:
            # validate the plan's arguments first, so a bad eps fails fast
            p, q, _n, eps = pqn
            plan = criteria.brieskorn_embed_plan(p, q, eps)
        t = brieskorn.BrieskornTriple(*spec.data["triple"])
        inv = brieskorn.milnor_invariants(t)
        out = {"b2": inv.b2, "chi": inv.chi, "sigma": inv.sigma,
               "theta": inv.theta_boundary}
        if pqn and pqn[2] == 1:
            sd = brieskorn.seifert_data(t)
            report = criteria.prop_theta_check(p, q, eps)
            out["seifert"] = [sd.q1, sd.q2, sd.q3]
            out["plan"] = [plan.schedule.up, plan.schedule.down, plan.framing,
                           plan.target.tb, plan.target.r, str(plan.boundary)]
            out["prop_theta"] = [report.theta_milnor, report.homotopic,
                                 report.b2_mod3]
        return out

    def check(self, spec, result):
        bad = []
        p1, p2, p3 = spec.data["triple"]
        b2 = (p1 - 1) * (p2 - 1) * (p3 - 1)
        if result["b2"] != b2 or result["chi"] != b2 + 1:
            bad.append("b2 or chi wrong")
        if abs(result["sigma"]) > b2 or result["theta"] % 4 != 2:
            bad.append("sigma out of range or theta not 2 mod 4")
        if result["theta"] != -2 * (b2 + 1) - 3 * result["sigma"]:
            bad.append("theta disagrees with sigma")
        pqn = spec.data["pqn"]
        if pqn and pqn[3] == -1:
            p, q, n, _eps = pqn
            if result["sigma"] != -n * (p * p - 1) * (q * q - 1) // 3:
                bad.append("sigma disagrees with the (p,q,npq-1) closed form")
            if result["theta"] != (p - 1) * (q - 1) * (4 - n * (p * q - p - q - 1)) - 2:
                bad.append("theta disagrees with the (p,q,npq-1) closed form")
        if "seifert" in result:
            s1, s2, s3 = result["seifert"]
            if s1 * p2 * p3 + p1 * s2 * p3 + p1 * p2 * s3 != 1:
                bad.append("Seifert invariants do not sum to 1")
            if result["prop_theta"][0] != result["theta"]:
                bad.append("prop_theta_check disagrees with milnor_invariants")
        return bad


class Cli(Workload):
    """One ``python -m steinkit.cli`` process per op, over a fixed mix of
    subcommands in table and ``--json`` form on small inputs."""

    name = "cli"
    in_process = False
    instances = 24
    speed_exponent = 0.8  # fit 0.80
    strata = (
        "front-stats", "front-stats-json", "front-stabilize", "front-stabilize-json",
        "torus-knot", "torus-knot-stabilize-json", "brieskorn-invariants",
        "brieskorn-invariants-json", "brieskorn-seifert", "brieskorn-surgery",
        "handlebody-analyze", "handlebody-analyze-json", "nucleus", "check-embed",
        "check-mixed",
    )

    def _build(self, stratum, rng):
        as_json = stratum.endswith("-json") or rng.random() < 0.3
        flag = ["--json"] if as_json else []
        data = {"files": {}}
        if stratum.startswith("front"):
            k = rng.randint(1, 4)
            lines, crossings = link_events(rng, k, rng.randint(40, 120))
            data["files"]["in.front"] = front_text(lines)
            data["lines"], data["k"] = lines, k
            argv = ["front", "stats", "@in.front"]
            if "stabilize" in stratum:
                # every component has at least two segments per gap it spans,
                # and each spans all crossing gaps
                at = rng.randrange(2 * (crossings + 1))
                argv = ["front", "stabilize", "@in.front", "--component",
                        str(rng.randrange(k)), "--dir", rng.choice(("up", "down")),
                        "--at", str(at)]
            profile = front_profile(lines, k)
        elif stratum.startswith("torus-knot"):
            p = rng.randint(2, 5)
            q = _coprime_at_least(p, rng.randint(p + 1, 15))
            argv = ["torus-knot", str(p), str(q)]
            if "stabilize" in stratum:
                argv += ["--stabilize", f"{rng.randint(0, 8)},{rng.randint(0, 8)}"]
            profile = {"events": 2 * p + (p - 1) * q, "components": 1}
        elif stratum == "brieskorn-surgery":
            p = rng.randint(2, 5)
            q = _coprime_at_least(p, p + rng.randint(1, 9))
            argv = ["brieskorn", "surgery", str(p), str(q), str(rng.randint(1, 9)),
                    rng.choice(("+", "-"))]
            profile = {}
        elif stratum.startswith("brieskorn"):
            if stratum.endswith("json"):
                triple, _pqn = Milnor._surgery(rng, 8, 3_000, n_is_one=False)
            else:
                triple = Milnor._generic(rng, 8, 3_000)
            sub = "seifert" if stratum == "brieskorn-seifert" else "invariants"
            argv = ["brieskorn", sub, *map(str, rng.sample(triple, 3))]
            profile = {"lattice_points": math.prod(x - 1 for x in triple)}
        elif stratum == "check-embed":
            triple, (p, q, _n, eps) = Milnor._surgery(rng, 8, 3_000, n_is_one=True)
            argv = ["check", rng.choice(("embed", "prop-theta")), str(p), str(q), str(eps)]
            profile = {"lattice_points": math.prod(x - 1 for x in triple)}
        elif stratum.startswith("handlebody"):
            n = rng.randint(3, 8)
            if stratum.endswith("json"):
                q = unimodular_form(rng, n, 1)
            else:
                q = generic_form(rng, n, 5)
            handles = [[q[i][i] + 1, q[i][i] % 2 + 2 * rng.randint(-2, 2), q[i][i]]
                       for i in range(n)]
            data["files"]["in.kirby"] = kirby_text(0, handles, q)
            data["handles"], data["q"] = handles, q
            argv = ["handlebody", "analyze", "@in.kirby"]
            profile = {"matrix_n": n}
        elif stratum == "nucleus":
            p = rng.randint(2, 7)
            q = _coprime_at_least(p, rng.randint(p + 1, 20))
            argv = ["nucleus", str(p), str(q), str(rng.randint(2, 6))]
            profile = {"matrix_n": 2}
        else:
            tb, r = rng.randint(-8, 8), rng.randint(-5, 5)
            sub = rng.choice(("hirz", "cave", "flip", "slice"))
            argv = ["check", sub, *{
                "hirz": ["--tb", str(tb), "--r", str(r), "--n", str(rng.randint(-4, 4)),
                         "--m", str(rng.randint(0, 3))],
                "cave": ["--tb", str(tb), "--r", str(r), "--k", str(rng.randint(-4, 6))],
                "flip": ["--r0", str(r), "--up", str(rng.randint(0, 6)), "--down",
                         str(rng.randint(0, 6)), "--target", str(rng.randint(-8, 8))],
                "slice": ["--tb", str(tb), "--r", str(r), "--g", str(rng.randint(0, 6))],
            }[sub]]
            profile = {}
        data["argv"] = argv + flag
        return Spec("", data, profile)

    def _mutate(self, spec, rng):
        data = dict(spec.data, files=dict(spec.data["files"]))
        argv = list(data["argv"])
        if "in.front" in data["files"]:
            text, expect = mutate_front(rng, data["lines"], data["k"])
            data["files"]["in.front"] = text
        elif "in.kirby" in data["files"]:
            handles = [list(h) for h in data["handles"]]
            handles[rng.randrange(len(handles))][2] += 1
            data["files"]["in.kirby"] = kirby_text(0, handles, data["q"])
            expect = "FramingMismatch"
        elif argv[0] == "torus-knot":
            argv[2] = argv[1]
            expect = "InvalidParams"
        elif argv[0] in ("brieskorn", "nucleus") or argv[1] in ("embed", "prop-theta"):
            if argv[:2] == ["brieskorn", "surgery"] or argv[0] == "nucleus":
                argv[4 if argv[0] == "brieskorn" else 3] = "0"
            elif argv[0] == "brieskorn":
                argv[4] = str(int(argv[2]) * int(argv[3]) * 2)
            else:
                argv[4] = "0"
            expect = "InvalidParams"
        else:
            argv = ["check", "flip", "--r0", "0", "--up", "-1", "--down", "1",
                    "--target", "0"] + (["--json"] if "--json" in argv else [])
            expect = "InvalidParams"
        data["argv"] = argv
        return data, expect

    def run(self, spec, ctx) -> dict:
        """Spawn one CLI process; ``ctx`` supplies the command prefix (plain
        or traced), the environment and the work directory."""
        for name, text in spec.data["files"].items():
            with open(os.path.join(ctx.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(ctx.workdir, a[1:]) if a.startswith("@") else a
                for a in spec.data["argv"]]
        return run_cli([*ctx.cli(), *argv], ctx.env, ctx.workdir)

    def check(self, spec, result):
        bad = ["wrote to stderr"] if result["stderr"] else []
        argv = spec.data["argv"]
        if "--json" in argv:
            try:
                out = json.loads(result["stdout"])
            except ValueError:
                return bad + ["--json output is not JSON"]
            if argv[0] == "torus-knot":
                # T(p, q) has tb = (p-1)q - p and r = 0; each stabilization
                # lowers tb by 1, and moves r by -1 (up) or +1 (down)
                p, q = int(argv[1]), int(argv[2])
                up, down = 0, 0
                if "--stabilize" in argv:
                    up, down = map(int, argv[argv.index("--stabilize") + 1].split(","))
                if [out["tb"], out["r"]] != [(p - 1) * q - p - up - down, down - up]:
                    bad.append("torus knot tb/r disagree with the stabilization deltas")
        return bad


WORKLOADS = {w.name: w for w in (FrontsQuery(), Milnor(), Cli())}


class CliError(Exception):
    """A CLI process that did not exit 0; the argument is the error name it
    printed first on stderr (``Name: message``) or its exit status."""


def run_cli(argv, env, cwd, timeout=120) -> dict:
    """Run one CLI process to completion and return its output."""
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode == 1 and proc.stderr.strip():
        raise CliError(proc.stderr.strip().split(":", 1)[0])
    if proc.returncode != 0:
        raise CliError(f"exit {proc.returncode}")
    return {"stdout": proc.stdout, "stderr": proc.stderr}
