"""The closed loop: seeded rounds of ops, each timed, then judged.

Import after ``run.load_program()`` has put the checkout's ``src`` on
``sys.path``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
from spans import merge_counts
from steinkit import fronts
from steinkit.errors import DomainError
from workloads import MUTATION_RATE, CliError, digest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


@dataclass
class Context:
    """What an op needs besides its input: a working directory, the child
    environment and whether CLI processes run traced."""

    workdir: str
    traced: bool = False

    def __post_init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spans_file = os.path.join(self.workdir, "spans.json")

    def cli(self) -> list[str]:
        """The command line prefix that runs the steinkit CLI."""
        if self.traced:
            return [sys.executable, str(BENCH / "launch.py"), self.spans_file]
        return [sys.executable, "-m", "steinkit.cli"]

    def collect(self, tracer) -> None:
        """Move the spans and counters the last traced CLI process wrote into
        ``tracer``, under its current op."""
        if not os.path.exists(self.spans_file):  # the process died first
            return
        with open(self.spans_file, encoding="utf-8") as fh:
            dumped = json.load(fh)
        os.remove(self.spans_file)
        base = len(tracer.spans)
        for _op, name, parent, start, end in dumped["spans"]:
            tracer.spans.append([tracer.op, name, parent + base if parent >= 0 else -1,
                                 start, end])
        merge_counts(tracer.counts, dumped["counts"])


@dataclass
class Record:
    stratum: int
    mutated: bool
    seconds: float
    failure: str | None
    profile: dict
    scaled: float  # seconds at the reference speed (see ``reference``)
    slowness: float  # the workload's kernel's, before and after the op


def rounds(workload, seed: int):
    """Endless seeded rounds of (stratum, instance, mutation seed or None)."""
    rng = random.Random(seed)
    n = workload.instances
    order = [rng.sample(range(n), n) for _ in workload.strata]
    r = 0
    while True:
        ops = []
        for s in rng.sample(range(len(workload.strata)), len(workload.strata)):
            ops.append((s, order[s][r % n], None))
            if rng.random() < MUTATION_RATE:
                ops.append((s, order[s][r % n], rng.randrange(2**32)))
        yield ops
        r += 1


def judge(workload, spec, result, error, golden) -> str | None:
    """Why the op failed, or None if its outcome is right."""
    if spec.expect is not None:
        if error == spec.expect:
            return None
        return f"expected {spec.expect}, got {error or 'success'}"
    if error is not None:
        return f"unexpected {error}"
    if golden.get(spec.key) != digest(result):
        return "output differs from the golden digest"
    return "; ".join(workload.check(spec, result)) or None


class Runner:
    """Runs ops of one workload, untraced or with ``tracer`` set."""

    def __init__(self, workload, golden: dict, ctx: Context):
        self.workload = workload
        self.golden = golden
        self.ctx = ctx
        self.tracer = None
        self.cache = getattr(fronts, "_trace", None)

    def one(self, stratum: int, instance: int, mutation) -> Record:
        wl = self.workload
        spec = wl.build(stratum, instance)
        if mutation is not None:
            spec = wl.mutate(spec, random.Random(mutation))
        # Each op starts as a fresh CLI process would: with no traces cached.
        if hasattr(self.cache, "cache_clear"):
            self.cache.cache_clear()
        result = error = None
        before = reference.slowness(wl.kernel)
        start = time.perf_counter()
        try:
            result = wl.run(spec, self.ctx)
        except DomainError as exc:
            error = type(exc).__name__
        except CliError as exc:
            error = exc.args[0]
        except Exception as exc:  # an untyped crash is a failed op, not a stop
            error = f"crash {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        slow = (before + reference.slowness(wl.kernel)) / 2
        if self.ctx.traced:
            self.ctx.collect(self.tracer)
        elif self.tracer is not None and hasattr(self.cache, "cache_info"):
            info = self.cache.cache_info()
            self.tracer.counts["fronts.trace_cache_hits"] += info.hits
            self.tracer.counts["fronts.trace_cache_misses"] += info.misses
        return Record(stratum, mutation is not None, seconds,
                      judge(wl, spec, result, error, self.golden), spec.profile,
                      seconds * reference.scale(slow, wl.speed_exponent), slow)

    def run(self, plan, seconds: float | None = None, min_ops: int = 0, between=None):
        """Perform whole rounds of ``plan`` until ``seconds`` have passed and
        ``min_ops`` unmutated ops are done, or, without ``seconds``, all of
        them, calling ``between()`` after each round; returns the records."""
        records = []
        rounds_done = 0
        start = time.perf_counter()
        valid = 0
        for ops in plan:
            if (seconds is not None and rounds_done and valid >= min_ops
                    and time.perf_counter() - start >= seconds):
                break
            rounds_done += 1
            gc.collect()
            for op in ops:
                if self.tracer is not None:
                    self.tracer.op += 1
                records.append(self.one(*op))
            valid += sum(1 for op in ops if op[2] is None)
            if between is not None:
                between()
        return records
