#!/usr/bin/env python3
"""Benchmark of steinkit: one workload, one seed, one run.

    python3 bench/run.py --workload fronts-query --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. The run is a closed loop with one client in this
process (the ``cli`` workload spawns one CLI process per op and waits for
it). Every op's output is compared with the golden digest stored in
``golden.json`` and with closed-form oracles; mutated inputs must fail with
their named ``DomainError``.

The run pins itself to one CPU. ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json``, with each op's and each setup launch's time
scaled to the reference speed measured around it (see ``reference.py``);
each time is also printed unscaled. ``--trace 1`` runs each round twice,
once untraced and once with every public function of steinkit wrapped in a
span (alternating which goes first), and reports the per-layer metrics of
the traced ops and the tracing overhead from the paired rounds. The spans are written to
``.bench_build/spans/``. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_LAUNCHES = 15
# How strongly a launch's time follows the ``mixed`` kernel (see
# ``reference.scale``); fit per workload from runs of one seed, it ranged
# from 0.45 to 1.1, depending on the ops run around the launches.
SETUP_EXPONENT = 0.8

# Fresh interpreter to first op ready: import the package and its CLI and
# build the argument parser. Only ``time`` is imported before the clock.
PROBE = """\
import time
t0 = time.perf_counter()
import steinkit.cli
t1 = time.perf_counter()
steinkit.cli.build_parser()
t2 = time.perf_counter()
print(steinkit.__file__, t1 - t0, t2 - t1, flush=True)
"""


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, no golden data)."""


def load_program():
    """Import steinkit from this checkout's ``src`` and nowhere else, and put
    the benchmark's own modules on the path."""
    if not (SRC / "steinkit" / "__init__.py").is_file():
        raise SetupError(f"no steinkit package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import steinkit

    if Path(steinkit.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"steinkit imported from {steinkit.__file__}, not {SRC}")
    return steinkit


class SetupProbes:
    """Fresh interpreters launched to the first op being ready, at most one
    every ``seconds / SETUP_LAUNCHES`` between rounds, so that their median sees
    the same drift in machine speed as the ops around them."""

    def __init__(self, ctx, seconds: float):
        self.ctx = ctx
        self.interval = seconds / SETUP_LAUNCHES
        self.last = float("-inf")
        self.ready, self.raw, self.imports, self.parsers = [], [], [], []

    def __call__(self) -> None:
        """Launch one probe if one is due."""
        if (len(self.ready) < SETUP_LAUNCHES
                and time.perf_counter() - self.last >= self.interval):
            self.launch()

    def launch(self) -> None:
        before = reference.slowness("mixed")
        start = self.last = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                                env=self.ctx.env, cwd=self.ctx.workdir, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line:
            raise SetupError("setup probe failed")
        self.raw.append(ready)
        slow = (before + reference.slowness("mixed")) / 2
        self.ready.append(ready * reference.scale(slow, SETUP_EXPONENT))
        path, import_s, parser_s = line.split()
        if Path(path).resolve().parent.parent != SRC:
            raise SetupError(f"probe imported steinkit from {path}")
        self.imports.append(float(import_s))
        self.parsers.append(float(parser_s))

    def result(self) -> dict:
        """Launch the probes still missing; the medians over all of them."""
        while len(self.ready) < SETUP_LAUNCHES:
            self.launch()
        return {"setup_s": statistics.median(self.ready),
                "setup_raw_s": statistics.median(self.raw),
                "cli.import_ms": 1000 * statistics.median(self.imports),
                "cli.build_parser_ms": 1000 * statistics.median(self.parsers)}


def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU, so that
    the reference kernel runs where the ops run: on a shared host each CPU
    has slow and fast phases of its own. Returns the CPU, or None where
    affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def interpreter_floor(ctx) -> float:
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=ctx.env, cwd=ctx.workdir, check=True)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def throughput(records, raw=False) -> float:
    valid = [r.seconds if raw else r.scaled for r in records if not r.mutated]
    return len(valid) / sum(valid)


def latency_metrics(records, raw=False) -> dict:
    latencies = sorted(1000 * (r.seconds if raw else r.scaled)
                       for r in records if not r.mutated)
    return {
        "throughput_ops_s": throughput(records, raw),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def end_to_end(records, setup: dict, in_process: bool) -> dict:
    """The end-to-end metrics, with times at the reference speed."""
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process
                               else resource.RUSAGE_CHILDREN)
    return {
        **latency_metrics(records),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


MEAN_COUNTS = {"fronts.components", "handlebody.matrix_n"}


def per_layer(names, self_seconds: dict, counts: dict, ops: int, extra: dict) -> dict:
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif name.endswith(".self_ms"):
            out[name] = 1000 * self_seconds.get(name[: -len(".self_ms")], 0.0) / ops
        elif name in MEAN_COUNTS:
            out[name] = counts.get(name, 0.0) / max(counts.get(name + "#calls", 0.0), 1)
        elif name.endswith("_max"):
            out[name] = counts.get(name, 0.0)
        else:
            out[name] = counts.get(name, 0.0) / ops
    return out


def profile_line(records) -> str:
    values = defaultdict(list)
    for r in records:
        if not r.mutated:
            for key, value in r.profile.items():
                values[key].append(value)
    parts = [f"{k} mean={statistics.fmean(v):.1f} max={max(v)}"
             for k, v in sorted(values.items())]
    return "input profile: " + ("; ".join(parts) or "argv only")


def strata_line(workload, records) -> str:
    by = defaultdict(list)
    for r in records:
        if not r.mutated:
            by[r.stratum].append(1000 * r.seconds)
    return "stratum median ms: " + ", ".join(
        f"{workload.strata[s]}={statistics.median(v):.1f}" for s, v in sorted(by.items()))


def report(workload, records, measured, metrics: dict, units: dict,
           raw: dict) -> None:
    """Print the input profile, any failures, every metric by name with its
    unit (and the unscaled figure of each time in ``raw``), and last the
    JSON result line."""
    failed = [r for r in records if r.failure]
    valid = sum(1 for r in measured if not r.mutated)
    print(profile_line(measured))
    print(strata_line(workload, measured))
    print(f"{workload.kernel} kernel: median slowness "
          f"{statistics.median(r.slowness for r in measured):.4g} around {len(measured)} ops")
    for r in failed[:10]:
        print(f"FAILED {workload.strata[r.stratum]}: {r.failure}")
    notes = {"throughput_ops_s": f"({valid} ops)",
             "op_p50_ms": f"({valid} samples)",
             "op_p90_ms": f"({valid} samples, {valid - int(0.9 * valid)} beyond p90)",
             "setup_s": f"(median of {SETUP_LAUNCHES} launches)"}
    for name, value in metrics.items():
        note = notes.get(name, "")
        if name in raw:
            note = f"{note} (unscaled {raw[name]:.6g} {units[name]})"
        print(f"{name} = {value:.6g} {units[name]} {note}".rstrip())
    print(f"fail_ratio = {len(failed) / len(records):.6g} ratio "
          f"({len(failed)} failed / {len(records)} attempted)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS,
                        help="unmutated ops a run completes at least (default %(default)s)")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        load_program()
        import harness
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}")
        workload = workloads.WORKLOADS[args.workload]
        golden = json.loads((BENCH / "golden.json").read_text())[workload.name]
    except (SetupError, OSError, ValueError, KeyError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    print(f"steinkit bench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} nproc={os.cpu_count()} "
          f"cpu={cpu} python={platform.python_version()}")
    BUILD.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        ctx = harness.Context(workdir)
        runner = harness.Runner(workload, golden, ctx)
        probes = SetupProbes(ctx, args.seconds)
        plan = harness.rounds(workload, args.seed)
        raw = {}
        if args.trace == 0:
            records = runner.run(plan, args.seconds, args.min_ops, between=probes)
            measured = records
            setup = probes.result()
            metrics = end_to_end(records, setup, workload.in_process)
            raw = {**latency_metrics(records, raw=True), "setup_s": setup["setup_raw_s"]}
        else:
            (untraced, measured), metrics = traced_pass(
                runner, plan, args.seconds, args.min_ops // 2, spec, probes.result(),
                args.seed)
            records = untraced + measured
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kind = "per_layer" if args.trace else "end_to_end"
    report(workload, records, measured, metrics,
           {m["name"]: m["unit"] for m in spec[kind]}, raw)
    return 0


@contextlib.contextmanager
def tracing(runner, tracer):
    """Trace the ops ``runner`` performs in this block: in this process by
    wrapping the functions here, in a CLI process by ``launch.py``."""
    runner.tracer = tracer
    if runner.workload.in_process:
        tracer.install()
    else:
        runner.ctx.traced = True
    try:
        yield
    finally:
        tracer.restore()
        runner.tracer = None
        runner.ctx.traced = False


def traced_pass(runner, plan, seconds, min_ops, spec, setup, seed):
    """Run each round of ``plan`` untraced and traced, back to back and
    alternating which goes first, so that drift in the machine's speed
    cancels out of the overhead; stops as ``Runner.run`` does. Returns the
    (untraced, traced) records and the per-layer metrics."""
    from spans import Tracer, self_times

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    for k, ops in enumerate(plan):
        valid = sum(1 for r in traced if not r.mutated)
        if traced and valid >= min_ops and time.perf_counter() - start >= seconds:
            break
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                with tracing(runner, tracer):
                    traced += runner.run([ops])
            else:
                untraced += runner.run([ops])
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)
    tracer.dump(spans_dir / f"{runner.workload.name}-seed{seed}.json")

    extra = {
        "cli.import_ms": setup["cli.import_ms"],
        "cli.build_parser_ms": setup["cli.build_parser_ms"],
        "cli.interpreter_ms": interpreter_floor(runner.ctx),
        "trace.overhead_pct": 100 * (1 - throughput(traced) / throughput(untraced)),
    }
    names = [m["name"] for m in spec["per_layer"]]
    return (untraced, traced), per_layer(names, self_times(tracer.spans), tracer.counts,
                                         len(traced), extra)


if __name__ == "__main__":
    sys.exit(main())
