#!/usr/bin/env python3
"""Regenerate ``golden.json``: the digest of every instance's output.

    python3 bench/make_golden.py [WORKLOAD ...]

Runs each instance of each stratum once, untraced, and refuses to write
anything if an output fails its closed-form oracles or ends in an error.
Run it only on a commit whose outputs are known good; the digests then pin
those outputs for every later run.
"""

import json
import shutil
import sys
import tempfile

import run


def main(names) -> int:
    run.load_program()
    import harness
    import workloads

    path = run.BENCH / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    run.BUILD.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=run.BUILD)
    try:
        ctx = harness.Context(workdir)
        for name in names or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            digests = {}
            for s in range(len(workload.strata)):
                for i in range(workload.instances):
                    spec = workload.build(s, i)
                    result = workload.run(spec, ctx)
                    bad = workload.check(spec, result)
                    if bad:
                        print(f"{name} {workload.strata[s]}/{i}: {bad}", file=sys.stderr)
                        return 1
                    digests[spec.key] = workloads.digest(result)
            golden[name] = digests
            print(f"{name}: {len(digests)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
