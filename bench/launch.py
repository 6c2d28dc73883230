"""One steinkit CLI invocation with its public functions traced.

    PYTHONPATH=src python3 bench/launch.py SPANS_OUT ARG...

behaves like ``python3 -m steinkit.cli ARG...`` (same stdout, stderr and
exit status) and also writes the invocation's spans and work counters to
SPANS_OUT as JSON. The traced ``cli`` workload spawns this instead of the
CLI itself.
"""

import sys

import steinkit.cli

from spans import Tracer

tracer = Tracer()
tracer.install()
try:
    status = steinkit.cli.main(sys.argv[2:])
except SystemExit as exc:  # argparse usage errors
    status = exc.code
finally:
    tracer.restore()
    cache = getattr(steinkit.fronts, "_trace", None)
    if hasattr(cache, "cache_info"):
        info = cache.cache_info()
        tracer.counts["fronts.trace_cache_hits"] += info.hits
        tracer.counts["fronts.trace_cache_misses"] += info.misses
    tracer.dump(sys.argv[1])
sys.exit(status)
