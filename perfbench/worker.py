"""One repetition of a benchmark workload, in a process of its own.

Set-up (importing funupdate, generating and writing the inputs), the timed
call and the output checks all run here; the process's peak resident memory
is therefore that of this repetition alone. Prints one JSON object on the
last line of standard output. Started by ``run.py``:

    python3 perfbench/worker.py --workload NAME --seed N --size full \
        --workdir DIR [--trace] [--reference FILE]
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", default=None)
    args = parser.parse_args(argv)

    import numpy as np
    import funupdate  # noqa: F401  (importing the package is part of set-up)

    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inp = wl.prepare(wl.generate(args.seed, args.size), args.workdir)
    setup_s = time.perf_counter() - _START

    tracer = spans.Tracer()
    if args.trace:
        with tracer.installed(), tracer.span(spans.ROOT):
            t0 = time.perf_counter()
            out = wl.call(inp)
            wall_s = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        out = wl.call(inp)
        wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = np.load(args.reference) if args.reference else None
    outcome = wl.check(inp, out, reference)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "steps": outcome.steps,
        "errors": outcome.errors,
        "info": outcome.info,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
