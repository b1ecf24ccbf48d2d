"""Benchmark of funupdate on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition runs in a fresh process
(``worker.py``) that sets up the inputs, times one public call and checks
its outputs. Repetitions are repeated for ``--seconds`` seconds (at least
three), and medians are reported. With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` untraced and traced repetitions
alternate and the per-layer metrics of the traced ones are printed,
together with the tracing overhead. Before the timed repetitions, the
workload's update path runs once on a reduced instance against the dense
oracle. The last line of standard output is one JSON object; the exit code
is 0 only when every check passed.

BLAS runs on a fixed number of threads. Results, machine information and
the spans of traced runs go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# One BLAS thread: no larger than any machine's core count, and the dense
# kernels then run in a fixed order, so step counts repeat bit for bit.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

MIN_REPS = 3          # timed repetitions per kind, whatever --seconds says
MIN_TRACED_REPS = 2   # each of untraced and traced, with --trace 1
RUN_LIMIT_S = 170.0   # the whole invocation, set-up and checks included

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "steps": "count"}


def pin_blas(env) -> dict:
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git (which
    would search the directories above a checkout that is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def run_rep(workload, seed, size, workdir: Path, trace, reference, timeout) -> dict:
    """Runs one repetition in a worker process and returns its record;
    a failed repetition has a non-empty ``errors`` list."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    if reference is not None:
        cmd += ["--reference", str(reference)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pin_blas(dict(os.environ)),
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"errors": [f"worker timed out after {timeout:.0f} s"], "trace": trace}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"worker exited with {proc.returncode}: {tail[0]}"], "trace": trace}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["trace"] = trace
    return record


def reduced_check(wl, seed, workdir: Path) -> list:
    """The workload's update path on its reduced instance, in this process."""
    for p in (str(ROOT / "src"), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)
    workdir.mkdir(parents=True)
    try:
        return wl.reduced(seed, workdir)
    except Exception:  # a crash of the program is a failed check, not a benchmark error
        return ["reduced run raised: " + traceback.format_exc().strip().splitlines()[-1]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def reference_file(wl, seed, size, path: Path):
    """Saves the workload's check reference (computed here, outside every
    timed and set-up interval) and returns its path, or None without one."""
    if not hasattr(wl, "reference"):
        return None
    import numpy as np
    np.save(path, wl.reference(wl.generate(seed, size)))
    return path


def mark_unsteady_steps(records) -> None:
    """Steps must repeat exactly for one input; repetitions that differ
    from the most common count fail."""
    good = [r for r in records if not r["errors"]]
    if not good:
        return
    counts = [r["steps"] for r in good]
    usual = max(set(counts), key=counts.count)
    for r in good:
        if r["steps"] != usual:
            r["errors"].append(f"steps {r['steps']} differ from {usual} on the same input")


def layer_metrics(record) -> dict:
    """Per-layer metrics of a traced repetition; fails the repetition when
    its spans do not account for the traced wall time."""
    import spans
    m = spans.layer_metrics(record["spans"])
    m["cli.bytes_written"] = record["info"].get("bytes_written", 0)
    gap = spans.unaccounted(m)
    if abs(gap) > 1e-6 * m["trace.wall_s"] + 1e-9:
        record["errors"].append(f"spans leave {gap:.3e} s of the traced call unaccounted")
    return m


def unit_of(name) -> str:
    if name in ("cli.bytes_written",):
        return "bytes"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".calls", ".spans", ".checkpoints")):
        return "count"
    return "s"


def run_benchmark(workload, seed, seconds, trace, size="full") -> dict:
    """Runs the benchmark for one workload. Returns the four fields of the
    JSON result plus every repetition's record."""
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    kinds = (False, True) if trace else (False,)
    want = MIN_TRACED_REPS if trace else MIN_REPS
    timed = []
    try:
        # An untimed tiny repetition compiles funupdate's bytecode and warms
        # the file cache, so that every timed repetition pays the same set-up.
        warm = run_rep(workload, seed, "tiny", work / "warm", False,
                       reference_file(wl, seed, "tiny", work / "warm_ref.npy"),
                       deadline - time.monotonic())
        reduced = {"trace": False, "errors": reduced_check(wl, seed, work / "reduced")}
        reference = reference_file(wl, seed, size, work / "ref.npy")
        start = time.monotonic()
        while time.monotonic() < deadline - 1.0:
            done = min(sum(r["trace"] == k for r in timed) for k in kinds)
            if done >= want and time.monotonic() - start >= seconds:
                break
            timed.append(run_rep(workload, seed, size, work / f"rep{len(timed)}",
                                 kinds[len(timed) % len(kinds)], reference,
                                 deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mark_unsteady_steps(timed)
    for r in timed:
        if r["trace"] and not r["errors"]:
            r["layers"] = layer_metrics(r)
    untraced = [r for r in timed if not r["trace"] and not r["errors"]]
    traced = [r for r in timed if r["trace"] and not r["errors"]]
    metrics = {}
    if not trace and untraced:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(r[name] for r in untraced), "unit": unit}
    if trace and untraced and traced:
        for name in traced[0]["layers"]:
            metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                             "unit": unit_of(name)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced), "unit": "s"}
    attempts = [warm, reduced] + timed
    failed = sum(1 for r in attempts if r["errors"])
    return {"correct": failed == 0 and bool(metrics), "attempted": len(attempts),
            "failed": failed, "metrics": metrics, "warm_up": warm, "reduced": reduced,
            "timed": timed}


def write_results(result, args, machine) -> Path:
    """Writes the result, machine information and every repetition's raw
    record (spans included) once, at the end of the run."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    body = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine, **result}
    for i, rec in enumerate(result["timed"]):
        rec["run_id"] = f"{args.workload}-seed{args.seed}-rep{i}"
    path.write_text(json.dumps(body) + "\n", encoding="ascii")
    return path


def print_summary(result, args, machine, path) -> None:
    timed = result["timed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(timed)} timed repetitions")
    print("machine " + json.dumps(machine, sort_keys=True))
    for r in [result["warm_up"], result["reduced"]] + timed:
        for e in r["errors"]:
            print("CHECK FAILED: " + e)
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_rate':40s} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} runs)")
    print(f"results: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of funupdate.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "funupdate" / "__init__.py").is_file():
        print(f"error: no funupdate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas(os.environ)  # before numpy loads, for the checks run in this process
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    machine = machine_info()
    path = write_results(result, args, machine)
    print_summary(result, args, machine, path)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
