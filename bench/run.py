#!/usr/bin/env python3
"""Benchmark of the dogfight self-play lab: end-to-end and per-layer metrics.

    python3 bench/run.py --workload league_search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One invocation runs one workload in this process (`all` runs each of the
three in a fresh child process).  It sets up the inputs several times, then
repeats the workload's operation until --seconds have passed, always
finishing the repeat it is in, then checks the outputs.  With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 one more repeat runs traced and the object holds the per-layer
metrics.  See bench/README.md.
"""

import os

# Before numpy is imported: one BLAS/OpenMP thread, so timings do not depend
# on how many cores the machine lends the process at that moment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("league_search", "league_raw", "ppo_update")
CHILD_TIMEOUT_S = 600


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def _host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, printed with each run so that
    a drift in the host's speed can be told apart from a change in the code."""
    def once():
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        return time.perf_counter() - t0

    return 1e3 * statistics.median(once() for _ in range(3))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _run_all(args) -> int:
    """Each workload in a fresh child process; a summary line per workload."""
    results = {}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    print("\n# workload        attempted failed correct")
    for name, r in results.items():
        print(f"# {name:15s} {r['attempted']:9d} {r['failed']:6d} {r['correct']}")
    merged = {f"{name}.{k}": v for name, r in results.items()
              for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _end_to_end(samples, setup_times, peak_rss_mb) -> dict:
    def med(f):
        return statistics.median(f(s) for s in samples)

    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "iteration_s": _metric(med(lambda s: s.wall / s.iterations), "s"),
        "sim_s_per_s": _metric(med(lambda s: s.sim_seconds / s.wall), "s/s"),
        "train_samples_per_s": _metric(med(lambda s: s.train_samples / s.wall), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _write_spans(tracer, path: Path) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    path.write_text(json.dumps({
        "names": names,
        "spans": [[index[n], parent, t0, t1] for n, _, parent, t0, t1, _
                  in tracer.spans],
        "hot": [[name, parent, n, tracer.hot_ns[name, parent]]
                for (name, parent), n in sorted(tracer.hot_calls.items())],
    }), encoding="utf-8")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dogfight" / "__init__.py").is_file():
        print(f"bench: no dogfight package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import numpy as np

    from tracing import Tracer
    from workloads import WORKLOADS

    work = Path("bench") / "out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"# bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
          f"host_loop_ms={_host_loop_ms():.1f}")

    workload = WORKLOADS[args.workload](args.workload, args.seed, work, SRC)
    setup_times = [workload.setup() for _ in range(workload.SETUP_REPEATS)]
    print("# setup " + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    samples = []
    t_start = time.perf_counter()
    while not samples or time.perf_counter() - t_start < args.seconds:
        samples.append(workload.repeat(len(samples)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    if args.trace:
        tracer = Tracer()
        with tracer:
            samples.append(workload.repeat(len(samples), tracer))

    verdicts = workload.check(samples)
    for i, (s, v) in enumerate(zip(samples, verdicts)):
        kind = "traced" if tracer is not None and i == len(samples) - 1 else "repeat"
        print(f"# {kind} {i}: wall {s.wall:.3f} s  "
              f"{'ok' if v is None else 'FAIL ' + v}")
    for name, digest in samples[0].digests.items():
        print(f"# sha256 {name} {digest}")
    same = sum(s.digests == samples[0].digests for s in samples)
    print(f"# {same} of {len(samples)} repeats wrote identical outputs")

    failed = sum(v is not None for v in verdicts)
    if tracer is None:
        metrics = _end_to_end(samples, setup_times, peak_rss_mb)
    else:
        untraced = statistics.median(s.wall for s in samples[:-1])
        metrics = {k: _metric(v, unit) for k, (v, unit) in tracer.summary(
            samples[-1].iterations, workload.checkpoint_bytes()).items()}
        metrics["trace.overhead"] = _metric(samples[-1].wall / untraced - 1.0, "ratio")
        _write_spans(tracer, work / "spans.json")
    for k, m in metrics.items():
        print(f"# {k:34s} {m['value']:.6g} {m['unit']}")
    for s in samples:
        if "dir" in s.extra:
            shutil.rmtree(s.extra["dir"], ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
