#!/usr/bin/env python3
"""Benchmark of the ggm package, driven through its public API.

    python3 perfbench/run.py --workload tc1-sweep --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) from the root of a
source checkout, importing ggm from ./src. With --trace 0 it times whole
rounds of the workload's operations for --seconds and reports the
end-to-end metrics; with --trace 1 it runs one untraced and one traced
round and reports the per-layer metrics. Either way it checks every
output. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Details of the run, with the
machine and library versions, go to perfbench/results/.
"""
import os

# One BLAS/OpenMP thread, before numpy loads here or in any child process.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 5
EXIT_NO_PROGRAM = 2


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS}}


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    """Peak RSS of this process plus that of its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _timed_round(workload, state):
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    rnd = workload.run_round(state)
    return rnd, time.perf_counter() - t0, _cpu_seconds() - cpu0


def _setup_seconds(args):
    """Median wall time of fresh processes that set up the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return statistics.median(samples)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ggm" / "__init__.py").is_file():
        print(f"no ggm sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        workload.warm_up(workload.make_inputs(args.seed))
        print("ready", flush=True)
        return 0

    spec = _spec()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    state = workload.make_inputs(args.seed)
    if tracer:
        tracer.uninstall()
    workload.warm_up(state)

    rounds, walls, cpus = [], [], []
    if args.trace:
        # one untraced round, then the same round traced
        for traced in (False, True):
            if traced:
                tracer.install()
            rnd, wall, cpu = _timed_round(workload, state)
            if traced:
                tracer.uninstall()
            rounds.append(rnd)
            walls.append(wall)
            cpus.append(cpu)
    else:
        start = time.perf_counter()
        while True:
            rnd, wall, cpu = _timed_round(workload, state)
            rounds.append(rnd)
            walls.append(wall)
            cpus.append(cpu)
            if time.perf_counter() - start + wall > args.seconds:
                break

    # tc1-sweep's rounds cannot see solver iterations; its check times them instead
    errors, check_solve_s, check_iters = workload.check(state, rounds, args.seed)
    solve_s = sum(r.solve_s for r in rounds) or check_solve_s
    iterations = sum(r.iterations for r in rounds) or check_iters
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    if args.trace:
        layer = tracer.layer_metrics(workload.workers)
        layer.update(rounds[-1].counts)
        layer["trace.overhead_s"] = walls[1] - walls[0]
        values = {m["name"]: layer.get(m["name"], 0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        peak = _peak_rss_mb()
        values = {
            "setup_s": _setup_seconds(args),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "iters_per_s": iterations / solve_s if solve_s else 0.0,
            "peak_rss_mb": peak,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    env = _environment()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "round_wall_s": walls,
              "round_cpu_s": cpus, "solve_s": solve_s, "iterations": iterations,
              "errors": errors, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        detail["layers"] = layer
        tracer.write(RESULTS / f"{stem}-spans.json.gz", detail)
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for line in errors:
        print(f"check failed: {line}")
    print("environment: " + json.dumps(env))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
