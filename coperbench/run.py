"""coper benchmark: one workload, one process, one JSON result line.

    python3 coperbench/run.py --workload pair-train --seed 1 --seconds 15 --trace 0

Run from the repository root.  The run sets up the workload several times
(corpus build, verification, model construction, warm-up) and reports the
median set-up; then it repeats equal passes for --seconds and reports the
median pass.  --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced passes, prints the per-layer metrics with the tracing
overhead, and writes the spans to coperbench/out/.  Correctness
checks run after the passes, outside the timed region; the last line of
stdout is the result object.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# BLAS threads are fixed before numpy loads: the machine has few cores that
# other processes share, and one thread keeps pass times comparable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import functools
import json
import platform
import resource
import shutil
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 3
MIN_PASSES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_rate(np) -> float:
    """Iterations per second of a fixed 96x96 matmul-plus-tanh loop (about 0.1 s)."""
    a = np.random.default_rng(0).standard_normal((96, 96)).astype(np.float32)
    iterations = 3000
    start = time.perf_counter()
    for _ in range(iterations):
        a = np.tanh((a @ a) * np.float32(0.1))
    return iterations / (time.perf_counter() - start)


def steal_ticks():
    """(steal, total) CPU ticks of the whole machine, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def machine_facts(np) -> dict:
    """Cores, BLAS, versions, and the probe rate before the run."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cores": os.cpu_count(), "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": int(BLAS_THREADS), "numpy": np.__version__,
            "python": platform.python_version(), "probe_iters_per_s": round(probe_rate(np), 1)}


class Passes:
    """Wall times of equal passes, with the process's faults and system time over them."""

    def __init__(self):
        self.times, self.minflt, self.sys_s, self.user_s = [], 0, 0.0, 0.0

    def run(self, run_pass):
        before = resource.getrusage(resource.RUSAGE_SELF)
        t = time.perf_counter()
        result = run_pass()
        self.times.append(time.perf_counter() - t)
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.minflt += after.ru_minflt - before.ru_minflt
        self.sys_s += after.ru_stime - before.ru_stime
        self.user_s += after.ru_utime - before.ru_utime
        return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "coper").is_dir():
        print(f"coper sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    import tracing
    import workloads

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    print("# machine " + json.dumps(machine_facts(np), sort_keys=True), flush=True)

    work = OUT_DIR / f"work-{wl.name}-seed{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times, setup_spans = [], []
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.install()
            lo = len(tracer.spans) if tracer else 0
            t = time.perf_counter()
            prepared = workloads.set_up(wl, args.seed, work / f"rep{rep}")
            setup_times.append(time.perf_counter() - t)
            if tracer:
                tracer.uninstall()
                setup_spans.append(tracing.setup_metrics(tracer.spans, lo, len(tracer.spans)))

        # Whole passes until --seconds have passed.  Traced runs alternate an
        # untraced and a traced pass, so machine drift falls on both alike.
        run_pass = functools.partial(workloads.run_pass, prepared)
        plain, traced, per_pass = Passes(), Passes(), []
        steal0 = steal_ticks()
        start = time.perf_counter()
        while len(plain.times) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            result = plain.run(run_pass)
            if tracer:
                tracer.install()
                lo = len(tracer.spans)
                result = traced.run(run_pass)
                tracer.uninstall()
                per_pass.append(tracing.pass_metrics(tracer.spans, lo, len(tracer.spans)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        steal1 = steal_ticks()
        # Machine drift over the passes: the probe again, and the share of CPU
        # time the hypervisor gave to others.
        print("# drift " + json.dumps({
            "probe_iters_per_s_after": round(probe_rate(np), 1),
            "steal_share": round((steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1), 4)
            if steal0 and steal1 else None}), flush=True)

        t = time.perf_counter()
        failures, ties = workloads.check(prepared, result)
        print("# checks " + json.dumps({"failures": failures, "ties": ties,
                                        "checks_s": round(time.perf_counter() - t, 3)}), flush=True)

        pass_s = statistics.median(plain.times)
        if tracer:
            metrics = {}
            for key in setup_spans[0]:
                metrics[key] = statistics.median(s[key] for s in setup_spans)
            for key in per_pass[0]:
                metrics[key] = statistics.median(p[key] for p in per_pass)
            steps = metrics["training.steps"] * len(plain.times)
            metrics["process.minor_faults_per_step"] = plain.minflt / steps if steps else 0.0
            metrics["process.sys_s"] = plain.sys_s / len(plain.times)
            metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced.times) / pass_s - 1.0)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json")
        else:
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "tokens_per_s": prepared.tokens_per_pass() / pass_s,
                "peak_rss_mb": peak_rss_mb,
            }
        units = _units("per_layer" if tracer else "end_to_end")
        if set(units) != set(metrics):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
        print("# passes " + json.dumps({
            "pass_s": [round(x, 4) for x in plain.times], "setup_s": [round(x, 4) for x in setup_times],
            "import_s": round(import_s, 4), "user_s": round(plain.user_s, 3),
            "sys_s": round(plain.sys_s, 3), "minflt": plain.minflt}), flush=True)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not failures,
        "attempted": len(plain.times) + len(traced.times),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _units(kind: str) -> dict:
    """Metric units of one BENCHMARK.json list ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
