"""Run every workload on several seeds and report each metric's spread.

    python3 coperbench/steadiness.py --seeds 1-10
    python3 coperbench/steadiness.py --workloads pair-train --seeds 1-5

Runs `run.py` once per (workload, seed), one process at a time, with the
run length from BENCHMARK.json.  For every end-to-end metric it prints the
median, the quartiles, and the spread: (Q3 - Q1) / median, with quartiles as
`statistics.quantiles(values, n=4)` gives them, next to the metric's bound.
Each run's line also shows the probe rate before and after its passes and
the share of CPU time stolen by the hypervisor, so that drift of the machine
can be told apart from a change of the program.  The raw results go to
coperbench/out/steadiness-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    results = {}
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["wall_s"] = time.perf_counter() - start
            for line in lines[:-1]:
                tag, _, body = line.removeprefix("# ").partition(" ")
                res[tag] = json.loads(body)
            results.setdefault(workload, []).append(res)
            values = {k: round(v["value"], 3) for k, v in res["metrics"].items()}
            print(f"{workload} seed {seed}: correct {res['correct']} attempted {res['attempted']} "
                  f"failed {res['failed']} {values} ({res['wall_s']:.1f} s; probe "
                  f"{res['machine']['probe_iters_per_s']:.0f} -> {res['drift']['probe_iters_per_s_after']:.0f}"
                  f", steal {res['drift']['steal_share']})", flush=True)

    print("\n| workload | metric | median | Q1 | Q3 | spread | bound |\n|---|---|---|---|---|---|---|")
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {workload} | {metric['name']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {metric['bound']} |")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"| {workload} | failed share | {sorted(shares)} | | | | |")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(
        json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
