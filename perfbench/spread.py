"""Run the benchmark over many seeds and summarize each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/spread-a.json

For every workload and metric it records the runs' values, the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``)
and the quartile spread as a share of the median, next to the bound in
BENCHMARK.json; plus attempted / failed operations per run. Runs are
sequential, one process at a time.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    return out


def summarize(runs: list[dict], spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {
            "values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "bound": m["bound"],
        }
    out["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs})
    out["correct"] = all(r["correct"] for r in runs)
    out["wall_s"] = [r["wall_s"] for r in runs]
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    report = {"seeds": seeds(args.seeds), "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in args.workloads:
        runs = []
        for s in seeds(args.seeds):
            runs.append(one_run(w, s, spec["run_seconds"]))
            print(f"{w} seed {s}: {runs[-1]['wall_s']:.1f}s failed "
                  f"{runs[-1]['failed']}/{runs[-1]['attempted']}", file=sys.stderr)
        report["workloads"][w] = summarize(runs, spec)
        for name, s in report["workloads"][w].items():
            if isinstance(s, dict):
                print(f"{w:15s} {name:12s} median {s['median']:10.4f} spread {s['spread']:.4f} "
                      f"(bound {s['bound']})", file=sys.stderr)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
