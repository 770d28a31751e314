"""Benchmark of the seasonal temporal pattern miners, with checked outputs.

    python3 perfbench/run.py --workload wide-k3 --seed 1 --seconds 10 --trace 0

Workloads: ``wide-k3`` and ``grid-sweep`` (pure-Python core and the
APS-growth baseline, one process, one thread) and ``spark-replicas``
(the Spark layer on ``local[4]``). Inputs come from ``--seed``; every
output is checked by ``checker.py``, which shares no code with the
miners. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(spans and counts then also go to ``perfbench/out/``). README.md says
what each metric measures.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("wide-k3", "grid-sweep", "spark-replicas")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: program modules a pure-Python workload needs before its first job
CORE_MODULES = (
    "repro.core.symbolize",
    "repro.core.sequences",
    "repro.core.estpm",
    "repro.core.astpm",
    "repro.core.mi",
    "repro.baseline.aps",
)
SETUP_REPEATS = 5


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the core modules."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import " + ", ".join(CORE_MODULES)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tally(rounds: list[list], verdicts: dict) -> tuple[int, int]:
    """Operations attempted and failed over all rounds.

    Round 1 is checked in full; a later round's job fails if round 1's
    did, or if its output's digest differs from round 1's.
    """
    first = rounds[0]
    attempted = failed = 0
    for r, jobs in enumerate(rounds):
        for i, job in enumerate(jobs):
            attempted += 1
            failed += not verdicts[i].ok or (r > 0 and job.digest != first[i].digest)
    return attempted, failed


def run_pure(args) -> dict:
    setup = setup_seconds()
    import pure
    from report import E2E_UNITS, add_overhead, fill_absent, layer_units, metric_block
    from report import peak_rss_mb, report_failures
    from tracing import Tracer

    cls = {"wide-k3": pure.WideK3, "grid-sweep": pure.GridSweep}[args.workload]
    wl = cls(args.seed)
    rounds, tracers = [], []
    t0 = time.perf_counter()
    while True:
        tr = Tracer()
        jobs, _ = wl.run_round(tr, traced=False)
        rounds.append(jobs)
        tracers.append(tr)
        pure.keep_results = False  # round 1's results are the ones checked
        print(f"round {len(rounds)}: {pure.e2e_pure([tr])}", file=sys.stderr)
        if len(rounds) >= wl.min_rounds and time.perf_counter() - t0 >= args.seconds:
            break
    peak = peak_rss_mb()
    layers = None
    if args.trace:
        ttr = Tracer()
        pure.keep_results = True
        with pure.trace_patches(ttr):
            tjobs, tdseqs = wl.run_round(ttr, traced=True)
        rounds.append(tjobs)
        layers = pure.core_layer_metrics(ttr, tjobs, tdseqs)
        add_overhead(layers, pure.e2e_pure(tracers[:1]), pure.e2e_pure([ttr]))
        fill_absent(layers)
        ttr.dump(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"), layers)
    verdicts = wl.check(rounds[0])
    report_failures(verdicts.values())
    attempted, failed = tally(rounds, verdicts)
    if layers is not None:
        metrics = metric_block(layers, layer_units())
    else:
        values = pure.e2e_pure(tracers)
        values.update(setup_s=setup, peak_rss_mb=peak)
        metrics = metric_block(values, E2E_UNITS)
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    if args.workload == "spark-replicas":
        import replicas

        result = replicas.run(args, T_START, OUT, SRC)
    else:
        result = run_pure(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
