"""``spark-replicas``: 8 replica groups of raw INF values through the Spark layer.

One round loads the long-format values into a DataFrame, runs
``symbolize_threshold`` -> ``extract_instances`` (materialized by a
count), ``mine_groups`` for E-STPM and A-STPM (collected), and, in the
traced run, ``nmi_table``. APS-growth has no Spark path: ``aps_s`` times
the pure-Python APS-growth baseline on the same groups, inside the
pure-Python reference run the checks need anyway. An operation is one
miner on one replica group.

Checks: for every group and Spark miner, the Spark rows equal the
pure-Python miner run on the same values symbolized by
``threshold_symbols``, and
every row's support size, season count and season starts equal the
checker's own; the pure-Python results pass the checks of ``grid-sweep``
(soundness, completeness on a projection, APS-growth = E-STPM, A-STPM
within E-STPM, the MI screen). The instance-row count must equal the
checker's own run count, and every ``nmi_table`` min-NMI the checker's
Eq. 5 value within 1e-9; those two are run-level checks (``correct``).
"""
from __future__ import annotations

import glob
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checker as ck
import pure
from report import E2E_UNITS, add_overhead, fill_absent, layer_units, metric_block
from report import peak_rss_mb, report_failures
from tracing import Tracer, best_total

N_GROUPS = 8
#: Spark runs on local[CORES]; the driver process is the only Python one
#: besides Spark's own workers
CORES = 4
#: Spark rounds per run at the least; each Spark call counts at its
#: fastest round (round 1 also pays for the first run of each plan)
MIN_ROUNDS = 2
#: miners run through ``mine_groups``
MINERS = ("estpm", "astpm")


def start_spark(tmp: Path, src: Path):
    """Local SparkSession whose scratch files stay under ``tmp``; its Python
    workers import the program from ``src``."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            "--driver-memory 2g",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            # no hsperfdata files in /tmp; JVM temp files under tmp
            f"--driver-java-options {shlex.quote('-XX:-UsePerfData -Djava.io.tmpdir=' + str(tmp))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(2 * CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def descendants(pid: int) -> list[int]:
    """Process ids below ``pid``, read from /proc (empty where unreadable)."""
    out = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            kids = [int(k) for k in open(path).read().split()]
        except OSError:
            continue
        for k in kids:
            out += [k] + descendants(k)
    return out


def stop_spark(spark) -> None:
    """Stop the session, then wait for the JVM it started and for the
    Python workers the JVM started to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    workers = descendants(proc.pid) if proc is not None else []
    spark.stop()
    gateway.shutdown()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits on EOF
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    for pid in workers:  # they exit once the JVM's pipes close
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


#: the warm-up job: this many INF groups, cut to this share of their
#: granules; as many groups as Spark cores, so every Python worker starts
WARM_GROUPS = CORES
WARM_SHARE = 0.25


def warm_up(spark, params, m) -> float:
    """One job through every Spark path the round uses, on fixed INF-like
    data (seed 0, not the run's seed) big enough that the JVM compiles
    the hot paths and every Python worker starts. Returns the seconds
    spent generating its input, which ``setup_s`` leaves out."""
    from repro.datasets import CUT, gen_values_pdf, profile
    from repro.sparkio.mining import mine_groups
    from repro.sparkio.transform import extract_instances, symbolize_threshold

    t0 = time.perf_counter()
    pdf = gen_values_pdf(profile("inf", seed=0), n_groups=WARM_GROUPS)
    pdf = pdf[pdf["t"] < int(pdf["t"].max() * WARM_SHARE) // m * m]
    gen_s = time.perf_counter() - t0
    values_df = spark.createDataFrame(pdf)
    extract_instances(symbolize_threshold(values_df, [CUT], ["0", "1"]), m).count()
    for miner in MINERS:
        sym = symbolize_threshold(values_df, [CUT], ["0", "1"])
        mine_groups(sym, params, m, miner=miner, ignore_symbols=pure.IGNORE).toPandas()
    return gen_s


class ReplicaReference(pure.GridSweep):
    """The pure-Python miners on each replica group: the Spark reference."""

    n_projections = 1
    phase1_samples = 1  # its Phase 1 times feed only the traced run

    def __init__(self, seed, values_by_group, profile, params):
        self.groups, self.profile, self.params = values_by_group, profile, params
        super().__init__(seed)

    def make_datasets(self):
        return [
            pure.make_dataset(self.profile, values, [self.params], self.rng, 1, name=f"group{g}")
            for g, values in sorted(self.groups.items())
        ]


def spark_round(tr: Tracer, spark, pdf, params, m, with_nmi: bool):
    from repro.datasets import CUT
    from repro.sparkio.mi_spark import nmi_table
    from repro.sparkio.mining import mine_groups
    from repro.sparkio.transform import extract_instances, symbolize_threshold

    out = {}
    with tr.span("spark.load", tag="groups"):
        values_df = spark.createDataFrame(pdf)
    with tr.span("spark.phase1", tag="groups"):
        sym = symbolize_threshold(values_df, [CUT], ["0", "1"])
        out["instance_rows"] = extract_instances(sym, m).count()
    for miner in MINERS:
        with tr.span(f"spark.mine_groups.{miner}", tag="groups"):
            sym = symbolize_threshold(values_df, [CUT], ["0", "1"])
            out[miner] = mine_groups(
                sym, params, m, miner=miner, ignore_symbols=pure.IGNORE
            ).toPandas()
    if with_nmi:
        with tr.span("spark.nmi_table", tag="groups"):
            out["nmi"] = nmi_table(sym)
    return out


def e2e_spark(tracers: list[Tracer]) -> dict[str, float]:
    """Spark end-to-end times: each call at its fastest round."""
    return {
        "phase1_s": best_total(tracers, "spark.phase1"),
        "estpm_s": best_total(tracers, "spark.mine_groups.estpm"),
        "astpm_s": best_total(tracers, "spark.mine_groups.astpm"),
    }


def expected_rows(res) -> set[tuple]:
    """Rows a miner result should produce in ``mine_groups`` output."""
    rows = set()
    for ev, v in res.singles.items():
        rows.add(("single", ev, 1, len(v.sup), v.n_seasons, tuple(s[0] for s in v.seasons)))
    for p, v in res.patterns.items():
        k = len(ck.pattern_events(p))
        rows.add(("pattern", ck.render_pattern(p), k, len(v.sup), v.n_seasons,
                  tuple(s[0] for s in v.seasons)))
    return rows


def spark_rows(pdf, group: int) -> set[tuple]:
    import json

    sub = pdf[pdf["group"] == group]
    return {
        (r.kind, r.pattern, int(r.k), int(r.sup_size), int(r.n_seasons),
         tuple(json.loads(r.season_starts)))
        for r in sub.itertuples(index=False)
    }


def check_rows_direct(ref: ck.Reference, t: ck.Thresholds, rows: set[tuple], v: ck.Verdicts):
    """Each Spark row's support size, seasons and season starts, from the checker."""
    for kind, text, k, sup_size, n_seasons, starts in rows:
        if kind == "single":
            sup = ref.support(text) if text in ref.name else None
        else:
            sup = ref.pattern_support(ck.parse_pattern(text))
        if sup is None:
            v.fail(f"spark row {text}: unknown or malformed")
            continue
        got = (sup_size, n_seasons, list(starts))
        want = (len(sup), ck.season_count(sup, t), ck.season_starts(sup, t))
        v.require(got == want, f"spark row {text}: {got} reported, {want} actual")


def run(args, t_start: float, out_dir: Path, src: Path) -> dict:
    from repro.datasets import gen_values_pdf, profile
    from repro.experiments.tables import params_for

    p = profile("inf", seed=args.seed)
    params = params_for(p, max_period_pct=0.4, min_density_pct=0.75, min_season=8, max_k=3)
    spark = start_spark(out_dir / "spark-tmp", src)
    try:
        gen_s = warm_up(spark, params, p.m)
        setup = time.perf_counter() - t_start - gen_s

        pdf = gen_values_pdf(p, n_groups=N_GROUPS)
        rounds, tracers = [], []
        t0 = time.perf_counter()
        while True:
            tr = Tracer()
            rounds.append(spark_round(tr, spark, pdf, params, p.m, bool(args.trace) and not rounds))
            tracers.append(tr)
            print(f"round {len(rounds)}: " + ", ".join(
                f"{s['name']} {s['end'] - s['start']:.3f}s" for s in tr.spans), file=sys.stderr)
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - t0 >= args.seconds:
                break
        peak = peak_rss_mb()
    finally:
        stop_spark(spark)

    by_group = {int(g): pure.series_values(sub) for g, sub in pdf.groupby("group")}
    reference = ReplicaReference(args.seed, by_group, p, params)
    ref_rounds, ref_tracers = [], []
    for _ in range(reference.min_rounds):
        ref_tracers.append(Tracer())
        ref_rounds.append(reference.run_round(ref_tracers[-1], traced=False)[0])
        pure.keep_results = False  # the first reference round is the one checked
    pure.keep_results = True
    rtr, ref_jobs = ref_tracers[0], ref_rounds[0]
    correct, attempted, failed = check_rounds(rounds, reference, ref_rounds, by_group, params, p.m)

    if not args.trace:
        values = e2e_spark(tracers)
        values.update(aps_s=pure.e2e_pure(ref_tracers)["aps_s"], setup_s=setup, peak_rss_mb=peak)
        metrics = metric_block(values, E2E_UNITS)
    else:
        # Spark's Python workers run the miners outside this process, where
        # no wrapper reaches: the core layers are traced on the pure-Python
        # reference run over the same groups, and so is the overhead
        ttr = Tracer()
        with pure.trace_patches(ttr):
            tjobs, tdseqs = reference.run_round(ttr, traced=True)
        layers = pure.core_layer_metrics(ttr, tjobs, tdseqs)
        add_overhead(layers, pure.e2e_pure([rtr]), pure.e2e_pure([ttr]))
        tr, first = tracers[0], rounds[0]
        layers.update(
            {
                "spark.load_s": tr.total("spark.load"),
                "spark.phase1_s": tr.total("spark.phase1"),
                "spark.instance_rows": first["instance_rows"],
                "spark.nmi_table_s": tr.total("spark.nmi_table"),
                "spark.rows_to_python": len(pdf) * len(MINERS),
                "spark.result_rows": sum(len(first[m]) for m in MINERS),
            }
        )
        for miner in MINERS:
            layers[f"spark.mine_groups.{miner}_s"] = tr.total(f"spark.mine_groups.{miner}")
        fill_absent(layers)
        tr.dump(str(out_dir / f"trace-spark-replicas-seed{args.seed}.json"), layers)
        ttr.dump(str(out_dir / f"trace-spark-replicas-reference-seed{args.seed}.json"), layers)
        metrics = metric_block(layers, layer_units())
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def check_rounds(rounds, reference, ref_rounds, by_group, params, m):
    """Run-level checks (-> correct) and operations: each Spark miner on
    each group per Spark round, and each reference APS-growth job."""
    ref_jobs = ref_rounds[0]
    verdicts = reference.check(ref_jobs)
    t = pure.thresholds(params)
    groups = sorted(by_group)
    own = {g: pure.own_symbols(by_group[g]) for g in groups}
    refs = {g: ck.Reference(own[g], m, ignore=pure.IGNORE) for g in groups}
    n_runs = sum(ck.Reference(own[g], m).n_runs for g in groups)
    by_label = {(j.miner, j.label): (i, j) for i, j in enumerate(ref_jobs)}
    correct = True
    attempted = failed = 0
    for r, out in enumerate(rounds):
        if out["instance_rows"] != n_runs:
            print(f"instance rows: Spark {out['instance_rows']}, checker {n_runs}", file=sys.stderr)
            correct = False
        if "nmi" in out:
            correct &= nmi_table_ok(out["nmi"], own)
        for g in groups:
            for miner in MINERS:
                attempted += 1
                i, job = by_label[(miner, f"group{g}/cell0")]
                v = ck.Verdicts(f"spark {miner} group{g}")
                if not verdicts[i].ok:
                    v.fail("pure-Python reference failed its checks")
                    v.errors += verdicts[i].errors
                else:
                    got = spark_rows(out[miner], g)
                    want = expected_rows(job.mining())
                    v.require(got == want, f"rows differ from pure-Python: "
                              f"{len(got - want)} extra, {len(want - got)} missing")
                    check_rows_direct(refs[g], t, got, v)
                if not v.ok:
                    failed += 1
                    report_failures([v])
    for jobs in ref_rounds:
        for i, job in enumerate(jobs):
            if job.miner == "aps":
                attempted += 1
                failed += not verdicts[i].ok or job.digest != ref_jobs[i].digest
    report_failures(v for i, v in verdicts.items() if ref_jobs[i].miner == "aps")
    return correct, attempted, failed


def nmi_table_ok(nmi_pdf, own) -> bool:
    """Every pair of every group, min-NMI within 1e-9 of the checker's."""
    ok = True
    for r in nmi_pdf.itertuples(index=False):
        sym = own[int(r.group)]
        want = ck.min_nmi(sym[r.sx], sym[r.sy])
        if abs(want - r.min_nmi) > 1e-9:
            print(f"nmi_table group {r.group} {r.sx},{r.sy}: {r.min_nmi} vs {want}", file=sys.stderr)
            ok = False
    n_pairs = sum(len(v) * (len(v) - 1) // 2 for v in own.values())
    if len(nmi_pdf) != n_pairs:
        print(f"nmi_table: {len(nmi_pdf)} pairs, expected {n_pairs}", file=sys.stderr)
        ok = False
    return ok
