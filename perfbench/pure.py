"""Pure-Python workloads (``wide-k3``, ``grid-sweep``) and the miner jobs
they share with the reference runs of ``spark-replicas``.

An operation is one miner job: one miner, on one dataset, with one
parameter set. Each job runs inside a span named ``<miner>.job``; the
end-to-end times are sums of those spans over the run's rounds, where
repeats of the same job count once, at their fastest (``e2e_pure``).
"""
from __future__ import annotations

import gc
import random
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

import checker as ck
import repro.baseline.aps as aps_mod
import repro.core.astpm as astpm_mod
import repro.core.estpm as estpm_mod
from repro.baseline.aps import mine_aps
from repro.core.astpm import mine_approx
from repro.core.estpm import mine
from repro.core.mi import pair_min_nmis
from repro.core.sequences import build_dseq
from repro.core.symbolize import threshold_symbols
from repro.datasets import CUT, gen_values_pdf, profile, scaled_profile
from repro.experiments.tables import (
    MAX_PERIOD_GRID,
    MIN_DENSITY_GRID,
    MIN_SEASON_GRID,
    params_for,
)
from tracing import Tracer, best_total, patched

#: the background "off" symbol is dropped from D_SEQ, as in the paper's
#: scalability experiments
IGNORE = frozenset({"0"})
#: make-up of a projection subset: this many near-copies (driver, copy,
#: jittered copy) of each seasonal family, the rest drawn from the other
#: series, 14 series in all; a fixed make-up keeps the work on a
#: projection alike from seed to seed
PROJECTION_SIZE = 14
COPIES_PER_FAMILY = 3
#: reported patterns per job whose support the checker recomputes; jobs
#: with fewer are checked in full
SOUND_SAMPLE = 5000
#: series pairs per dataset whose min-NMI the checker recomputes
NMI_SAMPLE = 40

# --------------------------------------------------------------- inputs


def series_values(pdf) -> dict[str, list[float]]:
    """Long-format ``(group, series, t, value)`` -> values per series in t order."""
    pdf = pdf.sort_values(["series", "t"])
    return {str(s): sub["value"].tolist() for s, sub in pdf.groupby("series", sort=True)}


def own_symbols(values: dict[str, list[float]]) -> dict[str, np.ndarray]:
    """The checker's own thresholding: ON ("1") iff value >= CUT."""
    return {s: np.where(np.asarray(v) >= CUT, "1", "0") for s, v in values.items()}


def thresholds(params) -> ck.Thresholds:
    return ck.Thresholds(
        params.max_period, params.min_density, params.dist_min, params.dist_max,
        params.min_season, params.epsilon, params.d_o, params.max_k,
    )


@dataclass
class Dataset:
    name: str
    m: int
    values: dict[str, list[float]]
    cells: list  # STPMParams per threshold cell
    projections: list[list[str]] = field(default_factory=list)


def projection(specs, rng: random.Random) -> list[str]:
    """A seeded series subset of fixed make-up (see ``COPIES_PER_FAMILY``)."""
    strata: dict[str, list[str]] = {}
    for s in specs:
        key = s.family if s.kind in ("driver", "copy", "jcopy") else ""
        strata.setdefault(key, []).append(s.name)
    out = []
    for key in sorted(k for k in strata if k):
        out += rng.sample(strata[key], min(COPIES_PER_FAMILY, len(strata[key])))
    rest = sorted(set(s.name for s in specs) - set(out))
    out += rng.sample(rest, min(len(rest), PROJECTION_SIZE - len(out)))
    return sorted(out)


def make_dataset(p, values, cells, rng: random.Random, n_projections: int, name=None) -> Dataset:
    projections = [projection(p.series, rng) for _ in range(n_projections)]
    return Dataset(name or p.name, p.m, values, cells, projections)


# ----------------------------------------------------------------- jobs


@dataclass
class Job:
    miner: str  # estpm | astpm | aps
    label: str
    result: object = None  # MiningResult, or ApproxResult for astpm
    error: str | None = None
    digest: int | None = None  # hash of the frequent sets, to compare rounds

    def mining(self):
        return self.result.mining if self.miner == "astpm" else self.result


#: whether a job keeps its result; the rounds after a run's first keep
#: only each result's digest, so that repeats add nothing to peak memory
keep_results = True


def digest(res) -> int:
    """Hash of a result's singles and patterns with their supports."""
    return hash((
        tuple(sorted((e, v.sup) for e, v in res.singles.items())),
        tuple(sorted((p, v.sup) for p, v in res.patterns.items())),
    ))


def settle() -> None:
    """Collect garbage and freeze what survives, so that a timed block
    neither pays for earlier blocks' garbage nor rescans their results."""
    gc.collect()
    gc.freeze()


def run_job(tr: Tracer, miner: str, label: str, fn) -> Job:
    job = Job(miner, label)
    settle()
    with tr.span(f"{miner}.job", tag=label):
        try:
            job.result = fn()
            # keep what a user keeps, the frequent sets; dropping the HLH
            # state stops one job's search structures from inflating the
            # memory and garbage-collection work of the jobs after it
            job.mining().hlh1, job.mining().hlhk = None, {}
        except Exception:  # a failed job is counted, the run goes on
            job.error = traceback.format_exc()
            print(f"{miner} {label} raised:\n{job.error}", file=sys.stderr)
    if job.error is None:
        job.digest = digest(job.mining())
        if not keep_results:
            job.result = None
    return job


def phase1(tr: Tracer, ds: "Dataset"):
    """Raw values -> symbols -> D_SEQ, timed under the dataset's tag."""
    settle()
    with tr.span("phase1", tag=ds.name):
        with tr.span("symbolize"):
            symbols = {s: threshold_symbols(v, [CUT]) for s, v in ds.values.items()}
        with tr.span("sequences.build"):
            dseq = build_dseq(symbols, ds.m, ignore_symbols=IGNORE)
    return symbols, dseq


def estpm_job(tr: Tracer, traced: bool, label: str, dseq, params) -> Job:
    if traced:
        # k=2 and k>=3 have no entry point of their own: time runs capped
        # at max_k = 1, 2 and difference them (README, "Layer times")
        with tr.span("estpm.capped"):
            for k in range(1, params.max_k):
                settle()
                with tr.span(f"estpm.k{k}"):
                    mine(dseq, params.with_(max_k=k))
    return run_job(tr, "estpm", label, lambda: mine(dseq, params))


def trace_patches(tr: Tracer):
    """Wrappers over program functions, installed only for a traced round."""
    return patched(
        [
            (estpm_mod, "evaluate_seasonality",
             tr.wrap("seasonal.check", estpm_mod.evaluate_seasonality, as_span=False)),
            (astpm_mod, "screen_correlated",
             tr.wrap("astpm.screen", astpm_mod.screen_correlated, as_span=True)),
            (astpm_mod, "mine", tr.wrap("astpm.mine", astpm_mod.mine, as_span=True)),
            (aps_mod, "ps_growth", tr.wrap("aps.psgrowth", aps_mod.ps_growth, as_span=True)),
        ]
    )


# ---------------------------------------------------------------- metrics


def e2e_pure(tracers: list[Tracer]) -> dict[str, float]:
    """End-to-end times from the spans of one or more rounds: every job
    (and every dataset's Phase 1 and NMI matrix) at its fastest repeat."""
    return {
        "phase1_s": best_total(tracers, "phase1"),
        "estpm_s": best_total(tracers, "estpm.job"),
        "astpm_s": best_total(tracers, "astpm.job") + best_total(tracers, "mi.matrix"),
        "aps_s": best_total(tracers, "aps.job"),
    }


def core_layer_metrics(tr: Tracer, jobs: list[Job], dseqs) -> dict[str, float]:
    """Per-layer metrics of the pure-Python core from one traced round."""
    t1, t2, t3 = tr.total("estpm.k1"), tr.total("estpm.k2"), tr.total("estpm.job")
    c1 = tr.summed("seasonal.check", "estpm.k1")
    c2 = tr.summed("seasonal.check", "estpm.k2")
    c3 = tr.summed("seasonal.check", "estpm.job")
    out = {
        "symbolize.s": tr.total("symbolize"),
        "sequences.build_s": tr.total("sequences.build"),
        "sequences.instances": sum(d.n_instances() for d in dseqs),
        "estpm.hlh1_s": t1,
        "estpm.k2_s": (t2 - c2) - (t1 - c1),
        "estpm.k3_s": (t3 - c3) - (t2 - c2),
        "estpm.check_s": c3 - c1,
        "mi.matrix_s": tr.total("mi.matrix"),
        "astpm.screen_s": tr.total("astpm.screen"),
        "astpm.restricted_mine_s": tr.total("astpm.mine"),
        "aps.psgrowth_s": tr.total("aps.psgrowth"),
        "aps.relations_s": tr.total("aps.job") - tr.total("aps.psgrowth"),
    }
    stat_names = {
        "estpm.events": "n_events_total",
        "estpm.candidate_events": "n_candidate_events",
        "estpm.pairs_considered": "n_pairs_considered",
        "estpm.groups_k2": "n_candidate_groups_k2",
        "estpm.groups_k3": "n_candidate_groups_k3",
        "estpm.candidate_patterns": "n_candidate_patterns",
        "estpm.frequent_patterns": "n_frequent_patterns",
        "estpm.frequent_singles": "n_frequent_singles",
    }
    for name in stat_names:
        out[name] = 0
    out.update({"astpm.pairs_correlated": 0, "astpm.series_pruned": 0, "aps.recurring_itemsets": 0})
    exact, found = 0, 0
    by_label = {(j.miner, j.label): j for j in jobs if j.result is not None}
    for job in by_label.values():
        if job.miner == "estpm":
            for name, key in stat_names.items():
                out[name] += job.result.stats.get(key, 0)
            approx = by_label.get(("astpm", job.label))
            if approx is not None:
                exact += len(job.result.patterns)
                found += len(set(job.result.patterns) & set(approx.result.mining.patterns))
        elif job.miner == "astpm":
            out["astpm.pairs_correlated"] += len(job.result.screening.correlated_pairs)
            out["astpm.series_pruned"] += len(job.result.screening.pruned_series)
        else:
            out["aps.recurring_itemsets"] += job.result.stats["n_recurring_itemsets"]
    out["estpm.yield"] = out["estpm.frequent_patterns"] / max(1, out["estpm.candidate_patterns"])
    out["astpm.accuracy_pct"] = 100.0 * found / exact if exact else 100.0
    return out


# ----------------------------------------------------------------- checks


def as_checked(res):
    """A MiningResult as checker inputs: support sets and season counts."""
    singles = {e: v.sup for e, v in res.singles.items()}
    patterns = {p: v.sup for p, v in res.patterns.items()}
    seasons = {e: v.n_seasons for e, v in res.singles.items()}
    seasons.update({p: v.n_seasons for p, v in res.patterns.items()})
    return singles, patterns, seasons


def check_sound_sampled(ref, t, res, v: ck.Verdicts, rng: random.Random) -> None:
    singles, patterns, seasons = as_checked(res)
    if len(patterns) > SOUND_SAMPLE:
        keys = sorted(patterns)
        patterns = {p: patterns[p] for p in rng.sample(keys, SOUND_SAMPLE)}
    ck.check_sound(ref, t, singles, patterns, v, seasons=seasons)


def check_same(a, b, what: str, v: ck.Verdicts) -> None:
    """Two miners report the same singles and patterns with the same supports."""
    for name, x, y in (("single", a.singles, b.singles), ("pattern", a.patterns, b.patterns)):
        only = sorted(set(x) ^ set(y))
        v.require(not only, f"{what}: {len(only)} {name}s reported by one miner only, e.g. {only[:2]}")
        for key in set(x) & set(y):
            if tuple(x[key].sup) != tuple(y[key].sup):
                v.fail(f"{what}: {name} {key} support differs")
                break


def check_subset(approx, exact, v: ck.Verdicts) -> None:
    """A-STPM reports a subset of E-STPM, with the same supports."""
    for name, x, y in (("single", approx.singles, exact.singles),
                       ("pattern", approx.patterns, exact.patterns)):
        extra = set(x) - set(y)
        v.require(not extra, f"A-STPM {name}s not in E-STPM: {sorted(extra)[:3]}")
        for key in set(x) & set(y):
            if tuple(x[key].sup) != tuple(y[key].sup):
                v.fail(f"A-STPM {name} {key}: support differs from E-STPM")
                break


def check_screening(approx, v: ck.Verdicts) -> None:
    """The MI screen keeps exactly the pairs with min-NMI >= mu, and A-STPM
    mines only events and event pairs of kept / correlated series."""
    rep = approx.screening
    for pair, (score, mu) in rep.pair_scores.items():
        v.require((pair in rep.correlated_pairs) == (score >= mu),
                  f"screen: pair {sorted(pair)} min-NMI {score} vs mu {mu}")
    for ev in approx.mining.singles:
        v.require(ev.split(":", 1)[0] in rep.kept_series, f"screen: single {ev} of a pruned series")
    for pattern in approx.mining.patterns:
        for _, a, b in pattern:
            sa, sb = a.split(":", 1)[0], b.split(":", 1)[0]
            if sa != sb and frozenset((sa, sb)) not in rep.correlated_pairs:
                v.fail(f"screen: pattern {ck.render_pattern(pattern)} joins uncorrelated series")
                break


def check_nmis(symbols, nmis, rng: random.Random, v: ck.Verdicts) -> None:
    """min-NMI of sampled series pairs recomputed from Eq. 5, within 1e-9."""
    pairs = sorted(tuple(sorted(k)) for k in nmis)
    for a, b in rng.sample(pairs, min(NMI_SAMPLE, len(pairs))):
        mine_ = ck.min_nmi(symbols[a], symbols[b])
        got = nmis[frozenset((a, b))]
        v.require(abs(mine_ - got) <= 1e-9, f"NMI {a},{b}: reported {got}, recomputed {mine_}")


def check_aps_funnel(res, v: ck.Verdicts) -> None:
    """Every frequent single or pattern comes from a recurring event set."""
    sets = {(e,) for e in res.singles} | {ck.pattern_events(p) for p in res.patterns}
    v.require(len(sets) <= res.stats["n_recurring_itemsets"],
              "funnel: more frequent event sets than recurring itemsets")


# -------------------------------------------------------------- workloads


class PureWorkload:
    """Datasets, one round of jobs, and the checks of a pure-Python workload."""

    n_projections = 2
    #: rounds a run makes at the least, however short ``--seconds``
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.datasets = self.make_datasets()

    def make_datasets(self) -> list[Dataset]:
        raise NotImplementedError

    def run_round(self, tr: Tracer, traced: bool) -> tuple[list[Job], list]:
        raise NotImplementedError

    def check(self, jobs: list[Job]) -> dict[int, ck.Verdicts]:
        raise NotImplementedError


class WideK3(PureWorkload):
    """E-STPM and A-STPM once each on 150 INF-like series, max_k = 3;
    APS-growth on four 14-series projections of the same data."""

    n_series = 150
    n_aps_subsets = 4
    #: passes over the APS-growth projections at each of the round's five
    #: points; a projection job (~0.08 s) counts at its fastest of 30
    aps_repeats = 6

    def make_datasets(self):
        p = scaled_profile("inf", self.n_series, seed=self.seed)
        cell = params_for(p, max_period_pct=0.4, min_density_pct=0.75, min_season=8, max_k=3)
        values = series_values(gen_values_pdf(p, n_groups=1))
        # APS-growth's subsets have the same members on every seed (only
        # their data follows it): with seeded members its time varied by
        # half between seeds
        self.aps_subsets = [
            projection(p.series, random.Random(f"wide-k3/aps{i}"))
            for i in range(self.n_aps_subsets)
        ]
        return [make_dataset(p, values, [cell], self.rng, self.n_projections)]

    def run_round(self, tr, traced):
        # On a shared 4-core host the CPU speed changes from one slice of
        # tens of milliseconds to the next, so the sub-second parts are
        # timed at five points spread through the round and count at their
        # fastest: Phase 1 and the APS-growth projection jobs
        ds = self.datasets[0]
        params = ds.cells[0]
        symbols, dseq = phase1(tr, ds)
        settle()
        with tr.span("mi.matrix", tag=ds.name):
            nmis = pair_min_nmis(symbols)
        subsets = [
            build_dseq({s: symbols[s] for s in sub}, ds.m, ignore_symbols=IGNORE)
            for sub in self.aps_subsets
        ]

        def aps_pass():
            return [run_job(tr, "aps", f"{ds.name}/proj{i}", lambda: mine_aps(sub, params))
                    for _ in range(self.aps_repeats)
                    for i, sub in enumerate(subsets)]

        jobs = aps_pass()
        jobs.append(run_job(tr, "astpm", ds.name,
                            lambda: mine_approx(symbols, dseq, params, pair_nmis=nmis)))
        phase1(tr, ds)
        jobs += aps_pass() + [estpm_job(tr, traced, ds.name, dseq, params)]
        for _ in range(3):
            phase1(tr, ds)
            jobs += aps_pass()
        self.symbols, self.nmis = symbols, nmis
        return jobs, [dseq]

    def check(self, jobs):
        ds = self.datasets[0]
        t = thresholds(ds.cells[0])
        ref = ck.Reference(own_symbols(ds.values), ds.m, ignore=IGNORE)
        rng = random.Random(self.seed)
        out: dict[int, ck.Verdicts] = {}
        e_job = next(j for j in jobs if j.miner == "estpm")
        exact = e_job.result if e_job.error is None else None
        first_aps: dict[str, int] = {}
        for idx, job in enumerate(jobs):
            v = out[idx] = ck.Verdicts(f"{job.miner} {job.label}")
            if job.error is not None:
                v.fail("raised")
                continue
            res = job.mining()
            if job.miner == "estpm":
                check_sound_sampled(ref, t, res, v, rng)
                for sub in ds.projections + self.aps_subsets:
                    ck.check_projection(ref, t, sub, res.singles, res.patterns, v)
                ck.check_funnel(res.stats, len(ref.events), v)
            elif job.miner == "astpm":
                check_sound_sampled(ref, t, res, v, rng)
                if exact is not None:
                    check_subset(res, exact, v)
                check_screening(job.result, v)
                check_nmis(self.symbols, self.nmis, rng, v)
                ck.check_funnel(res.stats, len(ref.events), v)
            elif job.label in first_aps:  # a repeat: same output as the first
                i = first_aps[job.label]
                v.errors += out[i].errors
                v.n_failed += out[i].n_failed
                v.require(job.digest == jobs[i].digest, "output differs from the first repeat")
            else:
                first_aps[job.label] = idx
                sub = self.aps_subsets[int(job.label.rsplit("proj", 1)[1])]
                singles, patterns, seasons = as_checked(res)
                ck.check_sound(ref, t, singles, patterns, v, seasons=seasons)
                ck.check_projection(ref, t, sub, res.singles, res.patterns, v)
                check_aps_funnel(res, v)
        return out


class GridSweep(PureWorkload):
    """The four base profiles, each on the paper's 27-cell threshold grid,
    with all three miners; D_SEQ and the NMI matrix built once per dataset."""

    profiles = ("re", "sc", "inf", "hfm")
    #: every job's time is its fastest of this many rounds at the least
    min_rounds = 2
    #: Phase 1 of every dataset is timed this often per round: once first,
    #: then after each dataset's block of jobs (the fastest counts)
    phase1_samples = 5

    def make_datasets(self):
        out = []
        for name in self.profiles:
            p = profile(name, seed=self.seed)
            cells = [
                params_for(p, max_period_pct=mp, min_density_pct=md, min_season=ms, max_k=3)
                for mp in MAX_PERIOD_GRID
                for md in MIN_DENSITY_GRID
                for ms in MIN_SEASON_GRID[name]
            ]
            values = series_values(gen_values_pdf(p, n_groups=1))
            out.append(make_dataset(p, values, cells, self.rng, self.n_projections))
        return out

    def run_round(self, tr, traced):
        jobs = []
        self.symbols, self.nmis = {}, {}
        phased = [phase1(tr, ds) for ds in self.datasets]
        for n_block, (ds, (symbols, dseq)) in enumerate(zip(self.datasets, phased)):
            settle()
            with tr.span("mi.matrix", tag=ds.name):
                nmis = pair_min_nmis(symbols)
            self.symbols[ds.name], self.nmis[ds.name] = symbols, nmis
            for c, params in enumerate(ds.cells):
                label = f"{ds.name}/cell{c}"
                jobs.append(estpm_job(tr, traced, label, dseq, params))
                jobs.append(run_job(tr, "astpm", label,
                                    lambda: mine_approx(symbols, dseq, params, pair_nmis=nmis)))
                jobs.append(run_job(tr, "aps", label, lambda: mine_aps(dseq, params)))
            if n_block < self.phase1_samples - 1:  # Phase 1 again, later on
                for other in self.datasets:
                    phase1(tr, other)
        return jobs, [dseq for _, dseq in phased]

    def check(self, jobs):
        out: dict[int, ck.Verdicts] = {}
        by_label = {(j.miner, j.label): j for j in jobs}
        index = {id(j): i for i, j in enumerate(jobs)}
        rng = random.Random(self.seed)
        for ds in self.datasets:
            ref = ck.Reference(own_symbols(ds.values), ds.m, ignore=IGNORE)
            floor = min(c.min_season * c.min_density for c in ds.cells)
            tables = []
            for sub in ds.projections:
                keep = [e for s in sub for e in ref.series.get(s, [])]
                tables.append(ref.enumerate_patterns(keep, 3, floor))
            nmi_v = ck.Verdicts("nmi")
            check_nmis(self.symbols[ds.name], self.nmis[ds.name], rng, nmi_v)
            for c, params in enumerate(ds.cells):
                t = thresholds(params)
                label = f"{ds.name}/cell{c}"
                e, a, b = (by_label[(m, label)] for m in ("estpm", "astpm", "aps"))
                ve, va, vb = (ck.Verdicts(f"{m} {label}") for m in ("estpm", "astpm", "aps"))
                for job, v in ((e, ve), (a, va), (b, vb)):
                    out[index[id(job)]] = v
                    if job.error is not None:
                        v.fail("raised")
                if e.error is None:
                    singles, patterns, seasons = as_checked(e.result)
                    ck.check_sound(ref, t, singles, patterns, ve, seasons=seasons)
                    for sub, table in zip(ds.projections, tables):
                        ck.check_projection(ref, t, sub, e.result.singles, e.result.patterns,
                                            ve, table=table)
                    ck.check_funnel(e.result.stats, len(ref.events), ve)
                if b.error is None:
                    if e.error is None:
                        check_same(e.result, b.result, "APS-growth vs E-STPM", vb)
                    check_aps_funnel(b.result, vb)
                if a.error is None:
                    if e.error is None:
                        check_subset(a.result.mining, e.result, va)
                    check_screening(a.result, va)
                    ck.check_funnel(a.result.mining.stats, len(ref.events), va)
                    va.errors += nmi_v.errors
        return out
