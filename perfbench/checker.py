"""Independent checker for seasonal temporal pattern output.

Nothing here imports ``repro``: the checker re-derives every fact it
checks from the fine-granularity symbol arrays with its own code, so a
fault in the miners' shared helpers cannot hide itself.

Its own parts:

* a per-granule run-length encoder over the symbol arrays
  (:class:`Reference`), which picks the representative instance of each
  event in each coarse granule (the earliest run of that symbol);
* a Table III classifier (:meth:`Reference.pair_codes`) that orders two
  instances canonically by ``(start, -end, series, symbol)``;
* a season count (:func:`season_count`, Defs. 3.16-3.17): near support
  sets split where the gap exceeds maxPeriod, seasons are the sets with
  at least minDensity granules, and the count is the longest chain of
  consecutive seasons whose distances lie in distInterval.

A pattern is a sorted tuple of ``(relation, first_event, second_event)``
triples, one per event pair, as the miners report it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

FOLLOWS, CONTAINS, OVERLAPS = "->", ">=", "~"
#: relation index -> rendered relation; index 0 means "no relation"
_RELS = (None, CONTAINS, FOLLOWS, OVERLAPS)
_REL_INDEX = {r: i for i, r in enumerate(_RELS) if r is not None}


@dataclass(frozen=True)
class Thresholds:
    """The FreqSTPfTS thresholds in absolute granule counts."""

    max_period: int
    min_density: int
    dist_min: int
    dist_max: int
    min_season: int
    epsilon: int = 0
    d_o: int = 1
    max_k: int = 3


def seasons(sup: np.ndarray, t: Thresholds) -> tuple[np.ndarray, np.ndarray]:
    """First and last granule of every season of a sorted support array:
    its near support sets (split where the gap exceeds maxPeriod) with at
    least minDensity granules (Def. 3.16)."""
    cut = np.flatnonzero(np.diff(sup) > t.max_period) + 1
    firsts = np.concatenate(([0], cut)).astype(np.int64)
    lasts = np.concatenate((cut, [len(sup)])).astype(np.int64) - 1
    dense = (lasts - firsts + 1) >= t.min_density
    return sup[firsts[dense]], sup[lasts[dense]]


def season_count(sup: np.ndarray, t: Thresholds) -> int:
    """Longest chain of seasons whose distances lie in distInterval (Def. 3.17)."""
    if len(sup) == 0:
        return 0
    first_pos, last_pos = seasons(sup, t)
    if len(first_pos) == 0:
        return 0
    gaps = first_pos[1:] - last_pos[:-1]
    best = run = 1
    for ok in (gaps >= t.dist_min) & (gaps <= t.dist_max):
        run = run + 1 if ok else 1
        best = max(best, run)
    return best


def season_starts(sup: np.ndarray, t: Thresholds) -> list[int]:
    """First granule of every season of ``sup``."""
    return [int(x) for x in seasons(sup, t)[0]] if len(sup) else []


def pattern_events(pattern: Iterable[tuple[str, str, str]]) -> tuple[str, ...]:
    return tuple(sorted({e for _, a, b in pattern for e in (a, b)}))


def parse_pattern(text: str) -> tuple[tuple[str, str, str], ...]:
    """``"a:1 >= b:1 ; a:1 -> c:1"`` -> sorted triples ``(rel, first, second)``."""
    triples = []
    for part in text.split(" ; "):
        first, rel, second = part.split(" ")
        triples.append((rel, first, second))
    return tuple(sorted(triples))


def render_pattern(pattern: Iterable[tuple[str, str, str]]) -> str:
    return " ; ".join(f"{a} {r} {b}" for r, a, b in pattern)


class Reference:
    """The checker's own model of a temporal sequence database.

    ``symbolic`` maps series name -> fine symbol sequence; coarse granule
    ``h`` covers fine positions ``[h*m, (h+1)*m - 1]``. Runs of symbols in
    ``ignore`` count in :attr:`n_runs` but form no event.
    """

    def __init__(
        self,
        symbolic: Mapping[str, Sequence[str]],
        m: int,
        *,
        ignore: frozenset[str] = frozenset(),
        epsilon: int = 0,
        d_o: int = 1,
    ):
        self.m = m
        self.epsilon, self.d_o = epsilon, d_o
        n_fine = max((len(s) for s in symbolic.values()), default=0)
        self.n_granules = -(-n_fine // m)
        self.n_runs = 0
        #: event key -> (series, symbol), the canonical tie-break key
        self.name: dict[str, tuple[str, str]] = {}
        self.start: dict[str, np.ndarray] = {}
        self.end: dict[str, np.ndarray] = {}
        self.series: dict[str, list[str]] = {}
        for series, seq in symbolic.items():
            arr = np.asarray(seq)
            n = len(arr)
            if n == 0:
                continue
            brk = np.ones(n, dtype=bool)
            brk[1:] = (arr[1:] != arr[:-1]) | (np.arange(1, n) % m == 0)
            starts = np.flatnonzero(brk)
            ends = np.append(starts[1:] - 1, n - 1)
            self.n_runs += len(starts)
            syms = arr[starts]
            for sym in np.unique(syms):
                sym = str(sym)
                if sym in ignore:
                    continue
                sel = syms == sym
                granules = starts[sel] // m
                # runs are in time order, so the first per granule is the
                # canonically first instance of the event there
                g, first = np.unique(granules, return_index=True)
                key = f"{series}:{sym}"
                st = np.full(self.n_granules, -1, dtype=np.int64)
                en = np.full(self.n_granules, -1, dtype=np.int64)
                st[g] = starts[sel][first]
                en[g] = ends[sel][first]
                self.name[key] = (series, sym)
                self.start[key], self.end[key] = st, en
                self.series.setdefault(series, []).append(key)
        self.events = sorted(self.name)
        self._codes: dict[tuple[str, str], np.ndarray] = {}

    # ------------------------------------------------------------ relations
    def support(self, event: str) -> np.ndarray:
        return np.flatnonzero(self.start[event] >= 0)

    def pair_codes(self, x: str, y: str) -> np.ndarray:
        """Per-granule relation of events ``x < y``, as an int code.

        ``code = 2 * relation_index + (1 if y is canonically first)``;
        0 where either event is absent or no Table III relation holds.
        """
        key = (x, y)
        codes = self._codes.get(key)
        if codes is not None:
            return codes
        sx, ex, sy, ey = self.start[x], self.end[x], self.start[y], self.end[y]
        present = (sx >= 0) & (sy >= 0)
        x_first = (sx < sy) | (
            (sx == sy) & ((ex > ey) | ((ex == ey) & (self.name[x] <= self.name[y])))
        )
        a_s, a_e = np.where(x_first, sx, sy), np.where(x_first, ex, ey)
        b_s, b_e = np.where(x_first, sy, sx), np.where(x_first, ey, ex)
        eps = self.epsilon
        contains = (a_s <= b_s) & (b_e <= a_e + eps)
        follows = b_s >= a_e + 1 - eps
        overlaps = (a_s < b_s) & (a_e < b_e) & ((a_e - b_s + 1) >= self.d_o - eps)
        rel = np.where(contains, 1, np.where(follows, 2, np.where(overlaps, 3, 0)))
        codes = np.where(present & (rel > 0), 2 * rel + (~x_first), 0)
        self._codes[key] = codes
        return codes

    def _triple(self, x: str, y: str, code: int) -> tuple[str, str, str]:
        rel = _RELS[code // 2]
        return (rel, y, x) if code % 2 else (rel, x, y)

    def pattern_support(self, pattern: Sequence[tuple[str, str, str]]) -> np.ndarray | None:
        """Granules where ``pattern`` occurs; None if it is malformed.

        A well-formed k-event pattern names every pair of its k events
        exactly once, with known relations and events.
        """
        events = pattern_events(pattern)
        pairs = {tuple(sorted((a, b))) for _, a, b in pattern}
        k = len(events)
        if (
            k < 2
            or len(pattern) != k * (k - 1) // 2
            or len(pairs) != len(pattern)
            or any(e not in self.name for e in events)
        ):
            return None
        mask = np.ones(self.n_granules, dtype=bool)
        for rel, first, second in pattern:
            if rel not in _REL_INDEX or first == second:
                return None
            x, y = sorted((first, second))
            want = 2 * _REL_INDEX[rel] + (0 if first == x else 1)
            mask &= self.pair_codes(x, y) == want
        return np.flatnonzero(mask)

    # ---------------------------------------------------------- enumeration
    def enumerate_patterns(
        self, events: Iterable[str], max_k: int, min_sup: int = 1
    ) -> dict[tuple, np.ndarray]:
        """Every k-event pattern (2 <= k <= max_k) over ``events``.

        Returns pattern -> support array for patterns occurring in at
        least ``min_sup`` granules. Exhaustive over event groups; the only
        shortcut is skipping groups whose shared granules are fewer than
        ``min_sup``, which cannot hold such a pattern.
        """
        events = sorted(events)
        out: dict[tuple, np.ndarray] = {}
        for k in range(2, max_k + 1):
            for group in combinations(events, k):
                pairs = list(combinations(group, 2))
                codes = np.stack([self.pair_codes(x, y) for x, y in pairs])
                ok = (codes > 0).all(axis=0)
                if ok.sum() < min_sup:
                    continue
                granules = np.flatnonzero(ok)
                keys = np.zeros(len(granules), dtype=np.int64)
                for row in codes[:, granules]:
                    keys = keys * 8 + row
                for key in np.unique(keys):
                    sup = granules[keys == key]
                    if len(sup) < min_sup:
                        continue
                    triples = []
                    for (x, y), c in zip(reversed(pairs), _digits(int(key), len(pairs))):
                        triples.append(self._triple(x, y, c))
                    out[tuple(sorted(triples))] = sup
        return out


def _digits(key: int, n: int) -> list[int]:
    """Base-8 digits of ``key``, least significant first (n of them)."""
    out = []
    for _ in range(n):
        out.append(key % 8)
        key //= 8
    return out


# --------------------------------------------------------------------- NMI
def min_nmi(xs: Sequence[str], ys: Sequence[str]) -> float:
    """min(NMI(X;Y), NMI(Y;X)) with NMI(X;Y) = I(X;Y) / H(X) (Eq. 5).

    A zero-entropy side scores 0 (it shares no information).
    """
    x = np.unique(np.asarray(xs), return_inverse=True)[1]
    y = np.unique(np.asarray(ys), return_inverse=True)[1]
    n = len(x)
    joint = np.zeros((x.max() + 1, y.max() + 1))
    np.add.at(joint, (x, y), 1.0)
    joint /= n
    px, py = joint.sum(axis=1), joint.sum(axis=0)
    i = 0.0
    for a, b in zip(*np.nonzero(joint)):
        i += joint[a, b] * np.log2(joint[a, b] / (px[a] * py[b]))
    i = max(0.0, i)

    def h(p):
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    hx, hy = h(px), h(py)
    nxy = min(1.0, i / hx) if hx > 0 else 0.0
    nyx = min(1.0, i / hy) if hy > 0 else 0.0
    return min(nxy, nyx)


# ------------------------------------------------------------------ checks
class Verdicts:
    """Collects failed checks for one miner job."""

    def __init__(self, job: str):
        self.job = job
        self.errors: list[str] = []
        self.n_failed = 0

    def fail(self, msg: str) -> None:
        self.n_failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)
        elif len(self.errors) == 20:
            self.errors.append("... more failures not shown")

    def require(self, cond: bool, msg: str) -> None:
        if not cond:
            self.fail(msg)

    @property
    def ok(self) -> bool:
        return not self.errors


def check_sound(
    ref: Reference,
    t: Thresholds,
    singles: Mapping[str, Sequence[int]],
    patterns: Mapping[tuple, Sequence[int]],
    v: Verdicts,
    *,
    seasons: Mapping[object, int] | None = None,
) -> None:
    """Every reported event / pattern has exactly its support and is frequent.

    ``singles`` / ``patterns`` map what a miner reported to its reported
    support set; ``seasons`` optionally maps the same keys to the
    reported season count.
    """
    for ev, sup in singles.items():
        if ev not in ref.name:
            v.fail(f"single {ev}: unknown event")
            continue
        mine = ref.support(ev)
        if not np.array_equal(mine, np.sort(np.asarray(sup, dtype=np.int64))):
            v.fail(f"single {ev}: support {len(sup)} reported, {len(mine)} actual")
            continue
        _check_frequent(ev, mine, t, v, seasons)
    for pattern, sup in patterns.items():
        mine = ref.pattern_support(pattern)
        if mine is None:
            v.fail(f"pattern {render_pattern(pattern)}: malformed")
            continue
        if not np.array_equal(mine, np.sort(np.asarray(sup, dtype=np.int64))):
            v.fail(
                f"pattern {render_pattern(pattern)}: support {len(sup)} reported, "
                f"{len(mine)} actual"
            )
            continue
        _check_frequent(pattern, mine, t, v, seasons)


def _check_frequent(key, sup, t, v, seasons) -> None:
    n = season_count(sup, t)
    v.require(n >= t.min_season, f"{key}: reported frequent but has {n} seasons")
    if seasons is not None:
        v.require(seasons[key] == n, f"{key}: {seasons[key]} seasons reported, {n} actual")


def frequent_over(
    ref: Reference, events: Iterable[str], t: Thresholds, table: Mapping[tuple, np.ndarray] | None = None
) -> tuple[set[str], dict[tuple, np.ndarray]]:
    """The checker's own frequent singles and patterns over ``events``.

    ``table`` is a pattern-support table from
    :meth:`Reference.enumerate_patterns` to reuse across threshold cells.
    """
    events = sorted(events)
    singles = {e for e in events if season_count(ref.support(e), t) >= t.min_season}
    if table is None:
        table = ref.enumerate_patterns(events, t.max_k, t.min_season * t.min_density)
    need = t.min_season * t.min_density
    patterns = {
        p: s
        for p, s in table.items()
        if len(s) >= need and len(p) <= t.max_k * (t.max_k - 1) // 2
        and season_count(s, t) >= t.min_season
    }
    return singles, patterns


def check_projection(
    ref: Reference,
    t: Thresholds,
    series: Iterable[str],
    singles: Iterable[str],
    patterns: Iterable[tuple],
    v: Verdicts,
    *,
    table: Mapping[tuple, np.ndarray] | None = None,
) -> None:
    """Completeness on a projection: the miner's output restricted to
    ``series`` equals the checker's own enumeration over those series.

    A pattern's support depends only on its own events' representative
    instances, so restricting the database to a series subset neither
    adds nor removes patterns among that subset's events.
    """
    keep = {e for s in series for e in ref.series.get(s, [])}
    want_singles, want_patterns = frequent_over(ref, keep, t, table)
    got_singles = {e for e in singles if e in keep}
    got_patterns = {p for p in patterns if set(pattern_events(p)) <= keep}
    for e in sorted(want_singles - got_singles):
        v.fail(f"projection: frequent single {e} missing")
    for e in sorted(got_singles - want_singles):
        v.fail(f"projection: single {e} reported but not frequent")
    for p in sorted(set(want_patterns) - got_patterns):
        v.fail(f"projection: frequent pattern {render_pattern(p)} missing")
    for p in sorted(got_patterns - set(want_patterns)):
        v.fail(f"projection: pattern {render_pattern(p)} reported but not frequent")


def check_funnel(stats: Mapping[str, int], n_events: int, v: Verdicts) -> None:
    """Pruning-funnel properties of a miner's ``stats`` counters."""
    g = stats.get
    v.require(g("n_events_total") == n_events,
              f"funnel: {g('n_events_total')} events counted, {n_events} in the data")
    v.require(g("n_candidate_events", 0) <= g("n_events_total", 0), "funnel: candidate events > events")
    v.require(g("n_frequent_singles", 0) <= g("n_candidate_events", 0),
              "funnel: frequent singles > candidate events")
    if "n_pairs_considered" in stats:
        c = g("n_candidate_events", 0)
        v.require(g("n_pairs_considered") <= c * (c - 1) // 2, "funnel: pairs considered > event pairs")
        v.require(g("n_candidate_groups_k2", 0) <= g("n_pairs_considered"),
                  "funnel: candidate 2-groups > pairs considered")
        groups = sum(n for k, n in stats.items() if k.startswith("n_candidate_groups_k"))
        v.require(groups <= g("n_candidate_patterns", 0), "funnel: candidate groups > candidate patterns")
        v.require(g("n_frequent_patterns", 0) <= g("n_candidate_patterns", 0),
                  "funnel: frequent patterns > candidate patterns")
