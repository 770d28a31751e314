"""Self-tests of the benchmark's independent checker.

    python3 -m pytest perfbench/test_checker.py -q

The checker must agree with the program's brute-force oracle on small
inputs, and must flag a planted flipped triple, a planted wrong support
and a missing pattern.
"""
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker as ck  # noqa: E402
from repro.core.brute import mine_brute  # noqa: E402
from repro.core.mi import nmi  # noqa: E402
from repro.core.seasonal import STPMParams  # noqa: E402
from repro.core.sequences import build_dseq  # noqa: E402

M = 4


def seasonal_symbolic(seed: int, n_series=4, n_granules=60, alphabet="01") -> dict:
    """Series with 12-granule seasonal cycles, shifted shapes and noise."""
    rng = random.Random(seed)
    out = {}
    for i in range(n_series):
        syms = []
        for h in range(n_granules):
            active = (h % 12) < 4 and rng.random() < 0.9
            if i % 2 and rng.random() < 0.1:
                active = not active
            for t in range(M):
                on = active and (i % M) <= t <= (i % M) + rng.choice((0, 1, 2))
                syms.append(alphabet[-1] if on else rng.choice(alphabet[:-1]))
        out[f"S{i}"] = syms
    return out


def params(**kw) -> STPMParams:
    base = dict(max_period=2, min_density=2, dist_min=4, dist_max=12, min_season=2, max_k=3)
    base.update(kw)
    return STPMParams(**base)


def thresholds(p: STPMParams) -> ck.Thresholds:
    return ck.Thresholds(p.max_period, p.min_density, p.dist_min, p.dist_max,
                         p.min_season, p.epsilon, p.d_o, p.max_k)


CASES = [
    pytest.param(seed, alphabet, ignore, kw, id=f"s{seed}-{alphabet}-{'ign' if ignore else 'all'}-{kw}")
    for seed, alphabet, ignore, kw in [
        (0, "01", frozenset(), {}),
        (1, "01", frozenset({"0"}), {}),
        (2, "012", frozenset(), {}),
        (3, "01", frozenset(), {"epsilon": 1}),
        (4, "01", frozenset({"0"}), {"epsilon": 1, "d_o": 2}),
        (5, "01", frozenset(), {"max_period": 1, "min_density": 3}),
    ]
]


def brute_case(seed, alphabet, ignore, kw):
    symbolic = seasonal_symbolic(seed, alphabet=alphabet)
    p = params(**kw)
    singles, patterns = mine_brute(build_dseq(symbolic, M, ignore_symbols=ignore), p)
    ref = ck.Reference(symbolic, M, ignore=ignore, epsilon=p.epsilon, d_o=p.d_o)
    return ref, thresholds(p), singles, patterns


@pytest.mark.parametrize("seed,alphabet,ignore,kw", CASES)
def test_agrees_with_brute(seed, alphabet, ignore, kw):
    ref, t, singles, patterns = brute_case(seed, alphabet, ignore, kw)
    assert patterns, "case too sparse to test anything"
    want_singles, want_patterns = ck.frequent_over(ref, ref.events, t)
    assert want_singles == set(singles)
    assert set(want_patterns) == set(patterns)
    for pattern, sup in want_patterns.items():
        assert tuple(sup) == patterns[pattern].sup
        assert ck.season_count(sup, t) == patterns[pattern].n_seasons
    v = ck.Verdicts("brute")
    ck.check_sound(
        ref, t, {e: x.sup for e, x in singles.items()}, {q: x.sup for q, x in patterns.items()}, v,
        seasons={**{e: x.n_seasons for e, x in singles.items()},
                 **{q: x.n_seasons for q, x in patterns.items()}},
    )
    assert v.ok, v.errors


def test_flags_flipped_triple():
    ref, t, singles, patterns = brute_case(0, "01", frozenset(), {})
    pattern, verdict = next(iter(sorted(patterns.items())))
    rel, a, b = pattern[0]
    flipped = tuple(sorted(((rel, b, a),) + pattern[1:]))
    v = ck.Verdicts("planted")
    ck.check_sound(ref, t, {}, {flipped: verdict.sup}, v)
    assert not v.ok and v.n_failed == 1


def test_flags_wrong_support():
    ref, t, singles, patterns = brute_case(1, "01", frozenset({"0"}), {})
    pattern, verdict = next(iter(sorted(patterns.items())))
    event, ev_verdict = next(iter(sorted(singles.items())))
    v = ck.Verdicts("planted")
    ck.check_sound(ref, t, {event: ev_verdict.sup[1:]}, {pattern: verdict.sup[:-1]}, v)
    assert v.n_failed == 2


def test_flags_wrong_season_count():
    ref, t, _, patterns = brute_case(2, "012", frozenset(), {})
    pattern, verdict = next(iter(sorted(patterns.items())))
    v = ck.Verdicts("planted")
    ck.check_sound(ref, t, {}, {pattern: verdict.sup}, v, seasons={pattern: verdict.n_seasons + 1})
    assert v.n_failed == 1


def test_projection_flags_missing_and_extra():
    ref, t, singles, patterns = brute_case(3, "01", frozenset(), {"epsilon": 1})
    keys = sorted(patterns)
    series = sorted(ref.series)
    v = ck.Verdicts("complete")
    ck.check_projection(ref, t, series, singles, patterns, v)
    assert v.ok, v.errors
    v = ck.Verdicts("planted")
    bogus = (("->", "S0:1", "S1:1"), ("->", "S0:1", "S2:1"), ("->", "S1:1", "S2:1"))
    ck.check_projection(ref, t, series, singles, keys[1:] + [bogus], v)
    assert v.n_failed == (2 if bogus not in patterns else 1)


def test_prefix_series_tie_breaks_on_series_name():
    """``a2`` sorts before ``a20``, although the key ``"a20:1"`` sorts first."""
    on = ["1", "1", "0", "0"] * 3
    ref = ck.Reference({"a2": on, "a20": on}, M, ignore=frozenset({"0"}))
    table = ref.enumerate_patterns(ref.events, 2)
    assert set(table) == {((">=", "a2:1", "a20:1"),)}
    assert list(table.values())[0].tolist() == [0, 1, 2]


def test_run_count_matches_dseq_instances():
    symbolic = seasonal_symbolic(7, alphabet="012")
    ref = ck.Reference(symbolic, M)
    assert ref.n_runs == build_dseq(symbolic, M).n_instances()


def test_min_nmi_matches_eq5():
    rng = np.random.default_rng(3)
    for _ in range(5):
        xs = rng.choice(list("012"), 200).tolist()
        ys = [x if rng.random() < 0.7 else "1" for x in xs]
        assert abs(ck.min_nmi(xs, ys) - min(nmi(xs, ys), nmi(ys, xs))) <= 1e-12
    assert ck.min_nmi(["0"] * 10, list("0101010101")) == 0.0
