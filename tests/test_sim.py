"""Monte Carlo harness: trial mechanics, baseline model, sweep determinism."""

import io
import math
import random
from fractions import Fraction

import pytest

from msrcode import sim
from msrcode.msr import generator_set, make_params
from msrcode.sim import (
    CSV_HEADER,
    SimConfig,
    baseline_success_model,
    run_sweep,
    run_trial,
    write_csv,
)

P746 = make_params(7, 4, 3)
GEN746 = generator_set(P746)
P20 = make_params(20, 10, 5)
GEN20 = generator_set(P20)


def binom_tail(n, p, at_least):
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(at_least, n + 1))


def test_trial_p_zero():
    for seed in range(10):
        r = run_trial(GEN746, 0.0, random.Random(seed))
        assert r.success and r.nodes_accessed == P746.k and r.num_bad == 0


def test_trial_p_one_always_fails():
    for seed in range(5):
        r = run_trial(GEN20, 1.0, random.Random(seed))
        assert not r.success and r.num_bad == 20


def test_trial_success_rate_matches_binomial_7_4_6():
    """Success happens iff few enough corrupted nodes interfere; at p = 0.1
    the rate tracks P(Bin(7, 0.1) <= 2) within 3 sigma of 1000 trials."""
    trials = 1000
    p = 0.1
    ok = sum(run_trial(GEN746, p, random.Random(f"s:{i}")).success for i in range(trials))
    expected = 1 - binom_tail(7, p, P746.error_capability + 1)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(ok / trials - expected) <= 3 * sigma + 0.01


def test_baseline_model_thresholds():
    assert baseline_success_model(P20, 0)
    assert baseline_success_model(P20, 1)
    assert not baseline_success_model(P20, 2)
    assert not baseline_success_model(P746, 1)  # floor((7-6)/2) = 0
    rate = binom_tail(20, 0.1, 2)
    assert abs(rate - 0.608) < 0.001  # over half the patterns defeat the old decoder


def test_sweep_p_zero_row():
    cfg = SimConfig(params=P746, p_grid=[0.0], trials=25, seed=9)
    (pt,) = run_sweep(cfg)
    assert pt.proposed_failure_rate == 0.0
    assert pt.baseline_failure_rate == 0.0
    assert pt.mean_nodes_accessed == P746.k
    assert pt.trials == 25


def test_sweep_dominance_and_monotone_cost():
    cfg = SimConfig(params=P746, p_grid=[0.0, 0.15, 0.35, 0.5], trials=120, seed=3)
    points = run_sweep(cfg)
    for pt in points:
        assert pt.proposed_failure_rate <= pt.baseline_failure_rate
        assert P746.k <= pt.mean_nodes_accessed <= P746.n
    means = [pt.mean_nodes_accessed for pt in points]
    assert all(b >= a - 0.15 for a, b in zip(means, means[1:]))


def test_sweep_builds_the_configured_code(monkeypatch):
    built = []
    real = sim.generator_set
    monkeypatch.setattr(sim, "generator_set", lambda params, flavor: built.append((params, flavor)) or real(params, flavor))
    run_sweep(SimConfig(params=P746, p_grid=[0.0], trials=2, flavor="vandermonde"))
    assert built == [(P746, "vandermonde")]


def test_sweep_csv_deterministic():
    cfg = SimConfig(params=P746, p_grid=[0.0, 0.2], trials=40, seed=77)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(run_sweep(cfg), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    assert bufs[0].splitlines()[0] == CSV_HEADER
    assert len(bufs[0].splitlines()) == 3


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(params=P746, p_grid=[0.7])
    with pytest.raises(ValueError):
        SimConfig(params=P746, trials=0)
    with pytest.raises(ValueError):
        SimConfig(params=P746, corruption="flip")


def test_failure_rate_tracks_binomial_model_20_10():
    """Empirical failure vs P(Bin(20, p) > 5) at moderate p, 4 sigma."""
    trials = 400
    for p_index, p in enumerate([0.05, 0.1]):
        fails = sum(
            not run_trial(GEN20, p, random.Random(f"f:{p_index}:{i}")).success
            for i in range(trials)
        )
        model = binom_tail(20, p, P20.error_capability + 1)
        sigma = math.sqrt(model * (1 - model) / trials)
        assert abs(fails / trials - model) <= 4 * sigma + 0.005


def lucky_recovery_probability(n, k, nbad, vcap):
    """Exact P(an access order reveals exactly v corrupted nodes among the
    first min(k + 2v, n) for some round v): hypergeometric chain DP."""
    states = {
        b: Fraction(math.comb(nbad, b) * math.comb(n - nbad, k - b), math.comb(n, k))
        for b in range(min(k, nbad) + 1)
        if math.comb(nbad, b) * math.comb(n - nbad, k - b)
    }
    success = Fraction(0)
    drawn = k
    for v in range(vcap + 1):
        target = min(k + 2 * v, n)
        while drawn < target:
            nxt = {}
            for b, pr in states.items():
                rem = n - drawn
                rem_bad = nbad - b
                for db in (0, 1):
                    picks = math.comb(rem_bad, db) * math.comb(rem - rem_bad, 1 - db)
                    if picks:
                        nxt[b + db] = nxt.get(b + db, Fraction(0)) + pr * Fraction(picks, rem)
            states = nxt
            drawn += 1
        if v in states:
            success += states.pop(v)
    return success


def test_beyond_capability_lucky_recovery_rate():
    """With 6 corrupted nodes, random access order sometimes avoids enough of
    them for a legitimate (and verified-correct) recovery; the exact chance
    is 1/8.  Observed successes must stay near that and always be correct,
    which run_trial enforces internally."""
    assert lucky_recovery_probability(20, 10, 6, 5) == Fraction(1, 8)

    trials = 200
    rng = random.Random(2024)
    wins = 0
    for i in range(trials):
        trial_rng = random.Random(f"lucky:{i}")
        bad = frozenset(rng.sample(range(20), 6))
        # drive the decoder directly so the corrupted set size is exact
        from msrcode.reconstruct import attach_crc, crc_payload_length, reconstruct_progressive
        from msrcode.msr import encode_all
        from msrcode.sim import corrupt_symbols

        payload = [trial_rng.randrange(32) for _ in range(crc_payload_length(P20))]
        message = attach_crc(P20, payload)
        shares = encode_all(GEN20, message)

        def source(node):
            s = shares[node].symbols
            return corrupt_symbols(trial_rng, GEN20.field, s) if node in bad else s

        report = reconstruct_progressive(GEN20, source, trial_rng)
        if report.success:
            assert report.recovered_message == message
            wins += 1
    sigma = math.sqrt(0.125 * 0.875 / trials)
    assert abs(wins / trials - 0.125) <= 4 * sigma
