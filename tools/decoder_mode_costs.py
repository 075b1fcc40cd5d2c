"""Time each KNodeDecoder mode and check reconstruct.decoder_mode's picks.

For each code it times, on one seeded set of k nodes and best of --repeat
runs: gen.gbar_map's build, the pair map's build, compose() once the pair
map is built, and a staged, a paired and a composed stripe decode.  The
builds come after KNodeDecoder.__init__ and its peel map, which every mode
builds.  A mode's measured total at s stripes is its build plus s times its
per-stripe cost: staged builds nothing, paired the pair map, composed the
pair map and compose().

Two checks, at every stripe count from 1 to --stripes:
- trusted: the mode decoder_mode picks for a trusted set against the
  cheapest of the three;
- first: stripe 0's first round of a clean read, composed (pair map,
  compose(), s composed stripes) or staged-then-trusted (gbar_map, one
  staged stripe, then the trusted set's mode over the s - 1 left), against
  the cheaper of composing and staged-then-cheapest.

Each code prints its measurements in ms, then one row per run of stripe
counts over which the pick and the cheapest mode stay the same: the counts,
the pick, the cheapest and the worst ratio of their totals.  The last line
gives each check's worst ratio over every code.

    PYTHONPATH=src python tools/decoder_mode_costs.py [--codes 20,10,5 24,12,8 ...] [--stripes 1100] [--repeat 5]
"""

from __future__ import annotations

import argparse
import random
import time

from msrcode.linalg import LinearMap
from msrcode.msr import generator_set, make_params, share_columns
from msrcode.reconstruct import KNodeDecoder, decoder_mode

# one code per m = 3..16, then the larger codes
DEFAULT_CODES = [
    (7, 4, 3), (15, 8, 4), (20, 10, 5), (22, 11, 6), (24, 12, 7), (24, 12, 8), (24, 12, 9), (22, 11, 10),
    (24, 12, 11), (24, 12, 12), (24, 12, 13), (24, 12, 14), (24, 12, 15), (24, 12, 16),
    (28, 14, 8), (60, 30, 8), (40, 20, 16),
]  # fmt: skip
MODES = ("staged", "paired", "composed")
COSTS = ("gbar_map", "pair map", "compose") + MODES  # as measure() returns them
STRIPES_PER_RUN = 32  # distinct stripes per timed decode run


def timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def measure(n: int, k: int, m: int, repeat: int) -> dict[str, float]:
    """The code's build times and per-stripe decode times, in ms, each the
    least of repeat runs.  A run times everything once, in turn, so that
    a busy spell of the host spoils one run rather than one quantity; an
    untimed run first warms the caches up."""
    params = make_params(n, k, m)
    gen = generator_set(params)
    rng = random.Random(f"mode costs:{n},{k},{m}")
    nodes = tuple(rng.sample(range(n), k))
    stripes = []
    for _ in range(STRIPES_PER_RUN):
        found = share_columns(gen, [rng.randrange(1 << m) for _ in range(params.B)], nodes)
        stripes.append([found[node] for node in nodes])

    def decode(decoder):
        return timed(lambda: [decoder.bitstream(columns) for columns in stripes]) / STRIPES_PER_RUN

    gen.gbar_map
    staged = KNodeDecoder(gen, nodes)
    costs = {}
    for run in range(repeat + 1):
        decoder = KNodeDecoder(gen, nodes)
        decoder.peel_map
        times = {
            "gbar_map": timed(lambda: LinearMap(gen.field, gen.gbar)),
            "staged": decode(staged),
            "pair map": timed(lambda: decoder.pair_map),
            "paired": decode(decoder),
            "compose": timed(decoder.compose),
            "composed": decode(decoder),
        }
        del decoder
        if run:
            costs = {key: min(value, costs.get(key, value)) for key, value in times.items()}
    return {key: costs[key] * 1e3 for key in COSTS}


def trusted_totals(costs, stripes: int) -> dict[str, float]:
    builds = {"staged": 0.0, "paired": costs["pair map"], "composed": costs["pair map"] + costs["compose"]}
    return {mode: builds[mode] + stripes * costs[mode] for mode in MODES}


def checks(params, costs, stripes: int):
    """(check, pick, cheapest, ratio of their measured totals) of both
    checks at this many stripes."""
    totals = trusted_totals(costs, stripes)
    pick = decoder_mode(params, stripes)
    yield "trusted", pick, min(totals, key=totals.get), totals[pick] / min(totals.values())
    later = trusted_totals(costs, stripes - 1)
    staged = costs["gbar_map"] + costs["staged"]
    first = {
        "composed": costs["pair map"] + costs["compose"] + stripes * costs["composed"],
        "staged": staged + (later[decoder_mode(params, stripes - 1)] if stripes > 1 else 0.0),
    }
    cheapest = min(first["composed"], staged + min(later.values()) if stripes > 1 else staged)
    pick = decoder_mode(params, stripes, first=True)
    cheapest_mode = "composed" if cheapest == first["composed"] else "staged"
    yield "first", pick, cheapest_mode, first[pick] / cheapest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    codes = [",".join(map(str, code)) for code in DEFAULT_CODES]
    parser.add_argument("--codes", nargs="+", default=codes, help="codes as n,k,m")
    parser.add_argument("--stripes", type=int, default=1100)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    worst = {"trusted": (0.0, None), "first": (0.0, None)}
    for code in args.codes:
        n, k, m = map(int, code.split(","))
        params = make_params(n, k, m)
        costs = measure(n, k, m, args.repeat)
        name = f"[{n},{k}]/GF(2^{m})"
        print(f"{name}: " + ", ".join(f"{key} {value:.4g}" for key, value in costs.items()))
        rows = {"trusted": [], "first": []}
        for s in range(1, args.stripes + 1):
            for check, pick, cheapest, ratio in checks(params, costs, s):
                run = rows[check]
                if run and run[-1][2:4] == [pick, cheapest]:
                    run[-1][1], run[-1][4] = s, max(run[-1][4], ratio)
                else:
                    run.append([s, s, pick, cheapest, ratio])
                if ratio > worst[check][0]:
                    worst[check] = ratio, f"{name} at {s}"
        for check, runs in rows.items():
            for lo, hi, pick, cheapest, ratio in runs:
                print(f"  {check} {lo}-{hi}: pick {pick}, cheapest {cheapest}, worst {ratio:.3f}")
    print("worst: " + "; ".join(f"{check} {ratio:.3f} ({where})" for check, (ratio, where) in worst.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
