"""Monte Carlo harness: reconstruction failure rate under Byzantine nodes.

Each trial encodes a random CRC-protected message, corrupts every node
independently with probability p, and runs the progressive reconstructor.
The prior-generation decoder is modeled analytically: it decodes with the
[n, d] code, so it survives at most floor((n - d) / 2) corrupted nodes.

Per-trial RNGs are derived from (seed, p index, trial index), so trials are
independent, reproducible, and safe to run in parallel while still
producing byte-identical CSV output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .field import Field
from .msr import GeneratorSet, MsrParams, encode_all, generator_set, pack_message
from .reconstruct import attach_crc, crc_payload_length, reconstruct_progressive

__all__ = [
    "SimConfig",
    "SimPoint",
    "TrialResult",
    "run_trial",
    "run_sweep",
    "baseline_success_model",
    "write_csv",
    "write_gnuplot_script",
    "CSV_HEADER",
]

CSV_HEADER = "p,proposed_fail,baseline_fail,mean_nodes,trials"

CORRUPTION_MODES = ("column", "symbol")


@dataclass
class SimConfig:
    params: MsrParams
    p_grid: list[float] = dc_field(default_factory=lambda: [i / 20 for i in range(11)])
    trials: int = 1000
    seed: int = 0
    corruption: str = "column"
    flavor: str = "systematic"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(not 0.0 <= p <= 0.5 for p in self.p_grid):
            raise ValueError("corruption probabilities must lie in [0, 0.5]")
        if self.corruption not in CORRUPTION_MODES:
            raise ValueError(f"corruption mode must be one of {CORRUPTION_MODES}")


@dataclass(frozen=True)
class TrialResult:
    success: bool
    nodes_accessed: int
    num_bad: int


@dataclass(frozen=True)
class SimPoint:
    p: float
    proposed_failure_rate: float
    baseline_failure_rate: float
    mean_nodes_accessed: float
    trials: int


def corrupt_symbols(rng: random.Random, field: Field, symbols, mode: str = "column") -> tuple[int, ...]:
    """Return a corrupted copy guaranteed to differ from the original."""
    if mode == "column":
        while True:
            drawn = tuple(rng.randrange(field.order) for _ in symbols)
            if drawn != tuple(symbols):
                return drawn
    if mode == "symbol":
        out = list(symbols)
        pos = rng.randrange(len(out))
        while True:
            value = rng.randrange(field.order)
            if value != out[pos]:
                out[pos] = value
                return tuple(out)
    raise ValueError(f"unknown corruption mode {mode!r}")


def run_trial(gen: GeneratorSet, p: float, rng: random.Random, corruption: str = "column") -> TrialResult:
    """One encode -> corrupt -> reconstruct round trip.

    Raises if the reconstructor claims success with a wrong message (a CRC
    collision); that must never happen in practice.
    """
    params, field = gen.params, gen.field
    payload = [rng.randrange(field.order) for _ in range(crc_payload_length(params))]
    message = attach_crc(params, payload)
    shares = encode_all(gen, pack_message(params, message))
    bad = frozenset(i for i in range(params.n) if rng.random() < p)

    def source(node: int):
        symbols = shares[node].symbols
        if node in bad:
            return corrupt_symbols(rng, field, symbols, corruption)
        return symbols

    report = reconstruct_progressive(gen, source, rng)
    if report.success and list(report.recovered_message) != message:
        raise RuntimeError("reconstruction returned a wrong message that passed integrity")
    return TrialResult(success=report.success, nodes_accessed=report.nodes_accessed, num_bad=len(bad))


def baseline_success_model(params: MsrParams, num_bad: int) -> bool:
    """Prior decoder model: decoding with the [n, d] code tolerates
    floor((n - d) / 2) corrupted nodes."""
    return num_bad <= (params.n - params.d) // 2


def _trial_rng(seed: int, p_index: int, trial_index: int) -> random.Random:
    return random.Random(f"{seed}:{p_index}:{trial_index}")


def run_sweep(config: SimConfig) -> list[SimPoint]:
    params = config.params
    gen = generator_set(params, config.flavor)
    points = []
    for p_index, p in enumerate(config.p_grid):
        failures = 0
        baseline_failures = 0
        nodes_total = 0
        for trial_index in range(config.trials):
            rng = _trial_rng(config.seed, p_index, trial_index)
            result = run_trial(gen, p, rng, config.corruption)
            if not result.success:
                failures += 1
            if not baseline_success_model(params, result.num_bad):
                baseline_failures += 1
            nodes_total += result.nodes_accessed
        points.append(
            SimPoint(
                p=p,
                proposed_failure_rate=failures / config.trials,
                baseline_failure_rate=baseline_failures / config.trials,
                mean_nodes_accessed=nodes_total / config.trials,
                trials=config.trials,
            )
        )
    return points


def write_csv(points: list[SimPoint], fp) -> None:
    fp.write(CSV_HEADER + "\n")
    for pt in points:
        fp.write(
            f"{pt.p:g},{pt.proposed_failure_rate:.6f},{pt.baseline_failure_rate:.6f},"
            f"{pt.mean_nodes_accessed:.6f},{pt.trials}\n"
        )


def write_gnuplot_script(fp, csv_name: str) -> None:
    """Convenience: a gnuplot script plotting both failure-rate curves."""
    quoted = csv_name.replace("'", "''")  # gnuplot's only escape inside single quotes
    fp.write(
        "set datafile separator ','\n"
        "set key top left\n"
        "set logscale y\n"
        "set xlabel 'node corruption probability'\n"
        "set ylabel 'reconstruction failure rate'\n"
        "set title 'Reconstruction failure rate'\n"
        f"plot '{quoted}' every ::1 using 1:2 with linespoints title 'progressive decoder', \\\n"
        f"     '{quoted}' every ::1 using 1:3 with linespoints title 'prior decoder model'\n"
    )
