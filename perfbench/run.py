#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the msrcode command line.

    python3 perfbench/run.py --workload clean-rw --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program under test is the `msrcode`
package in ./src, driven in-process through `msrcode.cli.main(argv)` with its
stdout captured; nothing is installed.  Each run repeats one cycle of CLI
calls on fresh objects until --seconds have passed (the cycle in progress is
finished):

    encode -> single-symbol updates -> delete one share and repair it
           -> inject the workload's faults -> reconstruct

Every input byte, update, fault choice and CLI --seed comes from the
benchmark's --seed.  Every output is checked against the benchmark's own
oracle: the restored file against a copy of the input patched with its own
MSB-first bit arithmetic, the repaired share against the copy taken before
deletion.  A wrong output fails the run (exit 1, `correct` false, no
metrics); a nonzero exit or an exception of the CLI counts in `failed`.

--trace 0 prints the end-to-end metrics, measured without tracing.
--trace 1 runs every cycle twice, untraced and then with spans around the
public functions of every layer, prints the per-layer metrics and writes
the spans to .perfbench/spans-<workload>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Share file layout, from the README: an 18-byte header, then alpha = k - 1
# symbols per stripe, each in ceil(m / 8) little-endian bytes.
HEADER_SIZE = 18
# Every stripe carries k(k-1) symbols, the last ceil(32 / m) of them a CRC-32.
CRC_BITS = 32

SETUP_REPEATS = 5
TAIL_CAP = 0.9  # tails above p90 would change percentile as the run gets faster
TRUNCATION_PROBE_ONE_IN = 10


@dataclasses.dataclass(frozen=True)
class Workload:
    n: int
    k: int
    m: int
    object_bytes: int
    updates: int  # single-symbol updates per object
    deleted: int  # shares unavailable at read time
    byzantine: int  # shares whose payload is overwritten before the read
    truncation_probe: bool  # traced run only: also read with a truncated share


# Why each workload (the one-line form is in BENCHMARK.json):
# - clean-rw: the healthy path; reads finish in the v=0 round, so it isolates
#   share parsing, the per-stripe linear maps, the CRC and bit packing, and an
#   erasure-trial change must not move it.
# - byzantine-read: 3 missing and 3 persistently lying nodes out of 24 with
#   capability 6; stripes climb to v=3 with full node supply, so column
#   classification and error-locating row decode do the work, without erasure
#   trials.  m = 8 exercises the byte-aligned symbol layout.
# - degraded-read: 7 missing and 2 lying nodes out of 20 leave 13, so the v=2
#   round is supply-capped and erasure trials dominate; objects of 4 stripes
#   make per-call set-up and file opens visible.
WORKLOADS = {
    "clean-rw": Workload(n=20, k=10, m=5, object_bytes=1024, updates=6, deleted=0, byzantine=0, truncation_probe=False),
    "byzantine-read": Workload(n=24, k=12, m=8, object_bytes=1024, updates=3, deleted=3, byzantine=3, truncation_probe=False),
    "degraded-read": Workload(n=20, k=10, m=5, object_bytes=200, updates=4, deleted=7, byzantine=2, truncation_probe=True),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "encode_kib_s": "KiB/s",
    "stored_bytes_per_byte": "B/B",
    "update_p50_ms": "ms",
    "update_tail_ms": "ms",
    "update_write_bytes": "B",
    "repair_kib_s": "KiB/s",
    "repair_read_bytes_per_byte": "B/B",
    "read_kib_s": "KiB/s",
    "read_bytes_per_byte": "B/B",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def payload_symbols(wl: Workload) -> int:
    return wl.k * (wl.k - 1) - -(-CRC_BITS // wl.m)


def stripe_bytes(wl: Workload) -> int:
    """Input bytes that fill exactly one stripe's payload."""
    return payload_symbols(wl) * wl.m // 8


def share_name(node: int) -> str:
    return f"share_{node + 1:03d}.msrc"


# ---------------------------------------------------------------------------
# oracle: MSB-first m-bit symbols, one bit at a time


def get_symbol(buf, index: int, m: int) -> int:
    value = 0
    for bit in range(index * m, index * m + m):
        value = (value << 1) | ((buf[bit >> 3] >> (7 - (bit & 7))) & 1)
    return value


def set_symbol(buf: bytearray, index: int, m: int, value: int) -> None:
    for i, bit in enumerate(range(index * m, index * m + m)):
        mask = 0x80 >> (bit & 7)
        if (value >> (m - 1 - i)) & 1:
            buf[bit >> 3] |= mask
        else:
            buf[bit >> 3] &= ~mask & 0xFF


# ---------------------------------------------------------------------------
# fault injection, from outside the program


def overwrite_payload(path: Path, m: int, rng: random.Random) -> None:
    """Replace every payload symbol with a seeded value below 2^m, so the
    header and range checks still pass and the node lies consistently."""
    original = path.read_bytes()
    blob = bytearray(original)
    width = (m + 7) // 8
    for pos in range(HEADER_SIZE, len(blob), width):
        blob[pos : pos + width] = rng.randrange(1 << m).to_bytes(width, "little")
    if blob == original:
        blob[HEADER_SIZE] ^= 1
    path.write_bytes(bytes(blob))


def truncated(blob: bytes) -> bytes:
    """A share cut short half-way through its payload, as by a node that
    crashed mid-write."""
    return blob[: HEADER_SIZE + (len(blob) - HEADER_SIZE) // 2]


# ---------------------------------------------------------------------------
# speed normalisation
#
# The host is shared, and other tenants slow every core by a factor that
# drifts by 10-20% from one run to the next.  Each op's wall time is
# therefore scaled by REF_NOMINAL_S over the mean duration of a fixed
# pure-Python reference loop run right before and right after it.  On an
# idle core the two agree; under contention the scaled time stays steady.

REF_NOMINAL_S = 0.00095  # reference_loop on an idle core (2.1 GHz x86-64, Python 3.11)
REF_REUSE_S = 0.02  # a reference run this recent still describes the core's speed
_REF_SMALL = list(range(256))
_REF_LARGE = [(i * 40503) & 0xFFFF for i in range(1 << 14)]


def reference_loop() -> float:
    """Time a fixed mix of the interpreter work msrcode does: lookups in a
    small table with XOR, and short lists and tuples built from a larger
    one.  Contention slows the two parts differently, so both are needed."""
    small, large = _REF_SMALL, _REF_LARGE
    acc = 0
    rows = []
    t0 = time.perf_counter()
    for i in range(10000):
        acc ^= small[(acc + i) & 0xFF]
    for i in range(500):
        row = [large[(acc + j * 977) & 0x3FFF] for j in range(4)]
        acc ^= row[i & 3]
        rows.append(tuple(row))
    return time.perf_counter() - t0


class SpeedProbe:
    """Scales wall times to the core speed at which REF_NOMINAL_S holds."""

    def __init__(self):
        self._last = 0.0
        self._last_end = -1.0

    def before(self) -> float:
        if time.perf_counter() - self._last_end > REF_REUSE_S:
            self.after()
        return self._last

    def after(self) -> float:
        self._last = reference_loop()
        self._last_end = time.perf_counter()
        return self._last

    def scaled(self, wall_s: float, ref_before: float, ref_after: float) -> float:
        return wall_s * 2 * REF_NOMINAL_S / (ref_before + ref_after)


# ---------------------------------------------------------------------------
# I/O accounting


def io_counters() -> tuple[int, int, int]:
    """(rchar, wchar, bytes this read itself adds to rchar)."""
    with open("/proc/self/io", "rb") as fp:
        raw = fp.read()
    fields = dict(line.split(b":", 1) for line in raw.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(raw)


@dataclasses.dataclass
class OpResult:
    ok: bool
    seconds: float  # wall time scaled by SpeedProbe
    read_bytes: int
    written_bytes: int


# ---------------------------------------------------------------------------


class Bench:
    """Runs cycles of one workload and keeps their samples."""

    def __init__(self, cli, name: str, wl: Workload, seed: int, work: Path, tracer: Tracer | None = None):
        self.cli = cli
        self.name = name
        self.wl = wl
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.wall_ms: dict[str, list[float]] = defaultdict(list)  # unscaled, per command
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.op_seconds = 0.0
        self.op_kind = ""
        self.probe_attempted = 0
        self.probe_failed = 0
        self.probe_offset = random.Random(f"{seed}:{name}:probe").randrange(TRUNCATION_PROBE_ONE_IN)
        self.speed = SpeedProbe()

    def call(self, argv: list[str], counted: bool = True) -> OpResult:
        self.op_kind = argv[0]
        if self.tracer is not None:
            self.tracer.op += 1
        out = io.StringIO()
        ref_before = self.speed.before()
        r0, w0, probe_len = io_counters()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if self.tracer is not None:
                    rc = self.tracer.wrap(f"cli.{argv[0]}", self.cli.main)(argv)
                else:
                    rc = self.cli.main(argv)
        except Exception as exc:  # a crash of the program under test is a failed op
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        r1, w1, _ = io_counters()
        seconds = self.speed.scaled(wall, ref_before, self.speed.after())
        ok = rc == 0
        if counted:
            self.attempted += 1
            self.op_seconds += seconds
            self.wall_ms[argv[0]].append(wall * 1000)
            if not ok:
                self.failed += 1
                self.failures.append(f"{' '.join(argv)}: exit {rc}: {out.getvalue().strip()[-300:]}")
        return OpResult(ok, seconds, r1 - r0 - probe_len, w1 - w0)

    def cycle(self, index, object_bytes: int | None = None) -> None:
        wl = self.wl
        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        size = object_bytes or wl.object_bytes
        data = bytearray(rng.randbytes(size))
        shares = self.work / f"obj{index}"
        source = self.work / f"in{index}.bin"
        restored = self.work / f"out{index}.bin"
        source.write_bytes(data)
        try:
            with self.tracer.active() if self.tracer is not None else contextlib.nullcontext():
                self._cycle(rng, index, data, source, shares, restored)
        finally:
            shutil.rmtree(shares, ignore_errors=True)
            for path in (source, restored):
                path.unlink(missing_ok=True)

    def _cycle(self, rng, index, data, source, shares, restored) -> None:
        wl = self.wl
        size = len(data)
        res = self.call(["encode", str(source), str(shares), "--n", str(wl.n), "--k", str(wl.k), "--m", str(wl.m)])
        if not res.ok:
            return
        stored = sum((shares / share_name(node)).stat().st_size for node in range(wl.n))
        self.samples["encode_kib_s"].append(size / 1024 / res.seconds)
        self.samples["stored_bytes_per_byte"].append(stored / size)

        per_stripe = payload_symbols(wl)
        whole_symbols = size * 8 // wl.m
        for _ in range(wl.updates):
            g = rng.randrange(whole_symbols)
            current = get_symbol(data, g, wl.m)
            value = rng.choice([v for v in range(1 << wl.m) if v != current])
            res = self.call(
                ["update", str(shares), "--stripe", str(g // per_stripe), "--symbol", str(g % per_stripe), "--value", str(value)]
            )
            if not res.ok:
                return
            set_symbol(data, g, wl.m, value)
            self.samples["update_ms"].append(res.seconds * 1000)
            self.samples["update_write_bytes"].append(res.written_bytes)

        lost = rng.randrange(wl.n)
        lost_path = shares / share_name(lost)
        before = lost_path.read_bytes()
        lost_path.unlink()
        res = self.call(["repair", str(shares), "--failed", str(lost + 1)])
        if not res.ok:
            return
        if not lost_path.is_file() or lost_path.read_bytes() != before:
            self.wrong.append(f"{self.name} object {index}: repaired share {lost + 1} differs from the lost one")
            return
        self.samples["repair_kib_s"].append(len(before) / 1024 / res.seconds)
        self.samples["repair_read_bytes_per_byte"].append(res.read_bytes / len(before))

        victims = rng.sample(range(wl.n), wl.deleted + wl.byzantine)
        removed = {}
        for node in victims[: wl.deleted]:
            path = shares / share_name(node)
            removed[node] = path.read_bytes()
            path.unlink()
        for node in victims[wl.deleted :]:
            overwrite_payload(shares / share_name(node), wl.m, rng)

        argv = ["reconstruct", str(shares), str(restored), "--seed", str(rng.randrange(1 << 31))]
        res = self.call(argv)
        if res.ok:
            if not restored.is_file() or restored.read_bytes() != data:
                self.wrong.append(f"{self.name} object {index}: restored file differs from the input")
                return
            self.samples["read_ms"].append(res.seconds * 1000)
            self.samples["read_kib_s"].append(size / 1024 / res.seconds)
            self.samples["read_bytes_per_byte"].append(res.read_bytes / size)

        # traced run only, on every tenth object: one missing share is back,
        # truncated, so the read must treat it as an erasure
        if self.tracer is not None and wl.truncation_probe and (index + self.probe_offset) % TRUNCATION_PROBE_ONE_IN == 0:
            node = rng.choice(sorted(removed))
            (shares / share_name(node)).write_bytes(truncated(removed[node]))
            restored.unlink(missing_ok=True)
            res = self.call(argv, counted=False)
            self.probe_attempted += 1
            if not res.ok:
                self.probe_failed += 1
            elif restored.read_bytes() != data:
                self.wrong.append(f"{self.name} object {index}: restored file differs with a truncated share")


def run_cycles(benches: list[Bench], seconds: float) -> int:
    """Run cycle 0, 1, ... on each bench in turn until `seconds` have
    passed (at least one cycle); return the number of cycles."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        for bench in benches:
            bench.cycle(index)
        index += 1
        if any(bench.wrong for bench in benches):
            break
    return index


# ---------------------------------------------------------------------------
# set-up


def load_program():
    """Import msrcode.cli afresh from ./src, so that import-time work is
    part of every set-up repetition."""
    for name in [name for name in sys.modules if name == "msrcode" or name.startswith("msrcode.")]:
        del sys.modules[name]
    cli = importlib.import_module("msrcode.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: msrcode was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(name: str, wl: Workload, seed: int, work: Path):
    """Import the program and run one untimed, fault-free one-stripe cycle,
    several times.  Return the program, the median set-up time and the last
    set-up bench, whose outputs are checked like any other."""
    times = []
    speed = SpeedProbe()
    clean = dataclasses.replace(wl, deleted=0, byzantine=0)
    for rep in range(SETUP_REPEATS):
        ref_before = speed.after()
        t0 = time.perf_counter()
        cli = load_program()
        warm = Bench(cli, name, clean, seed, work)
        warm.cycle(f"setup{rep}", object_bytes=stripe_bytes(wl))
        times.append(speed.scaled(time.perf_counter() - t0, ref_before, speed.after()))
        if warm.failed or warm.wrong:
            break
    return cli, statistics.median(times), warm


# ---------------------------------------------------------------------------
# metrics


def tail(values, cap: float = TAIL_CAP) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, at most `cap`, that has
    at least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 1.0
    index = min(count - 11, math.ceil(cap * count) - 1)
    return ordered[index], (index + 1) / count


def end_to_end_metrics(bench: Bench, setup_s: float, detail: dict) -> dict[str, float]:
    s = bench.samples
    median = statistics.median
    update_tail, update_q = tail(s["update_ms"])
    read_tail, read_q = tail(s["read_ms"])
    detail["samples"] = {key: len(values) for key, values in sorted(s.items())}
    detail["wall_p50_ms"] = {key: median(values) for key, values in sorted(bench.wall_ms.items())}
    detail["tail_percentile"] = {"update_tail_ms": update_q, "read_tail_ms": read_q}
    return {
        "setup_s": setup_s,
        "encode_kib_s": median(s["encode_kib_s"]),
        "stored_bytes_per_byte": median(s["stored_bytes_per_byte"]),
        "update_p50_ms": median(s["update_ms"]),
        "update_tail_ms": update_tail,
        "update_write_bytes": statistics.mean(s["update_write_bytes"]),
        "repair_kib_s": median(s["repair_kib_s"]),
        "repair_read_bytes_per_byte": median(s["repair_read_bytes_per_byte"]),
        "read_kib_s": median(s["read_kib_s"]),
        "read_bytes_per_byte": median(s["read_bytes_per_byte"]),
        "read_p50_ms": median(s["read_ms"]),
        "read_tail_ms": read_tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# (layer name, owner, attribute).  Each function is wrapped at the name its
# caller looks it up by: a module global, or a class attribute after ":".
# The same function reached through two modules is wrapped at both under one
# layer name.
TRACE_TARGETS = (
    ("shares.read_share", "msrcode.cli", "read_share"),
    ("shares.write_share", "msrcode.cli", "write_share"),
    ("shares.Manifest.load", "msrcode.shares:Manifest", "load"),
    ("bits.bytes_to_symbols", "msrcode.cli", "bytes_to_symbols"),
    ("bits.symbols_to_bytes", "msrcode.cli", "symbols_to_bytes"),
    ("bits.symbols_to_bytes", "msrcode.reconstruct", "symbols_to_bytes"),
    ("msr.generator_set", "msrcode.cli", "generator_set"),
    ("msr.encode_all", "msrcode.cli", "encode_all"),
    ("msr.encode_all", "msrcode.msr", "encode_all"),
    ("msr.helper_symbol", "msrcode.cli", "helper_symbol"),
    ("msr.regenerate", "msrcode.cli", "regenerate"),
    ("reconstruct.reconstruct_progressive", "msrcode.cli", "reconstruct_progressive"),
    ("reconstruct.pair_solve", "msrcode.reconstruct", "pair_solve"),
    ("reconstruct.row_decode", "msrcode.reconstruct", "row_decode"),
    ("reconstruct.classify_columns", "msrcode.reconstruct", "classify_columns"),
    ("reconstruct.recover_z", "msrcode.reconstruct", "recover_z"),
    ("reconstruct.check_crc", "msrcode.reconstruct", "check_crc"),
    ("rs.decode_errors_erasures", "msrcode.rs:RsCode", "decode_errors_erasures"),
    ("linalg.invert", "msrcode.reconstruct", "invert"),
    ("linalg.solve", "msrcode.msr", "solve"),
)
CALL_LAYERS = tuple(dict.fromkeys(name for name, _, _ in TRACE_TARGETS))
OUTCOMES = ("gate", "agreement", "asymmetry", "integrity")
COMMANDS = ("encode", "update", "repair", "reconstruct")


class LayerCounters:
    """Counts taken from arguments and results at the traced boundaries."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.read_share_bytes = 0
        self.rs_failed = 0
        self.crc_passed = 0
        self.stripes = 0
        self.attempts = 0
        self.erasure_trials = 0
        self.accepted = 0
        self.nodes = 0
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.stripe_ms: list[float] = []

    def read_share(self, args, result, duration_ns):
        self.read_share_bytes += os.path.getsize(args[0])

    def decode(self, args, result, duration_ns):
        self.rs_failed += result is None

    def crc(self, args, result, duration_ns):
        self.crc_passed += bool(result)

    def stripe(self, args, report, duration_ns):
        # per-stripe read statistics: decodes done by `update` are excluded
        if self.bench.op_kind != "reconstruct":
            return
        trace = getattr(report, "trace", [])
        self.stripes += 1
        self.attempts += len(trace)
        self.nodes += getattr(report, "nodes_accessed", 0)
        self.stripe_ms.append(duration_ns / 1e6)
        for entry in trace:
            self.erasure_trials += getattr(entry, "erasure_trial", None) is not None
            outcome = getattr(entry, "outcome", "")
            if outcome == "accepted":
                self.accepted += 1
            elif outcome in self.outcomes:
                self.outcomes[outcome] += 1


def register_targets(tracer: Tracer, counters: LayerCounters) -> None:
    observers = {
        "shares.read_share": counters.read_share,
        "rs.decode_errors_erasures": counters.decode,
        "reconstruct.check_crc": counters.crc,
        "reconstruct.reconstruct_progressive": counters.stripe,
    }
    for name, owner, attr in TRACE_TARGETS:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls, None)
        if target is not None:
            tracer.add(target, attr, name, observers.get(name))


def per_layer_metrics(tracer: Tracer, counters: LayerCounters, objects: int, overhead_pct: float, detail: dict):
    def ratio(a, b):
        return a / b if b else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in CALL_LAYERS:
        metrics[f"{name}.calls"] = (tracer.calls[name] / objects, "1/obj")
        metrics[f"{name}.self_ms"] = (tracer.self_ns[name] / 1e6 / objects, "ms/obj")
    c = counters
    rp = "reconstruct.reconstruct_progressive"
    stripe_tail, stripe_q = tail(c.stripe_ms, cap=0.99) if c.stripe_ms else (0.0, 0.0)
    metrics.update(
        {
            "shares.read_share.bytes": (c.read_share_bytes / objects, "B/obj"),
            "rs.decode_errors_erasures.fail_ratio": (ratio(c.rs_failed, tracer.calls["rs.decode_errors_erasures"]), "ratio"),
            "reconstruct.check_crc.pass_ratio": (ratio(c.crc_passed, tracer.calls["reconstruct.check_crc"]), "ratio"),
            f"{rp}.attempts_per_stripe": (ratio(c.attempts, c.stripes), "1/stripe"),
            f"{rp}.erasure_trials_per_stripe": (ratio(c.erasure_trials, c.stripes), "1/stripe"),
            f"{rp}.accepted_per_attempt": (ratio(c.accepted, c.attempts), "ratio"),
            f"{rp}.nodes_per_stripe": (ratio(c.nodes, c.stripes), "1/stripe"),
            f"{rp}.stripe_p50_ms": (statistics.median(c.stripe_ms) if c.stripe_ms else 0.0, "ms"),
            f"{rp}.stripe_tail_ms": (stripe_tail, "ms"),
            "probe.truncated_share.attempted": (float(counters.bench.probe_attempted), "count"),
            "probe.truncated_share.fail_ratio": (ratio(counters.bench.probe_failed, counters.bench.probe_attempted), "ratio"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
    )
    for outcome in OUTCOMES:
        metrics[f"reconstruct.outcome.{outcome}"] = (ratio(c.outcomes[outcome], c.stripes), "1/stripe")
    for command in COMMANDS:
        calls = tracer.calls[f"cli.{command}"]
        metrics[f"cli.{command}.ms"] = (ratio(tracer.total_ns[f"cli.{command}"] / 1e6, calls), "ms")
    detail["objects"] = objects
    detail["stripes_read"] = c.stripes
    detail["tail_percentile"] = {f"{rp}.stripe_tail_ms": stripe_q}
    return metrics


# ---------------------------------------------------------------------------


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return the result object and
    a detail object (sample counts, tail percentiles, failures)."""
    work = OUT_DIR / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    detail: dict = {"workload": name, "seed": seed}
    try:
        cli, setup_s, warm = set_up(name, wl, seed, work)
        bench = Bench(cli, name, wl, seed, work)
        if warm.failed or warm.wrong:
            runs = [warm]
        elif not trace:
            detail["objects"] = run_cycles([bench], seconds)
            runs = [bench]
        else:
            # each object is processed untraced and then traced, so that
            # drifts in machine speed cancel out of the overhead
            tracer = Tracer()
            traced = Bench(cli, name, wl, seed, work, tracer)
            counters = LayerCounters(traced)
            register_targets(tracer, counters)
            objects = run_cycles([bench, traced], seconds)
            tracer.dump(OUT_DIR / f"spans-{name}.jsonl")
            runs = [bench, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = [w for b in runs for w in b.wrong]
    failures = [f for b in runs for f in b.failures]
    attempted = sum(b.attempted for b in runs)
    failed = sum(b.failed for b in runs)
    detail["failures"] = failures[:20]
    if wrong:
        detail["wrong_outputs"] = wrong
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, detail
    if warm.failed:
        raise SystemExit("error: set-up cycle failed: " + "; ".join(warm.failures))
    if trace:
        overhead_pct = (traced.op_seconds / bench.op_seconds - 1) * 100
        metrics = per_layer_metrics(tracer, counters, objects, overhead_pct, detail)
    else:
        metrics = {key: (value, END_TO_END_UNITS[key]) for key, value in end_to_end_metrics(bench, setup_s, detail).items()}
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, detail


def print_result(result: dict, detail: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{detail['workload']:>15}  {key:<52} {metric['value']:>14.6g} {metric['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Run every workload, each in its own process."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "msrcode" / "__init__.py").is_file():
        print(f"error: no msrcode package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result, detail = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_result(result, detail)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
