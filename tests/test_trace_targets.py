"""The names perfbench traces still exist: a renamed or folded function
would leave its span unwrapped and its per-layer metric reading zero
without any error."""

import ast
import importlib
from pathlib import Path

from msrcode import reconstruct

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def trace_targets():
    """TRACE_TARGETS as written in perfbench/run.py, read without importing it."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACE_TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACE_TARGETS")


def test_reconstruct_trace_targets_resolve():
    attrs = [attr for _, owner, attr in trace_targets() if owner == "msrcode.reconstruct"]
    assert set(attrs) >= {"pair_solve", "row_decode", "classify_columns", "recover_z", "check_crc", "invert"}
    for attr in attrs:
        assert callable(getattr(reconstruct, attr, None)), attr


# Targets that already resolve to nothing: the CLI reads shares through
# shares.ShareDir, not a read_share of its own, and msr solves no system
# per repair.  Any other target that stops resolving is a new loss.
DEAD_TARGETS = {("msrcode.cli", "read_share"), ("msrcode.msr", "solve")}


def test_cli_trace_targets_resolve():
    targets = {(owner, attr) for _, owner, attr in trace_targets()}
    cli_names = {
        "helper_symbol",
        "regenerate",
        "write_share",
        "generator_set",
        "encode_all",
        "bytes_to_symbols",
        "symbols_to_bytes",
        "reconstruct_progressive",
    }
    assert {("msrcode.cli", attr) for attr in cli_names} <= targets
    unresolved = set()
    for owner, attr in targets:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls, None)
        if not callable(getattr(target, attr, None)):
            unresolved.add((owner, attr))
    assert unresolved == DEAD_TARGETS


def test_faulty_reads_call_the_traced_reconstruct_layers(monkeypatch):
    """The reconstruct.row_decode, recover_z and invert spans see a faulty
    read: each is called through the module, so a counting wrapper put on
    the module name, as the tracer puts its own, counts a seeded [24,12]
    read with 3 missing and 3 lying shares."""
    import random

    from msrcode.msr import encode_all, generator_set, make_params
    from msrcode.sim import corrupt_symbols

    params = make_params(24, 12, 8)
    gen = generator_set(params)
    rng = random.Random("traced faulty read")
    stripes = []
    for _ in range(4):
        payload = [rng.randrange(gen.field.order) for _ in range(reconstruct.crc_payload_length(params))]
        stripes.append(encode_all(gen, reconstruct.attach_crc(params, payload)))
    drawn = rng.sample(range(params.n), 6)
    missing, lying = set(drawn[:3]), set(drawn[3:])

    def source(node, stripe):
        if node in missing:
            return None
        column = stripes[stripe][node].symbols
        return corrupt_symbols(random.Random(f"{node}:{stripe}"), gen.field, column) if node in lying else column

    calls = dict.fromkeys(("row_decode", "recover_z", "invert"), 0)
    def counting(attr, traced):
        return lambda *args: calls.__setitem__(attr, calls[attr] + 1) or traced(*args)

    for attr in calls:
        monkeypatch.setattr(reconstruct, attr, counting(attr, getattr(reconstruct, attr)))
    assert reconstruct.reconstruct_file(gen, source, len(stripes), 3).success
    assert all(calls.values()), calls
