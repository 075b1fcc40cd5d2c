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
