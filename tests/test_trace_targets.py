"""The names perfbench traces in msrcode.reconstruct still exist: a renamed
or folded function would leave its span unwrapped and its per-layer metric
reading zero without any error."""

import ast
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
