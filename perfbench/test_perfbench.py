"""Self-test of the benchmark at its smallest size (--seconds 0: one object
per workload), run on a copy of the checkout.

Checks that every metric declared in BENCHMARK.json is printed with its
unit, that a tampered output fails the run, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def make_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src" / "msrcode", dest / "src" / "msrcode", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_bench(checkout: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    code, lines = run_bench(make_checkout(tmp_path), workload, trace)
    assert code == 0, lines[-5:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


# Appended to the copied msrcode/cli.py: a CLI that exits 0 but leaves a
# wrong result behind.
TAMPER = {
    "restored": """
def main(argv=None, _main=main):
    code = _main(argv)
    if argv[0] == "reconstruct" and code == 0:
        out = Path(argv[2])
        data = bytearray(out.read_bytes())
        data[-1] ^= 1
        out.write_bytes(bytes(data))
    return code
""",
    "repaired": """
def main(argv=None, _main=main):
    code = _main(argv)
    if argv[0] == "repair" and code == 0:
        share = Path(argv[1]) / f"share_{int(argv[3]):03d}.msrc"
        data = bytearray(share.read_bytes())
        data[-1] ^= 1
        share.write_bytes(bytes(data))
    return code
""",
    "update-skipped": """
def main(argv=None, _main=main):
    return 0 if argv[0] == "update" else _main(argv)
""",
}


@pytest.mark.parametrize("tamper", sorted(TAMPER))
def test_tampered_output_fails_the_run(tmp_path, tamper):
    checkout = make_checkout(tmp_path)
    cli = checkout / "src" / "msrcode" / "cli.py"
    cli.write_text(cli.read_text() + TAMPER[tamper])
    code, lines = run_bench(checkout, "clean-rw", 0)
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["metrics"] == {}


def test_refuses_to_run_without_the_sources(tmp_path):
    code, lines = run_bench(make_checkout(tmp_path, with_sources=False), WORKLOADS[0], 0)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
