"""The scripts under tools/ run and print what their docstrings promise."""

import re
import runpy
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

FLOAT = r"\d+(\.\d+)?(e[-+]\d+)?"


def test_decoder_mode_costs_reports_both_checks_at_every_stripe_count(capsys):
    """On [7,4]/GF(2^3) with one repeat: a line of measurements, then, for
    each check, runs of stripe counts that cover 1 .. 1100 in order, each
    naming the pick, the cheapest mode and a ratio of at least 1, and a
    last line with each check's worst ratio.  No timing is asserted."""
    main = runpy.run_path(str(TOOLS / "decoder_mode_costs.py"))["main"]
    assert main(["--codes", "7,4,3", "--repeat", "1"]) == 0
    header, *rows, last = capsys.readouterr().out.splitlines()
    keys = ["gbar_map", "pair map", "compose", "staged", "paired", "composed"]
    assert re.fullmatch(r"\[7,4\]/GF\(2\^3\): " + ", ".join(f"{key} {FLOAT}" for key in keys), header)
    row = re.compile(r"  (trusted|first) (\d+)-(\d+): pick (\w+), cheapest (\w+), worst (" + FLOAT + ")")
    covered = {"trusted": 0, "first": 0}
    for line in rows:
        check, lo, hi, pick, cheapest, ratio = row.fullmatch(line).group(1, 2, 3, 4, 5, 6)
        assert int(lo) == covered[check] + 1 and int(hi) >= int(lo)
        covered[check] = int(hi)
        assert pick in ("staged", "paired", "composed") and cheapest in ("staged", "paired", "composed")
        assert float(ratio) >= 1
    assert covered == {"trusted": 1100, "first": 1100}
    assert re.fullmatch(rf"worst: trusted {FLOAT} \(.+\); first {FLOAT} \(.+\)", last)
