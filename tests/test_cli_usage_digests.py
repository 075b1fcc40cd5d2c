"""Pinned help, usage and error output of `msrcode`.

Each case runs `main(argv)` with the terminal width fixed through COLUMNS
and LINES; the SHA-256 of the exit code, stdout and stderr must equal the
digest recorded below, so a change to how the parser is built shows up
here as soon as it alters one byte of what a user sees.

The text is argparse's, whose layout differs between Python minor
versions, so the digests hold for the version they were recorded on.

To print the digests of the current code (for a change that is meant to
alter CLI help or usage):

    PYTHONPATH=src python tests/test_cli_usage_digests.py
"""

import contextlib
import hashlib
import io
import os
import sys
from unittest import mock

import pytest

from msrcode.cli import main

RECORDED_ON = (3, 11)

CASES = {
    "help": ["-h"],
    "encode-help": ["encode", "-h"],
    "reconstruct-help": ["reconstruct", "-h"],
    "repair-help": ["repair", "-h"],
    "update-help": ["update", "-h"],
    "simulate-help": ["simulate", "--help"],
    "params-help": ["params", "-h"],
    "no-command": [],
    "unknown-command": ["frobnicate", "x"],
    "missing-option": ["update", "shares", "--stripe", "1", "--symbol", "2"],
    "bad-int": ["params", "--n", "twenty", "--k", "10", "--m", "5"],
}

# COLUMNS -> case name -> digest; a 40-column terminal wraps the help
# differently, so the width must reach every formatter of the parser
DIGESTS = {
    80: {
        "help": "8592967feafda4d0", "encode-help": "1704d7c97ff5fcf8", "reconstruct-help": "fd216603a520c419",
        "repair-help": "aadba5591abdefb0", "update-help": "9d2f2dc52278147c", "simulate-help": "f2c25a2263bafbce",
        "params-help": "83bb29794a3584f7", "no-command": "057ca98b70316bac", "unknown-command": "cec983acc27b8a93",
        "missing-option": "99ab850b3a567441", "bad-int": "db117c23fd89754b",
    },
    40: {
        "help": "ed15ede95f26977e", "encode-help": "39edf79bb1f375b4", "reconstruct-help": "6133a4e3e5ae3a75",
        "repair-help": "8ac7c36d95bbcaf0", "update-help": "4dd5c649d443dbd0", "simulate-help": "e6b267651bea8bed",
        "params-help": "1d1db91e1d991c78", "no-command": "fff66615478a28c1", "unknown-command": "da0083dc4b5401c9",
        "missing-option": "7a94633cdda333d1", "bad-int": "6b8447ac17244567",
    },
}


def run_case(name: str, columns: int) -> str:
    out, err = io.StringIO(), io.StringIO()
    env = {"COLUMNS": str(columns), "LINES": "24"}
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(CASES[name])
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.skipif(sys.version_info[:2] != RECORDED_ON, reason="digests pin the argparse text of Python 3.11")
@pytest.mark.parametrize("columns", sorted(DIGESTS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_text_matches_recorded_digest(name, columns):
    assert run_case(name, columns) == DIGESTS[columns][name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for columns in DIGESTS:
        print(f"    {columns}: {({name: run_case(name, columns) for name in CASES})!r},")
    print("}")
