"""Pinned CLI output of seeded `msrcode reconstruct` runs.

Each case encodes a seeded input, deletes some share files, and runs
`reconstruct --corrupt-nodes ... --seed s` for several seeds.  The SHA-256
of stdout (output path replaced by a placeholder) followed by the restored
bytes must equal the digest recorded below, so any change to node choice,
round order, decoding outcome or printed report shows up here.  Decoder
rewrites are meant to leave these digests alone.

To print the digests of the current code (for a change that is meant to
alter CLI output):

    PYTHONPATH=src python tests/test_cli_seed_determinism.py
"""

import contextlib
import hashlib
import io
import random
import tempfile
from pathlib import Path

import pytest

from msrcode.cli import main

# name -> (n, k, m, input bytes, deleted node labels, lying node labels, seeds)
CASES = {
    "20-10-gf32-lying": (20, 10, 5, 600, (), "1,2,3", range(10)),
    "24-12-gf256-lying": (24, 12, 8, 1024, (), "1,2,3", range(10)),
    "20-10-gf32-degraded": (20, 10, 5, 400, (4, 6, 9, 12, 15, 17, 19), "2,8", range(3)),
    "24-12-gf256-degraded": (24, 12, 8, 600, (3, 5, 10, 14, 18, 21, 23), "2,8", range(3)),
}

DIGESTS = {
    "20-10-gf32-lying": [
        "6db6fc295d1cdec2", "5f81a14342e0d9fc", "ce3372e02cd8dfe5", "6312786ef1ae4b1c", "df018ac23b08d094",
        "434a2239f0a296d5", "819992fd976ba02d", "9d38fa30c54cf30a", "43a835811b8196b9", "fcd4aa809e859e04",
    ],
    "24-12-gf256-lying": [
        "d99d70d3be5db53a", "63cc0bac81d8359a", "f4651f4565e1c174", "9a678838823b8955", "9d87831668ff4c78",
        "ad85cd897422e375", "1572fa64109e170e", "b4cbeabc5b7f9c6d", "fcdfbf6af68ab30c", "ada8001c2eabcb95",
    ],
    "20-10-gf32-degraded": ["f9948aaa45350299", "a5796c81f2f52ac2", "a394e85f9b97feeb"],
    "24-12-gf256-degraded": ["8c9a8eaf3a00608c", "bac79a251742736b", "c85eaad15e083a64"],
}


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_case(root: Path, name: str) -> list[str]:
    """Encode the case's input under root and return one digest per seed."""
    n, k, m, size, deleted, lying, seeds = CASES[name]
    rng = random.Random(f"{name}:input")
    data = bytes(rng.randrange(256) for _ in range(size))
    src, shares = root / "input.bin", root / "shares"
    src.write_bytes(data)
    code, _ = _cli(["encode", str(src), str(shares), "--n", str(n), "--k", str(k), "--m", str(m)])
    assert code == 0
    for label in deleted:
        (shares / f"share_{label:03d}.msrc").unlink()

    digests = []
    for seed in seeds:
        dst = root / f"restored-{seed}.bin"
        code, stdout = _cli(["reconstruct", str(shares), str(dst), "--corrupt-nodes", lying, "--seed", str(seed)])
        assert code == 0, stdout
        restored = dst.read_bytes()
        assert restored == data
        blob = stdout.replace(str(dst), "<output>").encode() + restored
        digests.append(hashlib.sha256(blob).hexdigest()[:16])
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_reconstruct_output_matches_recorded_digests(tmp_path, name):
    assert run_case(tmp_path, name) == DIGESTS[name]


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(Path(tmp), case)!r},")
