"""Pinned CLI output of seeded `msrcode` runs.

Each reconstruct case encodes a seeded input, deletes some share files, and
runs `reconstruct --corrupt-nodes ... --seed s` for several seeds, or, in
the clean cases, plain `reconstruct --seed s`.  The SHA-256 of stdout
(output path replaced by a placeholder) followed by the restored bytes must
equal the digest recorded below, so any change to node choice, round order,
decoding outcome or printed report shows up here.  Decoder rewrites are
meant to leave these digests alone.

Each write case pins the bytes that `encode`, `repair` and `update` leave
on disk: the digest of a step is the SHA-256 of its stdout (paths replaced
by placeholders) followed by the name and bytes of every file it may write:
the whole share directory for encode and update, the rebuilt share for
repair.
Encoder and repair kernels are meant to leave these digests alone too.

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

# name -> (n, k, m, input bytes, deleted node labels, lying node labels or
# None for a read without the hook, seeds, flavor)
CASES = {
    "20-10-gf32-lying": (20, 10, 5, 600, (), "1,2,3", range(10), "systematic"),
    "24-12-gf256-lying": (24, 12, 8, 1024, (), "1,2,3", range(10), "systematic"),
    "20-10-gf32-degraded": (20, 10, 5, 400, (4, 6, 9, 12, 15, 17, 19), "2,8", range(3), "systematic"),
    "24-12-gf256-degraded": (24, 12, 8, 600, (3, 5, 10, 14, 18, 21, 23), "2,8", range(3), "systematic"),
    # m > 8: two bytes per stored symbol
    "20-10-gf2048-degraded": (20, 10, 11, 600, (4, 9, 15), "2,8", range(3), "systematic"),
    # 79 stripes, 78 of them decoded from the trusted set: enough to compose
    # its decoder, which the shorter cases never do
    "20-10-gf32-long-lying": (20, 10, 5, 4096, (), "1,2,3", range(3), "systematic"),
    # clean reads: systematic ones decode every stripe in closed form from
    # the systematic nodes and node 0, at w = 1 and w = 2 bytes a symbol; a
    # vandermonde one runs the read session
    "20-10-gf32-clean": (20, 10, 5, 1024, (), None, range(3), "systematic"),
    "24-12-gf256-clean": (24, 12, 8, 4096, (), None, range(3), "systematic"),
    "20-10-gf2048-clean": (20, 10, 11, 600, (), None, range(3), "systematic"),
    "20-10-gf32-clean-vandermonde": (20, 10, 5, 1024, (), None, range(3), "vandermonde"),
}

DIGESTS = {
    "20-10-gf32-lying": [
        "1d24c773699a4ee8", "fe7a8939f212ed1b", "1d24c773699a4ee8", "1d24c773699a4ee8", "1d24c773699a4ee8",
        "8c181a87276f8a4f", "fe7a8939f212ed1b", "1d24c773699a4ee8", "1d24c773699a4ee8", "8c181a87276f8a4f",
    ],
    "24-12-gf256-lying": [
        "477cf5da44814757", "226709a9f7c35c1a", "ee57a33f6b192dde", "2a2f245c5ee86c07", "226709a9f7c35c1a",
        "dec72a553950d205", "226709a9f7c35c1a", "ee57a33f6b192dde", "477cf5da44814757", "83e59db728ab2593",
    ],
    "20-10-gf32-degraded": ["1c9b9c0067a9a87b", "1c9b9c0067a9a87b", "1c9b9c0067a9a87b"],
    "24-12-gf256-degraded": ["4771d54103193f37", "4771d54103193f37", "947b24e3c4b0596e"],
    "20-10-gf2048-degraded": ["6049b7e53e6ef1b2", "6049b7e53e6ef1b2", "6049b7e53e6ef1b2"],
    "20-10-gf32-long-lying": ["8a18682358852342", "bdd20e14dfe15c85", "8a18682358852342"],
    "20-10-gf32-clean": ["bbbd72c77f711c97", "bbbd72c77f711c97", "bbbd72c77f711c97"],
    "24-12-gf256-clean": ["5c201faf451c892f", "5c201faf451c892f", "5c201faf451c892f"],
    "20-10-gf2048-clean": ["8e83a35468f7585b", "8e83a35468f7585b", "8e83a35468f7585b"],
    # a vandermonde read takes no closed form: the read session's output
    "20-10-gf32-clean-vandermonde": ["78ddc7e547b8353d", "78ddc7e547b8353d", "78ddc7e547b8353d"],
}


# name -> (n, k, m, flavor, input bytes); every write case runs the same steps
WRITE_CASES = {
    "20-10-gf32-systematic": (20, 10, 5, "systematic", 600),
    "24-12-gf256-systematic": (24, 12, 8, "systematic", 1024),
    "20-10-gf32-vandermonde": (20, 10, 5, "vandermonde", 600),
    "20-10-gf2048-systematic": (20, 10, 11, "systematic", 600),
    # long enough for encode's composed map: 32 stripes at m = 8, 103 at
    # m = 11 and 79 of a shortened vandermonde code
    "24-12-gf256-systematic-long": (24, 12, 8, "systematic", 4096),
    "20-10-gf2048-systematic-long": (20, 10, 11, "systematic", 12288),
    "20-10-gf32-vandermonde-long": (20, 10, 5, "vandermonde", 4096),
}

WRITE_DIGESTS = {
    "20-10-gf32-systematic": {"encode": "d1173ac7aa1d797e", "repair": "940f3b04182ace3b", "update": "683ad3f5b8e278ce"},
    "24-12-gf256-systematic": {"encode": "ecb5705d06f2de37", "repair": "53da8bd54e742eb3", "update": "a4378a08b8f9a897"},
    "20-10-gf32-vandermonde": {"encode": "da19bde36eb40e1b", "repair": "e5f6453f35900a44", "update": "87823769ab537c74"},
    "20-10-gf2048-systematic": {"encode": "575b0eb4785da260", "repair": "ec4ce4a32de85650", "update": "4d2681a073edd57c"},
    "24-12-gf256-systematic-long": {"encode": "cca521e5483f33f5", "repair": "bbb820c2d8220855", "update": "9d8fa784bb960fd3"},
    "20-10-gf2048-systematic-long": {"encode": "531635c25c43387d", "repair": "fc3acdc9f4e3a623", "update": "c7750f21c9527619"},
    "20-10-gf32-vandermonde-long": {"encode": "e5e85af1844a3458", "repair": "ae6a29fce8062bbf", "update": "beee17411fa87da5"},
}


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_case(root: Path, name: str) -> list[str]:
    """Encode the case's input under root and return one digest per seed."""
    n, k, m, size, deleted, lying, seeds, flavor = CASES[name]
    rng = random.Random(f"{name}:input")
    data = bytes(rng.randrange(256) for _ in range(size))
    src, shares = root / "input.bin", root / "shares"
    src.write_bytes(data)
    code, _ = _cli(["encode", str(src), str(shares), "--n", str(n), "--k", str(k), "--m", str(m), "--flavor", flavor])
    assert code == 0
    for label in deleted:
        (shares / f"share_{label:03d}.msrc").unlink()

    digests = []
    for seed in seeds:
        dst = root / f"restored-{seed}.bin"
        hook = [] if lying is None else ["--corrupt-nodes", lying]
        code, stdout = _cli(["reconstruct", str(shares), str(dst), *hook, "--seed", str(seed)])
        assert code == 0, stdout
        restored = dst.read_bytes()
        assert restored == data
        blob = stdout.replace(str(dst), "<output>").encode() + restored
        digests.append(hashlib.sha256(blob).hexdigest()[:16])
    return digests


def _step_digest(stdout: str, root: Path, files) -> str:
    blob = stdout.replace(str(root), "<root>").encode()
    for path in files:
        blob += path.name.encode() + b"\0" + path.read_bytes()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_write_case(root: Path, name: str) -> dict[str, str]:
    """Encode, repair node 5 and update one symbol under root; return one
    digest per step."""
    n, k, m, flavor, size = WRITE_CASES[name]
    rng = random.Random(f"{name}:input")
    data = bytes(rng.randrange(256) for _ in range(size))
    src, shares = root / "input.bin", root / "shares"
    src.write_bytes(data)
    argv = ["encode", str(src), str(shares), "--n", str(n), "--k", str(k), "--m", str(m), "--flavor", flavor]
    code, stdout = _cli(argv)
    assert code == 0, stdout
    files = sorted(shares.iterdir())
    digests = {"encode": _step_digest(stdout, root, files)}

    failed = shares / "share_005.msrc"
    encoded = failed.read_bytes()
    failed.unlink()
    code, stdout = _cli(["repair", str(shares), "--failed", "5"])
    assert code == 0, stdout
    assert failed.read_bytes() == encoded
    digests["repair"] = _step_digest(stdout, root, [failed])

    code, stdout = _cli(["update", str(shares), "--stripe", "1", "--symbol", "12", "--value", "3"])
    assert code == 0, stdout
    digests["update"] = _step_digest(stdout, root, files)
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_reconstruct_output_matches_recorded_digests(tmp_path, name):
    assert run_case(tmp_path, name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(WRITE_CASES))
def test_written_shares_match_recorded_digests(tmp_path, name):
    assert run_write_case(tmp_path, name) == WRITE_DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(Path(tmp), case)!r},")
    print("}\nWRITE_DIGESTS = {")
    for case in WRITE_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_write_case(Path(tmp), case)!r},")
    print("}")
