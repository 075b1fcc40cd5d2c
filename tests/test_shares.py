"""ShareDir: lazy, cached access to a share directory, and in-place patches."""

import random

import pytest

import msrcode.shares as shares_mod
from msrcode.cli import main
from msrcode.shares import HEADER_SIZE, ShareDir, read_share


@pytest.fixture
def share_dir(tmp_path):
    src = tmp_path / "data.bin"
    src.write_bytes(random.Random(11).randbytes(500))
    out = tmp_path / "shares"
    assert main(["encode", str(src), str(out), "--n", "20", "--k", "10", "--m", "5"]) == 0
    return out


def test_column_parses_each_node_once_and_only_on_demand(share_dir, monkeypatch):
    parsed = []

    def counting_read_share(path):
        parsed.append(path.name)
        return read_share(path)

    monkeypatch.setattr(shares_mod, "read_share", counting_read_share)
    shares = ShareDir(share_dir)
    assert parsed == []
    for stripe in range(shares.manifest.stripe_count):
        assert shares.column(3, stripe) == read_share(shares.file(3)).stripes[stripe]
    assert shares.column(7, 0) is not None
    assert parsed == ["share_004.msrc", "share_008.msrc"]


def test_missing_share_is_none(share_dir):
    (share_dir / "share_002.msrc").unlink()
    shares = ShareDir(share_dir)
    assert shares.column(1, 0) is None
    assert shares.column(2, 0) is not None


def test_manifest_path_may_live_elsewhere(share_dir, tmp_path):
    moved = tmp_path / "elsewhere.json"
    (share_dir / "manifest.json").rename(moved)
    shares = ShareDir(share_dir, moved)
    assert shares.manifest.n == 20
    assert shares.column(0, 0) is not None


def test_patch_writes_only_the_given_symbols(share_dir):
    shares = ShareDir(share_dir)
    stripe = shares.manifest.stripe_count - 1
    old = shares.column(5, stripe)
    before = shares.file(5).read_bytes()
    changes = [(1, old[1] ^ 3), (7, old[7] ^ 1)]
    shares.patch(5, stripe, changes)

    after = shares.file(5).read_bytes()
    assert len(after) == len(before)
    alpha = shares.manifest.k - 1
    changed = [pos for pos in range(len(before)) if before[pos] != after[pos]]
    assert changed == [HEADER_SIZE + stripe * alpha + row for row, _ in changes]
    expected = list(old)
    for row, value in changes:
        expected[row] = value
    assert shares.column(5, stripe) == tuple(expected)
    assert ShareDir(share_dir).column(5, stripe) == tuple(expected)
