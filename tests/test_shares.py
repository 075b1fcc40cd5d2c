"""ShareDir: lazy, cached access to a share directory, and in-place patches;
the share codec against a per-symbol reference."""

import itertools
import random
import struct

import pytest

import msrcode.shares as shares_mod
from msrcode.cli import main
from msrcode.field import Field
from msrcode.msr import InvalidParams, WrongLength, make_params
from msrcode.reconstruct import crc_payload_length
from msrcode.shares import (
    CRC_SCHEME,
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    Manifest,
    ShareDir,
    ShareFile,
    ShareFormatError,
    read_share,
    share_filename,
    stripe_count,
    write_share,
)


@pytest.fixture
def share_dir(tmp_path):
    src = tmp_path / "data.bin"
    src.write_bytes(random.Random(11).randbytes(500))
    out = tmp_path / "shares"
    assert main(["encode", str(src), str(out), "--n", "20", "--k", "10", "--m", "5"]) == 0
    return out


def test_column_parses_each_node_once_and_only_on_demand(share_dir, monkeypatch):
    parsed = []

    def counting_read_share(path, *rest):
        parsed.append(path.name)
        return read_share(path, *rest)

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


# ---------------------------------------------------------------------------
# the share codec against a per-symbol reference

_HEADER = struct.Struct("<4sHHHHHI")


def reference_write(path, share):
    """write_share as one int.to_bytes per symbol."""
    width = (share.m + 7) // 8
    blob = bytearray(_HEADER.pack(MAGIC, FORMAT_VERSION, share.n, share.k, share.m, share.node_index, share.stripe_count))
    for stripe in share.stripes:
        for sym in stripe:
            blob += int(sym).to_bytes(width, "little")
    path.write_bytes(bytes(blob))


def reference_read(path):
    """read_share as one int.from_bytes and range check per symbol."""
    blob = path.read_bytes()
    if len(blob) < HEADER_SIZE:
        raise ShareFormatError(f"{path}: truncated header")
    magic, version, n, k, m, node_index, count = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ShareFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ShareFormatError(f"{path}: unsupported version {version}")
    params = make_params(n, k, m)
    if not 0 <= node_index < n:
        raise ShareFormatError(f"{path}: node index {node_index} out of range")
    width = (m + 7) // 8
    body = blob[HEADER_SIZE:]
    if len(body) != count * params.alpha * width:
        raise ShareFormatError(f"{path}: payload is {len(body)} bytes")
    stripes = []
    pos = 0
    for _ in range(count):
        stripe = []
        for _ in range(params.alpha):
            value = int.from_bytes(body[pos : pos + width], "little")
            if value >= 1 << m:
                raise ShareFormatError(f"{path}: symbol {value} outside GF(2^{m})")
            stripe.append(value)
            pos += width
        stripes.append(tuple(stripe))
    return ShareFile(n=n, k=k, m=m, node_index=node_index, stripes=stripes)


def code_for(m):
    """A valid [n, k] over GF(2^m) with n <= 24, and whether a stripe of it
    holds the CRC trailer: one that does if any, then the largest k and n.
    GF(4) admits none that does, so no manifest describes a GF(4) share
    directory."""
    codes = []
    for n, k in itertools.product(range(3, 25), range(2, 13)):
        try:
            params = make_params(n, k, m)
        except InvalidParams:
            continue
        try:
            crc_payload_length(params)
            codes.append((True, k, n, params))
        except WrongLength:
            codes.append((False, k, n, params))
    fits, _, _, params = max(codes, key=lambda code: code[:3])
    return params, fits


def random_share(rng, params, node, stripes):
    top = (1 << params.m) - 1
    symbol = lambda: rng.choice((0, 1, top, rng.randrange(top + 1)))
    columns = [tuple(symbol() for _ in range(params.alpha)) for _ in range(stripes)]
    return ShareFile(params.n, params.k, params.m, node, columns)


@pytest.mark.parametrize("m", range(2, 17))
def test_codec_matches_per_symbol_reference(tmp_path, m):
    params, _ = code_for(m)
    rng = random.Random(f"codec:{m}")
    for stripes in (0, 1, 2, 7):
        share = random_share(rng, params, rng.randrange(params.n), stripes)
        ours, ref = tmp_path / "ours.msrc", tmp_path / "ref.msrc"
        write_share(ours, share)
        reference_write(ref, share)
        assert ours.read_bytes() == ref.read_bytes()
        assert len(ref.read_bytes()) == HEADER_SIZE + stripes * params.alpha * ((m + 7) // 8)
        assert read_share(ours) == reference_read(ours) == share


def rejected_bodies(m, blob):
    """Each way to spoil a well-formed share's body, by name."""
    width = (m + 7) // 8
    spoiled = {"one-byte-short": blob[:-1], "one-byte-long": blob + b"\0"}
    if m % 8:  # the symbol's bytes can hold 2^m
        too_big = (1 << m).to_bytes(width, "little")
        spoiled["symbol-too-big-first"] = blob[:HEADER_SIZE] + too_big + blob[HEADER_SIZE + width :]
        spoiled["symbol-too-big-last"] = blob[:-width] + too_big
    return spoiled


@pytest.mark.parametrize("m", range(2, 17))
def test_spoiled_body_is_rejected_and_an_erasure(tmp_path, m):
    """A symbol >= 2^m at the first or the last position, or a body one
    byte short or long, raises ShareFormatError in the codec and in the
    reference, and makes the node an erasure in ShareDir."""
    params, fits = code_for(m)
    rng = random.Random(f"spoiled:{m}")
    stripes = 3
    if fits:
        payload = crc_payload_length(params)
        # the shortest file that needs exactly this many stripes
        file_length = next(size for size in itertools.count() if stripe_count(size, m, payload) == stripes)
        Manifest(
            n=params.n, k=params.k, m=m, flavor="systematic", primitive_poly=Field(m).poly,
            file_length=file_length, stripe_count=stripes, payload_symbols_per_stripe=payload,
            crc_scheme=CRC_SCHEME, shares=[{"node": node + 1, "file": share_filename(node)} for node in range(params.n)],
        ).save(tmp_path / "manifest.json")
    good = random_share(rng, params, 0, stripes)
    path = tmp_path / share_filename(0)
    write_share(path, good)
    write_share(tmp_path / share_filename(1), random_share(rng, params, 1, stripes))
    blob = path.read_bytes()
    spoiled = rejected_bodies(m, blob)
    assert len(spoiled) == (2 if m in (8, 16) else 4)
    for name, body in spoiled.items():
        path.write_bytes(body)
        with pytest.raises(ShareFormatError):
            read_share(path)
        with pytest.raises(ShareFormatError):
            reference_read(path)
        if fits:
            shares = ShareDir(tmp_path)
            assert shares.column(0, 0) is None, name
            assert shares.column(1, stripes - 1) is not None
    if fits:
        path.write_bytes(blob)
        assert ShareDir(tmp_path).column(0, stripes - 1) == good.stripes[-1]
