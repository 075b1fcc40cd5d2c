"""ShareDir: lazy, cached access to a share directory, and in-place patches;
the share codec against a per-symbol reference."""

import dataclasses
import itertools
import json
import math
import random
import struct

import pytest

import msrcode.shares as shares_mod
from msrcode.cli import main
from msrcode.bits import bytes_to_symbols
from msrcode.field import Field
from msrcode.linalg import LinearMap
from msrcode.msr import InvalidParams, WrongLength, encode_all, generator_set, make_params
from msrcode.reconstruct import attach_crc, crc_payload_length
from msrcode.shares import (
    CRC_SCHEME,
    ENCODE_MAP_FROM,
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    Manifest,
    ShareDir,
    ShareFormatError,
    encode_map_pays,
    pack_columns,
    share_bodies,
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
    read = shares_mod.ShareDir._read

    def counting_read(self, node, *rest):
        parsed.append(self.file(node).name)
        return read(self, node, *rest)

    _, expected = reference_read(share_dir / "share_004.msrc")
    monkeypatch.setattr(shares_mod.ShareDir, "_read", counting_read)
    shares = ShareDir(share_dir)
    assert parsed == []
    for stripe in range(shares.manifest.stripe_count):
        assert shares.column(3, stripe) == expected[stripe]
    assert shares.column(7, 0) is not None
    assert shares.body(3) == shares.file(3).read_bytes()[HEADER_SIZE:]
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
    shares.patch(stripe, {5: changes})

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


def test_stripe_column_reads_what_column_parses(share_dir):
    """The one-stripe read gives every node's every stripe as the whole-file
    parse does, reading each (node, stripe) once."""
    whole = ShareDir(share_dir)
    stripes = whole.manifest.stripe_count
    with ShareDir(share_dir) as alone:
        for node in range(whole.manifest.n):
            for stripe in range(stripes):
                assert alone.stripe_column(node, stripe) == whole.column(node, stripe)
                assert alone.stripe_column(node, stripe) == whole.column(node, stripe)
    assert alone.files_read == whole.manifest.n * stripes


def test_patch_writes_several_nodes_and_forgets_their_columns(share_dir):
    with ShareDir(share_dir) as shares:
        old = {node: shares.stripe_column(node, 1) for node in (2, 9)}
        changes = {2: [(0, old[2][0] ^ 1)], 9: [(8, old[9][8] ^ 4), (3, old[9][3] ^ 2)]}
        shares.patch(1, changes)
        for node, rows in changes.items():
            expected = list(old[node])
            for row, value in rows:
                expected[row] = value
            assert shares.stripe_column(node, 1) == tuple(expected)
            assert ShareDir(share_dir).column(node, 1) == tuple(expected)


# ---------------------------------------------------------------------------
# the share codec against a per-symbol reference

_HEADER = struct.Struct("<4sHHHHHI")


def reference_write(path, params, node, stripes):
    """write_share of pack_columns' body as one int.to_bytes per symbol."""
    width = (params.m + 7) // 8
    blob = bytearray(_HEADER.pack(MAGIC, FORMAT_VERSION, params.n, params.k, params.m, node, len(stripes)))
    for stripe in stripes:
        for sym in stripe:
            blob += int(sym).to_bytes(width, "little")
    path.write_bytes(bytes(blob))


def reference_read(path):
    """A share file's node index and per-stripe symbol tuples, as one
    int.from_bytes and range check per symbol."""
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
    return node_index, stripes


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


def random_columns(rng, params, stripes):
    top = (1 << params.m) - 1
    symbol = lambda: rng.choice((0, 1, top, rng.randrange(top + 1)))
    return [tuple(symbol() for _ in range(params.alpha)) for _ in range(stripes)]


def write_columns(path, params, node, stripes):
    write_share(path, params.n, params.k, params.m, node, len(stripes), pack_columns(params.m, stripes))


def save_manifest(root, params, stripes):
    """A manifest of the shortest file that needs exactly this many
    stripes of the code, naming share_filename(node) for every node; such
    a file, if there is one, holds at most the stripes' payload bits."""
    payload = crc_payload_length(params)
    sizes = range(stripes * payload * params.m // 8 + 1)
    file_length = next(size for size in sizes if stripe_count(size, params.m, payload) == stripes)
    Manifest(
        n=params.n, k=params.k, m=params.m, flavor="systematic", primitive_poly=Field(params.m).poly,
        file_length=file_length, stripe_count=stripes, payload_symbols_per_stripe=payload,
        crc_scheme=CRC_SCHEME, shares=[{"node": node + 1, "file": share_filename(node)} for node in range(params.n)],
    ).save(root / "manifest.json")


@pytest.mark.parametrize("m", range(2, 17))
def test_codec_matches_per_symbol_reference(tmp_path, m):
    """The one writer writes what the reference writes for m = 2 .. 16.
    From m = 3 a manifest can describe the share directory, and ShareDir
    reads back, whole and stripe by stripe, what the reference reads.  The
    stripe counts are ones a file can have at m = 3, whose [7,4] code
    holds one 3-bit payload symbol per stripe: 1, 3 and 8 stripes for 0,
    1 and 3 bytes, none for 2 or 7."""
    params, fits = code_for(m)
    assert fits == (m > 2)
    rng = random.Random(f"codec:{m}")
    for stripes in (0, 1, 3, 8):
        node = rng.randrange(params.n)
        columns = random_columns(rng, params, stripes)
        ours, ref = tmp_path / share_filename(node), tmp_path / "ref.msrc"
        write_columns(ours, params, node, columns)
        reference_write(ref, params, node, columns)
        assert ours.read_bytes() == ref.read_bytes()
        assert len(ref.read_bytes()) == HEADER_SIZE + stripes * params.alpha * ((m + 7) // 8)
        assert reference_read(ours) == (node, columns)
        if fits and stripes:  # a manifest has at least one stripe
            save_manifest(tmp_path, params, stripes)
            with ShareDir(tmp_path) as shares:
                assert shares.body(node) == ours.read_bytes()[HEADER_SIZE:]
                assert [shares.column(node, stripe) for stripe in range(stripes)] == columns
                assert [shares.stripe_column(node, stripe) for stripe in range(stripes)] == columns
        ours.unlink()


# a code with a payload for every m from 3 to 16, full length (unscaled
# vandermonde) at m = 3 .. 5 and shortened (column-scaled) at every m but 3
FILE_CODES = [
    (7, 4, 3), (15, 8, 4), (10, 5, 4), (20, 10, 5), (31, 6, 5), (18, 9, 6), (20, 10, 7),
    (24, 12, 8), (20, 10, 9), (18, 9, 10), (20, 10, 11), *((10, 5, m) for m in range(12, 17)),
]


def reference_bodies(gen, data):
    """The staged encode: the file split into m-bit symbols, each stripe's
    payload padded and attach_crc'ed, encode_all's columns, and each
    node's symbols packed one int.to_bytes at a time."""
    p = gen.params
    payload = crc_payload_length(p)
    symbols = bytes_to_symbols(data, p.m)
    bodies = [bytearray() for _ in range(p.n)]
    for s in range(stripe_count(len(data), p.m, payload)):
        chunk = symbols[s * payload : (s + 1) * payload]
        for share in encode_all(gen, attach_crc(p, chunk + [0] * (payload - len(chunk)))):
            for symbol in share.symbols:
                bodies[share.node_index] += symbol.to_bytes((p.m + 7) // 8, "little")
    return [bytes(body) for body in bodies]


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
@pytest.mark.parametrize("n,k,m", FILE_CODES)
def test_share_bodies_match_the_staged_encode(n, k, m, flavor):
    """Empty and one-byte files, files ending inside a stripe, and files
    ending one byte short of, on and one byte past a run of stripes whose
    payloads end on a byte (8 / gcd(P, 8) stripes of P payload bits)."""
    p = make_params(n, k, m)
    gen = generator_set(p, flavor)
    payload_bits = crc_payload_length(p) * m
    run = math.lcm(payload_bits, 8) // 8  # bytes in one such run
    rng = random.Random(f"bodies:{n}:{k}:{m}:{flavor}")
    sizes = {0, 1, payload_bits // 16, payload_bits // 8 + 1, run - 1, run, run + 1, 2 * run, 2 * run + 3}
    for size in sorted(sizes):
        data = rng.randbytes(size)
        bodies = share_bodies(gen, bytes_to_symbols(data, payload_bits) or [0])
        assert len(bodies[0]) == stripe_count(size, m, crc_payload_length(p)) * p.alpha * ((m + 7) // 8)
        assert bodies == reference_bodies(gen, data), size


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
@pytest.mark.parametrize("n,k,m", [(20, 10, 5), (24, 12, 8)])
def test_cli_encode_writes_the_staged_bodies_on_both_sides_of_the_threshold(tmp_path, n, k, m, flavor):
    """CLI encode of an empty file, and of the longest files of
    ENCODE_MAP_FROM[m] - 1 stripes (the staged encode) and ENCODE_MAP_FROM[m]
    stripes (the composed map), writes reference_bodies' bytes after each
    share's header."""
    p = make_params(n, k, m)
    gen = generator_set(p, flavor)
    payload = crc_payload_length(p)
    threshold = ENCODE_MAP_FROM[m]
    rng = random.Random(f"threshold:{n}:{k}:{m}:{flavor}")
    for stripes in (1, threshold - 1, threshold):
        size = 0 if stripes == 1 else stripes * payload * m // 8
        assert stripe_count(size, m, payload) == stripes
        assert encode_map_pays(p, stripes) == (stripes == threshold)
        data = rng.randbytes(size)
        src, out = tmp_path / f"{stripes}.bin", tmp_path / str(stripes)
        src.write_bytes(data)
        argv = ["encode", str(src), str(out), "--n", str(n), "--k", str(k), "--m", str(m), "--flavor", flavor]
        assert main(argv) == 0
        bodies = [(out / share_filename(node)).read_bytes()[HEADER_SIZE:] for node in range(n)]
        assert bodies == reference_bodies(gen, data), size


def test_encode_map_pays_only_for_small_codes():
    """The stripe threshold is ENCODE_MAP_FROM[m], the break-even measured
    per m, below the table entries per input from m = 4 on; the images'
    bytes cap the code.  [255,128]/GF(2^8) would need about 17 GB of tables
    and [100,50]/GF(2^8) about 384 MB, so no file of theirs takes the map."""
    for n, k, m in [(255, 128, 8), (100, 50, 8), (40, 20, 8), (28, 14, 8)]:
        assert not encode_map_pays(make_params(n, k, m), 1 << 30), (n, k, m)
    assert sorted(ENCODE_MAP_FROM) == list(range(2, 17))
    assert all(ENCODE_MAP_FROM[m] < LinearMap.table_entries(m) for m in range(4, 17))
    for (n, k, m), threshold in [((27, 14, 8), 9), ((20, 10, 5), 5), ((18, 9, 16), 190), ((3, 2, 2), 2)]:
        p = make_params(n, k, m)
        assert ENCODE_MAP_FROM[m] == threshold
        assert not encode_map_pays(p, threshold - 1) and encode_map_pays(p, threshold), (n, k, m)


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
    byte short or long, raises ShareFormatError in the reference and makes
    the node an erasure in ShareDir."""
    params, fits = code_for(m)
    rng = random.Random(f"spoiled:{m}")
    stripes = 3
    if fits:
        save_manifest(tmp_path, params, stripes)
    good = random_columns(rng, params, stripes)
    path = tmp_path / share_filename(0)
    write_columns(path, params, 0, good)
    write_columns(tmp_path / share_filename(1), params, 1, random_columns(rng, params, stripes))
    blob = path.read_bytes()
    spoiled = rejected_bodies(m, blob)
    assert len(spoiled) == (2 if m in (8, 16) else 4)
    for name, body in spoiled.items():
        path.write_bytes(body)
        with pytest.raises(ShareFormatError):
            reference_read(path)
        if fits:
            shares = ShareDir(tmp_path)
            assert shares.column(0, 0) is None, name
            assert shares.body(0) is None, name
            assert shares.column(1, stripes - 1) is not None
    if fits:
        path.write_bytes(blob)
        assert ShareDir(tmp_path).column(0, stripes - 1) == good[-1]


# file names whose JSON text needs escapes: quotes, backslashes, control
# characters, non-ASCII, and the empty name
AWKWARD_NAMES = ["share_000.msrc", 'a "quoted" \\ name', "tab\tnew\nline\r", "\x00\x1f\x7f", "ünïcødé ☃ 𝄞", "</x>", ""]


@pytest.mark.parametrize("count", [0, 1, 20, 255])
def test_manifest_save_writes_what_json_dumps_writes(tmp_path, count):
    """save writes json.dumps(indent=2, sort_keys=True)'s text plus a
    newline, byte for byte."""
    rng = random.Random(f"manifest:{count}")
    shares = [{"node": node + 1, "file": f"{rng.choice(AWKWARD_NAMES)}{node}"} for node in range(count)]
    manifest = Manifest(
        n=count, k=max(count // 2, 2), m=rng.randrange(2, 17), flavor="vandermonde", primitive_poly=0x1100B,
        file_length=rng.randrange(1 << 40), stripe_count=0, payload_symbols_per_stripe=83,
        crc_scheme='crc "32" \\ é', shares=shares,
    )
    manifest.save(tmp_path / "manifest.json")
    document = {f.name: getattr(manifest, f.name) for f in dataclasses.fields(manifest)}
    expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "manifest.json").read_bytes() == expected.encode("ascii")
