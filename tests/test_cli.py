"""CLI round trips over real files: encode, reconstruct, repair, update."""

import errno
import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from msrcode.bits import (
    bytes_to_symbols,
    int_to_symbols,
    spread_symbols,
    symbol_width,
    symbols_to_bytes,
    symbols_to_int,
)
from msrcode import cli
from msrcode.cli import main
from msrcode.linalg import LinearMap
from msrcode.msr import GeneratorSet, encode_all, generator_set, make_params, update_patch
from msrcode.reconstruct import attach_crc, crc_payload_length
from msrcode.shares import (
    HEADER_SIZE,
    Manifest,
    ShareDir,
    share_filename,
    stripe_count,
    write_share,
)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def encode_dir(tmp_path, data: bytes, n=7, k=4, m=3, flavor="systematic", name="data.bin"):
    src = tmp_path / name
    src.write_bytes(data)
    out = tmp_path / "shares"
    rc = main(
        ["encode", str(src), str(out), "--n", str(n), "--k", str(k), "--m", str(m), "--flavor", flavor]
    )
    assert rc == 0
    return src, out


# ---------------------------------------------------------------------------
# bit packing helpers


def reference_symbols_to_bytes(symbols, m, byte_length=None):
    """MSB-first packing one byte at a time, the reference for
    symbols_to_bytes."""
    out = bytearray()
    acc = nbits = 0
    for sym in symbols:
        acc = (acc << m) | sym
        nbits += m
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
            acc &= (1 << nbits) - 1
    if byte_length is None:
        return bytes(out)
    if byte_length > len(out) and nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out[:byte_length])


def test_bit_packing_roundtrip():
    rng = random.Random(0)
    for m in (3, 5, 8, 11):
        for size in (0, 1, 7, 64, 301):
            data = bytes(rng.randrange(256) for _ in range(size))
            symbols = bytes_to_symbols(data, m)
            assert all(0 <= s < (1 << m) for s in symbols)
            assert symbols_to_bytes(symbols, m, size) == data
            for length in (None, 0, size // 2, size + 1):
                assert symbols_to_bytes(symbols, m, length) == reference_symbols_to_bytes(symbols, m, length)

    # wide symbols: each stripe's payload as one int, joined into the file.
    # 8 / gcd(bits, 8) stripes fill whole bytes (8 for 415 bits at m = 5, 1
    # for 1024 bits at m = 8); cover 1 to 2 * group + 1 stripes and every
    # file length that ends inside the last stripe
    for n, k, m in ((20, 10, 5), (24, 12, 8)):
        payload_len = crc_payload_length(make_params(n, k, m))
        bits = payload_len * m
        group = 8 // math.gcd(bits, 8)
        assert (bits, group) in {(415, 8), (1024, 1)}
        payloads = [[rng.randrange(1 << m) for _ in range(payload_len)] for _ in range(2 * group + 1)]
        values = [symbols_to_int(payload, m) for payload in payloads]
        for count in range(1, 2 * group + 2):
            flat = [symbol for payload in payloads[:count] for symbol in payload]
            whole = reference_symbols_to_bytes(flat, m, len(flat))
            for length in range((count - 1) * bits // 8 + 1, count * bits // 8 + 1):
                assert symbols_to_bytes(values[:count], bits, length) == whole[:length]
            assert symbols_to_bytes(values[:count], bits) == reference_symbols_to_bytes(flat, m)
        assert symbols_to_bytes([], bits, 0) == b""


def reference_bytes_to_symbols(data, m):
    """MSB-first splitting one byte at a time, the reference for
    bytes_to_symbols."""
    out = []
    acc = nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= m:
            nbits -= m
            out.append((acc >> nbits) & ((1 << m) - 1))
            acc &= (1 << nbits) - 1
    if nbits:
        out.append((acc << (m - nbits)) & ((1 << m) - 1))
    return out


@pytest.mark.parametrize("m", [*range(2, 17), 415, 957, 1024])
def test_bytes_to_symbols_matches_per_byte_reference(m):
    """Every length up to three runs, and one past: a run is lcm(m, 8) bits
    and at least about 256, so lengths end inside a run, on its boundary
    and one byte either side.  415, 957 and 1024 bits are stripe payloads
    of [20,10] at m = 5 and 11 and [24,12] at m = 8."""
    rng = random.Random(f"split:{m}")
    run = math.lcm(m, 8) * max(1, 256 // math.lcm(m, 8)) // 8
    for size in range(3 * run + 2):
        data = rng.randbytes(size)
        assert bytes_to_symbols(data, m) == reference_bytes_to_symbols(data, m), size
    assert bytes_to_symbols(b"\xff" * run, m) == reference_bytes_to_symbols(b"\xff" * run, m)


@pytest.mark.parametrize("m", range(2, 17))
def test_spread_symbols_matches_int_to_symbols(m):
    """spread_symbols lays int_to_symbols' symbols out one per
    symbol_width(m) bytes, big-endian, value after value: for 1 to 20
    symbols (powers of two, one either side) and the message lengths of
    codes at m; zero, all-ones, random and one-symbol values, one at a time
    and all at once, and no values at all."""
    rng = random.Random(f"spread:{m}")
    width = symbol_width(m)
    for count in [*range(1, 21), 31, 32, 33, 72, 90, 132]:
        top = (1 << count * m) - 1
        values = [0, top, rng.getrandbits(count * m), (1 << m) - 1 << m * rng.randrange(count)]
        expected = [b"".join(x.to_bytes(width, "big") for x in int_to_symbols(value, m, count)) for value in values]
        for value, own in zip(values, expected):
            assert spread_symbols([value], m, count) == own, (count, value)
        assert spread_symbols(values, m, count) == b"".join(expected)
        assert spread_symbols([], m, count) == b""


# ---------------------------------------------------------------------------
# encode / reconstruct


def test_encode_layout_and_manifest(tmp_path):
    data = bytes(range(97)) * 3
    _, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    manifest = Manifest.load(out / "manifest.json")
    assert manifest.payload_symbols_per_stripe == 83  # 90 - 7 trailer symbols
    assert manifest.file_length == len(data)
    assert len(manifest.shares) == 20
    # the body reads only under a header of node 0 and the manifest's stripe count
    body = ShareDir(out).body(0)
    assert body is not None
    # header + stripes * alpha symbols * 1 byte for m=5
    assert len(body) == manifest.stripe_count * 9
    expected = HEADER_SIZE + manifest.stripe_count * 9
    assert ShareDir(out).file(0).stat().st_size == expected


@pytest.fixture
def built(monkeypatch):
    """The GeneratorSets whose encode_region gets built, in order."""
    built = []
    encode_region = GeneratorSet.encode_region.func

    def counting(gen):
        built.append(gen)
        return encode_region(gen)

    prop = functools.cached_property(counting)
    prop.__set_name__(GeneratorSet, "encode_region")
    monkeypatch.setattr(GeneratorSet, "encode_region", prop)
    return built


def assert_shares_match_encode_all(out, data, n, k, m, stripes):
    params = make_params(n, k, m)
    gen, shares = generator_set(params), ShareDir(out)
    payload = crc_payload_length(params)
    symbols = bytes_to_symbols(data, m)
    for s in range(stripes):
        chunk = symbols[s * payload : (s + 1) * payload]
        expected = encode_all(gen, attach_crc(params, chunk + [0] * (payload - len(chunk))))
        assert [shares.column(node, s) for node in range(n)] == [share.symbols for share in expected]


def encode_stripes(root, rng, stripes, n, k, m):
    """Encode the longest file of that many stripes; its bytes and share dir."""
    bits = crc_payload_length(make_params(n, k, m)) * m
    size = stripes * bits // 8
    assert stripe_count(size, m, bits // m) == stripes < stripe_count(size + 1, m, bits // m)
    root.mkdir()
    data = rng.randbytes(size)
    return data, encode_dir(root, data, n=n, k=k, m=m)[1]


@pytest.mark.parametrize("n,k,m", [(20, 10, 5), (24, 12, 8), (27, 14, 8)])
def test_encode_builds_its_region_map_once(tmp_path, built, n, k, m):
    """encode builds GeneratorSet.encode_region once for a file of any
    length, here 1, 7, 8 and 9 stripes, and writes the shares encode_all
    gives.  reconstruct, update, repair and simulate never build it."""
    rng = random.Random(f"region:{m}")
    for stripes in (1, 7, 8, 9):
        built.clear()
        data, out = encode_stripes(tmp_path / str(stripes), rng, stripes, n, k, m)
        assert len(built) == 1
        assert_shares_match_encode_all(out, data, n, k, m, stripes)

    built.clear()
    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst), "--corrupt-nodes", "2", "--seed", "3"]) == 0
    assert dst.read_bytes() == data
    assert main(["update", str(out), "--stripe", "1", "--symbol", "4", "--value", "1"]) == 0
    (out / "share_003.msrc").unlink()
    assert main(["repair", str(out), "--failed", "3"]) == 0
    argv = ["simulate", "--n", str(n), "--k", str(k), "--m", str(m), "--p-grid", "0,0.1", "--trials", "2"]
    assert main(argv + ["--out", str(tmp_path / "sim.csv")]) == 0
    assert built == []


@pytest.mark.parametrize("n,k,m", [(28, 14, 8), (40, 20, 8)])
def test_region_encode_matches_encode_all_for_large_codes(tmp_path, built, n, k, m):
    """Larger codes, [28,14] and [40,20] over GF(2^8), write the shares
    encode_all gives through one region map, here for a 33-stripe file."""
    stripes = 33
    data, out = encode_stripes(tmp_path / "long", random.Random(f"large:{n}"), stripes, n, k, m)
    assert len(built) == 1
    assert_shares_match_encode_all(out, data, n, k, m, stripes)


def test_roundtrip_clean(tmp_path):
    data = bytes(random.Random(1).randrange(256) for _ in range(2048))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    dst = tmp_path / "restored.bin"
    rc = main(["reconstruct", str(out), str(dst)])
    assert rc == 0
    assert dst.read_bytes() == data


def test_roundtrip_empty_file(tmp_path):
    src, out = encode_dir(tmp_path, b"")
    manifest = Manifest.load(out / "manifest.json")
    assert manifest.stripe_count == 1
    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst)]) == 0
    assert dst.read_bytes() == b""


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_roundtrip_with_corruption_7_4_6(tmp_path, flavor):
    # n = 7 = 2^3 - 1 is full length
    data = b"The progressive decoder touches extra nodes only when needed."
    src, out = encode_dir(tmp_path, data, flavor=flavor)
    dst = tmp_path / "restored.bin"
    rc = main(["reconstruct", str(out), str(dst), "--corrupt-nodes", "2,5", "--seed", "7"])
    assert rc == 0
    assert dst.read_bytes() == data


def test_roundtrip_with_corruption_shortened_vandermonde_20_10(tmp_path):
    # n = 20 < 2^5 - 1 is shortened, where the power basis spans the
    # evaluation code rather than the root-based one
    data = bytes(random.Random(3).randrange(256) for _ in range(300))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5, flavor="vandermonde")
    dst = tmp_path / "restored.bin"
    rc = main(["reconstruct", str(out), str(dst), "--corrupt-nodes", "4,13", "--seed", "5"])
    assert rc == 0
    assert dst.read_bytes() == data


def test_reconstruct_reports_bad_nodes(tmp_path, capsys):
    data = bytes(range(256))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    dst = tmp_path / "restored.bin"
    rc = main(["reconstruct", str(out), str(dst), "--corrupt-nodes", "1,2,3,4,5", "--seed", "3"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert dst.read_bytes() == data
    for line in captured.splitlines():
        if line.startswith("stripe "):
            reported = json.loads(line.split("bad_nodes=")[1])
            assert set(reported) <= {1, 2, 3, 4, 5}


def test_reconstruct_beyond_capability_exit_2(tmp_path):
    data = bytes(range(64))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    dst = tmp_path / "restored.bin"
    rc = main(["reconstruct", str(out), str(dst), "--corrupt-nodes", "1,2,3,4,5,6,7,8", "--seed", "1"])
    assert rc == 2


def test_reconstruct_deterministic(tmp_path, capsys):
    data = bytes(random.Random(9).randrange(256) for _ in range(512))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    capsys.readouterr()  # drop the encode output
    outputs = []
    for run in range(2):
        dst = tmp_path / f"restored{run}.bin"
        rc = main(["reconstruct", str(out), str(dst), "--corrupt-nodes", "4,11", "--seed", "42"])
        assert rc == 0
        outputs.append((dst.read_bytes(), capsys.readouterr().out.replace(f"restored{run}", "restored")))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == data


def test_clean_reconstruct_reads_k_share_files(tmp_path, capsys, monkeypatch):
    """A clean multi-stripe file is read from its first stripe's k nodes
    alone: the other n - k share files are never opened."""
    import msrcode.shares

    data = bytes(random.Random(10).randrange(256) for _ in range(1000))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    parsed = []
    read = msrcode.shares.ShareDir._read
    counting = lambda self, node, *rest: parsed.append(node) or read(self, node, *rest)
    monkeypatch.setattr(msrcode.shares.ShareDir, "_read", counting)
    capsys.readouterr()
    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst), "--seed", "4"]) == 0
    assert dst.read_bytes() == data
    assert len(parsed) == len(set(parsed)) == 10
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("stripe 0: nodes_accessed=10 rounds=0 ")
    assert lines[1] == "file: 19 stripe(s) from the trusted set, 1 progressive, 10 share file(s) read, bad_nodes=[]"


def test_clean_reconstruct_builds_one_k_node_decoder(tmp_path, monkeypatch):
    """A clean read's trusted set is the k nodes of stripe 0's first round,
    so the decoder that round built serves every later stripe too.  With
    20 stripes, for which reconstruct.decoder_mode composes stripe 0, that
    decoder is composed once, before stripe 0's first round, and the read
    never builds gen.gbar_map, which only the staged decode applies; a
    4-stripe read stays staged.  A clean systematic update decodes its one
    stripe in closed form from the systematic nodes: no decoder, no
    gbar_map, no LinearMap and no inverse; a vandermonde update still runs
    the staged single-stripe round."""
    import msrcode.linalg
    import msrcode.reconstruct

    data = random.Random(12).randbytes(1024)
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    built, composed, gbar_maps = [], [], []
    gbar_map = GeneratorSet.gbar_map.func
    prop = functools.cached_property(lambda gen: gbar_maps.append(gen) or gbar_map(gen))
    prop.__set_name__(GeneratorSet, "gbar_map")
    monkeypatch.setattr(GeneratorSet, "gbar_map", prop)

    class CountingDecoder(msrcode.reconstruct.KNodeDecoder):
        def __init__(self, gen, nodes, *args):
            built.append(tuple(nodes))
            super().__init__(gen, nodes, *args)

        def compose(self):
            composed.append(self.nodes)
            super().compose()

    monkeypatch.setattr(msrcode.reconstruct, "KNodeDecoder", CountingDecoder)
    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst), "--seed", "4"]) == 0
    assert dst.read_bytes() == data
    assert len(built) == 1
    assert composed == built
    assert gbar_maps == []

    built.clear(), composed.clear()
    fills, inverts = [], []
    fill = LinearMap._fill
    monkeypatch.setattr(LinearMap, "_fill", lambda linear_map, *args: fills.append(args) or fill(linear_map, *args))
    invert = msrcode.linalg.invert
    counting_invert = lambda *args: inverts.append(args) or invert(*args)
    monkeypatch.setattr(msrcode.linalg, "invert", counting_invert)
    monkeypatch.setattr(msrcode.reconstruct, "invert", counting_invert)
    assert main(["update", str(out), "--stripe", "3", "--symbol", "5", "--value", "7"]) == 0
    assert built == composed == gbar_maps == fills == inverts == []

    vandermonde = tmp_path / "vandermonde"
    vandermonde.mkdir()
    src, out = encode_dir(vandermonde, data, n=20, k=10, m=5, flavor="vandermonde")
    fills.clear()
    assert main(["update", str(out), "--stripe", "3", "--symbol", "5", "--value", "7"]) == 0
    assert built and not composed
    assert gbar_maps and fills and inverts

    small = tmp_path / "small"
    small.mkdir()
    data = random.Random(13).randbytes(200)
    src, out = encode_dir(small, data, n=20, k=10, m=5)
    assert main(["reconstruct", str(out), str(dst), "--seed", "4"]) == 0
    assert dst.read_bytes() == data
    assert built and not composed


@pytest.mark.parametrize("seed,liar", [(0, 8), (1, 6)])
def test_liar_in_stripe_0s_first_round_of_a_long_file(tmp_path, capsys, monkeypatch, seed, liar):
    """A 79-stripe file whose liar is the first node stripe 0's first round
    picks: that round's composed decoder fails the CRC, the v = 1 round
    finds the liar, and the nodes it trusts get a decoder of their own,
    composed too.  The output is the one the staged first round gives."""
    import msrcode.reconstruct

    data = random.Random("first-round-liar").randbytes(4096)
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    first = tuple(random.Random(f"{seed}:stripe:0").sample(range(20), 10))
    assert first[0] == liar - 1
    composed = []
    compose = msrcode.reconstruct.KNodeDecoder.compose
    monkeypatch.setattr(
        msrcode.reconstruct.KNodeDecoder, "compose", lambda decoder: composed.append(decoder.nodes) or compose(decoder)
    )
    dst = tmp_path / "restored.bin"
    capsys.readouterr()
    assert main(["reconstruct", str(out), str(dst), "--corrupt-nodes", str(liar), "--seed", str(seed)]) == 0
    assert dst.read_bytes() == data
    assert capsys.readouterr().out == (
        f"stripe 0: nodes_accessed=12 rounds=1 bad_nodes=[{liar}]\n"
        f"file: 78 stripe(s) from the trusted set, 1 progressive, 12 share file(s) read, bad_nodes=[{liar}]\n"
        f"reconstructed 4096 bytes -> {dst}\n"
    )
    assert len(composed) == 2 and composed[0] == first and liar - 1 not in composed[1]


def test_trusted_set_takes_the_accepted_rounds_inverse(tmp_path, capsys, monkeypatch):
    """[24,12] over GF(2^8) with 3 missing and 3 lying shares: the trusted
    set starts with the alpha nodes whose G^-1 stripe 0's accepted round
    inverted, so its decoder takes that inverse and its peel map from the
    read session.  The read calls invert once fewer and builds one peel map
    fewer than with a decoder that inverts for itself, and prints the
    same."""
    import msrcode.reconstruct as rec

    data = random.Random(30).randbytes(1024)
    src, out = encode_dir(tmp_path, data, n=24, k=12, m=8)
    shares = ShareDir(out)
    for node in (2, 9, 17):
        shares.file(node).unlink()
    capsys.readouterr()
    invert, peel_map, decoder = rec.invert, rec._peel_map, rec.KNodeDecoder

    class InvertingDecoder(decoder):
        def __init__(self, gen, nodes, inverses=None):
            super().__init__(gen, nodes)

    runs = []
    for k_node_decoder in (decoder, InvertingDecoder):
        calls = {"invert": 0, "peel": 0}
        counting = lambda name, f: lambda *args: calls.__setitem__(name, calls[name] + 1) or f(*args)
        monkeypatch.setattr(rec, "invert", counting("invert", invert))
        monkeypatch.setattr(rec, "_peel_map", counting("peel", peel_map))
        monkeypatch.setattr(rec, "KNodeDecoder", k_node_decoder)
        dst = tmp_path / "restored.bin"
        assert main(["reconstruct", str(out), str(dst), "--corrupt-nodes", "5,12,20", "--seed", "8"]) == 0
        assert dst.read_bytes() == data
        runs.append((calls, capsys.readouterr().out))
    (memo, memo_out), (own, own_out) = runs
    assert memo_out == own_out
    assert "file: 7 stripe(s) from the trusted set, 1 progressive" in memo_out
    assert (own["invert"] - memo["invert"], own["peel"] - memo["peel"]) == (1, 1)


def test_manifest_plus_k_shares_suffice(tmp_path):
    data = bytes(range(200))
    src, out = encode_dir(tmp_path, data)
    # delete all but k = 4 shares
    shares = ShareDir(out)
    for node in (1, 4, 6):
        shares.file(node).unlink()
    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst)]) == 0
    assert dst.read_bytes() == data
    # k - 1 shares must always fail
    shares.file(0).unlink()
    assert main(["reconstruct", str(out), str(dst)]) == 2


def test_roundtrip_large_file_with_corruption(tmp_path, capsys):
    # randomized size up to 1 MiB (here 13,519 stripes); encode takes about
    # four fifths of it, so this is the slowest test in the suite (about
    # 2.5 s on a 2-core Xeon)
    rng = random.Random(2**20)
    size = rng.randrange(1 << 20)
    data = rng.randbytes(size)
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    dst = tmp_path / "restored.bin"
    # at seed 12 stripe 0 opens nodes 1, 3, 5, 7, 9, 13, 14, 15, 16 and 19,
    # so both liars are read and must be located
    rc = main(["reconstruct", str(out), str(dst), "--corrupt-nodes", "3,14", "--seed", "12"])
    assert rc == 0
    summary = capsys.readouterr().out.splitlines()[-2]
    assert summary.startswith("file: ") and summary.endswith("bad_nodes=[3, 14]")
    assert dst.read_bytes() == data


def test_share_order_independent(tmp_path):
    data = bytes(random.Random(2).randrange(256) for _ in range(333))
    src, out = encode_dir(tmp_path, data, n=9, k=5, m=4)
    results = set()
    for seed in range(6):
        dst = tmp_path / f"r{seed}.bin"
        assert main(["reconstruct", str(out), str(dst), "--seed", str(seed)]) == 0
        results.add(dst.read_bytes())
    assert results == {data}


# ---------------------------------------------------------------------------
# repair


def test_repair_byte_identical(tmp_path, capsys):
    data = bytes(random.Random(3).randrange(256) for _ in range(1024))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    shares = ShareDir(out)
    target = shares.file(2)
    before = sha(target)
    target.unlink()
    rc = main(["repair", str(out), "--failed", "3"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert sha(target) == before
    assert "18 symbols/stripe" in captured  # d symbols moved per stripe
    assert "90" in captured  # vs B = k*alpha


def test_repair_all_nodes_7_4_6(tmp_path):
    data = b"exactly regenerated, not merely equivalent"
    src, out = encode_dir(tmp_path, data)
    shares = ShareDir(out)
    for node in range(7):
        target = shares.file(node)
        before = sha(target)
        target.unlink()
        assert main(["repair", str(out), "--failed", str(node + 1)]) == 0
        assert sha(target) == before


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
def test_repair_needs_no_matrix_inversion(tmp_path, monkeypatch, flavor):
    """Repair maps are built in closed form: with linalg.invert raising,
    wherever msrcode.msr could reach it, repair still rebuilds shares
    byte for byte."""
    from msrcode import linalg, msr

    def no_invert(*args):
        raise AssertionError("repair inverted a matrix")

    monkeypatch.setattr(linalg, "invert", no_invert)
    monkeypatch.setattr(msr, "invert", no_invert, raising=False)
    data = bytes(random.Random(4).randrange(256) for _ in range(700))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5, flavor=flavor)
    shares = ShareDir(out)
    for node in (0, 9, 19):
        target = shares.file(node)
        before = sha(target)
        target.unlink()
        assert main(["repair", str(out), "--failed", str(node + 1)]) == 0
        assert sha(target) == before


def test_repair_not_enough_helpers(tmp_path):
    data = b"helpers required: d of them"
    src, out = encode_dir(tmp_path, data)
    shares = ShareDir(out)
    for node in (1, 2):
        shares.file(node).unlink()
    rc = main(["repair", str(out), "--failed", "1"])
    assert rc == 1


# ---------------------------------------------------------------------------
# update


def test_update_patches_share_files(tmp_path, capsys):
    data = bytes(random.Random(4).randrange(256) for _ in range(600))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    rc = main(["update", str(out), "--stripe", "0", "--symbol", "0", "--value", "17"])
    captured = capsys.readouterr().out
    assert rc == 0
    # payload symbol 0 is the (0,0) diagonal entry: n - alpha + 1 = 12 nodes
    assert "12 node(s)" in captured

    # reconstruct must return the updated content
    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst)]) == 0
    symbols = bytes_to_symbols(data, 5)
    symbols += [0] * (83 - len(symbols) % 83 if len(symbols) % 83 else 0)
    symbols[0] = 17
    assert dst.read_bytes() == symbols_to_bytes(symbols, 5, len(data))


def test_update_noop(tmp_path, capsys):
    data = bytes(range(100))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    current = bytes_to_symbols(data, 5)[5]
    before = {p.name: sha(p) for p in out.iterdir()}
    rc = main(["update", str(out), "--stripe", "0", "--symbol", "5", "--value", str(current)])
    assert rc == 0
    assert "empty patch" in capsys.readouterr().out
    assert {p.name: sha(p) for p in out.iterdir()} == before


def test_clean_update_builds_no_encode_map(tmp_path, monkeypatch, capsys):
    """update computes its patch in one msr.update_patch call, which
    re-encodes only the shares it patches, straight off G's columns: it
    builds neither G's row map nor the encode command's region map."""
    data = bytes(random.Random(5).randrange(256) for _ in range(600))
    _, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    built, patches = [], []

    def recording_generator_set(*args, **kwargs):
        built.append(generator_set(*args, **kwargs))
        return built[-1]

    def recording_update_patch(*args):
        patches.append(update_patch(*args))
        return patches[-1]

    monkeypatch.setattr(cli, "generator_set", recording_generator_set)
    monkeypatch.setattr(cli, "update_patch", recording_update_patch)
    assert main(["update", str(out), "--stripe", "1", "--symbol", "3", "--value", "9"]) == 0
    assert "rewrote" in capsys.readouterr().out
    assert len(patches) == 1
    (gen,) = built
    assert "g_map" not in vars(gen) and "encode_region" not in vars(gen)
    assert "g_cols" in vars(gen)


def test_update_bad_index(tmp_path):
    src, out = encode_dir(tmp_path, b"xyz", n=20, k=10, m=5)
    assert main(["update", str(out), "--stripe", "0", "--symbol", "83", "--value", "1"]) == 1


def test_update_past_the_file_end_exits_1(tmp_path):
    """A symbol wholly past the file's last byte, or a value with a bit
    there, is padding, which encode leaves zero and reconstruct drops: the
    update exits 1 and writes nothing.  A value that keeps those bits zero
    updates the bits inside the file."""
    # 1,000 bytes are exactly 1,600 symbols of GF(2^5); stripe 19 starts at
    # symbol 19 * 83 = 1,577, so its symbol 50 (1,627) is past the end
    data = random.Random(21).randbytes(1000)
    _, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    before = _snapshot(out)
    assert main(["update", str(out), "--stripe", "19", "--symbol", "50", "--value", "3"]) == 1
    assert main(["update", str(out), "--stripe", "19", "--symbol", "23", "--value", "3"]) == 1
    assert _snapshot(out) == before
    assert main(["update", str(out), "--stripe", "19", "--symbol", "22", "--value", "3"]) == 0

    # 1,001 bytes end 3 bits into symbol 1,601 (stripe 19, symbol 24): its
    # low 2 bits are padding
    data = random.Random(22).randbytes(1001)
    root = tmp_path / "partial"
    root.mkdir()
    _, out = encode_dir(root, data, n=20, k=10, m=5)
    before = _snapshot(out)
    for value in (1, 2, 3, 31):
        assert main(["update", str(out), "--stripe", "19", "--symbol", "24", "--value", str(value)]) == 1
    assert _snapshot(out) == before
    assert main(["update", str(out), "--stripe", "19", "--symbol", "24", "--value", "20"]) == 0
    updated = data[:-1] + bytes([data[-1] & 0xF8 | 0b101])
    dst = root / "restored.bin"
    assert main(["reconstruct", str(out), str(dst)]) == 0
    assert dst.read_bytes() == updated
    (root / "fresh").mkdir()
    _, fresh = encode_dir(root / "fresh", updated, n=20, k=10, m=5)
    assert _snapshot(out) == _snapshot(fresh)


# ---------------------------------------------------------------------------
# params and simulate


def test_params_valid(capsys):
    assert main(["params", "--n", "20", "--k", "10", "--m", "5"]) == 0
    captured = capsys.readouterr().out
    assert "alpha=9 d=18 B=90" in captured
    assert "error capability (corrupted nodes tolerated): 5" in captured
    assert "systematic=12, vandermonde=20" in captured
    assert "FAIL" not in captured


def test_params_field_too_small(capsys):
    assert main(["params", "--n", "7", "--k", "4", "--m", "2"]) == 1
    captured = capsys.readouterr().out
    assert "FAIL  n <= 2^m-1" in captured
    assert "FieldTooSmall" in captured


def test_params_gcd_violation(capsys):
    assert main(["params", "--n", "8", "--k", "4", "--m", "4"]) == 1
    captured = capsys.readouterr().out
    assert "PASS  d <= n-1" in captured
    assert "FAIL  gcd(2^m-1, alpha) = 1" in captured
    assert "GcdViolation" in captured


@pytest.mark.parametrize("m", ["-1", "1", "17", "40"])
def test_params_field_degree_out_of_range(capsys, m):
    assert main(["params", "--n", "5", "--k", "3", "--m", m]) == 1
    captured = capsys.readouterr().out
    assert f"FAIL  2 <= m <= 16  (m={m})" in captured
    assert "FieldTooSmall" in captured
    assert "n <= 2^m-1" not in captured


def test_simulate_csv_deterministic(tmp_path):
    args = [
        "simulate", "--n", "7", "--k", "4", "--m", "3",
        "--p-grid", "0,0.2", "--trials", "30", "--seed", "5",
    ]
    outs = []
    for run in range(2):
        csv = tmp_path / f"sweep{run}.csv"
        assert main(args + ["--out", str(csv)]) == 0
        outs.append(csv.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == "p,proposed_fail,baseline_fail,mean_nodes,trials"
    assert lines[1].startswith("0,0.000000,0.000000,4.000000,30")


def test_simulate_gnuplot_emission(tmp_path):
    """The script names the CSV inside gnuplot single quotes, where a quote
    is written twice."""
    for csv_name in ("sweep.csv", "it's.csv"):
        csv = tmp_path / csv_name
        gp = tmp_path / "plot.gp"
        rc = main([
            "simulate", "--n", "7", "--k", "4", "--m", "3", "--p-grid", "0",
            "--trials", "5", "--out", str(csv), "--gnuplot", str(gp),
        ])
        assert rc == 0
        assert csv.exists()
        quoted = "'" + str(csv).replace("'", "''") + "'"
        assert gp.read_text().count(f"{quoted} every ::1") == 2


def test_simulate_gnuplot_without_out_exits_1(tmp_path, capsys):
    # the script would plot a CSV that stdout output never wrote
    gp = tmp_path / "plot.gp"
    rc = main([
        "simulate", "--n", "7", "--k", "4", "--m", "3", "--p-grid", "0",
        "--trials", "5", "--gnuplot", str(gp),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not gp.exists()


# ---------------------------------------------------------------------------
# malformed manifests


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return json.dumps(doc)

    return edit


def _drop(key):
    def edit(doc):
        del doc[key]
        return json.dumps(doc)

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: json.dumps(doc)[:-3], id="invalid-json"),
        pytest.param(lambda doc: json.dumps([doc]), id="not-an-object"),
        pytest.param(_drop("stripe_count"), id="missing-key"),
        pytest.param(_set("owner", "alice"), id="unknown-key"),
        pytest.param(_set("n", "20"), id="wrong-type"),
        pytest.param(_set("flavor", "cauchy"), id="unknown-flavor"),
        pytest.param(_set("shares", [{"node": 1}]), id="bad-share-entry"),
        pytest.param(
            lambda doc: json.dumps({**doc, "shares": [{**e, "node": True} if e["node"] == 1 else e for e in doc["shares"]]}),
            id="bool-share-node",
        ),
        pytest.param(
            lambda doc: json.dumps({**doc, "shares": [{**doc["shares"][0], "fiel": "typo.msrc"}] + doc["shares"][1:]}),
            id="unknown-share-entry-key",
        ),
        pytest.param(_set("primitive_poly", 0b100001), id="not-primitive"),
        pytest.param(_set("primitive_poly", 0b1011), id="wrong-degree-poly"),
        # the layout encode writes for 300 bytes: 83 payload symbols, 6 stripes
        pytest.param(_set("payload_symbols_per_stripe", -1), id="payload-negative"),
        pytest.param(_set("payload_symbols_per_stripe", 0), id="payload-zero"),
        pytest.param(_set("payload_symbols_per_stripe", 90), id="payload-whole-stripe"),
        pytest.param(_set("payload_symbols_per_stripe", 200), id="payload-beyond-stripe"),
        pytest.param(_set("file_length", 10**6), id="file-length-beyond-stripes"),
        pytest.param(_set("file_length", -5), id="file-length-negative"),
        pytest.param(_set("file_length", 0), id="file-length-zero"),
        pytest.param(_set("crc_scheme", "other"), id="unknown-crc-scheme"),
        pytest.param(_set("format_version", 9), id="unknown-format-version"),
    ],
)
def test_malformed_manifest_exits_1(tmp_path, capsys, edit):
    data = bytes(random.Random(300).randrange(256) for _ in range(300))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    path = out / "manifest.json"
    path.write_text(edit(json.loads(path.read_text())))
    capsys.readouterr()
    assert main(["reconstruct", str(out), str(tmp_path / "restored.bin")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_encode_has_no_seed_flag(tmp_path):
    src = tmp_path / "data.bin"
    src.write_bytes(b"x")
    argv = ["encode", str(src), str(tmp_path / "shares"), "--n", "7", "--k", "4", "--m", "3"]
    assert main(argv + ["--seed", "1"]) == 1


def test_encode_directory_input_exits_1(tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    argv = ["encode", str(tmp_path / "adir"), str(tmp_path / "shares"), "--n", "7", "--k", "4", "--m", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "shares").exists()


def test_encode_of_a_code_with_no_payload_room_exits_1(tmp_path, capsys):
    """[3,2]/GF(2^2) holds B = 2 symbols, fewer than the CRC-32 trailer's 16."""
    src = tmp_path / "data.bin"
    src.write_bytes(b"x")
    argv = ["encode", str(src), str(tmp_path / "shares"), "--n", "3", "--k", "2", "--m", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: B=2 leaves no payload after a 16-symbol integrity trailer\n"
    assert captured.out == ""
    assert not (tmp_path / "shares").exists()


def test_encode_into_existing_file_exits_1(tmp_path, capsys):
    src = tmp_path / "data.bin"
    src.write_bytes(b"an output directory that is a file")
    argv = ["encode", str(src), str(src), "--n", "7", "--k", "4", "--m", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {src}: not a directory\n"
    assert src.read_bytes() == b"an output directory that is a file"


def test_a_failed_share_write_exits_1_naming_the_file(tmp_path, monkeypatch, capsys):
    """Share files are written through os.open and os.write; a failed open
    or a failed write exits 1 with the file's name, for encode and repair."""
    src, out = encode_dir(tmp_path, random.Random(3).randbytes(300))
    target = ShareDir(out).file(2)
    target.unlink()
    target.mkdir()
    capsys.readouterr()
    assert main(["repair", str(out), "--failed", "3"]) == 1
    assert capsys.readouterr().err == f"error: {target}: Is a directory\n"
    target.rmdir()

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", full)
    assert main(["repair", str(out), "--failed", "3"]) == 1
    assert capsys.readouterr().err == f"error: {target}: {os.strerror(errno.ENOSPC)}\n"
    argv = ["encode", str(src), str(tmp_path / "again"), "--n", "7", "--k", "4", "--m", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'again' / share_filename(0)}: {os.strerror(errno.ENOSPC)}\n"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "msrcode", "params", "--n", "20", "--k", "10", "--m", "5"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "alpha" in done.stdout


WELL_FORMED = [
    ["encode", "in.bin", "shares", "--n", "20", "--k", "10", "--m", "5", "--flavor", "vandermonde"],
    ["reconstruct", "shares", "out.bin", "--corrupt-nodes", "3,9", "--seed", "7"],
    ["repair", "shares", "--failed", "3"],
    ["update", "shares", "--stripe", "0", "--symbol", "12", "--value", "17", "--manifest", "m.json"],
    ["simulate", "--trials", "5", "--p-grid", "0.1"],
    ["params", "--n", "20", "--k", "10", "--m", "5"],
]


class _CountingParser(cli._Parser):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def count_parsers(monkeypatch):
    monkeypatch.setattr(cli, "_Parser", _CountingParser)
    monkeypatch.setattr(_CountingParser, "built", 0)
    return _CountingParser


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: argv[0])
def test_a_well_formed_command_builds_one_parser(argv, count_parsers):
    """A command whose parser takes its arguments whole builds that parser
    alone, and parses to what the whole tree gives."""
    args = cli._parse(argv)
    assert count_parsers.built == 1
    assert vars(args) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv, parsers",
    [
        (["-h"], 7),
        (["frobnicate"], 7),
        ([], 7),
        # the command's own parser, then the whole tree reports the extra
        (["params", "--n", "20", "--k", "10", "--m", "5", "extra"], 8),
    ],
)
def test_help_and_usage_errors_go_through_the_whole_tree(argv, parsers, count_parsers, capsys):
    """The top-level parser and its six commands' parsers are built for
    top-level help, a missing or unknown command, and arguments left over."""
    with pytest.raises(SystemExit):
        cli._parse(argv)
    assert count_parsers.built == parsers
    capsys.readouterr()


def test_usage_error_exit_1():
    assert main(["encode"]) == 1
    assert main(["params", "--n", "6", "--k", "4", "--m", "3"]) == 1  # DTooLarge


# ---------------------------------------------------------------------------
# bad share files are erasures


def _snapshot(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _truncate_to(size):
    def damage(path, out, manifest):
        path.write_bytes(path.read_bytes()[:size])

    return damage


def _truncate_mid_payload(path, out, manifest):
    blob = path.read_bytes()
    path.write_bytes(blob[: HEADER_SIZE + (len(blob) - HEADER_SIZE) // 2])


def _bad_magic(path, out, manifest):
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])


def _other_node(path, out, manifest):
    # a well-formed share, but node 6's
    path.write_bytes(ShareDir(out).file(5).read_bytes())


def _wrong_stripe_count(path, out, manifest):
    # well-formed and self-consistent, one stripe short of the manifest
    node = next(entry["node"] - 1 for entry in manifest.shares if entry["file"] == path.name)
    body = ShareDir(out).body(node)
    stripe_size = (manifest.k - 1) * ((manifest.m + 7) // 8)
    write_share(path, manifest.n, manifest.k, manifest.m, node, manifest.stripe_count - 1, body[:-stripe_size])


def _symbol_out_of_field(path, out, manifest):
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE + 3] = 0xFF  # >= 2^5
    path.write_bytes(bytes(blob))


def _directory(path, out, manifest):
    path.unlink()
    path.mkdir()


def _fifo(path, out, manifest):
    # a blocking open or read of it would wait for a writer for good
    path.unlink()
    os.mkfifo(path)


BAD_SHARES = [
    pytest.param(_truncate_to(30), id="truncated-to-30-bytes"),
    pytest.param(_truncate_mid_payload, id="truncated-mid-payload"),
    pytest.param(_bad_magic, id="bad-magic"),
    pytest.param(_other_node, id="other-node-index"),
    pytest.param(_wrong_stripe_count, id="wrong-stripe-count"),
    pytest.param(_symbol_out_of_field, id="symbol-out-of-field"),
    pytest.param(_directory, id="directory"),
]


@pytest.mark.parametrize("damage", BAD_SHARES)
def test_bad_share_is_an_erasure(tmp_path, damage):
    data = bytes(random.Random(6).randrange(256) for _ in range(1000))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    manifest = Manifest.load(out / "manifest.json")
    damage(ShareDir(out).file(4), out, manifest)

    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst), "--seed", "3"]) == 0
    assert dst.read_bytes() == data

    # repair of node 3 needs all 18 remaining nodes, so it must skip node 5
    target = ShareDir(out).file(2)
    before = sha(target)
    target.unlink()
    assert main(["repair", str(out), "--failed", "3"]) == 0
    assert sha(target) == before


def test_fifo_share_is_an_erasure_to_readers_and_an_error_to_repair(tmp_path):
    """A FIFO in place of node 1's share is an erasure to reconstruct,
    repair and update, and repair of node 1 exits 1 naming it.  Each
    command runs in a child process with a timeout, so a blocking open
    fails the test instead of hanging the suite."""
    data = random.Random(17).randbytes(600)
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    fifo = ShareDir(out).file(0)
    _fifo(fifo, out, None)
    src_root = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src_root), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        argv = [sys.executable, "-m", "msrcode", *argv]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)

    # seeds 0, 4 and 5 pick node 1 among stripe 0's first k nodes
    for seed in (0, 4, 5):
        dst = tmp_path / f"restored{seed}.bin"
        done = run("reconstruct", str(out), str(dst), "--seed", str(seed))
        assert done.returncode == 0, done.stderr
        assert dst.read_bytes() == data

    target = ShareDir(out).file(1)
    before = sha(target)
    target.unlink()
    done = run("repair", str(out), "--failed", "2")
    assert done.returncode == 0, done.stderr
    assert sha(target) == before

    done = run("repair", str(out), "--failed", "1")
    assert done.returncode == 1
    assert done.stderr == f"error: {fifo}: {os.strerror(errno.ENXIO)}\n"

    done = run("update", str(out), "--stripe", "0", "--symbol", "12", "--value", "17")
    assert done.returncode == 0, done.stderr
    assert "skipped unreadable share(s) of node(s) [1]" in done.stdout


@pytest.mark.parametrize("m, top", [(5, 0x20), (11, 0x08)])
def test_out_of_field_symbol_in_last_stripe_is_an_erasure(tmp_path, m, top):
    """The last byte of a share is its last stripe's last symbol at m = 5,
    and that symbol's high byte at m = 11: setting a bit above 2^m there
    makes the share an erasure, so repair reads around it and still
    rebuilds the lost share byte for byte."""
    data = bytes(random.Random(16).randrange(256) for _ in range(1000))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=m)
    shares = ShareDir(out)
    damaged = shares.file(4)
    blob = bytearray(damaged.read_bytes())
    blob[-1] |= top
    damaged.write_bytes(bytes(blob))
    assert ShareDir(out).body(4) is None

    # repair of node 3 needs all 18 remaining nodes, so it must skip node 5
    target = shares.file(2)
    before = sha(target)
    target.unlink()
    assert main(["repair", str(out), "--failed", "3"]) == 0
    assert sha(target) == before


def _lie(path, rng):
    blob = bytearray(path.read_bytes())
    for pos in range(HEADER_SIZE, len(blob)):
        blob[pos] ^= rng.randrange(1, 32)
    path.write_bytes(bytes(blob))


def test_lying_shares_beyond_capability_exit_2(tmp_path):
    # capability + 1 = 6 well-formed shares whose every symbol is wrong
    data = bytes(random.Random(7).randrange(256) for _ in range(600))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    shares = ShareDir(out)
    rng = random.Random(8)
    for node in (0, 3, 7, 11, 15, 19):
        _lie(shares.file(node), rng)
    assert main(["reconstruct", str(out), str(tmp_path / "restored.bin"), "--seed", "1"]) == 2


def test_unreadable_shares_beyond_erasure_capability_exit_2(tmp_path):
    # n - k + 1 = 11 unreadable shares leave k - 1 nodes
    data = bytes(random.Random(7).randrange(256) for _ in range(600))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    manifest = Manifest.load(out / "manifest.json")
    for index, node in enumerate(range(7, 18)):
        damage = BAD_SHARES[index % len(BAD_SHARES)].values[0]
        damage(ShareDir(out).file(node), out, manifest)
    assert main(["reconstruct", str(out), str(tmp_path / "restored.bin")]) == 2
    assert main(["update", str(out), "--stripe", "0", "--symbol", "0", "--value", "1"]) == 2
    assert main(["repair", str(out), "--failed", "1"]) == 1


@pytest.mark.parametrize("command", ["reconstruct", "repair", "update"])
def test_manifest_without_node_entry_exits_1(tmp_path, capsys, command):
    src, out = encode_dir(tmp_path, b"every node needs a file", n=20, k=10, m=5)
    path = out / "manifest.json"
    doc = json.loads(path.read_text())
    doc["shares"] = [entry for entry in doc["shares"] if entry["node"] != 7]
    path.write_text(json.dumps(doc))
    argv = {
        "reconstruct": ["reconstruct", str(out), str(tmp_path / "restored.bin")],
        "repair": ["repair", str(out), "--failed", "1"],
        "update": ["update", str(out), "--stripe", "0", "--symbol", "0", "--value", "1"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["reconstruct", "repair", "update"])
def test_manifest_stripe_count_beyond_the_share_header_exits_1(tmp_path, capsys, command):
    """A share header stores the stripe count in 32 bits, so a manifest
    whose file_length needs more stripes than that is malformed: every
    command exits 1 with an error line, not a struct.error traceback."""
    src, out = encode_dir(tmp_path, b"a file of a petabyte", n=20, k=10, m=5)
    path = out / "manifest.json"
    doc = json.loads(path.read_text())
    doc["file_length"] = 10**15
    doc["stripe_count"] = stripe_count(10**15, 5, doc["payload_symbols_per_stripe"])
    assert doc["stripe_count"] == 19_277_108_433_735
    path.write_text(json.dumps(doc))
    argv = {
        "reconstruct": ["reconstruct", str(out), str(tmp_path / "restored.bin")],
        "repair": ["repair", str(out), "--failed", "1"],
        "update": ["update", str(out), "--stripe", "0", "--symbol", "0", "--value", "1"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "stripe_count" in err


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(lambda tmp_path: "../escaped.msrc", id="parent-dir"),
        pytest.param(lambda tmp_path: str(tmp_path / "absolute.msrc"), id="absolute"),
        pytest.param(lambda tmp_path: "share_006.msrc", id="another-nodes-file"),
    ],
)
def test_manifest_share_name_outside_plain_file_exits_1(tmp_path, capsys, name):
    # repair writes the failed node's file by its manifest name
    src, out = encode_dir(tmp_path, b"share names stay inside the directory", n=20, k=10, m=5)
    path = out / "manifest.json"
    doc = json.loads(path.read_text())
    for entry in doc["shares"]:
        if entry["node"] == 5:
            entry["file"] = name(tmp_path)
    path.write_text(json.dumps(doc))
    (out / "share_005.msrc").unlink()
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(["repair", str(out), "--failed", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert _tree(tmp_path) == before


# ---------------------------------------------------------------------------
# update validates every affected node before it writes any


def test_update_with_missing_affected_node_patches_the_readable_ones(tmp_path, capsys):
    data = bytes(random.Random(4).randrange(256) for _ in range(600))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    (out / "share_020.msrc").unlink()
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["update", str(out), "--stripe", "0", "--symbol", "12", "--value", "17"]) == 0
    assert "node(s) [20]" in capsys.readouterr().out
    assert not (out / "share_020.msrc").exists()
    assert _snapshot(out) != before

    symbols = bytes_to_symbols(data, 5)
    symbols[12] = 17
    updated = tmp_path / "updated.bin"
    updated.write_bytes(symbols_to_bytes(symbols, 5, len(data)))
    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst), "--seed", "1"]) == 0
    assert dst.read_bytes() == updated.read_bytes()

    # the skipped node is repaired to what a fresh encode of the new file holds
    fresh = tmp_path / "fresh"
    assert main(["encode", str(updated), str(fresh), "--n", "20", "--k", "10", "--m", "5"]) == 0
    assert main(["repair", str(out), "--failed", "20"]) == 0
    for share in sorted(fresh.glob("share_*.msrc")):
        assert (out / share.name).read_bytes() == share.read_bytes(), share.name


def test_update_with_disagreeing_affected_node_writes_nothing(tmp_path):
    data = bytes(random.Random(4).randrange(256) for _ in range(600))
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    manifest = Manifest.load(out / "manifest.json")
    path = out / "share_013.msrc"
    blob = bytearray(path.read_bytes())
    for row in range(manifest.k - 1):  # stripe 0, in-range symbols
        blob[HEADER_SIZE + row] ^= 1 + row
    path.write_bytes(bytes(blob))
    before = _snapshot(out)
    assert main(["update", str(out), "--stripe", "0", "--symbol", "12", "--value", "17"]) == 2
    assert _snapshot(out) == before
    # the stripe still reads back with its one lying node
    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst), "--seed", "1"]) == 0
    assert dst.read_bytes() == data
