"""The update command end to end: its one-stripe reads and writes, checked
against a fresh encode of the patched file, and its I/O bound."""

import builtins
import errno
import io
import os
import random
import shutil
import struct

import pytest

from msrcode.bits import bytes_to_symbols, symbol_width, symbols_to_bytes
from msrcode.cli import main
from msrcode.msr import WrongLength, encode_all, generator_set, make_params
from msrcode.reconstruct import attach_crc, crc_payload_length
from msrcode.shares import HEADER_SIZE, ShareDir, share_filename, stripe_count


def encode(tmp_path, data: bytes, name: str, n=20, k=10, m=5, flavor="systematic"):
    src = tmp_path / f"{name}.bin"
    src.write_bytes(data)
    out = tmp_path / name
    argv = ["encode", str(src), str(out), "--n", str(n), "--k", str(k), "--m", str(m), "--flavor", flavor]
    assert main(argv) == 0
    return out


def snapshot(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def update(out, stripe, symbol, value):
    return main(["update", str(out), "--stripe", str(stripe), "--symbol", str(symbol), "--value", str(value)])


def affected_shares(tmp_path, out, stripe, symbol, value) -> list[str]:
    """The share files an update rewrites, found on a copy of the directory."""
    trial = tmp_path / "trial"
    shutil.copytree(out, trial)
    assert update(trial, stripe, symbol, value) == 0
    before = snapshot(out)
    changed = [name for name, blob in snapshot(trial).items() if blob != before[name]]
    shutil.rmtree(trial)
    return changed


# ---------------------------------------------------------------------------
# differential: every update leaves what a fresh encode of the patched file
# writes, and prints the counts a re-encode gives

# a code for every m from 3 to 16: full length at m = 3 .. 5, where the
# vandermonde flavor is unscaled, shortened (column-scaled) everywhere else
UPDATE_CODES = [
    (7, 4, 3), (15, 8, 4), (20, 10, 5), (31, 6, 5), (18, 9, 6), (20, 10, 7), (24, 12, 8), (20, 10, 9),
    (18, 9, 10), (20, 10, 11), *((10, 5, m) for m in range(12, 17)),
]


def test_no_code_over_gf4_has_room_for_a_payload():
    """m = 2 admits only [3, 2] (k = 2, d = 2 <= n - 1 <= 2), whose B = 2
    symbols cannot hold the 16-symbol CRC-32 trailer, so UPDATE_CODES starts
    at m = 3."""
    with pytest.raises(WrongLength):
        crc_payload_length(make_params(3, 2, 2))


def expected_stdout(gen, flavor, old_payload, symbol, value) -> str:
    """update's report, from full encodes of the old and new stripe."""
    params = gen.params
    if old_payload[symbol] == value:
        return "value unchanged; empty patch, nothing rewritten\n"
    new_payload = list(old_payload)
    new_payload[symbol] = value
    old_message = attach_crc(params, old_payload)
    old_shares = encode_all(gen, old_message)

    def diff(new_message):
        return {
            (share.node_index, row)
            for share, new in zip(old_shares, encode_all(gen, new_message))
            for row, (a, b) in enumerate(zip(share.symbols, new.symbols))
            if a != b
        }

    payload_only = diff(new_payload + old_message[len(old_payload) :])
    refreshed = diff(attach_crc(params, new_payload))
    nodes = sorted({node + 1 for node, _ in payload_only})
    return (
        f"payload symbol {symbol} ({flavor} flavor): patch touches {len(nodes)} node(s) {nodes}, "
        f"{len(payload_only)} symbol(s)\n"
        f"with integrity trailer refresh: rewrote {len(refreshed)} symbol(s) across "
        f"{len({node for node, _ in refreshed})} node file(s)\n"
    )


@pytest.mark.parametrize("flavor", ["systematic", "vandermonde"])
@pytest.mark.parametrize("n,k,m", UPDATE_CODES)
def test_update_matches_a_fresh_encode(tmp_path, capsys, n, k, m, flavor):
    params = make_params(n, k, m)
    gen = generator_set(params, flavor)
    payload_len = crc_payload_length(params)
    payload_bits = payload_len * m
    rng = random.Random(f"update:{n}:{k}:{m}:{flavor}")
    # about 2.5 stripes, ending inside a symbol wherever m allows it
    length = max(1, (5 * payload_bits // 2 + 7) // 8)
    while m & (m - 1) and 8 * length % m == 0:
        length += 1
    data = bytearray(rng.randbytes(length))
    out = encode(tmp_path, bytes(data), "shares", n, k, m, flavor)
    total = -(-8 * length // m)  # symbols holding the file, the last one padded
    stripes = stripe_count(length, m, payload_len)
    assert total > payload_len * (stripes - 1)  # the last stripe is partial

    last_stripe = range(payload_len * (stripes - 1), total)
    picks = [rng.randrange(total), rng.randrange(total), rng.choice(last_stripe), total - 1, total - 1]
    for i, g in enumerate(picks):
        symbols = bytes_to_symbols(bytes(data), m)
        stripe, symbol = divmod(g, payload_len)
        past = (g + 1) * m - 8 * length  # bits of symbol g past the file's end
        value = rng.randrange(1 << m) >> max(past, 0) << max(past, 0)
        if i == len(picks) - 1:
            value = symbols[g]  # the padding-boundary symbol, unchanged
        old_payload = symbols[stripe * payload_len : (stripe + 1) * payload_len]
        old_payload += [0] * (payload_len - len(old_payload))
        expected = expected_stdout(gen, flavor, old_payload, symbol, value)

        capsys.readouterr()
        assert update(out, stripe, symbol, value) == 0
        assert capsys.readouterr().out == expected

        symbols[g] = value
        data = bytearray(symbols_to_bytes(symbols, m, length))
        fresh = encode(tmp_path, bytes(data), f"fresh{i}", n, k, m, flavor)
        assert snapshot(out) == snapshot(fresh), (stripe, symbol, value)


# ---------------------------------------------------------------------------
# a failed open for writing leaves the directory as it was


def deny_writes_to(monkeypatch, path):
    """Opening path for writing fails, by builtins.open or os.open alike;
    reading it still works (root ignores file modes, so they cannot)."""
    real_open, real_os_open = builtins.open, os.open
    denied = os.fspath(path)

    def refuse():
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), denied)

    def guarded_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == denied and set(mode) & set("wa+"):
            refuse()
        return real_open(file, mode, *args, **kwargs)

    def guarded_os_open(file, flags, *args, **kwargs):
        if os.fspath(file) == denied and flags & (os.O_WRONLY | os.O_RDWR):
            refuse()
        return real_os_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded_open)
    monkeypatch.setattr(io, "open", guarded_open)
    monkeypatch.setattr(os, "open", guarded_os_open)


def test_an_unwritable_share_aborts_the_update_before_any_write(tmp_path, monkeypatch, capsys):
    data = random.Random(4).randbytes(600)
    out = encode(tmp_path, data, "shares")
    changed = affected_shares(tmp_path, out, 0, 12, 17)
    assert len(changed) > 2
    before = snapshot(out)
    deny_writes_to(monkeypatch, out / changed[-1])
    capsys.readouterr()
    assert update(out, 0, 12, 17) == 1
    assert "Permission denied" in capsys.readouterr().err
    monkeypatch.undo()
    assert snapshot(out) == before


def test_read_only_shares_the_update_does_not_affect_let_it_succeed(tmp_path, monkeypatch, capsys):
    """A share that cannot be written is read for reading alone and is an
    error only if the update affects it: with every unaffected share
    read-only, the update writes what an unrestricted one writes."""
    data = random.Random(4).randbytes(600)
    out = encode(tmp_path, data, "shares")
    changed = affected_shares(tmp_path, out, 0, 12, 17)
    spared = sorted(set(snapshot(out)) - set(changed) - {"manifest.json"})
    assert spared
    free = tmp_path / "free"
    shutil.copytree(out, free)
    capsys.readouterr()
    assert update(free, 0, 12, 17) == 0
    expected = capsys.readouterr().out

    for name in spared:
        deny_writes_to(monkeypatch, out / name)
    assert update(out, 0, 12, 17) == 0
    assert capsys.readouterr().out == expected
    monkeypatch.undo()
    assert snapshot(out) == snapshot(free)

    # the read-only share's stripe is read, not an erasure, and patching it
    # fails before any write
    node = int(spared[0][6:9]) - 1
    before = snapshot(out)
    deny_writes_to(monkeypatch, out / spared[0])
    with ShareDir(out) as shares:
        column = shares.stripe_column(node, 0)
        assert column is not None
        with pytest.raises(PermissionError):
            shares.patch(0, {int(changed[0][6:9]) - 1: [(0, 1)], node: [(0, column[0] ^ 1)]})
    monkeypatch.undo()
    assert snapshot(out) == before


def test_update_opens_each_share_once_and_closes_it(tmp_path, monkeypatch):
    """update reads and patches a share through one descriptor, and closes
    every descriptor it opened."""
    data = random.Random(7).randbytes(600)
    out = encode(tmp_path, data, "shares")
    opened, closed = [], []
    real_os_open, real_os_close = os.open, os.close

    def counting_open(file, flags, *args, **kwargs):
        fd = real_os_open(file, flags, *args, **kwargs)
        opened.append((os.fspath(file), fd))
        return fd

    def counting_close(fd):
        closed.append(fd)
        real_os_close(fd)

    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(os, "close", counting_close)
    assert update(out, 0, 12, 17) == 0
    monkeypatch.undo()
    paths = [path for path, _ in opened]
    assert len(paths) == len(set(paths)) >= 17  # 17 shares patched, each opened once
    assert sorted(closed) == sorted(fd for _, fd in opened)


# ---------------------------------------------------------------------------
# update judges a share by its header, its length and the target stripe's
# own symbols


def test_an_out_of_range_symbol_in_another_stripe_does_not_stop_update(tmp_path, capsys):
    data = random.Random(5).randbytes(600)
    out = encode(tmp_path, data, "shares")
    name = affected_shares(tmp_path, out, 0, 12, 17)[0]
    node = int(name[6:9]) - 1
    path = out / name
    blob = bytearray(path.read_bytes())
    alpha = 9
    blob[HEADER_SIZE + 5 * alpha + 2] = 0xFF  # stripe 5, outside GF(2^5)
    path.write_bytes(bytes(blob))

    capsys.readouterr()
    assert update(out, 0, 12, 17) == 0
    assert "skipped" not in capsys.readouterr().out
    symbols = bytes_to_symbols(data, 5)
    symbols[12] = 17
    patched = symbols_to_bytes(symbols, 5, len(data))
    fresh = encode(tmp_path, patched, "fresh")
    # the node's stripe 0 is patched, and its bad symbol is left as it was
    assert path.read_bytes()[: HEADER_SIZE + alpha] == (fresh / name).read_bytes()[: HEADER_SIZE + alpha]
    assert path.read_bytes()[HEADER_SIZE + alpha :] == bytes(blob[HEADER_SIZE + alpha :])

    with ShareDir(out) as shares:
        assert shares.stripe_column(node, 0) is not None
        assert shares.stripe_column(node, 5) is None
        assert shares.column(node, 0) is None  # reconstruct reads the whole file: an erasure
    restored = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(restored), "--seed", "1"]) == 0
    assert restored.read_bytes() == patched


def _truncated(blob, node, manifest_stripes):
    return blob[:-1]


def _other_node(blob, node, manifest_stripes):
    return blob[:12] + struct.pack("<H", (node + 1) % 20) + blob[14:]


def _other_stripe_count(blob, node, manifest_stripes):
    return blob[:14] + struct.pack("<I", manifest_stripes + 1) + blob[18:]


def _short_header(blob, node, manifest_stripes):
    return blob[: HEADER_SIZE - 1]


@pytest.mark.parametrize("damage", [_truncated, _other_node, _other_stripe_count, _short_header])
def test_a_share_with_a_bad_header_or_length_is_skipped(tmp_path, capsys, damage):
    data = random.Random(6).randbytes(600)
    out = encode(tmp_path, data, "shares")
    name = affected_shares(tmp_path, out, 0, 12, 17)[-1]
    node = int(name[6:9]) - 1
    path = out / name
    path.write_bytes(damage(path.read_bytes(), node, ShareDir(out).manifest.stripe_count))
    damaged = path.read_bytes()
    with ShareDir(out) as shares:
        assert shares.stripe_column(node, 0) is None

    capsys.readouterr()
    assert update(out, 0, 12, 17) == 0
    assert f"skipped unreadable share(s) of node(s) [{node + 1}]" in capsys.readouterr().out
    assert path.read_bytes() == damaged
    symbols = bytes_to_symbols(data, 5)
    symbols[12] = 17
    fresh = encode(tmp_path, symbols_to_bytes(symbols, 5, len(data)), "fresh")
    for share, blob in snapshot(fresh).items():
        if share != name:
            assert (out / share).read_bytes() == blob, share


# ---------------------------------------------------------------------------
# update's reads do not grow with the file


@pytest.mark.parametrize("stripes", [1, 300])
def test_update_reads_one_stripe_of_each_share(tmp_path, monkeypatch, stripes):
    """Every share byte update reads comes through os.pread on a file opened
    by os.open, at most the header and one stripe per share, and no share
    file is opened by builtins.open, which whole-file reads use."""
    params = make_params(20, 10, 5)
    payload_bits = crc_payload_length(params) * 5
    data = random.Random(stripes).randbytes(stripes * payload_bits // 8)
    out = encode(tmp_path, data, "shares")
    assert ShareDir(out).manifest.stripe_count == stripes

    paths: dict[int, str] = {}
    read: dict[str, int] = {}
    whole = []
    real_open, real_os_open, real_pread, real_read = builtins.open, os.open, os.pread, os.read

    def counting_os_open(file, flags, *args, **kwargs):
        fd = real_os_open(file, flags, *args, **kwargs)
        paths[fd] = os.fspath(file)
        return fd

    def counting_pread(fd, size, offset):
        chunk = real_pread(fd, size, offset)
        read[paths[fd]] = read.get(paths[fd], 0) + len(chunk)
        return chunk

    def counting_read(fd, size):
        chunk = real_read(fd, size)
        if fd in paths:
            read[paths[fd]] = read.get(paths[fd], 0) + len(chunk)
        return chunk

    def watching_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file).endswith(".msrc"):
            whole.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_os_open)
    monkeypatch.setattr(os, "pread", counting_pread)
    monkeypatch.setattr(os, "read", counting_read)
    monkeypatch.setattr(builtins, "open", watching_open)
    monkeypatch.setattr(io, "open", watching_open)
    for stripe in sorted({0, stripes // 2, stripes - 1}):
        read.clear()
        assert update(out, stripe, 40, 1 + stripe % 31) == 0
        assert whole == []
        assert len(read) >= params.k
        assert max(read.values()) <= HEADER_SIZE + params.alpha * symbol_width(params.m)


# ---------------------------------------------------------------------------
# differential: the systematic decode against the progressive one it skips


def _flip_systematic_bit(out, n, alpha):
    path = out / share_filename(n - alpha + 3)
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE + (1 * alpha + 2) * symbol_width(5)] ^= 1  # stripe 1, row 2, low bit
    path.write_bytes(bytes(blob))


def _delete(nodes):
    def damage(out, n, alpha):
        for node in nodes(n, alpha):
            (out / share_filename(node)).unlink()

    return damage


FALLBACK_CASES = {
    # case: (flavor, damage, whether the systematic decode gives the message)
    "clean": ("systematic", None, True),
    "flipped-systematic-bit": ("systematic", _flip_systematic_bit, False),
    "missing-systematic-share": ("systematic", _delete(lambda n, alpha: [n - 1]), False),
    "every-parity-share-missing": ("systematic", _delete(lambda n, alpha: range(n - alpha)), False),
    "only-the-last-parity-share": ("systematic", _delete(lambda n, alpha: range(n - alpha - 1)), True),
    "vandermonde": ("vandermonde", None, False),
}


@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_update_matches_the_progressive_decode_alone(tmp_path, capsys, monkeypatch, case):
    """update gives the same exit code, stdout and share bytes as when its
    stripe is read by reconstruct_progressive alone: where the decode from
    the systematic nodes gives the message, and where it gives None (a
    flipped bit, a missing systematic or every parity share, the
    vandermonde flavor) and the progressive decoder, seeded as before, runs
    instead."""
    import msrcode.cli

    flavor, damage, decoded = FALLBACK_CASES[case]
    n, alpha = 20, 9
    out = encode(tmp_path, random.Random(29).randbytes(600), "shares", flavor=flavor)
    if damage is not None:
        damage(out, n, alpha)
    fast, sides = [], {}
    systematic_message = msrcode.cli.systematic_message
    for side, decode in [
        ("systematic", lambda gen, source: fast.append(systematic_message(gen, source)) or fast[-1]),
        ("progressive", lambda gen, source: None),
    ]:
        trial = tmp_path / side
        shutil.copytree(out, trial)
        monkeypatch.setattr(msrcode.cli, "systematic_message", decode)
        capsys.readouterr()
        rc = update(trial, 1, 12, 17)
        sides[side] = rc, capsys.readouterr().out, snapshot(trial)
    assert (fast[0] is not None) == decoded
    assert sides["systematic"] == sides["progressive"]
    assert sides["systematic"][0] == (2 if case == "every-parity-share-missing" else 0)
