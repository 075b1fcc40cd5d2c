"""CLI round trips over real files: encode, reconstruct, repair, update."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from msrcode.bits import bytes_to_symbols, symbols_to_bytes, symbols_to_int
from msrcode.cli import main
from msrcode.msr import make_params
from msrcode.reconstruct import crc_payload_length
from msrcode.shares import HEADER_SIZE, Manifest, ShareDir, ShareFile, read_share, write_share


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


# ---------------------------------------------------------------------------
# encode / reconstruct


def test_encode_layout_and_manifest(tmp_path):
    data = bytes(range(97)) * 3
    _, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    manifest = Manifest.load(out / "manifest.json")
    assert manifest.payload_symbols_per_stripe == 83  # 90 - 7 trailer symbols
    assert manifest.file_length == len(data)
    assert len(manifest.shares) == 20
    share = read_share(ShareDir(out).file(0))
    assert share.node_index == 0
    assert share.stripe_count == manifest.stripe_count
    # header + stripes * alpha symbols * 1 byte for m=5
    expected = HEADER_SIZE + manifest.stripe_count * 9
    assert ShareDir(out).file(0).stat().st_size == expected


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
    read_share = msrcode.shares.read_share
    monkeypatch.setattr(msrcode.shares, "read_share", lambda path, *rest: parsed.append(path) or read_share(path, *rest))
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
    19 stripes left, at least the 12 table entries per input of GF(2^5),
    that decoder is composed once; a 4-stripe read and an update, a
    single-stripe round, stay staged."""
    import msrcode.reconstruct

    data = random.Random(12).randbytes(1024)
    src, out = encode_dir(tmp_path, data, n=20, k=10, m=5)
    built, composed = [], []

    class CountingDecoder(msrcode.reconstruct.KNodeDecoder):
        def __init__(self, gen, nodes):
            built.append(tuple(nodes))
            super().__init__(gen, nodes)

        def compose(self):
            composed.append(self.nodes)
            super().compose()

    monkeypatch.setattr(msrcode.reconstruct, "KNodeDecoder", CountingDecoder)
    dst = tmp_path / "restored.bin"
    assert main(["reconstruct", str(out), str(dst), "--seed", "4"]) == 0
    assert dst.read_bytes() == data
    assert len(built) == 1
    assert composed == built

    built.clear(), composed.clear()
    assert main(["update", str(out), "--stripe", "3", "--symbol", "5", "--value", "7"]) == 0
    assert built and not composed

    small = tmp_path / "small"
    small.mkdir()
    data = random.Random(13).randbytes(200)
    src, out = encode_dir(small, data, n=20, k=10, m=5)
    assert main(["reconstruct", str(out), str(dst), "--seed", "4"]) == 0
    assert dst.read_bytes() == data
    assert built and not composed


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


def test_update_bad_index(tmp_path):
    src, out = encode_dir(tmp_path, b"xyz", n=20, k=10, m=5)
    assert main(["update", str(out), "--stripe", "0", "--symbol", "83", "--value", "1"]) == 1


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


def test_encode_into_existing_file_exits_1(tmp_path, capsys):
    src = tmp_path / "data.bin"
    src.write_bytes(b"an output directory that is a file")
    argv = ["encode", str(src), str(src), "--n", "7", "--k", "4", "--m", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert src.read_bytes() == b"an output directory that is a file"


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
    share = read_share(path)
    write_share(path, ShareFile(share.n, share.k, share.m, share.node_index, share.stripes[:-1]))


def _symbol_out_of_field(path, out, manifest):
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE + 3] = 0xFF  # >= 2^5
    path.write_bytes(bytes(blob))


def _directory(path, out, manifest):
    path.unlink()
    path.mkdir()


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
