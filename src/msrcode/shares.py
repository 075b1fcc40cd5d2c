"""On-disk share format and the accompanying manifest.

Share file layout (all integers little-endian):

    offset  size  field
    0       4     magic "MSRC"
    4       2     format version (1)
    6       2     n
    8       2     k
    10      2     m
    12      2     node index (0-based)
    14      4     stripe count
    18      ...   payload: stripe-major, alpha symbols per stripe, each
                  symbol stored in ceil(m / 8) bytes

The manifest is a JSON document tying the share files together: code
parameters, generator flavor, the primitive polynomial, the original file
length, the stripe layout, the integrity scheme, and one filename per node
(nodes are labeled 1-based in all external artifacts).

A body is range-checked through its symbols' last bytes, w = ceil(m / 8)
bytes apart: each must hold the symbol's top m - 8 * (w - 1) bits alone,
which at m = 8 and 16 every byte does, and one bytes.translate that
deletes the bytes that do leaves the others.  It is
parsed with one struct.unpack of all its symbols ("B" or "H" per symbol,
little-endian) and cut into per-stripe tuples; write_share packs it with
one struct.pack.  A long file's bodies skip the symbol tuples:
share_bodies encodes each stripe straight to its bytes through
GeneratorSet.encode_map, whose outputs sit at this layout's byte offsets,
and write_body writes them.

ShareDir is how the command-line tool reads and patches a share directory,
so the layout above is known to this module alone.  Reconstruct and repair
use every stripe, so they read each share file whole (ShareDir.body, which
repair hands to msr.helper_symbol as it is, and ShareDir.column, which
reconstruct reads, parsed from it).
Update uses one stripe, so it reads that stripe alone
(ShareDir.stripe_column): the header, checked against the manifest by the
same check read_share makes, the file's length from fstat, and the
stripe's alpha symbols at HEADER_SIZE + stripe * alpha * w, range-checked
like a whole body.  A share is then judged by its header, its length and
that stripe's own symbols: an out-of-range symbol in another stripe does
not make it an erasure for update, though it does for reconstruct.  Each
share is opened once, for reading and writing where it can be, and
ShareDir.patch writes the new symbols through that descriptor; a share
that can only be read is an error only if the update affects it.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .bits import bytes_to_symbols, symbol_width
from .linalg import LinearMap
from .msr import FLAVORS, GeneratorSet, InvalidParams, MsrParams, WrongLength, make_params
from .reconstruct import crc_payload_length, seal

__all__ = [
    "ShareFile",
    "Manifest",
    "ShareDir",
    "read_share",
    "read_body",
    "write_share",
    "write_body",
    "share_bodies",
    "encode_map_pays",
    "ENCODE_MAP_IMAGE_BYTES",
    "share_filename",
    "stripe_count",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"MSRC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHHHHI")
HEADER_SIZE = _HEADER.size

CRC_SCHEME = "crc32-msb-bitpacked"


class ShareFormatError(ValueError):
    pass


def stripe_count(file_length: int, m: int, payload: int) -> int:
    """Stripes holding file_length bytes as ceil(8 * file_length / m)
    symbols, payload per stripe; an empty file still gets one."""
    symbols = -(-8 * file_length // m)
    return max(1, -(-symbols // payload))


def _body_format(m: int, count: int) -> str:
    """The struct format of count little-endian symbols of GF(2^m)."""
    return f"<{count}{'B' if symbol_width(m) == 1 else 'H'}"


def share_filename(node_index: int) -> str:
    """Canonical share name; the label is 1-based like all external output."""
    return f"share_{node_index + 1:03d}.msrc"


@dataclass
class ShareFile:
    n: int
    k: int
    m: int
    node_index: int
    stripes: list[tuple[int, ...]]  # stripe-major, alpha symbols each

    @property
    def stripe_count(self) -> int:
        return len(self.stripes)


def write_share(path, share: ShareFile) -> None:
    symbols = list(itertools.chain.from_iterable(share.stripes))
    body = struct.pack(_body_format(share.m, len(symbols)), *symbols)
    write_body(path, share.n, share.k, share.m, share.node_index, share.stripe_count, body)


def write_body(path, n: int, k: int, m: int, node_index: int, stripe_count: int, body: bytes) -> None:
    """Write a share file whose body is already in the payload layout
    above, as share_bodies gives it.  An OSError names the file."""
    data = memoryview(_HEADER.pack(MAGIC, FORMAT_VERSION, n, k, m, node_index, stripe_count) + body)
    # os.open and os.write: a file object costs more than a small file's write
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)


def share_bodies(gen: GeneratorSet, data: bytes) -> list[bytes]:
    """Every node's share body for the file data, in
    stripe_count(len(data), m, payload) stripes: what write_share writes of
    the encode_all columns of each stripe's attach_crc'ed payload.

    Stripe s's payload is the file's bits s * P .. (s + 1) * P - 1 for
    P = crc_payload_length(params) * m, zero-padded at the end, which
    bits.bytes_to_symbols reads at width P, one int.from_bytes per run of
    stripes that ends on a byte.  Each stripe is then one application of
    gen.encode_map to its message int, reconstruct.seal(payload), and that
    packed image's bytes are the stripe's part of every body, node-major;
    node j's part is cut out of each stripe and joined."""
    params = gen.params
    payloads = bytes_to_symbols(data, crc_payload_length(params) * params.m) or [0]  # an empty file gets one stripe
    encode_map = gen.encode_map
    node_size = params.alpha * symbol_width(params.m)
    stripe_size = params.n * node_size
    stripes = [encode_map.packed_bitstream(seal(params, payload)).to_bytes(stripe_size, "little") for payload in payloads]
    return [b"".join([stripe[lo : lo + node_size] for stripe in stripes]) for lo in range(0, stripe_size, node_size)]


# the most bytes of input images the composed encode map may XOR per stripe
ENCODE_MAP_IMAGE_BYTES = 1 << 16


def encode_map_pays(params: MsrParams, stripes: int) -> bool:
    """Whether a file of this many stripes is encoded through
    GeneratorSet.encode_map (share_bodies) rather than stripe by stripe.

    One application XORs B images of n * alpha * symbol_width(m) bytes, and
    the build fills LinearMap.table_entries(m) of them per input, so from
    table_entries(m) stripes on the tables are no larger than what the
    file pushes through them.  Timed against the staged encode, that many
    stripes repay the build while the B images total at most
    ENCODE_MAP_IMAGE_BYTES: break-even is about 10 of 12 stripes at
    [26,13]/GF(2^5), 17 of 32 at [27,14]/GF(2^8) and 125 of 512 at
    [18,9]/GF(2^16).  Larger codes fall behind (39 of 32 at
    [40,20]/GF(2^8)), and from about 1.5 MB of images ([60,30]/GF(2^8))
    one application costs more than a staged stripe, so they keep the
    staged encode.  The tables then hold at most table_entries(m) * 64 KiB,
    2 MiB at m = 8."""
    image_bytes = params.B * params.n * params.alpha * symbol_width(params.m)
    return image_bytes <= ENCODE_MAP_IMAGE_BYTES and stripes >= LinearMap.table_entries(params.m)


def read_share(path, params: MsrParams | None = None) -> ShareFile:
    """Parse one share file; any malformation raises ShareFormatError.

    The header's (n, k, m) is validated by make_params, or, when params
    are given (already validated, say from a manifest), must equal theirs.
    """
    params, node_index, stripe_count, body = read_body(path, params)
    stripes = _stripes(body, params, stripe_count)
    return ShareFile(n=params.n, k=params.k, m=params.m, node_index=node_index, stripes=stripes)


def read_body(path, params: MsrParams | None = None) -> tuple[MsrParams, int, int, bytes]:
    """(params, node index, stripe count, payload bytes) of one share file,
    unparsed but checked as read_share checks it: the header, the payload's
    length and every symbol below 2^m."""
    with open(path, "rb") as fp:
        blob = fp.read()
    params, node_index, stripe_count = _check_header(path, blob, params)
    body = blob[HEADER_SIZE:]
    expected = stripe_count * params.alpha * symbol_width(params.m)
    if len(body) != expected:
        raise ShareFormatError(f"{path}: payload is {len(body)} bytes, expected {expected}")
    _check_symbols(path, body, params.m)
    return params, node_index, stripe_count, body


def _stripes(body: bytes, params: MsrParams, stripe_count: int) -> list[tuple[int, ...]]:
    """The per-stripe symbol tuples of a checked body."""
    count, alpha = stripe_count * params.alpha, params.alpha
    values = struct.unpack(_body_format(params.m, count), body)
    return [values[pos : pos + alpha] for pos in range(0, count, alpha)]


def _check_header(path, blob: bytes, params: MsrParams | None) -> tuple[MsrParams, int, int]:
    """(params, node index, stripe count) of the header that blob starts
    with, as read_share checks it; a malformed header raises
    ShareFormatError."""
    if len(blob) < HEADER_SIZE:
        raise ShareFormatError(f"{path}: truncated header")
    magic, version, n, k, m, node_index, stripe_count = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ShareFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ShareFormatError(f"{path}: unsupported version {version}")
    if params is None:
        params = make_params(n, k, m)  # re-validates the header tuple
    elif (n, k, m) != (params.n, params.k, params.m):
        raise ShareFormatError(f"{path}: header code ({n}, {k}, {m}) is not ({params.n}, {params.k}, {params.m})")
    if not 0 <= node_index < n:
        raise ShareFormatError(f"{path}: node index {node_index} out of range")
    return params, node_index, stripe_count


def _check_symbols(path, body: bytes, m: int) -> None:
    """Raise ShareFormatError unless every symbol of body, in the payload
    layout, lies in GF(2^m), judged by the symbols' last bytes without
    parsing them: what is left of those once every value below 2^(m - 8 *
    (w - 1)) is deleted must be empty."""
    width = symbol_width(m)
    if body[width - 1 :: width].translate(None, bytes(range(1 << m - 8 * (width - 1)))):
        top = max(struct.unpack(_body_format(m, len(body) // width), body))
        raise ShareFormatError(f"{path}: symbol {top} outside GF(2^{m})")


@dataclass
class Manifest:
    n: int
    k: int
    m: int
    flavor: str
    primitive_poly: int
    file_length: int
    stripe_count: int
    payload_symbols_per_stripe: int
    crc_scheme: str
    shares: list[dict]  # [{"node": 1-based label, "file": name}, ...]
    format_version: int = FORMAT_VERSION

    def params(self) -> MsrParams:
        return make_params(self.n, self.k, self.m)

    def save(self, path) -> None:
        # a shallow {field: value} dict: asdict's deep copy costs more than the dump
        document = {f.name: getattr(self, f.name) for f in fields(self)}
        Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "Manifest":
        """Parse and shape-check a manifest; any malformation raises
        ShareFormatError."""
        try:
            raw = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShareFormatError(f"{path}: manifest is not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ShareFormatError(f"{path}: manifest must be a JSON object")
        spec = {f.name: f for f in fields(cls)}
        missing = sorted(name for name, f in spec.items() if f.default is MISSING and name not in raw)
        unknown = sorted(raw.keys() - spec.keys())
        if missing or unknown:
            raise ShareFormatError(f"{path}: manifest keys missing {missing}, unknown {unknown}")
        for name, value in raw.items():
            kind = _MANIFEST_TYPES[spec[name].type]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ShareFormatError(f"{path}: manifest {name} must be of type {kind.__name__}")
        if raw["flavor"] not in FLAVORS:
            raise ShareFormatError(f"{path}: manifest flavor must be one of {FLAVORS}")
        for entry in raw["shares"]:
            if not (isinstance(entry, dict) and entry.keys() == {"node", "file"}):
                raise ShareFormatError(f"{path}: manifest share entries need exactly the keys node and file")
            if not (type(entry["node"]) is int and isinstance(entry["file"], str)):
                raise ShareFormatError(f"{path}: manifest share entries need an int node and a str file")
        _check_layout(path, raw)
        if sorted(entry["node"] for entry in raw["shares"]) != list(range(1, raw["n"] + 1)):
            raise ShareFormatError(f"{path}: manifest must name one share file per node 1..{raw['n']}")
        names = [entry["file"] for entry in raw["shares"]]
        for name in names:
            # repair writes to this name: it must stay inside the share directory
            if name in ("", ".", "..") or "\0" in name or os.path.basename(name) != name:
                raise ShareFormatError(f"{path}: manifest share file {name!r} is not a plain file name")
        if len(set(names)) != len(names):
            raise ShareFormatError(f"{path}: manifest names the same share file for two nodes")
        return cls(**raw)


# Manifest field annotations (strings under postponed evaluation) -> JSON type
_MANIFEST_TYPES = {"int": int, "str": str, "list[dict]": list}


def _check_layout(path, raw: dict) -> None:
    """The stripe layout and schemes must be the ones encode writes, so a
    reader never slices the payload, pads the output or trusts a CRC
    differently from how the file was written."""
    if raw.get("format_version", FORMAT_VERSION) != FORMAT_VERSION:
        raise ShareFormatError(f"{path}: unsupported manifest format_version {raw['format_version']}")
    if raw["crc_scheme"] != CRC_SCHEME:
        raise ShareFormatError(f"{path}: unsupported crc_scheme {raw['crc_scheme']!r}")
    try:
        payload = crc_payload_length(make_params(raw["n"], raw["k"], raw["m"]))
    except (InvalidParams, WrongLength) as exc:
        raise ShareFormatError(f"{path}: {exc}") from exc
    if raw["payload_symbols_per_stripe"] != payload:
        raise ShareFormatError(f"{path}: manifest payload_symbols_per_stripe must be {payload}")
    if raw["file_length"] < 0:
        raise ShareFormatError(f"{path}: manifest file_length is negative")
    stripes = stripe_count(raw["file_length"], raw["m"], payload)
    if raw["stripe_count"] != stripes:
        raise ShareFormatError(f"{path}: manifest stripe_count must be {stripes} for {raw['file_length']} bytes")


class ShareDir:
    """A share directory read lazily, node by node.

    A node's file is read and checked on the first request for its body or
    one of its columns, and its body cached; its columns are parsed from
    the body on the first request for one, and cached too.  stripe_column
    reads one stripe of the file instead.  A file that is missing,
    unreadable, malformed or whose header disagrees with the manifest makes
    the node an erasure (None), so one bad file costs one node, not the
    run.  The manifest's parameters and file names are looked up once, not
    per file.
    """

    def __init__(self, share_dir, manifest_path=None):
        self.root = Path(share_dir)
        self.manifest = Manifest.load(Path(manifest_path) if manifest_path else self.root / "manifest.json")
        self.params = self.manifest.params()
        self._names = {entry["node"] - 1: entry["file"] for entry in self.manifest.shares}
        self._bodies: dict[int, bytes | None] = {}
        self._stripes: dict[int, list[tuple[int, ...]]] = {}
        self._columns: dict[tuple[int, int], tuple[int, ...] | None] = {}
        self._fds: dict[int, tuple[int, bool]] = {}  # node -> (descriptor, writable), from stripe_column
        self.files_read = 0  # share files read from disk so far, well-formed or not

    def close(self) -> None:
        """Close the descriptors stripe_column opened."""
        fds, self._fds = self._fds, {}
        for fd, _ in fds.values():
            os.close(fd)

    def __enter__(self) -> "ShareDir":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        if getattr(self, "_fds", None):
            warnings.warn(f"ShareDir {self.root} left {len(self._fds)} share file(s) open", ResourceWarning)
            self.close()

    def file(self, node: int) -> Path:
        return self.root / self._names[node]

    def _path(self, node: int) -> str:
        """file(node) as a str: a one-stripe read opens up to n files, and
        joining a Path costs more than reading a stripe."""
        return os.path.join(self.root, self._names[node])

    def body(self, node: int) -> bytes | None:
        """The node's payload bytes, every stripe's alpha symbols in the
        layout above, or None for an erasure: the whole file, its header
        checked as by read_share and against the manifest's node and stripe
        count, its length, and every symbol below 2^m."""
        if node not in self._bodies:
            self._bodies[node] = self._load(node)
        return self._bodies[node]

    def column(self, node: int, stripe: int) -> tuple[int, ...] | None:
        """The node's alpha symbols of one stripe, or None for an erasure,
        off the node's whole file (body)."""
        stripes = self._stripes.get(node)
        if stripes is None:
            body = self.body(node)
            if body is None:
                return None
            stripes = self._stripes[node] = _stripes(body, self.params, self.manifest.stripe_count)
        return stripes[stripe]

    def _load(self, node: int) -> bytes | None:
        try:
            _, node_index, count, body = read_body(self.file(node), self.params)
        except OSError:  # missing, a directory, unreadable: nothing was read
            return None
        except ShareFormatError:
            body = None
        self.files_read += 1
        if body is None or (node_index, count) != (node, self.manifest.stripe_count):
            return None
        return body

    def stripe_column(self, node: int, stripe: int) -> tuple[int, ...] | None:
        """The node's alpha symbols of one stripe, or None for an erasure,
        read alone: the header, checked as by read_share and against the
        manifest's node and stripe count, the length by fstat, and only
        this stripe's symbols.  Cached, so a node's stripe is read once.
        The file is opened once, for reading and writing if it can be, else
        for reading, and stays open for patch until close()."""
        key = (node, stripe)
        if key not in self._columns:
            self._columns[key] = self._read_stripe(node, stripe)
        return self._columns[key]

    def _open(self, node: int) -> int:
        """The node's descriptor, opened on first use for reading and
        writing, or for reading alone if the file cannot be written; OSError
        if it cannot be read either."""
        if node not in self._fds:
            path = self._path(node)
            try:
                self._fds[node] = os.open(path, os.O_RDWR), True
            except OSError:  # read-only, or not there at all
                self._fds[node] = os.open(path, os.O_RDONLY), False
        return self._fds[node][0]

    def _read_stripe(self, node: int, stripe: int) -> tuple[int, ...] | None:
        path = self._path(node)
        params = self.params
        size = params.alpha * symbol_width(params.m)
        try:
            fd = self._open(node)
        except OSError:  # missing or unreadable: nothing was read
            return None
        self.files_read += 1
        try:
            _, node_index, count = _check_header(path, os.pread(fd, HEADER_SIZE, 0), params)
            if (node_index, count) != (node, self.manifest.stripe_count):
                return None
            if os.fstat(fd).st_size != HEADER_SIZE + count * size:
                return None
            symbols = os.pread(fd, size, HEADER_SIZE + stripe * size)
            _check_symbols(path, symbols, params.m)
            return struct.unpack(_body_format(params.m, params.alpha), symbols)
        except (OSError, ShareFormatError):  # a directory, a read error, a malformed header or symbol
            return None

    def patch(self, stripe: int, changes: dict[int, list[tuple[int, int]]]) -> None:
        """Overwrite symbols of one stripe in place; changes maps a node to
        its (row, value) pairs, and only those symbols are written, one
        pwrite each, through the descriptor stripe_column opened for
        writing.  A file it holds only for reading, or not at all, is opened
        for writing here, and every file is before the first write, so a
        share that cannot be written raises OSError with the directory as
        it was."""
        width = symbol_width(self.params.m)
        alpha = self.params.alpha
        fds, opened = [], []
        try:
            for node in changes:
                fd, writable = self._fds.get(node, (None, False))
                if not writable:
                    fd = os.open(self._path(node), os.O_WRONLY)
                    opened.append(fd)
                fds.append(fd)
            for fd, rows in zip(fds, changes.values()):
                for row, value in rows:
                    os.pwrite(fd, value.to_bytes(width, "little"), HEADER_SIZE + (stripe * alpha + row) * width)
        finally:
            for fd in opened:
                os.close(fd)
        for node in changes:
            self._bodies.pop(node, None)
            self._stripes.pop(node, None)
            self._columns.pop((node, stripe), None)
