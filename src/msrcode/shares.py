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

Every share file is written by write_share from its body, the payload
bytes above: share_bodies encodes a whole file's payloads straight to them
through msr.encode_bodies, whose byte-region products come out in this
layout, and repair writes msr.regenerate's body as it is.

ShareDir is how the command-line tool reads and patches a share directory,
so the layout above is known to this module alone.  Every read goes
through one check on an open descriptor (ShareDir._read): the header must
be the one the manifest gives that node (magic, version, code, node index
and stripe count), the file's length from fstat that of its stripes, what
pread returns as long as was asked, and every symbol below 2^m.  Symbols
are range-checked through their last bytes, w = ceil(m / 8) bytes apart:
each must hold the symbol's top m - 8 * (w - 1) bits alone, which at m = 8
and 16 every byte does, and one bytes.translate that deletes the bytes
that do leaves the others.  A share that fails the check, or cannot be
opened or read, is an erasure.

Reconstruct and repair use every stripe, so they read each share file whole
(ShareDir.body, which repair hands to msr.helper_symbol as it is, and
ShareDir.column, which reconstruct reads, parsed from it with one
struct.unpack of all its symbols, "B" or "H" per symbol, little-endian).
Update uses one stripe, so it reads that stripe alone
(ShareDir.stripe_column), at HEADER_SIZE + stripe * alpha * w.  A share is
then judged by its header, its length and that stripe's own symbols: an
out-of-range symbol in another stripe does not make it an erasure for
update, though it does for reconstruct.  Each share is opened once, for
reading and writing where it can be, and ShareDir.patch writes the new
symbols through that descriptor; a share that can only be read is an error
only if the update affects it.

Shares are opened with O_NONBLOCK, so a FIFO in a share's place is an
erasure to a reader (pread fails with ESPIPE) and an error naming the file
to the writer (open fails with ENXIO) instead of blocking for good.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .bits import spread_symbols, symbol_width
from .msr import FLAVORS, GeneratorSet, InvalidParams, MsrParams, WrongLength, encode_bodies, make_params
from .reconstruct import crc_payload_length, seal

__all__ = [
    "Manifest",
    "ShareDir",
    "write_share",
    "share_bodies",
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


def write_share(path, n: int, k: int, m: int, node_index: int, stripe_count: int, body: bytes) -> None:
    """Write a share file whose body is already in the payload layout
    above.  An OSError names the file."""
    data = memoryview(_HEADER.pack(MAGIC, FORMAT_VERSION, n, k, m, node_index, stripe_count) + body)
    # os.open and os.write: a file object costs more than a small file's write
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)


def share_bodies(gen: GeneratorSet, payloads) -> list[bytes]:
    """Every node's share body for the stripe payloads, one per stripe:
    the encode_all columns of each stripe's sealed payload, in the payload
    layout above.

    A file's payloads are its bits chunked at width
    P = crc_payload_length(params) * m, zero-padded at the end, as
    bits.bytes_to_symbols reads them, with one zero payload for an empty
    file.  Each stripe's message, reconstruct.seal(payload), is spread to
    one symbol per symbol_width(m) bytes (bits.spread_symbols), and
    msr.encode_bodies encodes them all at once."""
    params = gen.params
    return encode_bodies(gen, spread_symbols([seal(params, payload) for payload in payloads], params.m, params.B))


def _in_field(body: bytes, m: int) -> bool:
    """Whether every symbol of body, in the payload layout, lies in
    GF(2^m), judged by the symbols' last bytes without parsing them: what
    is left of those once every value below 2^(m - 8 * (w - 1)) is deleted
    must be empty."""
    width = symbol_width(m)
    return not body[width - 1 :: width].translate(None, bytes(range(1 << m - 8 * (width - 1))))


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
        self.params = params = self.manifest.params()
        self._names = {entry["node"] - 1: entry["file"] for entry in self.manifest.shares}
        self._stripe_size = params.alpha * symbol_width(params.m)
        self._bodies: dict[int, bytes | None] = {}
        self._stripes: dict[int, list[tuple[int, ...]]] = {}
        self._columns: dict[tuple[int, int], tuple[int, ...] | None] = {}
        self._fds: dict[int, tuple[int, bool]] = {}  # node -> (descriptor, writable), from stripe_column
        self.files_read = 0  # share files whose header was read so far, well-formed or not

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
        layout above, or None for an erasure: the whole file, checked by
        _read.  The file is closed again before this returns."""
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
            m, alpha = self.params.m, self.params.alpha
            values = struct.unpack(_body_format(m, len(body) // symbol_width(m)), body)
            stripes = self._stripes[node] = [values[pos : pos + alpha] for pos in range(0, len(values), alpha)]
        return stripes[stripe]

    def _load(self, node: int) -> bytes | None:
        try:
            fd = os.open(self._path(node), os.O_RDONLY | os.O_NONBLOCK)
        except OSError:  # missing or unreadable: nothing was read
            return None
        try:
            return self._read(node, fd, HEADER_SIZE, self.manifest.stripe_count * self._stripe_size)
        finally:
            os.close(fd)

    def stripe_column(self, node: int, stripe: int) -> tuple[int, ...] | None:
        """The node's alpha symbols of one stripe, or None for an erasure,
        read alone and checked by _read.  Cached, so a node's stripe is
        read once.  The file is opened once, for reading and writing if it
        can be, else for reading, and stays open for patch until close()."""
        key = (node, stripe)
        if key not in self._columns:
            try:
                fd = self._open(node)
            except OSError:  # missing or unreadable: nothing was read
                symbols = None
            else:
                size = self._stripe_size
                symbols = self._read(node, fd, HEADER_SIZE + stripe * size, size)
            if symbols is not None:
                symbols = struct.unpack(_body_format(self.params.m, self.params.alpha), symbols)
            self._columns[key] = symbols
        return self._columns[key]

    def _open(self, node: int) -> int:
        """The node's descriptor, opened on first use for reading and
        writing, or for reading alone if the file cannot be written; OSError
        if it cannot be read either."""
        if node not in self._fds:
            path = self._path(node)
            try:
                self._fds[node] = os.open(path, os.O_RDWR | os.O_NONBLOCK), True
            except OSError:  # read-only, or not there at all
                self._fds[node] = os.open(path, os.O_RDONLY | os.O_NONBLOCK), False
        return self._fds[node][0]

    def _read(self, node: int, fd: int, offset: int, size: int) -> bytes | None:
        """The size payload bytes at offset of the node's share file, open
        at fd, or None for an erasure: the one check of every share read.
        The header must be the one the manifest gives the node, the file's
        length (fstat) that of the manifest's stripes, the bytes pread
        returns size long, and every symbol of them below 2^m.  The file
        counts in files_read once its header is read; a directory or a FIFO
        fails that read."""
        try:
            header = os.pread(fd, HEADER_SIZE, 0)
        except OSError:  # a directory, a FIFO, a read error
            return None
        self.files_read += 1
        p, count = self.params, self.manifest.stripe_count
        if header != _HEADER.pack(MAGIC, FORMAT_VERSION, p.n, p.k, p.m, node, count):
            return None
        if os.fstat(fd).st_size != HEADER_SIZE + count * self._stripe_size:
            return None
        try:
            symbols = os.pread(fd, size, offset)
        except OSError:  # a read error
            return None
        return symbols if len(symbols) == size and _in_field(symbols, p.m) else None

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
