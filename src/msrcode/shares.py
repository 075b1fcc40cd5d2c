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

A body is parsed with one struct.unpack of all its symbols ("B" or "H"
per symbol, little-endian), range-checked once through its largest symbol,
and cut into per-stripe tuples; write_share packs it with one struct.pack.

ShareDir is how the command-line tool reads and patches a share directory,
so the layout above is known to this module alone.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .msr import FLAVORS, InvalidParams, MsrParams, WrongLength, make_params
from .reconstruct import crc_payload_length

__all__ = ["ShareFile", "Manifest", "ShareDir", "read_share", "write_share", "share_filename", "stripe_count", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"MSRC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHHHHI")
HEADER_SIZE = _HEADER.size

CRC_SCHEME = "crc32-msb-bitpacked"


class ShareFormatError(ValueError):
    pass


def symbol_width(m: int) -> int:
    return (m + 7) // 8


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
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, share.n, share.k, share.m, share.node_index, share.stripe_count)
    symbols = list(itertools.chain.from_iterable(share.stripes))
    Path(path).write_bytes(header + struct.pack(_body_format(share.m, len(symbols)), *symbols))


def read_share(path, params: MsrParams | None = None) -> ShareFile:
    """Parse one share file; any malformation raises ShareFormatError.

    The header's (n, k, m) is validated by make_params, or, when params
    are given (already validated, say from a manifest), must equal theirs.
    """
    with open(path, "rb") as fp:
        blob = fp.read()
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
    count = stripe_count * params.alpha
    expected = count * symbol_width(m)
    body = blob[HEADER_SIZE:]
    if len(body) != expected:
        raise ShareFormatError(f"{path}: payload is {len(body)} bytes, expected {expected}")
    values = struct.unpack(_body_format(m, count), body)
    top = max(values, default=0)
    if top >= 1 << m:
        raise ShareFormatError(f"{path}: symbol {top} outside GF(2^{m})")
    alpha = params.alpha
    stripes = [values[pos : pos + alpha] for pos in range(0, count, alpha)]
    return ShareFile(n=n, k=k, m=m, node_index=node_index, stripes=stripes)


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
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

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

    A node's file is parsed on the first request for one of its columns and
    cached.  A file that is missing, unreadable, malformed or whose header
    disagrees with the manifest makes the node an erasure (None), so one bad
    file costs one node, not the run.  The manifest's parameters and file
    names are looked up once, not per file.
    """

    def __init__(self, share_dir, manifest_path=None):
        self.root = Path(share_dir)
        self.manifest = Manifest.load(Path(manifest_path) if manifest_path else self.root / "manifest.json")
        self.params = self.manifest.params()
        self._names = {entry["node"] - 1: entry["file"] for entry in self.manifest.shares}
        self._shares: dict[int, ShareFile | None] = {}
        self.files_read = 0  # share files read from disk so far, well-formed or not

    def file(self, node: int) -> Path:
        return self.root / self._names[node]

    def column(self, node: int, stripe: int) -> tuple[int, ...] | None:
        """The node's alpha symbols of one stripe, or None for an erasure."""
        if node not in self._shares:
            self._shares[node] = self._load(node)
        share = self._shares[node]
        return None if share is None else share.stripes[stripe]

    def _load(self, node: int) -> ShareFile | None:
        try:
            share = read_share(self.file(node), self.params)
        except OSError:  # missing, a directory, unreadable: nothing was read
            return None
        except ShareFormatError:
            share = None
        self.files_read += 1
        if share is None or (share.node_index, share.stripe_count) != (node, self.manifest.stripe_count):
            return None
        return share

    def patch(self, node: int, stripe: int, changes) -> None:
        """Overwrite symbols of one stripe in place; changes are
        (row, value) pairs, and only those symbols are written."""
        width = symbol_width(self.params.m)
        alpha = self.params.alpha
        with open(self.file(node), "r+b") as fp:
            for row, value in changes:
                fp.seek(HEADER_SIZE + (stripe * alpha + row) * width)
                fp.write(int(value).to_bytes(width, "little"))
        self._shares.pop(node, None)
