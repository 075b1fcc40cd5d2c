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

ShareDir is how the command-line tool reads and patches a share directory,
so the layout above is known to this module alone.
"""

from __future__ import annotations

import json
import struct
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .msr import FLAVORS, InvalidParams, MsrParams, make_params

__all__ = ["ShareFile", "Manifest", "ShareDir", "read_share", "write_share", "share_filename", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"MSRC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHHHHI")
HEADER_SIZE = _HEADER.size

CRC_SCHEME = "crc32-msb-bitpacked"


class ShareFormatError(ValueError):
    pass


def symbol_width(m: int) -> int:
    return (m + 7) // 8


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
    width = symbol_width(share.m)
    blob = bytearray(
        _HEADER.pack(MAGIC, FORMAT_VERSION, share.n, share.k, share.m, share.node_index, share.stripe_count)
    )
    for stripe in share.stripes:
        for sym in stripe:
            blob += int(sym).to_bytes(width, "little")
    Path(path).write_bytes(bytes(blob))


def read_share(path) -> ShareFile:
    blob = Path(path).read_bytes()
    if len(blob) < HEADER_SIZE:
        raise ShareFormatError(f"{path}: truncated header")
    magic, version, n, k, m, node_index, stripe_count = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ShareFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ShareFormatError(f"{path}: unsupported version {version}")
    params = make_params(n, k, m)  # re-validates the header tuple
    if not 0 <= node_index < n:
        raise ShareFormatError(f"{path}: node index {node_index} out of range")
    width = symbol_width(m)
    expected = stripe_count * params.alpha * width
    body = blob[HEADER_SIZE:]
    if len(body) != expected:
        raise ShareFormatError(f"{path}: payload is {len(body)} bytes, expected {expected}")
    stripes = []
    pos = 0
    limit = 1 << m
    for _ in range(stripe_count):
        stripe = []
        for _ in range(params.alpha):
            value = int.from_bytes(body[pos : pos + width], "little")
            if value >= limit:
                raise ShareFormatError(f"{path}: symbol {value} outside GF(2^{m})")
            stripe.append(value)
            pos += width
        stripes.append(tuple(stripe))
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

    def file_for_node(self, node_index: int) -> str:
        label = node_index + 1
        for entry in self.shares:
            if entry["node"] == label:
                return entry["file"]
        raise ShareFormatError(f"manifest has no share for node {label}")

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
            if not (isinstance(entry, dict) and isinstance(entry.get("node"), int) and isinstance(entry.get("file"), str)):
                raise ShareFormatError(f"{path}: manifest share entries need an int node and a str file")
        if raw["stripe_count"] < 1:
            raise ShareFormatError(f"{path}: manifest stripe_count must be at least 1")
        if sorted(entry["node"] for entry in raw["shares"]) != list(range(1, raw["n"] + 1)):
            raise ShareFormatError(f"{path}: manifest must name one share file per node 1..{raw['n']}")
        return cls(**raw)


# Manifest field annotations (strings under postponed evaluation) -> JSON type
_MANIFEST_TYPES = {"int": int, "str": str, "list[dict]": list}


class ShareDir:
    """A share directory read lazily, node by node.

    A node's file is parsed on the first request for one of its columns and
    cached.  A file that is missing, unreadable, malformed or whose header
    disagrees with the manifest makes the node an erasure (None), so one bad
    file costs one node, not the run.
    """

    def __init__(self, share_dir, manifest_path=None):
        self.root = Path(share_dir)
        self.manifest = Manifest.load(Path(manifest_path) if manifest_path else self.root / "manifest.json")
        self._shares: dict[int, ShareFile | None] = {}

    def file(self, node: int) -> Path:
        return self.root / self.manifest.file_for_node(node)

    def column(self, node: int, stripe: int) -> tuple[int, ...] | None:
        """The node's alpha symbols of one stripe, or None for an erasure."""
        if node not in self._shares:
            self._shares[node] = self._load(node)
        share = self._shares[node]
        return None if share is None else share.stripes[stripe]

    def _load(self, node: int) -> ShareFile | None:
        path = self.file(node)
        try:
            share = read_share(path)
        except (OSError, ShareFormatError, InvalidParams):
            return None
        m = self.manifest
        if (share.n, share.k, share.m, share.node_index, share.stripe_count) != (m.n, m.k, m.m, node, m.stripe_count):
            return None
        return share

    def patch(self, node: int, stripe: int, changes) -> None:
        """Overwrite symbols of one stripe in place; changes are
        (row, value) pairs, and only those symbols are written."""
        width = symbol_width(self.manifest.m)
        alpha = self.manifest.params().alpha
        with open(self.file(node), "r+b") as fp:
            for row, value in changes:
                fp.seek(HEADER_SIZE + (stripe * alpha + row) * width)
                fp.write(int(value).to_bytes(width, "little"))
        self._shares.pop(node, None)
