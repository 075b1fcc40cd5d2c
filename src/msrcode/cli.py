"""Command-line tool: encode files into per-node shares, reconstruct them
under injected corruption, repair a lost share, patch single symbols, run
failure-rate simulations, and inspect parameter tuples.

Node labels are 1-based on the command line and in printed output; share
file headers carry the 0-based index.  Exit codes: 0 success, 1 usage or
parameter error, 2 reconstruction failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import random
import shutil
import sys
from pathlib import Path

from .bits import bytes_to_symbols, symbols_to_bytes
from .field import MAX_DEGREE, MIN_DEGREE, Field, NotPrimitive
from .msr import (
    InvalidParams,
    WrongLength,
    generator_set,
    helper_symbol,
    make_params,
    regenerate,
    update_complexity,
    update_delta,
    update_patch,
)
from .reconstruct import (
    attach_crc,
    crc_payload_length,
    crc_trailer_length,
    reconstruct_file,
    reconstruct_progressive,
    systematic_message,
)
from .shares import (
    CRC_SCHEME,
    Manifest,
    ShareDir,
    ShareFormatError,
    share_bodies,
    share_filename,
    write_share,
)
from .sim import SimConfig, corrupt_symbols, run_sweep, write_csv, write_gnuplot_script

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DECODE_FAIL = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _build_context(shares: ShareDir):
    params = shares.params
    field = Field(params.m, shares.manifest.primitive_poly)
    gen = generator_set(params, shares.manifest.flavor, field)
    return params, gen


def _parse_node_list(raw: str | None, n: int) -> frozenset[int]:
    if not raw:
        return frozenset()
    out = set()
    for piece in raw.split(","):
        label = int(piece)
        if not 1 <= label <= n:
            raise ValueError(f"node label {label} outside 1..{n}")
        out.add(label - 1)
    return frozenset(out)


# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    try:
        params = make_params(args.n, args.k, args.m)
    except InvalidParams as exc:
        return _fail(str(exc))
    gen = generator_set(params, args.flavor)
    payload_len = crc_payload_length(params)

    data = Path(args.input).read_bytes()
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except FileExistsError:  # exist_ok passes a directory alone
        return _fail(f"{out_dir}: not a directory")
    m = params.m
    payloads = bytes_to_symbols(data, payload_len * m) or [0]  # an empty file gets one stripe
    stripes = len(payloads)
    names = [share_filename(node) for node in range(params.n)]
    for node, body in enumerate(share_bodies(gen, payloads)):
        write_share(out_dir / names[node], params.n, params.k, m, node, stripes, body)

    entries = [{"node": node + 1, "file": name} for node, name in enumerate(names)]
    manifest = Manifest(
        n=params.n,
        k=params.k,
        m=params.m,
        flavor=args.flavor,
        primitive_poly=gen.field.poly,
        file_length=len(data),
        stripe_count=stripes,
        payload_symbols_per_stripe=payload_len,
        crc_scheme=CRC_SCHEME,
        shares=entries,
    )
    manifest.save(out_dir / "manifest.json")
    print(
        f"encoded {len(data)} bytes into {params.n} shares: {stripes} stripe(s), "
        f"{payload_len} payload symbols ({payload_len * params.m} bits) + "
        f"{crc_trailer_length(params.m)} integrity symbols per stripe"
    )
    print(f"wrote {out_dir / 'manifest.json'}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    shares = ShareDir(args.share_dir, args.manifest)
    manifest = shares.manifest
    params, gen = _build_context(shares)
    try:
        corrupt = _parse_node_list(args.corrupt_nodes, params.n)
    except ValueError as exc:
        return _fail(str(exc))

    def source(node, stripe):
        column = shares.column(node, stripe)
        if column is not None and node in corrupt:
            hook_rng = random.Random(f"{args.seed}:corrupt:{stripe}:{node}")
            return corrupt_symbols(hook_rng, gen.field, column)
        return column

    result = reconstruct_file(gen, source, manifest.stripe_count, args.seed)
    for s, report in result.progressive.items():
        if not report.success:
            print(f"stripe {s}: FAIL ({report.failure_reason}) after {report.nodes_accessed} nodes")
            continue
        bad_labels = sorted(node + 1 for node in report.erroneous_nodes)
        print(
            f"stripe {s}: nodes_accessed={report.nodes_accessed} rounds={report.rounds} "
            f"bad_nodes={bad_labels}"
        )
    print(
        f"file: {result.trusted_stripes} stripe(s) from the trusted set, {len(result.progressive)} progressive, "
        f"{shares.files_read} share file(s) read, bad_nodes={sorted(node + 1 for node in result.bad_nodes)}"
    )
    if not result.success:
        return EXIT_DECODE_FAIL

    # each stripe's bitstream holds its payload above the CRC trailer
    trailer = crc_trailer_length(params.m) * params.m
    payloads = (value >> trailer for value in result.bitstreams)
    data = symbols_to_bytes(payloads, manifest.payload_symbols_per_stripe * params.m, manifest.file_length)
    Path(args.output).write_bytes(data)
    print(f"reconstructed {manifest.file_length} bytes -> {args.output}")
    return EXIT_OK


def cmd_repair(args) -> int:
    shares = ShareDir(args.share_dir, args.manifest)
    manifest = shares.manifest
    params, gen = _build_context(shares)
    if not 1 <= args.failed <= params.n:
        return _fail(f"node label {args.failed} outside 1..{params.n}")
    failed = args.failed - 1
    readable = (h for h in range(params.n) if h != failed and shares.body(h) is not None)
    helper_nodes = list(itertools.islice(readable, params.d))
    if len(helper_nodes) < params.d:
        return _fail(
            f"NotEnoughHelpers: need d={params.d} helper shares, found {len(helper_nodes)}"
        )

    # each helper's symbols for every stripe at once, then the failed
    # node's whole body from them
    helpers = [(h, helper_symbol(gen, shares.body(h), failed)) for h in helper_nodes]
    path = shares.file(failed)
    write_share(path, params.n, params.k, params.m, failed, manifest.stripe_count, regenerate(gen, failed, helpers))
    total = params.d * manifest.stripe_count
    print(
        f"repaired node {args.failed} from helpers {[h + 1 for h in helper_nodes]} -> {path}"
    )
    print(
        f"repair bandwidth: {params.d} symbols/stripe ({total} total) vs "
        f"k*alpha = {params.B} symbols/stripe for a naive rebuild"
    )
    return EXIT_OK


def cmd_update(args) -> int:
    with ShareDir(args.share_dir, args.manifest) as shares:
        return _update(args, shares)


def _update(args, shares: ShareDir) -> int:
    """cmd_update on the open share directory, which reads each share's
    stripe and patches it through one descriptor."""
    manifest = shares.manifest
    params, gen = _build_context(shares)
    payload_len = manifest.payload_symbols_per_stripe
    if not 0 <= args.stripe < manifest.stripe_count:
        return _fail(f"stripe {args.stripe} outside 0..{manifest.stripe_count - 1}")
    if not 0 <= args.symbol < payload_len:
        return _fail(f"BadIndex: payload symbol {args.symbol} outside 0..{payload_len - 1}")
    if not 0 <= args.value < gen.field.order:
        return _fail(f"value {args.value} outside GF(2^{params.m})")
    # the symbol's bits that lie past the file's last byte are padding, which
    # encode leaves zero and reconstruct drops
    past = (args.stripe * payload_len + args.symbol + 1) * params.m - 8 * manifest.file_length
    if past >= params.m:
        return _fail(f"BadIndex: payload symbol {args.symbol} of stripe {args.stripe} lies past the file's end")
    if past > 0 and args.value & (1 << past) - 1:
        return _fail(f"value {args.value} sets the low {past} bit(s) of symbol {args.symbol}, past the file's end")
    # update uses one stripe, so it reads that stripe of each share alone:
    # a systematic code's stripe decodes in closed form from its systematic
    # nodes and one parity node; when that fails the CRC or lacks a node,
    # or for the vandermonde flavor, the progressive decoder reads it
    column = functools.partial(shares.stripe_column, stripe=args.stripe)
    message = systematic_message(gen, column)
    if message is None:
        report = reconstruct_progressive(gen, column, random.Random(f"update:{args.stripe}"))
        if not report.success:
            print(f"stripe {args.stripe}: cannot read back current content ({report.failure_reason})")
            return EXIT_DECODE_FAIL
        message = report.recovered_message
    if message[args.symbol] == args.value:
        print("value unchanged; empty patch, nothing rewritten")
        return EXIT_OK

    # the printed patch is the payload change alone; the written one also
    # carries the integrity trailer's change, re-sealed over the new payload
    changed = list(message)
    changed[args.symbol] = args.value
    payload_patch = update_delta(gen, message, changed)
    patch = update_patch(gen, message, attach_crc(params, changed[:payload_len]))

    # check every affected node before writing any, so an abort leaves
    # the directory as it was; an unreadable share is an erasure, left for
    # repair to rebuild
    skipped = []
    changes = {}
    for node, (old, new, rows) in patch.items():
        current = column(node)
        if current is None:
            skipped.append(node + 1)
        elif current != old:
            print(f"share file for node {node + 1} disagrees with the decoded stripe; aborting")
            return EXIT_DECODE_FAIL
        else:
            changes[node] = [(row, new[row]) for row in rows]
    shares.patch(args.stripe, changes)
    rewritten = sum(len(rows) for rows in changes.values())

    payload_nodes = sorted({node + 1 for node, _ in payload_patch})
    print(
        f"payload symbol {args.symbol} ({manifest.flavor} flavor): patch touches "
        f"{len(payload_nodes)} node(s) {payload_nodes}, {len(payload_patch)} symbol(s)"
    )
    print(
        f"with integrity trailer refresh: rewrote {rewritten} symbol(s) across "
        f"{len(changes)} node file(s)"
    )
    if skipped:
        print(f"skipped unreadable share(s) of node(s) {skipped}; rebuild them with `repair --failed`")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.gnuplot and not args.out:
        return _fail("--gnuplot plots the CSV written by --out; give --out too")
    try:
        params = make_params(args.n, args.k, args.m)
        config = SimConfig(
            params=params,
            p_grid=[float(x) for x in args.p_grid.split(",")],
            trials=args.trials,
            seed=args.seed,
            corruption=args.corruption,
            flavor=args.flavor,
        )
    except (InvalidParams, ValueError) as exc:
        return _fail(str(exc))

    points = run_sweep(config)
    if args.out:
        with open(args.out, "w") as fp:
            write_csv(points, fp)
        print(f"wrote {args.out}")
    else:
        write_csv(points, sys.stdout)
    if args.gnuplot:
        with open(args.gnuplot, "w") as fp:
            write_gnuplot_script(fp, args.out)
        print(f"wrote {args.gnuplot}")

    print(f"\n[{params.n},{params.k},{params.d}] m={params.m} trials={config.trials} seed={config.seed}")
    print(f"{'p':>6}  {'proposed_fail':>13}  {'baseline_fail':>13}  {'mean_nodes':>10}")
    for pt in points:
        print(
            f"{pt.p:>6g}  {pt.proposed_failure_rate:>13.4f}  "
            f"{pt.baseline_failure_rate:>13.4f}  {pt.mean_nodes_accessed:>10.2f}"
        )
    return EXIT_OK


def cmd_params(args) -> int:
    alpha = args.k - 1
    d = 2 * alpha
    checks = [
        ("k >= 2", args.k >= 2, f"k={args.k}"),
        ("d <= n-1", d <= args.n - 1, f"d=2(k-1)={d}, n-1={args.n - 1}"),
    ]
    if MIN_DEGREE <= args.m <= MAX_DEGREE:
        q1 = (1 << args.m) - 1
        checks += [
            ("n <= 2^m-1", args.n <= q1, f"n={args.n}, 2^{args.m}-1={q1}"),
            ("gcd(2^m-1, alpha) = 1", math.gcd(q1, alpha) == 1, f"gcd({q1}, {alpha}) = {math.gcd(q1, alpha)}"),
        ]
    else:
        checks.append((f"{MIN_DEGREE} <= m <= {MAX_DEGREE}", False, f"m={args.m}"))
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    try:
        params = make_params(args.n, args.k, args.m)
    except InvalidParams as exc:
        print(f"invalid parameters: {exc}")
        return EXIT_USAGE
    sys_w = update_complexity(generator_set(params, "systematic"))
    van_w = update_complexity(generator_set(params, "vandermonde"))
    print(f"alpha={params.alpha} d={params.d} B={params.B} beta={params.beta}")
    print(f"error capability (corrupted nodes tolerated): {params.error_capability}")
    print(f"update complexity per generator row: systematic={sys_w}, vandermonde={van_w}")
    print(f"repair bandwidth: d*beta={params.d} symbols/stripe vs B={params.B} naive")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _encode_arguments(p: _Parser) -> None:
    p.add_argument("input")
    p.add_argument("out_dir")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--flavor", choices=["systematic", "vandermonde"], default="systematic")
    p.set_defaults(func=cmd_encode)


def _reconstruct_arguments(p: _Parser) -> None:
    p.add_argument("share_dir")
    p.add_argument("output")
    p.add_argument("--manifest", default=None, help="default: <share_dir>/manifest.json")
    p.add_argument("--corrupt-nodes", default=None, help="test hook: 1-based labels, comma separated")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reconstruct)


def _repair_arguments(p: _Parser) -> None:
    p.add_argument("share_dir")
    p.add_argument("--failed", type=int, required=True, help="1-based node label")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_repair)


def _update_arguments(p: _Parser) -> None:
    p.add_argument("share_dir")
    p.add_argument("--stripe", type=int, required=True)
    p.add_argument("--symbol", type=int, required=True, help="payload symbol index within the stripe")
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_update)


def _simulate_arguments(p: _Parser) -> None:
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--p-grid", default="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corruption", choices=["column", "symbol"], default="column")
    p.add_argument("--flavor", choices=["systematic", "vandermonde"], default="systematic")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--gnuplot", default=None, help="also emit a gnuplot script plotting --out")
    p.set_defaults(func=cmd_simulate)


def _params_arguments(p: _Parser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_params)


# name -> (help line, the function that adds the command's arguments)
_COMMANDS = {
    "encode": ("encode a file into n share files plus a manifest", _encode_arguments),
    "reconstruct": ("rebuild the original file from shares", _reconstruct_arguments),
    "repair": ("regenerate one node's share file from d helpers", _repair_arguments),
    "update": ("change one payload symbol, rewriting only affected bytes", _update_arguments),
    "simulate": ("Monte Carlo failure-rate sweep", _simulate_arguments),
    "params": ("derive and validate a parameter tuple", _params_arguments),
}


def _width() -> int:
    """The help width each HelpFormatter would read from the terminal on
    its own."""
    return shutil.get_terminal_size().columns - 2


def build_parser() -> _Parser:
    """The whole msrcode parser, every command's parser included."""
    width = _width()
    parser = _Parser(
        prog="msrcode",
        description=__doc__,
        formatter_class=functools.partial(argparse.RawDescriptionHelpFormatter, width=width),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    for name, (help_line, arguments) in _COMMANDS.items():
        arguments(sub.add_parser(name, help=help_line, formatter_class=formatter))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as build_parser() parses it, building only the parser of
    the command that argv names when that parser takes the rest whole.
    That parser is built as add_parser builds it, so its help and its usage
    errors print what the whole tree prints.  An argv that names no
    command, or leaves arguments over, goes through the whole tree, whose
    top-level parser reports them."""
    if argv and argv[0] in _COMMANDS:
        formatter = functools.partial(argparse.HelpFormatter, width=_width())
        parser = _Parser(prog=f"msrcode {argv[0]}", formatter_class=formatter)
        _COMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidParams, NotPrimitive, ShareFormatError, WrongLength) as exc:
        return _fail(str(exc))
    except FileNotFoundError as exc:
        return _fail(f"{exc.filename}: not found")
    except OSError as exc:  # e.g. an input that is a directory, an output dir that is a file
        return _fail(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))


if __name__ == "__main__":
    sys.exit(main())
