"""The public API's shape: the GeneratorSet is the only code argument, the
message is the same flat list going into the encoder and out of the
decoders, and the README's library sketch runs as written."""

import importlib
import inspect
import pkgutil
import random
import re
from pathlib import Path

import pytest

import msrcode
from msrcode.reconstruct import KNodeDecoder
from msrcode.sim import corrupt_symbols

README = Path(__file__).resolve().parents[1] / "README.md"


def _callables():
    """(qualified name, callable) for every function and class __init__
    defined in a msrcode module, methods included."""
    for info in pkgutil.iter_modules(msrcode.__path__):
        module = importlib.import_module(f"msrcode.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_signature_guard():
    """A GeneratorSet carries its own MsrParams, so no callable takes both,
    and the CRC is the decoder's own check, not a caller's callable."""
    checked = 0
    for qualname, fn in _callables():
        names = set(inspect.signature(fn).parameters)
        assert not {"params", "gen"} <= names, f"{qualname} takes both params and gen"
        assert "integrity" not in names, f"{qualname} takes an integrity callable"
        checked += 1
    assert checked > 50


def test_readme_library_sketch_runs():
    blocks = re.findall(r"^## Library sketch\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:library-sketch", "exec"), {})


@pytest.mark.parametrize(
    "n,k,m,flavor", [(7, 4, 3, "systematic"), (7, 4, 3, "vandermonde"), (20, 10, 5, "systematic")]
)
def test_decoded_message_goes_straight_into_the_encoder(n, k, m, flavor):
    """The decoders return the flat B-symbol list that encode_all takes, so
    a decoded message re-encodes to the shares it was decoded from."""
    params = msrcode.make_params(n, k, m)
    gen = msrcode.generator_set(params, flavor)
    rng = random.Random(f"api:{n}:{flavor}")
    payload = [rng.randrange(gen.field.order) for _ in range(msrcode.crc_payload_length(params))]
    shares = msrcode.encode_all(gen, msrcode.attach_crc(params, payload))
    columns = [share.symbols for share in shares]

    # lying nodes send the progressive decoder through its error-locating rounds
    bad = frozenset(rng.sample(range(n), params.error_capability))

    def source(node):
        return corrupt_symbols(rng, gen.field, columns[node]) if node in bad else columns[node]

    report = msrcode.reconstruct_progressive(gen, source, rng)
    assert report.erroneous_nodes and report.erroneous_nodes <= bad
    assert msrcode.encode_all(gen, report.recovered_message) == shares

    nodes = sorted(rng.sample(range(n), k))
    decoder = KNodeDecoder(gen, nodes)
    assert msrcode.encode_all(gen, decoder.decode([columns[node] for node in nodes])) == shares
    decoder.compose()
    assert msrcode.encode_all(gen, decoder.decode([columns[node] for node in nodes])) == shares


@pytest.mark.parametrize("n,k,m", [(7, 4, 3), (20, 10, 5)])
def test_check_crc_takes_what_attach_crc_and_the_decoders_give(n, k, m):
    """The public CRC pair agrees: check_crc passes attach_crc's symbol list
    as it is, and also that message packed into one int, the form a
    KNodeDecoder's bitstream() gives; a tampered message fails in both."""
    params = msrcode.make_params(n, k, m)
    gen = msrcode.generator_set(params)
    rng = random.Random(f"api-crc:{n}")
    payload = [rng.randrange(gen.field.order) for _ in range(msrcode.crc_payload_length(params))]
    message = msrcode.attach_crc(params, payload)
    assert msrcode.check_crc(params, message)
    shares = msrcode.encode_all(gen, message)
    decoder = KNodeDecoder(gen, range(k))
    value = decoder.bitstream([shares[node].symbols for node in range(k)])
    assert msrcode.check_crc(params, value)
    tampered = list(message)
    tampered[0] ^= 1
    assert not msrcode.check_crc(params, tampered)
    assert not msrcode.check_crc(params, value ^ 1 << params.B * m - 1)
