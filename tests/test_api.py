"""The public API's shape: the GeneratorSet is the only code argument, and
the README's library sketch runs as written."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import msrcode

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
