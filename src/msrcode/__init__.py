"""Error-correcting minimum-storage regenerating codes.

Encode a message across n storage nodes so that any k clean nodes suffice to
reconstruct it, a failed node is rebuilt exactly from d helper symbols, and
corrupted (Byzantine) nodes are located and tolerated up to
floor((n - k + 1) / 2) during reconstruction, which touches extra nodes only
when errors are actually present.
"""

from .field import DEFAULT_PRIMITIVE_POLYS, Field, NotPrimitive
from .msr import (
    FLAVORS,
    BadIndex,
    GeneratorSet,
    InvalidParams,
    MessageMatrix,
    MsrParams,
    NodeShare,
    SingularHelperSet,
    WrongHelperCount,
    WrongLength,
    apply_patch,
    encode_all,
    generator_set,
    helper_symbol,
    make_params,
    pack_message,
    regenerate,
    unpack_message,
    update_complexity,
    update_patch,
)
from .reconstruct import (
    DecodeReport,
    attach_crc,
    check_crc,
    crc_payload_length,
    make_integrity_checker,
    reconstruct_file,
    reconstruct_progressive,
)
from .rs import BadLength, DecodeResult, RsCode
from .sim import SimConfig, SimPoint, baseline_success_model, run_sweep, run_trial

__all__ = [
    "Field",
    "NotPrimitive",
    "DEFAULT_PRIMITIVE_POLYS",
    "RsCode",
    "DecodeResult",
    "BadLength",
    "MsrParams",
    "GeneratorSet",
    "MessageMatrix",
    "NodeShare",
    "InvalidParams",
    "WrongLength",
    "WrongHelperCount",
    "SingularHelperSet",
    "BadIndex",
    "FLAVORS",
    "make_params",
    "generator_set",
    "pack_message",
    "unpack_message",
    "encode_all",
    "helper_symbol",
    "regenerate",
    "update_complexity",
    "update_patch",
    "apply_patch",
    "DecodeReport",
    "reconstruct_progressive",
    "reconstruct_file",
    "attach_crc",
    "check_crc",
    "crc_payload_length",
    "make_integrity_checker",
    "SimConfig",
    "SimPoint",
    "run_trial",
    "run_sweep",
    "baseline_success_model",
]

__version__ = "0.1.0"
