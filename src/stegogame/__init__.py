"""Coverless steganography by cover selection, plus a security harness.

The codec hides l bits per transmitted sequence by choosing which N of T
catalogued covers to send and in what order; no cover byte is ever touched.
Around it: exact capacity and usage-budget math, histogram-distance
indistinguishability tests, and a four-tier attack game.

The codec names are imported here.  The budget and divergence names, and
those two submodules, are imported on first access, so that importing the
package (as every CLI call does) loads neither them nor numpy.
"""

__version__ = "0.1.0"

import importlib

from .bits import bits_to_hex, hex_to_bits
from .errors import StegogameError
from .library import (
    CoverEntry,
    CoverLibrary,
    build_library,
    hash_bytes,
    hash_file,
    load_manifest,
    save_manifest,
)
from .permcodec import (
    Arrangement,
    Capacity,
    capacity,
    rank,
    unrank,
)
from .stego import (
    Message,
    SeededEntropy,
    StegoKey,
    StegoSequence,
    SystemEntropy,
    embed,
    extract,
    keygen,
    load_key,
    load_sequence,
    save_key,
    save_sequence,
)

# public name -> the submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(
        (
            "CoverageReport",
            "coverage_report",
            "max_safe_uses",
            "pr_coverage_exact",
            "pr_coverage_mc",
            "pr_coverage_published",
        ),
        "budget",
    ),
    **dict.fromkeys(
        (
            "DistanceReport",
            "EmpiricalDistribution",
            "calibrate_epsilon",
            "distinguishability_test",
            "estimate_distribution",
            "js",
            "kl",
            "tv",
            "w1",
        ),
        "divergence",
    ),
}


def __getattr__(name: str):
    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__all__ = [
    "Arrangement",
    "Capacity",
    "CoverEntry",
    "CoverLibrary",
    "CoverageReport",
    "DistanceReport",
    "EmpiricalDistribution",
    "Message",
    "SeededEntropy",
    "StegoKey",
    "StegoSequence",
    "StegogameError",
    "SystemEntropy",
    "bits_to_hex",
    "build_library",
    "calibrate_epsilon",
    "capacity",
    "coverage_report",
    "distinguishability_test",
    "embed",
    "estimate_distribution",
    "extract",
    "hash_bytes",
    "hash_file",
    "hex_to_bits",
    "js",
    "keygen",
    "kl",
    "load_key",
    "load_manifest",
    "load_sequence",
    "max_safe_uses",
    "pr_coverage_exact",
    "pr_coverage_mc",
    "pr_coverage_published",
    "rank",
    "save_key",
    "save_manifest",
    "save_sequence",
    "tv",
    "unrank",
    "w1",
]
