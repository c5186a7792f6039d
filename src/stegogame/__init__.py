"""Coverless steganography by cover selection, plus a security harness.

The codec hides l bits per transmitted sequence by choosing which N of T
catalogued covers to send and in what order; no cover byte is ever touched.
Around it: exact capacity and usage-budget math, histogram-distance
indistinguishability tests, and a four-tier attack game.

Every public name, and every submodule, is imported on first access (PEP
562), so importing the package loads none of its submodules.
"""

__version__ = "0.1.0"

import importlib

# submodule -> the public names it defines
_PUBLIC = {
    "bits": (),
    "budget": ("CoverageReport", "coverage_report", "max_safe_uses", "pr_coverage_mc"),
    "divergence": (
        "DistanceReport", "EmpiricalDistribution", "calibrate_epsilon",
        "distinguishability_test", "estimate_distribution", "js", "kl", "tv", "w1",
    ),
    "errors": ("StegogameError",),
    "library": (
        "CoverEntry", "CoverLibrary", "build_library", "hash_bytes", "hash_file",
        "load_manifest", "save_manifest",
    ),
    "permcodec": ("Arrangement", "Capacity", "capacity", "rank", "unrank"),
    "stego": (
        "Message", "StegoKey", "StegoSequence", "embed", "extract", "keygen", "load_key",
        "load_sequence", "save_key", "save_sequence",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_PUBLIC})
