from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

import stegogame
from stegogame.library import build_library


@pytest.fixture(autouse=True, scope="session")
def children_import_package_under_test():
    """`python -m stegogame.cli` children inherit a PYTHONPATH that starts at
    the directory holding the imported package, so they run the code under
    test also when only pytest's `pythonpath` setting put `src/` on the path."""
    root = str(Path(stegogame.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def make_covers(tmp_path):
    """Factory writing n deterministic pseudo-random cover files."""

    def _make(n: int, size: int = 256, tag: str = "cover"):
        rng = random.Random(f"{tag}/{n}/{size}")
        paths = []
        for i in range(n):
            p = tmp_path / f"{tag}{i}.bin"
            p.write_bytes(rng.randbytes(size))
            paths.append(p)
        return paths

    return _make


@pytest.fixture
def file_library(make_covers):
    """Six-cover library backed by real files."""
    return build_library(make_covers(6))
