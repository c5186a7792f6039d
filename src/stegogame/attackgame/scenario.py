"""Game setup: secret library, world pool, leak schedule, oracle budgets.

A scenario pins down everything the detection game needs beyond the
adversary itself.  The world pool models the channel's natural traffic and
may overlap the secret library or not; that choice is the scenario author's
to make.  Cover content is resolved through the scenario so tests can run
fully in memory while CLI runs read real files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import (
    MAX_SEED, InvalidConfig, MalformedFile, NotInLibrary, check_choice, check_int, check_real, check_shape, show,
)
from ..library import (
    CoverEntry, CoverId, CoverLibrary, hash_bytes, load_manifest, read_bytes, read_json,
)

KEY_LEAK_MODES = (None, "full", "flip1")
# A learning phase's observations at most; they are drawn and embedded when first read.
MAX_OBSERVATIONS = 100_000


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything fixed before an attack game starts, except the adversary."""

    library: CoverLibrary
    world: CoverLibrary
    N: int
    leak_fraction: float = 0.0
    leak_growth: float = 0.0
    oracle_embed_budget: int = 64
    oracle_extract_budget: int = 64
    rounds: int = 1
    observations: int = 16
    key_leak: str | None = None
    content_map: Mapping[CoverId, bytes] | None = None

    def __post_init__(self):
        for name, low, high in (
            ("oracle_embed_budget", 0, None), ("oracle_extract_budget", 0, None), ("rounds", 1, None),
            ("observations", 0, MAX_OBSERVATIONS),
        ):
            check_int(name, getattr(self, name), low, InvalidConfig, high)
        check_real("leak_fraction", self.leak_fraction, 0, 1, InvalidConfig)
        check_real("leak_growth", self.leak_growth, 0, error=InvalidConfig)
        check_shape(self.library.T, self.N, InvalidConfig)
        if self.world.T < self.N:
            raise InvalidConfig(
                f"world pool holds {self.world.T} covers, fewer than N={self.N}"
            )
        check_choice("key_leak", self.key_leak, KEY_LEAK_MODES, InvalidConfig)

    def leak_size(self, round_index: int = 0) -> int:
        """Leaked-subset size for a given round; grows linearly, capped at T."""
        # a growth past 1 leaks everything in one round; capping it keeps the
        # product finite
        fraction = self.leak_fraction + round_index * min(self.leak_growth, 1.0)
        return min(self.library.T, int(fraction * self.library.T + 1e-9))

    def content_for(self, cover_id: CoverId) -> bytes:
        """Bytes of a cover, from the in-memory map or the backing file."""
        if self.content_map is not None and cover_id in self.content_map:
            return self.content_map[cover_id]
        try:
            entry = self.library.lookup_entry(cover_id)
        except NotInLibrary:
            entry = self.world.lookup_entry(cover_id)  # NotInLibrary when in neither
        return read_bytes(entry.path, "cover file")


# the file names the world pool "world_pool"; content is read from the manifests
_FILE_FIELDS = ({f.name for f in fields(Scenario)} - {"world", "content_map"}) | {"world_pool"}


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Read a scenario description from JSON.

    Fields: library, world_pool (manifest paths, relative to the scenario
    file), N, and optionally any other Scenario field but content_map.  An
    unknown field is refused rather than dropped.
    """
    path = Path(path)
    doc = read_json(path, "scenario")
    if not isinstance(doc, dict):
        raise MalformedFile(f"{path}: scenario must be a JSON object")
    unknown = sorted(doc.keys() - _FILE_FIELDS)
    if unknown:
        raise MalformedFile(f"{path}: unknown scenario field {', '.join(map(repr, unknown))}")
    try:
        manifests = [doc["library"], doc["world_pool"]]
        n = doc["N"]
    except KeyError as exc:
        raise MalformedFile(f"{path}: scenario missing field {exc}") from exc
    if not all(isinstance(m, str) for m in manifests):
        raise MalformedFile(f"{path}: library and world_pool must be manifest paths")
    library, world = (load_manifest(path.parent / m) for m in manifests)
    optional = {k: v for k, v in doc.items() if k not in ("library", "world_pool", "N")}
    return Scenario(library=library, world=world, N=n, **optional)


# ---------------------------------------------------------------------------
# synthetic corpora for experiments and self-tests

def synthetic_corpus(count: int, size: int = 2048, seed: int = 0) -> dict[CoverId, bytes]:
    """Deterministic corpus of random-byte covers, keyed by content digest."""
    check_int("count", count, low=1, error=InvalidConfig)
    check_int("size", size, low=1, error=InvalidConfig)
    check_int("seed", seed, 0, InvalidConfig, MAX_SEED)
    if (count - 1).bit_length() > 8 * size:  # count > 256**size, without building it: the draws never end
        raise InvalidConfig(f"count={show(count)} distinct covers need more than size={size} bytes each")
    gen = np.random.Generator(np.random.Philox(key=seed))
    corpus: dict[CoverId, bytes] = {}
    while len(corpus) < count:
        blob = gen.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        corpus[hash_bytes(blob)] = blob
    return corpus


def _library_of(ids: list[CoverId], corpus: Mapping[CoverId, bytes]) -> CoverLibrary:
    entries = tuple(
        CoverEntry(id=cid, path=f"mem://{cid[:12]}", nbytes=len(corpus[cid]))
        for cid in sorted(ids)
    )
    return CoverLibrary(covers=entries)


def synthetic_scenario(
    T: int,
    N: int,
    world_size: int = 64,
    disjoint_world: bool = False,
    seed: int = 0,
    cover_size: int = 2048,
    **kwargs,
) -> Scenario:
    """In-memory scenario over a synthetic corpus.

    The secret library holds T covers.  The world pool holds ``world_size``
    covers from the same corpus: a superset of the library by default
    (overlapping traffic), or fully disjoint when ``disjoint_world`` is set.
    """
    check_int("T", T, low=0, error=InvalidConfig)
    check_int("world_size", world_size, low=0, error=InvalidConfig)
    check_int("cover_size", cover_size, low=1, error=InvalidConfig)
    if not disjoint_world and world_size < T:
        raise InvalidConfig("overlapping world pool must be at least as large as T")
    corpus = synthetic_corpus(world_size + (T if disjoint_world else 0), size=cover_size, seed=seed)
    ids = list(corpus)
    order = np.random.Generator(np.random.Philox(key=seed, counter=1 << 128)).permutation(len(ids))
    world = order[T:] if disjoint_world else order
    return Scenario(
        library=_library_of([ids[i] for i in order[:T]], corpus),
        world=_library_of([ids[i] for i in world], corpus),
        N=N,
        content_map=corpus,
        **kwargs,
    )
