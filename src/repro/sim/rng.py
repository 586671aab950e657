"""Named, independently-seeded random streams.

Determinism policy: every stochastic consumer (task placement in N-Queens,
atom jitter in mini-MD, adaptive-route tie breaking, ...) pulls from its own
named stream.  Streams are derived from a root seed via
``numpy.random.SeedSequence.spawn``-style hashing of the name, so adding a
new consumer never shifts the values an existing consumer sees — experiment
results stay comparable across code revisions.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np


def spawn_seed(root_seed: int, *spawn_key) -> int:
    """Derive a child seed from ``root_seed`` and a stable spawn key.

    The parallel sweep runner gives every benchmark point its own seed so
    that (a) points are statistically independent streams and (b) the seed
    a point receives depends only on the root seed and the point's spawn
    key — never on how many workers ran, which worker picked the point up,
    or what order points completed in.  That is what makes a ``--jobs N``
    sweep bit-identical to ``--jobs 1``: the (root_seed, key) -> seed map
    is a pure function.

    Keys may be ints, strings, floats, or tuples thereof; they are folded
    through SHA-256 (salted hashes such as Python's ``hash()`` must never
    leak in here, or runs stop being reproducible across processes).
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode("ascii"))
    for part in spawn_key:
        if isinstance(part, tuple):
            h.update(b"(")
            for sub in part:
                h.update(repr(sub).encode("utf-8"))
                h.update(b",")
            h.update(b")")
        else:
            h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    # 63 bits: always a non-negative Python int, valid as a numpy seed
    return int.from_bytes(h.digest()[:8], "big") >> 1


class RngRegistry:
    """Factory for named :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use)."""
        gen = self._streams.get(name)
        if gen is None:
            # Stable across processes/runs: hash the name with CRC32 rather
            # than Python's salted hash().
            child = np.random.SeedSequence(
                entropy=self.root_seed,
                spawn_key=(zlib.crc32(name.encode("utf-8")),),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def spawn(self, *key) -> "RngRegistry":
        """A child registry rooted at ``spawn_seed(self.root_seed, *key)``.

        Sweep workers use this instead of sharing the parent's
        streams: the child's seed depends only on the parent seed and the
        spawn key, so results do not depend on worker scheduling.
        """
        return RngRegistry(spawn_seed(self.root_seed, *key))

    # -- checkpoint support --------------------------------------------------
    def get_state(self) -> dict:
        """Snapshot every materialized stream's bit-generator state.

        Part of a coordinated checkpoint: restoring this map into a fresh
        registry (same root seed) makes every stochastic consumer continue
        its sequence exactly where the checkpoint left it, which is what
        keeps a post-restart run bit-identical to an uninterrupted one.
        """
        return {
            "root_seed": self.root_seed,
            "streams": {name: gen.bit_generator.state
                        for name, gen in sorted(self._streams.items())},
        }

    def set_state(self, state: dict) -> None:
        """Restore stream states captured by :meth:`get_state`.

        Streams are re-created through :meth:`stream` (same name-derived
        seeds) and then fast-forwarded to the captured bit-generator
        state; streams the checkpoint never materialized stay lazy.
        """
        if int(state["root_seed"]) != self.root_seed:
            raise ValueError(
                f"RNG state captured under root seed {state['root_seed']} "
                f"cannot restore into a registry seeded {self.root_seed}")
        for name, bg_state in state["streams"].items():
            self.stream(name).bit_generator.state = bg_state

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RngRegistry seed={self.root_seed} streams={sorted(self._streams)}>"
