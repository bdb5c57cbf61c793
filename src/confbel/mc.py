"""Reproducible Monte Carlo configuration.

Every stochastic routine in this package draws through an :class:`MCConfig`.
The generator is numpy's ``PCG64DXSM``, seeded by ``SeedSequence(seed,
spawn_key=(stream_id,))``, which is child ``stream_id`` of
``SeedSequence(seed).spawn``; so identical configurations give bit-identical
draws on every platform and distinct stream ids give independent streams
without coordination.

Each double reads one 64-bit output, and ``PCG64DXSM.advance`` jumps any
number of outputs in O(log) steps, so any stretch of a stream can be drawn on
its own: ``offset`` skips that many doubles, and :meth:`MCConfig.blocks`
splits a stream into row blocks whose draws, taken in order, are the draws of
the whole stream bit for bit.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

# Uniforms per row block of :meth:`MCConfig.blocks` (2 MB of doubles), a row
# counting as at least MIN_ROW_DRAWS, since its contour's temporaries cost
# memory however few it reads; docs/decisions.md has the measurements.
BLOCK_DRAWS = 1 << 18
MIN_ROW_DRAWS = 16


@functools.cache
def _free_a_large_chunk() -> None:
    """Allocate and free one untouched 12 MB array, once per process: that raises
    glibc's mmap and trim thresholds, so row blocks keep their heap pages, not
    fault them in anew (docs/decisions.md, "The two-sample slices are exact")."""
    np.empty(3 << 19)


@dataclass(frozen=True)
class MCConfig:
    """Replication count plus the key of a dedicated random stream, read
    from ``offset`` 64-bit outputs past its start."""

    reps: int = 100_000
    seed: int = 0
    stream_id: int = 0
    offset: int = 0

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError(f"reps must be a positive integer, got {self.reps!r}")
        if not 0 <= int(self.seed) < 1 << 64:
            raise ValueError("seed must be a 64-bit non-negative integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned ``offset`` outputs into this stream."""
        bits = np.random.PCG64DXSM(np.random.SeedSequence(int(self.seed), spawn_key=(int(self.stream_id),)))
        if self.offset:
            bits.advance(int(self.offset))
        return np.random.Generator(bits)

    def blocks(self, draws_per_rep: int) -> Iterator["MCConfig"]:
        """Configs that cover this one's reps in order, in row blocks of at
        most ``BLOCK_DRAWS // max(draws_per_rep, MIN_ROW_DRAWS)`` reps (at
        least one) each, every block at the offset where its first rep's
        draws start; a sampler that uses ``draws_per_rep`` uniforms per rep
        gives the same rows block by block as at once."""
        if draws_per_rep < 1:
            raise ValueError(f"draws_per_rep must be a positive integer, got {draws_per_rep!r}")
        _free_a_large_chunk()
        size = max(1, BLOCK_DRAWS // max(draws_per_rep, MIN_ROW_DRAWS))
        for start in range(0, self.reps, size):
            yield replace(self, reps=min(size, self.reps - start), offset=self.offset + start * draws_per_rep)

    def substream(self, offset: int) -> "MCConfig":
        """Config for an independent stream derived from this one."""
        if offset < 0:
            raise ValueError("substream offset must be non-negative")
        return replace(self, stream_id=self.stream_id + offset)

    def with_reps(self, reps: int) -> "MCConfig":
        return replace(self, reps=reps)

    def uniforms(self) -> np.ndarray:
        """``reps`` uniforms from the start of the stream."""
        return self.generator().random(self.reps)
