"""Seeded counter-based streams: determinism and substream independence."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from confbel import mc as mc_module
from confbel.mc import MCConfig


def test_validation():
    with pytest.raises(ValueError):
        MCConfig(reps=0, seed=1)
    with pytest.raises(ValueError):
        MCConfig(reps=10, seed=-1)
    with pytest.raises(ValueError):
        MCConfig(reps=10, seed=0, stream_id=-2)
    with pytest.raises(ValueError):
        MCConfig(reps=10, seed=0, offset=-1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        MCConfig(reps=10, seed=0).reps = 5


def test_generator_reproducible():
    a = MCConfig(reps=4, seed=42).generator().random(16)
    b = MCConfig(reps=4, seed=42).generator().random(16)
    assert np.array_equal(a, b)


def test_streams_differ():
    base = MCConfig(reps=4, seed=42)
    a = base.generator().random(16)
    b = MCConfig(reps=4, seed=42, stream_id=3).generator().random(16)
    c = MCConfig(reps=4, seed=43).generator().random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_substream_offsets():
    base = MCConfig(reps=4, seed=7, stream_id=2)
    assert base.substream(0) == base
    assert base.substream(5).stream_id == 7
    assert base.substream(5).seed == base.seed
    with pytest.raises(ValueError):
        base.substream(-1)


def test_with_reps_preserves_stream():
    base = MCConfig(reps=4, seed=7, stream_id=2)
    more = base.with_reps(1000)
    assert more.reps == 1000
    assert (more.seed, more.stream_id) == (base.seed, base.stream_id)
    assert np.array_equal(more.generator().random(8), base.generator().random(8))


def test_uniforms():
    mc = MCConfig(reps=100, seed=1)
    u = mc.uniforms()
    assert u.shape == (100,)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(mc.uniforms(100), u)
    assert np.array_equal(mc.uniforms(10), u[:10])


def test_offset_continues_the_stream():
    # offset k skips k doubles: counter k // 4 steps, then k % 4 raw outputs
    base = MCConfig(reps=4, seed=42, stream_id=3)
    stream = base.generator().random(40)
    for k in range(10):
        at = dataclasses.replace(base, offset=k)
        assert np.array_equal(at.generator().random(30), stream[k : k + 30]), k


@pytest.mark.parametrize("draws_per_rep", [1, 3, 799, mc_module.BLOCK_DRAWS + 1])
def test_blocks_tile_the_reps(draws_per_rep):
    size = max(1, mc_module.BLOCK_DRAWS // max(draws_per_rep, mc_module.MIN_ROW_DRAWS))
    base = MCConfig(reps=2 * size + 5, seed=7, stream_id=2, offset=6)
    blocks = list(base.blocks(draws_per_rep))
    assert len(blocks) == -(-base.reps // size)
    assert all(b.reps == size for b in blocks[:-1]) and 0 < blocks[-1].reps <= size
    assert sum(b.reps for b in blocks) == base.reps
    starts = np.cumsum([0] + [b.reps for b in blocks[:-1]])
    assert [b.offset for b in blocks] == [base.offset + int(s) * draws_per_rep for s in starts]
    assert {(b.seed, b.stream_id) for b in blocks} == {(base.seed, base.stream_id)}
    with pytest.raises(ValueError):
        next(base.blocks(0))
