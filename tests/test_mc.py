"""Seeded PCG64DXSM streams: determinism, positioning and substream independence."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    assert np.array_equal(mc.generator().random(100), u)
    assert np.array_equal(mc.with_reps(10).uniforms(), u[:10])


def test_offset_continues_the_stream():
    # offset k skips k doubles: advance(k) jumps k 64-bit outputs, one per double
    base = MCConfig(reps=4, seed=42, stream_id=3)
    stream = base.generator().random(40)
    for k in range(10):
        at = dataclasses.replace(base, offset=k)
        assert np.array_equal(at.generator().random(30), stream[k : k + 30]), k


@settings(max_examples=100, deadline=None)
@given(data=st.data(), j=st.integers(0, 64), k=st.integers(1, 64))
def test_far_offsets_continue_the_stream(data, j, k):
    # advance jumps in O(log offset) steps, so any offset up to 2**62 positions
    # a stream where drawing up to it is out of reach
    o = data.draw(st.integers(j, 2**62))
    at = MCConfig(seed=42, stream_id=3, offset=o).generator().random(k)
    before = MCConfig(seed=42, stream_id=3, offset=o - j).generator().random(j + k)
    assert np.array_equal(at, before[j:])


def test_dkw_cell_offset_is_the_tail_of_one_draw():
    # 4 000 003 doubles: a 5 000 x 799 dkw cell and three more
    o = 4_000_003
    assert np.array_equal(MCConfig(offset=o).generator().random(16), MCConfig().generator().random(o + 16)[o:])


@pytest.mark.parametrize("seed, stream_id", [(0, 0), (0, 1), (1, 0), (42, 3), (2**64 - 1, 0), (2**64 - 1, 5)])
def test_stream_is_child_stream_id_of_the_seed_sequence(seed, stream_id):
    # SeedSequence(seed, spawn_key=(i,)) is SeedSequence(seed).spawn(i + 1)[i],
    # so distinct stream ids are spawned siblings, independent as numpy spawns them
    child = np.random.SeedSequence(seed).spawn(stream_id + 1)[stream_id]
    want = np.random.Generator(np.random.PCG64DXSM(child)).random(8)
    assert np.array_equal(MCConfig(seed=seed, stream_id=stream_id).generator().random(8), want)


def test_seed_and_stream_id_do_not_commute():
    a = MCConfig(seed=0, stream_id=1).generator().random()
    b = MCConfig(seed=1, stream_id=0).generator().random()
    assert a != b


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
