import numpy as np
import pytest

from cachebc import ConfigError, SystemConfig, codec
from cachebc._seeding import (
    CHANNEL_STREAM,
    CODEC_STREAM,
    LIBRARY_STREAM,
    block_streams,
    derived_rng,
    seed_material,
    stream_keys,
)
from cachebc.channel import erasures
from cachebc.placement import draw_library


def seed_sequence_key(entropy):
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def test_stream_keys_are_seed_sequence_keys():
    """Random entropies of 1-8 ints, each below 2^32, up to 2^40, or of the
    benchmark's form seed * 10^4 + i, hashed in one call with mixed word
    counts, plus the edges of the word split."""
    rng = np.random.default_rng(11)
    entropies = []
    for _ in range(500):
        size = int(rng.integers(1, 9))
        high = int(rng.choice([2**32, 2**40]))
        entropy = [int(x) for x in rng.integers(0, high, size=size)]
        if rng.random() < 0.3:
            entropy[0] = int(rng.integers(0, 2**31)) * 10_000 + int(rng.integers(0, 4))
        entropies.append(entropy)
    entropies += [[0], [2**32 - 1], [2**32], [2**64 + 5], [2**70, 0, 3], [0] * 9, []]
    entropies += [[7, 0, 0, LIBRARY_STREAM], [7, 0, 0, CODEC_STREAM, 3]]
    keys = stream_keys(entropies)
    assert keys.dtype == np.uint64 and keys.shape == (len(entropies), 2)
    for entropy, key in zip(entropies, keys):
        assert np.array_equal(key, seed_sequence_key(entropy)), entropy


def test_block_streams_draw_what_derived_rng_draws():
    """Library bits, channel uniforms and codec words drawn through a block's
    keys, in any order and more than once, equal those of derived_rng."""
    cfg = SystemConfig(K=2, D=3, F=4, deltas=[0.7, 0.3], rates=[1.0] * 3, memories=[0.5, 0.0], n=300)
    bases = [[5, 0, 0], [2**33 + 1, 2, 9], [0]]
    tags = [(LIBRARY_STREAM,), (CHANNEL_STREAM,), (CODEC_STREAM, 1), (CODEC_STREAM, 2)]
    streams = block_streams(bases, tags)
    for _ in range(2):
        for base, (library, channel, *phases) in reversed(list(zip(bases, streams))):
            for got, want in zip(draw_library(cfg, library), draw_library(cfg, base)):
                assert np.array_equal(got, want)
            assert np.array_equal(erasures(50, cfg.deltas, channel), erasures(50, cfg.deltas, base))
            uniforms = channel.rng().random(50)
            assert np.array_equal(uniforms, derived_rng(base, CHANNEL_STREAM).random(50))
            for p, stream in enumerate(phases, start=1):
                got = codec.coefficient_rows(stream, p, 40, 70)
                assert np.array_equal(got, codec.coefficient_rows(base, p, 40, 70))
                raw = stream.rng().bit_generator.random_raw(9)
                want = derived_rng(base, CODEC_STREAM, p).bit_generator.random_raw(9)
                assert np.array_equal(raw, want)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "7", [1, -2], [1, 2.0], None])
def test_seed_material_rejects_what_seed_sequence_cannot_take(seed):
    with pytest.raises(ConfigError, match="seed"):
        seed_material(seed)


def test_seed_material_takes_non_negative_ints():
    assert seed_material(np.int64(3)) == [3]
    assert seed_material((4, 0, 2**70)) == [4, 0, 2**70]
    assert seed_material(np.array([1, 2])) == [1, 2]
