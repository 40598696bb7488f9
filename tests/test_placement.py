import math

import numpy as np
import pytest

from cachebc import (
    CapacityError,
    ConfigError,
    OutOfRegimeError,
    SystemConfig,
    build_caches,
    build_prefix_caches,
    common_demand_contains,
    draw_library,
    enumerate_cache_subsets,
    sub_message_layout,
)
from cachebc.schedule import flat_library


def brute_subsets(K0, t):
    out = []
    for mask in range(1 << K0):
        s = tuple(k + 1 for k in range(K0) if mask >> k & 1)
        if len(s) == t:
            out.append(s)
    return sorted(out)


def test_subsets_examples():
    assert enumerate_cache_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert enumerate_cache_subsets(3, 1) == [(1,), (2,), (3,)]
    got = enumerate_cache_subsets(5, 2)
    assert len(got) == 10
    assert got == brute_subsets(5, 2)


def test_subsets_domain_errors():
    with pytest.raises(ConfigError):
        enumerate_cache_subsets(3, 3)
    with pytest.raises(ConfigError):
        enumerate_cache_subsets(3, 0)


def make_cfg(K=3, D=6, F=1, R=2.0, mems=(1.5, 1.5, 1.5), n=1200, deltas=(0.8, 0.5, 0.2)):
    return SystemConfig(
        K=K, D=D, F=F, deltas=list(deltas), rates=[R] * D, memories=list(mems), n=n
    )


def test_layout_rates_example():
    # K0=3, t=2, M=3, D=6, R=2: fragment rates (0.25, 0.25, 0.25) + 1.25
    cfg = make_cfg(mems=(3.0, 3.0, 3.0))
    layout = sub_message_layout(cfg, 3, 2, 3.0)
    assert layout.cached_rate == pytest.approx(0.25)
    assert layout.uncached_rate == pytest.approx(1.25)
    assert layout.piece_bits == (300, 300, 300, 1500)
    assert layout.message_bits == math.floor(cfg.n * 2.0)


def test_layout_zero_memory():
    cfg = make_cfg()
    layout = sub_message_layout(cfg, 3, 2, 0.0)
    assert layout.piece_bits[:3] == (0, 0, 0)
    assert layout.piece_bits[3] == 2400


def test_layout_regime_error():
    cfg = make_cfg(R=0.4)
    with pytest.raises(OutOfRegimeError):
        sub_message_layout(cfg, 3, 2, 3.0)


def test_layout_domain_errors():
    cfg = make_cfg()  # K = 3
    for K0, t, M, field in [
        (0, 1, 1.5, "K0"),
        (4, 1, 1.5, "K0"),
        (3, 3, 1.5, "t"),
        (3, 2, math.nan, "M"),
        (3, 2, math.inf, "M"),
        (3, 2, -0.1, "M"),
    ]:
        with pytest.raises(ConfigError, match=field):
            sub_message_layout(cfg, K0, t, M)


def test_layout_partition_and_padding():
    cfg = make_cfg(F=16, R=1.97, n=1001, mems=(0.9, 0.9, 0.9))
    layout = sub_message_layout(cfg, 3, 2, 0.9)
    assert sum(layout.piece_bits) == layout.message_bits  # exact partition
    for raw, padded in zip(layout.piece_bits, layout.padded_piece_bits):
        assert padded % 16 == 0 and 0 <= padded - raw < 16
    assert layout.rounding_slack_bits == sum(layout.padded_piece_bits) - layout.message_bits


def piece_mask(caches, layout, k, d, i):
    """Receiver k's cache mask over fragment i of message d."""
    start = layout.position(d, i)
    return caches[k - 1, start : start + layout.piece_bits[i]]


def has_piece(caches, layout, k, d, i):
    return bool(piece_mask(caches, layout, k, d, i).all())


def bits_at(caches, k):
    return int(caches[k - 1, :-1].sum())


def cached_bits(caches, lib, k, d):
    """The bits of message d that receiver k caches, read from the library."""
    lo = sum(len(m) for m in lib[: d - 1])
    hi = lo + len(lib[d - 1])
    return flat_library(lib)[lo:hi][caches[k - 1, lo:hi]]


def test_cache_masks_cover_the_flat_library():
    cfg = make_cfg(mems=(3.0, 3.0, 3.0))
    layout = sub_message_layout(cfg, 3, 2, 3.0)
    caches = build_caches(cfg, layout)
    # one column per library bit, then the always-known padding bit
    assert caches.shape == (3, cfg.D * layout.message_bits + 1)
    assert caches.dtype == bool and caches[:, -1].all()


def test_build_caches_membership_k0_2():
    cfg = make_cfg(K=2, D=4, mems=(1.0, 1.0), deltas=(0.8, 0.2), R=2.0)
    layout = sub_message_layout(cfg, 2, 1, 1.0)
    lib = draw_library(cfg, 3)
    caches = build_caches(cfg, layout)
    # receiver 1 holds fragment 0 of every message, receiver 2 fragment 1
    for d in range(1, 5):
        assert has_piece(caches, layout, 1, d, 0)
        assert not piece_mask(caches, layout, 1, d, 1).any()
        assert has_piece(caches, layout, 2, d, 1)
        assert not piece_mask(caches, layout, 2, d, 0).any()
        off = layout.piece_offset(0)
        piece = cached_bits(caches, lib, 1, d)
        assert np.array_equal(piece, lib[d - 1][off : off + layout.piece_bits[0]])


def test_build_caches_membership_k0_3():
    cfg = make_cfg(mems=(3.0, 3.0, 3.0))
    layout = sub_message_layout(cfg, 3, 2, 3.0)
    caches = build_caches(cfg, layout)
    # receiver 1 holds the fragments for subsets {1,2} and {1,3}
    assert [i for i in range(3) if has_piece(caches, layout, 1, 1, i)] == [0, 1]
    # each cached fragment is stored at exactly t receivers
    for i in range(layout.tau):
        holders = [k for k in range(1, 4) if has_piece(caches, layout, k, 1, i)]
        assert len(holders) == layout.t
        assert tuple(holders) == layout.subsets[i]


def test_cache_budget_exact_before_rounding():
    # divisible n: stored bits equal exactly n * M at every cached receiver
    cfg = make_cfg(mems=(3.0, 3.0, 3.0), n=1200)
    layout = sub_message_layout(cfg, 3, 2, 3.0)
    caches = build_caches(cfg, layout)
    for k in (1, 2, 3):
        assert bits_at(caches, k) == 1200 * 3


def test_cache_capacity_error():
    cfg = make_cfg(mems=(2.9, 3.0, 3.0))
    layout = sub_message_layout(cfg, 3, 2, 3.0)
    with pytest.raises(CapacityError, match="receiver 1"):
        build_caches(cfg, layout)


def test_prefix_caches():
    cfg = SystemConfig(
        K=2, D=2, F=1, deltas=[0.8, 0.2], rates=[1.0, 0.5], memories=[1.1, 0.2], n=1000
    )
    lib = draw_library(cfg, 9)
    zero = build_prefix_caches(cfg, np.zeros((2, 2)))
    assert bits_at(zero, 1) == 0 and bits_at(zero, 2) == 0
    _, witness = common_demand_contains(cfg)
    caches = build_prefix_caches(cfg, witness)
    # cache sizes are exactly the floored greedy shortfall allocation
    for k in (1, 2):
        expect = sum(math.floor(1000 * witness[k - 1, d]) for d in range(2))
        assert bits_at(caches, k) == expect
    prefix = lib[0][: math.floor(1000 * witness[0, 0])]
    assert np.array_equal(cached_bits(caches, lib, 1, 1), prefix)
    # full caching of a whole message
    cfg1 = SystemConfig(K=2, D=1, F=1, deltas=[0.8, 0.2], rates=[0.5], memories=[0.5, 0.5], n=1000)
    lib1 = draw_library(cfg1, 2)
    full = build_prefix_caches(cfg1, np.array([[0.5], [0.5]]))
    assert np.array_equal(cached_bits(full, lib1, 2, 1), lib1[0])


def test_prefix_caches_skip_entries_just_below_zero():
    # validation admits entries down to -1e-12; one floors to -1 bit and must
    # mark nothing, not the whole library
    cfg = SystemConfig(
        K=2, D=2, F=1, deltas=[0.8, 0.2], rates=[1.0, 0.5], memories=[1.1, 0.2], n=1000
    )
    caches = build_prefix_caches(cfg, np.array([[-1e-12, 0.3], [-1e-12, -1e-12]]))
    assert bits_at(caches, 1) == 300 and bits_at(caches, 2) == 0
    assert caches[0, 1000:1300].all()


def test_prefix_cache_capacity_error():
    cfg = SystemConfig(K=1, D=1, F=1, deltas=[0.5], rates=[1.0], memories=[0.1], n=100)
    with pytest.raises(ConfigError):
        build_prefix_caches(cfg, np.array([[0.2]]))


def test_library_draw_deterministic():
    cfg = make_cfg()
    a = draw_library(cfg, 42)
    b = draw_library(cfg, 42)
    c = draw_library(cfg, 43)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_library_bound_is_checked_on_the_lengths_alone():
    # (K + 1) x library bits may reach MAX_HELD_BYTES, not pass it; the
    # check needs only the message lengths, so neither size is allocated
    from cachebc import placement

    n = placement.MAX_HELD_BYTES // 3  # K=2, one message of rate 1
    cfg = SystemConfig(K=2, D=1, F=1, deltas=[0.5, 0.5], rates=[1.0], memories=[0.0, 0.0], n=n)
    assert placement.message_lengths(cfg) == [n]
    with pytest.raises(ConfigError, match=f"n={n + 1} "):
        placement.message_lengths(SystemConfig(**{**cfg.__dict__, "n": n + 1}))
