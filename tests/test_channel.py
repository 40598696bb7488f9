import math

import numpy as np
import pytest

from cachebc import ConfigError, transmit


def packets(n, F=4, seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=(n, F), dtype=np.uint8)


def test_all_erased_and_noiseless():
    x = packets(200)
    r = transmit(x, [1.0, 0.0], 5)
    assert r.erased[0].all()
    assert not r.erased[1].any()
    idx, got = r.received_packets(2)
    assert np.array_equal(got, x)
    assert np.array_equal(idx, np.arange(200))


def test_marginals_within_three_sigma():
    n = 100_000
    deltas = [0.8, 0.2]
    r = transmit(packets(n), deltas, 123)
    for k, d in enumerate(deltas, start=1):
        sigma = math.sqrt(d * (1 - d) / n)
        assert abs(r.erasure_fraction(k) - d) <= 3 * sigma


def test_nestedness_every_use():
    r = transmit(packets(100_000), [0.8, 0.5, 0.2], 99)
    # if a stronger receiver is erased, every weaker one is too
    assert not (r.erased[1] & ~r.erased[0]).any()
    assert not (r.erased[2] & ~r.erased[1]).any()


def test_determinism():
    x = packets(5000)
    a = transmit(x, [0.7, 0.3], 7)
    b = transmit(x, [0.7, 0.3], 7)
    c = transmit(x, [0.7, 0.3], 8)
    assert np.array_equal(a.erased, b.erased)
    assert not np.array_equal(a.erased, c.erased)


def test_trace_csv():
    r = transmit(packets(3), [0.9, 0.1], 1)
    lines = r.trace_csv().splitlines()
    assert lines[0] == "use,erased_rx1,erased_rx2"
    assert len(lines) == 4
    use0 = lines[1].split(",")
    assert use0[0] == "0" and set(use0[1:]) <= {"0", "1"}


def test_input_validation():
    with pytest.raises(ConfigError):
        transmit(np.zeros((0, 4), np.uint8), [0.5], 0)
    with pytest.raises(ConfigError):
        transmit(packets(10), [0.2, 0.8], 0)
    with pytest.raises(ConfigError):
        transmit(packets(10), [1.2], 0)


def test_erasures_are_the_transmit_rule():
    # the erasures need no packets: the same seed gives transmit's flags
    from cachebc.channel import erasures

    for n, deltas, seed in ((5000, [0.7, 0.3], 7), (1, [0.5], [3, 1, 4]), (300, [1.0, 0.4, 0.0], 9)):
        assert np.array_equal(erasures(n, deltas, seed), transmit(packets(n), deltas, seed).erased)
    assert erasures(0, [0.8, 0.2], 1).shape == (2, 0)
    with pytest.raises(ConfigError):
        erasures(10, [0.2, 0.8], 0)
