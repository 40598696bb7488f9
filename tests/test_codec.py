import numpy as np

from cachebc import codec


def blocks_of(B, F=16, seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=(B, F), dtype=np.uint8)


def test_single_block_packets_equal_block():
    b = blocks_of(1, F=8)
    payloads = codec.encode_payloads(b, 32, 0, 5)
    A = codec.coefficient_rows(5, 0, 32, 1)
    for j, payload in enumerate(payloads):
        expect = b[0] if A[j, 0] else np.zeros(8, np.uint8)
        assert np.array_equal(payload, expect)


def test_encode_bit_identical_across_runs():
    b = blocks_of(4, F=16, seed=3)
    p1 = codec.encode_payloads(b, 64, 2, 42)
    p2 = codec.encode_payloads(b, 64, 2, 42)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, codec.encode_payloads(b, 64, 2, 43))
    assert not np.array_equal(p1, codec.encode_payloads(b, 64, 3, 42))


def test_rank_reached_with_eight_extra():
    hits = 0
    for seed in range(500):
        A = codec.coefficient_rows(seed, 0, 12, 4)
        x, deficit = codec.solve_gf2(A, np.zeros((12, 1), np.uint8))
        hits += x is not None
    assert hits / 500 >= 0.99


def test_decode_all_known_zero_packets():
    b = blocks_of(6)
    res = codec.decode_arrays([], np.zeros((0, 0), np.uint8), 6, 0, 0, {i: b[i] for i in range(6)})
    assert res.ok and np.array_equal(res.blocks, b)


def test_hand_elimination_with_known_blocks():
    # four blocks, first two known; remaining system rows (0011) and (0001)
    b = blocks_of(4, F=4, seed=9)
    rows = np.array([[1, 1], [0, 1]], np.uint8)  # over the two unknowns
    rhs = np.stack([b[2] ^ b[3], b[3]])
    sol, deficit = codec.solve_gf2(rows, rhs)
    assert deficit == 0
    assert np.array_equal(sol[0], b[2])
    assert np.array_equal(sol[1], b[3])


def test_fewer_packets_than_unknowns_always_fails():
    b = blocks_of(10)
    payloads = codec.encode_payloads(b, 50, 1, 7)
    res = codec.decode_arrays(np.arange(9), payloads[:9], 10, 1, 7)
    assert not res.ok and res.rank_deficit >= 1


def test_round_trip_when_rank_full():
    rng = np.random.default_rng(21)
    for trial in range(50):
        B = int(rng.integers(1, 40))
        count = B + int(rng.integers(0, 30))
        b = blocks_of(B, F=8, seed=trial)
        payloads = codec.encode_payloads(b, count, trial, 1000 + trial)
        res = codec.decode_arrays(np.arange(count), payloads, B, trial, 1000 + trial)
        A = codec.coefficient_rows(1000 + trial, trial, count, B)
        x, _ = codec.solve_gf2(A, np.zeros((count, 1), np.uint8))
        full_rank = x is not None
        assert res.ok == full_rank
        if res.ok:
            assert np.array_equal(res.blocks, b)


def test_side_information_monotone():
    rng = np.random.default_rng(77)
    flips = 0
    for trial in range(500):
        B = int(rng.integers(2, 24))
        b = blocks_of(B, F=4, seed=trial)
        count = int(rng.integers(1, B + 6))
        payloads = codec.encode_payloads(b, count, 0, trial)
        kept = np.array([j for j in range(count) if rng.random() > 0.3], dtype=np.int64)
        small = sorted(rng.choice(B, size=int(rng.integers(0, B)), replace=False))
        extra = sorted(set(range(B)) - set(small))
        big = small + [i for i in extra if rng.random() < 0.5]
        known_small = {int(i): b[i] for i in small}
        known_big = {int(i): b[i] for i in big}
        r_small = codec.decode_arrays(kept, payloads[kept], B, 0, trial, known_small)
        r_big = codec.decode_arrays(kept, payloads[kept], B, 0, trial, known_big)
        if r_small.ok:
            assert r_big.ok, "adding side information broke a decodable case"
            assert np.array_equal(r_big.blocks, b)
        if r_small.ok != r_big.ok:
            flips += 1
    assert flips > 0  # the sweep actually exercised marginal cases


def test_overhead_32_packets_suffices():
    for u in (1, 16, 128, 512):
        ok = 0
        trials = 500 if u <= 128 else 150
        for seed in range(trials):
            A = codec.coefficient_rows(seed, 1, u + 32, u)
            x, _ = codec.solve_gf2(A, np.zeros((u + 32, 1), np.uint8))
            ok += x is not None
        assert ok / trials >= 0.99, f"u={u}"


def test_truncation_fallback_uses_late_packets():
    # first u+64 packets rank-deficient but the full set succeeds
    b = blocks_of(2, F=2)
    payloads = codec.encode_payloads(b, 400, 0, 11)
    A = codec.coefficient_rows(11, 0, 400, 2)
    dup = [j for j in range(400) if (A[j] == A[0]).all()]
    rest = [j for j in range(400) if j not in dup]
    chosen = dup[:70] + rest[:1] if len(dup) >= 70 else list(range(70)) + rest[:1]
    res = codec.decode_arrays(np.array(chosen), payloads[chosen], 2, 0, 11)
    # regardless of where the useful packet sits, full-set fallback finds it
    A_sub = A[chosen]
    x, _ = codec.solve_gf2(A_sub, np.zeros((len(chosen), 1), np.uint8))
    assert res.ok == (x is not None)
