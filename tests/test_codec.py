import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # first u+16 packets rank-deficient but the full set succeeds
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


def test_unit_blocks_at_a_word_boundary_decode():
    # F=1 and u+1 = 64 columns: the packed system is exactly one word wide
    b = blocks_of(63, F=1, seed=4)
    payloads = codec.encode_payloads(b, 74, 1, 5)
    res = codec.decode_arrays(np.arange(74), payloads, 63, 1, 5)
    assert res.ok and np.array_equal(res.blocks, b)


def test_full_rank_frequency_matches_exact_probability():
    """A random (u+s) x u GF(2) matrix has full rank with probability
    prod_{i=s+1}^{u+s} (1 - 2^-i); the decoder's success count over N
    independent systems lies within 4 binomial sigma of it."""
    u, F, N = 64, 16, 2000
    b = blocks_of(u, F=F, seed=9)
    for s in (0, 1, 4):
        p = float(np.prod(1.0 - 2.0 ** -np.arange(s + 1, u + s + 1)))
        ok = 0
        for j in range(N):
            payloads = codec.encode_payloads(b, u + s, 0, [s, j])
            res = codec.decode_arrays(np.arange(u + s), payloads, u, 0, [s, j])
            if res.ok:
                assert np.array_equal(res.blocks, b)
                ok += 1
        sigma = np.sqrt(N * p * (1 - p))
        assert abs(ok - N * p) <= 4 * sigma, (s, ok, N * p, sigma)


# -- the batched elimination kernel -------------------------------------------


def reference_solve(rows, rhs):
    """Textbook Gauss-Jordan over unpacked bits, one column at a time."""
    m, u = rows.shape
    M = np.concatenate([rows, rhs], axis=1).astype(np.uint8)
    rank = 0
    for c in range(u):
        hits = np.flatnonzero(M[rank:, c]) + rank
        if hits.size == 0:
            continue
        M[[rank, hits[0]]] = M[[hits[0], rank]]
        others = np.flatnonzero(M[:, c])
        M[others[others != rank]] ^= M[rank]
        rank += 1
    if rank < u:
        return None, u - rank
    return M[:u, u:], 0


def consistent_system(rng, F, u, m, deficient=False):
    """(m, u) random rows and the right-hand side of a random solution;
    ``deficient`` repeats a column, so the rank falls short."""
    rows = rng.integers(0, 2, size=(m, u), dtype=np.uint8)
    if deficient and u >= 2:
        rows[:, -1] = rows[:, 0]
    x = rng.integers(0, 2, size=(u, F), dtype=np.uint8)
    return rows, (rows.astype(np.int64) @ x % 2).astype(np.uint8)


def assert_matches_reference(systems, results):
    for (rows, rhs), (x, deficit) in zip(systems, results):
        want_x, want_deficit = reference_solve(rows, rhs)
        assert deficit == want_deficit
        if want_x is None:
            assert x is None
        else:
            assert x.shape == want_x.shape and np.array_equal(x, want_x)


@pytest.mark.parametrize("F", [1, 8, 16, 17])
def test_batched_kernel_matches_reference(F):
    rng = np.random.default_rng(F)
    for _ in range(6):
        systems = [
            consistent_system(
                rng, F, u, int(rng.integers(max(u - 3, 0), u + 40)), deficient=rng.random() < 0.3
            )
            for u in rng.integers(1, 150, size=int(rng.integers(3, 9)))
        ]
        systems += [consistent_system(rng, F, 0, 5), consistent_system(rng, F, 30, 12)]
        results = codec.solve_gf2_batch(systems)
        assert any(x is None for x, _ in results) and any(x is not None for x, _ in results)
        assert_matches_reference(systems, results)


def test_batched_kernel_at_a_word_boundary():
    # F=1 and u+1 = 64 columns: the system is exactly one word wide
    rng = np.random.default_rng(3)
    systems = [consistent_system(rng, 1, 63, 74), consistent_system(rng, 1, 127, 140)]
    systems.append(consistent_system(rng, 1, 10, 20))
    assert_matches_reference(systems, codec.solve_gf2_batch(systems))
    b = blocks_of(63, F=1, seed=4)
    res = codec.decode_batch(
        [(codec.encoder(b), 63, 1, 5,
          [codec.Reception(np.arange(74), np.zeros(63, bool), np.zeros((63, 1), np.uint8))])]
    )
    assert res[0][0].ok and np.array_equal(res[0][0].blocks, b)


def test_batched_kernel_in_small_chunks(monkeypatch):
    rng = np.random.default_rng(8)
    systems = [consistent_system(rng, 16, u, u + 10) for u in (5, 70, 140, 70, 0)]
    whole = codec.solve_gf2_batch(systems)
    monkeypatch.setattr(codec, "_KERNEL_WORDS", 1)  # one system per pass
    for (x, d), (y, e) in zip(whole, codec.solve_gf2_batch(systems)):
        assert d == e and np.array_equal(x, y)
    assert_matches_reference(systems, whole)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(
        st.tuples(st.sampled_from([1, 8, 16, 17]), st.integers(0, 80), st.integers(0, 100)),
        min_size=1,
        max_size=8,
    ),
    groups=st.lists(st.integers(0, 3), min_size=8, max_size=8),
)
def test_batch_equals_per_system_solves_for_any_grouping(seed, shapes, groups):
    """Every system's pivots depend on that system alone, so any grouping
    gives each system what it gets on its own, inconsistent systems too."""
    rng = np.random.default_rng(seed)
    bits = lambda shape: rng.integers(0, 2, size=shape, dtype=np.uint8)  # noqa: E731
    systems = [(bits((m, u)), bits((m, F))) for F, u, m in shapes]
    alone = [codec.solve_gf2(rows, rhs) for rows, rhs in systems]
    for g in set(groups[: len(systems)]):
        members = [i for i, h in enumerate(groups[: len(systems)]) if h == g]
        batched = codec.solve_gf2_batch([systems[i] for i in members])
        for i, (x, deficit) in zip(members, batched):
            y, e = alone[i]
            assert deficit == e
            assert (x is None and y is None) or np.array_equal(x, y)


def test_decode_batch_equals_single_decodes():
    """One batched call over several phases gives every reception what
    decode_arrays gives it alone: no unknowns, too few packets, rank
    deficits, the all-packets fallback and full decodes."""
    rng = np.random.default_rng(5)
    phases, truth, sent = [], [], []
    for phase_id in range(4):
        B = int(rng.integers(1, 40))
        b = blocks_of(B, F=8, seed=phase_id)
        count = B + 80
        payloads = codec.encode_payloads(b, count, phase_id, [9, phase_id])
        receptions = []
        # all packets, none; then u - 1 and u + 1 packets, of which rank-deficient sometimes
        for share, extra in ((0.0, count), (1.0, 0), (0.3, -1), (0.5, 1)):
            known = rng.random(B) < share
            size = min(count, B - int(known.sum()) + extra)
            got = np.sort(rng.choice(count, size=max(size, 0), replace=False))
            receptions.append(codec.Reception(got, known, np.where(known[:, None], b, 0)))
        phases.append((codec.encoder(b), B, phase_id, [9, phase_id], receptions))
        truth.append(b)
        sent.append(payloads)
    # the first u+16 packets repeat one coefficient row; a later one completes the rank
    b = blocks_of(2, F=2)
    A = codec.coefficient_rows(11, 0, 400, 2)
    first = int(np.flatnonzero(A.any(axis=1))[0])
    dup = [j for j in range(400) if (A[j] == A[first]).all()]
    rest = [j for j in range(400) if A[j].any() and (A[j] != A[first]).any()]
    assert len(dup) >= 70
    got = np.array(dup[:70] + rest[:1])
    none = np.zeros(2, bool)
    phases.append((codec.encoder(b), 2, 0, 11,
                   [codec.Reception(got, none, np.zeros((2, 2), np.uint8))]))
    truth.append(b)
    sent.append(codec.encode_payloads(b, 400, 0, 11))
    outcomes = set()
    for (_, B, phase_id, seed, receptions), results, b, payloads in zip(
        phases, codec.decode_batch(phases), truth, sent
    ):
        for rec, res in zip(receptions, results):
            known = {int(i): rec.values[i] for i in np.flatnonzero(rec.known)}
            one = codec.decode_arrays(rec.indices, payloads[rec.indices], B, phase_id, seed, known)
            assert (res.ok, res.rank_deficit) == (one.ok, one.rank_deficit)
            if res.ok:
                assert np.array_equal(res.blocks, b) and np.array_equal(one.blocks, b)
            u = B - int(rec.known.sum())
            outcomes.add("no unknowns" if u == 0 else "too few" if len(rec.indices) < u
                         else "decoded" if res.ok else "deficient")
    assert outcomes == {"no unknowns", "too few", "decoded", "deficient"}
    assert results[0].ok  # the fallback found the late packet


def random_phases(seed):
    """Phases of random receptions, decoded and encoded from source blocks:
    no unknowns, too few packets, rank deficits, full decodes, and the first
    u+16 (and u+64) received packets repeating one coefficient row while a
    later one completes the rank.  Returns the phases and their blocks."""
    rng = np.random.default_rng(seed)
    phases, truth = [], []
    for phase_id in range(5):
        B = int(rng.integers(1, 50))
        b = blocks_of(B, F=int(rng.choice([1, 8, 17])), seed=seed + phase_id)
        count = B + 120
        receptions = []
        for _ in range(6):
            known = rng.random(B) < rng.choice([0.0, 0.3, 1.0])
            extra = int(rng.integers(-2, 3) if rng.random() < 0.5 else rng.integers(3, 90))
            size = min(count, B - int(known.sum()) + extra)
            got = np.sort(rng.choice(count, size=max(size, 0), replace=False))
            receptions.append(codec.Reception(got, known, np.where(known[:, None], b, 0)))
        phases.append((codec.encoder(b), B, phase_id, [seed, phase_id], receptions))
        truth.append(b)
    b = blocks_of(2, F=2)
    A = codec.coefficient_rows(11, 0, 400, 2)
    first = int(np.flatnonzero(A.any(axis=1))[0])
    dup = [j for j in range(400) if (A[j] == A[first]).all()]
    rest = [j for j in range(400) if A[j].any() and (A[j] != A[first]).any()]
    late = [np.array(dup[:n] + [j for j in rest if j > dup[n - 1]][:1]) for n in (30, 70)]
    none = np.zeros(2, bool)
    phases.append((codec.encoder(b), 2, 0, 11,
                   [codec.Reception(sel, none, np.zeros((2, 2), np.uint8)) for sel in late]))
    return phases, truth + [b]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_attempt_size_does_not_change_results(monkeypatch, seed):
    """The packets are consistent, so a first attempt on u+16 or u+64 of
    them gives the same decoded blocks and, on failure, the deficit of all
    of them."""
    phases, _ = random_phases(seed)
    by_extra = {}
    for extra in (64, 16):
        monkeypatch.setattr(codec, "_FIRST_ATTEMPT_EXTRA", extra)
        by_extra[extra] = codec.decode_batch(phases)
    outcomes = set()
    for wide, narrow, phase in zip(by_extra[64], by_extra[16], phases):
        for a, b, rec in zip(wide, narrow, phase[4]):
            assert (a.ok, a.rank_deficit) == (b.ok, b.rank_deficit)
            assert (a.blocks is None and b.blocks is None) or np.array_equal(a.blocks, b.blocks)
            u = phase[1] - int(rec.known.sum())
            outcomes.add("no unknowns" if u == 0 else "too few" if len(rec.indices) < u
                         else "decoded" if a.ok else "deficient")
    assert outcomes == {"no unknowns", "too few", "decoded", "deficient"}
    assert all(res.ok for res in by_extra[16][-1])  # the late packet was found


def test_decoder_encodes_the_packets_encode_payloads_sends(monkeypatch):
    """Every payload row the decoder encodes, on first attempts and on a
    retry of a deficient system, is the row encode_payloads gives that packet,
    from the same coefficient row."""
    monkeypatch.setattr(codec, "_FIRST_ATTEMPT_EXTRA", 16)
    phases, reads = [], []
    for (source, B, phase_id, seed, receptions), blocks in zip(*random_phases(4)):
        def recording(rows, sel, source=source, key=(B, phase_id, seed), blocks=blocks):
            out = source(rows, sel)
            reads.append((key, blocks, rows, sel, out))
            return out
        phases.append((recording, B, phase_id, seed, receptions))
    codec.decode_batch(phases)
    for (B, phase_id, seed), blocks, rows, sel, out in reads:
        count = int(sel[-1]) + 1
        assert np.array_equal(rows, codec.coefficient_rows(seed, phase_id, count, B)[sel])
        assert np.array_equal(out, codec.encode_payloads(blocks, count, phase_id, seed)[sel])
    # the late-packet phase: first attempts on u+16 packets, then a retry on all
    late = [sel for key, _, _, sel, _ in reads if key == (2, 0, 11)]
    everything = np.union1d(*(rec.indices for rec in phases[-1][4]))
    assert len(late) == 2 and len(late[0]) == 18
    assert np.array_equal(late[1], everything)
