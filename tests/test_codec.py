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


@pytest.mark.parametrize("F", [1, 8, 16, 17, 65])
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
        [(b, 1, 5,
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


def test_systems_of_different_widths_share_a_chunk(monkeypatch):
    # B + F at a word boundary (48 + 16, 63 + 1) and across a byte and a
    # word boundary (49 + 16, 64 + 1, 49 + 65), all eliminated in one pass
    rng = np.random.default_rng(12)
    systems = [
        consistent_system(rng, 16, 48, 60),
        consistent_system(rng, 16, 49, 60),
        consistent_system(rng, 1, 63, 70),
        consistent_system(rng, 1, 64, 70, deficient=True),
        consistent_system(rng, 65, 49, 50),
    ]
    widths, kernel = [], codec._m4ri
    monkeypatch.setattr(codec, "_m4ri", lambda chunk: widths.append(
        sorted(system.coefs.shape[1] for system in chunk)) or kernel(chunk))
    results = codec.solve_gf2_batch(systems)
    assert widths == [[6, 7, 7, 8, 8]]
    assert_matches_reference(systems, results)


def assert_decodes_match_reference(phases, results):
    """Each reception decodes as reference_solve does on all its packets,
    over its unknown columns only, with the known blocks' contribution
    taken off the payloads encode_payloads sends."""
    outcomes = set()
    for (blocks, phase_id, seed, receptions), decoded in zip(phases, results):
        for rec, res in zip(receptions, decoded):
            B, count = len(blocks), int(rec.indices.max()) + 1
            A = codec.coefficient_rows(seed, phase_id, count, B)[rec.indices]
            known = A[:, rec.known].astype(np.int64) @ rec.values[rec.known] % 2
            payloads = codec.encode_payloads(blocks, count, phase_id, seed)[rec.indices]
            x, deficit = reference_solve(A[:, ~rec.known], payloads ^ known)
            assert (res.ok, res.rank_deficit) == (x is not None, deficit)
            if res.ok:
                assert np.array_equal(res.blocks[~rec.known], x)
                assert np.array_equal(res.blocks[rec.known], rec.values[rec.known])
            outcomes.add(res.ok)
    return outcomes


@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_decode_batch_with_known_blocks_in_place(where):
    """Known blocks stay in place as zero columns wherever they sit in the
    phase, the filler bits past B included (B = 150 is not a multiple of 8)."""
    B, F = 150, 16
    b = blocks_of(B, F=F, seed=31)
    known = np.zeros(B, bool)
    known[{"start": slice(0, 40), "middle": slice(55, 95), "end": slice(110, 150)}[where]] = True
    u = B - int(known.sum())
    rng = np.random.default_rng(len(where))
    receptions = []
    for extra in (0, 0, 1, 2, 20, 60):
        got = np.sort(rng.choice(3 * B, size=u + extra, replace=False))
        receptions.append(codec.Reception(got, known, np.where(known[:, None], b, 0)))
    phases = [(b, 3, [7, len(where)], receptions)]
    results = codec.decode_batch(phases)
    assert assert_decodes_match_reference(phases, results) == {True, False}
    assert all(np.array_equal(res.blocks, b) for res in results[0] if res.ok)


def test_decode_batch_over_phases_of_different_widths():
    """Phases with B = 48 and 49 at F = 16 and B = 63 at F = 1, known
    blocks scattered, decoded in one call."""
    rng = np.random.default_rng(17)
    phases, truth = [], []
    for phase_id, (B, F) in enumerate([(48, 16), (49, 16), (63, 1)]):
        b = blocks_of(B, F=F, seed=phase_id)
        receptions = []
        for share in (0.0, 0.2, 0.5):
            known = rng.random(B) < share
            u = B - int(known.sum())
            extra = int(rng.integers(2, 24)) if share == 0.0 else 0  # u packets often fall short
            got = np.sort(rng.choice(2 * B + 40, size=u + extra, replace=False))
            receptions.append(codec.Reception(got, known, np.where(known[:, None], b, 0)))
        phases.append((b, phase_id, [5, phase_id], receptions))
        truth.append(b)
    results = codec.decode_batch(phases)
    assert assert_decodes_match_reference(phases, results) == {True, False}
    for decoded, b in zip(results, truth):
        assert all(np.array_equal(res.blocks, b) for res in decoded if res.ok)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(
        st.tuples(st.sampled_from([1, 8, 16, 17, 65]), st.integers(0, 80), st.integers(0, 100)),
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
    deficits, the all-packets fallback and full decodes.  A reception's
    indices need not be sorted: out of order, they decode as sorted."""
    rng = np.random.default_rng(5)
    phases, sent = [], []
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
        phases.append((b, phase_id, [9, phase_id], receptions))
        sent.append(payloads)
    # one phase received out of order, the last packet listed first, and sorted
    b = blocks_of(4, F=8, seed=9)
    none = np.zeros(4, bool)
    for got in ([30, 2, 5, 7, 9, 11], [2, 5, 7, 9, 11, 30]):
        phases.append((b, 4, 13, [codec.Reception(np.array(got), none, np.zeros((4, 8), np.uint8))]))
        sent.append(codec.encode_payloads(b, 31, 4, 13))
    # the first u+16 packets repeat one coefficient row; a later one completes the rank
    b = blocks_of(2, F=2)
    A = codec.coefficient_rows(11, 0, 400, 2)
    first = int(np.flatnonzero(A.any(axis=1))[0])
    dup = [j for j in range(400) if (A[j] == A[first]).all()]
    rest = [j for j in range(400) if A[j].any() and (A[j] != A[first]).any()]
    assert len(dup) >= 70
    got = np.array(dup[:70] + [j for j in rest if j > dup[69]][:1])
    none = np.zeros(2, bool)
    phases.append((b, 0, 11, [codec.Reception(got, none, np.zeros((2, 2), np.uint8))]))
    sent.append(codec.encode_payloads(b, 400, 0, 11))
    outcomes = set()
    batched = codec.decode_batch(phases)
    (shuffled,), (ordered,) = batched[-3:-1]
    assert (shuffled.ok, shuffled.rank_deficit) == (ordered.ok, ordered.rank_deficit)
    assert shuffled.ok and np.array_equal(shuffled.blocks, ordered.blocks)
    for (b, phase_id, seed, receptions), results, payloads in zip(phases, batched, sent):
        B = len(b)
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


def random_phases(seed, F=None):
    """Phases of random receptions, decoded and encoded from source blocks:
    no unknowns, too few packets, rank deficits, full decodes, and the first
    u+16 (and u+64) received packets repeating one coefficient row while a
    later one completes the rank.  Each phase has F bits per block, drawn
    from 1, 8 and 17 unless given; given, B is never a multiple of 8."""
    rng = np.random.default_rng(seed)
    phases = []
    for phase_id in range(5):
        B = int(rng.integers(1, 50))
        if F is not None:
            B += B % 8 == 0
        b = blocks_of(B, F=int(rng.choice([1, 8, 17])) if F is None else F, seed=seed + phase_id)
        count = B + 120
        receptions = []
        for _ in range(6):
            known = rng.random(B) < rng.choice([0.0, 0.3, 1.0])
            extra = int(rng.integers(-2, 3) if rng.random() < 0.5 else rng.integers(3, 90))
            size = min(count, B - int(known.sum()) + extra)
            got = np.sort(rng.choice(count, size=max(size, 0), replace=False))
            receptions.append(codec.Reception(got, known, np.where(known[:, None], b, 0)))
        phases.append((b, phase_id, [seed, phase_id], receptions))
    b = blocks_of(2, F=2)
    A = codec.coefficient_rows(11, 0, 400, 2)
    first = int(np.flatnonzero(A.any(axis=1))[0])
    dup = [j for j in range(400) if (A[j] == A[first]).all()]
    rest = [j for j in range(400) if A[j].any() and (A[j] != A[first]).any()]
    late = [np.array(dup[:n] + [j for j in rest if j > dup[n - 1]][:1]) for n in (30, 70)]
    none = np.zeros(2, bool)
    phases.append((b, 0, 11, [codec.Reception(sel, none, np.zeros((2, 2), np.uint8)) for sel in late]))
    return phases


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_attempt_size_does_not_change_results(monkeypatch, seed):
    """The packets are consistent, so a first attempt on u+16 or u+64 of
    them gives the same decoded blocks and, on failure, the deficit of all
    of them."""
    phases = random_phases(seed)
    by_extra = {}
    for extra in (64, 16):
        monkeypatch.setattr(codec, "_FIRST_ATTEMPT_EXTRA", extra)
        by_extra[extra] = codec.decode_batch(phases)
    outcomes = set()
    for wide, narrow, phase in zip(by_extra[64], by_extra[16], phases):
        for a, b, rec in zip(wide, narrow, phase[3]):
            assert (a.ok, a.rank_deficit) == (b.ok, b.rank_deficit)
            assert (a.blocks is None and b.blocks is None) or np.array_equal(a.blocks, b.blocks)
            u = len(phase[0]) - int(rec.known.sum())
            outcomes.add("no unknowns" if u == 0 else "too few" if len(rec.indices) < u
                         else "decoded" if a.ok else "deficient")
    assert outcomes == {"no unknowns", "too few", "decoded", "deficient"}
    assert all(res.ok for res in by_extra[16][-1])  # the late packet was found


def test_decoder_encodes_the_packets_encode_payloads_sends(monkeypatch):
    """Every system the decoder builds, on first attempts and on a retry of
    a deficient system, holds the coefficient rows coefficient_rows gives
    its packets, less the known blocks' columns, and as right-hand side the
    rows encode_payloads gives those packets, less the known blocks'
    contribution.  Checked with every right-hand side a table product (size
    threshold 0) and every one a BLAS product (a threshold above every
    system); over F of 1, 8 and 17 mixed, and over F of 1, 16, 17 and 65
    (two words per block in the table product) with B never a multiple of
    8, so the last coefficient byte carries random filler bits that must
    add nothing."""
    monkeypatch.setattr(codec, "_FIRST_ATTEMPT_EXTRA", 16)
    systems = codec._systems
    pack = lambda bits: np.packbits(bits, axis=1, bitorder="little")  # noqa: E731
    for table_size in (0, 1 << 40):
        monkeypatch.setattr(codec, "_TABLE_PRODUCT_SIZE", table_size)
        for F in (None, 1, 16, 17, 65):
            phases = random_phases(4 if F is None else F, F=F)
            reads = []

            def recording(phase, todo):
                reads.append((phase, todo, systems(phase, todo)))
                return reads[-1][2]

            monkeypatch.setattr(codec, "_systems", recording)
            codec.decode_batch(phases)
            filler = 0
            for (blocks, phase_id, seed, receptions), todo, built in reads:
                B = len(blocks)
                assert [ri for ri, _ in todo] == [ri for ri, _ in built]
                for (ri, sel), (_, system) in zip(todo, built):
                    rec, count = receptions[ri], int(sel.max()) + 1
                    rows = codec.coefficient_rows(seed, phase_id, count, B)[sel]
                    sent = codec.encode_payloads(blocks, count, phase_id, seed)[sel]
                    rhs = sent ^ (rows.astype(np.int64) @ (rec.values * rec.known[:, None]) % 2)
                    assert np.array_equal(system.coefs, pack(rows * ~rec.known))
                    assert np.array_equal(system.rhs, pack(rhs.astype(np.uint8)))
                    assert np.array_equal(system.unknown, np.flatnonzero(~rec.known))
                    if B % 8:
                        drawn = codec._coefficient_bytes(seed, phase_id, count, B)[sel]
                        filler |= int(np.bitwise_or.reduce(drawn[:, B // 8] >> B % 8))
            assert filler
            # the late-packet phase: each reception's first attempt on u+16
            # packets, then a retry on all of its packets
            late = [sel for phase, todo, _ in reads if phase is phases[-1] for _, sel in todo]
            receptions = phases[-1][3]
            assert len(late) == 4
            assert all(np.array_equal(sel, rec.indices[:18]) for sel, rec in zip(late[:2], receptions))
            assert all(np.array_equal(sel, rec.indices) for sel, rec in zip(late[2:], receptions))


def test_large_systems_take_the_table_product(monkeypatch):
    """A criterion-5 decode (u about 600) never calls the BLAS product, and
    an mc-general-k4-sized one (u < 50) still does: the size threshold
    splits the benchmark's workloads."""
    from cachebc import SystemConfig, estimate_pe

    calls = {"table": 0, "blas": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(codec, "_table_product", counting("table", codec._table_product))
    monkeypatch.setattr(codec, "_gf2_matmul", counting("blas", codec._gf2_matmul))
    c5 = SystemConfig(K=2, D=4, F=16, deltas=[0.8, 0.2], rates=[1.0] * 4, memories=[0.8, 0.0], n=4000)
    estimate_pe(c5, "joint-2rx", backoff=0.90, trials=1, seed=20250809)
    assert calls["table"] >= 16 and calls["blas"] == 0
    calls.update(table=0, blas=0)
    k4 = SystemConfig(K=4, D=4, F=16, deltas=[0.8, 0.6, 0.4, 0.2], rates=[1.0] * 4,
                      memories=[0.5, 0.5, 0.5, 0.0], n=400)
    estimate_pe(k4, "general", backoff=0.60, trials=1, seed=0, demand_cap=4)
    assert calls["table"] == 0 and calls["blas"] > 0
