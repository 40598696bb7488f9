"""Scheduler tests with an independent coverage checker.

The checker below replays a schedule with perfect (noiseless, budget-free)
reception: a receiver learns plain items outright and strips an XOR group
when it can reproduce all but one constituent.  It is written directly from
the decoding rules and shares no code with the simulator's assembly path.
"""

import numpy as np
import pytest

from cachebc import (
    ConfigError,
    SchemeParameters,
    SystemConfig,
    build_caches,
    build_schedule,
    draw_library,
    max_min_slack_assignment,
    phase_lp_max_rate,
    receiver_unknown_bits,
    sub_message_layout,
    verify_schedule,
)
from cachebc.schedule import flat_library, gather_bits


def fresh(K, D, F, deltas, R, mems, n):
    return SystemConfig(K=K, D=D, F=F, deltas=deltas, rates=[R] * D, memories=mems, n=n)


def build_all(cfg, K0, t, M, demand, rate=None, seed=0, force_zero_piggyback=False):
    import math
    from dataclasses import replace

    rate = cfg.rates[0] if rate is None else rate
    fit = max_min_slack_assignment(cfg, K0, M, t, rate, force_zero_piggyback)
    m_eff = fit.cached_rate_per_fragment * cfg.D * math.comb(K0 - 1, t - 1)
    cfg = cfg if rate == cfg.rates[0] else replace(cfg, rates=(rate,) * cfg.D)
    layout = sub_message_layout(cfg, K0, t, m_eff)
    lib = draw_library(cfg, seed)
    caches = build_caches(cfg, layout)
    params = SchemeParameters(K0=K0, t=t, beta=fit.beta, piggyback=fit.piggyback)
    sched = build_schedule(cfg, params, layout, demand)
    return cfg, layout, lib, caches, sched, fit


# -- independent coverage oracle ---------------------------------------------


def has_piece(caches, layout, k, d, i):
    """Receiver k's cache mask covers fragment i of message d."""
    start = layout.position(d, i)
    return bool(caches[k - 1, start : start + layout.piece_bits[i]].all())


def coverage_ok(cfg, layout, lib, caches, sched, receiver):
    demand = sched.demand
    know = {}  # (d, i) -> bit mask

    def known_full(d, i):
        if has_piece(caches, layout, receiver, d, i):
            return True
        m = know.get((d, i))
        return m is not None and m.all()

    def learn(d, i, a, b):
        m = know.setdefault((d, i), np.zeros(layout.piece_bits[i], dtype=bool))
        m[a:b] = True

    for p in range(1, receiver + 1):
        for item in sched.phases[p - 1].items:
            if item.kind == "xor-group":
                unknown = [c for c in item.constituents if not known_full(c[0], c[1])]
                if len(unknown) == 1:
                    d, i, a, b = unknown[0]
                    learn(d, i, a, b)
            else:
                for (d, i, a, b) in item.constituents:
                    learn(d, i, a, b)
    d = demand[receiver - 1]
    return all(
        layout.piece_bits[i] == 0 or known_full(d, i) for i in range(layout.tau + 1)
    )


def delivered_ranges(sched):
    """All plainly transmitted bit ranges plus XOR constituents, for the
    no-bit-delivered-twice check."""
    plain, xored = [], []
    for phase in sched.phases:
        for item in phase.items:
            if item.kind == "xor-group":
                xored.extend(item.constituents)
            else:
                plain.extend(item.constituents)
    return plain, xored


def assert_no_duplicates(plain, xored):
    seen = {}
    for (d, i, a, b) in plain:
        for x, y, _, _ in [(d, i, a, b)]:
            pass
        ivs = seen.setdefault((d, i), [])
        for (a2, b2) in ivs:
            assert b <= a2 or a <= a2 or a >= b2, f"overlap in ({d},{i})"
            assert not (a < b2 and a2 < b), f"overlap in ({d},{i}): {(a, b)} vs {(a2, b2)}"
        ivs.append((a, b))
    assert len(xored) == len(set(xored))


# -- XOR groups ----------------------------------------------------------------


def find_xor_group(lib, cfg, layout, demand, S):
    """The XOR-group item of receiver set S in the schedule of ``demand`` (all
    receivers cached, every channel use in phase 1) and its payload bits."""
    beta = (1.0,) + (0.0,) * (cfg.K - 1)
    params = SchemeParameters(K0=layout.K0, t=layout.t, beta=beta, piggyback=())
    phase = build_schedule(cfg, params, layout, demand).phases[min(S) - 1]
    item = next(
        it
        for it in phase.items
        if it.kind == "xor-group"
        and set().union(*(layout.subsets[c[1]] for c in it.constituents)) == set(S)
    )
    return item, gather_bits(flat_library(lib), phase.gather[item.start : item.stop])


def test_xor_group_forced_indices_k0_3():
    cfg = fresh(3, 3, 1, [0.8, 0.5, 0.2], 2.0, [1.5, 1.5, 1.5], 600)
    layout = sub_message_layout(cfg, 3, 2, 1.5)
    lib = draw_library(cfg, 1)
    item, _ = find_xor_group(lib, cfg, layout, (1, 2, 3), {1, 2, 3})
    # member k contributes the fragment cached at the other two receivers
    by_member = {c[0]: c[1] for c in item.constituents}
    assert layout.subsets[by_member[1]] == (2, 3)
    assert layout.subsets[by_member[2]] == (1, 3)
    assert layout.subsets[by_member[3]] == (1, 2)


def test_xor_group_k0_2_pairwise():
    cfg = fresh(2, 4, 1, [0.8, 0.2], 2.0, [1.0, 1.0], 400)
    layout = sub_message_layout(cfg, 2, 1, 1.0)
    lib = draw_library(cfg, 2)
    _, bits = find_xor_group(lib, cfg, layout, (3, 1), {1, 2})
    off0, ln = layout.piece_offset(0), layout.piece_bits[0]
    off1 = layout.piece_offset(1)
    expect = lib[2][off1 : off1 + ln] ^ lib[0][off0 : off0 + ln]
    assert np.array_equal(bits[:ln], expect)


def test_xor_group_member_recovers_constituent():
    cfg = fresh(3, 3, 1, [0.8, 0.5, 0.2], 2.0, [1.5, 1.5, 1.5], 600)
    layout = sub_message_layout(cfg, 3, 2, 1.5)
    lib = draw_library(cfg, 3)
    caches = build_caches(cfg, layout)
    demand = (2, 3, 1)
    item, bits = find_xor_group(lib, cfg, layout, demand, {1, 2, 3})
    for k in (1, 2, 3):
        acc = bits.copy()
        mine = None
        for (d, i, a, b) in item.constituents:
            if has_piece(caches, layout, k, d, i):
                padded = np.zeros(len(acc), np.uint8)
                start = layout.position(d, i)
                span = slice(start, start + layout.piece_bits[i])
                piece = flat_library(lib)[span][caches[k - 1, span]]
                padded[: piece.size] = piece
                acc ^= padded
            else:
                mine = (d, i)
        d, i = mine
        off = layout.piece_offset(i)
        assert np.array_equal(acc[: layout.piece_bits[i]], lib[d - 1][off : off + layout.piece_bits[i]])


# -- schedule structure ---------------------------------------------------------


def test_schedule_shape_joint_two_rx():
    # single cached receiver: phase 1 = (uncached part, piggyback slice),
    # phase 2 = the remainder of receiver 2's demand
    cfg = fresh(2, 4, 1, [0.8, 0.2], 1.0, [2.0, 0.0], 1000)
    _, layout, lib, caches, sched, _ = build_all(cfg, 1, 1, 2.0, (1, 2))
    kinds1 = [it.kind for it in sched.phases[0].items]
    assert kinds1 == ["uncached-part", "piggyback-slice"]
    assert sched.phases[0].items[1].owner == 1
    kinds2 = [it.kind for it in sched.phases[1].items]
    assert kinds2 == ["uncached-part", "uncached-part"]  # cached fragment + rest
    plain, xored = delivered_ranges(sched)
    assert_no_duplicates(plain, xored)
    for k in (1, 2):
        assert coverage_ok(cfg, layout, lib, caches, sched, k)


def test_schedule_shape_symmetric_two_rx():
    cfg = fresh(2, 4, 1, [0.8, 0.2], 1.0, [1.0, 1.0], 1000)
    _, layout, lib, caches, sched, _ = build_all(cfg, 2, 1, 1.0, (2, 3))
    kinds1 = [it.kind for it in sched.phases[0].items]
    assert kinds1 == ["xor-group", "uncached-part"]
    kinds2 = [it.kind for it in sched.phases[1].items]
    assert kinds2 == ["uncached-part"]
    for k in (1, 2):
        assert coverage_ok(cfg, layout, lib, caches, sched, k)


def test_schedule_zero_piggyback_is_separate_layering():
    cfg = fresh(3, 3, 1, [0.8, 0.5, 0.2], 0.5, [0.9, 0.9, 0.0], 3000)
    _, layout, lib, caches, sched, _ = build_all(
        cfg, 2, 1, 0.9, (1, 2, 3), force_zero_piggyback=True
    )
    assert all(it.kind != "piggyback-slice" for p in sched.phases for it in p.items)
    # phase 3 then carries the whole demanded message of receiver 3
    phase3 = sched.phases[2].items
    assert sum(b - a for it in phase3 for (_, _, a, b) in it.constituents) == layout.message_bits
    for k in (1, 2, 3):
        assert coverage_ok(cfg, layout, lib, caches, sched, k)


def test_schedule_coverage_general_and_duplicates():
    cfg = fresh(3, 3, 2, [0.8, 0.5, 0.2], 0.5, [0.3, 0.3, 0.0], 3001)
    for demand in [(1, 2, 3), (2, 1, 3), (1, 1, 1), (3, 3, 1), (2, 3, 2)]:
        c, layout, lib, caches, sched, _ = build_all(cfg, 2, 1, 0.3, demand, seed=5)
        for k in (1, 2, 3):
            assert coverage_ok(c, layout, lib, caches, sched, k), (demand, k)
        if len(set(demand)) == 3:
            plain, xored = delivered_ranges(sched)
            assert_no_duplicates(plain, xored)


def test_schedule_piggyback_slices_disjoint_t2():
    # t=2: fragments shared by two phases; flow assignment must stay disjoint
    cfg = fresh(4, 2, 1, [0.9, 0.6, 0.4, 0.2], 1.0, [1.5, 1.5, 1.5, 0.0], 4000)
    c, layout, lib, caches, sched, fit = build_all(cfg, 3, 2, 1.5, (1, 2, 1, 2), seed=7)
    assert sched.piggyback_shortfall_bits == 0
    plain = [
        c0
        for phase in sched.phases
        for it in phase.items
        if it.kind == "piggyback-slice"
        for c0 in it.constituents
    ]
    assert_no_duplicates(plain, [])
    for k in (1, 2, 3, 4):
        assert coverage_ok(c, layout, lib, caches, sched, k)



def test_plain_items_follow_the_xor_groups():
    # receivers take a phase's XOR groups in order and then all its plain
    # items at once: every phase lists the groups first, and the plain
    # items fill the rows from plain_start on
    from cachebc.schedule import PhaseIndex

    cfg = fresh(4, 2, 3, [0.9, 0.6, 0.4, 0.2], 1.0, [1.5, 1.5, 1.5, 0.0], 1000)
    _, _, _, _, sched, _ = build_all(cfg, 3, 2, 1.5, (1, 2, 1, 2), seed=7)
    kinds = set()
    for phase in sched.phases:
        xor = [it.kind == "xor-group" for it in phase.items]
        assert xor == sorted(xor, reverse=True)
        plain = [it for it in phase.items if it.kind != "xor-group"]
        assert phase.plain_start == (plain[0].start if plain else len(phase.gather))
        assert all(it.stop <= phase.plain_start for it in phase.items if it.kind == "xor-group")
        kinds |= {it.kind for it in phase.items}
    assert kinds == {"xor-group", "uncached-part", "piggyback-slice"}
    mixed = next(p for p in sched.phases if len({it.kind for it in p.items}) > 1)
    with pytest.raises(ValueError, match="XOR groups must come before"):
        PhaseIndex(mixed.receiver, mixed.budget_uses, mixed.items[::-1], mixed.gather, mixed.spans)


# -- unknown-bit accounting and verification -----------------------------------


def test_receiver_unknown_bits_rules():
    cfg = fresh(3, 3, 1, [0.8, 0.5, 0.2], 0.5, [0.9, 0.9, 0.0], 3000)
    c, layout, lib, caches, sched, _ = build_all(cfg, 2, 1, 0.9, (1, 2, 3))
    piggy1 = [it for it in sched.phases[0].items if it.kind == "piggyback-slice"]
    per_phase_1 = dict(receiver_unknown_bits(sched, 1))
    per_phase_3 = dict(receiver_unknown_bits(sched, 3))
    # owner pays nothing for its own piggyback...
    total1 = sum(it.padded_bits for it in sched.phases[0].items)
    piggy_bits = sum(it.padded_bits for it in piggy1)
    assert per_phase_1[1] == total1 - piggy_bits
    # ...the uncached destination pays in full
    assert per_phase_3[1] == total1
    # empty caches: everything in later phases is unknown
    assert per_phase_3[3] == sum(it.padded_bits for it in sched.phases[2].items)


def test_verify_at_lp_point_and_inflated():
    cfg = fresh(3, 3, 1, [0.8, 0.5, 0.2], 0.25, [0.3, 0.3, 0.0], 24000)
    lp = phase_lp_max_rate(cfg, 2, 0.3, 1)
    c, layout, lib, caches, sched, _ = build_all(cfg, 2, 1, 0.3, (1, 2, 3), rate=lp.rate)
    assert verify_schedule(sched, c, margin=1.0).ok
    # 10% above the optimum must violate at least one (phase, receiver) row
    c2, layout2, lib2, caches2, sched2, _ = build_all(
        cfg, 2, 1, 0.3, (1, 2, 3), rate=1.1 * lp.rate
    )
    report = verify_schedule(sched2, c2, margin=1.0)
    assert not report.ok and len(report.failures()) >= 1


def test_verify_zero_rate_vacuous():
    cfg = fresh(2, 2, 1, [0.8, 0.2], 0.0, [0.0, 0.0], 500)
    c, layout, lib, caches, sched, _ = build_all(cfg, 2, 1, 0.0, (1, 2))
    assert verify_schedule(sched, c, margin=1.0).ok


def test_verify_agrees_with_lp_constraints_on_random_points():
    """Feasibility of random (rate, beta, C) points must match between the
    LP constraint rows and the bit-level verifier (divisible n, slack 0)."""
    import math

    cfg = fresh(3, 3, 1, [0.8, 0.5, 0.2], 0.5, [0.3, 0.3, 0.0], 24000)
    layout = sub_message_layout(cfg, 2, 1, 0.3)
    rng = np.random.default_rng(13)
    r_c = layout.cached_rate
    agree = 0
    for _ in range(40):
        beta = rng.dirichlet(np.ones(3))
        beta = np.round(beta * 24000) / 24000  # integral budgets
        beta[2] = 1.0 - beta[0] - beta[1]
        if beta.min() < 0:
            continue
        C = (rng.uniform(0, r_c), rng.uniform(0, r_c))
        params = SchemeParameters(K0=2, t=1, beta=tuple(beta), piggyback=((C[0],), (C[1],)))
        sched = build_schedule(cfg, params, layout, (1, 2, 3))
        # rate-level feasibility of the same point
        R = cfg.rates[0]
        rows = [
            (R - r_c, beta[0] * (1 - 0.8)),
            (R - r_c + C[0], beta[0] * (1 - 0.5)),
            (R - 2 * r_c, beta[1] * (1 - 0.5)),
            (R - 2 * r_c + C[1], beta[1] * (1 - 0.2)),
            (R - C[0] - C[1], beta[2] * (1 - 0.2)),
        ]
        lp_feasible = all(u <= cap + 1e-12 for u, cap in rows)
        v = verify_schedule(sched, cfg, margin=1.0)
        if v.ok == lp_feasible:
            agree += 1
        else:
            # disagreement may only come from sub-bit rounding at a boundary
            margin_bits = min(cap - u for u, cap in rows) * 24000
            assert abs(margin_bits) < 8, (v.ok, lp_feasible, margin_bits)
    assert agree >= 36


def test_verify_margin_validation():
    cfg = fresh(2, 2, 1, [0.8, 0.2], 0.1, [0.0, 0.0], 500)
    c, layout, lib, caches, sched, _ = build_all(cfg, 2, 1, 0.0, (1, 2))
    with pytest.raises(ConfigError):
        verify_schedule(sched, c, margin=0.0)
    with pytest.raises(ConfigError):
        verify_schedule(sched, c, margin=1.5)
