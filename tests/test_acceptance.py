"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
stated inline; statistical criteria use fixed seeds and are deterministic.
"""

import math
import time

import numpy as np
import pytest

from cachebc import (
    DemandSet,
    OutOfRegimeError,
    SystemConfig,
    audit_conditions,
    codec,
    common_demand_contains,
    common_demand_contains_lp,
    common_demand_separate_contains,
    estimate_pe,
    transmit,
    two_rx_joint_rate,
    two_rx_separate_asym_rate,
    two_rx_symmetric_rate,
)


def report(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_two_receiver_tradeoffs():
    """Closed-form tradeoffs for deltas (4/5, 1/5), F=1, D=10 at 1e-9."""
    t0 = time.perf_counter()
    d1, d2, F, D = 0.8, 0.2, 1, 10
    tol = 1e-9
    ok = True
    grid = [round(0.1 * i, 10) for i in range(33)] + [2.4]
    for M in sorted(set(grid)):
        want_joint = 0.16 + 2 * M / D if M <= 2.4 else 2 * F * (1 - d1) + M / D
        R, _ = two_rx_joint_rate(d1, d2, F, D, M)
        ok &= abs(R - want_joint) <= tol
        ok &= abs(two_rx_separate_asym_rate(d1, d2, F, D, M) - (0.16 + 1.6 * M / D)) <= tol
        if M <= 2.0 + 1e-9:  # symmetric scheme regime: M <= D F (1-d1) / 2 = 2
            ok &= abs(two_rx_symmetric_rate(d1, d2, F, D, M) - (0.16 + 1.2 * M / D)) <= tol
        else:
            try:
                two_rx_symmetric_rate(d1, d2, F, D, M)
                ok = False
            except OutOfRegimeError:
                pass
    Rb, _ = two_rx_joint_rate(d1, d2, F, D, 2.4)
    ok &= abs(Rb - 0.64) <= tol and abs(2.4 / Rb - 3 * D / 8) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(
        1,
        ok,
        f"two-receiver tradeoff curves match closed forms to 1e-9 "
        f"(slopes 6/5, 8/5, piecewise 2/1 with breakpoint M=2.4, R=0.64) "
        f"[{elapsed:.2f}s < 1s]",
    )


def test_criterion_2_common_demand_equivalence():
    """Greedy closed form vs LP membership: 1000 random instances, 100%."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    agree = 0
    inside_count = 0
    for _ in range(1000):
        K = int(rng.integers(1, 5))
        D = int(rng.integers(1, 6))
        deltas = np.sort(rng.uniform(0, 1, size=K))[::-1]
        cfg = SystemConfig(
            K=K,
            D=D,
            F=1,
            deltas=deltas,
            rates=rng.uniform(0, 1.2, size=D),
            memories=rng.uniform(0, 1.0, size=K),
        )
        a = common_demand_contains(cfg)[0]
        b = common_demand_contains_lp(cfg)
        agree += a == b
        inside_count += a
    elapsed = time.perf_counter() - t0
    ok = agree == 1000 and 0 < inside_count < 1000 and elapsed < 10.0
    report(
        2,
        ok,
        f"common-demand closed form agrees with the LP oracle on {agree}/1000 "
        f"random instances ({inside_count} inside) [{elapsed:.1f}s < 10s]",
    )


def test_criterion_3_joint_vs_separate_gain():
    """Joint coding admits (R=0.5, M=(0.3, 0)) that separate coding rejects."""
    cfg = SystemConfig(
        K=2, D=1, F=1, deltas=[0.8, 0.2], rates=[0.5], memories=[0.3, 0.0]
    )
    inside_joint = common_demand_contains(cfg)[0]
    inside_separate = common_demand_separate_contains(cfg)
    ok = inside_joint is True and inside_separate is False
    report(
        3,
        ok,
        "joint region contains R=0.5, M=(0.3, 0) on the D=1 family while the "
        f"separate region does not (joint={inside_joint}, separate={inside_separate})",
    )


def test_criterion_4_conditions_audit():
    """Published conditions vs per-phase LP oracle across the memory grid;
    every LP-feasible point verifies at margin 1; divergences reported."""
    t0 = time.perf_counter()
    cfg = SystemConfig(
        K=3,
        D=3,
        F=1,
        deltas=[0.8, 0.5, 0.2],
        rates=[0.3] * 3,
        memories=[0.3, 0.3, 0.0],
        n=24000,
    )
    ok = True
    print("\n  M/D   published   phase-LP    divergence  verify")
    for step in range(9):
        m_over_d = 0.05 * step
        M = m_over_d * cfg.D
        out = audit_conditions(cfg, K0=2, M=M, t=1)
        lp_txt = f"{out['lp_rate']:.6f}" if out["lp_feasible"] else "infeasible"
        div_txt = f"{out['divergence']:.6f}"
        ver_txt = str(out["verify_ok"])
        print(f"  {m_over_d:4.2f}  {out['printed_rate']:.6f}   {lp_txt:10s}  {div_txt:10s}  {ver_txt}")
        ok &= out["printed_rate"] is not None
        if out["lp_feasible"]:
            ok &= out["verify_ok"] is True
            ok &= out["printed_rate"] >= out["lp_rate"] - 1e-9
        ok &= out["divergence"] is not None  # reported, not hidden
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(
        4,
        ok,
        f"published-conditions rates and per-phase LP rates both computed on "
        f"the 9-point grid, LP points verify at margin 1, divergences "
        f"reported above [{elapsed:.1f}s < 30s]",
    )


def test_criterion_5_operational_achievability():
    """Joint scheme, K=2, deltas (0.8, 0.2), F=16, D=4, n=4000, M/D=0.1:
    P_e <= 0.05 at 90% of the nominal rate over 200 trials x 16 demands;
    at 110% the binding receiver fails in >= 50% of runs."""
    t0 = time.perf_counter()
    cfg = SystemConfig(
        K=2, D=4, F=16, deltas=[0.8, 0.2], rates=[1.0] * 4, memories=[0.8, 0.0], n=4000
    )
    rep = estimate_pe(cfg, "joint-2rx", backoff=0.90, trials=200, seed=20250809)
    ok = rep.demand_mode == "enumerated" and len(rep.demands) == 16
    ok &= rep.pe_hat <= 0.05
    over = estimate_pe(cfg, "joint-2rx", backoff=1.10, trials=200, seed=20250809)
    runs = over.trials * len(over.demands)
    rx1_fail = sum(row[0] for row in over.receiver_failures) / runs
    ok &= rx1_fail >= 0.5
    elapsed = time.perf_counter() - t0
    report(
        5,
        ok,
        f"joint scheme at 90% backoff: pe_hat={rep.pe_hat:.4f} <= 0.05 over 200 "
        f"trials x 16 demands (wilson <= {rep.wilson_hi:.4f}); at 110% the binding "
        f"receiver fails in {rx1_fail:.2%} of runs >= 50% [{elapsed:.0f}s]",
    )


def test_criterion_6_common_demand_achievability():
    """Boundary point of the common-demand region at 90% backoff decodes
    with P_e <= 0.05 (n=4000); at 105% the binding receiver fails >= 50%."""
    t0 = time.perf_counter()
    cfg = SystemConfig(
        K=2,
        D=2,
        F=16,
        deltas=[0.8, 0.2],
        rates=[4.8, 2.4],
        memories=[1.6, 0.0],
        n=4000,
        demand_set=DemandSet(kind="common"),
    )
    inside, witness = common_demand_contains(cfg)
    tight = abs(witness[0].sum() - cfg.memories[0]) < 1e-9  # receiver 1 binds
    rep = estimate_pe(cfg, "common-demand", backoff=0.90, trials=200, seed=606)
    ok = inside and tight and rep.pe_hat <= 0.05
    over = estimate_pe(cfg, "common-demand", backoff=1.05, trials=200, seed=606)
    d1 = over.demands.index((1, 1))
    rx1_fail = over.receiver_failures[d1][0] / over.trials
    ok &= rx1_fail >= 0.5
    elapsed = time.perf_counter() - t0
    report(
        6,
        ok,
        f"common-demand boundary point at 90%: pe_hat={rep.pe_hat:.4f} <= 0.05; "
        f"at 105% the binding receiver fails in {rx1_fail:.2%} of its trials "
        f">= 50% [{elapsed:.0f}s]",
    )


def test_criterion_7_channel_statistics():
    """Empirical erasure rates within 3 binomial sigma over 1e5 uses and
    erasure nestedness in 100% of uses."""
    n = 100_000
    deltas = [0.8, 0.2]
    packets = np.random.default_rng(0).integers(0, 2, size=(n, 4), dtype=np.uint8)
    r = transmit(packets, deltas, seed=777)
    ok = True
    devs = []
    for k, d in enumerate(deltas, start=1):
        sigma = math.sqrt(d * (1 - d) / n)
        dev = abs(r.erasure_fraction(k) - d)
        devs.append(dev / sigma)
        ok &= dev <= 3 * sigma
    nested = not (r.erased[1] & ~r.erased[0]).any()
    ok &= nested
    report(
        7,
        ok,
        f"erasure rates within 3 sigma (z = {devs[0]:.2f}, {devs[1]:.2f}) and "
        f"nestedness holds in 100% of {n} uses",
    )


def test_criterion_8_codec_properties():
    """Round-trip identity under full rank, side-information monotonicity on
    500 random cases, and success >= 0.99 at u+32 packets for u <= 512."""
    t0 = time.perf_counter()
    ok = True
    # round trip whenever rank is full
    rng = np.random.default_rng(31)
    for trial in range(60):
        B = int(rng.integers(1, 48))
        blocks = rng.integers(0, 2, size=(B, 8), dtype=np.uint8)
        count = B + int(rng.integers(0, 40))
        payloads = codec.encode_payloads(blocks, count, trial, 7_000 + trial)
        res = codec.decode_arrays(np.arange(count), payloads, B, trial, 7_000 + trial)
        if res.ok:
            ok &= bool(np.array_equal(res.blocks, blocks))
    # side-information monotonicity on 500 random cases
    flips = 0
    for trial in range(500):
        B = int(rng.integers(2, 24))
        blocks = rng.integers(0, 2, size=(B, 4), dtype=np.uint8)
        count = int(rng.integers(1, B + 6))
        payloads = codec.encode_payloads(blocks, count, 0, trial)
        kept = np.array([j for j in range(count) if rng.random() > 0.3], dtype=np.int64)
        small_idx = sorted(rng.choice(B, size=int(rng.integers(0, B)), replace=False))
        grow = sorted(set(range(B)) - set(small_idx))
        big_idx = small_idx + [i for i in grow if rng.random() < 0.5]
        r_small = codec.decode_arrays(
            kept, payloads[kept], B, 0, trial, {int(i): blocks[i] for i in small_idx}
        )
        r_big = codec.decode_arrays(
            kept, payloads[kept], B, 0, trial, {int(i): blocks[i] for i in big_idx}
        )
        if r_small.ok and not r_big.ok:
            ok = False
        flips += r_small.ok != r_big.ok
    ok &= flips > 0
    # 32 packets of rank slack suffice with probability >= 0.99 up to u=512
    rates = {}
    for u in (1, 16, 128, 512):
        trials = 500 if u <= 128 else 200
        hits = 0
        for seed in range(trials):
            A = codec.coefficient_rows(seed, 9, u + 32, u)
            x, _ = codec.solve_gf2(A, np.zeros((u + 32, 1), np.uint8))
            hits += x is not None
        rates[u] = hits / trials
        ok &= rates[u] >= 0.99
    elapsed = time.perf_counter() - t0
    report(
        8,
        ok,
        f"codec round-trip exact, side-information monotone (500 cases, "
        f"{flips} marginal), u+32 success rates {rates} all >= 0.99 [{elapsed:.0f}s]",
    )
