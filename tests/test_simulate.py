import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cachebc import (
    ConfigError,
    DemandSet,
    SystemConfig,
    audit_conditions,
    estimate_pe,
    plan_scheme,
    run_trial,
    sweep,
    sweep_to_csv,
    wilson_interval,
)
from cachebc import simulate


def cfg_joint(n=1200, F=8, delta=(0.8, 0.2), D=2, M1=0.8):
    return SystemConfig(
        K=2, D=D, F=F, deltas=list(delta), rates=[1.0] * D, memories=[M1, 0.0], n=n
    )


def test_noiseless_always_succeeds():
    # slack at 85% backoff comfortably exceeds the codec's 32-packet need
    cfg = cfg_joint(n=900, delta=(0.0, 0.0))
    plan = plan_scheme(cfg, "joint-2rx", backoff=0.85)
    assert plan.min_slack_bits >= 32 * cfg.F
    run = simulate._trial_runner(cfg, plan, [(1, 2)])
    for j in range(10):
        assert all(run((1, 2), [3, 0, j]))


def test_zero_rate_vacuous_success():
    cfg = SystemConfig(
        K=2, D=2, F=4, deltas=[0.8, 0.2], rates=[0.0, 0.0], memories=[0.0, 0.0],
        n=100, demand_set=DemandSet(kind="common"),
    )
    rep = estimate_pe(cfg, "common-demand", backoff=1.0, trials=5, seed=0)
    assert rep.pe_hat == 0.0


def test_joint_trial_success_at_backoff():
    cfg = cfg_joint()
    plan = plan_scheme(cfg, "joint-2rx", backoff=0.8)
    ok = 0
    run = simulate._trial_runner(cfg, plan, [(1, 2)])
    for j in range(15):
        ok += all(run((1, 2), [11, 0, j]))
    assert ok >= 14


def test_overloaded_binding_receiver_fails():
    cfg = cfg_joint()
    rep = estimate_pe(cfg, "joint-2rx", backoff=1.3, trials=10, seed=2)
    assert rep.pe_hat >= 0.9
    assert rep.max_individual_failure_rate() >= 0.5
    # union estimate dominates every per-(demand, receiver) frequency
    for row in rep.receiver_failures:
        for count in row:
            assert rep.pe_hat >= count / rep.trials - 1e-12


def test_report_reproducible_and_thread_invariant():
    cfg = cfg_joint(n=600)
    a = estimate_pe(cfg, "joint-2rx", backoff=0.8, trials=6, seed=9).to_dict()
    b = estimate_pe(cfg, "joint-2rx", backoff=0.8, trials=6, seed=9).to_dict()
    for d in (a, b):
        d.pop("elapsed_s")
    assert a == b
    json.dumps(a)  # report serializes cleanly


def test_failure_rate_nonincreasing_in_blocklength():
    pes = []
    for n in (600, 2400):
        cfg = cfg_joint(n=n)
        rep = estimate_pe(cfg, "joint-2rx", backoff=0.82, trials=12, seed=4)
        pes.append(rep.pe_hat)
    assert pes[1] <= pes[0]


def test_symmetric_and_separate_schemes_run():
    cfg = SystemConfig(
        K=2, D=2, F=8, deltas=[0.8, 0.2], rates=[1.0] * 2, memories=[0.5, 0.5], n=1500
    )
    rep = estimate_pe(cfg, "symmetric-2rx", backoff=0.8, trials=5, seed=1)
    assert rep.pe_hat <= 0.2
    cfg2 = cfg_joint(n=1500)
    rep2 = estimate_pe(cfg2, "separate-asym-2rx", backoff=0.8, trials=5, seed=1)
    assert rep2.pe_hat <= 0.2
    assert all(c == 0.0 for row in rep2.piggyback for c in row)


def test_general_scheme_with_duplicates():
    cfg = SystemConfig(
        K=3, D=3, F=8, deltas=[0.8, 0.5, 0.2], rates=[1.0] * 3,
        memories=[0.3, 0.3, 0.0], n=2000,
    )
    plan = plan_scheme(cfg, "general", backoff=0.8)
    demands = [(1, 2, 3), (2, 2, 2), (3, 1, 3)]
    run = simulate._trial_runner(cfg, plan, demands)
    for demand in demands:
        assert all(run(demand, [8, 0, 0])), demand


def test_run_trial_with_explicit_parameters():
    from cachebc import SchemeParameters

    cfg = SystemConfig(
        K=3, D=3, F=8, deltas=[0.8, 0.5, 0.2], rates=[0.2] * 3,
        memories=[0.3, 0.3, 0.0], n=3000,
    )
    params = SchemeParameters(
        K0=2, t=1, beta=(0.6, 0.25, 0.15), piggyback=((0.08,), (0.02,))
    )
    assert all(run_trial(cfg, "general", params, (1, 2, 3), [4, 0, 0]))


def test_common_demand_scheme_backoff_and_overload():
    cfg = SystemConfig(
        K=2, D=2, F=8, deltas=[0.8, 0.2], rates=[2.4, 1.2], memories=[0.8, 0.0],
        n=2000, demand_set=DemandSet(kind="common"),
    )
    ok, _ = __import__("cachebc").common_demand_contains(cfg)
    assert ok
    rep = estimate_pe(cfg, "common-demand", backoff=0.9, trials=20, seed=6)
    assert rep.pe_hat <= 0.05
    rep2 = estimate_pe(cfg, "common-demand", backoff=1.1, trials=10, seed=6)
    assert rep2.max_individual_failure_rate() >= 0.5


def test_common_demand_reports_pinned():
    """K=3, F=3 common demand whose cache prefixes end inside a block, so
    the block-level known rule matters: each report is pinned by sha256."""
    import hashlib

    cfg = SystemConfig(
        K=3, D=2, F=3, deltas=[0.7, 0.5, 0.2], rates=[2.2, 1.7], memories=[2.2, 1.0, 0.2],
        n=250, demand_set=DemandSet(kind="common"),
    )
    expected = {
        0.9: "25e49f795bab920db6017a0b822b9cbb4d06737aca0a2152a5e3b2886baac138",
        1.05: "06ab9cfdcbf0887aa2028a52799550c865370937501765ca1e6c9dab31f39c64",
    }
    for backoff, digest in expected.items():
        report = estimate_pe(cfg, "common-demand", backoff=backoff, trials=20, seed=0).to_dict()
        del report["elapsed_s"]
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


def test_common_demand_unit_blocks_decode():
    # F=1: receiver 2 has 255 unknown blocks of message 1, so its system and
    # right-hand side fill exactly four 64-bit words; the decode stays a result
    cfg = SystemConfig(
        K=3, D=2, F=1, deltas=[0.6, 0.4, 0.2], rates=[0.9, 0.5], memories=[0.9, 0.4, 0.15],
        n=500, demand_set=DemandSet(kind="common"),
    )
    rep = estimate_pe(cfg, "common-demand", backoff=0.9, trials=1, seed=0)
    assert rep.trials == 1 and 0.0 <= rep.pe_hat <= 1.0


def test_plan_validation_errors():
    cfg = cfg_joint()
    with pytest.raises(ConfigError):
        plan_scheme(cfg, "bogus")
    with pytest.raises(ConfigError):
        plan_scheme(cfg, "symmetric-2rx")  # caches not equal
    with pytest.raises(ConfigError):
        plan_scheme(replace(cfg, demand_set=DemandSet(kind="full-product")), "common-demand")
    with pytest.raises(ConfigError):
        run_trial(cfg, "joint-2rx", None, (1, 5), 0)  # demand outside library
    for backoff in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="backoff"):
            plan_scheme(cfg, "joint-2rx", backoff)


def test_demand_sampling_above_cap():
    cfg = cfg_joint(n=400, D=4)
    rep = estimate_pe(cfg, "joint-2rx", backoff=0.7, trials=2, seed=3, demand_cap=5)
    assert rep.demand_mode == "sampled"
    assert len(rep.demands) == 5
    rep2 = estimate_pe(cfg, "joint-2rx", backoff=0.7, trials=2, seed=3, demand_cap=5)
    assert rep.demands == rep2.demands


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo2, hi2 = wilson_interval(50, 100)
    assert lo2 < 0.5 < hi2
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_sweep_rows_and_breakpoint():
    cfg = SystemConfig(
        K=2, D=10, F=1, deltas=[0.8, 0.2], rates=[0.4] * 10, memories=[1.0, 1.0]
    )
    grid = [0.0, 1.0, 2.4]
    rows = sweep(cfg, ["symmetric-2rx", "separate-asym-2rx", "joint-2rx"], grid)
    assert len(rows) == 9
    at_zero = {r["scheme"]: r["R_analytical"] for r in rows if r["M"] == 0.0}
    assert len(set(round(v, 12) for v in at_zero.values())) == 1  # identical column
    joint_bp = next(r for r in rows if r["scheme"] == "joint-2rx" and r["M"] == 2.4)
    assert joint_bp["R_analytical"] == pytest.approx(0.64, abs=1e-9)
    sym_bp = next(r for r in rows if r["scheme"] == "symmetric-2rx" and r["M"] == 2.4)
    assert math.isnan(sym_bp["R_analytical"])  # out of regime, reported not hidden
    csv_text = sweep_to_csv(rows)
    assert csv_text.splitlines()[0] == "M,scheme,R_analytical,pe_hat,ci_lo,ci_hi,n,trials,seed"


def test_sweep_with_simulation_column():
    cfg = SystemConfig(
        K=2, D=2, F=8, deltas=[0.8, 0.2], rates=[1.0] * 2, memories=[0.0, 0.0], n=1200
    )
    rows = sweep(cfg, ["joint-2rx"], [0.2], simulate=True, backoff=0.7, trials=3, seed=1)
    assert rows[0]["pe_hat"] == 0.0 and rows[0]["trials"] == 3


def test_audit_reports_divergence_and_verifies():
    cfg = SystemConfig(
        K=3, D=3, F=1, deltas=[0.8, 0.5, 0.2], rates=[0.3] * 3,
        memories=[0.3, 0.3, 0.0], n=24000,
    )
    out = audit_conditions(cfg, 2, 0.3, 1)
    assert out["lp_feasible"] and out["verify_ok"]
    assert out["divergence"] > 0.1  # published bound exceeds the oracle here


def test_demand_cap_below_one_rejected():
    # a cap below one used to run no demand and report pe_hat 0.0
    cfg = cfg_joint(n=200)
    for bad in (0, -3, 1.5):
        with pytest.raises(ConfigError, match="demand_cap"):
            estimate_pe(cfg, "joint-2rx", trials=1, demand_cap=bad)


def test_trials_not_a_positive_integer_rejected():
    # a fractional count used to fail with a TypeError from range()
    cfg = cfg_joint(n=200)
    for bad in (0, -1, 1.5):
        with pytest.raises(ConfigError, match="trials"):
            estimate_pe(cfg, "joint-2rx", trials=bad)


def test_bad_worker_counts_rejected(monkeypatch):
    # runs are single-threaded: only threads=1 is accepted, and the retired
    # CACHEBC_THREADS variable no longer changes anything
    cfg = cfg_joint(n=200)
    for bad in (0, -2, 1.5, 2):
        with pytest.raises(ConfigError, match="threads"):
            estimate_pe(cfg, "joint-2rx", trials=1, threads=bad)

    def report():
        out = estimate_pe(cfg, "joint-2rx", trials=2, seed=3).to_dict()
        out.pop("elapsed_s")
        return out

    plain = report()
    for raw in ("2", "two", "0"):
        monkeypatch.setenv("CACHEBC_THREADS", raw)
        assert report() == plain


def test_partly_known_ranges_pin_decoder_calls(monkeypatch):
    """A constituent range counts as known only when all its bits are: with
    t=2 and a repeated demand, receivers decode some ranges in part, and the
    known blocks handed to the decoder must follow the range rule."""
    import hashlib

    from cachebc import SchemeParameters, codec

    cfg = SystemConfig(
        K=5, D=2, F=8, deltas=[0.3, 0.25, 0.2, 0.1, 0.05], rates=[0.6] * 2,
        memories=[0.6, 0.6, 0.6, 0.0, 0.0], n=1200,
    )
    params = SchemeParameters(
        K0=3, t=2, beta=(0.3, 0.3, 0.2, 0.1, 0.1),
        piggyback=((0.05, 0.02), (0.03, 0.06), (0.02, 0.01)),
    )
    calls = []
    decode = codec.decode_batch

    def recording(phases):
        # phase p of a run is decoded at receivers p..K, in that order
        for _, _, phase_id, _, receptions in phases:
            for k, rec in enumerate(receptions, start=phase_id):
                known = np.flatnonzero(rec.known).tolist()
                calls.append((k, [phase_id, known, len(rec.indices)]))
        return decode(phases)

    monkeypatch.setattr(codec, "decode_batch", recording)
    assert all(run_trial(cfg, "general", params, (1, 1, 1, 1, 1), [1, 0, 0]))
    # run-major order: receiver by receiver, each through its phases
    calls = [call for _, call in sorted(calls, key=lambda c: (c[0], c[1][0]))]
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == "68350fef27f212f299fb194c112b58269a4d57f632b79f04263bec4d3cc53d9f"


def test_xor_scheme_reports_pinned():
    """The criterion-5 joint-2rx config below and above capacity, and the
    K=4 general config with four cached-receiver phases: each report is
    pinned by sha256, so the delivery engine's results stay bit-identical."""
    import hashlib

    c5 = SystemConfig(
        K=2, D=4, F=16, deltas=[0.8, 0.2], rates=[1.0] * 4, memories=[0.8, 0.0], n=4000
    )
    k4 = SystemConfig(
        K=4, D=4, F=16, deltas=[0.8, 0.6, 0.4, 0.2], rates=[1.0] * 4,
        memories=[0.5, 0.5, 0.5, 0.0], n=400,
    )
    expected = [
        (c5, "joint-2rx", 0.9, 3, "6eede878745747d0dd34956d3acd8a023703075b168741b8e7bba10ff0f466bc"),
        (c5, "joint-2rx", 1.1, 3, "7aac6aee6df977dc0342c9b316cb952a7721baa01b0b54b7919d87bc644dbb42"),
        (k4, "general", 0.6, 2, "0f2509e94cf8107935b1224005070eb202f7d83bb8938ce0269a3147fe9107dc"),
    ]
    for cfg, scheme, backoff, trials, digest in expected:
        report = estimate_pe(cfg, scheme, backoff=backoff, trials=trials, seed=7).to_dict()
        del report["elapsed_s"]
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


def _general_k3():
    cfg = SystemConfig(
        K=3, D=3, F=8, deltas=[0.8, 0.5, 0.2], rates=[1.0] * 3,
        memories=[0.3, 0.3, 0.0], n=1500,
    )
    return cfg, plan_scheme(cfg, "general", backoff=0.8)


def test_one_random_stream_per_draw(monkeypatch):
    """A run derives one library stream, one channel stream and one codec
    stream per phase it decodes: encoder and decoder share each phase's
    coefficient draw."""
    from cachebc import _seeding, channel, codec, placement

    derived = []

    def counting(seed, *tags):
        derived.append(tags[0])
        return _seeding.derived_rng(seed, *tags)

    for module in (placement, channel, codec):
        monkeypatch.setattr(module, "derived_rng", counting)
    solved = []  # phases with a reception that reaches the elimination
    decode = codec.decode_batch

    def recording(phases):
        for _, B, _, _, receptions in phases:
            unknown = [B - int(rec.known.sum()) for rec in receptions]
            solved.append(any(0 < u <= len(rec.indices) for u, rec in zip(unknown, receptions)))
        return decode(phases)

    monkeypatch.setattr(codec, "decode_batch", recording)
    cfg, plan = _general_k3()
    assert all(run_trial(cfg, "general", plan, (1, 2, 3), [5, 0, 0]))
    assert sum(solved) == 3
    assert sorted(derived) == sorted(
        [_seeding.LIBRARY_STREAM, _seeding.CHANNEL_STREAM] + [_seeding.CODEC_STREAM] * 3
    )


def test_engine_encodes_what_encode_payloads_sends(monkeypatch):
    """Every packet the engine's decoder reads carries the payload that
    encode_payloads gives it over the phase's blocks, gathered here from the
    run's library independently of the engine."""
    from cachebc import codec
    from cachebc._seeding import seed_material
    from cachebc.placement import draw_library
    from cachebc.schedule import flat_library, gather_bits

    cfg, plan = _general_k3()
    demand, seed = (2, 1, 3), [6, 0, 0]
    delivery, compiled = simulate._experiment(cfg, plan, [demand])
    reads = []
    decode = codec.decode_batch

    def recording(phases):
        wrapped = []
        for payloads, B, phase_id, base, receptions in phases:
            def source(rows, sel, payloads=payloads, key=(B, phase_id, base)):
                out = payloads(rows, sel)
                reads.append((key, sel, out))
                return out
            wrapped.append((source, B, phase_id, base, receptions))
        return decode(wrapped)

    monkeypatch.setattr(codec, "decode_batch", recording)
    assert all(delivery.run([(compiled[demand], demand, seed)])[0])
    library = flat_library(draw_library(plan.cfg_sim, seed_material(seed)))
    assert {key[1] for key, _, _ in reads} == {1, 2, 3}
    for (B, p, base), sel, out in reads:
        blocks = gather_bits(library, compiled[demand][p - 1].gather).reshape(B, cfg.F)
        sent = codec.encode_payloads(blocks, int(sel[-1]) + 1, p, base)
        assert np.array_equal(out, sent[sel])
