import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "call", ["plan_scheme", "estimate_pe", "run_trial", "estimate_pe-plan", "run_trial-plan"]
)
def test_params_the_scheme_would_ignore_are_rejected(call):
    """Only general takes SchemeParameters in plan_scheme, and a SchemePlan
    must be one for the scheme asked for.  plan_scheme used to drop params
    for any other scheme, so estimate_pe ran joint-2rx at K0 = 1 when asked
    for K0 = 2 and run_trial ran common-demand without its params; a plan
    made for general ran as joint-2rx and reported general."""
    from cachebc import SchemeParameters

    cfg = cfg_joint(n=400)
    params = SchemeParameters(K0=2, t=1, beta=(0.5, 0.5))
    general = plan_scheme(cfg, "general", backoff=0.9)
    common = replace(cfg, rates=(2.4, 1.2), demand_set=DemandSet(kind="common"))
    calls = {
        "plan_scheme": lambda: plan_scheme(cfg, "joint-2rx", params=params),
        "estimate_pe": lambda: estimate_pe(cfg, "joint-2rx", params=params, trials=1),
        "run_trial": lambda: run_trial(common, "common-demand", params, (1, 1), 0),
        "estimate_pe-plan": lambda: estimate_pe(cfg, "joint-2rx", params=general, trials=1),
        "run_trial-plan": lambda: run_trial(cfg, "joint-2rx", general, (1, 2), 0),
    }
    with pytest.raises(ConfigError, match="params"):
        calls[call]()


def test_a_plan_rejects_another_backoff():
    """estimate_pe ran a plan at the plan's backoff and reported it, whatever
    backoff it was passed.  Now a plan takes its own backoff by default and
    rejects a different one; without a plan the default is 0.9."""
    cfg = cfg_joint(n=400)
    plan = plan_scheme(cfg, "joint-2rx", backoff=0.9)
    with pytest.raises(ConfigError, match="^backoff 1.1 differs"):
        estimate_pe(cfg, "joint-2rx", params=plan, backoff=1.1, trials=1)
    over = plan_scheme(cfg, "joint-2rx", backoff=1.1)
    for backoff in (None, 1.1):
        assert estimate_pe(cfg, "joint-2rx", over, backoff, trials=1).backoff == 1.1
    assert estimate_pe(cfg, "joint-2rx", trials=1).rates_sim == plan.cfg_sim.rates


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
    common = SystemConfig(
        K=2, D=2, F=16, deltas=[0.8, 0.2], rates=[4.8, 2.4], memories=[1.6, 0.0], n=4000,
        demand_set=DemandSet(kind="common"),
    )
    with pytest.raises(ConfigError, match="backoff"):
        plan_scheme(common, "common-demand", 1e308)  # the backed-off rates overflow


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
    # a cap below one used to run no demand and report pe_hat 0.0, and True
    # ran one sampled demand
    cfg = cfg_joint(n=200)
    for bad in (0, -3, 1.5, True):
        with pytest.raises(ConfigError, match="demand_cap"):
            estimate_pe(cfg, "joint-2rx", trials=1, demand_cap=bad)


def test_trials_not_a_positive_integer_rejected():
    # a fractional count used to fail with a TypeError from range(), and
    # True ran one trial and reported "trials": true
    cfg = cfg_joint(n=200)
    for bad in (0, -1, 1.5, True):
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


def _k5_t2(rate=0.6):
    """The K=5, t=2 config of the decoder-call digest test, whose repeated
    demands decode constituent ranges in part."""
    from cachebc import SchemeParameters

    cfg = SystemConfig(
        K=5, D=2, F=8, deltas=[0.3, 0.25, 0.2, 0.1, 0.05], rates=[rate] * 2,
        memories=[0.6, 0.6, 0.6, 0.0, 0.0], n=1200,
    )
    params = SchemeParameters(
        K0=3, t=2, beta=(0.3, 0.3, 0.2, 0.1, 0.1),
        piggyback=((0.05, 0.02), (0.03, 0.06), (0.02, 0.01)),
    )
    return cfg, simulate._plan_from_parameters(cfg, "general", params)


def test_partly_known_ranges_pin_decoder_calls(monkeypatch):
    """A constituent range counts as known only when all its bits are: with
    t=2 and a repeated demand, receivers decode some ranges in part, and the
    known blocks handed to the decoder must follow the range rule."""
    import hashlib

    from cachebc import codec

    cfg, plan = _k5_t2()
    calls = []
    decode = codec.decode_batch

    def recording(phases):
        # phase p of a run is decoded at receivers p..K, in that order
        for _, phase_id, _, receptions in phases:
            for k, rec in enumerate(receptions, start=phase_id):
                known = np.flatnonzero(rec.known).tolist()
                calls.append((k, [phase_id, known, len(rec.indices)]))
        return decode(phases)

    monkeypatch.setattr(codec, "decode_batch", recording)
    assert all(run_trial(cfg, "general", plan, (1, 1, 1, 1, 1), [1, 0, 0]))
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
    """A run draws one library stream, one channel stream and one codec
    stream per phase it decodes (encoder and decoder share each phase's
    coefficient draw), each through its block's keys: every stream drawn
    has the key derived_rng gives the same (seed, tags)."""
    from cachebc import _seeding, channel, codec, placement

    drawn = []

    def counting(seed, *tags):
        drawn.append((tags, seed))
        return _seeding.stream_rng(seed, *tags)

    for module in (placement, channel, codec):
        monkeypatch.setattr(module, "stream_rng", counting)
    solved = []  # phases with a reception that reaches the elimination
    decode = codec.decode_batch

    def recording(phases):
        for blocks, _, _, receptions in phases:
            unknown = [len(blocks) - int(rec.known.sum()) for rec in receptions]
            solved.append(any(0 < u <= len(rec.indices) for u, rec in zip(unknown, receptions)))
        return decode(phases)

    monkeypatch.setattr(codec, "decode_batch", recording)
    cfg, plan = _general_k3()
    assert all(run_trial(cfg, "general", plan, (1, 2, 3), [5, 0, 0]))
    assert sum(solved) == 3
    assert sorted(tags[0] for tags, _ in drawn) == sorted(
        [_seeding.LIBRARY_STREAM, _seeding.CHANNEL_STREAM] + [_seeding.CODEC_STREAM] * 3
    )
    for tags, stream in drawn:
        assert isinstance(stream, _seeding.Stream)
        key = _seeding.derived_rng([5, 0, 0], *tags).bit_generator.state["state"]["key"]
        assert stream.key == key.tolist()


def test_engine_encodes_what_encode_payloads_sends(monkeypatch):
    """The engine hands the decoder each phase's source blocks, which
    decode_batch encodes as encode_payloads does: the blocks of every phase
    are those of index_schedule's phases for the demand, gathered here from
    the run's library drawn independently of the engine, in message order."""
    from cachebc import codec
    from cachebc._seeding import seed_material
    from cachebc.placement import draw_library, sub_message_layout
    from cachebc.schedule import flat_library, gather_bits, index_schedule, piggyback_grants

    cfg, plan = _general_k3()
    demand, seed = (2, 1, 3), [6, 0, 0]
    delivery, compiled = simulate._experiment(cfg, plan, [demand])
    handed = []
    decode = codec.decode_batch

    def recording(phases):
        handed.extend((phase_id, blocks) for blocks, phase_id, _, _ in phases)
        return decode(phases)

    monkeypatch.setattr(codec, "decode_batch", recording)
    assert all(delivery.run([(compiled[demand], demand, seed)])[0])
    params, sim = plan.params, plan.cfg_sim
    layout = sub_message_layout(sim, params.K0, params.t, plan.layout_memory)
    phases = index_schedule(sim, params, layout, piggyback_grants(sim, params, layout)[0], demand)
    library = flat_library(draw_library(sim, seed_material(seed)))
    assert sorted(p for p, _ in handed) == [1, 2, 3]
    for p, blocks in handed:
        gathered = gather_bits(library, phases[p - 1].gather).reshape(-1, cfg.F)
        assert np.array_equal(blocks, gathered)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
def test_seed_that_cannot_be_simulated_is_rejected_before_planning(monkeypatch, seed):
    """estimate_pe, sweep and run_trial name ``seed`` in a ConfigError for a
    negative, bool, float or str seed, before any planning; run_trial also
    rejects a sequence holding one."""

    def planning(*args, **kwargs):
        raise AssertionError("planned before the seed was checked")

    monkeypatch.setattr(simulate, "plan_scheme", planning)
    cfg = cfg_joint()
    with pytest.raises(ConfigError, match="seed"):
        estimate_pe(cfg, "joint-2rx", trials=1, seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        sweep(cfg, ["joint-2rx"], [0.4], simulate=True, trials=1, seed=seed)
    for bad in (seed, [3, seed, 0]):
        with pytest.raises(ConfigError, match="seed"):
            run_trial(cfg, "joint-2rx", None, (1, 2), bad)


def _k4_general():
    cfg = SystemConfig(
        K=4, D=4, F=16, deltas=[0.8, 0.6, 0.4, 0.2], rates=[1.0] * 4,
        memories=[0.5, 0.5, 0.5, 0.0], n=400,
    )
    return cfg, plan_scheme(cfg, "general", backoff=0.6)


@pytest.mark.parametrize("which", ["criterion-5", "general-k3", "general-k4"])
def test_pattern_compile_equals_index_schedule(monkeypatch, which):
    """The engine compiles one template per equality pattern of the demand,
    index_schedule's phases for the pattern's first-appearance labels, and
    runs every demand of the pattern on it over a library laid out in label
    order.  On every demand of the criterion-5 joint-2rx config (16), the K=3
    general config (27) and the benchmark's K=4 general config (256), the
    bits and spans a run reads through its label-ordered library are those
    of index_schedule's phases for the demand over the message-ordered
    library, and so are the cached bits under them."""
    from itertools import product

    from cachebc.placement import sub_message_layout
    from cachebc.schedule import flat_library, gather_bits, index_schedule, piggyback_grants

    if which == "criterion-5":
        cfg = cfg_joint(n=4000, F=16, D=4)
        plan = plan_scheme(cfg, "joint-2rx", backoff=0.9)
    else:
        cfg, plan = _general_k3() if which == "general-k3" else _k4_general()
    params = plan.params
    layout = sub_message_layout(plan.cfg_sim, params.K0, params.t, plan.layout_memory)
    grants, _ = piggyback_grants(plan.cfg_sim, params, layout)
    compiles = []
    monkeypatch.setattr(simulate, "index_schedule", lambda *a: compiles.append(a[-1]) or index_schedule(*a))
    delivery = simulate._subset_delivery(plan)
    L = layout.message_bits
    rng = np.random.default_rng(0)
    messages = [rng.integers(0, 2, L, dtype=np.uint8) for _ in range(cfg.D)]
    library, cached = flat_library(messages), delivery.cached

    def pattern(demand):
        labels = {}
        return tuple(labels.setdefault(d, len(labels) + 1) for d in demand)

    demands = list(product(range(1, cfg.D + 1), repeat=cfg.K))
    for demand in demands:
        got = delivery.compile(demand)
        assert got is delivery.compile(pattern(demand)) and got.labels == pattern(demand)
        order = simulate._library_order(got.labels, demand, cfg.D)
        assert sorted(order) == list(range(1, cfg.D + 1))
        laid = flat_library([messages[d - 1] for d in order])
        want = index_schedule(plan.cfg_sim, params, layout, grants, demand)
        assert len(got.phases) == len(want) == cfg.K
        for a, b in zip(got.phases, want):
            assert (a.receiver, a.budget_uses, a.plain_start) == (b.receiver, b.budget_uses, b.plain_start)
            for x, y in zip(a.items, b.items, strict=True):  # constituents name labels
                moved = tuple((order[c[0] - 1],) + c[1:] for c in x.constituents)
                assert (x.kind, moved, x.known_to, x.owner) == (y.kind, y.constituents, y.known_to, y.owner)
                assert (x.start, x.stop) == (y.start, y.stop)
            assert np.array_equal(gather_bits(laid, a.gather), gather_bits(library, b.gather))
            assert len(a.spans) == len(b.spans)
            for (lo, hi, first, stop), (lo2, hi2, first2, stop2) in zip(a.spans, b.spans):
                assert (first, stop, hi - lo) == (first2, stop2, hi2 - lo2)
                assert np.array_equal(laid[lo:hi], library[lo2:hi2])
                assert np.array_equal(cached[:, lo:hi], cached[:, lo2:hi2])
        for k, label in enumerate(got.labels, start=1):
            message = laid[(label - 1) * L : label * L]
            assert np.array_equal(message, messages[demand[k - 1] - 1])
    # one compile per pattern: as many as the Bell number of K, since D >= K
    assert sorted(compiles) == sorted({pattern(d) for d in demands})
    assert len(compiles) == {2: 2, 3: 5, 4: 15}[cfg.K]


# -- span-level receiver bookkeeping --------------------------------------------


def _reception_rows(phase, B, F, values, known, erased):
    """Row-level reference for ``simulate._reception``: a B*F row mask
    cleared on the rows of every span not wholly known."""
    rows_known = np.ones(B * F, dtype=bool)
    for lo, hi, first, stop in phase.spans:
        if not known[lo:hi].all():
            rows_known[first:stop] = False
    known_blocks = rows_known.reshape(B, F).all(axis=1)
    vals_blocks = np.bitwise_xor.reduce(values[phase.gather], axis=1).reshape(B, F)
    return np.flatnonzero(~erased), known_blocks, vals_blocks


def _absorb_rows(phase, decoded, values, known):
    """Row-level reference for ``simulate._absorb``: each XOR group is
    tested and stripped over its gather rows."""
    for item in phase.items:
        if item.kind != "xor-group":
            break
        rows, got = phase.gather[item.start : item.stop], decoded[item.start : item.stop]
        data = rows[:, 0] != simulate.PAD
        rows, got = rows[data], got[data]
        have = known[rows].all(axis=0)
        if np.count_nonzero(~have) == 1:
            target = rows[:, np.argmin(have)]
            values[target] = got ^ np.bitwise_xor.reduce(values[rows[:, have]], axis=1)
            known[target] = True
    positions = phase.gather[phase.plain_start :, 0]
    data = positions != simulate.PAD
    values[positions[data]] = decoded[phase.plain_start :][data]
    known[positions[data]] = True


@functools.cache
def _bookkeeping_phases():
    """(cached masks, F, phase) for every compiled phase of a few demands of
    each scheme, with repeated demands so that XOR groups share constituents
    and t = 2 so that ranges are decoded in part."""
    c2 = dict(K=2, D=2, F=8, deltas=[0.8, 0.2], rates=[1.0] * 2, n=600)
    k4 = SystemConfig(
        K=4, D=4, F=16, deltas=[0.8, 0.6, 0.4, 0.2], rates=[1.0] * 4,
        memories=[0.5, 0.5, 0.5, 0.0], n=400,
    )
    common = SystemConfig(
        K=2, D=2, F=4, deltas=[0.8, 0.2], rates=[0.3, 0.15], memories=[0.1, 0.0], n=400,
        demand_set=DemandSet(kind="common"),
    )
    cases = [
        (SystemConfig(**c2, memories=[0.5, 0.5]), "symmetric-2rx", [(1, 2), (2, 2)]),
        (SystemConfig(**c2, memories=[0.8, 0.0]), "separate-asym-2rx", [(1, 2), (1, 1)]),
        (SystemConfig(**c2, memories=[0.8, 0.0]), "joint-2rx", [(2, 1), (2, 2)]),
        (k4, "general", [(1, 2, 3, 4), (1, 1, 1, 2), (2, 2, 3, 3)]),  # t = 1
        (*_k5_t2(), [(1, 1, 1, 1, 1), (1, 2, 1, 2, 2)]),
        (common, "common-demand", [(1, 1), (2, 2)]),
    ]
    out = []
    for cfg, plan, demands in cases:
        if isinstance(plan, str):
            plan = plan_scheme(cfg, plan, backoff=0.9)
        delivery, compiled = simulate._experiment(cfg, plan, demands)
        for pattern in compiled.values():
            out += [(delivery.cached, cfg.F, phase) for phase in pattern.phases]
    return tuple(out)


def _check_bookkeeping(case: int, k_offset: int, seed: int) -> set:
    """Compare the span-level reception and absorb with the row-level
    references on one phase under a random knowledge state; returns the
    situations the state produced."""
    phases = _bookkeeping_phases()
    cached, F, phase = phases[case % len(phases)]
    rng = np.random.default_rng(seed)
    K = len(cached)
    k = phase.receiver + k_offset % (K - phase.receiver + 1)
    known = cached[k - 1].copy()
    for lo, hi, _, _ in phase.spans:  # each span: cached, known, unknown or partly known
        how = rng.integers(4)
        if how == 1:
            known[lo:hi] = True
        elif how == 2:
            known[lo:hi] = False
        elif how == 3:
            known[lo:hi] = rng.random(hi - lo) < 0.5
    values = rng.integers(0, 2, len(known), dtype=np.uint8) * known
    B = len(phase.gather) // F
    erased = rng.random(phase.budget_uses) < 0.4
    decoded = rng.integers(0, 2, B * F, dtype=np.uint8)

    got = simulate._reception(phase, B, F, values, known, erased)
    want = _reception_rows(phase, B, F, values, known, erased)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)

    seen = set()
    for lo, hi, _, _ in phase.spans:
        if 0 < np.count_nonzero(known[lo:hi]) < hi - lo:
            seen.add("partly known span")
    groups = [phase.spans[a:b] for item, (a, b) in zip(phase.items, phase.item_spans)
              if item.kind == "xor-group"]
    missing = [sum(not known[lo:hi].all() for lo, hi, _, _ in spans) for spans in groups]
    seen |= {f"{min(m, 2)} missing" for m in missing}
    v1, k1, v2, k2 = values.copy(), known.copy(), values.copy(), known.copy()
    simulate._absorb(phase, decoded, v1, k1)
    _absorb_rows(phase, decoded, v2, k2)
    assert np.array_equal(v1, v2) and np.array_equal(k1, k2)
    for spans, m in zip(groups, missing):
        # only an earlier group can complete one of two missing constituents
        if m == 2 and all(k1[lo:hi].all() for lo, hi, _, _ in spans):
            seen.add("completed by an earlier group")
    return seen


@settings(max_examples=150, deadline=None)
@given(case=st.integers(0, 10**6), k_offset=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_span_bookkeeping_matches_row_level_reference(case, k_offset, seed):
    """``_reception`` and ``_absorb`` work on a phase's spans; they agree
    with the row-level versions on random knowledge states."""
    _check_bookkeeping(case, k_offset, seed)


def test_span_bookkeeping_cases_are_covered():
    # the random states above reach every situation the span rules single out
    seen = set()
    for i in range(400):
        seen |= _check_bookkeeping(i, i // 7, i)
    assert seen == {
        "partly known span", "0 missing", "1 missing", "2 missing",
        "completed by an earlier group",
    }


def test_block_size_does_not_change_the_report(monkeypatch):
    """Runs are decoded in blocks sized by bytes: one run per block, a few
    runs, or all runs at once give the same report."""
    cfg, plan = _general_k3()
    delivery, compiled = simulate._experiment(cfg, plan, [(1, 2, 3)])
    per_run = delivery.run_bytes(compiled[(1, 2, 3)])
    sizes = []
    run = simulate._Delivery.run

    def recording(self, runs):
        sizes.append(len(runs))
        return run(self, runs)

    monkeypatch.setattr(simulate._Delivery, "run", recording)
    reports = []
    for budget in (1, 3 * per_run + 1, 1 << 40):
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", budget)
        report = estimate_pe(cfg, "general", plan, trials=2, seed=5, demand_cap=5).to_dict()
        del report["elapsed_s"]
        reports.append(report)
    assert sizes == [1] * 10 + [3, 3, 3, 1] + [10]
    assert reports[0] == reports[1] == reports[2]


# -- doomed receivers and the knowledge pass ------------------------------------


def _report(cfg, scheme, plan, trials):
    report = estimate_pe(cfg, scheme, plan, trials=trials, seed=7).to_dict()
    del report["elapsed_s"]
    return report


@pytest.mark.parametrize(
    "which,backoff,dooms",
    [
        ("criterion-5", 0.98, True),
        ("criterion-5", 1.0, True),
        ("criterion-5", 1.02, True),
        ("criterion-5", 1.1, True),
        ("general-k4", 0.6, False),
        ("general-k4", 0.85, True),
        ("general-k4", 1.2, True),
        ("k5-t2", 0.6, False),
        ("k5-t2", 0.9, True),
    ],
)
def test_doom_check_does_not_change_the_report(monkeypatch, which, backoff, dooms):
    """A doomed receiver is decoded no further and its flag is False; with
    the doom check switched off every receiver decodes every phase, and the
    report is the same.  (For the K=5 case the number is the message rate.)"""
    if which == "criterion-5":
        cfg, scheme = cfg_joint(n=4000, F=16, D=4), "joint-2rx"
        plan = plan_scheme(cfg, scheme, backoff=backoff)
    elif which == "general-k4":
        (cfg, _), scheme = _k4_general(), "general"
        plan = plan_scheme(cfg, scheme, backoff=backoff)
    else:
        (cfg, plan), scheme = _k5_t2(backoff), "general"
    trials = 3 if which == "criterion-5" else 2
    check = simulate._doomed
    doomed = []
    monkeypatch.setattr(simulate, "_doomed", lambda *a: doomed.append(check(*a)) or doomed[-1])
    on = _report(cfg, scheme, plan, trials)
    assert any(doomed) == dooms
    monkeypatch.setattr(simulate, "_doomed", lambda *a: False)
    assert _report(cfg, scheme, plan, trials) == on


def test_doomed_receiver_skips_its_phase_one_elimination(monkeypatch):
    """Criterion 5 at 110%, on the benchmark's recorded seed: receiver 2
    receives fewer packets of phase 2 than it has unknown blocks there in 12
    of the 16 runs, so it fails them; its phase-1 system then no longer
    reaches the elimination, and the report does not change."""
    from cachebc import codec

    cfg = cfg_joint(n=4000, F=16, D=4)
    plan = plan_scheme(cfg, "joint-2rx", backoff=1.1)
    seed = 20250809 * 10_000  # the call whose digest the benchmark records
    systems, eliminate, decode = codec._systems, codec._eliminate, codec.decode_batch

    def count():
        made, reached, short = {}, [], []

        def building(phase, todo):
            out = systems(phase, todo)
            made.update((id(system), (phase[1], ri)) for ri, system in out)
            return out

        def eliminating(batch):
            reached.extend(made[id(system)] for system in batch)
            return eliminate(batch)

        def decoding(phases):
            for blocks, p, _, receptions in phases:
                unknown = [len(blocks) - int(rec.known.sum()) for rec in receptions]
                short.extend(p == 2 and len(rec.indices) < u for rec, u in zip(receptions, unknown))
            return decode(phases)

        monkeypatch.setattr(codec, "_systems", building)
        monkeypatch.setattr(codec, "_eliminate", eliminating)
        monkeypatch.setattr(codec, "decode_batch", decoding)
        report = estimate_pe(cfg, "joint-2rx", plan, trials=1, seed=seed).to_dict()
        del report["elapsed_s"]
        # receiver 1 decodes phase 1 alone, so it is never doomed and is
        # reception 0 of every phase-1 group; receiver 2 is reception 1
        return report, reached.count((1, 1)), sum(short)

    on, rx2_on, _ = count()
    monkeypatch.setattr(simulate, "_doomed", lambda *a: False)
    off, rx2_off, lost = count()
    assert on == off
    assert (rx2_off, lost, rx2_on) == (16, 12, 4)


def _check_pass_against_run(cfg, plan, demands, seeds) -> int:
    """Run each (demand, seed) alone with the doom check off, so every
    receiver decodes every phase, and compare with the demand's knowledge
    pass: a receiver whose earlier phases all decoded hands the decoder
    exactly the pass's unknown count, and a receiver delivered its message
    after a failed decode only where the pass says the message is complete
    without that phase.  Returns the number of unknown counts compared."""
    from cachebc import codec

    calls = []
    decode = codec.decode_batch

    def recording(phases):
        results = decode(phases)
        for (blocks, p, _, receptions), got in zip(phases, results):
            unknown = [len(blocks) - int(rec.known.sum()) for rec in receptions]
            calls.append((p, unknown, [result.ok for result in got]))
        return results

    compared = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_doomed", lambda *a: False)
        mp.setattr(codec, "decode_batch", recording)
        delivery, compiled = simulate._experiment(cfg, plan, demands)
        for demand in dict.fromkeys(demands):
            unknown, spare = delivery.outlook(compiled[demand])
            for seed in seeds:
                calls.clear()
                flags = delivery.run([(compiled[demand], demand, seed)])[0]
                decoded = [True] * cfg.K  # receiver k's phases so far all decoded
                calls.sort(key=lambda call: call[0])  # phase order: a level may hold several
                for p, us, oks in calls:  # one run: phase p at receivers p..K
                    for k, u, ok in zip(range(p, cfg.K + 1), us, oks):
                        if decoded[k - 1]:
                            assert u == unknown[k - 1, p - 1], (demand, seed, k, p)
                            compared += 1
                        decoded[k - 1] &= ok
                        assert ok or not flags[k - 1] or spare[k - 1, p - 1]
    return compared


@st.composite
def _general_configs(draw):
    K = draw(st.integers(2, 5))
    K0 = draw(st.integers(1, K))
    deltas = sorted(draw(st.lists(st.floats(0.05, 0.85), min_size=K, max_size=K)), reverse=True)
    D = draw(st.integers(1, 3))
    M = draw(st.floats(0.1, 0.8)) * D
    cfg = SystemConfig(
        K=K, D=D, F=draw(st.sampled_from([4, 8])), deltas=deltas, rates=[1.0] * D,
        memories=[M] * K0 + [0.0] * (K - K0), n=draw(st.integers(100, 500)),
    )
    demands = draw(st.lists(st.tuples(*[st.integers(1, D)] * K), min_size=1, max_size=3))
    return cfg, draw(st.floats(0.6, 1.3)), demands


@settings(max_examples=25, deadline=None)
@given(case=_general_configs(), seed=st.integers(0, 2**32 - 1))
def test_knowledge_pass_matches_run_on_random_general_configs(case, seed):
    """The knowledge pass's unknown counts are the ones run hands the decoder,
    on random K <= 5 general configs with small n."""
    from hypothesis import assume

    from cachebc import OutOfRegimeError
    from cachebc.placement import CapacityError

    cfg, backoff, demands = case
    try:
        plan = plan_scheme(cfg, "general", backoff=backoff)
    except (ConfigError, OutOfRegimeError, CapacityError):
        assume(False)
    _check_pass_against_run(cfg, plan, demands, [[seed, 0], [seed, 1]])


@pytest.mark.parametrize("case", ["k5-t2-0.6", "k5-t2-0.9", "common-demand"])
def test_knowledge_pass_matches_run_on_fixed_cases(case):
    """The decoder-call digest test's K=5 case, where t=2 and a repeated
    demand leave constituent ranges decoded in part, below and above its
    rate; and the common-demand scheme's prefix caches."""
    if case == "common-demand":
        cfg = SystemConfig(
            K=2, D=2, F=4, deltas=[0.8, 0.2], rates=[0.3, 0.15], memories=[0.1, 0.0], n=400,
            demand_set=DemandSet(kind="common"),
        )
        plan, demands = plan_scheme(cfg, case, backoff=0.9), [(1, 1), (2, 2)]
    else:
        cfg, plan = _k5_t2(float(case.rsplit("-", 1)[1]))
        demands = [(1, 1, 1, 1, 1), (1, 2, 1, 2, 2), (2, 1, 1, 2, 1)]
    assert _check_pass_against_run(cfg, plan, demands, [[1, 0, j] for j in range(4)]) >= 16


# -- level-major decoding -------------------------------------------------------


def _decoding(cfg, plan, demands, seeds, phase_major: bool, doom: bool):
    """Decode every (demand, seed) run in one block, run (di, seed) seeded by
    seed + [di]; returns every reception
    handed to the decoder, keyed by (run, receiver, phase) with its known
    blocks, their values and its packet indices, and each run's flags.  A run
    is named by its phase's codec stream key.  ``phase_major`` puts each phase
    at a level of its own; with ``doom`` off every receiver decodes every
    phase, so phase q's receptions are those of receivers q..K in order."""
    from cachebc import codec

    seen = {}
    decode = codec.decode_batch

    def recording(groups):
        for _, q, stream, receptions in groups:
            for k, rec in enumerate(receptions, start=q):
                key = (tuple(stream.key), k, q)
                assert key not in seen
                seen[key] = (rec.known.tobytes(), rec.values.tobytes(), rec.indices.tobytes())
        return decode(groups)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codec, "decode_batch", recording)
        if not doom:
            mp.setattr(simulate, "_doomed", lambda *a: False)
        if phase_major:
            mp.setattr(simulate, "_levels", lambda phases, size: tuple(
                (q,) for q, phase in enumerate(phases, start=1) if len(phase.gather)))
        delivery, compiled = simulate._experiment(cfg, plan, demands)
        runs = [(compiled[d], d, seed + [di]) for di, d in enumerate(demands) for seed in seeds]
        flags = delivery.run(runs)
    return seen, flags


def _check_levels_against_phase_major(cfg, plan, demands, seeds) -> int:
    """With the doom check off, level-major decoding hands the decoder every
    reception phase-major decoding does and gives the same flags; with it
    on, which phases a doomed receiver skips may differ, and the flags stay
    the same.  Returns the number of receptions compared."""
    seen, flags = _decoding(cfg, plan, demands, seeds, phase_major=False, doom=False)
    assert (seen, flags) == _decoding(cfg, plan, demands, seeds, phase_major=True, doom=False)
    for phase_major in (False, True):
        assert _decoding(cfg, plan, demands, seeds, phase_major, doom=True)[1] == flags
    return len(seen)


@settings(max_examples=25, deadline=None)
@given(case=_general_configs(), seed=st.integers(0, 2**32 - 1))
def test_level_major_decoding_equals_phase_major_on_random_general_configs(case, seed):
    """On random K <= 5 general configs with small n, decoding by dependency
    level gives every reception and flag that decoding phase after phase
    gives."""
    from hypothesis import assume

    from cachebc import OutOfRegimeError
    from cachebc.placement import CapacityError

    cfg, backoff, demands = case
    try:
        plan = plan_scheme(cfg, "general", backoff=backoff)
    except (ConfigError, OutOfRegimeError, CapacityError):
        assume(False)
    _check_levels_against_phase_major(cfg, plan, demands, [[seed, 0], [seed, 1]])


@pytest.mark.parametrize(
    "case", ["criterion-5-0.9", "criterion-5-1.1", "criterion-6-0.9", "criterion-6-1.05",
             "k4-0.85", "k5-t2-0.9"],
)
def test_level_major_decoding_equals_phase_major_on_fixed_cases(case):
    """The criterion-5 and criterion-6 configs below and above capacity, the
    K=4 general config, and the K=5, t=2 config whose later phases overlap
    earlier ones in part."""
    from itertools import product

    backoff = float(case.rsplit("-", 1)[1])
    if case.startswith("criterion-5"):
        cfg = cfg_joint(n=4000, F=16, D=4)
        plan, demands = plan_scheme(cfg, "joint-2rx", backoff=backoff), [(1, 2), (3, 3), (4, 1)]
    elif case.startswith("criterion-6"):
        cfg = SystemConfig(
            K=2, D=2, F=16, deltas=[0.8, 0.2], rates=[4.8, 2.4], memories=[1.6, 0.0], n=4000,
            demand_set=DemandSet(kind="common"),
        )
        plan, demands = plan_scheme(cfg, "common-demand", backoff=backoff), [(1, 1), (2, 2)]
    elif case.startswith("k4"):
        cfg, _ = _k4_general()
        plan = plan_scheme(cfg, "general", backoff=backoff)
        demands = [(1, 2, 3, 4), (1, 1, 1, 2), (2, 2, 3, 3), (4, 3, 4, 1)]
    else:
        cfg, plan = _k5_t2(backoff)
        demands = list(product((1, 2), repeat=5))[::5]
    assert _check_levels_against_phase_major(cfg, plan, demands, [[3, 0, j] for j in range(2)]) >= 8


def test_one_elimination_per_criterion_5_call(monkeypatch):
    """Criterion 5's phase 2 overlaps no library bit of its phase 1, so both
    are decoded at level 0: one criterion-5 call, on the benchmark's recorded
    seed, eliminates all 44 systems of its 16 runs in one kernel call."""
    from cachebc import codec

    cfg = cfg_joint(n=4000, F=16, D=4)
    plan = plan_scheme(cfg, "joint-2rx", backoff=0.9)
    sizes, m4ri = [], codec._m4ri
    monkeypatch.setattr(codec, "_m4ri", lambda systems: sizes.append(len(systems)) or m4ri(systems))
    estimate_pe(cfg, "joint-2rx", plan, trials=1, seed=20250809 * 10_000)
    assert sizes == [44]
