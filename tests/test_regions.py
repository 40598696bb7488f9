"""Region computations against independent oracles.

Expected values marked as frozen were computed with the LP oracles defined
in this file (scipy linprog feasibility/optimization written directly from
the defining inequalities) before being asserted against the closed forms.
"""

import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import block_diag
from scipy.optimize import linprog

from cachebc import regions
from cachebc import (
    ConfigError,
    OutOfRegimeError,
    SystemConfig,
    best_phase_lp_rate,
    common_demand_contains,
    common_demand_contains_lp,
    common_demand_separate_contains,
    degraded_region_contains,
    general_conditions_feasible,
    general_max_symmetric_rate,
    max_min_slack_assignment,
    no_cache_time_sharing_rate,
    phase_lp_max_rate,
    two_rx_joint_rate,
    two_rx_separate_asym_rate,
    two_rx_symmetric_rate,
    unequal_cache_max_rate,
)

D1, D2, F, D = 0.8, 0.2, 1, 10


# -- independent LP oracles ---------------------------------------------------


def lp_max_symmetric(d1, d2, f, dd, M):
    """maximize R s.t. (R-M/D)/(f(1-d1)) + (R-2M/D)/(f(1-d2)) <= 1, R >= 2M/D."""
    a = 1.0 / (f * (1 - d1)) + 1.0 / (f * (1 - d2))
    b = 1.0 + (M / dd) / (f * (1 - d1)) + (2 * M / dd) / (f * (1 - d2))
    res = linprog([-1.0], A_ub=[[a]], b_ub=[b], bounds=[(2 * M / dd, None)], method="highs")
    return -res.fun if res.success else None


def lp_max_joint(d1, d2, f, dd, M):
    """maximize R over (R, beta1) for the two-phase piggyback scheme."""
    c = 2 * M / dd
    A = [
        [1.0, -f * (1 - d1)],
        [1.0, -f * (1 - d2)],
        [1.0, f * (1 - d2)],
    ]
    b = [c, 0.0, f * (1 - d2) + c]
    res = linprog(
        [-1.0, 0.0], A_ub=A, b_ub=b, bounds=[(2 * M / dd, None), (0, 1)], method="highs"
    )
    return -res.fun if res.success else None


# -- the LP entry point --------------------------------------------------------


def test_linprog_entry_point_matches_scipy_highs(monkeypatch):
    """regions.linprog gives scipy linprog's status and, when solved, its x
    bit for bit: on max-rate phase LPs, on slack-assignment LPs (rate pinned,
    slack free), on phase LPs with the rate pinned and no slack, which have
    no solution when the rate is too high, and on the stacked unequal-cache
    LPs, whose inequality rows go in as the layers' blocks and whose
    time-sharing rows go in as one block per tuple."""
    rng = np.random.default_rng(53)
    statuses = []
    for _ in range(40):
        cfg = random_unequal_cfg(rng, int(rng.integers(2, 5)))
        K0 = int(rng.integers(1, cfg.K + 1))
        t = int(rng.integers(1, max(K0, 2)))
        M, rate = float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 1.0))
        A, b, A_eq, b_eq, nv, ix = regions._phase_lp_rows(cfg, K0, t)
        max_rate = regions._max_rate_bounds(cfg, K0, t, M, ix["ntail"])
        slack = [(rate, rate)] + max_rate[1:-1] + [(None, None)]
        pinned = [(rate, rate)] + max_rate[1:]
        for col, bounds in ((ix["R"], max_rate), (ix["S"], slack), (ix["R"], pinned)):
            c = np.zeros(nv)
            c[col] = -1.0
            ours = regions.linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
            ref = linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
            assert ours.status == ref.status
            if ref.status == 0:
                assert np.array_equal(ours.x, ref.x)
            statuses.append(ref.status)
    assert set(statuses) == {0, 2}

    stacked = []
    solve = regions.linprog
    monkeypatch.setattr(regions, "linprog", lambda c, **kw: stacked.append((c, kw)) or solve(c, **kw))
    for K in (2, 3, 4, 5, 5):
        unequal_cache_max_rate(random_unequal_cfg(rng, K))
    monkeypatch.undo()
    assert len(stacked) == 9  # the 24 tuples at K = 5 go into three LPs of up to 8
    for c, kw in stacked:
        ours = regions.linprog(c, **kw)
        blocks = {key: sparse.block_diag(kw[key]) for key in ("A_ub", "A_eq")}
        ref = linprog(c, **{**kw, **blocks}, method="highs")
        assert ours.status == ref.status == 0
        assert np.array_equal(ours.x, ref.x)


def test_linprog_rejects_malformed_models():
    c, A = np.zeros(2), np.eye(2)
    with pytest.raises(ValueError, match="costs must be finite"):
        regions.linprog(np.array([np.nan, 1.0]), A_ub=A, b_ub=np.ones(2))
    with pytest.raises(ValueError, match="HiGHS rejected"):
        regions.linprog(c, A_ub=A, b_ub=np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="do not agree"):
        regions.linprog(c, A_ub=A, b_ub=np.ones(3))
    with pytest.raises(ValueError, match="do not agree"):
        regions.linprog(c, A_ub=A, b_ub=np.ones(2), bounds=[(0, 1)])
    with pytest.raises(ValueError, match="3 columns for 2 variables"):
        regions.linprog(c, A_eq=[np.eye(2), np.ones((1, 1))], b_eq=np.ones(3))
    with pytest.raises(ValueError, match="2-D"):
        regions.linprog(c, A_ub=[[1.0, 0.0]], b_ub=np.ones(1))


class FreshSolverPerAttempt:
    """The reference in place of the thread's solver: each attempt's model
    goes to a new ``_Highs`` as a ``HighsLp`` built from passModel's
    arrays, with the options set so far."""

    def __init__(self):
        self.options = {"output_flag": False}

    def setOptionValue(self, name, value):
        self.options[name] = value

    def passModel(
        self, n, m, nnz, fmt, sense, offset, c, lb, ub, row_lb, row_ub, start, index, value,
        integrality,
    ):
        assert (nnz, offset, sense) == (len(value), 0.0, regions.highs.ObjSense.kMinimize)
        assert not np.asarray(integrality).any()
        lp = regions.highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = m
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lb, ub
        lp.row_lower_, lp.row_upper_ = row_lb, row_ub
        lp.a_matrix_.format_ = fmt
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = start, index, value
        self.solver = regions.highs._Highs()
        for name, setting in self.options.items():
            self.solver.setOptionValue(name, setting)
        return self.solver.passModel(lp)

    def __getattr__(self, name):
        return getattr(self.solver, name)


def _planning_lp(kind, seed):
    """One LP as the planning code poses it, made from ``seed``: a phase LP
    at its largest rate, a slack fit (rate pinned, slack free), a phase LP
    with the rate pinned and no slack (infeasible when the rate is too
    high), one of the stacked unequal-cache LPs, an LP that presolve calls
    infeasible and the simplex solves, or one with a NaN bound."""
    rng = np.random.default_rng(seed)
    if kind == "nan":
        return np.zeros(2), {"A_ub": np.eye(2), "b_ub": np.array([np.nan, 1.0])}
    if kind == "unequal":
        stacked, solve = [], regions.linprog
        capture = lambda c, **kw: stacked.append((c, kw)) or solve(c, **kw)  # noqa: E731
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regions, "linprog", capture)
            unequal_cache_max_rate(random_unequal_cfg(rng, int(rng.integers(2, 6))))
        return stacked[int(rng.integers(len(stacked)))]
    if kind == "presolve-infeasible":
        M = float(rng.uniform(5.1e-8, 1e-7))
        cfg = SystemConfig(K=2, D=1, F=1, deltas=(1.0, 0.0), rates=[1.0], memories=(1.0, M))
        K0, t, rate = 2, 1, 0.0
    else:
        cfg = random_unequal_cfg(rng, int(rng.integers(2, 5)))
        K0 = int(rng.integers(1, cfg.K + 1))
        t = int(rng.integers(1, max(K0, 2)))
        M, rate = float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 1.0))
    A, b, A_eq, b_eq, nv, ix = regions._phase_lp_rows(cfg, K0, t)
    max_rate = regions._max_rate_bounds(cfg, K0, t, M, ix["ntail"])
    col, bounds = {
        "phase": (ix["R"], max_rate),
        "presolve-infeasible": (ix["R"], max_rate),
        "slack": (ix["S"], [(rate, rate)] + max_rate[1:-1] + [(None, None)]),
        "pinned": (ix["R"], [(rate, rate)] + max_rate[1:]),
    }[kind]
    c = np.zeros(nv)
    c[col] = -1.0
    return c, {"A_ub": A, "b_ub": b, "A_eq": A_eq, "b_eq": b_eq, "bounds": bounds}


def _solve_in_order(lps):
    """Each LP's status, message, x bytes and objective bits, or the
    message of the ValueError it raised."""
    out = []
    for c, kw in lps:
        try:
            res = regions.linprog(c, **kw)
        except ValueError as exc:
            out.append(str(exc))
        else:
            x = None if res.x is None else res.x.tobytes()
            out.append((res.status, res.message, x, None if res.fun is None else res.fun.hex()))
    return out


@settings(max_examples=30, deadline=None)
@given(
    sequence=st.lists(
        st.tuples(
            st.sampled_from(["phase", "slack", "pinned", "unequal", "presolve-infeasible"]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=2,
        max_size=10,
    ),
    nan_at=st.integers(0, 10),
)
def test_reused_solver_gives_a_fresh_solvers_bits(sequence, nan_at):
    """linprog keeps one HiGHS solver per thread and hands it each model as
    arrays.  In any order of planning LPs, with an LP HiGHS rejects partway
    through, it gives the status, x bytes and objective of a fresh solver
    per attempt fed a HighsLp; so does a second thread, on its own solver."""
    lps = [_planning_lp(kind, seed) for kind, seed in sequence]
    lps.insert(min(nan_at, len(lps)), _planning_lp("nan", 0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "_solver", FreshSolverPerAttempt)
        want = _solve_in_order(lps)
    assert "HiGHS rejected the LP" in want
    assert _solve_in_order(lps) == want

    got, solvers = {}, {}

    def second_thread():
        solvers["thread"] = regions._solver()
        got["thread"] = _solve_in_order(lps[::-1])

    thread = threading.Thread(target=second_thread)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert got["thread"] == want[::-1]
    assert solvers["thread"] is not regions._solver()
    assert regions._solver() is regions._solver()


def test_threads_solving_at_once_keep_their_own_solvers():
    """Four threads on two cores solve the same LPs at once, switching every
    microsecond; each gets the serial bits, which a solver shared across
    threads loses when one thread passes its model between another's
    passModel and run."""
    kinds = ["phase", "slack", "pinned", "unequal", "presolve-infeasible"]
    lps = [_planning_lp(kinds[i % 5], i) for i in range(20)]
    want = _solve_in_order(lps)
    got = {}

    def solve(k):
        got[k] = _solve_in_order(lps)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {k: want for k in range(4)}


# -- two-receiver tradeoffs ---------------------------------------------------


def test_symmetric_frozen_values():
    assert two_rx_symmetric_rate(D1, D2, F, D, 1.0) == pytest.approx(0.28, abs=1e-12)
    assert two_rx_symmetric_rate(D1, D2, F, D, 0.0) == pytest.approx(0.16, abs=1e-12)


def test_symmetric_matches_lp_oracle():
    for M in np.linspace(0.0, 2.0, 21):
        assert two_rx_symmetric_rate(D1, D2, F, D, M) == pytest.approx(
            lp_max_symmetric(D1, D2, F, D, M), abs=1e-8
        )


def test_separate_frozen_values():
    assert two_rx_separate_asym_rate(D1, D2, F, D, 1.0) == pytest.approx(0.32, abs=1e-12)
    assert two_rx_separate_asym_rate(D1, D2, F, D, 0.0) == pytest.approx(0.16, abs=1e-12)


def test_separate_vs_symmetric_slopes_depend_on_channel():
    # with equal channels the symmetric placement wins for M > 0
    r_sym0 = two_rx_symmetric_rate(0.5, 0.5, F, D, 0.0)
    r_sep0 = two_rx_separate_asym_rate(0.5, 0.5, F, D, 0.0)
    assert r_sym0 == pytest.approx(r_sep0, abs=1e-12)
    slope_sym = two_rx_symmetric_rate(0.5, 0.5, F, D, 1.0) - r_sym0
    slope_sep = two_rx_separate_asym_rate(0.5, 0.5, F, D, 1.0) - r_sep0
    assert slope_sym == pytest.approx(3 / (2 * D), abs=1e-12)
    assert slope_sym > slope_sep


def test_joint_frozen_values_and_breakpoint():
    R, beta = two_rx_joint_rate(D1, D2, F, D, 1.0)
    assert (R, beta) == (pytest.approx(0.36, abs=1e-12), pytest.approx(0.8, abs=1e-12))
    R3, _ = two_rx_joint_rate(D1, D2, F, D, 3.0)
    assert R3 == pytest.approx(0.70, abs=1e-12)
    Rb, _ = two_rx_joint_rate(D1, D2, F, D, 2.4)
    assert Rb == pytest.approx(0.64, abs=1e-12)
    assert 2.4 / Rb == pytest.approx(3 * D / 8, abs=1e-9)  # both branches meet here


def test_joint_matches_lp_oracle():
    for M in np.linspace(0.0, 3.9, 27):
        R, _ = two_rx_joint_rate(D1, D2, F, D, M)
        assert R == pytest.approx(lp_max_joint(D1, D2, F, D, M), abs=1e-8)


def test_all_schemes_coincide_at_zero_memory():
    for d1, d2 in [(0.8, 0.2), (0.6, 0.5), (0.9, 0.0)]:
        expect = F * (1 - d1) * (1 - d2) / ((1 - d1) + (1 - d2))
        assert two_rx_symmetric_rate(d1, d2, F, D, 0) == pytest.approx(expect, abs=1e-12)
        assert two_rx_separate_asym_rate(d1, d2, F, D, 0) == pytest.approx(expect, abs=1e-12)
        assert two_rx_joint_rate(d1, d2, F, D, 0)[0] == pytest.approx(expect, abs=1e-12)


def test_scheme_ordering_same_total_cache():
    """joint >= separate >= symmetric for the weak/strong pair, strictly for
    some M > 0 (slopes 2 > 8/5 > 6/5 per unit M/D)."""
    strict = False
    for M in np.linspace(0.0, 2.0, 21):
        r_sym = two_rx_symmetric_rate(D1, D2, F, D, M)
        r_sep = two_rx_separate_asym_rate(D1, D2, F, D, M)
        r_joint, _ = two_rx_joint_rate(D1, D2, F, D, M)
        assert r_joint >= r_sep - 1e-12
        assert r_sep >= r_sym - 1e-12
        if r_joint > r_sep + 1e-9 and r_sep > r_sym + 1e-9:
            strict = True
    assert strict


def test_monotone_in_memory_and_channel():
    prev = -1.0
    for M in np.linspace(0, 1.9, 20):
        r = two_rx_symmetric_rate(D1, D2, F, D, M)
        assert r >= prev - 1e-12
        prev = r
    for op in (two_rx_symmetric_rate, two_rx_separate_asym_rate):
        assert op(0.7, 0.2, F, D, 1.0) >= op(0.8, 0.2, F, D, 1.0) - 1e-12
        assert op(0.8, 0.1, F, D, 1.0) >= op(0.8, 0.2, F, D, 1.0) - 1e-12


def test_out_of_regime_raises():
    # for deltas (0.8, 0.2): symmetric valid while M <= D F (1-d1) = 2
    two_rx_symmetric_rate(D1, D2, F, D, 2.0)
    with pytest.raises(OutOfRegimeError):
        two_rx_symmetric_rate(D1, D2, F, D, 2.01)
    two_rx_separate_asym_rate(D1, D2, F, D, 4.0)
    with pytest.raises(OutOfRegimeError):
        two_rx_separate_asym_rate(D1, D2, F, D, 4.01)
    two_rx_joint_rate(D1, D2, F, D, 4.0)
    with pytest.raises(OutOfRegimeError):
        two_rx_joint_rate(D1, D2, F, D, 4.01)


def test_two_rx_precondition_errors():
    with pytest.raises(ConfigError):
        two_rx_symmetric_rate(0.2, 0.8, F, D, 0.0)
    with pytest.raises(ConfigError):
        two_rx_symmetric_rate(1.0, 0.2, F, D, 0.0)
    for M in (math.nan, math.inf, -1.0):
        with pytest.raises(ConfigError, match="M must be finite"):
            two_rx_joint_rate(D1, D2, F, D, M)


# -- degraded message sets ----------------------------------------------------


def test_degraded_region_examples(cfg_2rx):
    assert degraded_region_contains(cfg_2rx, [0.1, 0.4])  # sum exactly 1
    assert not degraded_region_contains(cfg_2rx, [0.12, 0.4])  # sum 1.1
    assert degraded_region_contains(cfg_2rx, [0.0, 0.0])


def test_degraded_degenerate_channel():
    cfg = SystemConfig(K=2, D=1, F=1, deltas=[1.0, 0.2], rates=[0.1], memories=[0, 0])
    assert not degraded_region_contains(cfg, [0.1, 0.0])
    assert degraded_region_contains(cfg, [0.0, 0.5])


def test_degraded_downward_closed(cfg_2rx):
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = rng.uniform(0, 0.5, size=2)
        if degraded_region_contains(cfg_2rx, r):
            assert degraded_region_contains(cfg_2rx, r * rng.uniform(0, 1))


# -- published K-receiver conditions -----------------------------------------


def test_conditions_hand_example(cfg_3rx):
    C = np.array([[0.3], [0.4]])
    assert general_conditions_feasible(cfg_3rx, 2, 1, 0.4, 0.3, C)
    assert not general_conditions_feasible(cfg_3rx, 2, 1, 0.45, 0.3, C)


def test_conditions_zero_memory_reduction(cfg_3rx):
    # M = 0, C = 0 reduces to R <= F(1-delta_1) and the uncached rows
    assert general_conditions_feasible(cfg_3rx, 2, 1, 0.2, 0.0)
    assert not general_conditions_feasible(cfg_3rx, 2, 1, 0.21, 0.0)


def test_conditions_domain_errors(cfg_3rx):
    with pytest.raises(ConfigError):
        general_conditions_feasible(cfg_3rx, 2, 2, 0.1, 0.1)
    with pytest.raises(ConfigError):
        general_conditions_feasible(cfg_3rx, 2, 0, 0.1, 0.1)
    for M in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="M must be finite"):
            general_conditions_feasible(cfg_3rx, 2, 1, 0.1, M)
        with pytest.raises(ConfigError, match="M must be finite"):
            general_max_symmetric_rate(cfg_3rx, 2, M)
        with pytest.raises(ConfigError, match="M must be finite"):
            phase_lp_max_rate(cfg_3rx, 2, M, 1)


def test_general_max_rate_hand_instance(cfg_3rx):
    res = general_max_symmetric_rate(cfg_3rx, 2, 0.3)
    assert res.rate == pytest.approx(0.4, abs=1e-9)
    assert res.t == 1
    # lexicographically smallest optimal piggyback is all-zero here
    assert np.allclose(res.piggyback, 0.0, atol=1e-9)


def test_general_max_rate_deterministic(cfg_3rx):
    a = general_max_symmetric_rate(cfg_3rx, 2, 0.17)
    b = general_max_symmetric_rate(cfg_3rx, 2, 0.17)
    assert a == b


def test_conditions_hold_exactly_at_published_optimum(cfg_3rx):
    rng = np.random.default_rng(43)
    cases = [(cfg_3rx, 2, 0.3), (cfg_3rx, 3, 0.1)]
    for K in (3, 4, 4):
        cfg = random_unequal_cfg(rng, K)
        cases.append((cfg, int(rng.integers(2, K + 1)), float(rng.uniform(0, 0.5))))
    for cfg, K0, M in cases:
        res = general_max_symmetric_rate(cfg, K0, M)
        C = res.piggyback
        assert general_conditions_feasible(cfg, K0, res.t, res.rate, M, C)
        assert not general_conditions_feasible(cfg, K0, res.t, res.rate + 1e-6, M, C)


@st.composite
def all_caching_cases(draw):
    """K = 2..5 receivers that all cache M (K0 = K); sometimes the weakest
    receiver's channel is always erased."""
    K = draw(st.integers(2, 5))
    deltas = sorted(draw(st.lists(st.floats(0.0, 0.95), min_size=K, max_size=K)), reverse=True)
    if draw(st.booleans()):
        deltas[0] = 1.0
    D = draw(st.integers(1, 4))
    M = draw(st.floats(0.0, 2.0)) * D
    cfg = SystemConfig(
        K=K, D=D, F=draw(st.integers(1, 16)), deltas=deltas, rates=[1.0] * D, memories=[M] * K
    )
    return cfg, M


@settings(max_examples=80, deadline=None)
@given(case=all_caching_cases())
def test_published_closed_form_matches_lp_over_printed_rows(case):
    """With every receiver caching, the published rate is read off the rows in
    closed form; scipy's LP over the same rows, maximized over t with the
    smallest t on ties, gives the same rate and t."""
    cfg, M = case
    best = None
    for t in range(1, cfg.K):
        A, b, nv, _ = regions._printed_conditions_lp(cfg, cfg.K, t, M)
        c = np.zeros(nv)
        c[0] = -1.0
        res = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * nv, method="highs")
        assert res.success
        if best is None or -res.fun > best[0] + 1e-12:
            best = (-res.fun, t)
    got = general_max_symmetric_rate(cfg, cfg.K, M)
    assert got.rate == pytest.approx(best[0], abs=1e-12)
    assert got.t == best[1]


def test_printed_conditions_never_below_phase_lp(cfg_3rx):
    """Setting every phase fraction to 1 relaxes the per-phase system, so the
    published bound dominates the explicit-fraction oracle everywhere."""
    for m_over_d in [0.0, 0.05, 0.1, 0.15]:
        M = m_over_d * cfg_3rx.D
        printed = general_max_symmetric_rate(cfg_3rx, 2, M).rate
        lp = phase_lp_max_rate(cfg_3rx, 2, M, 1).rate
        assert printed >= lp - 1e-9
        assert general_conditions_feasible(cfg_3rx, 2, 1, lp, M)


# -- per-phase LP oracle ------------------------------------------------------


def test_phase_lp_zero_memory_is_time_sharing(cfg_3rx):
    res = phase_lp_max_rate(cfg_3rx, 2, 0.0, 1)
    assert res.rate == pytest.approx(no_cache_time_sharing_rate(cfg_3rx), abs=1e-9)


def test_phase_lp_equals_two_rx_closed_forms(cfg_2rx):
    for M in np.linspace(0.0, 2.0, 9):
        lp = phase_lp_max_rate(cfg_2rx, 2, M, 1)
        assert lp.rate == pytest.approx(
            two_rx_symmetric_rate(D1, D2, F, D, M), abs=1e-8
        )
    for M in [0.5, 1.0, 2.4, 3.0]:
        lp = phase_lp_max_rate(cfg_2rx, 1, 2 * M, 1)
        assert lp.rate == pytest.approx(two_rx_joint_rate(D1, D2, F, D, M)[0], abs=1e-8)


def test_phase_lp_audit_instance_diverges_from_printed(cfg_3rx):
    lp = phase_lp_max_rate(cfg_3rx, 2, 0.3, 1)
    printed = general_max_symmetric_rate(cfg_3rx, 2, 0.3)
    assert lp.rate == pytest.approx(0.25, abs=1e-9)  # frozen from the LP oracle
    assert printed.rate - lp.rate > 0.1  # divergence is real and reported


def test_phase_lp_monotone_and_saturating(cfg_2rx):
    prev = -1.0
    for M in [0.0, 0.5, 1.0, 2.0, 3.0, 5.0]:
        r = phase_lp_max_rate(cfg_2rx, 2, M, 1).rate
        assert r >= prev - 1e-9
        prev = r
    # beyond the regime the cache is deliberately underfilled
    res = phase_lp_max_rate(cfg_2rx, 2, 5.0, 1)
    assert res.rate == pytest.approx(0.4, abs=1e-8)
    assert res.cached_rate_per_fragment < 5.0 / cfg_2rx.D


@st.composite
def phase_lp_cases(draw, max_K=4):
    """K = 2..max_K receivers with nonincreasing memories; sometimes the
    weakest receiver's channel is always erased."""
    K = draw(st.integers(2, max_K))
    deltas = sorted(draw(st.lists(st.floats(0.0, 0.95), min_size=K, max_size=K)), reverse=True)
    if draw(st.integers(0, 9)) == 0:
        deltas[0] = 1.0
    D = draw(st.integers(1, 4))
    memories = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=K, max_size=K)), reverse=True)
    return SystemConfig(
        K=K, D=D, F=draw(st.integers(1, 4)), deltas=deltas, rates=[1.0] * D,
        memories=[m * D for m in memories],
    )


@settings(max_examples=60, deadline=None)
@given(cfg=phase_lp_cases(), data=st.data())
def test_phase_lp_rate_nondecreasing_in_memory(cfg, data):
    """A larger cache only loosens the cap on the cached rate per fragment."""
    K0 = data.draw(st.integers(1, cfg.K))
    t = data.draw(st.integers(1, max(K0 - 1, 1)))
    M1, M2 = sorted(data.draw(st.lists(st.floats(0.0, 8.0), min_size=2, max_size=2)))
    assert phase_lp_max_rate(cfg, K0, M2, t).rate >= phase_lp_max_rate(cfg, K0, M1, t).rate - 1e-7
    assert best_phase_lp_rate(cfg, K0, M2).rate >= best_phase_lp_rate(cfg, K0, M1).rate - 1e-7


@settings(max_examples=40, deadline=None)
@given(cfg=phase_lp_cases(max_K=5))
def test_unequal_rate_at_least_equal_cache_rate(cfg):
    """The time sharing includes the equal-cache scheme at the smallest
    memory M_K: every layer but the first gets no time."""
    equal = best_phase_lp_rate(cfg, cfg.K, cfg.memories[-1]).rate
    assert unequal_cache_max_rate(cfg) >= equal - 1e-7


def test_phase_lp_degenerate_channel():
    # a dead channel supports exactly rate zero (cache underfilled to match)
    cfg = SystemConfig(K=2, D=2, F=1, deltas=[1.0, 1.0], rates=[0.1] * 2, memories=[0, 0])
    assert phase_lp_max_rate(cfg, 2, 0.0, 1).rate == pytest.approx(0.0, abs=1e-9)
    assert phase_lp_max_rate(cfg, 2, 0.5, 1).rate == pytest.approx(0.0, abs=1e-9)


def test_max_min_slack_fixed_rate(cfg_2rx):
    opt = phase_lp_max_rate(cfg_2rx, 1, 2.0, 1)
    fit = max_min_slack_assignment(cfg_2rx, 1, 2.0, 1, 0.9 * opt.rate)
    assert fit.slack > 0
    over = max_min_slack_assignment(cfg_2rx, 1, 2.0, 1, 1.1 * opt.rate)
    assert over.slack < 0
    fit0 = max_min_slack_assignment(cfg_2rx, 1, 2.0, 1, 0.2, force_zero_piggyback=True)
    assert np.allclose(fit0.piggyback, 0.0)


# -- unequal cache sizes ------------------------------------------------------


def test_unequal_matches_joint_two_rx(cfg_2rx):
    R = unequal_cache_max_rate(cfg_2rx, [2.0, 0.0])
    assert R == pytest.approx(two_rx_joint_rate(D1, D2, F, D, 1.0)[0], abs=1e-6)


def test_unequal_empty_and_equal_caches(cfg_2rx):
    assert unequal_cache_max_rate(cfg_2rx, [0.0, 0.0]) == pytest.approx(0.16, abs=1e-9)
    equal = phase_lp_max_rate(cfg_2rx, 2, 2.0, 1).rate
    assert unequal_cache_max_rate(cfg_2rx, [2.0, 2.0]) >= equal - 1e-9


def test_unequal_ordering_error(cfg_2rx):
    with pytest.raises(ConfigError, match="nonincreasing"):
        unequal_cache_max_rate(cfg_2rx, [0.0, 2.0])
    for bad in ([math.nan, 0.0], [1.0, -0.5]):
        with pytest.raises(ConfigError, match="finite and >= 0"):
            unequal_cache_max_rate(cfg_2rx, bad)


def random_unequal_cfg(rng, K):
    deltas = sorted(rng.uniform(0.1, 0.9, K), reverse=True)
    memories = sorted(rng.uniform(0.0, 0.6 * K, K), reverse=True)
    return SystemConfig(K=K, D=K, F=1, deltas=deltas, rates=[1.0] * K, memories=memories)


def time_shared_rate(cfg, beta):
    """Layer i (K0 = K+1-i) runs for a share beta_i with memory dm_i / beta_i,
    scored by the per-phase LP at its best t; a layer without time adds 0."""
    K = cfg.K
    mems = list(cfg.memories) + [0.0]
    total = 0.0
    for i in range(1, K + 1):
        if beta[i - 1] > 1e-12:
            dm = mems[K - i] - mems[K - i + 1]
            total += beta[i - 1] * best_phase_lp_rate(cfg, K + 1 - i, dm / beta[i - 1]).rate
    return total


def best_two_layer_split(cfg):
    """Maximum over beta_1 of the concave K=2 time-sharing rate: a dense grid,
    then golden section inside the bracket of the best grid point."""
    g = lambda b1: time_shared_rate(cfg, (b1, 1.0 - b1))
    xs = np.linspace(0.0, 1.0, 201)
    vals = [g(x) for x in xs]
    j = int(np.argmax(vals))
    lo, hi = xs[max(0, j - 1)], xs[min(len(xs) - 1, j + 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        if g(x1) < g(x2):
            lo = x1
        else:
            hi = x2
    return max(max(vals), g((lo + hi) / 2.0))


def best_simplex_grid_split(cfg, steps=6):
    """Best time-sharing rate over the simplex grid with the given step count."""
    K = cfg.K
    best = -math.inf
    for comp in itertools.product(range(steps + 1), repeat=K - 1):
        if sum(comp) <= steps:
            beta = [c / steps for c in comp] + [(steps - sum(comp)) / steps]
            best = max(best, time_shared_rate(cfg, beta))
    return best


def test_unequal_two_rx_equals_split_search(cfg_2rx):
    rng = np.random.default_rng(31)
    cfgs = [replace(cfg_2rx, memories=(2.0, 0.5))] + [random_unequal_cfg(rng, 2) for _ in range(2)]
    for cfg in cfgs:
        assert unequal_cache_max_rate(cfg) == pytest.approx(best_two_layer_split(cfg), abs=1e-7)


def test_unequal_at_least_simplex_grid():
    rng = np.random.default_rng(37)
    for K in (3, 3, 4, 4):
        cfg = random_unequal_cfg(rng, K)
        assert unequal_cache_max_rate(cfg) >= best_simplex_grid_split(cfg) - 1e-7


def test_unequal_at_least_equal_cache_scheme():
    """Giving every layer but the first no time is the equal-cache scheme
    at the smallest memory M_K."""
    rng = np.random.default_rng(41)
    for _ in range(12):
        cfg = random_unequal_cfg(rng, int(rng.integers(2, 5)))
        equal = best_phase_lp_rate(cfg, cfg.K, cfg.memories[-1]).rate
        assert unequal_cache_max_rate(cfg) >= equal - 1e-9


def test_unequal_four_rx_frozen_optimum():
    """A split search (simplex grid plus Nelder-Mead) stops at 0.4069272633
    here; the exact optimum was frozen from the time-sharing LP."""
    cfg = SystemConfig(
        K=4,
        D=4,
        F=1,
        deltas=(0.7649458913994789, 0.5901522612486355, 0.576562372005008, 0.5029473966039238),
        rates=[1.0] * 4,
        memories=(2.1529973753040754, 1.4662501324352197, 0.9783268046088177, 0.5950056742117589),
    )
    assert unequal_cache_max_rate(cfg) == pytest.approx(0.4074771076, abs=1e-7)


def best_tuple_lp_rate(cfg):
    """One scipy LP per tuple of per-layer subset sizes (memory-less layers
    included), each over the per-phase rows of its layers; the best rate."""
    K = cfg.K
    mems = list(cfg.memories) + [0.0]
    layers = [(K + 1 - i, mems[K - i] - mems[K - i + 1]) for i in range(1, K + 1)]
    best = -math.inf
    for ts in itertools.product(*(range(1, max(K0, 2)) for K0, _ in layers)):
        blocks = [regions._phase_lp_rows(cfg, K0, t) for (K0, _), t in zip(layers, ts)]
        c, bounds = [], []
        for (K0, dm), t, (_, _, _, _, nv, ix) in zip(layers, ts, blocks):
            c += [-1.0 if j == ix["R"] else 0.0 for j in range(nv)]
            bounds += regions._max_rate_bounds(cfg, K0, t, dm, ix["ntail"])
        res = linprog(
            c,
            A_ub=block_diag(*(blk[0] for blk in blocks)),
            b_ub=np.concatenate([blk[1] for blk in blocks]),
            A_eq=np.hstack([blk[2] for blk in blocks]),
            b_eq=[1.0],
            bounds=bounds,
            method="highs",
        )
        assert res.success
        best = max(best, -res.fun)
    return best


def test_unequal_stacked_lp_equals_best_tuple_lp():
    rng = np.random.default_rng(59)
    cfgs = [random_unequal_cfg(rng, K) for K in (2, 2, 3, 3, 3, 4, 4, 4)]
    cfgs.append(replace(cfgs[-1], memories=(cfgs[-1].memories[0],) * 4))
    for cfg in cfgs:
        assert unequal_cache_max_rate(cfg) == pytest.approx(best_tuple_lp_rate(cfg), abs=1e-12)


def test_unequal_six_receivers_solve_in_small_sparse_lps():
    """Distinct memories at K = 6 make 5! = 120 tuples of subset sizes.  One
    dense block-diagonal LP over them would take about 1.5 GB, a dense LP of
    8 tuples about 7 MB; the sparse LPs of 8 tuples peak near 1 MB."""
    cfg = random_unequal_cfg(np.random.default_rng(61), 6)
    assert len(set(cfg.memories)) == 6
    tracemalloc.start()
    try:
        rate = unequal_cache_max_rate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert rate == pytest.approx(best_tuple_lp_rate(cfg), abs=1e-12)


def test_unequal_solver_failure_is_out_of_regime(monkeypatch):
    """Every tuple's LP has the solution R = r_c = 0, beta_1 = 1, and its rate
    is bounded, so the stacked LP fails only if HiGHS does."""
    monkeypatch.setattr(
        regions, "linprog", lambda c, **kw: regions.LPResult(4, False, "forced", None, None)
    )
    cfg = SystemConfig(
        K=3, D=3, F=1, deltas=(0.8, 0.5, 0.2), rates=[1.0] * 3, memories=(0.6, 0.3, 0.1)
    )
    with pytest.raises(OutOfRegimeError, match="time-sharing LP failed: forced"):
        unequal_cache_max_rate(cfg)


@pytest.mark.parametrize("M", [1e20, 1e300])
def test_phase_lps_saturate_when_the_cache_cap_reaches_highs_infinity(M):
    """HiGHS reads a cap of 1e20 or more on the cached rate per fragment as no
    cap.  That cannot change the optimum: r_c <= R / tau, and the phase rows
    bound R, so the cache saturates long before the cap."""
    cfg = SystemConfig(
        K=3, D=1, F=1, deltas=(0.8, 0.5, 0.2), rates=[1.0], memories=(M, 0.3, 0.1)
    )
    for K0 in (1, 2, 3):
        got, saturated = (best_phase_lp_rate(cfg, K0, m).rate for m in (M, 10.0))
        assert got == pytest.approx(saturated, abs=1e-12)
    saturated = unequal_cache_max_rate(cfg, memories=(10.0, 0.3, 0.1))
    assert unequal_cache_max_rate(cfg) == pytest.approx(saturated, abs=1e-12)


def test_one_receiver_rejects_a_cache_at_highs_infinity():
    """One receiver's rate grows with its cache without end, so a cap on r_c
    that HiGHS reads as none left the LP unbounded, reported as infeasible."""
    cfg = SystemConfig(K=1, D=1, F=1, deltas=(0.5,), rates=[1.0], memories=(1e300,))
    assert best_phase_lp_rate(cfg, 1, 1e19).rate == pytest.approx(1e19, rel=1e-12)
    with pytest.raises(ConfigError, match="reaches 1e\\+20.*cache size M"):
        best_phase_lp_rate(cfg, 1, 1e300)
    with pytest.raises(ConfigError, match="reaches 1e\\+20.*cache size M"):
        unequal_cache_max_rate(cfg)


def test_zero_optimum_is_positive_zero():
    """A weakest receiver that is always erased, with no cache, forces every
    rate to 0; HiGHS returns that optimum as -0.0 and the results read 0.0."""
    cfg = SystemConfig(
        K=3, D=3, F=1, deltas=(1.0, 0.5, 0.2), rates=[1.0] * 3, memories=(0.0,) * 3
    )
    rates = [general_max_symmetric_rate(cfg, K0, 0.0).rate for K0 in (2, 3)]
    for K0 in (2, 3):
        res = best_phase_lp_rate(cfg, K0, 0.0)
        rates += [res.rate, res.cached_rate_per_fragment]
    rates.append(unequal_cache_max_rate(cfg))
    assert [math.copysign(1.0, r) * (r == 0.0) for r in rates] == [1.0] * 7


@pytest.mark.parametrize("M", [5.1e-8, 1e-7])
def test_erased_receiver_with_a_cache_near_highs_tolerance(M):
    """With the weakest receiver always erased and a cap on r_c near HiGHS's
    feasibility tolerance (1e-7), HiGHS's presolve called these LPs
    infeasible, though R = r_c = 0 solves each; the equal-cache rate is 0,
    and the unequal caches let the cached receiver read its whole library
    from cache while the others share the channel."""
    two = SystemConfig(K=2, D=1, F=1, deltas=(1.0, 0.0), rates=[1.0], memories=(1.0, M))
    three = replace(two, K=3, deltas=(1.0, 0.0, 0.0), memories=(1.0, M, 0.0))
    assert best_phase_lp_rate(two, 2, M).rate == pytest.approx(0.0, abs=1e-6)
    assert unequal_cache_max_rate(two) == pytest.approx(1.0, abs=1e-6)
    assert unequal_cache_max_rate(three) == pytest.approx(0.5, abs=1e-6)


def test_unequal_zero_memory_layers_solve_one_t(monkeypatch):
    """Equal memories leave layers K0 = 3, 2, 1 without memory, so only the
    K0 = 4 layer's three subset sizes make tuples, and all three go into one
    LP with one time-sharing equality row each; the rate was frozen when all
    six tuples were solved one by one."""
    calls = []
    solve = regions.linprog

    def counting(c, **kwargs):
        calls.append(kwargs)
        return solve(c, **kwargs)

    monkeypatch.setattr(regions, "linprog", counting)
    cfg = SystemConfig(
        K=4, D=4, F=1, deltas=(0.8, 0.6, 0.4, 0.2), rates=[1.0] * 4, memories=(1.0,) * 4
    )
    assert unequal_cache_max_rate(cfg) == pytest.approx(0.3893333333333333, abs=1e-12)
    assert len(calls) == 1
    assert len(calls[0]["A_eq"]) == 3


@pytest.mark.parametrize(
    "field,value",
    [
        ("rate", math.nan), ("rate", math.inf), ("rate", -0.1),
        ("M", math.nan), ("M", math.inf), ("M", -1.0),
        ("weights", math.nan), ("weights", math.inf), ("weights", 0.0), ("weights", -1.0),
    ],
)
def test_slack_assignment_rejects_bad_inputs(cfg_3rx, field, value):
    """A bad rate used to come back as an infeasible LP, a NaN weight as a
    solution whose slack is NaN."""
    args = {"K0": 2, "M": 0.3, "t": 1, "rate": 0.2}
    args[field] = {(1, 1): value, (2, 2): 1.0} if field == "weights" else value
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        max_min_slack_assignment(cfg_3rx, **args)


# -- common demand ------------------------------------------------------------


def cfg_common(rates, memories):
    return SystemConfig(
        K=len(memories),
        D=len(rates),
        F=1,
        deltas=[0.8, 0.2][: len(memories)],
        rates=rates,
        memories=memories,
    )


def test_common_demand_witness_example():
    cfg = cfg_common([1.0, 0.5], [1.1, 0.2])
    inside, witness = common_demand_contains(cfg)
    assert inside
    assert np.allclose(witness, [[0.8, 0.3], [0.2, 0.0]], atol=1e-12)
    inside2, w2 = common_demand_contains(cfg, memories=[1.0, 0.2])
    assert not inside2 and w2 is None


def test_common_demand_no_cache_needed():
    cfg = cfg_common([0.15, 0.1], [0.0, 0.0])
    assert common_demand_contains(cfg)[0]


def test_common_demand_closed_form_agrees_with_lp():
    rng = np.random.default_rng(11)
    for _ in range(150):
        K = int(rng.integers(1, 5))
        Dd = int(rng.integers(1, 6))
        deltas = np.sort(rng.uniform(0, 1, size=K))[::-1]
        cfg = SystemConfig(
            K=K,
            D=Dd,
            F=1,
            deltas=deltas,
            rates=rng.uniform(0, 1.2, size=Dd),
            memories=rng.uniform(0, 1.0, size=K),
        )
        assert common_demand_contains(cfg)[0] == common_demand_contains_lp(cfg)


@pytest.mark.parametrize(
    "contains",
    [common_demand_contains, common_demand_contains_lp, common_demand_separate_contains],
    ids=["greedy", "lp", "separate"],
)
@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"tol": math.nan}, "tol must"),
        ({"tol": math.inf}, "tol must"),
        ({"tol": -1.0}, "tol must"),
        ({"rates": [0.5]}, "rates must have D=2 entries"),
        ({"memories": [0.1, 0.1, 0.1]}, "memories K=2 entries"),
        ({"rates": [-0.1, 0.5]}, "finite and >= 0"),
        ({"rates": [math.nan, 0.5]}, "finite and >= 0"),
        ({"memories": [0.1, -0.1]}, "finite and >= 0"),
        ({"memories": [math.inf, 0.1]}, "finite and >= 0"),
    ],
)
def test_common_demand_tests_reject_bad_points(contains, kwargs, message):
    """All three membership tests check the point alike; the LP test took a
    NaN tol as False, an infinite one as True and negative rates as given."""
    cfg = cfg_common([1.0, 0.5], [1.1, 0.2])
    with pytest.raises(ConfigError, match=message):
        contains(cfg, **kwargs)


def test_joint_vs_separate_gain():
    cfg = cfg_common([0.5], [0.3, 0.3])
    assert common_demand_contains(cfg)[0]
    assert common_demand_separate_contains(cfg)
    cfg2 = cfg_common([0.5], [0.3, 0.0])
    assert common_demand_contains(cfg2)[0]
    assert not common_demand_separate_contains(cfg2)


def test_separate_region_inside_joint_region():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        K = int(rng.integers(1, 4))
        Dd = int(rng.integers(1, 4))
        deltas = np.sort(rng.uniform(0, 1, size=K))[::-1]
        cfg = SystemConfig(
            K=K,
            D=Dd,
            F=1,
            deltas=deltas,
            rates=rng.uniform(0, 1.2, size=Dd),
            memories=rng.uniform(0, 1.0, size=K),
        )
        if common_demand_separate_contains(cfg):
            assert common_demand_contains(cfg)[0]


def test_common_demand_downward_closed():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rates = rng.uniform(0, 1.2, size=2)
        mems = rng.uniform(0, 1.0, size=2)
        cfg = cfg_common(list(rates), list(mems))
        if common_demand_contains(cfg)[0]:
            smaller = rates * rng.uniform(0, 1)
            bigger = mems + rng.uniform(0, 1, size=2)
            assert common_demand_contains(cfg, smaller, bigger)[0]
