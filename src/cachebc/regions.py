"""Achievable-rate and capacity-region computations.

Closed forms for the two-receiver tradeoffs, the K-receiver feasibility
conditions of the subset-caching scheme (their best rate in closed form when
every receiver caches, an LP otherwise), a first-principles per-phase LP
oracle for the same scheme, the time sharing of that scheme across cache
layers for unequal cache sizes (an exact LP for each tuple of per-layer
subset sizes t, the tuples stacked block-diagonally a few per LP), and the
exact membership test for the single-common-demand region.

All LPs are small.  They go through one entry point, ``linprog``, which
builds HiGHS's column-wise model itself (the stacked unequal-cache LP from
its dense per-layer blocks, so that it stays sparse) and hands it, as
arrays, to one HiGHS solver per thread, kept for the thread's life through
scipy's bundled HiGHS bindings.  HiGHS solves in floating point at its
default feasibility tolerance (1e-7); the membership tests allow a slack
of TOL = 1e-9.

The bindings are the compiled module ``scipy.optimize._highspy._core``,
loaded from its file in scipy's package directory under that name: running
``scipy.optimize``'s package import would cost a cold process about 0.4 s
of modules (scipy.linalg, special, spatial, ...) that this module never
uses.  A process that imports ``scipy.optimize`` before or after shares
the one module object.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy

from .model import ConfigError, SystemConfig, check_k0_t, check_memory

__all__ = [
    "OutOfRegimeError",
    "DegenerateChannelError",
    "degraded_region_contains",
    "two_rx_symmetric_rate",
    "two_rx_separate_asym_rate",
    "two_rx_joint_rate",
    "general_conditions_feasible",
    "general_max_symmetric_rate",
    "GeneralConditionsResult",
    "phase_lp_max_rate",
    "PhaseLpResult",
    "max_min_slack_assignment",
    "unequal_cache_max_rate",
    "common_demand_contains",
    "common_demand_contains_lp",
    "common_demand_separate_contains",
    "no_cache_time_sharing_rate",
]

TOL = 1e-9
HIGHS_INF = 1e20  # HiGHS reads a bound or right-hand side this large as infinite
# unequal_cache_max_rate stacks this many tuples of subset sizes per LP: one
# LP for K <= 4, and HiGHS's time grows faster than the stack beyond a few
# (K = 7, 720 tuples: 3.2 s in chunks of 8, 5.5 s as one LP, 4.5 s one by one)
_TUPLES_PER_LP = 8


def _load_highs():
    """scipy's compiled HiGHS bindings, without ``scipy.optimize/__init__``:
    the module already imported under its full name if there is one, else
    its file in scipy's package directory, registered under that name (so a
    later ``import scipy.optimize`` reuses it rather than registering its
    pybind11 types a second time)."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    where = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    found = importlib.machinery.PathFinder.find_spec("_core", [where])
    if found is None:
        raise ImportError(f"no {name} in {where}", name=name)
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


highs = _load_highs()


class OutOfRegimeError(ValueError):
    """The requested point lies outside the regime where the scheme is defined."""


class DegenerateChannelError(ValueError):
    """A receiver with erasure probability 1 was asked to decode positive rate."""


# scipy's status codes for HiGHS's model status, as scipy's milp and linprog
# map them; any other status reads 4
_SCIPY_STATUS = {
    highs.HighsModelStatus.kOptimal: 0,
    highs.HighsModelStatus.kTimeLimit: 1,
    highs.HighsModelStatus.kIterationLimit: 1,
    highs.HighsModelStatus.kInfeasible: 2,
    highs.HighsModelStatus.kModelError: 2,
    highs.HighsModelStatus.kUnbounded: 3,
}


class LPResult(NamedTuple):
    """What ``linprog`` reports: scipy's ``status`` code, ``success``,
    HiGHS's model status string as ``message``, and ``x`` and ``fun``
    (None unless solved)."""

    status: int
    success: bool
    message: str
    x: np.ndarray | None
    fun: float | None


_thread = threading.local()


def _solver():
    """This thread's HiGHS solver, made on first use with its output off.
    ``passModel`` clears the previous model, its solution and its basis, so
    each LP is solved as by a fresh solver."""
    try:
        return _thread.solver
    except AttributeError:
        solver = _thread.solver = highs._Highs()
        solver.setOptionValue("output_flag", False)
        return solver


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """Minimize ``c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``
    and ``bounds``, one (low, high) pair per variable with None for no bound
    (default: every variable >= 0).  A matrix is a 2-D array or a list of 2-D
    blocks, read as the block-diagonal matrix they form.

    The module's one LP entry point.  It builds HiGHS's column-wise model
    itself, the inequality rows then the equality rows, and passes it as
    arrays to this thread's HiGHS solver (scipy's bundled bindings), with
    HiGHS's output off and its other options at their defaults: the model,
    and so the solution, that scipy's ``linprog`` and ``milp`` give, without
    their per-call input handling (or a fresh solver's: see ``_solver``).
    An LP found infeasible is solved again without presolve, which decides.
    Returns an LPResult: scipy's ``status`` code, ``success``, ``message``,
    and ``x`` and ``fun`` (None unless solved), the attributes of scipy's
    OptimizeResult that callers read.

    HiGHS reads a right-hand side or bound of HIGHS_INF or more as none.  That
    is harmless where the value never binds, as a cap on the cached rate
    beyond what the channel can carry.  Where the LP then fails (one receiver
    alone, whose rate grows with its cache without end, comes out unbounded),
    raises ConfigError rather than report a false verdict.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    parts, row_lb, row_ub = [], [np.empty(0)], [np.empty(0)]
    if A_ub is not None:
        parts.append(A_ub)
        row_lb.append(np.full(len(b_ub), -np.inf))
        row_ub.append(b_ub)
    if A_eq is not None:
        parts.append(A_eq)
        row_lb.append(b_eq)
        row_ub.append(b_eq)
    row_lb, row_ub = np.concatenate(row_lb), np.concatenate(row_ub)
    if bounds is None:
        lb, ub = np.zeros(n), np.full(n, np.inf)
    else:
        lb = np.array([-np.inf if lo is None else lo for lo, _ in bounds], dtype=float)
        ub = np.array([np.inf if hi is None else hi for _, hi in bounds], dtype=float)
    # the nonzeros row by row, then stably sorted by column: column-wise
    # storage with each column's rows in order, as scipy's sparse formats hold it
    rows, cols, vals, m = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)], 0
    for A in parts:
        col0 = 0
        for B in A if isinstance(A, list) else [A]:
            B = np.asarray(B, dtype=float)
            if B.ndim != 2:
                raise ValueError("an LP matrix or block must be 2-D")
            r, k = np.nonzero(B)
            rows.append(r + m)
            cols.append(k + col0)
            vals.append(B[r, k])
            m, col0 = m + B.shape[0], col0 + B.shape[1]
        if col0 != n:
            raise ValueError(f"an LP matrix has {col0} columns for {n} variables")
    if m != len(row_ub) or len(lb) != n or len(ub) != n:
        raise ValueError("the LP's right-hand sides or bounds do not agree with its matrices")
    # HiGHS rejects a NaN bound or right-hand side itself, but solves a NaN cost
    if not np.isfinite(c).all():
        raise ValueError("the LP's costs must be finite")
    cols = np.concatenate(cols)
    order = np.argsort(cols, kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n)))).astype(np.int32)
    index = np.concatenate(rows)[order].astype(np.int32)
    value = np.concatenate(vals)[order]
    solver = _solver()
    # HiGHS's presolve calls some feasible LPs infeasible (a receiver always
    # erased and a cap on r_c between about 5e-8 and 1e-7, its feasibility
    # tolerance), so the simplex without presolve confirms such a verdict
    for presolve in ("choose", "off"):
        solver.setOptionValue("presolve", presolve)
        # every variable continuous: HiGHS rejects an empty integrality array
        passed = solver.passModel(
            n, m, len(value), highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
            c, lb, ub, row_lb, row_ub, start, index, value, np.zeros(n, np.int32),
        )
        if passed == highs.HighsStatus.kError:
            raise ValueError("HiGHS rejected the LP")
        solver.run()
        model_status = solver.getModelStatus()
        if model_status != highs.HighsModelStatus.kInfeasible:
            break
    status = _SCIPY_STATUS.get(model_status, 4)
    res = LPResult(
        status=status,
        success=status == 0,
        message=solver.modelStatusToString(model_status),
        x=np.array(solver.getSolution().col_value) if status == 0 else None,
        fun=solver.getObjectiveValue() if status == 0 else None,
    )
    if not res.success:
        data = np.abs(np.concatenate([lb, ub, row_lb, row_ub]))
        if (data[np.isfinite(data)] >= HIGHS_INF).any():
            raise ConfigError(
                f"an LP bound or right-hand side reaches {HIGHS_INF:g}, which HiGHS reads "
                "as infinite, and the LP failed: the cache size M or a rate is too large"
            )
    return res


def _check_tol(tol: float) -> None:
    """A membership slack must be finite and >= 0: an infinite one admits
    every point, a NaN or negative one none."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be finite and >= 0, got {tol}")


# ---------------------------------------------------------------------------
# Degraded message sets
# ---------------------------------------------------------------------------


def degraded_region_contains(
    cfg: SystemConfig,
    rates_by_level,
    tol: float = TOL,
) -> bool:
    """Membership test for the degraded message-set capacity region.

    ``rates_by_level[k-1]`` is the rate that must be decodable by receivers
    k..K.  The tuple is inside the region iff
    ``sum_k r_k / (F (1 - delta_k)) <= 1``.  A receiver with erasure
    probability 1 cannot carry positive rate, so such a tuple yields False.
    """
    _check_tol(tol)
    r = [float(x) for x in rates_by_level]
    if len(r) != cfg.K:
        raise ConfigError(f"rates_by_level must have K={cfg.K} entries")
    if not all(math.isfinite(x) and x >= 0 for x in r):
        raise ConfigError(f"rates_by_level entries must be finite and >= 0, got {r}")
    total = 0.0
    for k in range(1, cfg.K + 1):
        rk = r[k - 1]
        dk = cfg.delta(k)
        if dk >= 1.0:
            if rk > tol:
                return False
            continue
        total += rk / (cfg.F * (1.0 - dk))
    return total <= 1.0 + tol


def no_cache_time_sharing_rate(cfg: SystemConfig) -> float:
    """Symmetric rate of plain time-sharing with empty caches:
    F / sum_k 1/(1-delta_k)."""
    if any(d >= 1.0 for d in cfg.deltas):
        return 0.0
    return cfg.F / sum(1.0 / (1.0 - d) for d in cfg.deltas)


# ---------------------------------------------------------------------------
# Two-receiver tradeoffs
# ---------------------------------------------------------------------------


def _check_two_rx(delta1, delta2, F, D, M):
    if not (0.0 <= delta2 <= delta1 < 1.0):
        raise ConfigError(f"need 0 <= delta2 <= delta1 < 1, got ({delta1}, {delta2})")
    if F < 1 or D < 1:
        raise ConfigError("F and D must be positive")
    check_memory(M)


def two_rx_symmetric_rate(delta1, delta2, F, D, M) -> float:
    """Largest symmetric rate with equal caches M at both receivers.

    Each message splits into two cached fragments of rate M/D (one per
    receiver) plus an uncached remainder; one XOR of the exchanged fragments
    is multicast.  The binding condition is

        (R - M/D) / (F(1-d1)) + (R - 2M/D) / (F(1-d2)) <= 1,

    valid while the cached fraction fits, i.e. M/R <= D/2.  Raises
    OutOfRegimeError when no rate in that regime satisfies the condition.
    """
    _check_two_rx(delta1, delta2, F, D, M)
    g1, g2 = 1.0 - delta1, 1.0 - delta2
    R = (F * g1 * g2 + (M / D) * (g2 + 2.0 * g1)) / (g1 + g2)
    if R + TOL < 2.0 * M / D:
        raise OutOfRegimeError(
            f"no rate with M/R <= D/2 satisfies the symmetric-cache condition (M={M})"
        )
    return R


def two_rx_separate_asym_rate(delta1, delta2, F, D, M) -> float:
    """Largest symmetric rate with the whole budget 2M cached at receiver 1
    and separate cache/channel coding, i.e.

        (R - 2M/D) / (F(1-d1)) + R / (F(1-d2)) <= 1.
    """
    _check_two_rx(delta1, delta2, F, D, M)
    g1, g2 = 1.0 - delta1, 1.0 - delta2
    R = (F * g1 + 2.0 * M / D) * g2 / (g1 + g2)
    if R + TOL < 2.0 * M / D:
        raise OutOfRegimeError(
            f"no rate with M/R <= D/2 satisfies the separate-coding condition (M={M})"
        )
    return R


def two_rx_joint_rate(delta1, delta2, F, D, M) -> tuple[float, float]:
    """Largest symmetric rate with budget 2M at receiver 1 and the cached
    fragment of receiver 2's demand piggybacked inside phase 1.

    Maximizes R over the phase split beta1 subject to

        R - 2M/D <= F(1-d1) beta1        (receiver 1, phase 1)
        R        <= F(1-d2) beta1        (receiver 2, phase 1)
        R - 2M/D <= F(1-d2) (1-beta1)    (receiver 2, phase 2)

    Returns (R, beta1).  The maximum of the concave upper envelope sits at
    one of the pairwise crossings, so it is evaluated exactly.
    """
    _check_two_rx(delta1, delta2, F, D, M)
    A1, A2 = F * (1.0 - delta1), F * (1.0 - delta2)
    c = 2.0 * M / D

    def envelope(beta):
        return min(A1 * beta + c, A2 * beta, A2 * (1.0 - beta) + c)

    candidates = {1.0}
    candidates.add(A2 / (A1 + A2))  # crossing of rows 1 and 3
    candidates.add(min(1.0, 0.5 + c / (2.0 * A2)))  # crossing of rows 2 and 3
    best_R, best_beta = -math.inf, 0.0
    for beta in sorted(candidates):
        beta = min(max(beta, 0.0), 1.0)
        val = envelope(beta)
        if val > best_R + 1e-15:
            best_R, best_beta = val, beta
    if best_R + TOL < c:
        raise OutOfRegimeError(
            f"no rate with M/R <= D/2 satisfies the joint-coding conditions (M={M})"
        )
    return best_R, best_beta


# ---------------------------------------------------------------------------
# K-receiver subset-caching scheme: feasibility conditions as published
# ---------------------------------------------------------------------------


def _as_piggyback_matrix(C, K0: int, ntail: int) -> np.ndarray:
    if C is None:
        return np.zeros((K0, ntail))
    C = np.asarray(C, dtype=float)
    if C.shape != (K0, ntail):
        raise ConfigError(f"piggyback matrix must have shape ({K0}, {ntail})")
    if (C < -1e-12).any():
        raise ConfigError("piggyback rates must be >= 0")
    return C


def general_conditions_feasible(cfg: SystemConfig, K0, t, R, M, C=None, tol=TOL) -> bool:
    """Evaluate the published closed-form feasibility conditions of the
    subset-caching scheme, exactly as stated (no phase-fraction variables):
    the point x = [R, C...] must satisfy every row of _printed_conditions_lp.

    Cache pattern: the K0 weakest receivers hold equal caches M, the rest
    none.  ``C[k-1][ktilde-K0-1]`` are the piggyback rates.  Note these
    conditions carry no time-sharing coupling across phases; the per-phase
    LP oracle (phase_lp_max_rate) is the operational ground truth and the
    two are audited against each other.
    """
    if K0 == 1:
        raise ConfigError("K0 must be >= 2 for this operation")
    check_k0_t(K0, t, cfg.K)
    check_memory(M)
    if R < 0:
        raise ConfigError("R must be >= 0")
    C = _as_piggyback_matrix(C, K0, cfg.K - K0)
    A, b, _, _ = _printed_conditions_lp(cfg, K0, t, M)
    x = np.concatenate(([R], C.ravel()))
    return bool((A @ x <= b + tol).all())


@dataclass(frozen=True)
class GeneralConditionsResult:
    rate: float
    t: int
    piggyback: tuple[tuple[float, ...], ...]


def _printed_conditions_lp(cfg: SystemConfig, K0: int, t: int, M: float):
    """Rows (A_ub, b_ub) of the published conditions over x = [R, C...]."""
    K, D, F = cfg.K, cfg.D, cfg.F
    ntail = K - K0
    nv = 1 + K0 * ntail
    r_c = M / (D * math.comb(K0 - 1, t - 1))
    tau = math.comb(K0, t)
    bulk = M * K0 / (D * t)

    def cidx(k, kt):
        return 1 + (k - 1) * ntail + (kt - K0 - 1)

    A, b = [], []

    def add(row, rhs):
        A.append(row)
        b.append(rhs)

    for k in range(1, K0 + 1):
        credited = (
            r_c * (tau - math.comb(K0 - k, t)) if k <= K0 - t - 1 else bulk
        )
        row = np.zeros(nv)
        row[0] = 1.0
        add(row.copy(), F * (1.0 - cfg.delta(k)) + credited)
        if k + 1 <= K:
            row2 = np.zeros(nv)
            row2[0] = 1.0
            for kt in range(K0 + 1, K + 1):
                row2[cidx(k, kt)] = 1.0
            add(row2, F * (1.0 - cfg.delta(k + 1)) + credited)
    for kt in range(K0 + 1, K + 1):
        row = np.zeros(nv)
        row[0] = 1.0
        for k in range(1, K0 + 1):
            row[cidx(k, kt)] = -1.0
        add(row, F * (1.0 - cfg.delta(kt)))
    return np.array(A), np.array(b), nv, ntail


def general_max_symmetric_rate(cfg: SystemConfig, K0, M) -> GeneralConditionsResult:
    """Maximize the symmetric rate allowed by the published conditions over
    the subset size t and the piggyback rates C >= 0.

    Tie-breaking is deterministic: the smallest t achieving the optimum, and
    the lexicographically smallest optimal C (obtained by sequential
    minimization at the fixed optimal rate).

    With every receiver caching (K0 = K) there is no piggyback rate, and every
    row reads R <= b_i with b_i >= 0, so the optimum at each t is min b_i.

    Raises ConfigError when M drives a right-hand side to HIGHS_INF or
    beyond, where HiGHS would read it as no bound at all.
    """
    K = cfg.K
    if not 2 <= K0 <= K:
        raise ConfigError(f"K0 must lie in 2..K={K} for the published conditions, got {K0}")
    check_memory(M)
    best = None
    for t in range(1, K0):
        A, b, nv, ntail = _printed_conditions_lp(cfg, K0, t, M)
        if not (b < HIGHS_INF).all():
            raise ConfigError(
                f"M must keep the published right-hand sides below {HIGHS_INF:g}, got {M}"
            )
        if K0 == K:
            R = float(b.min())
        else:
            c = np.zeros(nv)
            c[0] = -1.0
            res = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * nv)
            if not res.success:
                continue
            R = -res.fun + 0.0  # a zero optimum comes back as -0.0
        if best is None or R > best[0] + 1e-12:
            best = (R, t, A, b, nv, ntail)
    if best is None:
        raise DegenerateChannelError("published conditions infeasible at every t")
    R, t, A, b, nv, ntail = best
    # pin the rate, then minimize each piggyback rate in lexicographic order
    x_fixed = [R]
    for j in range(1, nv):
        c = np.zeros(nv)
        c[j] = 1.0
        res = linprog(
            c,
            A_ub=A,
            b_ub=b + 1e-9,
            A_eq=np.eye(nv)[:j],
            b_eq=np.array(x_fixed),
            bounds=[(0, None)] * nv,
        )
        x_fixed.append(max(0.0, res.x[j]) if res.success else 0.0)
    Cmat = np.array(x_fixed[1:], dtype=float).reshape(K0, ntail)
    Cmat[np.abs(Cmat) < 1e-11] = 0.0
    return GeneralConditionsResult(
        rate=R, t=t, piggyback=tuple(tuple(row) for row in Cmat)
    )


# ---------------------------------------------------------------------------
# Per-phase LP oracle with explicit time-sharing fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseLpResult:
    rate: float
    beta: tuple[float, ...]
    piggyback: tuple[tuple[float, ...], ...]
    K0: int
    t: int
    cached_rate_per_fragment: float  # effective r_c actually used
    slack: float = 0.0


def _phase_lp_rows(cfg: SystemConfig, K0: int, t: int):
    """Shared constraint skeleton over x = [R, r_c, beta_1..K, C..., s].

    Per-phase, per-receiver capacity accounting: in phase k <= K0 the payload
    is the XOR groups whose weakest member is k (count ``X_k``, each of rate
    r_c), the uncached fragment (rate R - tau*r_c), and piggyback slices
    (rates C[k][.], pre-stored at receiver k so they cost it nothing, counted
    in full for every stronger receiver).  Phase kt > K0 carries whatever of
    message d_kt was not piggybacked.  Binding audiences: the phase owner,
    and the next-stronger receiver for the piggyback-loaded rows.
    """
    K, F = cfg.K, cfg.F
    ntail = K - K0
    tau = math.comb(K0, t)
    nv = 1 + 1 + K + K0 * ntail + 1
    iR, iRC = 0, 1
    iB = lambda k: 2 + (k - 1)
    iC = lambda k, kt: 2 + K + (k - 1) * ntail + (kt - K0 - 1)
    iS = nv - 1

    A, b, meta = [], [], []

    def add(row, rhs, tag=None):
        A.append(row)
        b.append(rhs)
        meta.append(tag)

    for k in range(1, K0 + 1):
        xk = math.comb(K0 - k, t)
        # unknown rate at the phase owner: R - (tau - X_k) * r_c
        row = np.zeros(nv)
        row[iR] = 1.0
        row[iRC] = -(tau - xk)
        row[iB(k)] = -F * (1.0 - cfg.delta(k))
        row[iS] = 1.0
        add(row, 0.0, (k, k))
        if k + 1 <= K:
            row = np.zeros(nv)
            row[iR] = 1.0
            row[iRC] = -(tau - xk)
            for kt in range(K0 + 1, K + 1):
                row[iC(k, kt)] = 1.0
            row[iB(k)] = -F * (1.0 - cfg.delta(k + 1))
            row[iS] = 1.0
            add(row, 0.0, (k, k + 1))
    for kt in range(K0 + 1, K + 1):
        row = np.zeros(nv)
        row[iR] = 1.0
        for k in range(1, K0 + 1):
            row[iC(k, kt)] = -1.0
        row[iB(kt)] = -F * (1.0 - cfg.delta(kt))
        row[iS] = 1.0
        add(row, 0.0, (kt, kt))
        # leftover payload of message d_kt must be nonnegative
        row = np.zeros(nv)
        row[iR] = -1.0
        for k in range(1, K0 + 1):
            row[iC(k, kt)] = 1.0
        add(row, 0.0)
    # uncached fragment nonnegative: R >= tau * r_c
    row = np.zeros(nv)
    row[iR] = -1.0
    row[iRC] = tau
    add(row, 0.0)
    # piggyback slices must come from distinct cached bits: for every set A
    # of phases, sum_{k in A} C[k][kt] <= r_c * #{fragments cached at some
    # k in A}.  Singletons suffice when t = 1 (fragment sets are disjoint).
    if ntail:
        sizes = range(1, 2) if t == 1 else range(1, K0 + 1)
        for a in sizes:
            cap = float(tau - math.comb(K0 - a, t))
            for subset in itertools.combinations(range(1, K0 + 1), a):
                for kt in range(K0 + 1, K + 1):
                    row = np.zeros(nv)
                    for k in subset:
                        row[iC(k, kt)] = 1.0
                    row[iRC] = -cap
                    add(row, 0.0)
    A_eq = [np.zeros(nv)]
    for k in range(1, K + 1):
        A_eq[0][iB(k)] = 1.0
    return (
        np.array(A),
        np.array(b),
        np.array(A_eq),
        np.array([1.0]),
        nv,
        {
            "R": iR,
            "rc": iRC,
            "B": iB,
            "C": iC,
            "S": iS,
            "ntail": ntail,
            "tau": tau,
            "meta": meta,
        },
    )


def _max_rate_bounds(cfg: SystemConfig, K0: int, t: int, M: float, ntail: int) -> list:
    """Variable bounds of the max-rate phase LP: the cached rate per fragment
    fits in memory M, and the slack variable is pinned to zero.

    A cap of HIGHS_INF or more is none to HiGHS.  With K >= 2 it never binds
    (r_c <= R / tau, and the phase rows bound R); with one receiver the LP
    comes out unbounded, and linprog raises ConfigError.
    """
    rc_cap = M / (cfg.D * math.comb(K0 - 1, t - 1))
    return [(0, None), (0, rc_cap)] + [(0, 1)] * cfg.K + [(0, None)] * (K0 * ntail) + [(0, 0)]


def _subset_sizes(K0: int) -> range:
    """The subset sizes t the scheme allows with K0 cached receivers."""
    return range(1, max(K0, 2))


def _extract_phase_result(cfg, K0, t, x, ix, slack=0.0) -> PhaseLpResult:
    K = cfg.K
    ntail = ix["ntail"]
    beta = tuple(max(0.0, float(x[ix["B"](k)])) for k in range(1, K + 1))
    if ntail:
        C = np.array(
            [[x[ix["C"](k, kt)] for kt in range(K0 + 1, K + 1)] for k in range(1, K0 + 1)]
        )
        C[np.abs(C) < 1e-11] = 0.0
    else:
        C = np.zeros((K0, 0))
    return PhaseLpResult(
        # + 0.0 turns a zero that HiGHS returns as -0.0 into 0.0
        rate=float(x[ix["R"]]) + 0.0,
        beta=beta,
        piggyback=tuple(tuple(row) for row in C),
        K0=K0,
        t=t,
        cached_rate_per_fragment=float(x[ix["rc"]]) + 0.0,
        slack=slack,
    )


def phase_lp_max_rate(cfg: SystemConfig, K0, M, t) -> PhaseLpResult:
    """Maximize the symmetric rate of the subset-caching scheme by explicit
    per-phase accounting (the operational ground truth).

    The cached rate per fragment is a decision variable bounded by
    M / (D * C(K0-1, t-1)), so a cache too large for the blocklength regime
    is simply not filled completely; the returned
    ``cached_rate_per_fragment`` reports what is actually used, which keeps
    the maximum rate nondecreasing in M.
    """
    check_k0_t(K0, t, cfg.K)
    check_memory(M)
    A, b, A_eq, b_eq, nv, ix = _phase_lp_rows(cfg, K0, t)
    bounds = _max_rate_bounds(cfg, K0, t, M, ix["ntail"])
    c = np.zeros(nv)
    c[ix["R"]] = -1.0
    res = linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
    if not res.success:
        if any(d >= 1.0 for d in cfg.deltas):
            raise DegenerateChannelError("phase LP infeasible: degenerate channel")
        raise OutOfRegimeError("phase LP infeasible")
    return _extract_phase_result(cfg, K0, t, res.x, ix)


def max_min_slack_assignment(
    cfg: SystemConfig,
    K0,
    M,
    t,
    rate,
    force_zero_piggyback: bool = False,
    weights: dict | None = None,
) -> PhaseLpResult:
    """Fix the symmetric rate and choose (beta, C, r_c) maximizing the
    minimum per-constraint slack.

    Without ``weights`` the slack is uniform in bits per channel use; with
    ``weights`` mapping (phase, audience receiver) to a scale, the
    constraint for that pair gets slack proportional to its weight (used to
    spread a rate backoff in units of channel-noise standard deviations).
    The slack may come out negative (overloaded schedule); simulation uses
    that deliberately to probe operation beyond the achievable boundary.
    ``force_zero_piggyback`` pins every C to 0, which reproduces plain
    separate-coding layering.  The result's ``slack`` is always the
    unweighted minimum slack of the chosen point, in bits per channel use.

    Raises ConfigError naming the field unless M and ``rate`` are finite and
    >= 0 and every weight is finite and > 0.
    """
    K, D = cfg.K, cfg.D
    check_k0_t(K0, t, K)
    check_memory(M)
    if not (math.isfinite(rate) and rate >= 0):
        raise ConfigError(f"rate must be finite and >= 0, got {rate}")
    if weights and not all(math.isfinite(w) and w > 0 for w in map(float, weights.values())):
        raise ConfigError(f"weights must be finite and > 0, got {weights}")
    A, b, A_eq, b_eq, nv, ix = _phase_lp_rows(cfg, K0, t)
    if weights:
        A = A.copy()
        for i, tag in enumerate(ix["meta"]):
            if tag is not None:
                A[i, ix["S"]] = max(float(weights.get(tag, 1.0)), 1e-9)
    rc_cap = M / (D * math.comb(K0 - 1, t - 1))
    tau = ix["tau"]
    if rate < tau * rc_cap - 1e-12:
        # the full cache cannot fit inside the message at this rate; cap it
        rc_cap = rate / tau if tau else 0.0
    bounds = [(rate, rate), (0, rc_cap)] + [(0, 1)] * cfg.K
    c_bound = (0, 0) if force_zero_piggyback else (0, None)
    bounds += [c_bound] * (K0 * ix["ntail"])
    bounds += [(None, None)]
    c = np.zeros(nv)
    c[ix["S"]] = -1.0
    res = linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
    if not res.success:
        raise OutOfRegimeError("slack assignment LP infeasible")
    # unweighted per-row slack of the solution point
    x0 = res.x.copy()
    x0[ix["S"]] = 0.0
    gaps = [
        float(b[i] - A[i] @ x0)
        for i, tag in enumerate(ix["meta"])
        if tag is not None
    ]
    return _extract_phase_result(cfg, K0, t, res.x, ix, slack=min(gaps))


def best_phase_lp_rate(cfg: SystemConfig, K0, M) -> PhaseLpResult:
    """phase_lp_max_rate maximized over the subset size t (smallest t wins ties)."""
    best = None
    for t in _subset_sizes(K0):
        try:
            res = phase_lp_max_rate(cfg, K0, M, t)
        except OutOfRegimeError:
            continue
        if best is None or res.rate > best.rate + 1e-12:
            best = res
    if best is None:
        raise OutOfRegimeError(f"phase LP infeasible for every t at K0={K0}")
    return best


# ---------------------------------------------------------------------------
# Unequal cache sizes via time sharing
# ---------------------------------------------------------------------------


def unequal_cache_max_rate(cfg: SystemConfig, memories=None) -> float:
    """Best symmetric rate for nonincreasing per-receiver cache sizes.

    Layer i (i = 1..K) runs the equal-cache scheme on the K0 = K+1-i weakest
    receivers for a share gamma_i of the time with per-receiver memory
    (M_{K-i+1} - M_{K-i+2}) / gamma_i, so layer budgets telescope to the given
    memories.  Every row of the per-phase LP is homogeneous, so a layer's
    time-scaled rate gamma_i * R_i(dm_i / gamma_i) is the perspective of that
    LP: the same rows over variables scaled by gamma_i, with the phase
    fractions summing to gamma_i and the cached rate per fragment capped by
    dm_i / (D * C(K0-1, t-1)).  For one subset size t per layer the split of
    the time is therefore one exact LP over all layers, whose phase fractions
    sum to 1; the result is the best such LP over every tuple of t.
    """
    K = cfg.K
    mems = list(cfg.memories if memories is None else [float(m) for m in memories])
    if len(mems) != K:
        raise ConfigError(f"memories must have K={K} entries")
    if not all(math.isfinite(m) and m >= 0 for m in mems):
        raise ConfigError(f"memories must be finite and >= 0: {mems}")
    for a, b in zip(mems, mems[1:]):
        if b > a + 1e-12:
            raise ConfigError(f"memories not nonincreasing: {mems}")
    mems = mems + [0.0]
    # (K0, memory) per layer; layer i serves the K0 = K+1-i weakest receivers
    layers = [(K + 1 - i, mems[K - i] - mems[K - i + 1]) for i in range(1, K + 1)]

    # a layer without memory caps r_c at 0, so its t cannot change the rate
    sizes = [_subset_sizes(K0) if dm > 0 else (1,) for K0, dm in layers]
    rows = {(K0, t): _phase_lp_rows(cfg, K0, t) for (K0, _), ts in zip(layers, sizes) for t in ts}

    # the tuples' LPs go _TUPLES_PER_LP at a time into one block-diagonal LP
    # maximizing the sum of their rates; linprog takes its inequality rows as
    # the layers' blocks and its equality rows as one time-sharing row per
    # tuple over the tuple's own columns, so that its size stays linear in the
    # tuple count, (K-1)! when the memories are distinct
    tuples = list(itertools.product(*sizes))
    best = -math.inf
    for i in range(0, len(tuples), _TUPLES_PER_LP):
        A_ub, b_ub, A_eq, bounds, rate_cols = [], [], [], [], []
        for ts in tuples[i : i + _TUPLES_PER_LP]:
            cols, eq = [], []
            for (K0, dm), t in zip(layers, ts):
                A, b, A_eq_t, _, _, ix = rows[K0, t]
                eq.append(A_eq_t)
                cols.append(len(bounds) + ix["R"])
                bounds += _max_rate_bounds(cfg, K0, t, dm, ix["ntail"])
                A_ub.append(A)
                b_ub.append(b)
            A_eq.append(np.hstack(eq))
            rate_cols.append(cols)
        c = np.zeros(len(bounds))
        c[np.ravel(rate_cols)] = -1.0
        res = linprog(
            c,
            A_ub=A_ub,
            b_ub=np.concatenate(b_ub),
            A_eq=A_eq,
            b_eq=np.ones(len(rate_cols)),
            bounds=bounds,
        )
        # every tuple's LP has the solution R = r_c = 0, beta_1 = 1, and its
        # rate is bounded whatever the cap on r_c: only a solver failure lands here
        if not res.success:
            raise OutOfRegimeError(f"time-sharing LP failed: {res.message}")
        best = max(best, *(float(res.x[cols].sum()) for cols in rate_cols))
    return best


# ---------------------------------------------------------------------------
# Single common demand: exact capacity region
# ---------------------------------------------------------------------------


def _common_demand_point(cfg: SystemConfig, rates, memories, tol: float):
    """The (rates, memories) point of a common-demand membership test, the
    config's own where None: one rate per message and one memory per
    receiver, each finite and >= 0, and a valid slack ``tol``."""
    _check_tol(tol)
    R = np.asarray(cfg.rates if rates is None else rates, dtype=float)
    Mk = np.asarray(cfg.memories if memories is None else memories, dtype=float)
    if R.shape != (cfg.D,) or Mk.shape != (cfg.K,):
        raise ConfigError(
            f"rates must have D={cfg.D} entries and memories K={cfg.K} entries, "
            f"got {R.shape} and {Mk.shape}"
        )
    point = np.concatenate([R, Mk])
    if not (np.isfinite(point) & (point >= 0)).all():
        raise ConfigError(f"rates and memories must be finite and >= 0, got {R} and {Mk}")
    return R, Mk


def common_demand_contains(
    cfg: SystemConfig, rates=None, memories=None, tol: float = TOL
):
    """Exact membership test for the common-demand capacity region.

    (R_1..R_D, M_1..M_K) is inside iff per-message cache allocations
    M_{k,d} >= 0 exist with row sums within the budgets and
    R_d <= (1-delta_k) F + M_{k,d} for all k, d.  Equivalently, for every
    receiver the shortfalls sum within its budget, so the greedy witness
    M_{k,d} = max(0, R_d - (1-delta_k) F) decides membership.

    Returns (inside, witness) where witness is the greedy K x D allocation
    when inside, else None.
    """
    R, Mk = _common_demand_point(cfg, rates, memories, tol)
    caps = cfg.F * (1.0 - np.asarray(cfg.deltas))
    witness = np.maximum(0.0, R[None, :] - caps[:, None])
    inside = bool((witness.sum(axis=1) <= Mk + tol).all())
    return (inside, witness) if inside else (inside, None)


def common_demand_contains_lp(cfg: SystemConfig, rates=None, memories=None, tol=1e-7) -> bool:
    """Membership via the defining linear program (independent of the greedy
    reduction): feasibility in the K*D allocation variables."""
    R, Mk = _common_demand_point(cfg, rates, memories, tol)
    K, D = cfg.K, cfg.D
    caps = cfg.F * (1.0 - np.asarray(cfg.deltas))
    nv = K * D
    A, b = [], []
    for k in range(K):
        row = np.zeros(nv)
        row[k * D : (k + 1) * D] = 1.0
        A.append(row)
        b.append(Mk[k])
    lb = np.maximum(0.0, R[None, :] - caps[:, None]).reshape(-1)
    res = linprog(
        np.zeros(nv),
        A_ub=np.array(A),
        b_ub=np.array(b) + tol,
        bounds=list(zip(lb, [None] * nv)),
    )
    return bool(res.success)


def common_demand_separate_contains(
    cfg: SystemConfig, rates=None, memories=None, tol: float = TOL
) -> bool:
    """Common-demand membership when cache and channel coding are separate.

    Every receiver then decodes behind the worst channel, so each must cache
    the shortfall against min_k (1-delta_k) F.
    """
    R, Mk = _common_demand_point(cfg, rates, memories, tol)
    worst = cfg.F * min(1.0 - d for d in cfg.deltas)
    need = np.maximum(0.0, R - worst).sum()
    return bool((need <= Mk + tol).all())
