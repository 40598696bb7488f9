"""End-to-end Monte Carlo experiments.

Every scheme runs through one trial loop; only the set-up differs: subset
caches and K phases of XOR groups, plain parts and piggyback slices for the
XOR schemes, prefix caches and one phase over the demanded message for the
common-demand scheme.  Neither depends on the library, so an experiment
makes them once.  A trial draws a uniform library, gathers each phase's
source blocks and draws the erasures of every channel use; the channel's
erasures do not depend on the packets, so no packet is encoded before a
decoder reads it.  Each receiver then decodes with the blocks it knows
(the decoder encodes, from the phase's blocks, just the packets it reads),
absorbs (un-XORs) what it decoded, and compares the demanded message bit
for bit.  Trials run in blocks, phase-major: a block's runs are all drawn
first, then each phase is decoded at every run's receivers in one batched
call before the next phase.
The error probability is estimated over the union of all feasible demands:
trial j fails when any receiver fails for any demand, with run (demand
index, j) seeded by (base seed, demand index, j) so results are
bit-identical regardless of execution order or blocking.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import codec
# transmit is not called here; it stays importable from this module, where
# the benchmark's tracer (benchmarks/workloads.py) looks it up by name
from .channel import erasures, transmit  # noqa: F401
from .model import ConfigError, SchemeParameters, SystemConfig, config_to_dict, validate_demand
from .placement import (
    build_caches,
    build_prefix_caches,
    draw_library,
    message_lengths,
    sub_message_layout,
)
from .regions import (
    OutOfRegimeError,
    best_phase_lp_rate,
    common_demand_contains,
    general_max_symmetric_rate,
    max_min_slack_assignment,
    phase_lp_max_rate,
    two_rx_joint_rate,
    two_rx_separate_asym_rate,
    two_rx_symmetric_rate,
)
from .schedule import (
    PAD,
    ItemIndex,
    PhaseIndex,
    build_schedule,
    flat_library,
    gather_bits,
    index_schedule,
    piggyback_grants,
    verify_schedule,
)
from ._seeding import seed_material

__all__ = [
    "SCHEMES",
    "SchemePlan",
    "plan_scheme",
    "run_trial",
    "estimate_pe",
    "SimulationReport",
    "wilson_interval",
    "sweep",
    "sweep_to_csv",
    "SWEEP_FIELDS",
    "audit_conditions",
    "DEFAULT_DEMAND_CAP",
]

SCHEMES = ("symmetric-2rx", "separate-asym-2rx", "joint-2rx", "general", "common-demand")
DEFAULT_DEMAND_CAP = 64


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054):
    """Wilson 95% score interval; robust for small counts."""
    if trials <= 0:
        return (0.0, 1.0)
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return (lo, hi)


# ---------------------------------------------------------------------------
# Scheme planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemePlan:
    """Everything a trial needs, derived once per experiment."""

    scheme: str
    backoff: float
    cfg_sim: SystemConfig  # config with the backed-off rates
    rates_nominal: tuple[float, ...]
    params: SchemeParameters | None = None  # XOR schemes
    layout_memory: float | None = None  # effective equal-cache parameter
    min_slack_bits: float | None = None
    allocation: tuple[tuple[float, ...], ...] | None = None  # common demand


def _equal_cache_pattern(cfg: SystemConfig) -> tuple[int, float]:
    """Extract (K0, M) from a memories vector of the form (M..M, 0..0)."""
    mems = cfg.memories
    K0 = sum(1 for m in mems if m > 1e-12)
    if K0 == 0:
        return 0, 0.0
    M = mems[0]
    for k in range(K0):
        if abs(mems[k] - M) > 1e-9:
            raise ConfigError("memories must be equal across the cached receivers")
    for k in range(K0, cfg.K):
        if mems[k] > 1e-12:
            raise ConfigError("cached receivers must come first in the memories vector")
    return K0, M


def plan_scheme(
    cfg: SystemConfig, scheme: str, backoff: float = 1.0, params: SchemeParameters | None = None
) -> SchemePlan:
    """Resolve a scheme name into concrete simulation parameters.

    For the XOR schemes the nominal rate comes from the matching analytic
    operation; the simulated rate is backoff * nominal, and the phase
    fractions / piggyback rates are re-fit at that rate by maximizing the
    minimum constraint slack (negative when backoff > 1, which is how the
    over-capacity experiments are driven).
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if not (math.isfinite(backoff) and backoff > 0):
        raise ConfigError(f"backoff must be finite and positive, got {backoff}")

    if scheme == "common-demand":
        if cfg.demand_set.kind != "common":
            raise ConfigError("common-demand scheme requires demand_set.kind == 'common'")
        inside, witness = common_demand_contains(cfg)
        if not inside:
            raise ConfigError("nominal rates lie outside the common-demand region")
        rates_sim = tuple(backoff * r for r in cfg.rates)
        return SchemePlan(
            scheme=scheme,
            backoff=backoff,
            cfg_sim=replace(cfg, rates=rates_sim),
            rates_nominal=cfg.rates,
            allocation=tuple(tuple(row) for row in witness),
        )

    if scheme in ("symmetric-2rx", "separate-asym-2rx", "joint-2rx"):
        if cfg.K != 2:
            raise ConfigError(f"{scheme} requires K=2")
        d1, d2, F, D = cfg.delta(1), cfg.delta(2), cfg.F, cfg.D
        if scheme == "symmetric-2rx":
            if abs(cfg.memories[0] - cfg.memories[1]) > 1e-9:
                raise ConfigError("symmetric-2rx requires equal cache sizes")
            M_param = cfg.memories[0]
            nominal = two_rx_symmetric_rate(d1, d2, F, D, M_param)
            K0, t, layout_M = 2, 1, M_param
        else:
            if cfg.memories[1] > 1e-12:
                raise ConfigError(f"{scheme} requires an empty cache at receiver 2")
            M_param = cfg.memories[0] / 2.0
            if scheme == "separate-asym-2rx":
                nominal = two_rx_separate_asym_rate(d1, d2, F, D, M_param)
            else:
                nominal, _ = two_rx_joint_rate(d1, d2, F, D, M_param)
            K0, t, layout_M = 1, 1, cfg.memories[0]
    else:  # general
        if params is not None:
            K0, t = params.K0, params.t
            _, layout_M = _equal_cache_pattern(cfg)
        else:
            K0, layout_M = _equal_cache_pattern(cfg)
            if K0 == 0:
                K0 = cfg.K  # no caches: plain time sharing via the same machinery
            t = None
        if t is None:
            best = best_phase_lp_rate(cfg, K0, layout_M)
            t, nominal = best.t, best.rate
        else:
            nominal = phase_lp_max_rate(cfg, K0, layout_M, t).rate

    rate_sim = backoff * nominal
    force_zero = scheme == "separate-asym-2rx"
    fit = max_min_slack_assignment(cfg, K0, layout_M, t, rate_sim, force_zero)
    if cfg.n is not None:
        # second pass: spread the backoff margin in units of per-constraint
        # channel-noise standard deviation (sigma ~ F * sqrt(beta n d (1-d)))
        weights = {}
        for p in range(1, cfg.K + 1):
            for j in range(p, cfg.K + 1):
                dj = cfg.delta(j)
                var = max(fit.beta[p - 1] * cfg.n * dj * (1.0 - dj), 1.0)
                weights[(p, j)] = cfg.F * math.sqrt(var) / cfg.n
        fit = max_min_slack_assignment(cfg, K0, layout_M, t, rate_sim, force_zero, weights)
    m_eff = fit.cached_rate_per_fragment * cfg.D * math.comb(K0 - 1, t - 1)
    sched_params = SchemeParameters(K0=K0, t=t, beta=fit.beta, piggyback=fit.piggyback)
    n = cfg.n
    return SchemePlan(
        scheme=scheme,
        backoff=backoff,
        cfg_sim=replace(cfg, rates=(rate_sim,) * cfg.D),
        rates_nominal=(nominal,) * cfg.D,
        params=sched_params,
        layout_memory=m_eff,
        min_slack_bits=(fit.slack * n if n is not None else None),
    )


# ---------------------------------------------------------------------------
# Single trial
# ---------------------------------------------------------------------------


_BLOCK_RUNS = 32  # runs decoded together; bounds the memory a block holds


@dataclass(frozen=True)
class _Delivery:
    """The trials of one experiment, whatever the scheme.

    Message d spans ``offsets[d-1]:offsets[d]`` of the flat library
    (``flat_library``); ``cached`` are the receivers' cached-bit masks over
    it and ``compile(demand)`` gives a demand's phases.  An experiment makes
    these once.  Receiver k's knowledge is bit values and a known mask over
    the flat library, seeded from its cache and grown by phases 1..k.
    """

    cfg: SystemConfig
    cached: np.ndarray  # (K, library bits + 1)
    offsets: tuple[int, ...]
    compile: Callable[..., tuple[PhaseIndex, ...]]

    def _send(self, phases: tuple[PhaseIndex, ...], base: list[int]):
        """Draw a run's library and the erasures of all its channel uses.
        Returns the flat library, each phase's (B, F) source blocks, the
        erasures, and the channel uses of each phase (phase p owns
        ``uses[p-1]:uses[p]``).  Nothing is encoded here: the decoder
        encodes the packets it reads (``codec.encoder``)."""
        cfg, F = self.cfg, self.cfg.F
        library = flat_library(draw_library(cfg, base))
        blocks = [gather_bits(library, phase.gather).reshape(-1, F) for phase in phases]
        uses = [0]
        for phase in phases:
            uses.append(uses[-1] + phase.budget_uses)
        return library, blocks, erasures(uses[-1], cfg.deltas, base), uses

    def run(self, runs) -> list[list[bool]]:
        """Per-receiver success flags of each (phases, demand, seed) run.

        The runs go phase-major: every run's library and erasures are drawn
        first; then phase by phase, phase p is decoded at receivers p..K of
        every run in one ``codec.decode_batch`` call and absorbed before
        phase p+1.  Receivers are independent, so each sees exactly what a
        run on its own would give it."""
        cfg, F = self.cfg, self.cfg.F
        bases = [seed_material(seed) for _, _, seed in runs]
        sent = [self._send(phases, base) for (phases, _, _), base in zip(runs, bases)]
        known = [self.cached.copy() for _ in runs]  # row k-1: receiver k
        values = [library * mask for (library, *_), mask in zip(sent, known)]
        for p in range(1, cfg.K + 1):
            groups, owners = [], []
            for r, (phases, _, _) in enumerate(runs):
                if p > len(phases) or len(phases[p - 1].gather) == 0:
                    continue
                phase, (_, blocks, erased, uses) = phases[p - 1], sent[r]
                B = len(blocks[p - 1])
                span = slice(uses[p - 1], uses[p])
                receptions = [
                    _reception(phase, B, F, values[r][k - 1], known[r][k - 1], erased[k - 1, span])
                    for k in range(p, cfg.K + 1)
                ]
                groups.append((codec.encoder(blocks[p - 1]), B, p, bases[r], receptions))
                owners.append(r)
            for r, results in zip(owners, codec.decode_batch(groups)):
                for k, result in enumerate(results, start=p):
                    if result.ok:
                        decoded = result.blocks.reshape(-1)
                        _absorb(runs[r][0][p - 1], decoded, values[r][k - 1], known[r][k - 1])
        flags = []
        for (_, demand, _), (library, *_), vals, kn in zip(runs, sent, values, known):
            msgs = [slice(self.offsets[d - 1], self.offsets[d]) for d in demand]
            flags.append([
                bool(kn[k, m].all()) and np.array_equal(vals[k, m], library[m])
                for k, m in enumerate(msgs)
            ])
        return flags


def _reception(phase: PhaseIndex, B: int, F: int, values, known, erased) -> codec.Reception:
    """What a receiver hands the decoder for one phase: the packets it got,
    and the blocks whose every constituent range it knows, with their values."""
    rows_known = np.ones(B * F, dtype=bool)
    for lo, hi, first, stop in phase.spans:
        if not known[lo:hi].all():
            rows_known[first:stop] = False
    known_blocks = rows_known.reshape(B, F).all(axis=1)
    vals_blocks = gather_bits(values, phase.gather).reshape(B, F)
    return codec.Reception(np.flatnonzero(~erased), known_blocks, vals_blocks)


def _subset_delivery(plan: SchemePlan) -> _Delivery:
    """The XOR schemes: subset caches, and K phases of XOR groups, plain
    parts and piggyback slices per demand (``index_schedule``)."""
    cfg = plan.cfg_sim
    layout = sub_message_layout(cfg, plan.params.K0, plan.params.t, plan.layout_memory)
    grants, _ = piggyback_grants(cfg, plan.params, layout)
    offsets = tuple(layout.position(d, 0) for d in range(1, cfg.D + 2))
    compile = partial(index_schedule, cfg, plan.params, layout, grants)
    return _Delivery(cfg, build_caches(cfg, layout), offsets, compile)


def _prefix_delivery(plan: SchemePlan) -> _Delivery:
    """The common-demand scheme: prefix caches, and one random-linear phase
    of n uses over the demanded message."""
    cfg = plan.cfg_sim
    F, n = cfg.F, cfg.require_n()
    sizes = message_lengths(cfg)
    offsets = tuple(int(x) for x in np.cumsum([0] + sizes))

    def compile(demand):
        if len(set(demand)) != 1:
            raise ConfigError("common-demand scheme needs identical demand entries")
        d = demand[0]
        lo, bits = offsets[d - 1], sizes[d - 1]
        gather = np.full((bits + (-bits) % F, 1), PAD, dtype=np.int64)
        gather[:bits, 0] = np.arange(lo, lo + bits)
        # one span per block: a block is known when its real bits lie inside
        # the receiver's prefix (its padding tail is known zeros)
        spans = tuple(
            (lo + a, lo + min(a + F, bits), a, min(a + F, bits)) for a in range(0, bits, F)
        )
        item = ItemIndex("uncached-part", ((d, 0, 0, bits),), frozenset(), None, 0, len(gather))
        return (PhaseIndex(1, n, (item,), gather, spans),)

    return _Delivery(cfg, build_prefix_caches(cfg, plan.allocation), offsets, compile)


def _absorb(phase: PhaseIndex, decoded: np.ndarray, values: np.ndarray, known: np.ndarray):
    """Add a decoded phase to a receiver's knowledge: its XOR groups in
    order, each when exactly one of its constituents is not fully known (the
    others are stripped from it; an earlier group can complete a later
    one's constituents), then every plain item outright, in one step
    (``PhaseIndex`` puts the plain items last)."""
    for item in phase.items:
        if item.kind != "xor-group":
            break
        rows, got = phase.gather[item.start : item.stop], decoded[item.start : item.stop]
        data = rows[:, 0] != PAD  # padding rows gather nothing but PAD
        rows, got = rows[data], got[data]
        have = known[rows].all(axis=0)  # per constituent
        if np.count_nonzero(~have) == 1:
            target = rows[:, np.argmin(have)]
            values[target] = got ^ gather_bits(values, rows[:, have])
            known[target] = True
    positions = phase.gather[phase.plain_start :, 0]
    data = positions != PAD
    values[positions[data]] = decoded[phase.plain_start :][data]
    known[positions[data]] = True


def _plan_from_parameters(cfg: SystemConfig, scheme: str, params: SchemeParameters) -> SchemePlan:
    """Honor explicitly supplied scheme parameters verbatim at cfg.rates."""
    params.validate(cfg.K)
    _, layout_M = _equal_cache_pattern(cfg)
    return SchemePlan(
        scheme=scheme,
        backoff=1.0,
        cfg_sim=cfg,
        rates_nominal=cfg.rates,
        params=params,
        layout_memory=layout_M,
    )


def run_trial(cfg: SystemConfig, scheme: str, params, demand, seed) -> list[bool]:
    """One end-to-end delivery for one demand tuple.

    ``params`` is a SchemePlan (see plan_scheme), an explicit
    SchemeParameters (used verbatim at the config rates), or None for
    nominal-rate planning.  Returns per-receiver success flags; decode
    failure is a result, never an exception.
    """
    if isinstance(params, SchemePlan):
        plan = params
    elif isinstance(params, SchemeParameters) and scheme != "common-demand":
        plan = _plan_from_parameters(cfg, scheme, params)
    else:
        plan = plan_scheme(cfg, scheme, 1.0, params)
    demand = validate_demand(demand, cfg.K, cfg.D)
    return _trial_runner(cfg, plan, [demand])(demand, seed)


def _experiment(cfg: SystemConfig, plan: SchemePlan, demands):
    """The delivery of one experiment over ``demands`` and each distinct
    demand's compiled phases.  A plan with a cache allocation (common
    demand) places prefixes, any other places subsets."""
    for demand in demands:
        if not cfg.demand_set.contains(demand, cfg.K, cfg.D):
            raise ConfigError(f"demand {demand} is not in the feasible set")
    delivery = (_prefix_delivery if plan.allocation is not None else _subset_delivery)(plan)
    return delivery, {d: delivery.compile(d) for d in dict.fromkeys(demands)}


def _trial_runner(cfg: SystemConfig, plan: SchemePlan, demands):
    """``run(demand, seed) -> flags`` for single trials of one experiment
    over ``demands``; each distinct demand is compiled once."""
    delivery, compiled = _experiment(cfg, plan, demands)
    return lambda demand, seed: delivery.run([(compiled[demand], demand, seed)])[0]


# ---------------------------------------------------------------------------
# Error-probability estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationReport:
    scheme: str
    backoff: float
    trials: int
    n: int
    demand_mode: str
    demands: tuple[tuple[int, ...], ...]
    receiver_failures: tuple[tuple[int, ...], ...]  # [demand][receiver]
    union_failures: int
    pe_hat: float
    wilson_lo: float
    wilson_hi: float
    base_seed: int
    rates_nominal: tuple[float, ...]
    rates_sim: tuple[float, ...]
    beta: tuple[float, ...] | None
    piggyback: tuple[tuple[float, ...], ...] | None
    min_slack_bits: float | None
    codec_slack_packets: int
    elapsed_s: float
    config: dict

    def max_individual_failure_rate(self) -> float:
        worst = 0
        for row in self.receiver_failures:
            worst = max(worst, max(row))
        return worst / self.trials if self.trials else 0.0

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "backoff": self.backoff,
            "trials": self.trials,
            "n": self.n,
            "demand_mode": self.demand_mode,
            "demands": [list(d) for d in self.demands],
            "receiver_failures": [list(r) for r in self.receiver_failures],
            "union_failures": self.union_failures,
            "pe_hat": self.pe_hat,
            "wilson_lo": self.wilson_lo,
            "wilson_hi": self.wilson_hi,
            "base_seed": self.base_seed,
            "rates_nominal": list(self.rates_nominal),
            "rates_sim": list(self.rates_sim),
            "beta": list(self.beta) if self.beta is not None else None,
            "piggyback": [list(r) for r in self.piggyback]
            if self.piggyback is not None
            else None,
            "min_slack_bits": self.min_slack_bits,
            "codec_slack_packets": self.codec_slack_packets,
            "elapsed_s": self.elapsed_s,
            "config": self.config,
        }


def estimate_pe(
    cfg: SystemConfig,
    scheme: str,
    params=None,
    backoff: float = 0.9,
    trials: int = 100,
    seed: int = 0,
    demand_cap: int = DEFAULT_DEMAND_CAP,
    threads: int = 1,
) -> SimulationReport:
    """Estimate the union error probability over the feasible demand set.

    All demand tuples are enumerated when the feasible set is no larger than
    ``demand_cap``; otherwise ``demand_cap`` tuples are sampled uniformly
    (with replacement) once per experiment.  Run (demand index di, trial j)
    is seeded by (seed, di, j); trial j fails when any receiver fails for
    any demand in that trial.  Runs go single-threaded; ``threads`` accepts
    only 1.
    """
    for name, value in (("trials", trials), ("demand_cap", demand_cap)):
        if not isinstance(value, int) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    if threads != 1:
        raise ConfigError(f"threads must be 1 (runs are single-threaded), got {threads!r}")
    t0 = time.perf_counter()
    plan = params if isinstance(params, SchemePlan) else plan_scheme(cfg, scheme, backoff, params)
    size = cfg.demand_set.size(cfg.K, cfg.D)
    if size <= demand_cap:
        demands = list(cfg.demand_set.iter_tuples(cfg.K, cfg.D))
        mode = "enumerated"
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDE]))
        demands = [
            tuple(int(x) for x in rng.integers(1, cfg.D + 1, size=cfg.K))
            for _ in range(demand_cap)
        ]
        mode = "sampled"

    delivery, compiled = _experiment(cfg, plan, demands)
    jobs = [(di, j) for j in range(trials) for di in range(len(demands))]
    fail_counts = [[0] * cfg.K for _ in demands]
    union_fail = [False] * trials
    for i in range(0, len(jobs), _BLOCK_RUNS):
        block = jobs[i : i + _BLOCK_RUNS]
        runs = [(compiled[demands[di]], demands[di], [seed, di, j]) for di, j in block]
        for (di, j), flags in zip(block, delivery.run(runs)):
            for k, ok in enumerate(flags):
                if not ok:
                    fail_counts[di][k] += 1
                    union_fail[j] = True
    union_failures = sum(union_fail)
    pe_hat = union_failures / trials
    lo, hi = wilson_interval(union_failures, trials)
    return SimulationReport(
        scheme=plan.scheme,
        backoff=plan.backoff,
        trials=trials,
        n=cfg.require_n(),
        demand_mode=mode,
        demands=tuple(demands),
        receiver_failures=tuple(tuple(r) for r in fail_counts),
        union_failures=union_failures,
        pe_hat=pe_hat,
        wilson_lo=lo,
        wilson_hi=hi,
        base_seed=seed,
        rates_nominal=plan.rates_nominal,
        rates_sim=plan.cfg_sim.rates,
        beta=plan.params.beta if plan.params else None,
        piggyback=plan.params.piggyback if plan.params else None,
        min_slack_bits=plan.min_slack_bits,
        codec_slack_packets=codec.DEFAULT_RANK_SLACK,
        elapsed_s=time.perf_counter() - t0,
        config=config_to_dict(cfg),
    )


# ---------------------------------------------------------------------------
# Sweeps and audits
# ---------------------------------------------------------------------------

SWEEP_FIELDS = ("M", "scheme", "R_analytical", "pe_hat", "ci_lo", "ci_hi", "n", "trials", "seed")

_SWEEP_MEMORIES = {
    "symmetric-2rx": lambda M: (M, M),
    "separate-asym-2rx": lambda M: (2 * M, 0.0),
    "joint-2rx": lambda M: (2 * M, 0.0),
}


def sweep(
    cfg: SystemConfig,
    schemes,
    memory_grid,
    simulate: bool = False,
    backoff: float = 0.9,
    trials: int = 50,
    seed: int = 0,
    demand_cap: int = DEFAULT_DEMAND_CAP,
) -> list[dict]:
    """Tradeoff curves over a cache-size grid for the two-receiver schemes.

    Grid parameter M is the per-receiver budget of the equal-cache scheme;
    the asymmetric schemes concentrate the same total (2M) at receiver 1.
    Out-of-regime points report R_analytical = NaN.  Simulation columns stay
    empty unless ``simulate`` is set.
    """
    if cfg.K != 2:
        raise ConfigError("sweep covers the two-receiver schemes; K must be 2")
    d1, d2, F, D = cfg.delta(1), cfg.delta(2), cfg.F, cfg.D
    rows = []
    for M in memory_grid:
        for scheme in schemes:
            if scheme not in _SWEEP_MEMORIES:
                raise ConfigError(f"sweep supports {sorted(_SWEEP_MEMORIES)}, got {scheme!r}")
            try:
                if scheme == "symmetric-2rx":
                    R = two_rx_symmetric_rate(d1, d2, F, D, M)
                elif scheme == "separate-asym-2rx":
                    R = two_rx_separate_asym_rate(d1, d2, F, D, M)
                else:
                    R = two_rx_joint_rate(d1, d2, F, D, M)[0]
            except OutOfRegimeError:
                R = float("nan")
            row = {
                "M": float(M),
                "scheme": scheme,
                "R_analytical": R,
                "pe_hat": "",
                "ci_lo": "",
                "ci_hi": "",
                "n": cfg.n if cfg.n is not None else "",
                "trials": "",
                "seed": seed,
            }
            if simulate and not math.isnan(R):
                cfg_row = replace(cfg, memories=_SWEEP_MEMORIES[scheme](float(M)))
                rep = estimate_pe(
                    cfg_row,
                    scheme,
                    backoff=backoff,
                    trials=trials,
                    seed=seed,
                    demand_cap=demand_cap,
                )
                row.update(
                    pe_hat=rep.pe_hat, ci_lo=rep.wilson_lo, ci_hi=rep.wilson_hi, trials=trials
                )
            rows.append(row)
    return rows


def sweep_to_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=SWEEP_FIELDS, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def audit_conditions(cfg: SystemConfig, K0: int, M: float, t: int, demand=None) -> dict:
    """Cross-audit the published feasibility conditions against the
    per-phase LP oracle, and check the LP point operationally.

    Returns the two rates, their divergence, and the deterministic
    capacity-verification outcome for a schedule built at the LP optimum.
    Divergences (including an out-of-regime LP) are reported, never hidden.
    """
    printed = general_max_symmetric_rate(cfg, K0, M)
    out = {
        "K0": K0,
        "M": M,
        "t": t,
        "printed_rate": printed.rate,
        "printed_t": printed.t,
        "lp_rate": None,
        "lp_feasible": False,
        "divergence": None,
        "verify_ok": None,
    }
    try:
        lp = phase_lp_max_rate(cfg, K0, M, t)
    except OutOfRegimeError:
        out["divergence"] = printed.rate
        return out
    out["lp_rate"] = lp.rate
    out["lp_feasible"] = True
    out["divergence"] = printed.rate - lp.rate
    if cfg.n is not None:
        if demand is None:
            demand = tuple(min(k, cfg.D) for k in range(1, cfg.K + 1))
        mems = (M,) * K0 + (0.0,) * (cfg.K - K0)
        cfg_lp = replace(cfg, rates=(lp.rate,) * cfg.D, memories=mems)
        m_eff = lp.cached_rate_per_fragment * cfg.D * math.comb(K0 - 1, t - 1)
        layout = sub_message_layout(cfg_lp, K0, t, m_eff)
        build_caches(cfg_lp, layout)  # raises CapacityError on overflow
        params = SchemeParameters(K0=K0, t=t, beta=lp.beta, piggyback=lp.piggyback)
        sched = build_schedule(cfg_lp, params, layout, demand)
        out["verify_ok"] = verify_schedule(sched, cfg_lp, margin=1.0).ok
    return out
