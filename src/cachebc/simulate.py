"""End-to-end Monte Carlo experiments.

Every scheme runs through one trial loop; only the set-up differs: subset
caches and K phases of XOR groups, plain parts and piggyback slices for the
XOR schemes, prefix caches and one phase over the demanded message for the
common-demand scheme.  Neither depends on the library, so an experiment
makes them once.  The XOR schemes compile one template per equality pattern
of the demands, over the pattern's first-appearance labels, and each run
lays its messages out in that label order, so every demand of a pattern
runs on its template as it is.  A trial draws a uniform library, gathers
each phase's source blocks and draws the erasures of every channel use; the
channel's erasures do not depend on the packets, so no packet is encoded
before a decoder reads it.  Each receiver then decodes with the blocks it
knows (the decoder encodes, over the phase's blocks less the ones the
receiver knows, just the packets it reads), absorbs (un-XORs) what it
decoded, and compares the demanded message bit for bit.  A receiver's
bookkeeping works on a phase's spans, each a contiguous library range on
contiguous rows of one gather column: a block is known when every span its
rows touch is, and an XOR group yields its one missing constituent span.
Trials run in blocks, level-major: a block's runs are all drawn first, then
the phases are decoded by dependency level (a phase that overlaps no
earlier phase is at level 0, any other one level above the highest earlier
phase it overlaps), every phase of a level at every run's receivers in one
batched call, before the next level.  A block holds as many runs as fit in
``_BLOCK_BYTES`` (16 MiB) of run state (``_Delivery.run_bytes``); a run
larger than that is a block of its own.  A block derives the Philox keys of
all the streams it draws in one pass and draws each by re-keying one
generator it holds (``_seeding.block_streams``), which gives the values
``derived_rng`` gives for the same seed and tags.  The error probability is
estimated over the union of all feasible demands: trial j fails when any
receiver fails for any demand, with run (demand index, j) seeded by (base
seed, demand index, j) so results are bit-identical regardless of execution
order or blocking.

A receiver whose message is provably lost is not decoded further.  The
library-free knowledge pass (``_outlook``) runs ``_reception``'s
known-block rule and ``_absorb``'s rules on one receiver's cached mask,
taking every phase it decodes as decoded.  It gives, per receiver k and
phase q, the fewest unknown blocks k can have in q, and whether k's message
is complete with q left out.  Receiver k is doomed when some phase q is lost
to it, either in advance (it receives fewer packets of q than that fewest
count) or in fact (its decode of q failed), and its message is incomplete
without q.  The rule is exact: knowledge only grows (a cached bit, a plain
item and an XOR group's one missing constituent each add bits, and an XOR
group with more known constituents yields at least as much), so a
receiver's real knowledge is always a subset of the pass's, and a doomed
receiver really fails.  Receivers are independent and coefficient rows are
drawn by index, so dropping one changes no other receiver's result.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import codec
# transmit is not called here; it stays importable from this module, where
# the benchmark's tracer (benchmarks/workloads.py) looks it up by name
from .channel import erasures, transmit  # noqa: F401
from .model import (
    ConfigError,
    SchemeParameters,
    SystemConfig,
    check_count,
    config_to_dict,
    validate_demand,
)
from .placement import (
    MAX_HELD_BYTES,
    build_caches,
    build_prefix_caches,
    draw_library,
    message_lengths,
    sub_message_layout,
)
from .regions import (
    HIGHS_INF,
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
from ._seeding import (
    CHANNEL_STREAM,
    CODEC_STREAM,
    LIBRARY_STREAM,
    block_streams,
    check_seed,
    seed_material,
)

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

# each two-receiver scheme's rate (delta1, delta2, F, D, M) -> R, and the
# cache sizes it gives the two receivers at sweep grid parameter M
_TWO_RX = {
    "symmetric-2rx": (two_rx_symmetric_rate, lambda M: (M, M)),
    "separate-asym-2rx": (two_rx_separate_asym_rate, lambda M: (2 * M, 0.0)),
    "joint-2rx": (lambda *args: two_rx_joint_rate(*args)[0], lambda M: (2 * M, 0.0)),
}


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


def _backed_off(backoff: float, rates) -> tuple[float, ...]:
    """``rates`` times ``backoff``; a product that overflows, or reaches
    ``HIGHS_INF``, which the slack-fit LP's HiGHS would read as infinite,
    is a ConfigError naming ``backoff``."""
    out = tuple(backoff * r for r in rates)
    if not all(r < HIGHS_INF for r in out):
        raise ConfigError(
            f"backoff must keep the rates finite and below {HIGHS_INF:g}, "
            f"got {backoff} times {tuple(rates)}"
        )
    return out


def plan_scheme(
    cfg: SystemConfig, scheme: str, backoff: float = 1.0, params: SchemeParameters | None = None
) -> SchemePlan:
    """Resolve a scheme name into concrete simulation parameters.

    For the XOR schemes the nominal rate comes from the matching analytic
    operation; the simulated rate is backoff * nominal, and the phase
    fractions / piggyback rates are re-fit at that rate by maximizing the
    minimum constraint slack (negative when backoff > 1, which is how the
    over-capacity experiments are driven).  Only ``general`` takes
    ``params``, whose K0 and t it keeps; any other scheme rejects them.
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if params is not None and scheme != "general":
        raise ConfigError(f"params apply to the general scheme only, not to {scheme!r}")
    if not (math.isfinite(backoff) and backoff > 0):
        raise ConfigError(f"backoff must be finite and positive, got {backoff}")

    if scheme == "common-demand":
        if cfg.demand_set.kind != "common":
            raise ConfigError("common-demand scheme requires demand_set.kind == 'common'")
        inside, witness = common_demand_contains(cfg)
        if not inside:
            raise ConfigError("nominal rates lie outside the common-demand region")
        rates_sim = _backed_off(backoff, cfg.rates)
        return SchemePlan(
            scheme=scheme,
            backoff=backoff,
            cfg_sim=replace(cfg, rates=rates_sim),
            rates_nominal=cfg.rates,
            allocation=tuple(tuple(row) for row in witness),
        )

    if scheme in _TWO_RX:
        if cfg.K != 2:
            raise ConfigError(f"{scheme} requires K=2")
        if scheme == "symmetric-2rx":
            if abs(cfg.memories[0] - cfg.memories[1]) > 1e-9:
                raise ConfigError("symmetric-2rx requires equal cache sizes")
            M_param = cfg.memories[0]
            K0, t, layout_M = 2, 1, M_param
        else:
            if cfg.memories[1] > 1e-12:
                raise ConfigError(f"{scheme} requires an empty cache at receiver 2")
            M_param = cfg.memories[0] / 2.0
            K0, t, layout_M = 1, 1, cfg.memories[0]
        nominal = _TWO_RX[scheme][0](cfg.delta(1), cfg.delta(2), cfg.F, cfg.D, M_param)
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

    (rate_sim,) = _backed_off(backoff, (nominal,))
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


_BLOCK_BYTES = 16 << 20  # run state a block of runs decoded together may hold


def _decoded(k: int, phases) -> range:
    """The numbers of the ``phases`` receiver k decodes: phase q reaches
    receivers q..K, so k decodes phases 1..k."""
    return range(1, min(k, len(phases)) + 1)


def _levels(phases, size: int) -> tuple[tuple[int, ...], ...]:
    """The numbers of the nonempty ``phases``, level by level, each level in
    phase order.  Phase q's dependency level is 0 when no earlier phase's
    spans overlap its own, else one more than the highest level among the
    earlier phases it overlaps; ``size`` is the library's length in bits
    plus one.  Phases of one level share no library bit."""
    top = np.zeros(size, np.min_scalar_type(len(phases)))  # 1 + the highest level over each bit
    levels = []
    for q, phase in enumerate(phases, start=1):
        at = phase.gather[phase.gather != PAD]  # the phase's spans, bit by bit
        if not len(at):
            continue
        level = int(top[at].max())
        top[at] = level + 1
        if level == len(levels):
            levels.append([])
        levels[level].append(q)
    return tuple(map(tuple, levels))


@dataclass(eq=False)
class _Pattern:
    """One compiled schedule, shared by every demand of its pattern.

    ``phases`` are over library positions: a run lays its messages out so
    that position ``labels[k-1]`` holds receiver k's message
    (``_library_order``).  ``levels`` are the phase numbers of each
    dependency level (``_levels``) and ``readers[q-1]`` the receivers that
    decode phase q (``_decoded``).  ``outlook`` is the knowledge pass, made
    when a run first consults it (``_Delivery.outlook``)."""

    phases: tuple[PhaseIndex, ...]
    labels: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]
    readers: tuple[tuple[int, ...], ...]
    outlook: tuple[np.ndarray, np.ndarray] | None = None


def _pattern(phases, labels, cached: np.ndarray) -> _Pattern:
    """The ``_Pattern`` of ``phases`` and ``labels`` over the cached masks
    ``cached`` of K receivers."""
    K, size = cached.shape
    readers = [[] for _ in phases]
    for k in range(1, K + 1):
        for q in _decoded(k, phases):
            readers[q - 1].append(k)
    return _Pattern(phases, tuple(labels), _levels(phases, size), tuple(map(tuple, readers)))


def _library_order(labels, demand, D: int) -> list[int]:
    """The messages of a run's library, position by position: position
    ``labels[k-1]`` holds receiver k's message ``demand[k-1]``, and the
    other positions hold the messages nobody demands, in increasing order."""
    at = dict(zip(labels, demand))
    rest = iter(sorted(set(range(1, D + 1)).difference(demand)))
    return [at[p] if p in at else next(rest) for p in range(1, D + 1)]


@dataclass(frozen=True)
class _Delivery:
    """The trials of one experiment, whatever the scheme.

    Library position p spans ``offsets[p-1]:offsets[p]`` of the flat library
    (``flat_library``); ``cached`` are the receivers' cached-bit masks over
    it and ``compile(demand)`` gives a demand's ``_Pattern``.  An experiment
    makes these once.  Receiver k's knowledge is bit values and a known mask
    over the flat library, seeded from its cache and grown by the phases it
    decodes (``_decoded``).
    """

    cfg: SystemConfig
    cached: np.ndarray  # (K, library bits + 1)
    offsets: tuple[int, ...]
    compile: Callable[..., _Pattern]

    def run_bytes(self, pattern: _Pattern) -> int:
        """The state ``run`` holds for one run of ``pattern``: its library,
        K known masks and K value rows over it, the phases' source blocks and
        the erasures of all K receivers over every channel use."""
        K, L = self.cached.shape
        return (2 * K + 1) * L + sum(len(ph.gather) + K * ph.budget_uses for ph in pattern.phases)

    def outlook(self, pattern: _Pattern) -> tuple[np.ndarray, np.ndarray]:
        """The knowledge pass (``_outlook``) of ``pattern``, made once."""
        if pattern.outlook is None:
            pattern.outlook = _outlook(
                self.cached, pattern.phases, pattern.labels, self.offsets, self.cfg.F
            )
        return pattern.outlook

    def _send(self, pattern: _Pattern, demand, streams):
        """Draw a run's library and the erasures of all its channel uses
        from its library and channel ``streams``.  Returns the flat library,
        its messages in ``_library_order``, each phase's (B, F) source
        blocks, the erasures, and the channel uses of each phase (phase p
        owns ``uses[p-1]:uses[p]``).  Nothing is encoded here:
        ``codec.decode_batch`` takes the source blocks and encodes the
        packets it reads."""
        cfg, F = self.cfg, self.cfg.F
        drawn = draw_library(cfg, streams[0])
        library = flat_library([drawn[d - 1] for d in _library_order(pattern.labels, demand, cfg.D)])
        blocks = [gather_bits(library, phase.gather).reshape(-1, F) for phase in pattern.phases]
        uses = [0]
        for phase in pattern.phases:
            uses.append(uses[-1] + phase.budget_uses)
        return library, blocks, erasures(uses[-1], cfg.deltas, streams[1]), uses

    def _lookahead(self, pattern: _Pattern, blocks, erased, uses) -> list[bool]:
        """Which receivers of one run are doomed before any decode: receiver
        k, with two or more phases to decode, receives fewer packets of one
        of them than the fewest unknown blocks it can have there, and its
        message is incomplete without that phase (``_doomed``).  A phase is
        only looked up in the pass when k receives fewer packets of it than
        it has blocks, the pass's upper bound."""
        K, P = self.cfg.K, len(pattern.phases)
        sizes = [len(b) for b in blocks]
        # the uses of each phase that each receiver misses; reduceat needs
        # rising starts, so a phase without uses is left out of it
        used = [q for q in range(P) if uses[q + 1] > uses[q]]
        missed = np.zeros((K, P), dtype=np.int64)
        if used:
            starts = [uses[q] for q in used]
            missed[:, used] = np.add.reduceat(erased.view(np.uint8), starts, axis=1, dtype=np.int64)
        missed = missed.tolist()
        doomed = [False] * K
        for k in range(1, K + 1):
            mine = [q for q in _decoded(k, pattern.phases) if sizes[q - 1]]
            if len(mine) < 2:
                continue  # a lone phase's short reception fails without a solve
            for q in mine:
                received = uses[q] - uses[q - 1] - missed[k - 1][q - 1]
                if received < sizes[q - 1] and _doomed(self.outlook(pattern), k, q, received):
                    doomed[k - 1] = True
                    break
        return doomed

    def run(self, runs) -> list[list[bool]]:
        """Per-receiver success flags of each (pattern, demand, seed) run.

        The runs go level-major: every run's library and erasures are drawn
        first; then, dependency level by level (``_levels``), every phase at
        that level is decoded at its live receivers of every run in one
        ``codec.decode_batch`` call, and the results are absorbed run by
        run, in phase order, before the next level.  This gives each
        receiver exactly what decoding phase after phase would: an absorb
        writes only inside its phase's spans and a reception reads only
        there, so phases whose spans do not overlap commute, and a phase
        comes after every earlier phase it overlaps.  Receivers are
        independent, so each sees exactly what a run on its own would give
        it.  The keys of every stream the block draws (each run's library
        and channel streams and the codec stream of each of its phases) are
        derived in one pass, and every draw re-keys one generator that this
        call holds (``block_streams``).

        A doomed receiver (``_doomed``) gets no further reception and no
        decoder system, and its flag is False.  The erasures decide before
        any decode which receivers are doomed in advance (``_lookahead``),
        and a failed decode with a later phase left to decode dooms its
        receiver when the message is incomplete without it.  This is exact:
        a doomed receiver's real knowledge is a subset of what the
        knowledge pass gives it with the lost phase left out, so it would
        fail, even where a later phase of its level was already decoded;
        and the other receivers' systems and coefficient rows, drawn by
        packet index, do not change."""
        cfg, F = self.cfg, self.cfg.F
        tags = [(LIBRARY_STREAM,), (CHANNEL_STREAM,)]
        tags += [(CODEC_STREAM, p) for p in range(1, cfg.K + 1)]
        streams = block_streams([seed_material(seed) for _, _, seed in runs], tags)
        sent = [self._send(pattern, demand, own) for (pattern, demand, _), own in zip(runs, streams)]
        known = [self.cached.copy() for _ in runs]  # row k-1: receiver k
        values = [library * mask for (library, *_), mask in zip(sent, known)]
        doomed = [
            self._lookahead(pattern, blocks, erased, uses)
            for (pattern, _, _), (_, blocks, erased, uses) in zip(runs, sent)
        ]
        for level in range(max(len(pattern.levels) for pattern, _, _ in runs)):
            groups, owners = [], []
            for r, (pattern, _, _) in enumerate(runs):
                _, blocks, erased, uses = sent[r]
                for q in pattern.levels[level] if level < len(pattern.levels) else ():
                    live = [k for k in pattern.readers[q - 1] if not doomed[r][k - 1]]
                    if not live:
                        continue
                    phase, B = pattern.phases[q - 1], len(blocks[q - 1])
                    span = slice(uses[q - 1], uses[q])
                    receptions = [
                        _reception(phase, B, F, values[r][k - 1], known[r][k - 1], erased[k - 1, span])
                        for k in live
                    ]
                    groups.append((blocks[q - 1], q, streams[r][q + 1], receptions))
                    owners.append((r, q, live))
            for (r, q, live), results in zip(owners, codec.decode_batch(groups)):
                pattern = runs[r][0]
                phases = pattern.phases
                for k, result in zip(live, results):
                    if doomed[r][k - 1]:
                        continue  # doomed by an earlier phase of this level
                    if result.ok:
                        decoded = result.blocks.reshape(-1)
                        _absorb(phases[q - 1], decoded, values[r][k - 1], known[r][k - 1])
                    elif any(len(phases[s - 1].gather) for s in _decoded(k, phases) if s > q):
                        doomed[r][k - 1] = _doomed(self.outlook(pattern), k, q)
        flags = []
        for (pattern, _, _), (library, *_), vals, kn, lost in zip(runs, sent, values, known, doomed):
            msgs = [slice(self.offsets[label - 1], self.offsets[label]) for label in pattern.labels]
            flags.append([
                not lost[k] and bool(kn[k, m].all()) and np.array_equal(vals[k, m], library[m])
                for k, m in enumerate(msgs)
            ])
        return flags


def _doomed(outlook, k: int, q: int, received: int | None = None) -> bool:
    """Whether receiver k's message is provably lost through phase q, by the
    knowledge pass ``outlook`` (``_outlook``): phase q is lost to k, because
    k receives fewer packets of it (``received``) than the fewest unknown
    blocks it can have there, or because its decode failed (``received``
    None); and k's message stays incomplete even if every other phase
    decodes."""
    unknown, spare = outlook
    lost = received is None or received < unknown[k - 1, q - 1]
    return bool(lost and not spare[k - 1, q - 1])


def _outlook(cached: np.ndarray, phases, labels, offsets, F: int):
    """The library-free knowledge pass of one pattern's ``phases``, receiver
    k's message at library position ``labels[k-1]``: each receiver's cached
    mask through ``_known_blocks`` and ``_absorb``, taking every phase it
    decodes as decoded.  Returns (unknown, spare), two (K,
    phases) arrays: ``unknown[k-1, q-1]`` is the number of unknown blocks
    receiver k hands the decoder in phase q when its phases before q all
    decoded, the fewest it can have there since knowledge only grows;
    ``spare[k-1, q-1]`` is whether k's message is complete with phase q
    left out and every other phase decoded."""
    K, P = len(cached), len(phases)
    unknown = np.zeros((K, P), dtype=np.int64)
    spare = np.zeros((K, P), dtype=bool)
    # _absorb moves bit values too; all-zero decoded bits keep these zero
    values = np.zeros(cached.shape[1], dtype=np.uint8)
    decoded = np.zeros(max((len(phase.gather) for phase in phases), default=0), dtype=np.uint8)
    for k in range(1, K + 1):
        message = slice(offsets[labels[k - 1] - 1], offsets[labels[k - 1]])
        mine = [(q, phases[q - 1]) for q in _decoded(k, phases) if len(phases[q - 1].gather)]
        known = cached[k - 1].copy()  # k's knowledge after the phases before q
        for i, (q, phase) in enumerate(mine):
            unknown[k - 1, q - 1] = np.count_nonzero(~_known_blocks(phase, F, known))
            without = known.copy()
            for _, later in mine[i + 1 :]:
                _absorb(later, decoded[: len(later.gather)], values, without)
            spare[k - 1, q - 1] = without[message].all()
            _absorb(phase, decoded[: len(phase.gather)], values, known)
    return unknown, spare


def _known_blocks(phase: PhaseIndex, F: int, known) -> np.ndarray:
    """The blocks of ``phase`` whose every constituent span the known mask
    ``known`` covers: a span not wholly known marks the blocks its rows
    touch as unknown."""
    known_blocks = np.ones(len(phase.gather) // F, dtype=bool)
    mask = known.tobytes()  # a span is wholly known when it holds no zero byte
    for lo, hi, first, stop in phase.spans:
        if mask.find(0, lo, hi) >= 0:
            known_blocks[first // F : -(-stop // F)] = False
    return known_blocks


def _reception(phase: PhaseIndex, B: int, F: int, values, known, erased) -> codec.Reception:
    """What a receiver hands the decoder for one phase: the packets it got,
    and the blocks it knows (``_known_blocks``), with their values."""
    vals_blocks = gather_bits(values, phase.gather).reshape(B, F)
    return codec.Reception((~erased).nonzero()[0], _known_blocks(phase, F, known), vals_blocks)


def _subset_delivery(plan: SchemePlan) -> _Delivery:
    """The XOR schemes: subset caches, and K phases of XOR groups, plain
    parts and piggyback slices per demand (``index_schedule``).

    A schedule's structure depends only on which demand entries coincide
    (``index_schedule`` tracks what was sent by (message, fragment)), every
    message has the same length and the subset caches are the same for
    every message.  So ``compile`` builds one schedule per equality
    pattern, the demand's first-appearance labels ((3, 1, 3, 4) becomes
    (1, 2, 1, 3)), and every demand of the pattern runs on it as it is: a
    run lays message 3 out first, then 1, then 4 (``_library_order``).
    The pattern's knowledge pass and levels live next to its schedule."""
    cfg = plan.cfg_sim
    layout = sub_message_layout(cfg, plan.params.K0, plan.params.t, plan.layout_memory)
    grants, _ = piggyback_grants(cfg, plan.params, layout)
    offsets = tuple(layout.position(d, 0) for d in range(1, cfg.D + 2))
    cached = build_caches(cfg, layout)
    patterns = {}  # the demands' labels -> their _Pattern

    def compile(demand):
        first = {}  # message -> its label
        labels = tuple(first.setdefault(d, len(first) + 1) for d in validate_demand(demand, cfg.K, cfg.D))
        if labels not in patterns:
            phases = index_schedule(cfg, plan.params, layout, grants, labels)
            patterns[labels] = _pattern(phases, labels, cached)
        return patterns[labels]

    return _Delivery(cfg, cached, offsets, compile)


def _prefix_delivery(plan: SchemePlan) -> _Delivery:
    """The common-demand scheme: prefix caches, and one random-linear phase
    of n uses over the demanded message.  Messages keep their order: a
    demand's labels are its messages."""
    cfg = plan.cfg_sim
    F, n = cfg.F, cfg.require_n()
    sizes = message_lengths(cfg)
    offsets = tuple(int(x) for x in np.cumsum([0] + sizes))
    cached = build_prefix_caches(cfg, plan.allocation)

    def compile(demand):
        if len(set(demand)) != 1:
            raise ConfigError("common-demand scheme needs identical demand entries")
        d = demand[0]
        lo, bits = offsets[d - 1], sizes[d - 1]
        gather = np.full((bits + (-bits) % F, 1), PAD, dtype=np.int64)
        gather[:bits, 0] = np.arange(lo, lo + bits)
        # one constituent and span per block: a block is known when its real
        # bits lie inside the receiver's prefix (its padding tail is known zeros)
        cuts = [(a, min(a + F, bits)) for a in range(0, bits, F)]
        spans = tuple((lo + a, lo + b, a, b) for a, b in cuts)
        consts = tuple((d, 0, a, b) for a, b in cuts)
        item = ItemIndex("uncached-part", consts, frozenset(), None, 0, len(gather))
        return _pattern((PhaseIndex(1, n, (item,), gather, spans),), demand, cached)

    return _Delivery(cfg, cached, offsets, compile)


def _absorb(phase: PhaseIndex, decoded: np.ndarray, values: np.ndarray, known: np.ndarray):
    """Add a decoded phase to a receiver's knowledge: its XOR groups in
    order, each when exactly one of its constituent spans is not fully known
    (the others are stripped from it; an earlier group can complete a later
    one's constituents), then every plain item outright, in one step
    (``PhaseIndex`` puts the plain items last)."""
    for item, (a, b) in zip(phase.items, phase.item_spans):
        if item.kind != "xor-group":
            break
        spans = phase.spans[a:b]  # one per column, all over the same rows
        missing = [span for span in spans if not known[span[0] : span[1]].all()]
        if len(missing) == 1:
            lo, hi, first, stop = missing[0]
            got = decoded[first:stop]
            for other_lo, other_hi, _, _ in spans:
                if other_lo != lo:
                    got = got ^ values[other_lo:other_hi]
            values[lo:hi] = got
            known[lo:hi] = True
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
    nominal-rate planning; a SchemePlan must be one for ``scheme``.  Returns
    per-receiver success flags; decode failure is a result, never an
    exception.  ``seed`` is a non-negative int or a sequence of them.
    """
    seed_material(seed)  # a seed that cannot be simulated fails before planning
    if isinstance(params, SchemePlan):
        if params.scheme != scheme:
            raise ConfigError(f"params is a plan for {params.scheme!r}, not for {scheme!r}")
        plan = params
    elif isinstance(params, SchemeParameters) and scheme != "common-demand":
        plan = _plan_from_parameters(cfg, scheme, params)
    else:
        plan = plan_scheme(cfg, scheme, 1.0, params)
    demand = validate_demand(demand, cfg.K, cfg.D)
    return _trial_runner(cfg, plan, [demand])(demand, seed)


def _experiment(cfg: SystemConfig, plan: SchemePlan, demands):
    """The delivery of one experiment over ``demands`` and each distinct
    demand's ``_Pattern``.  A plan with a cache allocation (common
    demand) places prefixes, any other places subsets.

    A phase's largest decoder system reads every packet of the phase: for
    its right-hand side each packet's coefficient row is unpacked to B
    bytes, one per block, for the BLAS product, or on a large system
    indexed by ceil(B/8) byte offsets of 8 bytes each for the table product
    (``codec._table_product``), about B bytes again; the system holds
    ceil((B + F)/8) bytes of it packed.  So a plan where the packets times
    the larger of the two exceeds ``MAX_HELD_BYTES`` is rejected, naming
    ``n``, before any is drawn."""
    for demand in demands:
        if not cfg.demand_set.contains(demand, cfg.K, cfg.D):
            raise ConfigError(f"demand {demand} is not in the feasible set")
    delivery = (_prefix_delivery if plan.allocation is not None else _subset_delivery)(plan)
    compiled = {d: delivery.compile(d) for d in dict.fromkeys(demands)}
    F = cfg.F
    for pattern in compiled.values():
        for phase in pattern.phases:
            B = len(phase.gather) // F
            held = phase.budget_uses * max(B, (B + F + 7) // 8)
            if held > MAX_HELD_BYTES:
                raise ConfigError(
                    f"n={cfg.n} gives phase {phase.receiver} a decoder system of up to "
                    f"{phase.budget_uses} packets over {B} blocks; that is {held} bytes, "
                    f"above the bound of {MAX_HELD_BYTES}"
                )
    return delivery, compiled


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
        return asdict(self)


def estimate_pe(
    cfg: SystemConfig,
    scheme: str,
    params=None,
    backoff: float | None = None,
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
    any demand in that trial.  ``params`` is a SchemePlan for ``scheme``,
    or what ``plan_scheme`` takes.  ``backoff`` defaults to 0.9 when
    ``estimate_pe`` plans, and to the plan's own when given a plan; a plan
    rejects any other.  ``seed`` is a non-negative int.  Runs go
    single-threaded; ``threads`` accepts only 1.
    """
    seed = check_seed(seed)
    check_count("trials", trials)
    check_count("demand_cap", demand_cap)
    if threads != 1:
        raise ConfigError(f"threads must be 1 (runs are single-threaded), got {threads!r}")
    t0 = time.perf_counter()
    if isinstance(params, SchemePlan):
        if params.scheme != scheme:
            raise ConfigError(f"params is a plan for {params.scheme!r}, not for {scheme!r}")
        if backoff is not None and backoff != params.backoff:
            raise ConfigError(f"backoff {backoff} differs from the plan's {params.backoff}")
        plan = params
    else:
        plan = plan_scheme(cfg, scheme, 0.9 if backoff is None else backoff, params)
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
    # as many runs per block as _BLOCK_BYTES holds; a larger run is a block alone
    size = max(1, _BLOCK_BYTES // max(map(delivery.run_bytes, compiled.values())))
    for i in range(0, len(jobs), size):
        block = jobs[i : i + size]
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
    seed = check_seed(seed)
    if cfg.K != 2:
        raise ConfigError("sweep covers the two-receiver schemes; K must be 2")
    rows = []
    for M in memory_grid:
        for scheme in schemes:
            if scheme not in _TWO_RX:
                raise ConfigError(f"sweep supports {sorted(_TWO_RX)}, got {scheme!r}")
            rate, memories = _TWO_RX[scheme]
            try:
                R = rate(cfg.delta(1), cfg.delta(2), cfg.F, cfg.D, M)
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
                cfg_row = replace(cfg, memories=memories(float(M)))
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
