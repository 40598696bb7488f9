"""Delivery-phase construction and verification.

The delivery runs in K time-sharing phases; phase k is decodable by
receivers k..K and has a budget of floor(beta_k * n) channel uses.  For the
cached receivers (k <= K0) phase k carries

* every XOR group whose weakest member is k: for a set S of t+1 cached
  receivers, the bitwise XOR of the t+1 fragments each of which is demanded
  by one member and cached at exactly the other t members;
* the uncached remainder fragment of receiver k's demand;
* piggyback slices: bits of uncached receivers' demands that receiver k
  already holds in its cache, so they occupy the phase without costing
  receiver k any channel capacity.

Phase kt > K0 carries whatever of message d_kt was not sent plainly before.

Piggyback slices are assigned disjoint bit ranges.  Amounts per (phase,
fragment) come from an exact max-flow over the eligibility structure (a
greedy split can strand bits when fragments are shared by several phases,
i.e. t >= 2); within a fragment, positions are handed out in fragment order,
earliest bits first.  The amounts depend only on the layout and the scheme
parameters, so ``piggyback_grants`` computes them once for any number of
demands.  The max-flow (``maximum_flow``) is Dinic's, in plain Python over
at most K0 + tau + 2 nodes: it gives scipy's
``scipy.sparse.csgraph.maximum_flow(method="dinic")`` flow on every edge
but needs no scipy, so scheduling loads no ``scipy.sparse`` or
``scipy.linalg``.

The schedule does not depend on the library bits: ``index_schedule`` gives
every payload bit as the library positions whose XOR it is (see
``PhaseIndex``), and ``gather_bits`` reads those positions from one library
laid out by ``flat_library``.  ``build_schedule`` is the schedule of one
demand with its piggyback max-flow run alongside.

Verification mirrors the per-phase LP accounting: piggyback bits count as
known only at the phase owner (the extra knowledge other cached receivers
may have is deliberately ignored), every other item counts as known only for
receivers that can reconstruct all its constituent bits from cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .model import ConfigError, SchemeParameters, SystemConfig, validate_demand
from .placement import SubMessageLayout

__all__ = [
    "PAD",
    "PhaseSchedule",
    "ItemIndex",
    "PhaseIndex",
    "flat_library",
    "gather_bits",
    "piggyback_grants",
    "index_schedule",
    "build_schedule",
    "receiver_unknown_bits",
    "verify_schedule",
    "VerifyReport",
]

PAD = -1  # position of the zero bit that flat_library appends


def flat_library(library) -> np.ndarray:
    """The messages back to back, followed by the zero bit at ``PAD``."""
    return np.concatenate([np.asarray(m, dtype=np.uint8) for m in library] + [np.zeros(1, np.uint8)])


def gather_bits(flat: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """Bit j is the XOR of ``flat`` at the positions in row j of ``gather``.
    The columns are XORed one at a time: on gathers two to four wide that
    is several times faster than ``np.bitwise_xor.reduce`` over axis 1."""
    out = flat[gather[:, 0]]
    for c in range(1, gather.shape[1]):
        out ^= flat[gather[:, c]]
    return out


@dataclass(frozen=True)
class ItemIndex:
    """One transmitted unit inside a phase: rows ``start:stop`` of its
    phase's gather map.

    ``constituents`` are (message d, fragment i, start, stop) bit ranges; an
    XOR group lists the t+1 full fragments it combines, plain items list the
    ranges they concatenate.  The rows are padded to a multiple of F.
    ``known_to`` is the set of receivers able to reconstruct every
    constituent bit from cache alone; ``owner`` is the phase receiver for
    piggyback slices.
    """

    kind: str  # 'xor-group' | 'uncached-part' | 'piggyback-slice'
    constituents: tuple[tuple[int, int, int, int], ...]
    known_to: frozenset[int]
    owner: int | None
    start: int
    stop: int

    @property
    def padded_bits(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class PhaseIndex:
    """One phase of the schedule as library positions.

    ``gather`` has one row per payload bit and t+1 columns when the phase
    carries XOR groups, else one.  Row j lists the flat library positions
    (``flat_library``) whose XOR is payload bit j: the t+1 constituents of
    an XOR group, or one position of a plain item followed by ``PAD``;
    padding rows are all ``PAD``.  ``spans`` gives every constituent range
    as (library start, library stop, first row, row stop): a contiguous
    library range laid on contiguous rows of one gather column.  They come
    item by item, one per constituent, so item i's spans are
    ``spans[a:b]`` for ``(a, b) = item_spans[i]``; an XOR group's are its
    t+1 columns over the same rows.

    XOR groups come before plain items, so the plain items
    (``uncached-part``, ``piggyback-slice``) fill rows ``plain_start:`` and
    a receiver can take a phase's plain bits in one step.
    """

    receiver: int
    budget_uses: int
    items: tuple[ItemIndex, ...]
    gather: np.ndarray
    spans: tuple[tuple[int, int, int, int], ...]
    plain_start: int = field(init=False, repr=False)
    item_spans: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        plain_start, item_spans, at = None, [], 0
        for item in self.items:
            if item.kind != "xor-group":
                plain_start = item.start if plain_start is None else plain_start
            elif plain_start is not None:
                raise ValueError("a phase's XOR groups must come before its plain items")
            item_spans.append((at, at + len(item.constituents)))
            at += len(item.constituents)
        if at != len(self.spans):
            raise ValueError("a phase needs one span per item constituent")
        plain_start = len(self.gather) if plain_start is None else plain_start
        object.__setattr__(self, "plain_start", plain_start)
        object.__setattr__(self, "item_spans", tuple(item_spans))


@dataclass(frozen=True)
class PhaseSchedule:
    demand: tuple[int, ...]
    phases: tuple[PhaseIndex, ...]
    piggyback_shortfall_bits: int = 0  # requested minus assignable slice bits


def _known_to_subset(layout: SubMessageLayout, constituents, K: int) -> frozenset[int]:
    """Receivers caching every constituent range (subset placement: receiver
    k holds fragment (d, i) for all d exactly when k is in subsets[i])."""
    known = set(range(1, K + 1))
    for (_, i, _, _) in constituents:
        known &= set(layout.subsets[i])
    return frozenset(known)


def _item_rows(layout: SubMessageLayout, kind: str, constituents, width: int, row: int = 0):
    """The gather rows of one item starting at phase row ``row``, padded to a
    multiple of F, and its constituent ranges as ``PhaseIndex.spans``."""
    columns = [[c] for c in constituents] if kind == "xor-group" else [constituents]
    data = sum(b - a for (_, _, a, b) in columns[0])  # XOR constituents are equally long
    gather = np.full((data + (-data) % layout.F, width), PAD, dtype=np.int64)
    spans = []
    for c, ranges in enumerate(columns):
        r = 0
        for (d, i, a, b) in ranges:
            start = layout.position(d, i, a)
            gather[r : r + b - a, c] = np.arange(start, start + b - a)
            spans.append((start, start + b - a, row + r, row + r + b - a))
            r += b - a
    return gather, spans


def _xor_constituents(layout: SubMessageLayout, demand, S):
    """The XOR group of a set S of t+1 cached receivers: member k contributes
    the fragment of its demand whose caching subset is exactly S minus k, so
    every member can strip the other t from cache."""
    constituents = []
    for k in S:
        i_k = layout.subset_index(tuple(x for x in S if x != k))
        constituents.append((demand[k - 1], i_k, 0, layout.piece_bits[i_k]))
    return tuple(constituents)


# -- piggyback slice assignment ---------------------------------------------


def maximum_flow(n: int, edges, source: int, sink: int) -> list[int]:
    """A maximum flow from ``source`` to ``sink`` over nodes ``0..n-1``, by
    Dinic's blocking-flow algorithm; ``edges`` are (tail, head, capacity)
    with integer capacities.  Returns the flow on each edge, in order.

    The flow is the one ``scipy.sparse.csgraph.maximum_flow(method="dinic")``
    gives, edge for edge, without scipy: the same residual graph (each
    node's out-edges, zero-capacity reverse edges included, by increasing
    head; an edge and its opposite are each other's reverse), level graphs
    by breadth-first search, and blocking flows by a depth-first search that
    keeps a progress pointer per node, moves the parent's pointer on at a
    dead end and augments each path by its smallest residual capacity.  As
    there, the flow of an edge whose opposite is also given is the net
    flow, and repeated edges add their capacities.
    """
    residual: dict[tuple[int, int], int] = {}
    for u, v, c in edges:
        residual[u, v] = residual.get((u, v), 0) + int(c)
        residual.setdefault((v, u), 0)
    arcs = sorted(residual)  # by tail, then head
    where = {arc: e for e, arc in enumerate(arcs)}
    head = [v for _, v in arcs]
    rev = [where[v, u] for u, v in arcs]
    cap = [residual[arc] for arc in arcs]
    flow = [0] * len(arcs)
    first = [0] * (n + 1)  # node u's arcs are first[u]:first[u + 1]
    for u, _ in arcs:
        first[u + 1] += 1
    for u in range(n):
        first[u + 1] += first[u]
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            for e in range(first[u], first[u + 1]):
                if cap[e] > 0 and level[head[e]] < 0:
                    level[head[e]] = level[u] + 1
                    queue.append(head[e])
            if level[sink] >= 0:
                break
        else:
            return [flow[where[u, v]] for u, v, _ in edges]
        progress = first[:n]
        stack = [source]  # the path so far; progress[u] is the arc it takes at u
        while stack:
            u = stack[-1]
            e = progress[u]
            if cap[e] > 0 and level[head[e]] == level[u] + 1:
                if head[e] != sink:
                    stack.append(head[e])
                    continue
                push = min(cap[progress[w]] for w in stack)
                for w in stack:
                    a = progress[w]
                    cap[a] -= push
                    cap[rev[a]] += push
                    flow[a] += push
                    flow[rev[a]] -= push
                stack = [source]
                continue
            while progress[u] == first[u + 1] - 1:  # u is a dead end
                stack.pop()
                if not stack:
                    break
                u = stack[-1]
            else:
                progress[u] += 1


def _slice_flow(layout: SubMessageLayout, want_bits: np.ndarray) -> np.ndarray:
    """Split per-phase piggyback demands across eligible fragments.

    ``want_bits[k-1]`` is phase k's requested bit count for one target
    message.  Returns an (K0, tau) matrix of granted bits with disjoint
    totals per fragment; grants are maximal (max flow), so a shortfall only
    occurs when the requests genuinely exceed the union of eligible bits.
    """
    K0, tau = layout.K0, layout.tau
    frag_bits = layout.piece_bits[:tau]
    src, snk = 0, 1 + K0 + tau
    edges = []
    for k in range(1, K0 + 1):
        if want_bits[k - 1] > 0:
            edges.append((src, k, int(want_bits[k - 1])))
        for i in layout.pieces_cached_at(k):
            if frag_bits[i] > 0:
                edges.append((k, 1 + K0 + i, frag_bits[i]))
    for i in range(tau):
        if frag_bits[i] > 0:
            edges.append((1 + K0 + i, snk, frag_bits[i]))
    grant = np.zeros((K0, tau), dtype=np.int64)
    if want_bits.sum() == 0:
        return grant
    for (u, v, _), f in zip(edges, maximum_flow(snk + 1, edges, src, snk)):
        if u != src and v != snk:
            grant[u - 1, v - 1 - K0] = f
    return grant


def piggyback_grants(
    cfg: SystemConfig, params: SchemeParameters, layout: SubMessageLayout
) -> tuple[dict[int, np.ndarray], int]:
    """Granted piggyback bits and the requested bits left ungranted.

    The grants map each uncached receiver kt > K0 to a (K0, tau) matrix: the
    bits of fragment i of kt's demand that ride in phase k.  They depend on
    neither the demand nor the library.
    """
    K0, t = params.K0, params.t
    n = cfg.require_n()
    params.validate(cfg.K)
    if (layout.K0, layout.t) != (K0, t):
        raise ConfigError("layout does not match scheme parameters")
    grants, shortfall = {}, 0
    for kt in range(K0 + 1, cfg.K + 1):
        want = np.array(
            [math.floor(n * params.piggyback_rate(k, kt)) for k in range(1, K0 + 1)],
            dtype=np.int64,
        )
        grants[kt] = _slice_flow(layout, want)
        shortfall += int(want.sum() - grants[kt].sum())
    return grants, shortfall


def index_schedule(
    cfg: SystemConfig,
    params: SchemeParameters,
    layout: SubMessageLayout,
    grants: dict[int, np.ndarray],
    demand,
) -> tuple[PhaseIndex, ...]:
    """The K-phase delivery schedule for one demand tuple, as library
    positions; ``grants`` come from ``piggyback_grants`` for the same
    parameters and layout.

    Demand tuples with repeated entries reuse the distinct-demand
    construction (correct, possibly conservative); bits sent plainly in an
    early phase are excluded from the plain remainder phases kt > K0.
    Budget sufficiency is checked by verify_schedule, not here.
    """
    K, K0, t, tau = cfg.K, params.K0, params.t, layout.tau
    n = cfg.require_n()
    demand = validate_demand(demand, K, cfg.D)

    sent: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def register(d, i, a, b):
        sent.setdefault((d, i), []).append((a, b))

    def remaining(d, i):
        length = layout.piece_bits[i]
        out, cur = [], 0
        for a, b in sorted(sent.get((d, i), [])):
            if a > cur:
                out.append((cur, a))
            cur = max(cur, b)
        if cur < length:
            out.append((cur, length))
        return out

    cursors = {kt: np.zeros(tau, dtype=np.int64) for kt in grants}

    phases = []
    for k in range(1, K + 1):
        specs = []
        if k <= K0:
            for rest in combinations(range(k + 1, K0 + 1), t):
                consts = _xor_constituents(layout, demand, (k,) + rest)
                specs.append(("xor-group", consts, _known_to_subset(layout, consts, K), None))
            if layout.piece_bits[tau] > 0:
                rng = (demand[k - 1], tau, 0, layout.piece_bits[tau])
                specs.append(("uncached-part", (rng,), frozenset(), None))
                register(*rng)
            for kt in range(K0 + 1, K + 1):
                row = grants[kt][k - 1]
                if row.sum() == 0:
                    continue
                consts = []
                for i in range(tau):
                    if row[i] == 0:
                        continue
                    a = int(cursors[kt][i])
                    b = a + int(row[i])
                    cursors[kt][i] = b
                    consts.append((demand[kt - 1], i, a, b))
                    register(*consts[-1])
                specs.append(
                    ("piggyback-slice", tuple(consts), _known_to_subset(layout, consts, K), k)
                )
        else:
            d_k = demand[k - 1]
            for i in range(tau + 1):
                consts = tuple((d_k, i, a, b) for a, b in remaining(d_k, i))
                if not consts:
                    continue
                specs.append(("uncached-part", consts, _known_to_subset(layout, consts, K), None))
                for c in consts:
                    register(*c)
        # specs are (kind, constituents, known_to, owner); lay them out row after row
        width = t + 1 if any(spec[0] == "xor-group" for spec in specs) else 1
        items, gathers, spans = [], [np.zeros((0, width), np.int64)], []
        for spec in specs:
            row = items[-1].stop if items else 0
            gather, item_spans = _item_rows(layout, spec[0], spec[1], width, row)
            items.append(ItemIndex(*spec, row, row + len(gather)))
            gathers.append(gather)
            spans += item_spans
        budget = min(n, math.floor(params.beta[k - 1] * n))
        phases.append(PhaseIndex(k, budget, tuple(items), np.concatenate(gathers), tuple(spans)))
    return tuple(phases)


def build_schedule(
    cfg: SystemConfig,
    params: SchemeParameters,
    layout: SubMessageLayout,
    demand,
) -> PhaseSchedule:
    """The K-phase delivery schedule for one demand tuple (``index_schedule``
    with the grants of ``piggyback_grants``) and its piggyback shortfall."""
    grants, shortfall = piggyback_grants(cfg, params, layout)
    phases = index_schedule(cfg, params, layout, grants, demand)
    return PhaseSchedule(validate_demand(demand, cfg.K, cfg.D), phases, shortfall)


def _counts_unknown(item: ItemIndex, j: int) -> bool:
    """Accounting rule shared with the phase LP: piggyback bits are credited
    only to the phase owner; everything else to receivers caching it all."""
    if item.kind == "piggyback-slice":
        return j != item.owner
    return j not in item.known_to


def receiver_unknown_bits(schedule: PhaseSchedule, k: int) -> list[tuple[int, int]]:
    """Per-phase unknown payload bits for receiver k over the phases it must
    decode (phase indices p <= k).  Returns [(phase, unknown_bits), ...]."""
    if not 1 <= k <= len(schedule.phases):
        raise ConfigError(f"receiver index {k} out of range")
    out = []
    for p, phase in enumerate(schedule.phases, start=1):
        if p > k:
            break
        unknown = sum(
            it.padded_bits for it in phase.items if _counts_unknown(it, k)
        )
        out.append((p, int(unknown)))
    return out


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    rows: tuple[dict, ...] = field(default_factory=tuple)

    def failures(self):
        return [r for r in self.rows if not r["ok"]]


def verify_schedule(
    schedule: PhaseSchedule,
    cfg: SystemConfig,
    margin: float = 1.0,
) -> VerifyReport:
    """Deterministic capacity check: for every phase p and every receiver
    j >= p, the unknown payload bits must fit inside
    margin * budget_p * F * (1 - delta_j) plus F * (#items + 1) bits.

    The F * (#items + 1) bits of a phase absorb the provable floor/pad noise
    between the rate-level constraint system and integer bit counts: each
    item is padded up by less than F and the phase budget is floored by
    less than one use.
    """
    if not 0.0 < margin <= 1.0:
        raise ConfigError(f"margin must lie in (0, 1], got {margin}")
    rows = []
    ok = True
    for p, phase in enumerate(schedule.phases, start=1):
        slack = cfg.F * (len(phase.items) + 1)
        for j in range(p, cfg.K + 1):
            unknown = sum(
                it.padded_bits for it in phase.items if _counts_unknown(it, j)
            )
            capacity = margin * phase.budget_uses * cfg.F * (1.0 - cfg.delta(j))
            row_ok = unknown <= capacity + slack
            ok = ok and row_ok
            rows.append(
                {
                    "phase": p,
                    "receiver": j,
                    "unknown_bits": int(unknown),
                    "capacity_bits": float(capacity),
                    "slack_bits": int(slack),
                    "ok": bool(row_ok),
                }
            )
    return VerifyReport(ok=ok, rows=tuple(rows))
