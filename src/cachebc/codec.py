"""Rateless random-linear erasure code over F-bit blocks, GF(2).

A phase's payload is split into B blocks of F bits.  Packet j carries the
XOR of the blocks selected by a coefficient vector of B independent fair
bits, derived deterministically from (seed, phase id, j); one coefficient
vector serves all F bit planes.  The decoder subtracts the contribution of
blocks it already holds (cached bits, zero padding) and solves for the
rest by bit-packed Gauss-Jordan elimination.  ``decode_batch`` decodes many
receivers of many phases in one call: the systems whose row fits one
64-bit word as word systems, the others together with a batched Method of
Four Russians.  ``decode_arrays`` decodes one receiver from the packets it
received, on its own path, and ``solve_gf2`` is the single-system form of
``solve_gf2_batch``; both always take the Method of Four Russians.

A phase of B blocks of F bits with B + F <= 64 (every mc-general-k4 phase:
B <= 29, F = 16) decodes as word systems: each packet one 64-bit word, its
coefficients at bits 0..B-1 and its right-hand side at 64-F..63.  All word
systems of one F in a call are built at once, their right-hand sides from
16-entry tables per nibble of four blocks, and eliminated column by column
over one (systems, rows) array of words.  Such a system has tens of rows,
and a strip of the Method of Four Russians would build a 256-entry table
for each system, several times more entries than it has rows, on top of a
per-system build and product.

A wider system stays packed from the draw to the elimination.  The coefficient
rows are drawn as packed bytes, bit i of byte g the coefficient of block
8g+i; a system's coefficient part is those bytes for the packets it reads,
ANDed with the packed mask of its unknown blocks, so a known block stays in
place as a zero column, which never pivots.  Its right-hand side is the
payloads less the known blocks' contribution, packed to bytes that the
kernel puts right after the columns.  Over GF(2),
``payloads ^ rows[:, known] @ values[known]`` is ``rows @ (blocks ^ known
values)``, one product per system.  A system of m packets over B blocks
with m B >= ``_TABLE_PRODUCT_SIZE`` (every criterion-5 system) takes it
straight from its packed coefficient bytes with the multiplication half of
the Method of Four Russians (Albrecht, Bard and Hart, ACM TOMS 37(1),
2010): per coefficient byte, a 256-entry table of XOR combinations of its
eight blocks, one gather and an XOR over the bytes.  Its rows are never
unpacked and never reach BLAS, whose second thread stalls up to 20-fold on
a shared 2-vCPU VM.  A smaller system has too few rows to pay for the
tables and keeps the float32 BLAS product of ``_gf2_matmul``, as do
``encode_payloads`` and ``decode_arrays``, so the tests that compare them
with ``decode_batch`` check one product against the other.

The erasures do not depend on what a packet carries, so a packet need not
exist before a decoder reads it: ``decode_batch`` takes each phase's source
blocks, draws the phase's coefficient rows once, up to the last packet its
first attempts read, and each system encodes exactly the packets it reads
from its own rows, by the encode rule of ``encode_payloads``.  The first
attempt reads the first u + 16 packets a reception lists; only a
rank-deficient system with more packets is solved again on all of them.

Pure random coefficients need a little rank slack: u unknown blocks decode
with probability >= 0.99 from u + 32 received packets.  The simulation
harness budgets that slack inside its rate backoff and reports it
separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._seeding import CODEC_STREAM, stream_rng

__all__ = [
    "DecodeResult",
    "coefficient_rows",
    "encode_payloads",
    "decode_arrays",
    "decode_batch",
    "Reception",
    "solve_gf2",
    "solve_gf2_batch",
    "DEFAULT_RANK_SLACK",
]

DEFAULT_RANK_SLACK = 32


@dataclass(frozen=True)
class DecodeResult:
    ok: bool
    blocks: np.ndarray | None  # (B, F) uint8 bits on success
    rank_deficit: int


def _coefficient_bytes(seed, phase_id: int, count: int, B: int) -> np.ndarray:
    """Coefficient rows 0..count-1 as packed bytes, (count, 8 ceil(B/64)):
    bit i of byte g is the coefficient of block 8g+i; bits past B are
    filler.  Row j depends only on (seed, phase_id, j, B); ``seed`` is seed
    material, or the ``Stream`` of (seed, CODEC_STREAM, phase_id)."""
    rng = stream_rng(seed, CODEC_STREAM, int(phase_id))
    words_per_row = (B + 63) // 64
    raw = rng.bit_generator.random_raw(count * words_per_row)
    return raw.view(np.uint8).reshape(count, 8 * words_per_row)


def coefficient_rows(seed, phase_id: int, count: int, B: int) -> np.ndarray:
    """Coefficient matrix rows 0..count-1; row j depends only on
    (seed, phase_id, j, B), so encoder and decoder always agree."""
    if count == 0 or B == 0:
        return np.zeros((count, B), dtype=np.uint8)
    packed = _coefficient_bytes(seed, phase_id, count, B)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :B]


def _gf2_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(A @ X) mod 2 for 0/1 matrices; float32 keeps the products exact
    (inner dimension < 2^24) and routes through BLAS.  A is converted 1024
    rows at a time, which bounds the float copy."""
    Xf = X.astype(np.float32)
    chunks = [A[i : i + 1024] for i in range(0, len(A), 1024)] or [A]
    out = [(c.astype(np.float32) @ Xf).astype(np.int32).astype(np.uint8) & 1 for c in chunks]
    return out[0] if len(out) == 1 else np.concatenate(out)


def encode_payloads(blocks, count: int, phase_id: int, seed) -> np.ndarray:
    """The (count, F) payload matrix of ``count`` coded packets over the
    (B, F) source blocks; row j is packet j.  Always the BLAS product of
    ``_gf2_matmul``, so a large or a word ``decode_batch`` system, whose
    right-hand side comes from tables, is checked against an independent
    encode."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    B, F = blocks.shape if blocks.ndim == 2 else (0, 0)
    if B == 0:
        return np.zeros((count, blocks.shape[1] if blocks.ndim == 2 else 0), np.uint8)
    return _gf2_matmul(coefficient_rows(seed, phase_id, count, B), blocks)


# -- batched bit-packed GF(2) elimination ------------------------------------

_FIRST_ATTEMPT_EXTRA = 16  # the first solve uses the first u + 16 packets listed
# packed words one elimination pass holds (4 MiB): one criterion-5 call's
# 44 systems of its one decoding level (about 280k words) stay one chunk,
# since each chunk pays a fixed per-strip cost before any per-system work
_KERNEL_WORDS = 1 << 19


# a system of m packets over B blocks with m B at least this takes its
# right-hand side from the table product, a smaller one from BLAS.  On a
# shared 2-vCPU Xeon VM (numpy 2.4, F = 16, m = B + 16) the table product
# overtakes BLAS near m B = 6e4 with OpenBLAS's default two threads, near
# 1e5 with one.  Criterion-5 systems sit at 3.3e5-5.9e5, where it is
# 1.4-1.7x faster.  A system whose row fits a word takes neither
# (``_word_systems``)
_TABLE_PRODUCT_SIZE = 1 << 16


def _table_product(packed: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(rows @ X) mod 2 packed to (m, ceil(F/8)) bytes, where ``packed``
    holds the rows as (m, ceil(B/8)) coefficient bytes (bit i of byte g the
    coefficient of block 8g+i, any filler bits past B) and X is (B, F)
    bits: the multiplication half of the Method of Four Russians.

    Each block is packed to ceil(F/64) words.  For byte group g a table
    holds the XOR of every subset of blocks 8g..8g+7, built in eight
    doubling steps; the rows past B are zero, so filler bits add nothing.
    Row r's product is the XOR over g of table g's entry at byte g of row
    r: one gather per word of F at byte + 256 g, XOR-reduced over g.  The
    (ceil(B/8), m) index and each gather hold about m B bytes."""
    B, F = X.shape
    m, groups = packed.shape
    words = (F + 63) // 64
    bits = np.zeros((8 * groups, 64 * words), np.uint8)
    bits[:B, :F] = X
    packed_X = np.packbits(bits.reshape(-1), bitorder="little").view(np.uint64)
    packed_X = packed_X.reshape(groups, 8, words).transpose(2, 0, 1)
    table = np.empty((words, groups, 256), np.uint64)
    table[:, :, 0] = 0
    for i in range(8):
        np.bitwise_xor(table[:, :, : 1 << i], packed_X[:, :, i, None], out=table[:, :, 1 << i : 2 << i])
    index = np.add(packed.T, np.arange(0, 256 * groups, 256)[:, None], order="C")
    out = np.empty((m, words), np.uint64)
    for f in range(words):
        np.bitwise_xor.reduce(table[f].reshape(-1).take(index), axis=0, out=out[:, f])
    return out.view(np.uint8)[:, : (F + 7) // 8]


class _System(NamedTuple):
    """One GF(2) system, packed as the kernel reads it."""

    coefs: np.ndarray  # (m, bytes) uint8: bit i of byte g is column 8g+i
    rhs: np.ndarray  # (m, ceil(F/8)) uint8 right-hand side, packed the same way
    unknown: np.ndarray  # the columns solved for, in order; every other column is zero
    F: int


def _system(coefs: np.ndarray, rhs: np.ndarray, unknown: np.ndarray) -> _System:
    """The system of packed coefficient bytes ``coefs`` and (m, F) right-hand
    side bits ``rhs``, solved for the columns ``unknown``.  The rows are
    padded to whole bytes and packed as one flat array, which on small
    systems is several times faster than ``packbits`` over axis 1."""
    m, F = rhs.shape
    if F % 8:
        rhs = np.concatenate([rhs, np.zeros((m, -F % 8), np.uint8)], axis=1)
    packed = np.packbits(rhs.reshape(-1), bitorder="little").reshape(m, rhs.shape[1] // 8)
    return _System(coefs, packed, unknown, F)


def _eliminate(systems) -> list:
    """Solve ``_System``s; returns (x, deficit) per system, as ``solve_gf2``
    does.  Systems are sorted by width and eliminated together in chunks of
    at most ``_KERNEL_WORDS`` padded words each."""
    out = [None] * len(systems)
    order = sorted(range(len(systems)), key=lambda i: -systems[i].coefs.shape[1])
    start = 0
    while start < len(order):
        first = systems[order[start]]  # the chunk's widest system
        width = first.coefs.shape[1]
        stop, rows, rhs = start + 1, len(first.coefs), first.rhs.shape[1]
        while stop < len(order):
            system = systems[order[stop]]
            grown, wider = max(rows, len(system.coefs)), max(rhs, system.rhs.shape[1])
            words = (width + wider + 7) // 8
            if (stop - start + 1) * max(grown, 1) * words > _KERNEL_WORDS:
                break
            stop, rows, rhs = stop + 1, grown, wider
        chunk = order[start:stop]
        for i, result in zip(chunk, _m4ri([systems[i] for i in chunk])):
            out[i] = result
        start = stop
    return out


_BITS = [np.uint8(1 << j) for j in range(8)]
_SHIFTS = [np.uint64(i) for i in range(64)]
_ONE = np.uint64(1)


def _m4ri(systems: list) -> list:
    """Gauss-Jordan elimination of S ``_System``s at once with the Method of
    Four Russians (Albrecht, Bard and Hart, ACM TOMS 36(2), 2010).

    Row r of system s is the words ``P[:, s, r]`` of one word-major
    (W, S, rows) array: the column bytes of the chunk's widest system, then
    the right-hand-side bytes.  For each 8-column strip, a pivot search
    vectorised over the systems finds up to eight pivot rows per system,
    bit by bit: once the search has passed bit j, no candidate row (one
    that may still pivot) holds a strip bit at or below j, since each with
    bit j took the pivot's strip bits, which hold none below j.  Those pivot
    rows are reduced against each other, and one 256-entry table per system
    of their XOR combinations clears the strip from every other row with a
    single gather.  The tables are held (words, 256, S), so each doubling
    step of their build writes whole rows; with many small systems that
    builds them about twice as fast as (words, S, 256).  Rows that may still
    pivot are zero in every earlier column, so the tables and the update
    start at the strip's word.  Zero columns (known blocks, filler, a
    narrower system's missing columns) never pivot.
    """
    S = len(systems)
    C = max(system.coefs.shape[1] for system in systems)  # column bytes
    W = max(1, (C + max(system.rhs.shape[1] for system in systems) + 7) // 8)
    R = max(1, max(len(system.coefs) for system in systems))
    rows = np.zeros((S, R, 8 * W), np.uint8)
    for s, system in enumerate(systems):
        m, c = system.coefs.shape
        rows[s, :m, :c] = system.coefs
        rows[s, :m, C : C + system.rhs.shape[1]] = system.rhs
    # word w of a row holds bytes 8w..8w+7 (little-endian hosts)
    P = np.ascontiguousarray(rows.view(np.uint64).transpose(2, 0, 1))
    del rows
    P8 = P.view(np.uint8)  # P8[w, s, 8r + k] is byte 8w + k of row r
    free = np.full((S, R), 0xFF, np.uint8)  # zero on rows that already pivot
    pivot = np.full((S, 8 * C), -1, np.int64)  # pivot row of each column
    ar = np.arange(S)
    hit = np.empty((S, R), np.uint8)
    cand = np.empty((S, R), np.uint8)
    for b in range(C):
        w, k = divmod(b, 8)
        strip = P8[w, :, k::8]  # every row's strip bits before this strip
        np.bitwise_and(strip, free, out=cand)  # ... of the rows that may still pivot
        # candidates only XOR each other, so a bit none of them has never appears
        present = int(np.bitwise_or.reduce(cand, axis=None))
        if not present:
            continue
        searched, rs, pivs = [], [], []
        for j in range(8):
            if not present >> j & 1:
                continue
            # the first candidate with bit j; XOR its strip bits into every
            # candidate with bit j, which clears bit j there and its own
            # entry.  No candidate keeps a bit below j, so hit (0 or 1 << j)
            # times piv >> j is 0 or piv
            np.bitwise_and(cand, _BITS[j], out=hit)
            r = hit.argmax(axis=1)
            piv = cand[ar, r]
            np.multiply(hit, (piv >> j)[:, None], out=hit)
            cand ^= hit
            searched.append(j)
            rs.append(r)
            pivs.append(piv)
        js = np.array(searched)
        ss, i = np.nonzero((np.stack(pivs, axis=1) >> js) & 1)  # the pivots found
        rs, js = np.stack(rs, axis=1)[ss, i], js[i]
        free[ss, rs] = 0
        pivot[ss, 8 * b + js] = rs
        G = np.zeros((W - w, 8, S), np.uint64)  # the strip's pivot rows, from word w
        G[:, js, ss] = P[w:, ss, rs]
        # reduce the pivot rows against each other; a bit no system found a
        # pivot for has a zero G[:, j], and its step changes nothing
        for j in searched:
            bit = (G[0] >> _SHIFTS[8 * k + j]) & _ONE
            bit[j] = 0
            G ^= -bit & G[:, j, None]
        table = np.empty((W - w, 256, S), np.uint64)
        table[:, 0] = 0
        for j in range(8):
            np.bitwise_xor(table[:, : 1 << j], G[:, j, None], out=table[:, 1 << j : 2 << j])
        entry = np.multiply(strip, S, dtype=np.intp)
        entry += ar[:, None]
        P[w:] ^= table.reshape(W - w, 256 * S).take(entry, axis=1)
        P[w:, ss, rs] = G[:, js, ss]  # the update cleared the pivot rows themselves
    rank = np.count_nonzero(pivot >= 0, axis=1)
    solved = [s for s, system in enumerate(systems) if rank[s] == len(system.unknown)]
    # the pivot rows of every solved system's unknown columns, in block order
    at = [s * R + pivot[s, systems[s].unknown] for s in solved]
    at = np.concatenate([np.zeros(0, np.int64)] + at)
    rhs = np.ascontiguousarray(P.reshape(W, S * R)[:, at].T).view(np.uint8)[:, C:]
    bits = np.unpackbits(rhs, axis=1, count=max(s.F for s in systems), bitorder="little")
    out, start = [], 0
    for s, system in enumerate(systems):
        u = len(system.unknown)
        if rank[s] < u:
            out.append((None, u - int(rank[s])))
        else:
            out.append((np.ascontiguousarray(bits[start : start + u, : system.F]), 0))
            start += u
    return out


def solve_gf2_batch(systems) -> list:
    """Solve rows @ x = rhs over GF(2) for each (rows, rhs) pair of
    ``systems``: (m, u) rows and (m, F) rhs, any mix of m, u and F.

    Returns (x, deficit) per system: x is (u, F) when the column rank is
    full, else None with the rank deficit.
    """
    packed = []
    for rows, rhs in systems:
        rows = np.asarray(rows, dtype=np.uint8)
        coefs = np.packbits(rows, axis=1, bitorder="little")
        packed.append(_system(coefs, np.asarray(rhs, dtype=np.uint8), np.arange(rows.shape[1])))
    return _eliminate(packed)


def solve_gf2(rows: np.ndarray, rhs: np.ndarray):
    """Solve rows @ x = rhs over GF(2) for (m, u) rows and (m, F) rhs.

    Returns (x, deficit): x is (u, F) when the column rank is full, else
    None with the rank deficit.
    """
    return solve_gf2_batch([(rows, rhs)])[0]


class Reception(NamedTuple):
    """What one receiver holds of one coded phase."""

    indices: np.ndarray  # received packet indices, distinct
    known: np.ndarray  # (B,) bool: blocks the receiver already holds
    values: np.ndarray  # (B, F) bits; the rows of known blocks hold their values


def _systems(phase, todo) -> list:
    """Packed systems of the receptions ``todo`` = [(number, packet
    indices to use)] of one phase.  The phase's coefficient rows are drawn
    once, up to the last packet read, and each system is built from the
    rows of its own packets: the drawn coefficient bytes with its known
    blocks' columns cleared, and as right-hand side the payloads of those
    packets less the known blocks' contribution, encoded in one product
    over the source blocks XOR the known values: ``_table_product`` on the
    packed bytes when m B >= ``_TABLE_PRODUCT_SIZE``, else ``_gf2_matmul``
    on the unpacked rows."""
    blocks, phase_id, seed, receptions = phase
    if not todo:
        return []
    B, F = blocks.shape
    last = max(int(sel.max()) for _, sel in todo)
    drawn = _coefficient_bytes(seed, phase_id, last + 1, B)[:, : (B + 7) // 8]
    out = []
    for ri, sel in todo:
        rec = receptions[ri]
        packed = drawn[sel]
        X = blocks ^ rec.values * rec.known[:, None]
        unknown = ~rec.known
        coefs = packed & np.packbits(unknown, bitorder="little")  # filler bits clear
        if len(sel) * B >= _TABLE_PRODUCT_SIZE:
            system = _System(coefs, _table_product(packed, X), unknown.nonzero()[0], F)
        else:
            rows = np.unpackbits(packed, axis=1, count=B, bitorder="little")
            system = _system(coefs, _gf2_matmul(rows, X), unknown.nonzero()[0])
        out.append((ri, system))
    return out


# -- word systems: one 64-bit word per packet ---------------------------------

_WORD = 64  # a word system's row: coefficients at bits 0..B-1, payload at 64-F..63


class _Words(NamedTuple):
    """Word systems of one F, one per attempt: row r of system s is
    ``rows[s, r]``, bit i the coefficient of block i (zero for a known
    block and past B) and bit 64-F+j payload bit j of its right-hand side;
    the rows past a system's packets are zero.  The systems' known masks
    and known values sit one after another in ``known`` and ``values``,
    ``sizes[s]`` blocks each."""

    rows: np.ndarray  # (S, R) uint64
    known: np.ndarray  # (N,) bool, N = sizes.sum()
    values: np.ndarray  # (N, F) uint8 bits
    sizes: np.ndarray  # (S,) B of each system
    F: int


def _is_word(blocks) -> bool:
    """Whether a phase of (B, F) source blocks decodes as word systems."""
    B, F = blocks.shape
    return F >= 1 and B + F <= _WORD


def _blocks_of_systems(sizes: np.ndarray):
    """(starts, owner, place) of systems of ``sizes`` blocks whose blocks
    sit one after another: system s starts at ``starts[s]``, and block n is
    block ``place[n]`` of system ``owner[n]``."""
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return starts, owner, np.arange(len(owner)) - np.repeat(starts, sizes)


def _word_systems(phases, todo) -> _Words:
    """The ``_Words`` of the attempts ``todo`` = [(phase number, reception
    number, packet indices to use)], all of one F, every phase's B + F <= 64.

    Each phase's coefficient rows are drawn once, up to the last packet its
    attempts read, one word per row (bit i of the little-endian word is
    block i), and one gather takes every system's rows from them.  A
    system's coefficient part is those words ANDed with its unknown blocks'
    mask, which also clears the filler bits past B.  Its right-hand side is
    the payloads less the known blocks' contribution, by the encode rule of
    ``encode_payloads`` over X = blocks ^ known values: each block of X in
    the top F bits of a word, per nibble of four blocks a 16-entry table of
    their XOR combinations, built in four doubling steps, and the XOR of one
    gather per nibble of the coefficient word.  The table rows past B are
    zero, so filler bits add nothing."""
    F = phases[todo[0][0]][0].shape[1]
    S = len(todo)
    gis = [gi for gi, _, _ in todo]
    recs = [phases[gi][3][ri] for gi, ri, _ in todo]
    lens = np.array([len(sel) for _, _, sel in todo])
    read = np.concatenate([sel for _, _, sel in todo]).astype(np.intp, copy=False)
    count = {}  # phase -> rows to draw
    for gi, last in zip(gis, np.maximum.reduceat(read, np.cumsum(lens) - lens).tolist()):
        count[gi] = max(count.get(gi, 0), last + 1)
    drawn, first, offset = [np.zeros(1, np.uint64)], {}, 1  # word 0 pads the shorter systems
    for gi, c in count.items():
        blocks, phase_id, seed, _ = phases[gi]
        drawn.append(_coefficient_bytes(seed, phase_id, c, len(blocks)).view("<u8").reshape(c))
        first[gi], offset = offset, offset + c
    R = int(lens.max())
    index = np.zeros((S, R), np.intp)
    index[np.arange(R) < lens[:, None]] = read + np.repeat([first[gi] for gi in gis], lens)
    words = np.concatenate(drawn).astype(np.uint64, copy=False)[index]
    sizes = np.array([len(phases[gi][0]) for gi in gis])
    starts, owner, place = _blocks_of_systems(sizes)
    known = np.concatenate([rec.known for rec in recs])
    values = np.concatenate([rec.values for rec in recs])
    X = np.zeros((len(known), _WORD), np.uint8)  # block i's bits at 64-F..63 of row i
    top = X[:, _WORD - F :]
    np.concatenate([phases[gi][0] for gi in gis], out=top)
    top ^= values * known[:, None]
    groups = -(-int(sizes.max()) // 4)
    X_words = np.zeros((S, 4 * groups), np.uint64)
    X_words[owner, place] = np.packbits(X.reshape(-1), bitorder="little").view("<u8")
    X_words = X_words.reshape(S, groups, 4)
    tables = np.empty((S, groups, 16), np.uint64)
    tables[:, :, 0] = 0
    for k in range(4):
        np.bitwise_xor(tables[:, :, : 1 << k], X_words[:, :, k, None], out=tables[:, :, 1 << k : 2 << k])
    tables = tables.reshape(-1)
    coef_bytes = words.astype("<u8", copy=False).view(np.uint8).reshape(S, R, 8)
    entry = np.arange(0, 16 * groups * S, 16 * groups)[:, None]  # table 0 of each system
    rhs = np.zeros((S, R), np.uint64)
    for g in range(groups):
        byte = coef_bytes[:, :, g // 2]
        rhs ^= tables.take(entry + (byte >> 4 if g % 2 else byte & 15))
        entry += 16
    unknown = np.bitwise_or.reduceat((~known).astype(np.uint64) << place.astype(np.uint64), starts)
    rows = words & unknown[:, None]
    rows |= rhs
    return _Words(rows, known, values, sizes, F)


def _solve_words(systems: _Words) -> list:
    """Gauss-Jordan elimination of every ``_Words`` system at once, column
    by column: the first row that has the column's bit and is not yet a
    pivot becomes its pivot, and is XORed into every other row with the
    bit.  Known blocks and filler are zero columns and never pivot.
    Returns (blocks, deficit) per system, as ``decode_batch`` reports them:
    the (B, F) decoded blocks, the known ones as given, when every unknown
    block has a pivot (a view into one array), else None and u - rank."""
    rows, known, values, sizes, F = systems
    rows = rows.copy()
    S, R = rows.shape
    C = int(sizes.max())
    ar = np.arange(S)
    free = np.ones((S, R), bool)  # rows that are no pivot yet
    pivot = np.zeros((S, C), np.intp)  # the pivot row of each column, 0 without one
    rank = np.zeros(S, np.intp)
    for c in range(C):
        has = (rows & np.uint64(1 << c)).astype(bool)
        cand = has & free
        r = cand.argmax(axis=1)  # on bools, argmax stops at the first True
        found = cand[ar, r]
        piv = rows[ar, r] * found
        rows ^= has * piv[:, None]
        rows[ar, r] |= piv  # the XOR cleared the pivot row itself
        free[ar, r] &= ~found
        pivot[:, c] = r
        rank += found
    starts, owner, place = _blocks_of_systems(sizes)
    unknown = sizes - np.add.reduceat(known, starts, dtype=np.intp)
    # each block's x from its pivot row's top F bits; known blocks keep their values
    x = rows[owner, pivot[owner, place]].astype("<u8", copy=False)
    x = np.unpackbits(x.view(np.uint8), bitorder="little").reshape(-1, _WORD)[:, _WORD - F :]
    decoded = np.where(known[:, None], values, x)
    return [
        (decoded[a : a + b], 0) if r == u else (None, u - r)
        for a, b, u, r in zip(starts.tolist(), sizes.tolist(), unknown.tolist(), rank.tolist())
    ]


def _solve(phases, todo) -> list:
    """(blocks, deficit) of each attempt (phase number, reception number,
    packet indices to use) of ``todo``, as ``_solve_words`` gives them.  An
    attempt whose phase's row fits a word (``_is_word``) is solved with the
    other word systems of its F; every other one is built by ``_systems``
    and solved with the rest by ``_eliminate``."""
    out = [None] * len(todo)
    words, packed = {}, {}  # F -> word attempts; phase -> packed attempts
    for i, (gi, _, _) in enumerate(todo):
        blocks = phases[gi][0]
        if _is_word(blocks):
            words.setdefault(blocks.shape[1], []).append(i)
        else:
            packed.setdefault(gi, []).append(i)
    for group in words.values():
        for i, result in zip(group, _solve_words(_word_systems(phases, [todo[i] for i in group]))):
            out[i] = result
    built = []  # (attempt number, packed system)
    for gi, group in packed.items():
        built += zip(group, (system for _, system in _systems(phases[gi], [todo[i][1:] for i in group])))
    for (i, _), (x, deficit) in zip(built, _eliminate([system for _, system in built])):
        if x is None:
            out[i] = (None, deficit)
        else:
            rec = phases[todo[i][0]][3][todo[i][1]]
            blocks = rec.values.copy()
            blocks[~rec.known] = x
            out[i] = (blocks, 0)
    return out


def decode_batch(phases) -> list:
    """Decode every reception of every coded phase, the systems of each
    kind eliminated together; returns one list of ``DecodeResult`` per
    phase.

    ``phases`` holds (blocks, phase_id, seed, receptions) tuples: the
    phase's (B, F) source blocks, its codec stream (seed material, or the
    phase's ``Stream``) and a sequence of ``Reception``.  A phase's
    coefficient rows are drawn once for its first attempts, and each system
    encodes the packets it reads over ``blocks`` as ``encode_payloads``
    does, less the known blocks' contribution.

    The known blocks' contribution is thus taken off before solving.  With u
    unknown blocks and m received packets, u = 0 succeeds at once and m < u
    fails without solving; otherwise the first u + 16 packets listed are
    solved first, and only a rank-deficient system with more packets is
    solved again on all of them.  The packets are consistent, so any
    full-rank subset gives the unique solution and a final deficit is that
    of all m packets: the results do not depend on the size of the first
    attempt.

    A phase whose B coefficient bits and F payload bits fit one 64-bit
    word decodes as word systems (``_word_systems``, ``_solve_words``):
    all of them, of every phase of one F, are built and eliminated together
    as one (systems, rows) array of words.  The packed systems and the
    Method of Four Russians do not pay there: a strip's 256-entry tables
    hold several times more entries than such a system has rows.  A wider
    phase keeps ``_systems`` and ``_eliminate``.
    """
    results = [[None] * len(phase[3]) for phase in phases]
    todo = []  # (phase, reception, packets read)
    for gi, phase in enumerate(phases):
        B, receptions = len(phase[0]), phase[3]
        for ri, rec in enumerate(receptions):
            u, m = B - int(np.count_nonzero(rec.known)), len(rec.indices)
            if u == 0:
                results[gi][ri] = DecodeResult(ok=True, blocks=rec.values.copy(), rank_deficit=0)
            elif m < u:
                results[gi][ri] = DecodeResult(ok=False, blocks=None, rank_deficit=u - m)
            else:
                todo.append((gi, ri, rec.indices[: u + _FIRST_ATTEMPT_EXTRA]))
    for rerun in (False, True):
        retry = []  # a retry encodes the further packets it reads
        for (gi, ri, sel), (blocks, deficit) in zip(todo, _solve(phases, todo)):
            rec = phases[gi][3][ri]
            if blocks is None and not rerun and len(rec.indices) > len(sel):
                retry.append((gi, ri, rec.indices))
            else:
                results[gi][ri] = DecodeResult(ok=blocks is not None, blocks=blocks, rank_deficit=deficit)
        todo = retry
    return results


def decode_arrays(
    indices, payloads, B: int, phase_id: int, seed, known: dict | None = None
) -> DecodeResult:
    """Decode one receiver from its received packet indices and the payload
    rows received with them, solving all its packets at once.

    ``known`` maps block index -> (F,) bit value; those columns are
    eliminated before solving.  The known blocks' contribution is always
    the BLAS product of ``_gf2_matmul`` and the elimination always
    ``_m4ri``, so comparing this with ``decode_batch``, whose large systems
    use the table product and whose word systems their own tables and
    elimination, checks one implementation against the other.
    """
    known = known or {}
    indices = np.asarray(indices, dtype=np.int64)
    payloads = np.asarray(payloads, dtype=np.uint8)
    F = payloads.shape[1] if payloads.ndim == 2 and payloads.shape[1] else 0
    if F == 0 and known:
        F = len(next(iter(known.values())))
    mask = np.zeros(B, dtype=bool)
    values = np.zeros((B, F), dtype=np.uint8)
    for i, v in known.items():
        mask[i] = True
        values[i] = v
    sel, first = np.unique(indices, return_index=True)
    u, m = B - int(np.count_nonzero(mask)), len(sel)
    if u == 0:
        return DecodeResult(ok=True, blocks=values, rank_deficit=0)
    if m < u:
        return DecodeResult(ok=False, blocks=None, rank_deficit=u - m)
    rows = coefficient_rows(seed, phase_id, int(sel[-1]) + 1, B)[sel]
    rhs = payloads.reshape(len(indices), F)[first] ^ _gf2_matmul(rows, values)
    x, deficit = solve_gf2(rows[:, ~mask], rhs)
    if x is None:
        return DecodeResult(ok=False, blocks=None, rank_deficit=deficit)
    values[~mask] = x
    return DecodeResult(ok=True, blocks=values, rank_deficit=0)
