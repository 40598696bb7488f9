"""Memoryless degraded erasure broadcast channel.

Each channel use carries one F-bit packet; receiver k independently sees the
packet or an erasure with probability delta_k.  Only the per-receiver
marginals matter, so the simulator couples the receivers through a single
uniform draw per use: receiver k is erased exactly when U_i < delta_k.  With
nonincreasing deltas this makes every stronger receiver's erasure set a
subset of every weaker one's (physically degraded), for every realization,
while keeping all marginals exact.

Whether a receiver sees a use does not depend on what the use carries, so
``erasures`` draws a realization's erasures before, and without, its
packets; ``transmit`` pairs them with the packets sent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeding import CHANNEL_STREAM, stream_rng
from .model import ConfigError

__all__ = ["ChannelRealization", "erasures", "transmit"]


@dataclass(frozen=True)
class ChannelRealization:
    """Outcome of transmitting a packet sequence to K receivers."""

    inputs: np.ndarray  # (n, F) uint8 bits
    erased: np.ndarray  # (K, n) bool

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def received_indices(self, k: int) -> np.ndarray:
        """Channel-use indices receiver k observed unerased (1-based k)."""
        return np.flatnonzero(~self.erased[k - 1])

    def erasure_fraction(self, k: int) -> float:
        return float(self.erased[k - 1].mean())


def erasures(count: int, deltas, seed) -> np.ndarray:
    """The (K, count) erased flags of ``count`` channel uses: receiver k
    misses use j exactly when U_j < delta_k, with U from one uniform draw
    on the channel stream of ``seed`` (seed material, or that stream's
    ``Stream``)."""
    deltas = [float(d) for d in deltas]
    for a, b in zip(deltas, deltas[1:]):
        if b > a:
            raise ConfigError(f"deltas not nonincreasing: {deltas}")
    if any(not 0.0 <= d <= 1.0 for d in deltas):
        raise ConfigError("deltas must lie in [0, 1]")
    u = stream_rng(seed, CHANNEL_STREAM).random(count)
    return np.stack([u < d for d in deltas])


def transmit(packets, deltas, seed) -> ChannelRealization:
    """Send packets over the channel; deterministic given (packets, deltas,
    seed).  The per-use uniforms come from one counter-based draw, so
    realizations do not depend on evaluation order."""
    x = np.asarray(packets, dtype=np.uint8)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ConfigError("packets must be a nonempty (n, F) bit array")
    return ChannelRealization(inputs=x, erased=erasures(x.shape[0], deltas, seed))
