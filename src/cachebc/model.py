"""Domain types, validation, and JSON config handling.

Unit conventions
----------------
Rates and cache sizes are measured in bits per channel use.  A blocklength-n
realisation of rate ``r`` carries ``floor(n * r)`` bits; the cache budget of
receiver ``k`` is ``floor(n * M_k)`` bits.  Receivers are indexed ``1..K``
with receiver 1 experiencing the highest erasure probability, messages are
indexed ``1..D``.  All types are immutable after validation and safe to share
between concurrent tasks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

__all__ = [
    "ConfigError",
    "DemandSet",
    "SystemConfig",
    "SchemeParameters",
    "validate_config",
    "validate_demand",
    "check_count",
    "check_k0_t",
    "check_memory",
    "config_from_dict",
    "config_from_json",
    "config_to_dict",
    "config_to_json",
    "load_config",
]


class ConfigError(ValueError):
    """A configuration invariant is violated; the message names the field."""


DEMAND_KINDS = ("full-product", "common", "explicit-list")


def validate_demand(d, K: int, D: int) -> tuple[int, ...]:
    """Check a demand tuple: K entries, each a message index in 1..D."""
    d = tuple(int(x) for x in d)
    if len(d) != K:
        raise ConfigError(f"demand tuple must have K={K} entries, got {len(d)}")
    for x in d:
        if not 1 <= x <= D:
            raise ConfigError(f"demand entry {x} outside 1..{D}")
    return d


def check_k0_t(K0: int, t: int, K: int | None = None) -> None:
    """The subset-caching rule: K0 cached receivers (at most K, when given)
    and fragments shared by subsets of size t in 1..K0-1, or t = 1 when
    K0 = 1."""
    if K0 < 1 or (K is not None and K0 > K):
        within = f"lie in 1..K={K}" if K is not None else "be >= 1"
        raise ConfigError(f"K0 must {within}, got {K0}")
    if K0 == 1:
        if t != 1:
            raise ConfigError("t must be 1 when K0 = 1")
    elif not 1 <= t <= K0 - 1:
        raise ConfigError(f"t must lie in 1..K0-1={K0 - 1}, got {t}")


def check_memory(M: float) -> None:
    """A per-receiver cache size M must be finite and nonnegative."""
    if not (math.isfinite(M) and M >= 0):
        raise ConfigError(f"M must be finite and >= 0, got {M}")


@dataclass(frozen=True)
class DemandSet:
    """Feasible set of receiver demand tuples.

    ``full-product`` is the whole grid {1..D}^K (enumerated lazily),
    ``common`` holds the D tuples with identical entries, and
    ``explicit-list`` is a user-supplied list.
    """

    kind: str = "full-product"
    tuples: tuple[tuple[int, ...], ...] | None = None

    def validate(self, K: int, D: int) -> "DemandSet":
        if self.kind not in DEMAND_KINDS:
            raise ConfigError(
                f"demand_set.kind must be one of {DEMAND_KINDS}, got {self.kind!r}"
            )
        if self.kind == "explicit-list":
            if not self.tuples:
                raise ConfigError("demand_set.tuples is required for explicit-list")
            for d in self.tuples:
                validate_demand(d, K, D)
        elif self.tuples is not None:
            raise ConfigError("demand_set.tuples is only allowed for explicit-list")
        return self

    def size(self, K: int, D: int) -> int:
        if self.kind == "full-product":
            return D**K
        if self.kind == "common":
            return D
        return len(self.tuples)

    def iter_tuples(self, K: int, D: int):
        if self.kind == "full-product":
            yield from itertools.product(range(1, D + 1), repeat=K)
        elif self.kind == "common":
            for d in range(1, D + 1):
                yield (d,) * K
        else:
            yield from self.tuples

    def contains(self, d, K: int, D: int) -> bool:
        d = tuple(int(x) for x in d)
        if self.kind == "full-product":
            return len(d) == K and all(1 <= x <= D for x in d)
        if self.kind == "common":
            return len(d) == K and len(set(d)) == 1 and 1 <= d[0] <= D
        return d in self.tuples


@dataclass(frozen=True)
class SystemConfig:
    """System description: channel, library, and cache budgets.

    Invariants (checked on construction):

    * ``deltas`` is nonincreasing with entries in [0, 1]; receiver 1 is the
      weakest.
    * rates and memories are finite and nonnegative, one rate per message and
      one cache budget per receiver.
    * ``n`` (blocklength, channel uses) is only needed for simulation and may
      be left unset for pure region queries.
    """

    K: int
    D: int
    F: int
    deltas: tuple[float, ...]
    rates: tuple[float, ...]
    memories: tuple[float, ...]
    n: int | None = None
    demand_set: DemandSet = field(default_factory=DemandSet)

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(x) for x in self.deltas))
        object.__setattr__(self, "rates", tuple(float(x) for x in self.rates))
        object.__setattr__(self, "memories", tuple(float(x) for x in self.memories))
        if isinstance(self.demand_set, dict):
            object.__setattr__(self, "demand_set", _demand_set_from_dict(self.demand_set))
        validate_config(self)

    def delta(self, k: int) -> float:
        """Erasure probability of receiver k (1-based)."""
        return self.deltas[k - 1]

    def memory(self, k: int) -> float:
        return self.memories[k - 1]

    def require_n(self) -> int:
        if self.n is None:
            raise ConfigError("n (blocklength) is required for this operation")
        return self.n

    def equal_rate(self, tol: float = 1e-12) -> float:
        """The common message rate; raises if rates are not all equal."""
        r0 = self.rates[0]
        if any(abs(r - r0) > tol for r in self.rates):
            raise ConfigError("rates must all be equal for this scheme")
        return r0


def check_count(name: str, value) -> None:
    """Raise ``ConfigError`` naming ``name`` unless ``value`` is a positive
    integer, an ``int`` of at least 1 (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def _check_entries(name: str, values) -> None:
    """Rates and cache sizes must be finite and nonnegative."""
    for v in values:
        if not (math.isfinite(v) and v >= 0):
            raise ConfigError(f"{name} entries must be finite and >= 0, got {v}")


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant; returns cfg unchanged if all hold.

    Rejection is total: each violation raises ConfigError naming the field,
    nothing is silently normalized.
    """
    for name in ("K", "D", "F"):
        check_count(name, getattr(cfg, name))
    if len(cfg.deltas) != cfg.K:
        raise ConfigError(f"deltas must have K={cfg.K} entries, got {len(cfg.deltas)}")
    for d in cfg.deltas:
        if not (0.0 <= d <= 1.0) or math.isnan(d):
            raise ConfigError(f"deltas entries must lie in [0,1], got {d}")
    for a, b in zip(cfg.deltas, cfg.deltas[1:]):
        if b > a:
            raise ConfigError(f"deltas not nonincreasing: {cfg.deltas}")
    if len(cfg.rates) != cfg.D:
        raise ConfigError(f"rates must have D={cfg.D} entries, got {len(cfg.rates)}")
    _check_entries("rates", cfg.rates)
    if len(cfg.memories) != cfg.K:
        raise ConfigError(
            f"memories must have K={cfg.K} entries, got {len(cfg.memories)}"
        )
    _check_entries("memories", cfg.memories)
    if cfg.n is not None:
        check_count("n", cfg.n)
    cfg.demand_set.validate(cfg.K, cfg.D)
    return cfg


@dataclass(frozen=True)
class SchemeParameters:
    """Delivery-scheme parameters for the subset-caching scheme.

    ``K0`` receivers hold caches; fragments are shared by subsets of size
    ``t``; ``beta`` gives the K time-sharing phase fractions; ``piggyback``
    holds the rates C[k][ktilde] of cached-at-k data for uncached receiver
    ktilde that ride inside phase k (rows k = 1..K0, columns
    ktilde = K0+1..K).  ``K0 = 1, t = 1`` is the degenerate single-cached-
    receiver scheme (one cached fragment per message, no XOR groups).
    """

    K0: int
    t: int
    beta: tuple[float, ...]
    piggyback: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(
            self,
            "piggyback",
            tuple(tuple(float(c) for c in row) for row in self.piggyback),
        )

    def validate(self, K: int) -> "SchemeParameters":
        check_k0_t(self.K0, self.t, K)
        if len(self.beta) != K:
            raise ConfigError(f"beta must have K={K} entries, got {len(self.beta)}")
        if any(b < -1e-12 for b in self.beta):
            raise ConfigError("beta entries must be >= 0")
        if abs(sum(self.beta) - 1.0) > 1e-9:
            raise ConfigError(f"beta must sum to 1, got {sum(self.beta)}")
        if self.piggyback:
            if len(self.piggyback) != self.K0:
                raise ConfigError("piggyback must have K0 rows")
            for row in self.piggyback:
                if len(row) != K - self.K0:
                    raise ConfigError("piggyback rows must have K-K0 entries")
                if any(c < -1e-12 for c in row):
                    raise ConfigError("piggyback entries must be >= 0")
        return self

    def piggyback_rate(self, k: int, ktilde: int) -> float:
        """C[k][ktilde] with k in 1..K0 and ktilde in K0+1..K."""
        if not self.piggyback:
            return 0.0
        return self.piggyback[k - 1][ktilde - self.K0 - 1]


_CONFIG_KEYS = ("K", "D", "F", "deltas", "rates", "memories", "n", "demand_set")
_REQUIRED_KEYS = ("K", "D", "F", "deltas", "rates", "memories")


def _demand_set_from_dict(obj) -> DemandSet:
    if not isinstance(obj, dict):
        raise ConfigError("demand_set must be a JSON object")
    unknown = set(obj) - {"kind", "tuples"}
    if unknown:
        raise ConfigError(f"unknown demand_set key(s): {sorted(unknown)}")
    kind = obj.get("kind", "full-product")
    tuples = obj.get("tuples")
    if tuples is not None:
        tuples = tuple(tuple(int(x) for x in d) for d in tuples)
    return DemandSet(kind=kind, tuples=tuples)


def config_from_dict(obj: dict) -> SystemConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(obj) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in obj]
    if missing:
        raise ConfigError(f"missing config key: {missing[0]}")
    demand_set = obj.get("demand_set")
    return SystemConfig(
        K=obj["K"],
        D=obj["D"],
        F=obj["F"],
        deltas=obj["deltas"],
        rates=obj["rates"],
        memories=obj["memories"],
        n=obj.get("n"),
        demand_set=_demand_set_from_dict(demand_set) if demand_set is not None else DemandSet(),
    )


def config_to_dict(cfg: SystemConfig) -> dict:
    out = {
        "K": cfg.K,
        "D": cfg.D,
        "F": cfg.F,
        "deltas": list(cfg.deltas),
        "rates": list(cfg.rates),
        "memories": list(cfg.memories),
        "demand_set": {"kind": cfg.demand_set.kind},
    }
    if cfg.demand_set.tuples is not None:
        out["demand_set"]["tuples"] = [list(d) for d in cfg.demand_set.tuples]
    if cfg.n is not None:
        out["n"] = cfg.n
    return out


def config_from_json(text: str) -> SystemConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return config_from_dict(obj)


def config_to_json(cfg: SystemConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2)


def load_config(path) -> SystemConfig:
    """Parse and validate a config file; see README for the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(fh.read())
