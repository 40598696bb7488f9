"""Command-line front end.

Verbs: region-check, region-sweep, optimize, placement-show, schedule-show,
simulate.  Stdout always carries the machine-readable payload (JSON or CSV);
diagnostics go to stderr.  Exit codes: 0 success, 1 infeasible / outside-
region verdict (payload still emitted), 2 usage or config errors.  Output is
byte-identical for identical flags and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .model import ConfigError, SchemeParameters, load_config
from .placement import sub_message_layout, build_caches
from .regions import (
    DegenerateChannelError,
    OutOfRegimeError,
    best_phase_lp_rate,
    common_demand_contains,
    common_demand_separate_contains,
    degraded_region_contains,
    general_max_symmetric_rate,
    phase_lp_max_rate,
    unequal_cache_max_rate,
)
from .schedule import build_schedule, verify_schedule
from .simulate import (
    DEFAULT_DEMAND_CAP,
    SCHEMES,
    estimate_pe,
    plan_scheme,
    sweep,
    sweep_to_csv,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


def _emit(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _number(text: str, flag: str, kind: type):
    """One entry of a list flag read as ``kind``; one that does not read is a
    ConfigError naming the flag and the entry."""
    try:
        return kind(text)
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ConfigError(f"{flag} entries must be {what}, got {text!r}") from None


def _floats(text: str, flag: str) -> list[float]:
    return [_number(x, flag, float) for x in text.split(",") if x != ""]


def _ints(text: str, flag: str) -> list[int]:
    return [_number(x, flag, int) for x in text.split(",") if x != ""]


_MAX_GRID_POINTS = 100_000


def _grid(text: str) -> list[float]:
    """start:step:stop (stop inclusive up to float noise), of at most
    ``_MAX_GRID_POINTS`` points, counted before any is made."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:step:stop, got {text!r}")
    start, step, stop = (_number(p, "--grid", float) for p in parts)
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise ConfigError(f"grid must have a finite start, step and stop, got {text!r}")
    if step <= 0:
        raise ConfigError("grid step must be positive")
    # adding a step of at least the float spacing always moves x, and the
    # spacing between start and stop is widest at one of them
    if step < math.ulp(max(abs(start), abs(stop))):
        raise ConfigError(f"grid step is below the float spacing at its ends, got {text!r}")
    count = math.floor((stop + 1e-12 - start) / step) + 1
    if count > _MAX_GRID_POINTS:
        raise ConfigError(
            f"grid has {count} points, above the bound of {_MAX_GRID_POINTS}, got {text!r}"
        )
    out, x = [], start
    while x <= stop + 1e-12:
        out.append(round(x, 12))
        x += step
    return out


def cmd_region_check(args) -> tuple[int, str]:
    cfg = load_config(args.config)
    rates = _floats(args.rates, "--rates") if args.rates else list(cfg.rates)
    # overrides pass validate_config; the degraded scheme's rates are one per
    # receiver level, not per message, and degraded_region_contains checks them
    overrides = {"memories": _floats(args.memories, "--memories")} if args.memories else {}
    if args.scheme != "degraded":
        overrides["rates"] = rates
    cfg = replace(cfg, **overrides)
    payload = {"scheme": args.scheme, "rates": rates, "memories": list(cfg.memories)}
    if args.scheme == "common":
        inside, witness = common_demand_contains(cfg, tol=args.tol)
        payload["inside"] = inside
        payload["witness"] = [list(map(float, row)) for row in witness] if inside else None
    elif args.scheme == "common-separate":
        payload["inside"] = common_demand_separate_contains(cfg, tol=args.tol)
    else:  # degraded
        payload["inside"] = degraded_region_contains(cfg, rates, tol=args.tol)
    return (EXIT_OK if payload["inside"] else EXIT_INFEASIBLE), _emit(payload)


def cmd_region_sweep(args) -> tuple[int, str]:
    cfg = load_config(args.config)
    schemes = (
        ["symmetric-2rx", "separate-asym-2rx", "joint-2rx"]
        if args.schemes == "all"
        else args.schemes.split(",")
    )
    rows = sweep(
        cfg,
        schemes,
        _grid(args.grid),
        simulate=args.simulate,
        backoff=args.backoff,
        trials=args.trials,
        seed=args.seed,
        demand_cap=args.demand_cap,
    )
    return EXIT_OK, sweep_to_csv(rows)


def cmd_optimize(args) -> tuple[int, str]:
    cfg = load_config(args.config)
    payload = {"mode": args.mode}
    try:
        if args.mode == "unequal":
            payload["rate"] = unequal_cache_max_rate(cfg)
            payload["memories"] = list(cfg.memories)
        else:
            M = args.M if args.M is not None else cfg.memories[0]
            K0 = args.K0 if args.K0 is not None else sum(1 for m in cfg.memories if m > 0)
            payload.update(K0=K0, M=M)
            if args.mode == "general":
                res = general_max_symmetric_rate(cfg, K0, M)
                payload.update(rate=res.rate, t=res.t, piggyback=[list(r) for r in res.piggyback])
            else:  # phase-lp
                res = (
                    phase_lp_max_rate(cfg, K0, M, args.t)
                    if args.t is not None
                    else best_phase_lp_rate(cfg, K0, M)
                )
                payload.update(
                    rate=res.rate,
                    t=res.t,
                    beta=list(res.beta),
                    piggyback=[list(r) for r in res.piggyback],
                    cached_rate_per_fragment=res.cached_rate_per_fragment,
                )
    except (OutOfRegimeError, DegenerateChannelError) as e:
        payload.update(rate=None, infeasible=True, reason=str(e))
        return EXIT_INFEASIBLE, _emit(payload)
    return EXIT_OK, _emit(payload)


def cmd_placement_show(args) -> tuple[int, str]:
    cfg = load_config(args.config)
    M = args.M if args.M is not None else cfg.memories[0]
    layout = sub_message_layout(cfg, args.K0, args.t, M)
    table = []
    for k in range(1, cfg.K + 1):
        rows = []
        for i in layout.pieces_cached_at(k):
            for d in range(1, cfg.D + 1):
                rows.append(
                    {
                        "message": d,
                        "piece": i,
                        "subset": list(layout.subsets[i]),
                        "bits": layout.piece_bits[i],
                    }
                )
        table.append({"receiver": k, "entries": rows, "total_bits": sum(r["bits"] for r in rows)})
    payload = {
        "K0": args.K0,
        "t": args.t,
        "M": M,
        "piece_bits": list(layout.piece_bits),
        "padded_piece_bits": list(layout.padded_piece_bits),
        "rounding_slack_bits": layout.rounding_slack_bits,
        "receivers": table,
    }
    return EXIT_OK, _emit(payload)


def cmd_schedule_show(args) -> tuple[int, str]:
    cfg = load_config(args.config)
    demand = tuple(_ints(args.demand, "--demand"))
    plan = plan_scheme(cfg, args.scheme, backoff=args.backoff)
    cfg_sim = plan.cfg_sim
    layout = sub_message_layout(cfg_sim, plan.params.K0, plan.params.t, plan.layout_memory)
    build_caches(cfg_sim, layout)  # raises CapacityError on overflow
    sched = build_schedule(cfg_sim, plan.params, layout, demand)
    phases = []
    for p, phase in enumerate(sched.phases, start=1):
        items = [
            {
                "kind": it.kind,
                "constituents": [list(c) for c in it.constituents],
                "bits": it.padded_bits,
                "known_to": sorted(it.known_to),
                "owner": it.owner,
            }
            for it in phase.items
        ]
        phases.append(
            {
                "phase": p,
                "receiver": phase.receiver,
                "budget_uses": phase.budget_uses,
                "items": items,
            }
        )
    verify = verify_schedule(sched, cfg_sim, margin=args.margin)
    payload = {
        "scheme": plan.scheme,
        "demand": list(demand),
        "rates_sim": list(cfg_sim.rates),
        "beta": list(plan.params.beta),
        "phases": phases,
        "verify_ok": verify.ok,
        "piggyback_shortfall_bits": sched.piggyback_shortfall_bits,
    }
    return EXIT_OK, _emit(payload)


def cmd_simulate(args) -> tuple[int, str]:
    cfg = load_config(args.config)
    report = estimate_pe(
        cfg,
        args.scheme,
        backoff=args.backoff,
        trials=args.trials,
        seed=args.seed,
        demand_cap=args.demand_cap,
    )
    payload = report.to_dict()
    # wall-clock goes to stderr so stdout stays byte-identical per seed
    elapsed = payload.pop("elapsed_s")
    print(f"elapsed_s: {elapsed:.3f}", file=sys.stderr)
    return EXIT_OK, _emit(payload)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cachebc", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="path to the JSON config")

    sp = sub.add_parser("region-check", help="membership test for a rate-memory point")
    add_common(sp)
    sp.add_argument("--scheme", choices=["common", "common-separate", "degraded"], required=True)
    sp.add_argument("--rates", help="comma-separated override of the config rates")
    sp.add_argument("--memories", help="comma-separated override of the config memories")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(fn=cmd_region_check)

    sp = sub.add_parser("region-sweep", help="tradeoff curves over a cache-size grid (CSV)")
    add_common(sp)
    sp.add_argument("--schemes", "--scheme", dest="schemes", default="all")
    sp.add_argument("--grid", required=True, help="start:step:stop")
    sp.add_argument("--simulate", action="store_true")
    sp.add_argument("--backoff", type=float, default=0.9)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--demand-cap", type=int, default=DEFAULT_DEMAND_CAP)
    sp.set_defaults(fn=cmd_region_sweep)

    sp = sub.add_parser("optimize", help="best symmetric rate for a cache configuration")
    add_common(sp)
    sp.add_argument("--mode", choices=["general", "phase-lp", "unequal"], default="phase-lp")
    sp.add_argument("--K0", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--M", type=float)
    sp.set_defaults(fn=cmd_optimize)

    sp = sub.add_parser("placement-show", help="per-receiver cache placement table (JSON)")
    add_common(sp)
    sp.add_argument("--K0", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--M", type=float)
    sp.set_defaults(fn=cmd_placement_show)

    sp = sub.add_parser("schedule-show", help="per-phase delivery items for one demand (JSON)")
    add_common(sp)
    sp.add_argument("--scheme", choices=[s for s in SCHEMES if s != "common-demand"], default="general")
    sp.add_argument("--demand", required=True, help="comma-separated demand tuple")
    sp.add_argument("--backoff", type=float, default=1.0)
    sp.add_argument("--margin", type=float, default=1.0)
    sp.set_defaults(fn=cmd_schedule_show)

    sp = sub.add_parser("simulate", help="Monte Carlo error-probability estimate (JSON)")
    add_common(sp)
    sp.add_argument("--scheme", choices=list(SCHEMES), required=True)
    sp.add_argument("--backoff", type=float, default=0.9)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--demand-cap", type=int, default=DEFAULT_DEMAND_CAP)
    sp.set_defaults(fn=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        code, payload = args.fn(args)
    except (ConfigError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OutOfRegimeError, DegenerateChannelError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
