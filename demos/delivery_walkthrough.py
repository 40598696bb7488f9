"""Step-by-step look at placement and delivery for three receivers.

Builds the subset placement for the two weakest receivers, forms the XOR
group and piggyback slices for one demand tuple, prints every payload item
with its knowledge sets, and runs the deterministic capacity verification.
None of it depends on the library bits, so no library is drawn.
"""

from cachebc import (
    SystemConfig,
    build_caches,
    build_schedule,
    max_min_slack_assignment,
    phase_lp_max_rate,
    receiver_unknown_bits,
    sub_message_layout,
    verify_schedule,
)
from cachebc.model import SchemeParameters

cfg = SystemConfig(
    K=3,
    D=3,
    F=4,
    deltas=[0.8, 0.5, 0.2],
    rates=[0.25] * 3,
    memories=[0.3, 0.3, 0.0],
    n=12000,
)

print("=" * 72)
print("Three receivers (erasures 0.8 / 0.5 / 0.2); caches of 0.3 at the two")
print("weakest; one fragment per cached receiver (t = 1).")
print("=" * 72)

lp = phase_lp_max_rate(cfg, K0=2, M=0.3, t=1)
print(f"\nBest symmetric rate by per-phase accounting: R = {lp.rate:.4f}")
print(f"  phase fractions : {tuple(round(b, 4) for b in lp.beta)}")
print(f"  piggyback rates : {lp.piggyback}")

layout = sub_message_layout(cfg, K0=2, t=1, M=0.3)
print(f"\nEach message splits into fragments of {layout.piece_bits} bits")
print(f"(fragment i cached at receivers {layout.subsets[:-1]}, last uncached).")

# a cache is the mask of library bits a receiver holds (last column: padding)
caches = build_caches(cfg, layout)
for k in (1, 2, 3):
    print(f"  receiver {k} cache: {caches[k - 1, :-1].sum()} bits")

demand = (1, 2, 3)
params = SchemeParameters(K0=2, t=1, beta=lp.beta, piggyback=lp.piggyback)
sched = build_schedule(cfg, params, layout, demand)

print(f"\nDelivery schedule for demand {demand}:")
for p, phase in enumerate(sched.phases, start=1):
    print(f"  phase {p} (receiver {phase.receiver}, {phase.budget_uses} uses):")
    for it in phase.items:
        parts = ", ".join(f"W{d}[{i}][{a}:{b}]" for (d, i, a, b) in it.constituents)
        print(f"    {it.kind:16s} {it.padded_bits:6d} bits  <- {parts}")

print("\nUnknown payload bits per phase (cache-only accounting):")
for k in (1, 2, 3):
    print(f"  receiver {k}: {receiver_unknown_bits(sched, k)}")

report = verify_schedule(sched, cfg, margin=1.0)
print(f"\nverify_schedule(margin=1): {'OK' if report.ok else 'VIOLATED'}")
for row in report.rows:
    print(
        f"  phase {row['phase']} @ rx {row['receiver']}: "
        f"{row['unknown_bits']} unknown <= {row['capacity_bits']:.0f} capacity"
    )

# a schedule forced 10% past the optimum must violate a row
fit = max_min_slack_assignment(cfg, 2, 0.3, 1, rate=1.1 * lp.rate)
print(f"\nAt 110% of the optimum the best possible slack is {fit.slack:.4f} (< 0).")
