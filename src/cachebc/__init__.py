"""Cache-aided erasure broadcast channels: achievable-rate regions, cache
placement, XOR/piggyback delivery scheduling, and bit-exact Monte Carlo
validation with a rateless random-linear erasure codec."""

from .model import (
    ConfigError,
    DemandSet,
    SchemeParameters,
    SystemConfig,
    config_from_json,
    config_to_json,
    load_config,
    validate_config,
)
from .regions import (
    DegenerateChannelError,
    OutOfRegimeError,
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
from .placement import (
    CapacityError,
    SubMessageLayout,
    build_caches,
    build_prefix_caches,
    draw_library,
    enumerate_cache_subsets,
    sub_message_layout,
)
from .schedule import (
    ItemIndex,
    PhaseIndex,
    PhaseSchedule,
    build_schedule,
    receiver_unknown_bits,
    verify_schedule,
)
from .channel import ChannelRealization, transmit
from .codec import DecodeResult, coefficient_rows, solve_gf2
from .simulate import (
    SCHEMES,
    SchemePlan,
    SimulationReport,
    audit_conditions,
    estimate_pe,
    plan_scheme,
    run_trial,
    sweep,
    sweep_to_csv,
    wilson_interval,
)

__version__ = "0.1.0"
