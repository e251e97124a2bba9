"""Entanglement batteries: reversible state conversion with a non-draining store.

The package decides whether one bipartite state can be converted into
another when an auxiliary entangled battery may assist but must not end
poorer, plans many-copy conversion rates as measure ratios, and carries
the same construction over to thermodynamics with free-energy batteries.
"""
from .battery import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    ContinuityReport,
    MultiMeasureBound,
    PairSearchResult,
    ProtocolReport,
    RatePlan,
    continuity_bound_check,
    conversion_rate,
    feasible,
    multi_measure_bound,
    resource_balance_check,
    search_nonequivalent_pair,
    swap_protocol,
    zero_error_rate,
)
from .dilution import (
    CurvePoint,
    EmbezzlementRow,
    distillation_bound,
    embezzlement_demo,
    self_dilution_curve,
)
from .errors import (
    ApplicabilityError,
    CapacityError,
    DomainError,
    EntbatError,
    InfeasibleError,
    ParseError,
    SearchExhaustedError,
    ShapeError,
    UnboundedRateError,
    ValidationError,
)
from .measures import (
    ENTANGLEMENT_COST_PURE,
    ENTROPY_OF_ENTANGLEMENT,
    GEOMETRIC,
    LOG_NEGATIVITY,
    MEASURES,
    RELATIVE_ENTROPY,
    SQUASHED_PURE,
    SQUASHED_UPPER,
    MeasureResult,
    OptimizerOptions,
    SeparableAnsatz,
    dephasing_upper_bound,
    evaluate,
    measure_spec,
)
from .qmat import (
    BipartiteState,
    binary_entropy,
    fidelity,
    partial_trace,
    partial_transpose,
    relative_entropy,
    tensor,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)
from .states import (
    PureSchmidtState,
    bell,
    embezzler_psi,
    load_state,
    maximally_correlated_lami,
    maximally_mixed,
    product_pure,
    pure_alpha,
    random_mixed,
    random_pure,
    save_state,
    state_from_dict,
    state_to_dict,
    werner,
)
from .thermo import (
    FreeEnergyValue,
    ThermoDilutionReport,
    ThermoState,
    compose,
    f_max,
    free_energy,
    load_thermo_scenario,
    renyi_free_energy,
    thermo_feasible,
    thermo_from_dict,
    thermo_self_dilution,
    thermo_swap_protocol,
)
