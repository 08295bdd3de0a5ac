"""Monte Carlo estimation of loophole-free CHSH violation probabilities
under randomly chosen local measurements (RIM, ROM, ROTM scenarios)."""

from .errors import NumericalConsistencyError, NoViolationError
from .tolerances import DEFAULT_ATOL, TABLE_ATOL
from .quantum import (
    MeasurementDirection,
    NoisyState,
    Projector,
    PureTwoQubitState,
    joint_probability,
    marginal_probability,
    projector_from_direction,
)
from .sampling import (
    MeasurementTriad,
    RandomSource,
    direction_from_angles,
    sample_direction,
    sample_orthogonal_pair,
    sample_orthogonal_triad,
)
from .chsh import (
    CHForm,
    ProbabilityTable,
    TSIRELSON_BOUND,
    ViolationRecord,
    build_probability_table,
    ch_value,
    efficiency_corrected_value,
    enumerate_forms,
    eta_req,
    lhv_brute_force_bound,
    max_violation,
)
from .montecarlo import (
    EfficiencyHistogram,
    ExperimentAborted,
    ExperimentResult,
    ScenarioConfig,
    TrialOutcome,
    ViolationCurve,
    run_experiment,
    run_trial,
    sweep,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "NumericalConsistencyError",
    "NoViolationError",
    "DEFAULT_ATOL",
    "TABLE_ATOL",
    "PureTwoQubitState",
    "NoisyState",
    "MeasurementDirection",
    "Projector",
    "projector_from_direction",
    "joint_probability",
    "marginal_probability",
    "RandomSource",
    "MeasurementTriad",
    "direction_from_angles",
    "sample_direction",
    "sample_orthogonal_pair",
    "sample_orthogonal_triad",
    "TSIRELSON_BOUND",
    "ProbabilityTable",
    "CHForm",
    "ViolationRecord",
    "build_probability_table",
    "ch_value",
    "enumerate_forms",
    "max_violation",
    "eta_req",
    "efficiency_corrected_value",
    "lhv_brute_force_bound",
    "ScenarioConfig",
    "TrialOutcome",
    "EfficiencyHistogram",
    "ViolationCurve",
    "ExperimentResult",
    "ExperimentAborted",
    "run_trial",
    "run_experiment",
    "sweep",
    "wilson_interval",
    "__version__",
]
