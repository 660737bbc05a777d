"""Fourier-spectral simulator for non-cutoff Kac/Maxwellian collision dynamics
with Gevrey-regularity diagnostics and a property-checked inequality toolkit."""

from .errors import KinbError, ConfigError, NumericalFailure
from .spectral import (GridSpec, SpectralState, InitialDatum, init_state,
                       state_with_values, moments, to_physical,
                       refine_array, interpolate_array)
from .collision import (CrossSection, AngularQuadrature, collision_geometry,
                        transform_jacobian, kac_pair, rhs_bilinear,
                        stability_limit, total_weight, truncation_error_bound)
from .evolution import (MonitorRow, RunConfig, Trajectory, entropy, run,
                        simulate)
from .inequalities import (epsilon, alpha_md, required_moment, LambdaPoints,
                           kl_constant, optimize_lambdas, kl_check, TrigPoly,
                           pointwise_from_l2_check, expdiff_check)
from .diagnostics import (GevreyWeight, WeightedNorms, weighted_norms,
                          fractional_heat_evolve, FitReport, fit_gevrey_order,
                          CommutatorReport, commutation_error, cb_constant,
                          beta_recommendation, angle_thresholds,
                          InductionSchedule, build_induction_schedule,
                          HypothesisRow, check_hypotheses,
                          hinf_weighted_norm, negative_sobolev_norm,
                          embedding_constant, bracket_integral, LloglReport,
                          entropy_and_llogl)
from .verify import VerifyResult, SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "KinbError", "ConfigError", "NumericalFailure",
    "GridSpec", "SpectralState", "InitialDatum", "init_state",
    "state_with_values", "moments", "to_physical", "refine_array",
    "interpolate_array",
    "CrossSection", "AngularQuadrature",
    "collision_geometry", "transform_jacobian", "kac_pair",
    "rhs_bilinear", "stability_limit", "total_weight",
    "truncation_error_bound",
    "MonitorRow", "RunConfig", "Trajectory", "run", "entropy", "simulate",
    "epsilon", "alpha_md", "required_moment",
    "LambdaPoints", "kl_constant", "optimize_lambdas", "kl_check",
    "TrigPoly", "pointwise_from_l2_check", "expdiff_check",
    "GevreyWeight", "WeightedNorms", "weighted_norms",
    "fractional_heat_evolve", "FitReport", "fit_gevrey_order",
    "CommutatorReport", "commutation_error", "cb_constant",
    "beta_recommendation", "angle_thresholds", "InductionSchedule",
    "build_induction_schedule", "HypothesisRow", "check_hypotheses",
    "hinf_weighted_norm", "negative_sobolev_norm", "embedding_constant",
    "bracket_integral", "LloglReport", "entropy_and_llogl",
    "VerifyResult", "SUITE_NAMES", "run_suite",
    "__version__",
]
