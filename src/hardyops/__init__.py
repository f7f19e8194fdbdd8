"""Weighted multilinear Hardy and Cesaro averaging operators.

Numerical evaluation of the operators, their commutators and their
sharp operator-norm constants on Lebesgue and central Morrey spaces,
together with the extremal-family experiments that certify sharpness.
"""

__version__ = "0.1.0"

from .constants import (
    ConstantSpec,
    cesaro_lebesgue_constant,
    cesaro_log_constant,
    closed_form,
    lebesgue_constant,
    log_moment_constant,
    morrey_constant,
    weighted_moment,
)
from .experiments import (
    SharpnessReport,
    cesaro_sharpness_sweep,
    commutator_pointwise_check,
    counterexample_report,
    duality_check,
    lebesgue_sharpness_sweep,
    morrey_sharpness_check,
    oscillation_decay_check,
)
from .numerics import (
    EndpointBehavior,
    QuadratureError,
    QuadratureResult,
    gamma,
    integrate_halfline,
    integrate_unit_cube,
    integrate_unit_interval,
)
from .operators import (
    OperatorRequest,
    cesaro_apply,
    cesaro_commutator_apply,
    hardy_apply,
    hardy_commutator_apply,
    riemann_liouville_apply,
    weyl_apply,
)
from .spaces import (
    ExponentConfig,
    PiecewisePower,
    RadialFunction,
    central_morrey_norm,
    central_morrey_profile,
    cmo_norm,
    cutoff_power,
    indicator_ball,
    lebesgue_norm,
    log_radial,
    oscillatory_cutoff,
    parse_function_spec,
    power,
    radial_from_callable,
    unit_sphere_volume,
)
from .weights import (
    LogSubstitution,
    Weight,
    constant_weight,
    counterexample_weight,
    multilinear_cesaro_weight,
    multilinear_riesz_weight,
    parse_weight_spec,
    riemann_liouville_weight,
    weyl_weight,
)
