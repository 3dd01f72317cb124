"""Verification laboratory for weighted conditional-expectation operators
on finite measure spaces.

Closed-form results about operators of the shape f -> w * E(u f), with E
the block-averaging conditional expectation, are built as M_a E M_b values
whose matrices, in the orthonormal basis of the weighted space, are
certified against independent dense oracles: norm formula,
partial-isometry criterion, functional calculus of the Gram products,
polar decomposition, Aluthge transform, spectral decomposition of
averaged multiplication operators, and the projection-valued measures
induced by point maps.
"""

from .checks import CHECK_GROUPS, CheckRecord
from .condexp import Sandwich, cond_exp_values
from .errors import ConfigInvalidError, ParseError, WceLabError
from .generator import GeneratorConfig, gen_instance, rotation_config
from .instance_io import (
    InstanceBundle,
    instance_digest,
    parse_instance,
    serialize_instance,
)
from .measure import FiniteMeasureSpace, MeasurableFunction, Partition
from .opalgebra import SvdOracle, op_deviations
from .spectral import (
    AvgMult,
    PointMap,
    check_spectral_axioms,
    pushforward_density,
)
from .suite import VerificationReport, run_suite
from .wce import (
    WceInstance,
    build_operator,
    closed_func_calc,
    closed_polar,
    norm_formula,
    partial_isometry_criterion,
)

__all__ = [name for name in dir() if not name.startswith("_")]
