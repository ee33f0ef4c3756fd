"""trigon: spectral networks, periods and ray-iteration predictions for
polynomial cubic differentials, plus the projective polygon invariants
they predict."""

from .curve import (
    Charge,
    ChargeLattice,
    CurveDefinition,
    LiftedPath,
    PeriodMap,
    Polynomial,
    SpectralCurve,
    load_curve_file,
    load_example,
)
from .bps import BpsSpectrum, active_rays, builtin_spectrum, spectrum_from_webs
from .network import (
    FiniteWeb,
    SpectralNetwork,
    TraceConfig,
    classify_infinity,
    detect_bps,
    grow_network,
    seed_critical,
    trace,
    trace_lanes,
)
from .tba import SolverConfig, TbaSolution, integral_term, log_x, semiflat, \
    solve, spectral_coordinate
from .asymptotics import (
    AsymptoticPrediction,
    build_prediction,
    decay_table,
    linear_coefficient,
    remainder,
    solver_coefficient,
)
from .polygon import (
    InvariantExpression,
    ProjectivePolygon,
    builtin_expression,
    cross_ratio,
    hexapod,
    plucker,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
