"""Data-parallel toolkit for HEP-style statistical analysis.

Columnar structure-of-arrays storage, composable parametric functions,
Monte Carlo and quadrature integration, n-body phase-space generation,
extended unbinned maximum-likelihood fitting and sPlot unfolding, all with
bitwise worker-count-invariant results.
"""

from .kinematics import (
    BelowThreshold,
    FourVector,
    KinematicsError,
    NonPhysical,
    Parameter,
    boost_into,
    breakup_momentum,
    invariant_mass,
    kallen,
)
from .store import ColumnSchema, ColumnStore, read_csv
from .functors import (
    EvaluationError,
    FunctorExpr,
    ParamSet,
    combine,
    compose,
    coordinate,
    identity,
    map_evaluate,
    shape_exponential,
    shape_gaussian,
    wrap_closure,
)
from .rng import (
    BoundedRegion,
    CeilingError,
    RngKey,
    gaussian_deviate,
    sample_pdf,
    uniform,
)
from .integrate import (
    DegenerateGridError,
    IntegrationResult,
    VegasGrid,
    gk15_static,
    gk_adaptive,
    plain_mc,
    vegas,
    vegas_refine,
)
from .phasespace import (
    DecaySpec,
    phsp_average,
    phsp_decay_chain,
    phsp_generate,
    phsp_max_weight,
    phsp_schema,
    phsp_unweight,
    phsp_write_csv,
)
from .fitting import (
    ExtendedModel,
    FitResult,
    FitStatus,
    Pdf,
    add_pdfs,
    exponential_norm,
    fit,
    gaussian_norm,
    generate_model_sample,
    make_pdf,
    minimize,
    nll,
    numeric_errors,
)
from .splot import splot_matrix, splot_weights

__version__ = "0.1.0"

__all__ = [
    "BelowThreshold", "BoundedRegion", "CeilingError", "ColumnSchema",
    "ColumnStore", "DecaySpec", "DegenerateGridError", "EvaluationError",
    "ExtendedModel", "FitResult", "FitStatus", "FourVector", "FunctorExpr",
    "IntegrationResult", "KinematicsError", "NonPhysical", "ParamSet",
    "Parameter", "Pdf", "RngKey", "VegasGrid", "add_pdfs", "boost_into",
    "breakup_momentum", "combine", "compose", "coordinate",
    "exponential_norm", "fit", "gaussian_deviate", "gaussian_norm",
    "generate_model_sample", "gk15_static", "gk_adaptive", "identity",
    "invariant_mass", "kallen", "make_pdf", "map_evaluate", "minimize",
    "nll", "numeric_errors", "phsp_average", "phsp_decay_chain",
    "phsp_generate", "phsp_max_weight", "phsp_schema", "phsp_unweight",
    "phsp_write_csv", "plain_mc", "read_csv", "sample_pdf", "shape_exponential",
    "shape_gaussian", "splot_matrix", "splot_weights", "uniform", "vegas",
    "vegas_refine", "wrap_closure",
]
