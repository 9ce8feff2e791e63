"""Strong and weak Orlicz norms of tail-represented functions.

The library computes Luxemburg (strong) and weak Orlicz norms through
tail functions, decides whether the two space scales coincide for a given
Young function and total mass, and evaluates the exact constant of the
embedding of the weak space into the strong one, with closed-form series
machinery for the exponential family serving as an independent oracle.
"""

from .errors import (
    BadAlpha,
    BadParameter,
    BudgetExceeded,
    DescriptorError,
    DivergentModular,
    Inconclusive,
    MassOverflow,
    NoSignChange,
    NonConvergence,
    NonEvaluable,
    NotDominated,
    OrliczError,
)
from .numerics import FiniteOrDivergent, LadderPoint, LadderTrace, find_root, integrate
from .young import (
    YoungFunction,
    custom_young,
    delta_young,
    exp_young,
    make_young,
    power_young,
)
from .tails import (
    AnalyticTail,
    StepTail,
    TailFunction,
    TailRepFunction,
    chebyshev_tail,
    dilate,
    step_tail,
)
from .norms import (
    CouplingReport,
    NormResult,
    coupling_check,
    lebesgue_norm,
    luxemburg_norm,
    modular,
    weak_norm,
)
from .embedding import (
    ANALYTIC_VERDICTS,
    C_LADDER,
    Q_TOL,
    CriterionResult,
    EmbeddingReport,
    coincidence_criterion,
    embedding_constant,
    embedding_modular,
    embedding_report,
    extremal_function,
    unit_threshold,
)
from .expfamily import (
    GAUGE_SLOPE,
    critical_alpha,
    exp_embedding_constant,
    exp_embedding_modular,
    gauge_quadrature,
    gauge_series,
    gauge_slope_at_zero,
)
from .descriptors import FunctionDescriptor, parse_descriptor, parse_descriptor_json
from .verify import CheckRecord, VerifyReport, run_suite

__version__ = "0.1.0"
