"""betamix: dependence coefficients, couplings, and deviation bounds on finite spaces.

Compute exact beta-dependence coefficients of finite-alphabet processes and
Markov chains, build the maximal couplings that realize them, evaluate
closed-form uniform-deviation and least-squares weak-error bounds for
dependent samples, and verify those bounds by seeded Monte Carlo experiments.
"""

from .blocking import Partition, lifted_bound, m_steps_partition, union_bound_check
from .bounds import (
    BoundParams,
    WeakErrorBreakdown,
    beta_deviation_bound,
    indep_deviation_bound,
    statistical_error_curve,
    subexp_rate,
    subpoly_rate,
    weak_error_bound,
)
from .coupling import berbee_couple, generalized_berbee, verify_coupling
from .entropy import (
    FunctionFamily,
    covering_number_exact,
    covering_number_greedy,
    neural_net_entropy,
    sauer_shelah_entropy,
)
from .errors import (
    BetamixError,
    ConfigError,
    DegenerateFitError,
    DomainError,
    HypothesisViolationError,
    MalformedInputError,
    SizeError,
)
from .mixing import (
    MixingFit,
    beta_coefficient,
    beta_m_dependence,
    beta_max,
    fit_mixing_rate,
    markov_beta,
)
from .pmf import FinitePmf, JointPmf, MarkovChainSpec
from .regression import Dataset, fit_least_squares, loss_difference_family, truncate
from .simulate import (
    ExperimentReport,
    GeneratorSpec,
    deviation_experiment,
    generate,
    weak_error_experiment,
)

__version__ = "0.1.0"
