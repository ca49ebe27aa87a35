"""Privacy auctions for weighted linear predictors.

Core pipeline: derive public weights from feature data, filter and
canonicalize the auction instance (`prepare`, which also returns the map from
canonical positions back to input rows), run the truthful budget-feasible
mechanism, and audit the released Laplace estimator's privacy and accuracy
against independent oracles.
"""

from .errors import (
    DegenerateAllOnes,
    DegenerateKernelMass,
    DimensionMismatch,
    EmptyInstance,
    IllConditionedWarning,
    InstanceTooLarge,
    KOutOfRange,
    NotCanonical,
    ParameterOutOfRange,
    ParseError,
    PrivauctionError,
    SingularSystem,
    ValidationError,
)
from .estimator import (
    Dclef,
    Lef,
    PrivacyIndexResult,
    TradeoffReport,
    check_tradeoff_bound,
    evaluate,
    privacy_index_exact,
    privacy_index_greedy,
    tradeoff_construct,
)
from .instances import (
    AuctionInstance,
    ValueInterval,
    canonicalize,
    filter_assumption1,
    load_instance,
    prepare,
    save_instance,
)
from .mechanism import MechanismOutcome, fair_inner_product
from .optimal import (
    FractionalSolution,
    KktCertificate,
    OracleSolution,
    brute_force_opt,
    fractional_optimum,
    kkt_certificate,
    opt_bounds_check,
)
from .predictors import (
    DerivedWeights,
    FeatureSet,
    GaussianKernel,
    LinearKernel,
    WeightSpec,
    kernel_regression_weights,
    knn_weights,
    nadaraya_watson_weights,
    ridge_weights,
)
from .verify import (
    SweepConfig,
    VerificationReport,
    generate_instance,
    hardness_instance,
    misreport_grid,
    run_approximation_sweep,
    run_truthfulness_sweep,
)

__version__ = "0.1.0"
