"""Generalization-bound calculus with a statistical certification harness.

The package computes PAC-Bayesian and information-theoretic generalization
bounds in closed form, optimizes posteriors under information-complexity
minimization, and certifies every high-probability bound empirically on
exactly solvable finite learning problems.
"""

from .bounds import (
    BoundRequest,
    BoundResult,
    catoni_bound,
    catoni_linear,
    cmi_expectation,
    cmi_pac_high_prob,
    delta_bound,
    dp_prior_gen_bound,
    dp_prior_high_prob,
    dp_prior_penalty,
    fano_identification_lb,
    mcallester_linear,
    pac_bayes_kl,
    subgamma_mi,
    subgamma_pacbayes,
    union_bound_beta,
    xu_raginsky,
    zhang_gen_expectation,
    zhang_gen_high_prob,
    zhang_high_prob,
)
from .divergences import (
    DiscreteDist,
    GaussianKLInputs,
    JointTable,
    conditional_kl,
    conditional_mutual_info,
    golden_formula_residual,
    kl_binary,
    kl_binary_inverse_upper,
    kl_discrete,
    kl_gaussian_diag,
    kl_gaussian_spectral,
    max_info_dp_bound,
    max_info_exact,
    mutual_info,
)
from .errors import (
    BudgetError,
    ConfigurationError,
    DegenerateError,
    DomainError,
    EvaluationError,
    GenBoundsError,
    ParameterError,
    ShapeError,
)
from .harness import (
    BoundSpec,
    ErmAlgorithm,
    ExpectationBoundReport,
    GibbsAlgorithm,
    SupersampleDraw,
    TrialConfig,
    ViolationReport,
    certify,
    clopper_pearson_upper,
    cmi_exact_quantities,
    cmi_trial,
    dp_mechanism_max_log_ratio,
    dp_prior_mechanism,
    dp_prior_trial,
    draw_supersample,
    enumerate_joint,
    run_cmi_experiment,
    run_dp_prior_experiment,
    run_violation_experiment,
    union_beta_grid,
    verify_expectation_bounds,
    violation_trial,
)
from .losses import (
    LossModel,
    PsiFunction,
    phi_beta,
    phi_beta_inverse,
    psi_of,
    psi_star_inverse,
    psi_star_inverse_numeric,
)
from .posteriors import (
    MonteCarloEstimate,
    PacBayesSgdParams,
    QuadraticModel,
    dv_identity_residual,
    expected_quadratic_loss,
    gaussian_icm_objective,
    gibbs_posterior,
    iei_empirical_check,
    iei_exact,
    information_complexity,
    local_entropy,
    local_entropy_mc,
    occam_bound,
    occam_spectral_kl,
    oic,
    optimal_gaussian_covariance,
    pacbayes_sgd_objective,
    stochastic_complexity,
)
from .problems import (
    FiniteProblem,
    annealed_risks,
    empirical_risks,
    iter_samples,
    true_risks,
)

__version__ = "0.1.0"
