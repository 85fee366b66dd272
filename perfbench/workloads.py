"""Workload definitions, their seed-drawn inputs, and the output checks.

Every workload runs the same three operation kinds in each round, with the
workload setting their sizes: the four acceptance certifications, a set of
exact enumeration checks, and a `bound sweep` over every CLI bound name
followed by one `report` merge.  The kind a workload is named after gets most
of each round; the other two run at small sizes so that every end-to-end
metric is measured on every workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import genbounds
from genbounds import harness, posteriors, problems
from genbounds.bounds import (
    BoundRequest,
    catoni_bound,
    cmi_pac_high_prob,
    dp_prior_high_prob,
    zhang_high_prob,
)
from genbounds.divergences import DiscreteDist, kl_discrete
from genbounds.losses import LossModel

DELTA = 0.05
BETA_ALG = 5.0
DP_EPSILON = 0.2
#: (name, bound beta) of the four acceptance certifications.
CERTIFICATIONS = (("zhang", 1.0), ("catoni", 1.0), ("cmi", 0.3), ("dp-prior", 1.0))
#: Violation counts of the acceptance suite at seed 20240817 with 10^4 trials.
ACCEPTANCE_SEED = 20240817
ACCEPTANCE_TRIALS = 10_000
ACCEPTANCE_VIOLATIONS = {"zhang": 65, "catoni": 65, "cmi": 3, "dp-prior": 1}
#: Trials re-derived from the public primitives and compared bit for bit.
CHECKED_TRIALS = (0, 1, 2, -2, -1)

EXACT_BETA_ALG = 2.0
IEI_BETA = 1.0
AUDIT_EPSILON = 0.5
#: Tolerance of the repository's own audit test on the privacy ceiling.
AUDIT_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    #: "coin": 4 experts on a fair coin; "wide": a seed-drawn binary matrix.
    problem: str
    n: int
    trials: int
    #: Exact checks: (kind, hypotheses, outcomes, n).
    exact: tuple[tuple[str, int, int, int], ...]
    sweep_points: int
    #: Measure set-up through fresh-interpreter CLI calls instead of a bare import.
    cli_setup: bool = False

    def sizes(self) -> dict:
        hyp, out = (16, 8) if self.problem == "wide" else (4, 2)
        return {
            "certify": {"problem": self.problem, "hypotheses": hyp, "outcomes": out, "n": self.n,
                        "trials_per_certification": self.trials, "certifications": len(CERTIFICATIONS)},
            "exact": [dict(zip(("kind", "hypotheses", "outcomes", "n"), spec)) for spec in self.exact],
            "sweep": {"bound_names": 20, "points_per_name": self.sweep_points},
        }


_SMALL_EXACT = (("verify", 3, 2, 6), ("iei", 3, 2, 6), ("cmi", 3, 2, 2), ("dp", 3, 2, 4))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-coin", "coin", 50, 250, _SMALL_EXACT, 5),
        Workload("certify-wide", "wide", 200, 150,
                 (("verify", 16, 8, 2), ("iei", 16, 8, 2), ("cmi", 16, 8, 1), ("dp", 16, 8, 2)), 5),
        Workload("enumerate-exact", "coin", 50, 50,
                 (("verify", 3, 2, 10), ("iei", 3, 2, 10), ("cmi", 3, 2, 3), ("dp", 3, 2, 7)), 5),
        Workload("cli-sweep", "coin", 50, 50, _SMALL_EXACT, 100, cli_setup=True),
    )
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def coin_problem(n: int) -> genbounds.FiniteProblem:
    return genbounds.FiniteProblem(
        losses=[[0, 1], [1, 0], [0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=n
    )


def wide_problem(rng: np.random.Generator, n: int) -> genbounds.FiniteProblem:
    """16 hypotheses x 8 outcomes with {0, 1} losses and an interior data law."""
    losses = rng.integers(0, 2, size=(16, 8)).astype(float)
    mu = DiscreteDist.from_weights(rng.random(8) + 0.2)
    return genbounds.FiniteProblem(losses=losses, mu=mu, n=n)


def certification_problem(workload: Workload, seed: int) -> genbounds.FiniteProblem:
    if workload.problem == "wide":
        return wide_problem(np.random.default_rng([seed, 0]), workload.n)
    return coin_problem(workload.n)


def trial_config(problem, name: str, beta: float, seed: int, trials: int) -> harness.TrialConfig:
    return harness.TrialConfig(
        seed=seed,
        trials=trials,
        problem=problem,
        algorithm=harness.GibbsAlgorithm(beta_alg=BETA_ALG),
        bound=harness.BoundSpec(name, {"beta": beta}),
        delta=DELTA,
    )


def run_certification(config: harness.TrialConfig):
    """One certification through the public entry point for its bound."""
    name = config.bound.name
    if name == "cmi":
        return harness.run_cmi_experiment(config)
    if name == "dp-prior":
        return harness.run_dp_prior_experiment(config, DP_EPSILON)
    return harness.run_violation_experiment(config)


# ---------------------------------------------------------------------------
# Certification checks
# ---------------------------------------------------------------------------


def _draw(problem, seed: int, trial: int, supersample: bool):
    """The trial's training (and ghost) sample, drawn as the harness documents it."""
    rng = np.random.default_rng([seed, trial])
    k, n, mu = problem.num_outcomes, problem.n, problem.mu.probs
    if not supersample:
        return rng.choice(k, size=n, p=mu), None
    z_tilde = rng.choice(k, size=(n, 2), p=mu)
    u = rng.integers(0, 2, size=n)
    rows = np.arange(n)
    return z_tilde[rows, u], z_tilde[rows, 1 - u]


def recompute_trial(config: harness.TrialConfig, trial: int) -> tuple[float, float]:
    """(bound, truth) of one trial from the public primitives, not the harness."""
    problem = config.problem
    name = config.bound.name
    beta = config.bound.params["beta"]
    n = problem.n
    uniform = DiscreteDist.uniform(problem.num_hypotheses)
    model = LossModel.bernoulli()
    train, ghost = _draw(problem, config.seed, trial, supersample=name == "cmi")
    risks = problems.empirical_risks(problem, train)
    if name == "dp-prior":
        prior = posteriors.gibbs_posterior(uniform, risks, n * DP_EPSILON / 2.0)
    else:
        prior = uniform
    posterior = posteriors.gibbs_posterior(prior, risks, n * BETA_ALG)
    kl = kl_discrete(posterior, prior)
    if name == "cmi":
        gap = float(posterior.probs @ (problems.empirical_risks(problem, ghost) - risks))
        request = BoundRequest(n=n, delta=DELTA, kl=kl, beta=beta, model=model)
        return cmi_pac_high_prob(request).value, gap
    request = BoundRequest(
        n=n, delta=DELTA, empirical_risk=float(posterior.probs @ risks), kl=kl, beta=beta, model=model
    )
    if name == "catoni":
        return catoni_bound(request).value, float(posterior.probs @ problems.true_risks(problem))
    truth = float(posterior.probs @ problems.annealed_risks(problem, beta))
    if name == "dp-prior":
        return dp_prior_high_prob(request, DP_EPSILON).value, truth
    return zhang_high_prob(request).value, truth


def harness_trial(config: harness.TrialConfig, trial: int) -> tuple[float, float]:
    name = config.bound.name
    if name == "cmi":
        return harness.cmi_trial(config, trial)
    if name == "dp-prior":
        return harness.dp_prior_trial(config, trial, DP_EPSILON)
    return harness.violation_trial(config, trial)


def check_certification(config: harness.TrialConfig, report) -> list[str]:
    """Problems with one certification's report; empty when it is correct."""
    errors = []
    if report.trials != config.trials:
        errors.append(f"report covers {report.trials} of {config.trials} trials")
    if not 0 <= report.violations <= report.trials:
        errors.append(f"violation count {report.violations} out of range")
    for index in CHECKED_TRIALS:
        trial = index % config.trials
        got = harness_trial(config, trial)
        want = recompute_trial(config, trial)
        if got != want:
            errors.append(f"trial {trial}: harness gives {got}, primitives give {want}")
    return errors


def distinct_types(config: harness.TrialConfig) -> int:
    """Distinct training-sample count vectors over the certification's trials."""
    k = config.problem.num_outcomes
    supersample = config.bound.name == "cmi"
    seen = set()
    for trial in range(config.trials):
        train, _ = _draw(config.problem, config.seed, trial, supersample)
        seen.add(np.bincount(train, minlength=k).tobytes())
    return len(seen)


# ---------------------------------------------------------------------------
# Exact enumeration checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactInput:
    kind: str
    problem: genbounds.FiniteProblem
    prior: DiscreteDist


def exact_inputs(workload: Workload, rng: np.random.Generator) -> list[ExactInput]:
    inputs = []
    for kind, hyp, out, n in workload.exact:
        problem = genbounds.FiniteProblem(
            losses=rng.random((hyp, out)), mu=DiscreteDist.from_weights(rng.random(out) + 0.2), n=n
        )
        inputs.append(ExactInput(kind, problem, DiscreteDist.from_weights(rng.random(hyp) + 0.05)))
    return inputs


def run_exact(item: ExactInput):
    problem, prior = item.problem, item.prior
    if item.kind == "verify":
        return harness.verify_expectation_bounds(problem, harness.GibbsAlgorithm(EXACT_BETA_ALG), prior=prior)
    if item.kind == "iei":
        def rule(sample):
            risks = problems.empirical_risks(problem, sample)
            return posteriors.gibbs_posterior(prior, risks, problem.n * EXACT_BETA_ALG)

        return posteriors.iei_exact(problem, rule, prior, IEI_BETA)
    if item.kind == "cmi":
        return harness.cmi_exact_quantities(problem, harness.GibbsAlgorithm(EXACT_BETA_ALG))
    if item.kind == "dp":
        return harness.dp_mechanism_max_log_ratio(problem, AUDIT_EPSILON)
    raise ValueError(item.kind)


def check_exact(item: ExactInput, result) -> list[str]:
    n = item.problem.n
    if item.kind == "verify":
        errors = []
        if not abs(result.golden_residual) <= 1e-10:
            errors.append(f"golden residual {result.golden_residual}")
        if not (result.mi_bound_holds and result.prior_bound_holds):
            errors.append(f"expectation bounds fail: {result}")
        return errors
    if item.kind == "iei":
        return [] if result <= 1.0 + 1e-10 else [f"exponential moment {result} > 1"]
    if item.kind == "cmi":
        cmi = result[0]
        ok = 0.0 <= cmi <= n * math.log(2.0) + 1e-12
        return [] if ok else [f"selector information {cmi} outside [0, n log 2]"]
    ok = result <= AUDIT_EPSILON + AUDIT_ATOL
    return [] if ok else [f"privacy audit {result} exceeds epsilon {AUDIT_EPSILON}"]
