"""Regression Monte Carlo for backward equations with quadratic-growth drivers.

The package is organized around a single pipeline: simulate the forward
diffusion (sde), truncate the driver into a Lipschitz one (truncation), solve
the backward equation by regression dynamic programming (solver, regression),
and measure what the theory predicts: path regularity of the solution pair,
decay of the truncation error in the level, and agreement with closed-form or
quadrature references (diagnostics, oracle). cli wires the pieces into
reproducible experiments.
"""

from .errors import (AssumptionLevelTooLow, ConfigError, DegenerateRegression,
                     DomainTooSmall, InvalidParameters,
                     InvalidPartition, InvalidPoints, NumericalBlowup,
                     PicardDivergence, QgbsdeError, QuadratureUnstable,
                     RejectedModel, SingularFlow)
from .model import (PRESETS, ModelSpec, Partition, check_growth_certificate,
                    make_brownian, make_discount, make_gbm, make_quadratic)
from .truncation import smooth_clamp, smooth_clamp_grad, truncate_driver
from .sde import (PathEnsemble, dump_ensemble, flow_identity_residual, flow_inverse,
                  load_ensemble, simulate_forward, simulate_variational)
from .regression import RegressionBasis, StepDesign, project, step_design
from .solver import (BackwardSolution, SolverMeta, solve_backward_regression,
                     solve_quadrature_1d)
from .variational import RepresentationReport
from .oracle import (OracleResult, bmo_bound, cole_hopf_from_model,
                     cole_hopf_increment_stat, cole_hopf_reference)
from .diagnostics import (BmoEstimate, Diagnosis, OrderFit, Regularity,
                          TruncationCurve, TruncationPoint, diagnose_pass,
                          effective_qbar, fit_convergence_order,
                          regularity_pass, truncation_error_curve)

__version__ = "0.1.0"

__all__ = [
    "AssumptionLevelTooLow", "BackwardSolution",
    "BmoEstimate", "ConfigError", "DegenerateRegression", "Diagnosis",
    "DomainTooSmall", "InvalidParameters",
    "InvalidPartition", "InvalidPoints", "ModelSpec", "NumericalBlowup",
    "OracleResult", "OrderFit", "PRESETS", "Partition", "PathEnsemble",
    "PicardDivergence", "QgbsdeError", "QuadratureUnstable",
    "RegressionBasis", "Regularity", "RejectedModel", "RepresentationReport",
    "SingularFlow", "SolverMeta", "StepDesign", "TruncationCurve", "TruncationPoint",
    "bmo_bound", "check_growth_certificate", "cole_hopf_from_model",
    "cole_hopf_increment_stat", "cole_hopf_reference",
    "diagnose_pass", "dump_ensemble", "effective_qbar", "fit_convergence_order",
    "flow_identity_residual", "flow_inverse", "load_ensemble", "make_brownian",
    "make_discount", "make_gbm", "make_quadratic",
    "project", "regularity_pass",
    "simulate_forward", "simulate_variational",
    "smooth_clamp", "smooth_clamp_grad", "solve_backward_regression",
    "solve_quadrature_1d", "step_design",
    "truncate_driver", "truncation_error_curve",
]
