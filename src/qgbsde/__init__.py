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
                     DomainTooSmall, GridMismatch, InvalidParameters,
                     InvalidPartition, InvalidPoints, NumericalBlowup,
                     PicardDivergence, QgbsdeError, QuadratureUnstable,
                     RejectedModel, SingularFlow)
from .model import (PRESETS, AssumptionLevel, ModelSpec, Partition,
                    check_growth_certificate, make_brownian, make_discount,
                    make_gbm, make_quadratic, nested_indices)
from .truncation import smooth_clamp, smooth_clamp_grad, truncate_driver
from .rng import normal_increments
from .sde import (PathEnsemble, dump_ensemble, flow_identity_residual,
                  load_ensemble, simulate_forward, simulate_variational)
from .regression import (FitInfo, RegressionBasis, StepDesign, fit_step,
                         project, step_design)
from .solver import (BackwardSolution, SolverMeta, compute_zbar,
                     project_window_average, solve_backward_regression,
                     solve_quadrature_1d)
from .variational import (RepresentationReport, VariationalSolution,
                          representation_check, solve_variational_bsde)
from .oracle import (OracleResult, bmo_bound, cole_hopf_from_model,
                     cole_hopf_increment_stat, cole_hopf_reference)
from .diagnostics import (BmoEstimate, DiagnosticsReport, OrderFit,
                          TruncationCurve, TruncationPoint, bmo_estimate,
                          effective_qbar, fit_convergence_order,
                          truncation_error_curve, y_increment_stat,
                          z_increment_stat, z_l2_regularity)

__version__ = "0.1.0"

__all__ = [
    "AssumptionLevel", "AssumptionLevelTooLow", "BackwardSolution",
    "BmoEstimate", "ConfigError", "DegenerateRegression", "DiagnosticsReport",
    "DomainTooSmall", "FitInfo", "GridMismatch", "InvalidParameters",
    "InvalidPartition", "InvalidPoints", "ModelSpec", "NumericalBlowup",
    "OracleResult", "OrderFit", "PRESETS", "Partition", "PathEnsemble",
    "PicardDivergence", "QgbsdeError", "QuadratureUnstable",
    "RegressionBasis", "RejectedModel", "RepresentationReport",
    "SingularFlow", "SolverMeta", "StepDesign", "TruncationCurve", "TruncationPoint",
    "VariationalSolution", "bmo_bound", "bmo_estimate",
    "check_growth_certificate", "cole_hopf_from_model",
    "cole_hopf_increment_stat", "cole_hopf_reference",
    "compute_zbar", "dump_ensemble", "effective_qbar", "fit_convergence_order",
    "fit_step", "flow_identity_residual", "load_ensemble", "make_brownian",
    "make_discount", "make_gbm", "make_quadratic", "nested_indices",
    "normal_increments", "project", "project_window_average",
    "representation_check", "simulate_forward", "simulate_variational",
    "smooth_clamp", "smooth_clamp_grad", "solve_backward_regression",
    "solve_quadrature_1d", "step_design",
    "solve_variational_bsde", "truncate_driver", "truncation_error_curve",
    "y_increment_stat", "z_increment_stat", "z_l2_regularity",
]
