"""Low-rank tensor-train solver for the reverse-time log-density evolution
of an Ornstein-Uhlenbeck noising process, with score-based sampling."""

from .basis import LegendreBasis, PolySpace, build_basis, derivative_matrix, \
    ou_generator_matrix
from .integrate import (SolutionSnapshot, SolverConfig, Trajectory,
                        degree_truncate, euler_step, power_iteration_bound,
                        rank_adapt, solve_hjb, stepsize_projection,
                        stepsize_retraction, stepsize_stiffness)
from .operators import (PotentialSpec, PotentialTerm, apply_lin, apply_nonlin,
                        apply_nonlin_linearized, apply_partial, apply_stiffness,
                        build_potential_tt, covariance_error, extract_quadratic,
                        poly_multiply, prepare_stiffness, project_degree)
from .sample import (SampleBatch, SamplerConfig, eval_v_batch, grad_v_batch,
                     reverse_sample, reverse_sample_scored)
from .tt import (TensorTrain, check_finite, read_checkpoint, tt_add_scaled,
                 tt_contract_mode_vectors, tt_from_dense, tt_inner, tt_norm,
                 tt_random, tt_round, tt_scale, tt_to_dense, tt_zero,
                 write_checkpoint)

__version__ = "0.1.0"

__all__ = [
    "LegendreBasis", "PolySpace", "build_basis", "derivative_matrix",
    "ou_generator_matrix",
    "SolutionSnapshot", "SolverConfig", "Trajectory", "degree_truncate",
    "euler_step", "power_iteration_bound", "rank_adapt", "solve_hjb",
    "stepsize_projection", "stepsize_retraction", "stepsize_stiffness",
    "PotentialSpec", "PotentialTerm", "apply_lin", "apply_nonlin",
    "apply_nonlin_linearized", "apply_partial", "apply_stiffness",
    "build_potential_tt", "covariance_error", "extract_quadratic",
    "poly_multiply", "prepare_stiffness", "project_degree",
    "SampleBatch", "SamplerConfig", "eval_v_batch", "grad_v_batch",
    "reverse_sample", "reverse_sample_scored",
    "TensorTrain", "check_finite", "read_checkpoint", "tt_add_scaled",
    "tt_contract_mode_vectors", "tt_from_dense", "tt_inner", "tt_norm",
    "tt_random", "tt_round", "tt_scale", "tt_to_dense", "tt_zero",
    "write_checkpoint",
]
