"""Integer-forcing linear MIMO receiver design.

Builds full-rank integer coefficient matrices that maximize the total
achievable rate of an integer-forcing receiver, searching near the
slowest-ascent lines of the rate quadratic form instead of the whole
integer box, and benchmarks the result against ZF/MMSE/exhaustive
search/capacity with a seeded Monte Carlo harness.
"""

from .channel import (
    ChannelRealization,
    RngState,
    capacity,
    complex_to_real,
    derive_trial_rng,
    load_matrix,
    parse_matrix_text,
    sample_channel,
)
from .fieldrec import MessageBlock, PrimeField, combine_messages, mat_inverse_mod_p, recover_messages
from .harness import Aggregate, ExperimentConfig, TrialRecord, run_sweep, run_trial, write_csv
from .ifcore import (
    QForm,
    RateReport,
    compute_q,
    mmse_rates,
    optimal_projection,
    rate_from_ab,
    rate_from_q,
    total_rate,
    zf_rates,
)
from .linalg import EigenBasis, IntVector, det, int_rank_independent, solve_inverse, sym_eigen
from .sdm import CandidateSet, SearchConfig, candidate_set, jump_points, line_candidates, midpoint_grid
from .select import IfDesign, design_if, exhaustive_candidates, greedy_full_rank, sort_candidates

__version__ = "0.1.0"

__all__ = [
    "Aggregate",
    "CandidateSet",
    "ChannelRealization",
    "EigenBasis",
    "ExperimentConfig",
    "IfDesign",
    "IntVector",
    "MessageBlock",
    "PrimeField",
    "QForm",
    "RateReport",
    "RngState",
    "SearchConfig",
    "TrialRecord",
    "capacity",
    "candidate_set",
    "combine_messages",
    "complex_to_real",
    "compute_q",
    "derive_trial_rng",
    "design_if",
    "det",
    "exhaustive_candidates",
    "greedy_full_rank",
    "int_rank_independent",
    "jump_points",
    "line_candidates",
    "load_matrix",
    "mat_inverse_mod_p",
    "midpoint_grid",
    "mmse_rates",
    "optimal_projection",
    "parse_matrix_text",
    "rate_from_ab",
    "rate_from_q",
    "recover_messages",
    "run_sweep",
    "run_trial",
    "sample_channel",
    "solve_inverse",
    "sort_candidates",
    "sym_eigen",
    "total_rate",
    "write_csv",
    "zf_rates",
]
