"""Integer-forcing linear MIMO receiver design.

Builds full-rank integer coefficient matrices that maximize the total
achievable rate of an integer-forcing receiver, searching near the
slowest-ascent lines of the rate quadratic form instead of the whole
integer box, and benchmarks the result against ZF/MMSE/exhaustive
search/capacity with a seeded Monte Carlo harness.
"""

from .channel import ChannelRealization
from .harness import ExperimentConfig, run_sweep, run_trial, write_csv
from .sdm import SearchConfig
from .select import IfDesign, design_if

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "ExperimentConfig",
    "IfDesign",
    "SearchConfig",
    "design_if",
    "run_sweep",
    "run_trial",
    "write_csv",
]
