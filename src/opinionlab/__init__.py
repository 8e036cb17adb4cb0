"""opinionlab: multi-topic opinion dynamics on directed stochastic block
models, their explicit mean-field approximation, and the experiments
that measure how fast the two agree."""

__version__ = "0.1.0"

from .model import ModelSpec
from .graph import GraphSample, InfluenceMatrix, normalize_weights, sample_graph, sample_labels
from .dynamics import (
    OpinionState, SignalFrame, TrajectoryRecord, hop_weight, hop_weight_table,
    initial_state, sample_signal_frame, simulate, step,
)
from .meanfield import (
    MeanFieldModel, RegimeStats, StationarySampler, build_meanfield_model,
    deterministic_profile, meanfield_trajectory, mixing_matrix, no_inbound_prob,
    regime_stats, share_mismatch, stationary_horizon,
)
from .gwtree import TreeBudgetError, a_s_profile, neighborhood_diagnostic, offspring_means
from .metrics import (
    ConcentrationCase, ConcentrationReport, ErrorCurve, ErrorPoint, burn_in_steps,
    chaos_experiment, concentration_check, coupled_gap_run, error_experiment, parse_function,
    stationarity_experiment,
)
from .config import ConfigError, ExperimentConfig, parse_config, theta_value
from .harness import run
