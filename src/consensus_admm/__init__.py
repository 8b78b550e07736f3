"""Round-synchronous consensus ADMM over directed graphs.

The package combines three layers:

* exact distributed averaging in finitely many rounds (ratio iterations
  whose limits are recovered from short trajectories), including a fully
  distributed stopping rule;
* consensus-ADMM solvers for separable problems (least squares, l1-penalized
  logistic regression) whose averaging step runs on that machinery;
* a deterministic message-passing simulator, centralized reference solvers,
  and a config-driven CLI for experiments.
"""

from .admm import (AdmmConfig, BoundReport, PhaseFlags, ProbeReport,
                   RunRecord, StoppingReport, TerminationRunResult,
                   check_o1k_bound, composite_objective, ergodic_averages,
                   fterc_run, ftdt_run, rlinear_probe, run_dadmm_fterc,
                   run_epsilon_baseline, run_fdadmm_ftdt, stopping_criterion)
from .cli import (CSV_COLUMNS, Comparison, ExperimentConfig, GraphSpec,
                  ProblemSpec, compare_runs, parse_config, read_csv,
                  run_experiment, write_csv)
from .consensus import (ConsensusResult, HankelDetector, fterc_final,
                        ratio_update)
from .errors import (AlreadyFrozen, ConfigError, ConsensusAdmmError,
                     Disconnected, InsufficientData, InvalidEdge,
                     MaxIterations, NonIntegerResult, NumericBreakdown,
                     ProtocolViolation, SchemaMismatch, SolverFailure)
from .exact import exact_consensus_run
from .graph import (Digraph, build_digraph, check_strongly_connected,
                    diameter, is_strongly_connected, load_digraph,
                    random_strongly_connected, ratio_weights, save_digraph)
from .netsim import RoundEngine, RoundRecord, phase_lengths, stable_digest
from .objectives import (L1Regularizer, LeastSquaresObjective,
                         LocalObjective, LogisticObjective, compute_mu_max,
                         l1_z_update, load_dataset,
                         make_least_squares_instance, make_logistic_instance,
                         read_table, save_dataset, soft_threshold, split_rows)
from .oracle import (Reference, centralized_l1_logistic,
                     centralized_least_squares, minimal_poly_oracle)
from .termination import (Counters, counter_message, derive_max_defect,
                          freeze_counter, ftdt_step)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
