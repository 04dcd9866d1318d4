"""Condition-based maintenance toolkit.

Feature extraction from sensor windows, left-to-right input-output HMM
degradation models trained with generalized EM, a Gaussian-mixture symbol
alphabet, POMDP assembly and point-based value iteration over capacity and
maintenance actions, online policy execution, and Monte-Carlo evaluation.
"""
from .bearing import bearing_pomdp
from .errors import DataError, NumericalError
from .features import (FEATURE_NAMES, extract_features, read_features_csv, read_samples_csv,
                       segment_stream, windows_to_features, write_features_csv)
from .gmm import GmmConfig, GmmModel, discretize, fit_gmm, responsibilities
from .iohmm import (Dataset, GemConfig, IohmmModel, Posteriors, RulForecast,
                    SelectionReport, Sequence, aic, bic, decode_states,
                    enforce_left_to_right, forward_backward, forward_filter,
                    gem_fit, init_kmeans, loglik, n_parameters, predict_rul,
                    sample_sequence, select_k)
from .pomdp import (CostTable, PbviConfig, Policy, PomdpModel, backup,
                    belief_update, build_pomdp, build_pomdp_from_matrices,
                    expand, expected_reward, observation_prob, pbvi_solve,
                    prune_alphas)
from .runtime import (Decision, DecisionContext, belief_from_symbols,
                      decide_from_features, decide_recursive, decide_stateless,
                      run_session)
from .sim import (SimConfig, SimReport, compare_classical, decoded_reverse_steps,
                  k_sweep, rul_experiment, simulate, transition_diagnostics)

__version__ = "0.1.0"
