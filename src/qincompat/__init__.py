"""Feasibility toolbox for quantum incompatibility.

Device types (states, observables, channels, instruments, testers,
assemblages), a projection-based cone feasibility solver, and checks for
joint measurability, channel compatibility, observable/channel pairs,
steering, process testers and post-processing order.
"""

from .config import DEFAULT_TOLS, Tolerances
from .devices import (Channel, Instrument, NaimarkDilation, Observable,
                      SelfConjugatePair, State, StochasticMatrix,
                      TrivialObservable, apply_channel, binarize, choi_compose,
                      choi_to_kraus, cloner_marginal_coefficient,
                      conjugate_channel, constant_channel,
                      ctrl_unitary_selfconjugate, depolarizing_channel,
                      diag_channel, fourier_pair, identity_channel, is_trivial,
                      kraus_to_choi, mix_with_trivial, mub_qubit,
                      naimark_dilate, post_process, random_channel,
                      random_povm, random_state, random_unitary, relabel,
                      sharp_observable, tensor_channel, transpose_observable,
                      trivial_observable, unitary_channel, werner_cloner)
from .sdpcore import (Certificate, Decision, SdpProblem, SolveResult,
                      ThresholdResult, UpperEnd, LowerEnd, Verdict, bisect_threshold,
                      solve_feasibility, threshold_search, verify_witness)
from .obscompat import (CommutatorReport, Compatibility, JointObservable,
                        JordanReport, MurReport, NoiseMode,
                        OrderReport, WeakCoexistenceReport, build_postprocess_joint,
                        build_toss_joint, check, check_coexistent, check_joint,
                        check_weakly_coexistent, commutator_bound,
                        commutator_criterion, degree_of_compatibility,
                        discrepancy, fourier_region_formula,
                        has_projection_in_range, is_informationally_complete,
                        jordan_criterion, margins_of, mur_test, postprocessing_order,
                        region_membership, squared_weight_criterion,
                        unsharpness)
from .chancompat import (NoiseClass, broadcastable_states, channel_division,
                         check_channel_pair, conjugate_compat_check,
                         robustness, state_marginal_feasible)
from .obschan import (NddrReport,
                      check_obs_channel, least_disturbing_channel,
                      luders_instrument, nddr_test, rank1_channel_form_check,
                      sequential_recover)
from .steering import (Assemblage, CrosscheckReport, LhsModel,
                       assemblage_from, check_lhs, deterministic_strategies,
                       max_entangled_assemblage, steering_degree,
                       steering_jm_crosscheck)
from .process import (CommutationCompatReport, Tester,
                      check_tester_pair, commutation_vs_compat_report,
                      prepare_measure_tester, tester_degree,
                      tester_probability, trivial_tester)
from .serialize import load_device, parse, save_device, serialize

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLS", "Tolerances",
    "State", "Observable", "TrivialObservable", "StochasticMatrix", "Channel",
    "Instrument", "NaimarkDilation", "SelfConjugatePair", "Tester",
    "JointObservable", "Assemblage", "LhsModel",
    "sharp_observable", "trivial_observable", "is_trivial", "mub_qubit",
    "fourier_pair", "mix_with_trivial", "post_process", "relabel", "binarize",
    "transpose_observable", "naimark_dilate", "kraus_to_choi", "choi_to_kraus",
    "apply_channel", "choi_compose", "tensor_channel", "identity_channel",
    "unitary_channel", "constant_channel", "depolarizing_channel",
    "diag_channel", "conjugate_channel", "ctrl_unitary_selfconjugate",
    "werner_cloner", "cloner_marginal_coefficient", "random_state",
    "random_unitary", "random_povm", "random_channel",
    "Verdict", "SdpProblem", "SolveResult", "Decision", "ThresholdResult", "UpperEnd", "LowerEnd",
    "Certificate", "solve_feasibility", "verify_witness", "bisect_threshold", "threshold_search",
    "NoiseMode", "Compatibility", "margins_of", "check", "check_joint", "build_toss_joint",
    "build_postprocess_joint", "region_membership", "degree_of_compatibility",
    "fourier_region_formula", "JordanReport", "jordan_criterion",
    "CommutatorReport", "commutator_criterion", "unsharpness", "discrepancy",
    "commutator_bound", "MurReport", "mur_test", "squared_weight_criterion",
    "is_informationally_complete", "has_projection_in_range",
    "check_coexistent", "WeakCoexistenceReport", "check_weakly_coexistent",
    "OrderReport", "postprocessing_order",
    "check_channel_pair", "broadcastable_states",
    "channel_division", "conjugate_compat_check",
    "NoiseClass", "robustness", "state_marginal_feasible",
    "check_obs_channel", "luders_instrument",
    "least_disturbing_channel", "sequential_recover",
    "rank1_channel_form_check", "NddrReport", "nddr_test",
    "CrosscheckReport", "deterministic_strategies",
    "assemblage_from", "max_entangled_assemblage", "check_lhs",
    "steering_degree", "steering_jm_crosscheck",
    "CommutationCompatReport", "trivial_tester",
    "prepare_measure_tester", "tester_probability", "check_tester_pair",
    "tester_degree", "commutation_vs_compat_report",
    "serialize", "parse", "save_device", "load_device",
]
