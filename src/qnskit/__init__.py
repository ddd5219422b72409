"""Toolkit for quantum no-signalling correlations and non-local games.

Construct correlations from local, quantum, commuting and tracial witnesses,
verify class certificates, reduce to classical behaviours, and check perfect
strategies for constraint games including graph colourings and
non-commutative graph homomorphisms.
"""

from .algebra import (AlgStochasticMatrix, TracialAlgebra, abelian_algebra,
                      abelian_from_chois, compose_alg, matrix_algebra,
                      scalar_algebra, tracial_choi)
from .correlations import (CorrelationDims, CqnsCorrelation, LocalWitness,
                           NsCorrelation, QnsCorrelation, QuantumWitness,
                           TracialWitness, build_commuting, build_local,
                           build_quantum, build_tracial, compose_correlations,
                           compose_tables, cqns_report, from_classical,
                           lift_cqns, mix_local, ns_report,
                           qns_report, reduce_cqns, reduce_ns,
                           witness_residual)
from .games import (ConstraintGame, RuleFunction, colouring_game,
                    compose_games, compose_rules, from_rule,
                    homomorphism_game, perfect_strategy_check)
from .graphs import (Graph, SkewSymmetricSubspace, cycle5_umbrella,
                     graph_subspace, hom_check, hom_residual,
                     independence_number, kd2_colouring, kd2_explicit_states,
                     kraus_to_choi, lovasz_theta, orth_rep_to_colouring,
                     proper_check, proper_residuals, realization_basis,
                     realize_vector, stahlke_check, stahlke_residual,
                     vertex_map_kraus, xi_qc_lower_bound)
from .linalg import (Report, apply_choi, herm_sqrt, is_channel, is_psd, kron,
                     max_entangled, max_entangled_vector, partial_trace,
                     permute_systems)
from .stochastic import (IsometryDilation, StochasticOperatorMatrix,
                         channel_choi, commuting_product, compose, dilate,
                         from_choi, from_povms, is_classical,
                         is_semiclassical, tensor, to_classical,
                         to_semiclassical, verify)
from .symmetry import (build_locally_tracial, build_tracial_cqns,
                       build_tracial_ns, channel_sharp, fair_residual,
                       fair_state_residual, image_reciprocal_witness,
                       is_fair, is_fair_state, reciprocal_certificate,
                       reciprocal_from_state, reciprocal_state)
from .theta import ThetaResult, solve_theta

__version__ = "0.1.0"
