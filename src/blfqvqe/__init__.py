"""Valence light-front pion on qubits.

Builds the effective mass-squared Hamiltonian in a fixed-J_z harmonic
oscillator basis block, encodes it on qubits (occupation/direct,
Bravyi-Kitaev, or compact binary), solves it variationally on a local
statevector simulator with optional shot sampling and readout-error
mitigation, and evaluates the hadronic observables: pion mass squared,
decay constant, mass radius, valence parton distribution, elastic form
factor, and charge radius.
"""

__version__ = "0.1.0"

from .basisfuncs import (BasisCutoffs, BasisState, LongitudinalExponents,
                         ModelParameters, UnsupportedCutoffError, WaveFunction,
                         chi, compute_exponents, enumerate_block,
                         longitudinal_integral)
from .hamiltonian import (Eigensolution, HermitianObservable,
                          build_effective_hamiltonian, build_h0_diagonal,
                          build_njl_matrix, diagonalize)
from .pauli import (PauliString, PauliSum, embed_compact, embed_direct,
                    jw_hopping_pauli, jw_to_bk_pauli, pauli_sum_to_matrix)
from .simulator import (ReadoutNoiseModel, Statevector, expectation_exact,
                        expectation_moments, expectation_sampled,
                        sampled_estimates)
from .observables import (E_ANTIQUARK, E_QUARK, HBARC, DecayConstantSpec,
                          FormFactorCurve, MassRadiusMatrix, PdfDensity,
                          charge_radius, decay_constant, decay_projector,
                          decay_spec, default_q2_grid, elastic_form_factor,
                          form_factor_matrix, mass_radius,
                          mass_radius_matrix, pdf, tm_coefficient)
from .vqe import (GOOD_GUESS, OptimizerConfig, ScalingResult, VqeResult,
                  minimize, prepared_state, relative_variance,
                  scaling_experiment, vqe_run)
