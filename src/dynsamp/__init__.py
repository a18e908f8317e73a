"""Recovery of a signal from coarse samples of its filtered time evolution.

The package models periodic complex signals, evolution filters given by
their frequency response, the per-frequency systems whose invertibility
decides recoverability, the forward/inverse sampling pipeline, conditioning
bounds, and a span-of-shifted-generators layer.  ``dynsamp.cli`` drives
batch experiments from JSON configs.
"""

from .errors import (CoincidentNodes, DynsampError, EvenM, GridMiss,
                     HypothesisViolated, LengthMismatch, MalformedSamples,
                     NoAdmissibleN, NonDivisibleLength, PreconditionViolated,
                     RankDeficient, ShapeMismatch, SingularSystem, TailTooLarge,
                     TooLarge)
from .spectral import dft, idft, shift, subsample
from .filters import (Filter, check_symmetric_decreasing, evolve, filter_delta,
                      filter_from_spec, filter_heat, filter_raised_cosine,
                      filter_table)
from .systems import (KernelBasis, PlainSystem,
                      build_extended, build_extended_at, build_plain, build_plain_at,
                      det_plain, gautschi_bound_nodes, kernel_basis,
                      singular_set, u_row)
from .recon import (SampleSet, dense_oracle, forward, oracle_solve,
                    reconstruct_extended, reconstruct_plain, stack_samples)
from .stability import (BetaBound, NoiseTrialResult, StabilityReport,
                        bound_beta1, bound_beta2, bound_beta3,
                        empirical_pinv_norm, full_omega, gautschi_bound,
                        guard_band_points, lower_bound_stablow, minimal_omega,
                        noise_trial, proportionality_deviation,
                        stability_report)
from .sis import (Generator, ReducibilityResult, SISSystem, build_sis_system,
                  choose_n, gaussian_response, heat_line_response,
                  identity_response, line_filter_from_spec, make_generator,
                  n_is_admissible, periodize_phi,
                  reducibility_check, sis_forward,
                  sis_matrix, sis_reconstruct, sis_singular_set)

__version__ = "0.1.0"
