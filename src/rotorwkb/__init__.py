"""Cross-validating solvers for rotating semiclassical NLS dynamics.

Three routes to the same physics: a spectral time-splitting integrator
for the wavefunction, a finite-difference march of the modified WKB
system, and Hamiltonian ray tracing for the phase; plus observables and
an epsilon-sweep harness that measures the semiclassical convergence
rate between them.
"""

from .config import (ConfigError, InitialData, PhaseSpec, RunConfig,
                     apply_overrides, load_config, parse_config, serialize)
from .core import (GridSpec, Nonlinearity, NumericalAbort, SimParams,
                   WaveField, boundary_max, eval_potential, integrate,
                   make_gaussian, make_vortex_init, potential_grid,
                   potential_gradient, rotation_generator, sobolev_norm,
                   spectral_gradient, wkb_assemble)
from .hydro import (HydroState, MadelungFields, WKBState, accumulate_phi,
                    assemble_matrices, cfl_limits, circulation, evolve_hydro,
                    evolve_wkb, gradient_consistency, madelung_extract, rhs_wkb)
from .nls import (evolve_nls, step_kinetic_rotation_axis1,
                  step_kinetic_rotation_axis2, step_potential_nonlinear,
                  strang_step)
from .observables import (MomentODEParams, ObservableRecord, am_relation_residual,
                          angular_momentum, dominant_frequency, energy,
                          integrate_isotropic_moments, isotropic_closed_form,
                          limit_angular_momentum, mass, moment_ode_rhs, moments,
                          probability_current, record_from_hydro,
                          record_from_wavefield, record_from_wkb,
                          records_from_csv, records_to_csv)
from .rays import (CausticError, QuadraticPhase, QuadraticPhaseTrajectory, Ray,
                   RayTrajectory, ShootingError, eval_phase_general, hamiltonian,
                   integrate_ray, integrate_rays, quadratic_phase_evolve)
from .runner import (RunResult, SweepError, SweepResult, build_hydro_state,
                     build_ray_bundle, build_wavefield, build_wkb_state,
                     compare_fields, epsilon_sweep, run)
from .snapshots import Snapshot, load_field, save_field

__version__ = "0.1.0"
