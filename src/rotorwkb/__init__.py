"""Cross-validating solvers for rotating semiclassical NLS dynamics.

Three routes to the same physics: a spectral time-splitting integrator
for the wavefunction, a finite-difference march of the modified WKB
system, and Hamiltonian ray tracing for the phase; plus observables and
an epsilon-sweep harness that measures the semiclassical convergence
rate between them.
"""

__version__ = "0.1.0"

from .config import (ConfigError, InitialData, PhaseSpec, RunConfig,
                     apply_overrides, load_config, parse_config, serialize)
from .core import (GridSpec, Nonlinearity, NumericalAbort, SimParams,
                   WaveField, boundary_max, eval_potential, integrate,
                   make_gaussian, make_vortex_init, potential_grid,
                   rotation_generator, sobolev_norm, spectral_gradient,
                   wkb_assemble)
from .hydro import (HydroState, WKBState, assemble_matrices, cfl_limits,
                    evolve_hydro, evolve_wkb, gradient_consistency, rhs_wkb)
from .nls import evolve_nls
from .observables import (MadelungFields, MomentODEParams, ObservableRecord,
                          am_relation_residual, circulation, dominant_frequency,
                          isotropic_closed_form, madelung_extract, mass,
                          moment_ode_rhs, probability_current, record_from_hydro,
                          record_from_wavefield, record_from_wkb, records_to_csv)
from .rays import (CausticError, QuadraticPhase, Ray, RayTrajectory, ShootingError,
                   eval_phase_general, hamiltonian, integrate_ray, integrate_rays,
                   quadratic_phase_evolve)
from .runner import (RunResult, SweepError, SweepResult, build_hydro_state,
                     build_ray_bundle, build_wavefield, build_wkb_state,
                     compare_fields, epsilon_sweep, run)
from .snapshots import Snapshot, load_field, save_field
