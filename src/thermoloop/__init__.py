"""Closed-loop thermostat control of reaction-diffusion fields.

A reaction-diffusion process on the square (-1,1)^2 with zero-flux
boundaries is steered toward a reference state by disc-shaped control
devices.  Each control device is driven by a first-order signal ODE (a
"thermostat") fed by a clamped-linear switch acting on the integrated
deviation seen by a matching measurement device.  Space is discretized with
P1 finite elements on a uniform triangulation, time with implicit Euler plus
a fixed number of Picard sweeps per step; each sweep solves the constant SPD
system M + tau*D*K, scaled symmetrically by its Jacobi diagonal, by
warm-started conjugate gradients.
"""

from .mesh import Mesh, build_mesh
from .linalg import CsrMatrix, CgResult, ConvergenceError, cg_solve
from .fem import (NodalField, assemble_mass, assemble_stiffness, disc_rows,
                  field_from_values, form_norm, interpolate)
from .model import (ReactionTerm, SwitchingFunction, calibrate_ch, eval_reaction,
                    eval_switch, thermostat_step)
from .stepper import DiscreteProblem, RunOutput, SchemeSpec, SimState, picard_step, run
from .metrics import ErrorRecorder, ErrorSeries, SnapshotRecorder, TrajectoryRecorder
from .experiments import (Blob, ConstantField, ExperimentConfig, ExplicitLayout,
                          FieldSum, GaussianBlobs, GridLayout, GridSubsetLayout,
                          assemble, grid_layout, list_presets,
                          make_experiment, preset, run_experiment)
from .stability import (StabilityReport, TrajectoryNorms, probe_control_stability,
                        probe_data_stability, response_norm, trajectory_norms)
from .mms import convergence_study, exact_heat_solution, heat_error
from .output import (read_series_csv, read_snapshot_image, write_series_csv,
                     write_snapshot_image)
from .config_io import (ConfigError, config_from_dict, config_to_dict,
                        config_to_json, dump_config, load_config)
from .cli import main, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
