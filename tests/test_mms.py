import numpy as np
import pytest

from thermoloop.fem import assemble_mass, assemble_stiffness, form_norm, interpolate
from thermoloop.mesh import build_mesh
from thermoloop.mms import convergence_study, exact_heat_solution, heat_error
from thermoloop.model import ReactionTerm, SwitchingFunction
from thermoloop.stepper import DiscreteProblem, SchemeSpec, SimState, run
from mesh_helpers import csr


def hand_assembled_heat_error(n_div, n_steps, D, T, cg_tol=1e-12):
    """heat_error as it once assembled its device-free problem by hand,
    beside experiments.assemble: the reference its errors must equal bit
    for bit.  A problem without devices never evaluates its switch."""
    mesh = build_mesh(n_div)
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh)
    tau = T / n_steps
    problem = DiscreteProblem(
        mesh=mesh, mass=mass, stiffness=stiffness,
        step_matrix=mass.scaled_add(tau * D, stiffness), tau=tau,
        device_mass=csr(np.zeros((0, mesh.n_vertices))),
        C_g=0.0, C_h=0.0, alpha=np.zeros((0, 0)), switch=SwitchingFunction(1.0, 1.0),
        beta=np.zeros(0),
        reaction=ReactionTerm.zero(),
        ystar=interpolate(mesh, lambda x, y: np.zeros_like(x)))
    initial = SimState(step_index=0, y=interpolate(mesh, exact_heat_solution(D, 0.0)),
                       kappa=np.zeros(0))
    out = run(initial, problem, SchemeSpec(n_div=n_div, n_steps=n_steps, n_picard=1,
                                           cg_tol=cg_tol))
    exact = interpolate(mesh, exact_heat_solution(D, T))
    return form_norm(mass, out.final_state.y.values - exact.values)


def test_exact_solution_is_flux_free_on_boundary():
    fn = exact_heat_solution(D=0.1, t=0.3)
    x = np.linspace(-1, 1, 41)
    # d/dx1 vanishes at x1 = -1 and +1: check by symmetry of the cosine
    eps = 1e-6
    left = (fn(-1 + eps, x) - fn(-1.0, x)) / eps
    right = (fn(1.0, x) - fn(1 - eps, x)) / eps
    assert np.max(np.abs(left)) < 1e-5
    assert np.max(np.abs(right)) < 1e-5


def test_error_decreases_under_refinement():
    e_coarse = heat_error(n_div=8, n_steps=4)
    e_fine = heat_error(n_div=16, n_steps=16)
    assert e_fine < e_coarse


def test_observed_order_at_least_1_8():
    _, orders = convergence_study(base_n=10, levels=3)
    assert len(orders) == 2
    assert all(o >= 1.8 for o in orders)


@pytest.mark.parametrize("levels", [1, 0])
def test_convergence_study_needs_two_levels(levels):
    # one mesh measures no order; this must not pass as "orders [] meet the target"
    with pytest.raises(ValueError, match="levels must be >= 2"):
        convergence_study(base_n=8, levels=levels)


@pytest.mark.parametrize("n_div, n_steps", [(8, 4), (20, 16)])
def test_heat_error_equals_hand_assembly_bitwise(n_div, n_steps):
    error = heat_error(n_div, n_steps)
    assert error.hex() == hand_assembled_heat_error(n_div, n_steps, D=0.1, T=0.5).hex()
