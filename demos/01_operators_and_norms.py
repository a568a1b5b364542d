"""Meshes, P1 operators and discrete norms.

Builds the uniform triangulation of (-1,1)^2, assembles the mass and
stiffness matrices, and sanity-checks them against quantities that are exact
for piecewise-linear fields.
"""

import numpy as np

from thermoloop import assemble_mass, assemble_stiffness, build_mesh, form_norm, interpolate

mesh = build_mesh(16)
print(f"mesh: {mesh.n_vertices} vertices, {2 * mesh.n_div ** 2} triangles, h = {mesh.h}")

M = assemble_mass(mesh)
K = assemble_stiffness(mesh)
print(f"mass entry sum   = {M.toarray().sum():.15f}   (domain area 4)")
print(f"|K @ ones|_inf   = {np.abs(K.dot(np.ones(mesh.n_vertices))).max():.2e}"
      "   (constants lie in the stiffness kernel)")

one = interpolate(mesh, lambda x, y: np.ones_like(x)).values
x1 = interpolate(mesh, lambda x, y: x).values
ramp = interpolate(mesh, lambda x, y: x + y).values

# an integral of a product is a @ M b; form_norm(M, v) is the L2 norm and
# form_norm(K, v) the gradient seminorm
print(f"\nintegral of 1*1      = {one @ M.dot(one):.12f}   (exactly 4)")
print(f"integral of x1*x1    = {x1 @ M.dot(x1):.12f}   (exactly 4/3: "
      "x1 lies in the P1 space)")
print(f"L2 norm of x1        = {form_norm(M, x1):.12f}   (sqrt(4/3) = {np.sqrt(4 / 3):.12f})")
print(f"grad seminorm of x1  = {form_norm(K, x1):.12f}   (exactly 2)")
print(f"grad seminorm x1+x2  = {form_norm(K, ramp):.12f}   (sqrt(8) = {np.sqrt(8):.12f})")

# nodal interpolation converges for smooth fields: the discrete norm of the
# interpolant approaches the continuous norm (here exactly 1)
print("\ndiscrete L2 norm of the interpolant of sin(pi x1) cos(pi x2):")
for n in (8, 16, 32, 64):
    m = build_mesh(n)
    smooth = interpolate(m, lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y))
    norm = form_norm(assemble_mass(m), smooth.values)
    print(f"  n={n:3d}  |I_h f|_L2 = {norm:.8f}  (gap to 1: {abs(norm - 1.0):.2e})")
