"""Render the shipped fields and a device layout as graymaps.

Writes the two initial-condition variants, the reference state and the
20-device indicator pattern to demo_output/ as portable graymaps (P5).
Black is -1, white is +1, values outside are truncated.
"""

import numpy as np
from pathlib import Path

from thermoloop import build_mesh, interpolate, write_snapshot_image
from thermoloop.experiments import (GridSubsetLayout, ICOND_VARIANT1,
                                    ICOND_VARIANT2, REFERENCE_STATE,
                                    SUBSET20_INDICES)
from thermoloop.fem import field_from_values

out_dir = Path(__file__).resolve().parent / "demo_output"
out_dir.mkdir(exist_ok=True)
mesh = build_mesh(100)

for name, spec in (("initial_variant1", ICOND_VARIANT1),
                   ("initial_variant2", ICOND_VARIANT2),
                   ("reference_state", REFERENCE_STATE)):
    field = interpolate(mesh, spec)
    write_snapshot_image(field, mesh, path=out_dir / f"{name}.pgm")
    print(f"{name:18s} range [{field.values.min():+.3f}, {field.values.max():+.3f}]"
          f" -> {name}.pgm")

# device layout: union of disc indicators, drawn at full white
centers = GridSubsetLayout(8, 0.125, SUBSET20_INDICES).centers
mask = np.zeros(mesh.n_vertices)
for cx, cy in centers:
    inside = (mesh.vertices[:, 0] - cx) ** 2 + (mesh.vertices[:, 1] - cy) ** 2 <= 0.125 ** 2
    mask[inside] = 1.0
write_snapshot_image(field_from_values(mesh, mask), mesh, vmin=0.0, vmax=1.0,
                     path=out_dir / "devices_20.pgm")
print(f"devices_20         {len(centers)} discs -> devices_20.pgm")
