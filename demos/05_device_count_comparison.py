"""64 devices versus a 20-device subset, with file outputs.

Both runs chase the same reference state from the same start; the sparser
bank tracks strictly worse from mid-run onward.  Error series go to CSV and
field snapshots to binary graymaps under demo_output/.
"""

from dataclasses import replace
from pathlib import Path

from thermoloop import make_experiment, run_experiment, write_series_csv, write_snapshot_image

out_dir = Path(__file__).resolve().parent / "demo_output"
out_dir.mkdir(exist_ok=True)

series = {}
for devices in (64, 20):
    config = make_experiment(3, devices=devices)
    config = replace(config, scheme=replace(config.scheme, n_div=50, n_steps=200))
    out = run_experiment(config, snap_steps=(0, 100, 200))
    series[devices] = out.series
    write_series_csv(out.series, out_dir / f"errors_{devices}dev.csv")
    for step, field in out.snapshots:
        write_snapshot_image(field, out.problem.mesh,
                             path=out_dir / f"field_{devices}dev_{step:03d}.pgm")

s64, s20 = series[64], series[20]
half = s64.n_nodes // 2
print("  t     E_y (64 dev)   E_y (20 dev)")
for i in range(0, s64.n_nodes, 25):
    print(f" {s64.times[i]:4.2f}   {s64.e_y[i]:.6f}       {s20.e_y[i]:.6f}")
print(f"\n20-device error dominates for t >= T/2: "
      f"{bool((s20.e_y[half:] >= s64.e_y[half:]).all())}")
print(f"final E_y: {s64.e_y[-1]:.6f} (64 dev) vs {s20.e_y[-1]:.6f} (20 dev)")
print(f"wrote series and snapshots to {out_dir}/")
