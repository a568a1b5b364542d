"""Command-line driver: run presets or config files, write results, verify."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config_io import ConfigError, config_to_json, load_config
from .experiments import (ExperimentConfig, PROBE_DIRECTION, list_presets,
                          preset, run_experiment)
from .linalg import ConvergenceError
from .mms import convergence_study
from .stability import probe_control_stability, probe_data_stability

# The perturbation sizes of `verify stability`: three, spanning two decades.
VERIFY_DELTAS = (1e-1, 1e-2, 1e-3)


def parse_config(source: str) -> ExperimentConfig:
    """Resolve a preset name or a JSON configuration file path."""
    if source in list_presets():
        return preset(source)
    path = Path(source)
    if path.exists():
        return load_config(path)
    raise ConfigError(f"{source!r} is neither a preset ({', '.join(list_presets())}) "
                      f"nor an existing config file")


def _cmd_run(args) -> int:
    config = parse_config(args.source)
    if args.explicit_measure:
        config = replace(config, scheme=replace(config.scheme, explicit_measure=True))
    if args.snap_every is not None and args.snap_every < 1:
        raise ValueError(f"--snap-every must be >= 1, got {args.snap_every}")
    snap_steps = set()   # the first, the last and every S-th step, kept only for --out
    if args.out is not None:
        n_steps = config.scheme.n_steps
        snap_steps = set(range(0, n_steps + 1, args.snap_every or n_steps)) | {n_steps}
    out = run_experiment(config, snap_steps=snap_steps)
    series = out.series
    print(f"{args.source}: {config.n_devices} devices, "
          f"N={config.scheme.n_div}, M={config.scheme.n_steps}, tau={config.tau:g}")
    print(f"E_y(0)      = {series.e_y[0]:.8e}    E_grad(0) = {series.e_grad[0]:.8e}")
    print(f"E_y(T)      = {series.e_y[-1]:.8e}    E_grad(T) = {series.e_grad[-1]:.8e}")
    print(f"stepping    : {out.timings.get('stepping_s', 0.0):.2f} s "
          f"(+ {1e3 * out.timings.get('assembly_s', 0.0):.1f} ms assembly)")

    if args.out is not None:
        from .output import write_series_csv, write_snapshot_image
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_series_csv(series, out_dir / "series.csv")
        (out_dir / "config_echo").write_text(config_to_json(config))
        for step, field in out.snapshots:
            write_snapshot_image(field, out.problem.mesh, path=out_dir / f"snap_{step}.pgm")
        print(f"wrote {out_dir}/series.csv, config_echo and "
              f"{len(out.snapshots)} snapshots")
    return 0


def _cmd_verify_stability(args) -> int:
    config = parse_config(args.source)
    if args.control:
        report = probe_control_stability(config, VERIFY_DELTAS)
    else:
        report = probe_data_stability(config, PROBE_DIRECTION, VERIFY_DELTAS)
    print(f"stability probe ({report.kind}) on {args.source}:")
    print(f"{'delta':>12}  {'response':>14}  {'response/delta':>14}  "
          f"{'sup L2':>11}  {'grad L2':>11}  {'sup kappa':>11}")
    for d, r, q, n in zip(report.deltas, report.responses, report.ratios,
                          report.difference_norms):
        print(f"{d:12.3e}  {r:14.6e}  {q:14.6e}  "
              f"{n.sup_l2_y:11.4e}  {n.l2_grad_y:11.4e}  {n.sup_kappa:11.4e}")
    print(f"ratio spread factor: {report.spread:.4f} "
          f"({'consistent with a Lipschitz response' if report.spread < 3 else 'inconclusive'})")
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = [f"{d:.12e},{r:.12e},{q:.12e}"
                for d, r, q in zip(report.deltas, report.responses, report.ratios)]
        (out_dir / "report.csv").write_text("\n".join(["delta,response,ratio", *rows]) + "\n")
        print(f"wrote {out_dir}/report.csv")
    return 0 if report.spread < 3 else 1


def _cmd_verify_convergence(_args) -> int:
    rows, orders = convergence_study()
    print(f"{'n_div':>6}  {'h':>10}  {'steps':>7}  {'L2 error':>12}  {'order':>6}")
    for i, row in enumerate(rows):
        order = f"{orders[i - 1]:6.3f}" if i else "     -"
        print(f"{row.n_div:6d}  {row.h:10.4e}  {row.n_steps:7d}  {row.error:12.6e}  {order}")
    ok = all(o >= 1.8 for o in orders)
    print(f"observed orders {['%.3f' % o for o in orders]} "
          f"{'meet' if ok else 'MISS'} the >= 1.8 target")
    return 0 if ok else 1


def _cmd_list_presets(_args) -> int:
    for name in list_presets():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoloop",
        description="Closed-loop thermostat control of a reaction-diffusion field.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a preset or config file")
    p_run.add_argument("source", help="preset name or JSON config path")
    p_run.add_argument("--out", help="output directory (series.csv, snapshots, config_echo)")
    p_run.add_argument("--snap-every", type=int, default=None,
                       help="with --out, also write a field snapshot every S steps "
                            "(graymap, black at -1, white at +1)")
    p_run.add_argument("--explicit-measure", action="store_true",
                       help="measure against the previous time level instead of "
                            "the current Picard iterate")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="numerical verification harnesses")
    verify_sub = p_verify.add_subparsers(dest="check", required=True)

    p_stab = verify_sub.add_parser("stability", help="perturbation-response probe")
    p_stab.add_argument("source", help="preset name or JSON config path")
    p_stab.add_argument("--control", action="store_true",
                        help="perturb the control height instead of the initial state")
    p_stab.add_argument("--out", help="directory for report.csv")
    p_stab.set_defaults(func=_cmd_verify_stability)

    p_conv = verify_sub.add_parser("convergence", help="manufactured-solution order check")
    p_conv.set_defaults(func=_cmd_verify_convergence)

    p_list = sub.add_parser("list-presets", help="name the built-in experiment presets")
    p_list.set_defaults(func=_cmd_list_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already printed usage
        return int(exit_.code) if exit_.code else 0
    try:
        return args.func(args)
    except (ConfigError, ConvergenceError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
