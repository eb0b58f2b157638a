"""Command-line front end.

Subcommands:

  run       one configured simulation; writes errors.csv / residuals.csv /
            field snapshots / metadata.json into --out.
  converge  error-vs-tau sweep at a fixed horizon; writes convergence.csv
            and slopes.csv.
  timing    per-mesh cost table for the split (op-counted) and general
            (sparse LU) solver paths; writes timing.csv.
  verify    full acceptance suite; prints one PASS/FAIL line per criterion.

Configuration comes from an INI file (--config, flat keys under [run];
a bare key-value file without a section header also works) with command-line
flags taking precedence.  Exit codes: 0 success, 1 failed verification,
2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import replace
from pathlib import Path

from .exceptions import (DomainError, NonFiniteStateError, ParameterError,
                         SingularMatrixError)
from .reporting import RunConfig, convergence_study, run, timing_study
from .stepping import SCHEMES

__all__ = ["main"]


def _parse_mesh(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            n = int(parts[0])
            return n, n
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ParameterError(f"invalid mesh {text!r}; expected N or NxM")


def _parse_space(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ParameterError(f"invalid space {text!r}; expected degree,continuity")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ParameterError(f"invalid float list {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ParameterError(f"invalid integer list {text!r}") from None


def _parse_pairs(text: str):
    """Parse trial/test pairs like '2,1:3,0;3,2:4,0'."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        halves = chunk.split(":")
        if len(halves) != 2:
            raise ParameterError(
                f"invalid pair {chunk!r}; expected trial_p,c:test_p,c")
        pairs.append((_parse_space(halves[0]), _parse_space(halves[1])))
    if not pairs:
        raise ParameterError("no trial/test pairs given")
    return tuple(pairs)


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"invalid boolean {text!r}")


_CONFIG_PARSERS = {
    "problem": str,
    "mesh": _parse_mesh,
    "trial": _parse_space,
    "test": _parse_space,
    "scheme": str,
    "tau": float,
    "n_steps": int,
    "steps": int,
    "stabilized": _parse_bool,
    "out": str,
    "out_dir": str,
    "snapshot_stride": int,
    "snapshot_resolution": int,
    "t0": float,
}

_KEY_ALIASES = {"steps": "n_steps", "out": "out_dir"}


def load_config_file(path: str) -> dict:
    text = Path(path).read_text()
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError:
        parser.read_string("[run]\n" + text)
    except configparser.Error as exc:
        raise ParameterError(f"cannot parse config {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.strip().lower()
            if key not in _CONFIG_PARSERS:
                raise ParameterError(f"unknown config key {key!r} in {path}")
            try:
                value = _CONFIG_PARSERS[key](raw.strip())
            except ValueError as exc:
                raise ParameterError(
                    f"invalid value for {key!r} in {path}: {raw!r}") from exc
            values[_KEY_ALIASES.get(key, key)] = value
    return values


def build_run_config(args) -> RunConfig:
    values = {}
    if args.config:
        try:
            values.update(load_config_file(args.config))
        except OSError as exc:
            raise ParameterError(f"cannot read config file: {exc}") from exc
    overrides = {
        "problem": args.problem,
        "mesh": _parse_mesh(args.mesh) if args.mesh else None,
        "trial": _parse_space(args.trial) if args.trial else None,
        "test": _parse_space(args.test) if args.test else None,
        "scheme": getattr(args, "scheme", None),
        "tau": args.tau,
        "n_steps": args.steps,
        "out_dir": args.out,
        "snapshot_stride": getattr(args, "snapshot_stride", None),
        "snapshot_resolution": getattr(args, "resolution", None),
    }
    for key in ("scheme", "snapshot_stride", "snapshot_resolution"):  # read by run alone
        if key in values and args.command != "run":
            hint = "; pass the schemes with --schemes" if key == "scheme" else ""
            raise ParameterError(f"config key {key!r} is not read by {args.command}{hint}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    if getattr(args, "galerkin", False):
        values["stabilized"] = False
    return replace(RunConfig(), **values)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--problem",
                        help="manufactured | pollution | circular-wind")
    parser.add_argument("--mesh", help="elements per direction, N or NxM")
    parser.add_argument("--trial", help="trial space as degree,continuity")
    parser.add_argument("--test", help="test space as degree,continuity")
    parser.add_argument("--tau", type=float, help="time step")
    parser.add_argument("--steps", type=int, help="number of time steps")
    parser.add_argument("--galerkin", action="store_true",
                        help="disable residual-minimization stabilization")
    parser.add_argument("--out", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitmin",
        description="Direction-split residual-minimization solver for 2D "
                    "advection-diffusion problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_common(p_run)
    p_run.add_argument("--scheme",
                       choices=SCHEMES,
                       help="split-path time integrator (default: the problem's own)")
    p_run.add_argument("--snapshot-stride", type=int, dest="snapshot_stride",
                       help="write a field snapshot every k steps (0: final only)")
    p_run.add_argument("--resolution", type=int,
                       help="snapshot sampling resolution per direction")

    # no abbreviations: --scheme must not pass for --schemes
    p_conv = sub.add_parser("converge", help="error-vs-tau study",
                            allow_abbrev=False)
    _add_common(p_conv)
    p_conv.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for study points")
    p_conv.add_argument("--taus", required=True,
                        help="comma-separated time steps, e.g. 0.02,0.01,0.005")
    p_conv.add_argument("--schemes", default=",".join(SCHEMES),
                        help="comma-separated scheme list")
    p_conv.add_argument("--reference", default="exact",
                        choices=("exact", "self"),
                        help="error reference: the closed-form solution, or "
                             "the same scheme at tau_min/8 (temporal order "
                             "on a fixed mesh)")

    p_time = sub.add_parser("timing", help="solver cost table")
    p_time.add_argument("--out", default=RunConfig.out_dir,
                        help="output directory")
    p_time.add_argument("--meshes", default="8,16,32,64",
                        help="comma-separated mesh sizes")
    p_time.add_argument("--pairs", default="2,1:3,0",
                        help="trial:test pairs, e.g. 2,1:3,0;3,2:4,0")
    p_time.add_argument("--no-general", action="store_true",
                        help="skip the general-path timings")

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--criteria",
                          help="comma-separated criterion numbers to run "
                               "(default: all)")
    return parser


def _cmd_run(args) -> int:
    config = build_run_config(args)
    state = run(config)
    print(f"wrote artifacts to {config.out_dir} (final time {state.time:g})")
    return 0


def _cmd_converge(args) -> int:
    config = build_run_config(args)
    taus = _parse_floats(args.taus)
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    result = convergence_study(config, taus, schemes, jobs=args.jobs,
                               out_dir=config.out_dir,
                               reference=args.reference)
    for scheme in schemes:
        s = result["slopes"][scheme]
        print(f"{scheme}: L2 order {s['l2']:.3f}, H1 order {s['h1']:.3f}")
    print(f"wrote convergence.csv and slopes.csv to {config.out_dir}")
    return 0


def _cmd_timing(args) -> int:
    rows = timing_study(_parse_ints(args.meshes), _parse_pairs(args.pairs),
                        out_dir=args.out, include_general=not args.no_general)
    for row in rows:
        extra = (f", general {row['general_time_ms']:.1f} ms"
                 if "general_time_ms" in row else "")
        print(f"{row['space']} n={row['n']}: dofs={row['dofs']}, "
              f"split ops={row['split_total_ops']}"
              f" ({row['split_time_ms']:.1f} ms){extra}")
    print(f"wrote timing.csv to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import CRITERIA, run_all
    selected = CRITERIA
    if args.criteria:
        wanted = {c.strip() for c in args.criteria.split(",")}
        selected = [(name, fn) for name, fn in CRITERIA
                    if name.split()[0] in wanted]
        if not selected:
            raise ParameterError(f"no criteria match {args.criteria!r}")
    return 0 if run_all(criteria=selected) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "converge": _cmd_converge,
                "timing": _cmd_timing, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, NonFiniteStateError, DomainError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
