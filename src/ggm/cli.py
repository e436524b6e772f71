"""Command-line interface.

    ggm run <tc1|tc2|tc3> --config <path> [--key value ...] --out <csv>
    ggm solve --covs <csv ...> --rho R --beta B [...] --out <dir>
    ggm oracle --covs <csv ...> --rho R --beta B [...]

``run`` reproduces one benchmark sweep, prints its table of mean errors
and writes the result CSV plus a plain-text manifest next to it.
``solve`` runs the joint estimator once on user-supplied covariance
CSVs. ``oracle`` exposes the slow reference solver on tiny inputs. Exit
code 0 on success, 2 on any diagnosed error.
"""
import argparse
import os
import sys

from .errors import ConfigError, GgmError
from .experiments import (
    EXPERIMENTS,
    METHODS,
    build_config,
    emit_csv,
    parse_config_file,
    run_experiment,
    write_manifest,
)
from .io import read_matrix_csv, write_matrix_csv
from .sampling import ObservedCovariances
from .solvers import (
    JointProblem,
    PenaltyWeights,
    SolverConfig,
    reference_oracle,
    solve_joint_hidden,
)


def _parse_overrides(tokens):
    """Turn trailing '--key value' pairs into a dict."""
    if len(tokens) % 2 != 0:
        raise ConfigError(f"dangling override token {tokens[-1]!r}; expected --key value pairs")
    out = {}
    for flag, value in zip(tokens[::2], tokens[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected an override flag, got {flag!r}")
        out[flag[2:].replace("-", "_")] = value
    return out


def _add_weight_args(parser):
    parser.add_argument("--covs", nargs="+", required=True,
                        help="observed covariance CSVs, one per layer")
    parser.add_argument("--rho", type=float, default=0.1, help="l1 weight on each S")
    parser.add_argument("--beta", type=float, default=0.1, help="trace weight on each P")
    parser.add_argument("--rho-pair", type=float, default=0.0, help="fused weight on S pairs")
    parser.add_argument("--beta-pair", type=float, default=0.0, help="fused weight on P pairs")


def _load_problem(args):
    """The --covs files and tied PenaltyWeights from the weight flags."""
    covs = ObservedCovariances([read_matrix_csv(p) for p in args.covs])
    return covs, PenaltyWeights.tied(covs.n_layers, args.rho, args.beta,
                                     args.rho_pair, args.beta_pair)


def _write_estimates(est, out_dir):
    """Write s_hat_k.csv and p_hat_k.csv, k = 1..K, into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    for i, (s, p) in enumerate(zip(est.s_hat, est.p_hat), start=1):
        write_matrix_csv(s, os.path.join(out_dir, f"s_hat_{i}.csv"))
        write_matrix_csv(p, os.path.join(out_dir, f"p_hat_{i}.csv"))


def cmd_run(args, overrides):
    mapping = parse_config_file(args.config) if args.config else {}
    cfg = build_config(args.experiment, mapping, **overrides)
    result = run_experiment(cfg)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    emit_csv(result.table, args.out)
    manifest = write_manifest(result, args.out)
    print("xaxis " + " ".join(f"{m:>8}" for m in METHODS))
    for x, row in zip(result.table.xaxis, result.table.errors):
        print(f"{x:>5} " + " ".join(f"{v:8.4f}" for v in row))
    print(f"wrote {args.out} and {manifest} "
          f"({result.mc_invocations} scored solves, {result.runtime_seconds:.1f}s)")
    return 0


def cmd_solve(args):
    covs, weights = _load_problem(args)
    cfg = SolverConfig(max_iters=args.max_iters, tol_primal=args.tol, tol_dual=args.tol)
    est = solve_joint_hidden(covs, weights, cfg)
    _write_estimates(est, args.out)
    status = "converged" if est.converged else "max-iters"
    print(f"objective = {est.objective:.10g} after {est.iterations} iterations ({status}); "
          f"estimates in {args.out}")
    return 0


def cmd_oracle(args):
    covs, weights = _load_problem(args)
    sol = reference_oracle(JointProblem(covs, weights), budget=args.budget)
    if args.out:
        _write_estimates(sol, args.out)
    print(f"oracle objective = {sol.objective:.10g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ggm",
                                     description="Joint graphical model inference with hidden nodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark sweep")
    p_run.add_argument("experiment", choices=EXPERIMENTS)
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--out", required=True, help="output CSV path")

    p_solve = sub.add_parser("solve", help="one-off joint inference")
    _add_weight_args(p_solve)
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.add_argument("--max-iters", type=int, default=2000)
    p_solve.add_argument("--tol", type=float, default=1e-5)

    p_oracle = sub.add_parser("oracle", help="reference solver on tiny inputs")
    _add_weight_args(p_oracle)
    p_oracle.add_argument("--budget", type=int, default=100_000)
    p_oracle.add_argument("--out", help="optional output directory")

    args, extra = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args, _parse_overrides(extra))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_oracle(args)
    except GgmError as exc:
        print(f"ggm {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ggm {args.command}: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
