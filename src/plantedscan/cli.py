"""Command-line front end.

One subcommand per capability: sample graphs, run the scan tests, compute
detection thresholds (point or composition surface), estimate risk by
Monte Carlo, run the likelihood-ratio oracle, audit the regularity
assumptions, print the standard threshold table, and drive sweeps.

Configuration comes from a JSON file (--config); flags mirror config keys
and win on conflict.  Each subcommand takes only the flags it reads, so a
flag it would ignore is an argument error.  Exit codes: 0 success, 2
validation error (a file that cannot be opened, read or written
included), 3 budget error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Mapping, Sequence

from .audit import (
    DEFAULT_MARGIN_THRESHOLD,
    audit_assumption_1_1,
    audit_assumption_1_2,
    audit_assumption_2,
    audit_assumption_3,
)
from .boundary import (
    boundary_surface,
    standard_table,
    threshold_scaling,
    write_surface_csv,
)
from .errors import PlantedScanError, ValidationError
from .harness import ExperimentConfig, estimate_risk, run_sweep
from .lr import DEFAULT_EXACT_BUDGET, DEFAULT_SAMPLE_SIZE, LrProblem, bayes_risk
from .model import (
    PlantedAlternative,
    RankOne,
    _number,
    _read_json,
    _write_json,
    model_from_json,
    read_edge_list,
    sample_alternative,
    sample_null,
    write_csv,
    write_edge_list,
)
from .scan import DEFAULT_SUBSET_BUDGET, Exhaustive, ScanConfig, scan_known, scan_unknown

__all__ = ["main"]


def _config_dict(args) -> dict:
    return _read_json(args.config, "config file") if args.config else {}


def _config_number(cfg: Mapping, key: str, default, kind: type):
    return _number(key, cfg.get(key, default), kind)


def _model_from_args(cfg: Mapping):
    if "model" in cfg:
        return model_from_json(cfg["model"])
    if "variant" in cfg:
        return model_from_json(dict(cfg))
    raise ValidationError("no model: pass --config pointing to a model descriptor "
                          "(or an experiment config with a 'model' entry)")


def _parse_community(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ValidationError(f"bad community {text!r}; expected comma-separated "
                              "vertex ids") from exc


def _output(out: str | None):
    return sys.stdout if out in (None, "-") else out


def _emit(result, args) -> None:
    """A single-row result: its row() as CSV with --format csv, else its
    to_json()."""
    if args.fmt == "csv":
        row = result.row()
        write_csv(list(row), [list(row.values())], _output(args.out))
    else:
        _write_json(result.to_json(), _output(args.out))


# -- subcommands ---------------------------------------------------------------


def cmd_sample(args) -> None:
    if args.rho is not None and not args.community:
        raise ValidationError("--rho needs --community: a null sample has no lift")
    cfg = _config_dict(args)
    model = _model_from_args(cfg)
    seed = args.seed if args.seed is not None else _config_number(cfg, "seed", 0, int)
    if args.out is None:
        raise ValidationError("sample needs --out PATH for the edge list")
    if args.community:
        community = _parse_community(args.community)
        rho = 1.0 if args.rho is None else args.rho
        g = sample_alternative(model, PlantedAlternative(community, rho, model), seed)
    else:
        g = sample_null(model, seed)
    write_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} edges={g.total_edges()} seed={seed}")


def cmd_scan(args) -> None:
    cfg = _config_dict(args)
    sample = read_edge_list(args.graph)
    r = args.r if args.r is not None else cfg.get("r")
    if r is None:
        raise ValidationError("scan needs --r (or an 'r' config key)")
    epsilon = (args.epsilon if args.epsilon is not None
               else _config_number(cfg, "epsilon", 0.2, float))
    family = None
    if args.min_size is not None or args.max_size is not None:
        if args.min_size is None or args.max_size is None:
            raise ValidationError("--min-size and --max-size go together")
        family = Exhaustive(args.min_size, args.max_size)
    budget = (args.budget if args.budget is not None
              else _config_number(cfg, "budget", DEFAULT_SUBSET_BUDGET, int))
    scan_cfg = ScanConfig(_number("r", r, int), epsilon, family, budget)
    if args.blind:
        _emit(scan_unknown(sample, scan_cfg), args)
    else:
        _emit(scan_known(_model_from_args(cfg), sample, scan_cfg), args)


def cmd_boundary(args) -> None:
    wrong = ({"--community": args.community, "--format": args.fmt} if args.surface else
             {"--weights": args.weights, "--r": args.r, "--n": args.n,
              "--denominator": args.denominator})
    if given := [flag for flag, value in wrong.items() if value is not None]:
        verb = "takes no" if args.surface else "is needed for"
        raise ValidationError(f"--surface {verb} {', '.join(given)}")
    cfg = _config_dict(args)
    if args.surface:
        if not args.weights:
            raise ValidationError("--surface needs --weights w1,w2[,w3]")
        try:
            weights = [float(w) for w in args.weights.split(",")]
        except ValueError as exc:
            raise ValidationError(f"bad --weights {args.weights!r}") from exc
        if args.r is None:
            raise ValidationError("--surface needs --r (total community size)")
        n = args.n if args.n is not None else cfg.get("n")
        if n is None:
            raise ValidationError("--surface needs --n (ambient vertex count)")
        rows = boundary_surface(_number("n", n, int), weights, r=args.r,
                                denominator=args.denominator or "log_n", target=args.target)
        write_surface_csv(rows, _output(args.out))
        return
    model = _model_from_args(cfg)
    community = args.community or cfg.get("community")
    if community is None:
        raise ValidationError("boundary needs --community i,j,k (or a config key)")
    if isinstance(community, str):
        community = _parse_community(community)
    _emit(threshold_scaling(model, community, target=args.target), args)


def _flag_overrides(args) -> dict:
    """The experiment config keys that --seed, --reps and --workers set."""
    flags = {"master_seed": args.seed, "null_replications": args.reps,
             "alt_replications": args.reps, "workers": args.workers}
    return {k: v for k, v in flags.items() if v is not None}


def _experiment_config(args, cfg: Mapping) -> ExperimentConfig:
    raw = {k: v for k, v in cfg.items() if k not in ("seed", "out", "format")}
    if "master_seed" not in raw and "seed" in cfg:
        raw["master_seed"] = cfg["seed"]
    if args.test is not None:
        raw["test"] = args.test
    return ExperimentConfig.from_dict({**raw, **_flag_overrides(args)})


def cmd_risk(args) -> None:
    cfg = _config_dict(args)
    if not cfg:
        raise ValidationError("risk needs --config with an experiment description")
    _emit(estimate_risk(_experiment_config(args, cfg)), args)


def cmd_lr_risk(args) -> None:
    cfg = _config_dict(args)
    if not cfg:
        raise ValidationError("lr-risk needs --config with model, r, and rho")
    model = _model_from_args(cfg)
    for key in ("r", "rho"):
        if key not in cfg:
            raise ValidationError(f"lr-risk config needs {key!r}")
    seed = args.seed if args.seed is not None else _config_number(cfg, "master_seed", 0, int)
    sample_size = cfg.get("lr_sample_size", DEFAULT_SAMPLE_SIZE)
    problem = LrProblem(
        model, _number("r", cfg["r"], int), _number("rho", cfg["rho"], float),
        exact_budget=_config_number(cfg, "lr_exact_budget", DEFAULT_EXACT_BUDGET, int),
        sample_size=None if sample_size is None else _number("lr_sample_size", sample_size, int),
        community_seed=seed,
    )
    reps = args.reps if args.reps is not None else _config_number(cfg, "replications", 1000, int)
    _emit(bayes_risk(problem, reps, seed), args)


def cmd_audit(args) -> None:
    cfg = _config_dict(args)
    model = _model_from_args(cfg)
    community = args.community or cfg.get("community")
    if community is None:
        raise ValidationError("audit needs --community (or a config key)")
    if isinstance(community, str):
        community = _parse_community(community)
    reports = {
        "assumption_1_1": audit_assumption_1_1(model, community, delta=args.delta,
                                               gamma=args.gamma,
                                               threshold=args.threshold),
        "assumption_1_2": audit_assumption_1_2(model, community,
                                               threshold=args.threshold),
    }
    if args.rho is not None:
        alt = PlantedAlternative(tuple(community), args.rho, model)
        reports["assumption_2"] = audit_assumption_2([alt], threshold=args.threshold)
    if isinstance(model, RankOne):
        reports["assumption_3"] = audit_assumption_3(model, community,
                                                     threshold=args.threshold)
    all_passed = all(rep.all_passed for rep in reports.values())
    if args.fmt == "csv":
        columns = ["assumption", "check", "lhs", "rhs", "margin", "passed"]
        rows = [[key, e.name, e.lhs, e.rhs, e.margin, e.passed]
                for key, rep in sorted(reports.items()) for e in rep.entries]
        write_csv(columns, rows, _output(args.out))
    else:
        _write_json({"all_passed": all_passed,
                     "reports": {k: rep.to_json() for k, rep in reports.items()}},
                    _output(args.out))


def cmd_table1(args) -> None:
    if args.n is not None and args.regime != "quarter_power":
        raise ValidationError("--n goes with --regime quarter_power only")
    rows = standard_table(mode=args.mode, regime=args.regime, n=args.n)
    if args.fmt == "json":
        _write_json(rows, _output(args.out))
    else:
        write_csv(["distribution", "rho_star", "optimal_fraction"],
                  [[r["distribution"], r["rho_star"], r["optimal_fraction"]]
                   for r in rows],
                  _output(args.out))


def cmd_sweep(args) -> None:
    cfg = _config_dict(args)
    if not cfg:
        raise ValidationError("sweep needs --config with 'base' and 'grid' entries")
    for key in ("base", "grid"):
        if key not in cfg:
            raise ValidationError(f"sweep config needs a {key!r} entry")
    out_dir = args.out or cfg.get("out")
    if not out_dir or out_dir == "-":
        raise ValidationError("sweep needs --out DIR for per-point results")
    base = cfg["base"]
    if isinstance(base, Mapping):  # run_sweep rejects anything else
        base = {**base, **_flag_overrides(args)}
    csv_path = run_sweep(base, cfg["grid"], out_dir, kind=cfg.get("kind", "risk"))
    print(f"wrote {csv_path}")


# -- parser --------------------------------------------------------------------


# the flags several subcommands share; each subcommand takes the ones it reads
_COMMON = {
    "--config": dict(metavar="PATH", help="JSON config file"),
    "--seed": dict(type=int, metavar="U64", help="master seed (overrides config)"),
    "--reps": dict(type=int, metavar="N", help="replication count (overrides config)"),
    "--workers": dict(type=int, metavar="N",
                      help="worker processes (default: $SCAN_WORKERS or 1)"),
    "--out": dict(metavar="PATH", help="output path; '-' or absent means stdout"),
    "--format": dict(dest="fmt", choices=("csv", "json"), help="output format"),
}


def _subcommand(sub, name: str, func, common: str, help: str):
    p = sub.add_parser(name, help=help)
    for flag in common.split():
        p.add_argument(flag, **_COMMON[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantedscan",
        description="Scan tests and detection thresholds for a planted "
                    "community in an inhomogeneous random graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "sample", cmd_sample, "--config --seed --out",
                    "draw a graph and write it as an edge list")
    p.add_argument("--community", metavar="I,J,K",
                   help="plant on these vertices (comma-separated)")
    p.add_argument("--rho", type=float,
                   help="within-community probability multiplier (default 1; "
                        "needs --community)")

    p = _subcommand(sub, "scan", cmd_scan, "--config --out --format",
                    "run a scan test on a graph")
    p.add_argument("--graph", required=True, metavar="PATH", help="edge-list file")
    p.add_argument("--r", type=int, help="community size bound")
    p.add_argument("--epsilon", type=float, help="threshold slack (default 0.2)")
    p.add_argument("--blind", action="store_true",
                   help="unknown edge probabilities (no model needed)")
    p.add_argument("--min-size", type=int, help="family size lower bound")
    p.add_argument("--max-size", type=int, help="family size upper bound")
    p.add_argument("--budget", type=int, help="max subsets to enumerate")

    p = _subcommand(sub, "boundary", cmd_boundary, "--config --out --format",
                    "detection threshold for a community, or a composition "
                    "surface (--surface)")
    p.add_argument("--community", metavar="I,J,K", help="community vertices (point mode)")
    p.add_argument("--target", type=float, default=1.0,
                   help="target exponent level (default 1)")
    p.add_argument("--surface", action="store_true",
                   help="sweep two/three-class compositions to CSV")
    p.add_argument("--weights", metavar="W1,W2[,W3]",
                   help="class weights, strictly decreasing (surface mode)")
    p.add_argument("--r", type=int, help="total community size (surface mode)")
    p.add_argument("--n", type=int, help="ambient vertex count (surface mode)")
    p.add_argument("--denominator", choices=("log_n", "per_size"),
                   help="objective denominator (surface mode; default log_n)")

    p = _subcommand(sub, "risk", cmd_risk, "--config --seed --reps --workers --out --format",
                    "Monte Carlo risk estimate for a configured test")
    p.add_argument("--test", choices=("scan_known", "scan_unknown", "lr"),
                   help="override the configured test")

    _subcommand(sub, "lr-risk", cmd_lr_risk, "--config --seed --reps --out --format",
                "Bayes risk of the likelihood-ratio oracle")

    p = _subcommand(sub, "audit", cmd_audit, "--config --out --format",
                    "check the regularity assumptions with margins")
    p.add_argument("--community", metavar="I,J,K", help="community vertices")
    p.add_argument("--delta", type=float, default=0.1,
                   help="size-exponent slack in (0, 0.5) (default 0.1)")
    p.add_argument("--gamma", type=float, required=True,
                   help="small-subgraph window exponent (> 0, no default)")
    p.add_argument("--rho", type=float,
                   help="also audit the signal-strength cap at this rho")
    p.add_argument("--threshold", type=float, default=DEFAULT_MARGIN_THRESHOLD,
                   help="margin required to pass (default 10)")

    p = _subcommand(sub, "table1", cmd_table1, "--out --format",
                    "print the four standard threshold rows")
    p.add_argument("--mode", choices=("analytic", "numeric"), default="analytic")
    p.add_argument("--regime", choices=("polylog", "quarter_power"),
                   default="polylog")
    p.add_argument("--n", type=int, help="vertex count (quarter_power regime)")

    _subcommand(sub, "sweep", cmd_sweep, "--config --seed --reps --workers --out",
                "run a parameter grid with resumable per-point output")

    return parser


def main(argv: Sequence[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (PlantedScanError, OSError) as exc:
        # a file that cannot be opened, read or written is a bad argument
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(getattr(exc, "exit_code", ValidationError.exit_code))
