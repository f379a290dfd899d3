"""Command-line entry point.

Subcommands: critvals, asymptotics, limit-cdf, generate, simulate, density,
monitor, table1. Scalar results are printed as single-line JSON; tabular and
sample results are written as CSV. Exit codes: 0 success, 2 validation
error or a path that does not exist (one-line diagnostic on stderr), 1
runtime failure.

monitor reads its training file whole and its stream one line at a time, up
to the stop or the horizon, so a pipe such as /dev/stdin can be monitored as
it is written.

asymptotics and experiments are imported by the commands that use them, so
that monitor and critvals do not load them.
"""

import argparse
import csv
import itertools
import json
import math
import os
import sys

import numpy as np

from . import wiener
from .datagen import Garch11Spec
from .detectors import Monitor, StoppingResult, run_monitor
from .model import (ChangeScenario, MonitoringParams, ValidationError,
                    _require)

_SIDE_FLAG = {"one": "one_sided", "two": "two_sided"}


def _finite(text: str) -> float:
    """float(text) for flags and config values; nan and +-inf are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# config schemas: key -> caster
_GENERATE_KEYS = {
    "omega": _finite, "alpha": _finite, "beta": _finite, "burn_in": int,
    "mu": _finite, "delta": _finite, "theta": _finite, "beta_exp": _finite,
    "m": int, "length": int,
}
_SIMULATE_KEYS = {
    "m": int, "gamma": _finite, "alpha": _finite, "side": str,
    "delta": _finite, "mu": _finite, "theta": _finite, "beta_exp": _finite,
    "kstar": int, "horizon_factor": _finite, "reps": int, "seed": int,
    "omega": _finite, "alpha_garch": _finite, "beta_garch": _finite,
    "burn_in": int, "c_page": _finite, "c_q": _finite,
}


def _read_config(path, schema) -> dict:
    """Flat key=value file; '#' comments; unknown or repeated keys fail."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in schema:
                raise ValidationError(f"{path}:{lineno}: unknown key '{key}'")
            if key in cfg:
                raise ValidationError(f"{path}:{lineno}: repeated key '{key}'")
            try:
                cfg[key] = schema[key](val)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValidationError(
                    f"{path}:{lineno}: bad value for '{key}': {exc}") from None
    return cfg


def _read_series_csv(path):
    """Yield a single-column CSV's finite values (optional header 'x')."""
    value = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if any(field.strip() for field in row[1:]):
                raise ValidationError(
                    f"{path}:{reader.line_num}: more than one column")
            cell = row[0].strip() if row else ""
            if not cell or reader.line_num == 1 and cell.lower() == "x":
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(f"{path}:{reader.line_num}: "
                                      f"non-numeric value '{cell}'") from None
            _require(math.isfinite(value),
                     f"{path}:{reader.line_num}: non-finite value '{cell}'")
            yield value
    _require(value is not None, f"{path}: no data values")


def _cmd_critvals(args) -> int:
    _require(not args.out or args.reps >= wiener.MIN_CACHE_REPS,
             f"--out needs --reps >= {wiener.MIN_CACHE_REPS}")
    est = wiener.estimate_critical_value(
        gamma=args.gamma, alpha=args.alpha, side=_SIDE_FLAG[args.side],
        detector=args.detector, reps=args.reps, T=args.grid, seed=args.seed,
        threads=args.threads)
    if args.out:
        wiener.save_estimate(est, args.out)
    print(json.dumps(est.to_json_dict()))
    return 0


def _scenario_from_args(args) -> ChangeScenario:
    if args.kstar is not None:
        _require(args.theta is None and args.beta is None,
                 "give either --kstar or --theta/--beta, not both")
        return ChangeScenario.at_kstar(args.delta, args.kstar,
                                       sigma=args.sigma)
    _require(args.theta is not None and args.beta is not None,
             "need --kstar or both --theta and --beta")
    return ChangeScenario.from_exponent(args.delta, args.theta, args.beta,
                                        args.m, sigma=args.sigma)


def _cmd_asymptotics(args) -> int:
    from . import asymptotics as asym
    scenario = _scenario_from_args(args)
    norm = asym.compute_normalization(args.c, args.m, scenario, args.gamma)
    payload = {"a_m": norm.a_m, "b_m": norm.b_m, "case": norm.case.variant}
    if norm.case.d1 is not None:
        payload["d1"] = norm.case.d1
    if args.x is not None:
        payload["N"] = asym.compute_N(args.m, args.x, args.c, scenario.kstar,
                                      scenario.delta, scenario.sigma,
                                      args.gamma, norm.a_m)
    print(json.dumps(payload))
    return 0


def _cmd_limit_cdf(args) -> int:
    from . import asymptotics as asym
    law = asym.LimitLaw.for_variant(args.case, d1=args.d1)
    print(json.dumps({"psi_upper": asym.limit_cdf_upper(args.x, law),
                      "psi": asym.limit_cdf(args.x, law)}))
    return 0


def _cmd_generate(args) -> int:
    from . import experiments
    cfg = _read_config(args.spec, _GENERATE_KEYS)
    for key in ("omega", "m"):
        _require(key in cfg, f"config must set '{key}'")
    length = args.n if args.n is not None else cfg.get("length")
    _require(length is not None, "config must set 'length' (or pass --n)")
    garch = Garch11Spec(omega=cfg["omega"], alpha_g=cfg.get("alpha", 0.0),
                        beta_g=cfg.get("beta", 0.0),
                        burn_in=cfg.get("burn_in", 500))
    m = cfg["m"]
    delta = cfg.get("delta", 0.0)
    scenario = None
    if delta != 0.0:
        scenario = ChangeScenario.from_exponent(
            delta, cfg.get("theta", 1.0), cfg.get("beta_exp", 0.0), m)
    # one replication, so each piece is (1, n) and its text one row per
    # value; an overflow is rejected before the file opens
    texts, done = ["x"], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for (x,) in experiments.location_paths(
                garch, cfg.get("mu", 0.0), scenario, m, length, args.seed):
            finite = np.isfinite(x)
            if not finite.all():
                raise ValidationError(
                    f"value {done + int(np.argmin(finite)) + 1} of the "
                    "series overflows to a non-finite number")
            texts.append("\r\n".join(map(repr, x.tolist())))
            done += x.size
    experiments.write_csv_text(args.out, texts)
    print(f"wrote {m + length} values to {args.out}")
    return 0


def _resolve_pair(cfg, gamma, alpha, side, cache_dir):
    """(c_page, c_q): each from cfg, or resolved when cfg does not set it."""
    return tuple(cfg[key] if key in cfg else wiener.resolve_critical_value(
        gamma, alpha, side, detector, cache_dir)
        for key, detector in (("c_page", "page"), ("c_q", "ordinary")))


def _cmd_simulate(args) -> int:
    from . import experiments
    cfg = _read_config(args.config, _SIMULATE_KEYS)
    for key in ("m", "delta", "omega"):
        _require(key in cfg, f"config must set '{key}'")
    _require(cfg["delta"] != 0.0,
             "simulate needs delta != 0 (use the library empirical_size "
             "helper for null-hypothesis size studies)")
    m = cfg["m"]
    params = MonitoringParams(
        m=m, gamma=cfg.get("gamma", 0.0), alpha=cfg.get("alpha", 0.1),
        side=cfg.get("side", "one_sided"),
        horizon_factor=cfg.get("horizon_factor", 20.0))
    if "kstar" in cfg:
        _require("theta" not in cfg and "beta_exp" not in cfg,
                 "give either kstar or theta/beta_exp, not both")
        scenario = ChangeScenario.at_kstar(cfg["delta"], cfg["kstar"])
    else:
        scenario = ChangeScenario.from_exponent(
            cfg["delta"], cfg.get("theta", 1.0), cfg.get("beta_exp", 0.0), m)
    garch = Garch11Spec(omega=cfg["omega"],
                        alpha_g=cfg.get("alpha_garch", 0.0),
                        beta_g=cfg.get("beta_garch", 0.0),
                        burn_in=cfg.get("burn_in", 500))
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    reps = cfg.get("reps", 5000)
    c_page, c_q = _resolve_pair(cfg, params.gamma, params.alpha, params.side,
                                args.cache)
    meta = experiments.simulate_to_dir(
        params, scenario, garch, reps, c_page, c_q, seed, args.out,
        mu=cfg.get("mu", 0.0), threads=args.threads)
    print(f"wrote records and densities for {reps} replications to {args.out} "
          f"(no-stop: page {meta['n_nostop_page']}, q {meta['n_nostop_q']})")
    return 0


def _cmd_density(args) -> int:
    from . import experiments
    records = experiments.read_records_csv(args.records)
    densities = experiments.densities_from_records(records,
                                                   points=args.points)
    _require(len(densities) > 0, "no stopped replications to estimate from")
    os.makedirs(args.out, exist_ok=True)
    experiments.write_densities(densities, args.out)
    print(f"wrote {len(densities)} density files to {args.out}")
    return 0


def _cmd_monitor(args) -> int:
    train = list(_read_series_csv(args.train))
    params = MonitoringParams(m=len(train), gamma=args.gamma,
                              alpha=args.alpha,
                              side=_SIDE_FLAG[args.side],
                              detector=args.detector,
                              horizon_factor=args.horizon_factor)
    c = args.critical_value
    if c is None:
        c = wiener.resolve_critical_value(params.gamma, params.alpha,
                                          params.side, params.detector,
                                          args.cache)
    stream = _read_series_csv(args.stream)
    if args.trace is None:
        result = run_monitor(train, stream, params, c)
    else:
        result = _traced_monitor(train, stream, params, c, args.trace)
    print(json.dumps({"stopped": result.stopped, "tau": result.tau,
                      "stat_at_tau": result.stat,
                      "threshold_at_tau": result.threshold}))
    return 0


def _traced_monitor(train, stream, params, c, path) -> StoppingResult:
    """Feed the stream to a Monitor one value at a time and write k, stat
    and threshold after every step, up to the stop or the horizon, as CSV
    (floats written with repr, so they read back to the same bits). The
    file is written once the run has ended without an error, so a failed
    run leaves none."""
    mon = Monitor(train, params, c)
    lines, result = ["k,stat,threshold\n"], StoppingResult(None)
    for x in itertools.islice(stream, params.horizon):
        stopped = mon.update(x)
        lines.append(f"{mon.k},{mon.stat!r},{mon.threshold!r}\n")
        if stopped:
            result = StoppingResult(mon.k, mon.stat, mon.threshold)
            break
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return result


def _cmd_table1(args) -> int:
    from . import experiments
    gammas = (0.0, 0.25, 0.45)
    c_page = {g: wiener.resolve_critical_value(g, args.alpha, "one_sided",
                                               "page", args.cache)
              for g in gammas}
    c_q = {g: wiener.resolve_critical_value(g, args.alpha, "one_sided",
                                            "ordinary", args.cache)
           for g in gammas}
    rows = experiments.emit_table1(c_page, c_q, (100, 1000, 10000),
                                   out_path=args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pagecusum",
        description="Open-end CUSUM / page-CUSUM monitoring toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critvals",
                       help="simulate a critical value c(gamma, alpha)")
    p.add_argument("--gamma", type=_finite, required=True)
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--side", choices=("one", "two"), default="one")
    p.add_argument("--detector", choices=("page", "ordinary"), default="page")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="JSON cache file (requires reps >= 1000)")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_critvals)

    p = sub.add_parser("asymptotics",
                       help="centering/scaling sequences and regime label")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gamma", type=_finite, required=True)
    p.add_argument("--kstar", type=int, default=None)
    p.add_argument("--theta", type=_finite, default=None)
    p.add_argument("--beta", type=_finite, default=None)
    p.add_argument("--delta", type=_finite, required=True)
    p.add_argument("--sigma", type=_finite, default=1.0)
    p.add_argument("--c", type=_finite, required=True)
    p.add_argument("--x", type=_finite, default=None,
                   help="also report the delay-quantile index N(m, x)")
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("limit-cdf", help="limit CDF of the normalized delay")
    p.add_argument("--case", choices=("I", "II", "III"), required=True)
    p.add_argument("--d1", type=_finite, default=None)
    p.add_argument("--x", type=_finite, required=True)
    p.set_defaults(func=_cmd_limit_cdf)

    p = sub.add_parser("generate",
                       help="write a location-model series as CSV")
    p.add_argument("--spec", required=True, help="key=value config file")
    p.add_argument("--n", type=int, default=None,
                   help="override the monitoring length from the config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="replication study -> records + densities")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed from the config")
    p.add_argument("--cache", default=None,
                   help="directory of critvals JSON files")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("density", help="re-run KDE on an existing records.csv")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--points", type=int, default=401)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("monitor", help="run one monitoring pass over CSV data")
    p.add_argument("--train", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--gamma", type=_finite, default=0.0)
    p.add_argument("--alpha", type=_finite, default=0.1)
    p.add_argument("--side", choices=("one", "two"), default="one")
    p.add_argument("--detector", choices=("page", "ordinary"), default="page")
    p.add_argument("--critical-value", type=_finite, default=None)
    p.add_argument("--horizon-factor", type=_finite, default=20.0)
    p.add_argument("--cache", default=None)
    p.add_argument("--trace", default=None,
                   help="also write k,stat,threshold after every step to "
                        "this CSV")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("table1",
                       help="normalization table over the canonical scenarios")
    p.add_argument("--alpha", type=_finite, default=0.1)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_table1)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run the subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        # a path that names nothing is a usage error, as a bad --cache is
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))
