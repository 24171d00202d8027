"""Operator entry point.

Subcommands: ``collect`` (persist clean responses), ``audit`` (full
bootstrap audit to JSON + CSV), ``simulate`` (analytic vote-channel sweep),
``convert`` (unit conversions between mu, (eps, delta) and raw counts).

Exit codes: 0 success, 2 config error, 3 oracle failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import sys

from . import gaussian_model
from .audit import append_report_csv, run_audit, zero_shot_calls
from .config import (
    ConfigError,
    build_audit_config,
    build_neighboring_pair,
    build_oracle,
    build_signal_pair,
    load_run_config,
    output_path,
)
from .gdp import (
    AttackCounts,
    DEFAULT_DELTA_TARGET,
    EPS_BRACKET_MAX,
    audit_epsilon,
    delta_from_eps_mu,
    eps_emp_dp,
    eps_from_mu_delta,
    mu_from_eps_delta,
)
from .oracles import OracleError, collect, emit_requests

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_NUMERIC = 4


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run configuration file (YAML or JSON)")
    parser.add_argument("--set", dest="overrides", action="append",
                        metavar="KEY.PATH=VALUE", help="override one config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpicl-audit",
                                     description="Empirical privacy auditing for DP in-context learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect", help="record clean per-partition responses")
    _add_config_arguments(p_collect)

    p_audit = sub.add_parser("audit", help="run a bootstrap membership-inference audit")
    _add_config_arguments(p_audit)

    p_sim = sub.add_parser("simulate", help="tabulate the analytic Gaussian vote channel")
    _add_config_arguments(p_sim)

    p_conv = sub.add_parser("convert", help="convert between mu, (eps, delta) and counts")
    p_conv.add_argument("--mu", type=float)
    p_conv.add_argument("--eps", type=float)
    p_conv.add_argument("--tp", type=int)
    p_conv.add_argument("--fp", type=int)
    p_conv.add_argument("--fn", type=int)
    p_conv.add_argument("--tn", type=int)
    p_conv.add_argument("--gamma", type=float, default=0.95)
    p_conv.add_argument("--delta", type=float, default=DEFAULT_DELTA_TARGET,
                        help="target delta for the GDP conversion")
    return parser


@contextlib.contextmanager
def _input_errors():
    """Turn a ValueError (or KeyError) raised inside into a config error: the
    config or the flags ask for something the code they reach rejects."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise ConfigError(exc.args[0] if exc.args else exc) from exc


def _build_run(config: dict, render_only: bool = False):
    """The audit config, signal pair, neighboring pair and oracle a command
    runs on (``render_only`` as ``build_oracle`` takes it); what they reject
    is a config error, for every command."""
    with _input_errors():
        audit_cfg = build_audit_config(config)
        signal_pair = build_signal_pair(config)
        pair = build_neighboring_pair(config)
        oracle = build_oracle(config, signal_pair, render_only=render_only)
    return audit_cfg, signal_pair, pair, oracle


def _emit_batch(config: dict, audit_cfg, pair, oracle, zero_shot: int = 0) -> int:
    """Write the request batch of a command for offline completion, beside
    the records file, instead of running it."""
    requests_path = output_path(config, "records").with_suffix(".requests.jsonl")
    count = emit_requests(requests_path, oracle, pair, config["context"]["canary_text"],
                          audit_cfg.mechanism.num_partitions, audit_cfg.n_llm, zero_shot=zero_shot)
    print(f"wrote {count} responder requests to {requests_path}")
    return EXIT_OK


def cmd_collect(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.overrides, args.command)
    render_only = config["oracle"].get("emit_requests_only")
    audit_cfg, _, pair, oracle = _build_run(config, render_only)
    if render_only:
        return _emit_batch(config, audit_cfg, pair, oracle)

    records_path = output_path(config, "records")
    records_path.unlink(missing_ok=True)
    collection = collect(
        oracle, pair, config["context"]["canary_text"],
        audit_cfg.mechanism.num_partitions, audit_cfg.n_llm,
        seed=audit_cfg.seed, records_path=records_path,
        workers=config["audit"]["workers"],
        retry_budget=config["oracle"]["retry_budget"],
    )
    n_with = len(collection.clean_with)
    n_without = len(collection.clean_without)
    records = (n_with + n_without) * audit_cfg.mechanism.num_partitions
    print(f"collected {n_with} clean responses with the canary and {n_without} without "
          f"({n_with + n_without} rows, {records} partition records, "
          f"{collection.failures} retried failures) -> {records_path}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.overrides, args.command)
    render_only = config["oracle"].get("emit_requests_only")
    audit_cfg, signal_pair, pair, oracle = _build_run(config, render_only)
    if render_only:
        return _emit_batch(config, audit_cfg, pair, oracle, zero_shot_calls(audit_cfg, oracle))

    report = run_audit(
        audit_cfg, oracle, pair, config["context"]["canary_text"],
        signal_pair=signal_pair,
        workers=config["audit"]["workers"],
        retry_budget=config["oracle"]["retry_budget"],
    )
    json_path = output_path(config, "report_json")
    json_path.write_text(report.to_json(), encoding="utf-8")
    csv_path = output_path(config, "report_csv")
    append_report_csv(csv_path, report)
    print(f"eps_emp_gdp={report.estimate.eps_emp:.6g} mu_lower={report.estimate.mu_lower:.6g} "
          f"eps_emp_point={report.eps_emp_point:.6g} -> {json_path}")
    return EXIT_OK


@_input_errors()
def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.overrides, args.command)
    rows = gaussian_model.sweep(**config["simulate"])
    path = output_path(config, "sweep_csv")
    gaussian_model.write_sweep_csv(rows, path)
    print(f"wrote {len(rows)} sweep rows to {path}")
    return EXIT_OK


@_input_errors()
def cmd_convert(args: argparse.Namespace) -> int:
    count_flags = [args.tp, args.fp, args.fn, args.tn]
    modes = sum([args.mu is not None, args.eps is not None, any(f is not None for f in count_flags)])
    if modes != 1:
        raise ConfigError("choose exactly one input mode: --mu, --eps, or --tp/--fp/--fn/--tn")

    if args.mu is not None:
        eps = eps_from_mu_delta(args.mu, args.delta)
        print(f"mu={args.mu:.9g} delta_target={args.delta:.3g}")
        print(f"eps={eps:.9g}")
        return EXIT_OK

    if args.eps is not None:
        # invert: the mu whose conversion lands back on the requested eps
        mu = mu_from_eps_delta(args.eps, args.delta)
        round_trip = eps_from_mu_delta(mu, args.delta)
        print(f"eps={args.eps:.9g} delta_target={args.delta:.3g}")
        print(f"mu={mu:.9g}")
        if math.isinf(round_trip):
            print(f"round_trip_eps=unbounded (above EPS_BRACKET_MAX={EPS_BRACKET_MAX:g})")
        else:
            print(f"round_trip_eps={round_trip:.9g}")
        print(f"delta_at_eps={delta_from_eps_mu(args.eps, mu):.6g}")
        return EXIT_OK

    if any(f is None for f in count_flags):
        raise ConfigError("count mode needs all of --tp --fp --fn --tn")
    if not 0.0 < args.gamma < 1.0:
        raise ConfigError(f"--gamma must lie in (0, 1), got {args.gamma}")
    counts = AttackCounts(true_positives=args.tp, false_positives=args.fp,
                          false_negatives=args.fn, true_negatives=args.tn)
    estimate = audit_epsilon(counts, args.gamma, args.delta)
    print(f"counts: tp={args.tp} fp={args.fp} fn={args.fn} tn={args.tn} gamma={args.gamma}")
    print(f"tpr={counts.tpr:.9g} fpr={counts.fpr:.9g}")
    print(f"alpha_bar={estimate.alpha_bar:.9g} beta_bar={estimate.beta_bar:.9g}")
    print(f"mu_lower={estimate.mu_lower:.9g}")
    print(f"eps_emp_gdp={estimate.eps_emp:.9g} (delta_target={args.delta:.3g})")
    print(f"eps_emp_point={eps_emp_dp(counts.tpr, counts.fpr):.9g}")
    return EXIT_OK


_COMMANDS = {
    "collect": cmd_collect,
    "audit": cmd_audit,
    "simulate": cmd_simulate,
    "convert": cmd_convert,
}


# Built once per process. A parse leaves the parser as it was and returns a
# fresh namespace; with no default list to share, each --set list is new.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ArithmeticError, FloatingPointError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


# Once, with the imports done: the collector never rescans the modules,
# classes and functions that live as long as the process, so no command pays
# a full pass over them. Objects made after this, each command's cyclic
# garbage included, stay collectable.
gc.freeze()

if __name__ == "__main__":
    entrypoint()
