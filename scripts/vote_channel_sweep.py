#!/usr/bin/env python3
"""Tabulate the analytic Gaussian vote channel across partition counts.

Shows the contrast that motivates GDP-based auditing: the channel parameter
(and its converted epsilon) is flat across (T, k) at a fixed margin, while
the raw log-ratio loss moves with the vote pattern.
"""

import argparse

from dpicl_audit.gaussian_model import sweep, write_sweep_csv


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--T", type=int, nargs="+", default=list(range(2, 15, 2)))
    parser.add_argument("--k-rule", default="all", choices=["extreme", "centered", "fixed", "all"])
    parser.add_argument("--k-fixed", type=int, default=None)
    parser.add_argument("--b", type=float, default=1.0)
    parser.add_argument("--sigma", type=float, default=2.0)
    parser.add_argument("--delta-target", type=float, default=1e-5)
    parser.add_argument("--out", default="vote_channel_sweep.csv")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    rows = sweep(T_values=args.T, k_rule=args.k_rule, b=args.b, sigma=args.sigma,
                 delta_target=args.delta_target, k_fixed=args.k_fixed)
    write_sweep_csv(rows, args.out)
    print(f"{'T':>3} {'k':>3} {'mu_gauss':>9} {'eps_analytic':>13} {'eps_gdp':>9}")
    for row in rows:
        print(f"{row.T:>3} {row.k:>3} {row.mu_gauss:>9.5f} {row.eps_analytic:>13.6f} {row.eps_gdp:>9.5f}")
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
