#!/usr/bin/env python3
"""Desk-scale classification auditing overview.

Audits the private-voting mechanism with the idealized canary detector at
every requested privacy budget, under both threat models, and prints the
empirical epsilon next to the theoretical one.
"""

import argparse
import csv

from dpicl_audit import (
    AuditConfig,
    CanaryDetector,
    Exemplar,
    MechanismConfig,
    NeighboringPair,
    run_audit,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, nargs="+", default=[1.0, 2.0, 4.0, 8.0])
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--delta", type=float, default=1e-5)
    parser.add_argument("--n-llm", type=int, default=200)
    parser.add_argument("--n-sample", type=int, default=400_000)
    parser.add_argument("--flip-probability", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default="classification_overview.csv")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    base = [Exemplar(f"in {i}", f"out {i}") for i in range(2 * args.partitions)]
    pair = NeighboringPair(base, Exemplar("CANARY", "canary out"), 0)
    # two classes, yes (0) when the partition holds the canary, else no (1)
    oracle = CanaryDetector((1, 0), num_classes=2, flip_probability=args.flip_probability)

    rows = []
    print(f"{'eps_theory':>10} {'threat':>10} {'eps_emp_gdp':>12} {'mu_lower':>10} {'eps_point':>10}")
    for eps_theory in args.eps:
        mech = MechanismConfig(eps_theory=eps_theory, delta=args.delta,
                               num_partitions=args.partitions)
        for threat in ("black_box", "white_box"):
            config = AuditConfig(mechanism=mech, task="classification", threat_model=threat,
                                 n_llm=args.n_llm, n_sample=args.n_sample, seed=args.seed)
            report = run_audit(config, oracle, pair, "CANARY", workers=args.workers)
            print(f"{eps_theory:>10g} {threat:>10} {report.estimate.eps_emp:>12.4f} "
                  f"{report.estimate.mu_lower:>10.4f} {report.eps_emp_point:>10.4f}")
            rows.append(report.to_csv_row())

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
