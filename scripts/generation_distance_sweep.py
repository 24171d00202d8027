#!/usr/bin/env python3
"""Signal-distance sweep for the generation (embedding aggregation) audit.

Audits each shipped signal-text pair at the same privacy budget; the
empirical epsilon should climb with the embedding distance between the two
signal strings.
"""

import argparse
import csv

from dpicl_audit import (
    AuditConfig,
    CanaryDetector,
    Exemplar,
    MechanismConfig,
    NeighboringPair,
    SignalPair,
    run_audit,
)
from dpicl_audit.oracles import catalog_distances


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, default=8.0)
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument("--delta", type=float, default=1e-5)
    parser.add_argument("--dimension", type=int, default=16)
    parser.add_argument("--distances", type=float, nargs="+", default=None,
                        help="defaults to the shipped signal-pair table")
    parser.add_argument("--sensitivity-mode", default="esa_tight",
                        choices=["esa_tight", "esa_legacy"])
    parser.add_argument("--threat", default="white_box", choices=["black_box", "white_box"])
    parser.add_argument("--n-llm", type=int, default=200)
    parser.add_argument("--n-sample", type=int, default=400_000)
    parser.add_argument("--seed", type=int, default=20240806)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default="generation_distance_sweep.csv")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    distances = args.distances or sorted(catalog_distances())
    base = [Exemplar(f"in {i}", f"out {i}") for i in range(2 * args.partitions)]
    pair = NeighboringPair(base, Exemplar("CANARY", "canary out"), 0)

    rows = []
    print(f"{'distance':>9} {'eps_emp_gdp':>12} {'mu_lower':>10} {'tau':>10}")
    for distance in distances:
        try:
            signal = SignalPair.from_catalog(distance, args.dimension)
        except KeyError:
            signal = SignalPair.synthetic(distance, args.dimension)
        mech = MechanismConfig(eps_theory=args.eps, delta=args.delta,
                               num_partitions=args.partitions,
                               sensitivity_mode=args.sensitivity_mode)
        config = AuditConfig(mechanism=mech, task="generation", threat_model=args.threat,
                             n_llm=args.n_llm, n_sample=args.n_sample, seed=args.seed)
        oracle = CanaryDetector((signal.y0_embedding, signal.y1_embedding))
        report = run_audit(config, oracle, pair, "CANARY", signal_pair=signal,
                           workers=args.workers)
        tau = report.tau if report.tau is not None else float("nan")
        print(f"{distance:>9g} {report.estimate.eps_emp:>12.4f} "
              f"{report.estimate.mu_lower:>10.4f} {tau:>10.4f}")
        row = report.to_csv_row()
        row["distance"] = distance
        rows.append(row)

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
