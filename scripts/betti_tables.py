#!/usr/bin/env python3
"""Tabulate homology of compactified hyperbolic strata for all types of small weight.

For each number-partition of each weight up to --max-weight, print the reduced
homology of the one-point compactified closed stratum together with the
closed-form prediction when one applies.  Disagreement between the pipelines
aborts the run.
"""

import argparse

from polystrata.hyperbolic import hyp_homology, resonance_free_prediction
from polystrata.verify import partitions_of


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=9)
    parser.add_argument(
        "--backend",
        choices=["cells", "order-complex", "delta", "all"],
        default="cells",
        help="all cross-checks every pipeline (slow for large weights)",
    )
    args = parser.parse_args()

    backend = None if args.backend == "all" else args.backend
    print("%-18s %-10s %-28s %s" % ("lambda", "resonance", "homology", "prediction"))
    for n in range(1, args.max_weight + 1):
        for partition in partitions_of(n):
            homology = hyp_homology(partition, backend)
            prediction = resonance_free_prediction(partition)
            free = prediction.kind != "none"
            note = ""
            if free:
                note = "%s (%s)" % (
                    "ok" if prediction.matches(homology) else "MISMATCH",
                    prediction.source,
                )
            print(
                "%-18s %-10s %-28s %s"
                % (partition, "free" if free else "resonant", homology, note)
            )


if __name__ == "__main__":
    main()
