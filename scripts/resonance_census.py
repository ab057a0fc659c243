#!/usr/bin/env python3
"""Census of resonances among small number-partitions.

Counts, per weight, how many types are free of resonances, and lists the
primitive partition identities of the resonant ones.  Useful for picking
interesting types: the resonant ones are exactly those escaping the
sphere-or-point dichotomy for the stratum homology.
"""

import argparse

from polystrata.resonance import primitive_identities
from polystrata.verify import partitions_of


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=12)
    parser.add_argument("--list-identities", action="store_true")
    args = parser.parse_args()

    for n in range(1, args.max_weight + 1):
        types = partitions_of(n)
        identities = [(p, primitive_identities(p)) for p in types]
        resonant = [(p, ids) for p, ids in identities if ids]
        print(
            "weight %2d: %3d types, %3d free, %3d resonant"
            % (n, len(types), len(types) - len(resonant), len(resonant))
        )
        if args.list_identities:
            for partition, identities in resonant:
                pretty = ", ".join(
                    "%s = %s"
                    % (
                        "+".join(str(partition[i - 1]) for i in left),
                        "+".join(str(partition[j - 1]) for j in right),
                    )
                    for left, right in identities
                )
                print("    %s: %s" % (partition, pretty))


if __name__ == "__main__":
    main()
