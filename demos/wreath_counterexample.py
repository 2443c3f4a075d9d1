"""Tour of the 12-vertex graph whose fer group is a proper wreath product.

The graph is the comb product of a path on three vertices with a
triangle-plus-pendant, flattened to labels 1..12.  Its replacement group
has order (4!)^3 * 3! = 82944 -- far short of 12! -- so the graph is not
a local amoeba, and no generator crosses the three copy blocks.

Run:  python3 demos/wreath_counterexample.py
"""

import math

from amoebagraph import (
    classify_graph,
    example,
    fer_fixed_group,
    fer_group,
    find_skew,
)


def main() -> None:
    gh = example("counterexample_GH_labeled")
    print("labels:", " ".join(gh.labels))
    print("edges: ", " ".join(f"{u}-{v}" for u, v in gh.edges))
    fer = fer_group(gh)
    print(f"\n|Fer| = {fer.order} = (4!)^3 * 3! = {24 ** 3 * 6}")
    print(f"12!   = {math.factorial(12)}  (a local amoeba would reach this)")

    report = classify_graph(gh)
    blocks = report.block_system
    print("\ncopy blocks:", " ".join("{" + " ".join(b) + "}" for b in blocks))
    print("skew generator:", find_skew(gh, blocks) or "none found")

    orbit = next(part for part in fer_fixed_group(gh, "1").orbits if "2" in part)
    print("\nreplacements fixing label 1 move label 2 only inside its copy:")
    print("orbit of 2:", "{" + " ".join(orbit) + "}")


if __name__ == "__main__":
    main()
