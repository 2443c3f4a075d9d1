"""Hang paths on a path and watch one replacement break the block system.

The comb product of a path with rooted paths embeds a wreath product in
its fer group; the group is the full symmetric group exactly when some
permutation crosses the copy blocks.  One feasible replacement supplies
that witness: cut the far end of the copy over a leaf and re-hang it on
the neighboring copy.

Run:  python3 demos/path_comb_skew.py
"""

import math

from amoebagraph import (
    EdgeReplacement,
    comb_product,
    cycle_notation,
    family,
    fer_coset,
    fer_group,
    flatten_labels,
    pair_blocks,
    preserves_partition,
    to_dot,
)


def main() -> None:
    g = family("path", 2).unrooted()
    h = family("path", 3, root="1")
    gh = comb_product(g, h)
    print(to_dot(flatten_labels(gh)))

    fer = fer_group(gh)
    print(f"|Fer| = {fer.order} = 6! = {math.factorial(6)}  -> local amoeba")

    blocks = pair_blocks(gh.labels)
    r = EdgeReplacement((("2", "1"), ("3", "1")), (("3", "1"), ("3", "2")))
    print("replacement: cut 2.1-3.1, add 3.1-3.2")
    for p in fer_coset(gh, r):
        crosses = not preserves_partition(p, blocks)
        flag = "crosses blocks" if crosses else "stays in blocks"
        print(f"  {cycle_notation(p.relabeled({x: '.'.join(x) for x in gh.labels})):<40} {flag}")


if __name__ == "__main__":
    main()
