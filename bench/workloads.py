"""Workload inputs: the named graphs, seeded relabelings and operation lists.

Every input graph is relabeled by a bijection drawn from the seed, so the
same seed always gives the same inputs.  Each operation carries a `back`
map from its relabeled labels to the labels of the graph before
relabeling; answers are checked by mapping them back and comparing with
`reference.json`, which is keyed by graph identity before relabeling.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from amoebagraph import (
    LabeledGraph,
    classify_graph,
    comb_product,
    corpus,
    example,
    family,
    fer_group,
    relabel,
    to_json,
)
from amoebagraph.permgroup import flat

HERE = os.path.dirname(os.path.abspath(__file__))


def star_graph(leaves: int) -> LabeledGraph:
    """K1,leaves with centre "1"."""
    labels = tuple(str(i) for i in range(1, leaves + 2))
    return LabeledGraph(labels, tuple(("1", x) for x in labels[1:]))


# Graphs before relabeling, by the name the reference table uses.
NAMED = {
    "K7": lambda: family("complete", 7),
    "K8": lambda: family("complete", 8),
    "K1,7": lambda: star_graph(7),
    "K1,8": lambda: star_graph(8),
    "P12": lambda: family("path", 12),
    "P16": lambda: family("path", 16),
    "P14": lambda: family("path", 14),
    "GH": lambda: example("counterexample_GH_labeled"),
    "b3": lambda: family("b_family", 3),
    "hang8": lambda: example("hang_symm_8").with_root("1"),
    "P2": lambda: family("path", 2),
    "P3": lambda: family("path", 3),
    "P4": lambda: family("path", 4),
    "P5": lambda: family("path", 5),
    "P6": lambda: family("path", 6),
    "K3": lambda: family("complete", 3, root="1"),
    "fig1": lambda: example("fig1").with_root("1"),
    "cG": lambda: example("counterexample_G"),
    "cH": lambda: example("counterexample_H"),
}

# Comb products G*H, built from separately relabeled factors so that the
# block structure {B x {x}} survives the relabeling.
PRODUCTS = {"P4*P3": ("P4", "P3"), "P3*K3": ("P3", "K3")}

LARGE_FER = ("K7", "K8", "K1,7", "K1,8", "P12", "P16")
LARGE_CLASSIFY = ("P14", "GH", "b3", "P4*P3", "P3*K3", "hang8")

# cli-verbs: one cycle per row of (single graph, oracle graph, product pair).
CLI_CYCLES = (
    ("P4", "P4", ("P2", "P2")),
    ("fig1", "fig1", ("P3", "K3")),
    ("K3", "K3", ("cG", "cH")),
    ("cH", "cH", ("P2", "P3")),
    ("hang8", "P5", ("P3", "P2")),
    ("P6", "P6", ("P2", "K3")),
    ("GH", "P2", ("P3", "P3")),
)

# The verb mix of one cycle: (form, verb group, arguments, staging plan).
# In the arguments X is the single graph rooted at r, O the oracle graph, G
# and H the factors of the pair, OUT the output path.  The plan is what a
# traced CLI process stages before `amoebagraph.cli.main` runs: only work
# the verb does anyway, as (graph slot, stage options), so staging moves
# time between rows without adding any.
CLASSIFY_PLAN = [("X", dict(order=True, fixed=True, hang=True, star=True))]
CLI_VERBS = (
    ("classify", "classify", ["classify", "X", "--root", "r"], CLASSIFY_PLAN),
    ("classify-json", "classify", ["classify", "X", "--root", "r", "--format", "json"],
     CLASSIFY_PLAN),
    ("fer", "fer", ["fer", "X"], [("X", dict(order=True))]),
    ("fer-fixed", "fer", ["fer", "X", "--fixed", "r"], [("X", dict(fixed=True))]),
    ("fer-hang", "fer", ["fer", "X", "--hang", "r"], [("X", dict(hang=True))]),
    ("orbits", "orbits", ["orbits", "X"], [("X", {})]),
    ("comb", "comb", ["comb", "G", "H", "-o", "OUT"], []),
    ("family", "family", ["family", "path", "3"], []),
    ("oracle", "oracle", ["oracle", "O"], [("O", dict(order=True))]),
    ("thm3", "check", ["check", "thm3", "X", "--root", "r"], [("X", {})]),
    ("hangcorr", "check", ["check", "hangcorr", "X", "--root", "r"], [("X", dict(hang=True))]),
    ("globaltrans", "check", ["check", "globaltrans", "X"], [("X", dict(base=False, star=True))]),
    ("wreath", "check", ["check", "wreath", "G", "H"], [("G", dict(star=True)), ("H", {})]),
    ("fixedwreath", "check", ["check", "fixedwreath", "G", "H"], [("G", {}), ("H", {})]),
    ("bigcor", "check", ["check", "bigcor", "G", "H"],
     [("G", dict(order=True)), ("H", dict(hang=True))]),
)

# `amoeba family path 3`, written out independently of the package.
FAMILY_PATH_3 = json.dumps(
    {"labels": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]], "root": "1"}, indent=2
) + "\n"


@dataclass
class Op:
    """One closed-loop operation and how to check its answer."""

    kind: str  # "classify", "fer_order", or the CLI verb group
    layer: str  # the package module the final call belongs to
    check: Callable  # (result, reference table) -> None when correct, else a message
    graph: Optional[LabeledGraph] = None  # in-process input
    argv: list = field(default_factory=list)  # CLI arguments
    plan: list = field(default_factory=list)  # CLI staging: (path, root, options)
    output: Optional[str] = None  # file the CLI call writes, if any

    def call(self):
        if self.kind == "classify":
            return classify_graph(self.graph)
        return fer_group(self.graph).order


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def corpus_key(g: LabeledGraph) -> str:
    """Identity of a corpus representative: its size and edge list."""
    return f"{len(g.labels)}:" + ",".join(f"{u}-{v}" for u, v in g.edges)


def relabeled(g: LabeledGraph, rng: random.Random):
    """g under a random bijection of its own labels, and the map back."""
    labels = list(g.labels)
    images = labels[:]
    rng.shuffle(images)
    return relabel(g, dict(zip(labels, images))), dict(zip(images, labels))


def build_graph(name: str, rng: random.Random):
    """A named graph or product, relabeled; returns (graph, back map)."""
    if name in PRODUCTS:
        gname, hname = PRODUCTS[name]
        g, g_back = relabeled(NAMED[gname](), rng)
        h, h_back = relabeled(NAMED[hname](), rng)
        product = comb_product(g, h)
        back = {(b, x): (h_back[b], g_back[x]) for b, x in product.labels}
        return product, back
    return relabeled(NAMED[name](), rng)


# ---------------------------------------------------------------- checks


def _mapped_orbits(orbits, back) -> list:
    return sorted(sorted(flat(back[x]) for x in orbit) for orbit in orbits)


def _flags(ref: dict, root: str) -> dict:
    at = ref["roots"][root]
    return {
        "fer_order": ref["order"],
        "orbits": ref["orbits"],
        "local": ref["local"],
        "global": ref["global"],
        "stem": at["stem"],
        "hang": at["hang"],
        "transitive": at["transitive"],
        "similar": at["similar"],
        "block_system": ref["block"],
        "skew": ref["skew"],
    }


def _diff(got: dict, want: dict) -> Optional[str]:
    bad = [k for k in want if got.get(k) != want[k]]
    if not bad:
        return None
    return "; ".join(f"{k}: got {got.get(k)!r}, want {want[k]!r}" for k in bad)


def report_check(section: str, key: str, back: dict):
    def check(report, refs: dict) -> Optional[str]:
        got = {
            "fer_order": str(report.fer_order),
            "orbits": _mapped_orbits(report.fer_orbits, back),
            "local": report.local_amoeba,
            "global": report.global_amoeba,
            "stem": report.stem_symmetric_at_root,
            "hang": report.hang_symmetric_at_root,
            "transitive": report.stem_transitive_at_root,
            "similar": report.has_root_similar_vertex,
            "block_system": report.block_system is not None,
            "skew": report.skew is not None,
        }
        return _diff(got, _flags(refs[section][key], flat(back[report.root])))

    return check


def order_check(name: str):
    def check(order, refs: dict) -> Optional[str]:
        want = refs["named"][name]["order"]
        return None if str(order) == want else f"order {order}, want {want}"

    return check


# ---------------------------------------------------------- in-process


def corpus_ops(seed: int) -> list:
    """Every class on 5 and 6 vertices, relabeled, rooted at each label."""
    rng = random.Random(seed)
    ops = []
    for n in (5, 6):
        for rep in corpus(n):
            g, back = relabeled(rep, rng)
            check = report_check("corpus", corpus_key(rep), back)
            for root in g.labels:
                ops.append(Op("classify", "classify", check, g.with_root(root)))
    return ops


def large_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for name in LARGE_FER:
        g, _back = build_graph(name, rng)
        ops.append(Op("fer_order", "fer", order_check(name), g))
    for name in LARGE_CLASSIFY:
        g, back = build_graph(name, rng)
        ops.append(Op("classify", "classify", report_check("named", name, back), g))
    return ops


# ------------------------------------------------------------ command line


def _lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _parse_orbits(text: str) -> list:
    return [part.split() for part in text.strip().strip("{}").split("}{")]


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cli_check(form: str, slots: dict):
    """Checker of (exit code, stdout, output file text) for one verb form."""
    xname, xback, root = slots["X"]
    oname, oback, _ = slots["O"]
    gname, _gback, groot = slots["G"]
    hname, _hback, hroot = slots["H"]
    old_root = xback[root]

    def mapped(text, back):
        return sorted(sorted(back[y] for y in orbit) for orbit in _parse_orbits(text))

    def expect(code, want_code, ok) -> Optional[str]:
        if code != want_code:
            return f"exit code {code}, want {want_code}"
        return None if ok else "output differs from the reference"

    def verdict(code, out, line, ok) -> Optional[str]:
        return expect(code, 0 if ok else 1, out.strip() == f"{line} -> {_verdict(ok)}")

    def check(result, refs: dict) -> Optional[str]:
        code, out, product = result
        x = refs["named"][xname]
        pair = refs["pairs"][f"{gname}*{hname}"]
        at = x["roots"][old_root]
        if form.startswith("classify"):
            want = _flags(x, old_root)
            del want["block_system"], want["skew"]
            if form == "classify-json":
                data = json.loads(out)
                got = {
                    "fer_order": data["fer_order"],
                    "orbits": sorted(sorted(xback[y] for y in o) for o in data["fer_orbits"]),
                    "local": data["local_amoeba"],
                    "global": data["global_amoeba"],
                    "stem": data["stem_symmetric_at_root"],
                    "hang": data["hang_symmetric_at_root"],
                    "transitive": data["stem_transitive_at_root"],
                    "similar": data["has_root_similar_vertex"],
                }
            else:
                fields = _lines(out)
                got = {
                    "fer_order": fields.get("fer order"),
                    "orbits": mapped(fields.get("fer orbits", ""), xback),
                    "local": fields.get("local amoeba") == "yes",
                    "global": fields.get("global amoeba") == "yes",
                    "stem": fields.get("stem-symmetric at root") == "yes",
                    "hang": fields.get("hang-symmetric at root") == "yes",
                    "transitive": fields.get("stem-transitive at root") == "yes",
                    "similar": fields.get("root-similar vertex") == "yes",
                }
            return expect(code, 0, True) or _diff(got, want)
        if form.startswith("fer"):
            first = out.splitlines()[0] if out else ""
            if form == "fer-fixed":
                return expect(code, 0, first == f"fer group fixing {root}: order {at['fixed_order']}")
            if form == "fer-hang":
                return expect(code, 0, first == f"hang group at {root}: order {at['hang_order']}")
            orbits = mapped(_lines(out).get("orbits", ""), xback)
            return expect(code, 0, first == f"fer group: order {x['order']}" and orbits == x["orbits"])
        if form == "orbits":
            return expect(code, 0, mapped(out, xback) == x["orbits"])
        if form == "comb":
            data = json.loads(product)
            ok = (
                len(data["labels"]) == pair["labels"]
                and len(data["edges"]) == pair["edges"]
                and data.get("root") == f"{hroot}.{groot}"
            )
            return expect(code, 0, ok)
        if form == "family":
            return expect(code, 0, out == FAMILY_PATH_3)
        if form == "oracle":
            o = refs["named"][oname]
            reached = int(o["order"]) // o["aut"]
            copies = math.factorial(len(oback)) // o["aut"]
            want = [
                f"reached: {reached} of {copies} labeled copies",
                f"fer order: {o['order']}",
                f"local amoeba: {_yn(o['local'])}",
                "agreement: pass",
            ]
            return expect(code, 0, out.splitlines() == want)
        if form == "thm3":
            a, b, c = at["thm3"]
            return verdict(code, out, f"thm3: a={_yn(a)} b={_yn(b)} c={_yn(c)}", a == b == c)
        if form == "hangcorr":
            return expect(code, 0 if at["hangcorr"] else 1,
                          out.strip() == f"hangcorr: {_verdict(at['hangcorr'])}")
        if form == "globaltrans":
            glob, trans = x["global"], x["star_transitive"]
            line = f"globaltrans: global={_yn(glob)} transitive={_yn(trans)}"
            return verdict(code, out, line, glob == trans)
        if form == "bigcor":
            return verdict(code, out, f"bigcor: {pair['bigcor']}", pair["bigcor"] != "violated")
        ok = pair[form]
        return expect(code, 0 if ok else 1, out.strip() == f"{form}: {_verdict(ok)}")

    return check


def _verdict(ok: bool) -> str:
    return "pass" if ok else "falsified"


def cli_ops(seed: int, workdir: str) -> list:
    """The verb mix, cycling over CLI_CYCLES; writes the input files."""
    rng = random.Random(seed)
    ops = []
    for c, (xname, oname, (gname, hname)) in enumerate(CLI_CYCLES):
        slots, paths = {}, {}
        for slot, name in (("X", xname), ("O", oname), ("G", gname), ("H", hname)):
            g, back = build_graph(name, rng)
            paths[slot] = os.path.join(workdir, f"c{c}-{slot}.json")
            with open(paths[slot], "w", encoding="utf-8") as handle:
                handle.write(to_json(g))
            slots[slot] = (name, back, g.root)
        paths["r"] = slots["X"][2]
        paths["OUT"] = os.path.join(workdir, f"c{c}-product.json")
        for form, group, template, plan in CLI_VERBS:
            ops.append(Op(
                group,
                "cli",
                _cli_check(form, slots),
                argv=[paths.get(word, word) for word in template],
                plan=[(paths[slot], slots[slot][2], options) for slot, options in plan],
                output=paths["OUT"] if form == "comb" else None,
            ))
    return ops
