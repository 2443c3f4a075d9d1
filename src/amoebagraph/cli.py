"""Command-line front end.

Verbs: classify, fer, orbits, comb, family, example, oracle, check.
Exit codes: 0 success/pass, 1 falsification, 2 usage or I/O error, 3 size
guard.  "-" means standard input/output.  --max-n or AMOEBA_MAX_N overrides
the size guard of 30; for the oracle verb it can only lower oracle.REACH_LIMIT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import classify as cls
from . import construct, oracle
from .fer import fer_fixed_group, fer_group, hang_group
from .lgraph import FormatError, GraphError, LabeledGraph, from_json, to_dot, to_json
from .permgroup import PermutationError, flat, is_symmetric

ENGINE_LIMIT = 30


def _limit(args, default: int) -> int:
    if args.max_n is not None:
        return args.max_n
    env = os.environ.get("AMOEBA_MAX_N")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise FormatError(f"AMOEBA_MAX_N is not an integer: {env!r}") from None
    return default


def _read_graph(path: str, limit: int) -> LabeledGraph:
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise FormatError(f"cannot read {path}: not UTF-8 text") from None
    try:
        g = from_json(text)
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None
    if len(g.labels) > limit:
        raise oracle.SizeGuardError(
            f"{path}: {len(g.labels)} labels exceeds the guard of {limit}"
        )
    return g


def _read_pair(args, limit: int) -> tuple:
    """Both comb factors, refused before the |G|·|H|-label product is built."""
    g = _read_graph(args.g, limit)
    h = _read_graph(args.h, limit)
    size = len(g.labels) * len(h.labels)
    if size > limit:
        raise oracle.SizeGuardError(
            f"product has {size} labels, exceeding the guard of {limit}"
        )
    return g, h


def _write(text: str, out) -> None:
    if out in (None, "-"):
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # Point fd 1 at devnull so the flush at exit cannot fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise FormatError("cannot write to standard output: broken pipe") from None
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise FormatError(f"cannot write {out}: {err.strerror}") from None


def _emit_graph(g: LabeledGraph, args) -> None:
    _write(to_dot(g) if args.dot else to_json(g), args.out)


def _emit(args, payload, lines) -> int:
    """Print payload as JSON under --format json, the text lines otherwise."""
    text = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines)
    _write(text + "\n", None)
    return 0


def _orbit_text(parts) -> str:
    return "".join("{" + " ".join(flat(x) for x in orbit) + "}" for orbit in parts)


def _yn(value: bool) -> str:
    return "yes" if value else "no"


def _verdict(ok: bool) -> str:
    return "pass" if ok else "falsified"


def _do_classify(args) -> int:
    g = _read_graph(args.file, _limit(args, ENGINE_LIMIT))
    if args.root is not None:
        g = g.with_root(args.root)
    report = cls.classify_graph(g)
    data = report.to_json()
    lines = [
        f"root: {data['root'] if data['root'] is not None else '-'}",
        f"fer order: {data['fer_order']}",
        f"fer orbits: {_orbit_text(report.fer_orbits)}",
        f"local amoeba: {_yn(report.local_amoeba)}",
        f"global amoeba: {_yn(report.global_amoeba)}",
    ]
    if report.root is not None:
        lines += [
            f"stem-symmetric at root: {_yn(report.stem_symmetric_at_root)}",
            f"hang-symmetric at root: {_yn(report.hang_symmetric_at_root)}",
            f"stem-transitive at root: {_yn(report.stem_transitive_at_root)}",
            f"root-similar vertex: {_yn(report.has_root_similar_vertex)}",
        ]
    witnesses = data["witnesses"]
    if witnesses["block_system"] is not None:
        lines.append(f"block system: {_orbit_text(report.block_system)}")
    if witnesses["skew"] is not None:
        lines.append(f"skew: {witnesses['skew']}")
    return _emit(args, data, lines)


def _select_group(g: LabeledGraph, args):
    if args.fixed is not None and args.hang is not None:
        raise FormatError("--fixed and --hang are mutually exclusive")
    if args.hang is not None:
        return hang_group(g, args.hang), f"hang group at {args.hang}"
    if args.fixed is not None:
        return fer_fixed_group(g, args.fixed), f"fer group fixing {args.fixed}"
    return fer_group(g), "fer group"


def _do_fer(args) -> int:
    g = _read_graph(args.file, _limit(args, ENGINE_LIMIT))
    group, description = _select_group(g, args)
    payload = group.to_json()
    payload["orbits"] = [[flat(x) for x in orbit] for orbit in group.orbits]
    lines = [
        f"{description}: order {payload['order']}",
        f"orbits: {_orbit_text(group.orbits)}",
        f"generators ({len(payload['generators'])}):",
    ]
    lines += [f"  {cycles}" for cycles in payload["generators"]]
    return _emit(args, payload, lines)


def _do_orbits(args) -> int:
    g = _read_graph(args.file, _limit(args, ENGINE_LIMIT))
    parts = _select_group(g, args)[0].orbits
    return _emit(args, [[flat(x) for x in orbit] for orbit in parts], [_orbit_text(parts)])


def _do_comb(args) -> int:
    g, h = _read_pair(args, _limit(args, ENGINE_LIMIT))
    _emit_graph(construct.comb_product(g, h), args)
    return 0


def _do_family(args) -> int:
    limit, n = _limit(args, ENGINE_LIMIT), args.n
    size = n if n is not None and n >= 1 else None
    if args.name == "cube":
        # family() refuses a size parameter for cube whatever the guard.
        size = 8 if n is None else None
    elif args.name in ("a_family", "b_family") and size is not None and n <= limit:
        # 2**n > n, so an n over the guard is refused before 2**n is formed.
        size = 2**n + (args.name == "b_family")
    if size is not None and size > limit:
        member = args.name if n is None else f"{args.name} {n}"
        raise oracle.SizeGuardError(
            f"family {member} has more than {limit} labels, exceeding the guard"
        )
    _emit_graph(construct.family(args.name, n, root=args.root), args)
    return 0


def _do_example(args) -> int:
    _emit_graph(construct.example(args.name), args)
    return 0


def _do_oracle(args) -> int:
    g = _read_graph(args.file, _limit(args, oracle.REACH_LIMIT))
    result = oracle.reachability(g)
    # The labeled copies are g's orbit under Sym(n), so |Aut(g)| = n!/copies.
    aut_size = math.factorial(len(g.labels)) // result.total_copies
    group = fer_group(g)
    local_oracle = len(result.reached) == result.total_copies
    agree = (
        len(result.reached) * aut_size == group.order
        and is_symmetric(group) == local_oracle
    )
    payload = {
        **result.to_json(),
        "fer_order": str(group.order),
        "local_amoeba": local_oracle,
        "agrees_with_engine": agree,
    }
    lines = [
        f"reached: {payload['reached']} of {payload['total_copies']} labeled copies",
        f"fer order: {payload['fer_order']}",
        f"local amoeba: {_yn(local_oracle)}",
        f"agreement: {_verdict(agree)}",
    ]
    _emit(args, payload, lines)
    return 0 if agree else 1


def _do_check(args) -> int:
    limit, name = _limit(args, ENGINE_LIMIT), args.checker
    if name in ("thm3", "hangcorr", "globaltrans"):
        g = _read_graph(args.file, limit)
    else:
        g, h = _read_pair(args, limit)
    detail = ""
    if name == "thm3":
        a, b, c = cls.check_theorem3(g, args.root)
        ok, detail = a == b == c, f"a={_yn(a)} b={_yn(b)} c={_yn(c)} -> "
    elif name == "hangcorr":
        ok = cls.check_hang_correspondence(g, args.root)
    elif name == "globaltrans":
        glob, trans = cls.check_global_transitive(g)
        ok, detail = glob == trans, f"global={_yn(glob)} transitive={_yn(trans)} -> "
    elif name == "wreath":
        ok = cls.check_wreath_embedding(g, h)
    elif name == "fixedwreath":
        ok = cls.check_fixed_wreath_embedding(g, h)
    else:
        verdict = cls.check_big_corollary(g, h)
        ok, detail = verdict != "violated", f"{verdict} -> "
    _write(f"{name}: {detail}{_verdict(ok)}\n", None)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amoeba",
        description="Classify labeled graphs by their feasible edge-replacement groups.",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="override the size guard "
        f"(default 30; at most {oracle.REACH_LIMIT} for the oracle verb)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="emit a classification report")
    p.add_argument("file", help='graph JSON path, or "-" for stdin')
    p.add_argument("--root", help="classify with this root label")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_do_classify)

    p = sub.add_parser("fer", help="emit a fer group: order, generators, orbits")
    p.add_argument("file")
    p.add_argument("--fixed", help="use the subgroup fixing this label")
    p.add_argument("--hang", help="use the hang group at this label")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_do_fer)

    p = sub.add_parser("orbits", help="emit the fer orbit partition")
    p.add_argument("file")
    p.add_argument("--fixed", help="use the subgroup fixing this label")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_do_orbits, hang=None)

    p = sub.add_parser("comb", help="write the comb product of two graphs")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("-o", "--out", help='output path, or "-" for stdout')
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(run=_do_comb)

    p = sub.add_parser("family", help="write a named family member")
    p.add_argument("name", choices=construct.FAMILY_NAMES)
    p.add_argument("n", nargs="?", type=int, help="size parameter (not for cube)")
    p.add_argument("--root", help="root label override")
    p.add_argument("--out", help='output path, or "-" for stdout')
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(run=_do_family)

    p = sub.add_parser("example", help="write a named example graph")
    p.add_argument("name", choices=construct.EXAMPLE_NAMES)
    p.add_argument("--out", help='output path, or "-" for stdout')
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(run=_do_example)

    p = sub.add_parser("oracle", help="reachability BFS summary and agreement")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_do_oracle)

    p = sub.add_parser("check", help="run a theorem checker")
    checker = p.add_subparsers(dest="checker", required=True)
    for name in ("thm3", "hangcorr"):
        q = checker.add_parser(name)
        q.add_argument("file")
        q.add_argument("--root", help="root label (defaults to the file's root)")
    q = checker.add_parser("globaltrans")
    q.add_argument("file")
    for name in ("wreath", "fixedwreath", "bigcor"):
        q = checker.add_parser(name)
        q.add_argument("g")
        q.add_argument("h")
    p.set_defaults(run=_do_check)

    return parser


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except oracle.SizeGuardError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (FormatError, GraphError, PermutationError, cls.PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
