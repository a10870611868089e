"""Command-line front end.

One solver/check/reduction per subcommand, graph files in, a JSON report
on stdout, diagnostics on stderr.  Exit codes: 0 when the instance is
feasible (or the command simply succeeded), 2 when it is infeasible, 1
on an input the command cannot use (a malformed or missing file, a
negative ``--cap``, an instance past an oracle's limit).  A malformed
command line, such as an unknown command or an option value argparse
cannot parse, also exits 2, with argparse's usage message on stderr and
nothing on stdout.  The report always carries the four keys ``status``,
``value``, ``edges``, ``certificate`` (null where not applicable), plus
``reason`` when infeasible.  Reports and reduction metadata are written
byte for byte as ``json.dumps(doc, indent=2)`` would write them, by a loop
over the open dicts and lists that joins each list of ints, of strs or of
int rows in one go.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import generate
from .errors import (
    DisconnectedError,
    Infeasible,
    OddDeficiencyError,
    OddVertexCountError,
    TreematchError,
    UnbalancedError,
)
from .graph import WeightedGraph, as_bipartitioned_tree, format_graph, parse_graph
from .oracle import (
    DEFAULT_TREE_CAP,
    brute_force_min_pmst,
    brute_force_min_sbst,
    brute_force_opt_aug,
    brute_force_sat,
)
from .pmst import HostKind, greedy_augment, min_pmst_two_valued, pmst_feasible
from .reductions import (
    complete_with_weight_two,
    format_cnf_layout,
    parse_cnf_layout,
    parse_rotation,
    reduce_hc_to_minpmst,
    reduce_sat_to_sbst,
    replace_leaves,
)
from .sbst import SbstCertificate, is_strongly_balanced, min_sbst_bipartite
from .verify import check_tree_with_matching

# ---------------------------------------------------------------------------
# File plumbing ("-" means stdin/stdout)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    # Overwrite in place, then cut what is left of the old text, rather than
    # truncate on open: on ext4 (its auto_da_alloc default), closing a file
    # that was truncated to zero and rewritten starts its writeback within
    # the call, which can stall it for milliseconds.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _load(path: str) -> WeightedGraph:
    return parse_graph(_read_text(path))


_ENCODE = json.JSONEncoder().encode


def _json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, but faster than
    the stdlib's pure-Python indent path.  Dict keys must be str, the doc a
    tree.  Nothing in the package recurses: each open dict or list waits on
    the stack as its (text before an item, item) pairs and closing text."""
    out: list[str] = []
    stack = [(iter([("", doc)]), "\n")]
    while stack:
        depth = len(stack) - 1
        for head, item in stack[-1][0]:
            out.append(head)
            if isinstance(item, dict) and item:
                for k in item:
                    if not isinstance(k, str):
                        raise TypeError(f"report keys must be str, not {type(k).__name__}")
                keys = [_ENCODE(k) + ": " for k in item]
                children, opener, closer = item.values(), "{", "}"
            elif isinstance(item, (list, tuple)) and item:
                text = _flat_list(item, depth)
                if text is not None:
                    out.append(text)
                    continue
                keys, children, opener, closer = [""] * len(item), item, "[", "]"
            else:  # str, int, float, bool, None, {} or []
                out.append(
                    str(item) if type(item) is int else "null" if item is None else _ENCODE(item)
                )
                continue
            inner = "\n" + "  " * (depth + 1)
            heads = [("," if i else opener) + inner + key for i, key in enumerate(keys)]
            stack.append((zip(heads, children), "\n" + "  " * depth + closer))
            break
        else:
            out.append(stack.pop()[1])
    return "".join(out)


def _flat_list(xs: list | tuple, depth: int) -> str | None:
    """The text at ``depth`` of a non-empty list of ints, of strs or of
    non-empty int rows, or None for any other list (a bool among ints, say).
    Rows are not written one by one: one ``%`` fills the joined per-row
    ``%d`` templates with every entry of every row.
    """
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth + "]"
    kinds = set(map(type, xs))
    if kinds == {int} or kinds == {str}:
        fmt = str if kinds == {int} else encode_basestring_ascii
        return "[" + inner + ("," + inner).join(map(fmt, xs)) + outer
    if kinds <= {list, tuple} and all(xs):
        flat = tuple(chain.from_iterable(xs))
        if set(map(type, flat)) == {int}:
            row_inner = inner + "  "
            shapes = {k: ("," + row_inner).join(["%d"] * k) for k in set(map(len, xs))}
            template = (inner + "]," + inner + "[" + row_inner).join(map(shapes.get, map(len, xs)))
            return "[" + inner + "[" + row_inner + template % flat + inner + "]" + outer
    return None


def _emit(
    status: str,
    value: int | None = None,
    edges: list | None = None,
    certificate: dict | list | None = None,
    reason: str | None = None,
) -> int:
    doc: dict = {"status": status, "value": value, "edges": edges, "certificate": certificate}
    if reason is not None:
        doc["reason"] = reason
    sys.stdout.write(_json(doc))
    return 0 if status == "feasible" else 2


def _sb_certificate(cert: SbstCertificate) -> dict:
    return {
        "plus_side": sorted(cert.plus_side),
        "unique_leaf": cert.unique_leaf,
        "matching": cert.matching.graph.edge_pairs(cert.matching.edges),
    }


def _host_from_args(g: WeightedGraph, args: argparse.Namespace) -> HostKind:
    n = g.vertex_count
    if args.host == "complete":
        return HostKind.complete(n)
    return HostKind.complete_bipartite(range(n // 2), range(n // 2, n))


# ---------------------------------------------------------------------------
# Solve / check commands


def _cmd_pmst_check(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    try:
        found = pmst_feasible(g)
    except Infeasible as exc:
        return _emit("infeasible", reason=exc.reason)
    # The seeding matching is the tree's only perfect matching.
    check_tree_with_matching(g, found.tree, found.matching.edges)
    return _emit(
        "feasible",
        value=g.total_weight(found.tree),
        edges=g.edge_pairs(found.tree),
        certificate={"matching": g.edge_pairs(found.matching.edges)},
    )


def _cmd_aug(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    host = _host_from_args(g, args)
    try:
        res = greedy_augment(g, host)
    except (OddVertexCountError, OddDeficiencyError) as exc:
        return _emit("infeasible", reason=str(exc))
    return _emit(
        "feasible",
        value=res.added_count,
        edges=list(res.added_edges),
        certificate={"matching": res.matching.graph.edge_pairs(res.matching.edges)},
    )


def _cmd_minpmst2(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    host = _host_from_args(g, args)
    try:
        res = min_pmst_two_valued(host, g, args.light, args.heavy)
    except (OddVertexCountError, OddDeficiencyError) as exc:
        return _emit("infeasible", reason=str(exc))
    return _emit(
        "feasible",
        value=res.total_weight,
        edges=res.support_graph.edge_pairs(res.tree),
        certificate={
            "heavy_count": res.heavy_count,
            "added_edges": list(res.added_edges),
        },
    )


def _cmd_sbst_check(args: argparse.Namespace) -> int:
    g = _load(args.tree)
    bt = as_bipartitioned_tree(g, range(g.edge_count))
    cert = is_strongly_balanced(bt)
    if cert is None:
        return _emit("infeasible", reason="tree is not strongly balanced")
    return _emit(
        "feasible",
        value=bt.total_weight,
        edges=g.edge_pairs(bt.edges),
        certificate=_sb_certificate(cert),
    )


def _cmd_minsbst_bipartite(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    try:
        res = min_sbst_bipartite(g)
    except (Infeasible, DisconnectedError, UnbalancedError) as exc:
        return _emit("infeasible", reason=str(exc))
    return _emit(
        "feasible",
        value=res.total_weight,
        edges=g.edge_pairs(res.tree),
        certificate=_sb_certificate(res.certificate),
    )


# ---------------------------------------------------------------------------
# Reductions


def _meta_path(args: argparse.Namespace) -> str | None:
    if args.meta is not None:
        return args.meta
    if args.out != "-":
        return args.out + ".meta.json"
    return None


def _write_meta(args: argparse.Namespace, doc: dict) -> None:
    path = _meta_path(args)
    if path is not None:
        _write_text(path, _json(doc))


def _cmd_reduce_hc(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    rot = (
        parse_rotation(_read_text(args.rotation), g)
        if args.rotation
        else generate.default_rotation(g)
    )
    red = reduce_hc_to_minpmst(g, rot)
    if args.complete:
        red = complete_with_weight_two(red)
    _write_text(args.out, format_graph(red.graph, comment="hc-to-minpmst output"))
    # The writer sorts e lines by endpoints, so per-edge metadata must be
    # reordered to match the file a reader will load.
    file_order = sorted(range(red.graph.edge_count), key=lambda i: red.graph.edges[i][:2])
    _write_meta(
        args,
        {
            "kind": "hc-to-minpmst",
            "source_vertices": g.vertex_count,
            "threshold": red.threshold,
            "completed": red.completed,
            "tags": list(red.tags),
            "edge_origin": [red.edge_origin[i] for i in file_order],
        },
    )
    return 0


def _cmd_reduce_sat(args: argparse.Namespace) -> int:
    layout = parse_cnf_layout(_read_text(args.cnf))
    red = reduce_sat_to_sbst(layout)
    _write_text(args.out, format_graph(red.graph, comment="sat-to-sbst output"))
    _write_meta(
        args,
        {
            "kind": "sat-to-sbst",
            "num_vars": layout.formula.num_vars,
            "num_clauses": len(layout.formula.clauses),
            "tags": list(red.tags),
        },
    )
    return 0


def _cmd_replace_leaves(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    out = replace_leaves(g)
    _write_text(args.out, format_graph(out, comment="replace-leaves output"))
    _write_meta(
        args,
        {
            "kind": "replace-leaves",
            "source_vertices": g.vertex_count,
            "replaced_leaves": (out.vertex_count - g.vertex_count) // 4,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# Generators


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.generator == "complete":
        g = generate.complete(args.n, args.weight)
        comment = f"gen complete {args.n}"
    elif args.generator == "complete-bipartite":
        g = generate.complete_bipartite(args.a, args.b, args.weight)
        comment = f"gen complete-bipartite {args.a} {args.b}"
    elif args.generator == "cube":
        g = generate.cube()
        comment = "gen cube"
    elif args.generator == "cycle":
        g = generate.cycle(args.n)
        comment = f"gen cycle {args.n}"
    elif args.generator == "random":
        g = generate.random_graph(args.n, args.p, args.seed, (args.wmin, args.wmax))
        comment = f"gen random {args.n} {args.p} {args.seed}"
    else:  # random-cnf
        layout = generate.random_cnf_layout(args.n, args.m, args.seed)
        _write_text(args.out, format_cnf_layout(layout))
        return 0
    _write_text(args.out, format_graph(g, comment=comment))
    return 0


# ---------------------------------------------------------------------------
# Oracle commands (slow, exhaustive; handy for cross-checking solvers)


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.which == "minpmst":
        g = _load(args.graph)
        try:
            best = brute_force_min_pmst(g, cap=args.cap)
        except DisconnectedError as exc:
            return _emit("infeasible", reason=str(exc))
        if best is None:
            return _emit("infeasible", reason="no spanning tree contains a perfect matching")
        tree, w = best
        return _emit("feasible", value=w, edges=g.edge_pairs(tree))
    if args.which == "minsbst":
        g = _load(args.graph)
        best = brute_force_min_sbst(g, cap=args.cap)
        if best is None:
            return _emit("infeasible", reason="no strongly balanced spanning tree")
        tree, w = best
        return _emit("feasible", value=w, edges=g.edge_pairs(tree))
    if args.which == "optaug":
        g = _load(args.graph)
        host = _host_from_args(g, args)
        try:
            value = brute_force_opt_aug(g, host)
        except OddVertexCountError as exc:
            return _emit("infeasible", reason=str(exc))
        return _emit("feasible", value=value)
    # sat
    layout = parse_cnf_layout(_read_text(args.cnf))
    f = layout.formula
    assignment = brute_force_sat(f.num_vars, f.clauses)
    if assignment is None:
        return _emit("infeasible", reason="unsatisfiable")
    return _emit("feasible", certificate={"assignment": list(assignment)})


# ---------------------------------------------------------------------------
# DOT export


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    overlay = _load(args.overlay) if args.overlay else None
    if overlay is not None and overlay.vertex_count != g.vertex_count:
        raise TreematchError("overlay vertex count differs from the graph")
    tags: list | None = None
    if args.tags:
        doc = json.loads(_read_text(args.tags))
        tags = doc.get("tags") if isinstance(doc, dict) else doc
        if not isinstance(tags, list):
            raise TreematchError('tags must be a list, or an object with a list under "tags"')
        if len(tags) != g.vertex_count:
            raise TreematchError(f"{len(tags)} tags for {g.vertex_count} vertices")
    lines = ["graph treematch {", "  node [shape=circle];"]
    for v in range(g.vertex_count):
        label = f"{v}: {tags[v]}" if tags else str(v)
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{label}"];')
    for u, v, w in g.edges:
        style = ", style=bold, penwidth=2" if overlay is not None and overlay.has_edge(u, v) else ""
        lines.append(f'  {u} -- {v} [label="{w}"{style}];')
    lines.append("}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_out_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--meta", help="metadata JSON path (default <out>.meta.json)")


def _add_host_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--host",
        choices=("complete", "bipartite"),
        default="complete",
        help="complete graph (default), or the balanced complete bipartite "
        "graph in which vertices 0..n/2-1 form one side",
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treematch",
        description="Spanning trees with perfect matchings: solvers, "
        "reductions, generators, and brute-force oracles.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmst-check", help="find a spanning tree containing a perfect matching")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_pmst_check)

    p = sub.add_parser("aug", help="minimum host-edge additions for connected + matchable")
    p.add_argument("graph")
    _add_host_flags(p)
    p.set_defaults(func=_cmd_aug)

    p = sub.add_parser(
        "minpmst2",
        help="minimum tree-with-matching over a two-valued host; file edges are the light set",
    )
    p.add_argument("graph")
    _add_host_flags(p)
    p.add_argument("--light", type=int, default=1, help="weight of file edges (default 1)")
    p.add_argument("--heavy", type=int, default=2, help="weight of absent host edges (default 2)")
    p.set_defaults(func=_cmd_minpmst2)

    p = sub.add_parser("sbst-check", help="check a tree file for strong balance")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_sbst_check)

    p = sub.add_parser(
        "minsbst-bipartite",
        help="minimum strongly balanced spanning tree of a balanced bipartite graph",
    )
    p.add_argument("graph")
    p.set_defaults(func=_cmd_minsbst_bipartite)

    reduce_p = sub.add_parser("reduce", help="hardness reductions")
    rsub = reduce_p.add_subparsers(dest="reduction", required=True)

    p = rsub.add_parser("hc-to-minpmst", help="cubic bipartite graph to two-valued host instance")
    p.add_argument("graph")
    p.add_argument("--rotation", help="rotation file (default: edges in index order)")
    p.add_argument("--complete", action="store_true", help="fill absent pairs at weight 2")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_reduce_hc)

    p = rsub.add_parser("sat-to-sbst", help="3-CNF layout to strong-balance instance")
    p.add_argument("cnf")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_reduce_sat)

    p = rsub.add_parser("replace-leaves", help="hang a 4-cycle off every leaf")
    p.add_argument("graph")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_replace_leaves)

    gen_p = sub.add_parser("gen", help="instance generators (seeded, deterministic)")
    gsub = gen_p.add_subparsers(dest="generator", required=True)

    p = gsub.add_parser("complete")
    p.add_argument("n", type=int)
    p.add_argument("--weight", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = gsub.add_parser("complete-bipartite")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--weight", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = gsub.add_parser("cube")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = gsub.add_parser("cycle")
    p.add_argument("n", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = gsub.add_parser("random")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("seed", type=int)
    p.add_argument("--wmin", type=int, default=1)
    p.add_argument("--wmax", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = gsub.add_parser("random-cnf")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    oracle_p = sub.add_parser("oracle", help="exhaustive brute-force reference answers")
    osub = oracle_p.add_subparsers(dest="which", required=True)

    for which, note in (
        ("minpmst", "; this bounds a count, not work: K10 needs --cap 30240000 "
         "and answers in under a second"),
        ("minsbst", "; this bounds a count, not work: K10 needs --cap 30240000 "
         "and answers in under a second; graphs of maximum degree at most three "
         "use the pruned search's node cap instead"),
    ):
        p = osub.add_parser(which)
        p.add_argument("graph")
        p.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_TREE_CAP,
            help="fail when more than CAP spanning trees contain a perfect matching"
            f"{note} (default {DEFAULT_TREE_CAP})",
        )
        p.set_defaults(func=_cmd_oracle)

    p = osub.add_parser("optaug")
    p.add_argument("graph")
    _add_host_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = osub.add_parser("sat")
    p.add_argument("cnf")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("export-dot", help="DOT drawing with optional overlay and tags")
    p.add_argument("graph")
    p.add_argument("--overlay", help="graph file whose edges are drawn bold")
    p.add_argument("--tags", help="metadata JSON with vertex tags")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_export_dot)

    return top


# Built once at import: building all 22 subparsers takes a few
# milliseconds, as long as many whole commands on small inputs.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (TreematchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
