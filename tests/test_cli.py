"""Command-line behavior: reports, exit codes, and file plumbing."""

import ast
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import treematch
from treematch import WeightedGraph, format_graph, parse_graph
from treematch.cli import main
from treematch.generate import complete, cube, default_rotation, random_bipartite, random_graph
from treematch.reductions import format_rotation

from helpers import planted_sb_bipartite, reference_min_pmst

REPORT_KEYS = {"status", "value", "edges", "certificate"}


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def report(out):
    doc = json.loads(out)
    assert REPORT_KEYS <= set(doc)
    return doc


def write_graph(tmp_path, name, g, comment=None):
    path = tmp_path / name
    path.write_text(format_graph(g, comment=comment) if comment else format_graph(g))
    return str(path)


class TestPmstCheck:
    def test_feasible_complete_four(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k4.graph", complete(4))
        code, out, _ = run(capsys, ["pmst-check", path])
        assert code == 0
        doc = report(out)
        assert doc["status"] == "feasible"
        assert doc["value"] == 3
        assert len(doc["edges"]) == 3
        assert len(doc["certificate"]["matching"]) == 2

    def test_infeasible_triangle(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c3.graph", WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
        code, out, _ = run(capsys, ["pmst-check", path])
        assert code == 2
        doc = report(out)
        assert doc["status"] == "infeasible"
        assert doc["reason"] == "no perfect matching"

    def test_infeasible_disconnected(self, tmp_path, capsys):
        path = write_graph(tmp_path, "split.graph", WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))
        code, out, _ = run(capsys, ["pmst-check", path])
        assert code == 2
        assert report(out)["reason"] == "disconnected"

    def test_reads_stdin(self, capsys, monkeypatch):
        text = format_graph(complete(4))
        code, out, _ = run(capsys, ["pmst-check", "-"], stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert report(out)["status"] == "feasible"

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, ["pmst-check", "/nonexistent/x.graph"])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("p 4 1\ne 0 9\n")
        code, _, err = run(capsys, ["pmst-check", str(path)])
        assert code == 1
        assert "error:" in err


# `aug --host bipartite` on the graph of test_exact_bipartite_report,
# captured before the greedy stage loops were rewritten.
AUG_BIPARTITE_REPORT = """\
{
  "status": "feasible",
  "value": 5,
  "edges": [
    [
      2,
      7
    ],
    [
      3,
      8
    ],
    [
      4,
      10
    ],
    [
      5,
      11
    ],
    [
      0,
      11
    ]
  ],
  "certificate": {
    "matching": [
      [
        0,
        6
      ],
      [
        1,
        9
      ],
      [
        2,
        7
      ],
      [
        3,
        8
      ],
      [
        4,
        10
      ],
      [
        5,
        11
      ]
    ]
  }
}
"""


# Oracle reports on the graphs below, captured before the oracle's tree
# visitors were merged.
WHEEL_GRAPH = WeightedGraph(
    6,
    [(0, 1, 3), (0, 2, 1), (0, 3, 2), (0, 4, 1), (0, 5, 2),
     (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 1), (1, 5, 2)],
)
WHEEL_ORACLE_REPORT = """\
{
  "status": "feasible",
  "value": 6,
  "edges": [
    [
      0,
      2
    ],
    [
      0,
      3
    ],
    [
      0,
      4
    ],
    [
      1,
      2
    ],
    [
      4,
      5
    ]
  ],
  "certificate": null
}
"""
NO_SBST_REPORT = """\
{
  "status": "infeasible",
  "value": null,
  "edges": null,
  "certificate": null,
  "reason": "no strongly balanced spanning tree"
}
"""
OPTAUG_REPORT = """\
{
  "status": "feasible",
  "value": 3,
  "edges": null,
  "certificate": null
}
"""

# `gen random-cnf 3 4 1` and its `reduce sat-to-sbst` files, captured
# before the gadget layout was rewritten; clauses 1 and 3 sit on the
# "out" side, 2 and 4 on the "in" side.  The pmst_check_50 and
# minpmst2_*.json reports below were captured before edge checking moved
# out of parse_graph into WeightedGraph.  minsbst_bipartite_100.json was
# captured before full matroid-intersection rounds stopped queueing the
# elements outside the current set, and the aug_*_60.json reports before
# greedy_augment counted deficiencies instead of summing its exposed heaps.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, g, argv",
    [
        ("pmst_check_50.json", random_graph(50, 0.08, seed=5), ["pmst-check"]),
        ("minpmst2_complete_48.json", random_graph(48, 0.04, seed=3), ["minpmst2"]),
        (
            "minpmst2_bipartite_50.json",
            random_bipartite(25, 25, 0.05, seed=4),
            ["minpmst2", "--host", "bipartite"],
        ),
        (
            "minsbst_bipartite_100.json",
            planted_sb_bipartite(random.Random(100), 50, 600),
            ["minsbst-bipartite"],
        ),
        ("aug_complete_60.json", random_graph(60, 0.025, seed=6), ["aug"]),
        (
            "aug_bipartite_60.json",
            random_bipartite(30, 30, 0.05, seed=8),
            ["aug", "--host", "bipartite"],
        ),
    ],
)
def test_exact_reports_on_seeded_graphs(tmp_path, capsys, golden, g, argv):
    path = write_graph(tmp_path, "g.graph", g)
    code, out, _ = run(capsys, [argv[0], path, *argv[1:]])
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def scale_graph_text(seed, planted):
    """A 2000-vertex, 3000-edge graph file, edges in shuffled order.

    With ``planted``, a perfect matching over a shuffled vertex order is
    joined into one component by one edge from each matched pair to an
    earlier pair, the rest is random, and weights are 1-9; the graph is
    then connected and perfectly matchable.  Without it every edge is
    random with weight 1, which leaves about a hundred vertices isolated.
    """
    rng = random.Random(seed)
    n, m = 2000, 3000
    pairs = set()
    if planted:
        order = list(range(n))
        rng.shuffle(order)
        pairs.update((min(a, b), max(a, b)) for a, b in zip(order[0::2], order[1::2]))
        for i in range(2, n, 2):
            a, b = order[i + rng.randrange(2)], order[rng.randrange(i)]
            pairs.add((min(a, b), max(a, b)))
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = sorted(pairs)
    rng.shuffle(edges)
    lines = [f"p {n} {m}"]
    lines += [f"e {u} {v} {rng.randint(1, 9) if planted else 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


# (command, seed) -> sha256 of the stdout of ``treematch <command>`` on
# scale_graph_text(seed, planted=command == "pmst-check"), captured before
# pmst-check reported the matching that seeded its tree and before the
# matching search skipped vertices without neighbours.
PINNED_SCALE_REPORT_DIGESTS = {
    ("minpmst2", 1): "853c9d856dbdd4fbb9736c24f44296ae4d749b65e1e463b3944347ce1a1bd5a3",
    ("minpmst2", 2): "83210fb62e6831eb5e46f81611af624511b245cd9ce70d4ab6f56b065d52708f",
    ("pmst-check", 1): "c190f3066e9cdb1e06beafcd92fd957360341113c28689d5a45bf4210311e9f5",
    ("pmst-check", 2): "a7d797a9634f04e13ef01019797862dd48b58f98109f2dda2d4c5f9e23be11bd",
}


@pytest.mark.parametrize("command, seed", sorted(PINNED_SCALE_REPORT_DIGESTS))
def test_bench_scale_report_digests(tmp_path, capsys, command, seed):
    text = scale_graph_text(seed, planted=command == "pmst-check")
    if command == "minpmst2":
        ends = {x for line in text.splitlines()[1:] for x in line.split()[1:3]}
        assert len(ends) < 2000  # some vertex is isolated
    path = tmp_path / "g.graph"
    path.write_text(text)
    code, out, _ = run(capsys, [command, str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SCALE_REPORT_DIGESTS[(command, seed)]


class TestAug:
    def test_empty_complete_host(self, tmp_path, capsys):
        path = write_graph(tmp_path, "e6.graph", WeightedGraph(6, []))
        code, out, _ = run(capsys, ["aug", path])
        assert code == 0
        doc = report(out)
        assert doc["value"] == 5
        assert doc["edges"] == [[0, 1], [2, 3], [4, 5], [0, 2], [0, 4]]
        assert len(doc["certificate"]["matching"]) == 3

    def test_empty_bipartite_host(self, tmp_path, capsys):
        path = write_graph(tmp_path, "e4.graph", WeightedGraph(4, []))
        code, out, _ = run(capsys, ["aug", path, "--host", "bipartite"])
        assert code == 0
        doc = report(out)
        assert doc["value"] == 3
        assert doc["edges"] == [[0, 2], [1, 3], [0, 3]]

    def test_exact_bipartite_report(self, tmp_path, capsys):
        g = WeightedGraph(12, [(0, 6, 1), (0, 7, 1), (0, 8, 1), (1, 6, 1), (1, 9, 1), (1, 10, 1)])
        path = write_graph(tmp_path, "stars.graph", g)
        code, out, _ = run(capsys, ["aug", path, "--host", "bipartite"])
        assert code == 0
        assert out == AUG_BIPARTITE_REPORT

    @pytest.mark.parametrize("command", [["aug"], ["minpmst2"], ["oracle", "optaug"]])
    def test_odd_bipartite_host_is_an_input_error(self, tmp_path, capsys, command):
        path = write_graph(tmp_path, "p5.graph", WeightedGraph(5, [(0, 4, 1)]))
        code, out, err = run(capsys, [*command, path, "--host", "bipartite"])
        assert (code, out) == (1, "")
        assert err == "error: sides have sizes 2 and 3\n"

    @pytest.mark.parametrize("command", [["aug"], ["minpmst2"], ["oracle", "optaug"]])
    def test_plus_size_is_not_an_option(self, tmp_path, capsys, command):
        path = write_graph(tmp_path, "path.graph", WeightedGraph(6, [(0, 5, 1), (1, 3, 1)]))
        with pytest.raises(SystemExit) as ei:
            main([*command, path, "--host", "bipartite", "--plus-size", "3"])
        out, err = capsys.readouterr()
        assert (ei.value.code, out) == (2, "")
        assert "unrecognized arguments: --plus-size 3" in err

    @pytest.mark.parametrize("command", ["aug", "minpmst2"])
    def test_same_side_edge_is_an_input_error(self, tmp_path, capsys, command):
        path = write_graph(tmp_path, "same.graph", WeightedGraph(4, [(0, 2, 1), (0, 1, 1)]))
        code, out, err = run(capsys, [command, path, "--host", "bipartite"])
        assert (code, out) == (1, "")
        assert err == "error: edge {0, 1} does not cross the host sides\n"

    def test_odd_order_infeasible(self, tmp_path, capsys):
        path = write_graph(tmp_path, "e3.graph", WeightedGraph(3, []))
        code, out, _ = run(capsys, ["aug", path])
        assert code == 2
        assert report(out)["status"] == "infeasible"


class TestMinPmst2:
    def test_all_light(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k4.graph", complete(4))
        code, out, _ = run(capsys, ["minpmst2", path])
        assert code == 0
        doc = report(out)
        assert doc["value"] == 3
        assert doc["certificate"]["heavy_count"] == 0

    def test_single_light_edge(self, tmp_path, capsys):
        path = write_graph(tmp_path, "one.graph", WeightedGraph(4, [(0, 1, 1)]))
        code, out, _ = run(capsys, ["minpmst2", path])
        assert code == 0
        doc = report(out)
        assert doc["value"] == 5
        assert doc["certificate"]["heavy_count"] == 2
        assert len(doc["certificate"]["added_edges"]) == 2

    def test_custom_weights(self, tmp_path, capsys):
        path = write_graph(tmp_path, "one.graph", WeightedGraph(4, [(0, 1, 1)]))
        code, out, _ = run(capsys, ["minpmst2", path, "--light", "2", "--heavy", "7"])
        assert code == 0
        assert report(out)["value"] == 2 * 1 + 7 * 2

    def test_odd_order_infeasible(self, tmp_path, capsys):
        path = write_graph(tmp_path, "e3.graph", WeightedGraph(3, []))
        code, out, _ = run(capsys, ["minpmst2", path])
        assert code == 2

    def test_weight_order_violation(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k4.graph", complete(4))
        code, _, err = run(capsys, ["minpmst2", path, "--light", "3", "--heavy", "2"])
        assert code == 1
        assert "error:" in err


class TestSbstCheck:
    def test_balanced_path(self, tmp_path, capsys):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        path = write_graph(tmp_path, "p4.graph", g)
        code, out, _ = run(capsys, ["sbst-check", path])
        assert code == 0
        doc = report(out)
        assert doc["certificate"]["plus_side"] == [0, 2]
        assert doc["certificate"]["unique_leaf"] == 0

    def test_star_fails(self, tmp_path, capsys):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        path = write_graph(tmp_path, "star.graph", g)
        code, out, _ = run(capsys, ["sbst-check", path])
        assert code == 2
        assert report(out)["reason"] == "tree is not strongly balanced"

    def test_non_tree_is_an_input_error(self, tmp_path, capsys):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        path = write_graph(tmp_path, "c4.graph", g)
        code, _, err = run(capsys, ["sbst-check", path])
        assert code == 1
        assert "error:" in err


class TestMinSbstBipartite:
    def test_weighted_cycle(self, tmp_path, capsys):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)])
        path = write_graph(tmp_path, "c4w.graph", g)
        code, out, _ = run(capsys, ["minsbst-bipartite", path])
        assert code == 0
        doc = report(out)
        assert doc["value"] == 6
        assert doc["certificate"]["unique_leaf"] in range(4)

    def test_infeasible_tree(self, tmp_path, capsys):
        g = WeightedGraph(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 4, 1), (2, 5, 1)])
        path = write_graph(tmp_path, "tree.graph", g)
        code, out, _ = run(capsys, ["minsbst-bipartite", path])
        assert code == 2
        assert report(out)["reason"] == "no strongly balanced spanning tree"

    def test_unbalanced(self, tmp_path, capsys):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
        path = write_graph(tmp_path, "p3.graph", g)
        code, out, _ = run(capsys, ["minsbst-bipartite", path])
        assert code == 2
        assert report(out)["reason"] == "sides have sizes 2 and 1"

    def test_odd_cycle_is_an_input_error(self, tmp_path, capsys):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        path = write_graph(tmp_path, "c3.graph", g)
        code, _, err = run(capsys, ["minsbst-bipartite", path])
        assert code == 1
        assert "error:" in err


class TestReduceHc:
    def test_cube_reduction_files(self, tmp_path, capsys):
        src = write_graph(tmp_path, "cube.graph", cube())
        out_path = tmp_path / "red.graph"
        code, _, _ = run(capsys, ["reduce", "hc-to-minpmst", src, "--out", str(out_path)])
        assert code == 0
        g = parse_graph(out_path.read_text())
        assert g.vertex_count == 32
        assert g.edge_count == 48
        meta = json.loads((tmp_path / "red.graph.meta.json").read_text())
        assert meta["kind"] == "hc-to-minpmst"
        assert meta["threshold"] == 8
        assert meta["completed"] is False
        assert len(meta["tags"]) == 32
        assert len(meta["edge_origin"]) == 48

    def test_meta_aligns_with_written_file(self, tmp_path, capsys):
        # The graph writer sorts e lines, so edge_origin must follow the
        # file order, not the construction order.
        src_g = cube()
        src = write_graph(tmp_path, "cube.graph", src_g)
        out_path = tmp_path / "red.graph"
        run(capsys, ["reduce", "hc-to-minpmst", src, "--out", str(out_path)])
        g = parse_graph(out_path.read_text())
        meta = json.loads((tmp_path / "red.graph.meta.json").read_text())
        for e, origin in enumerate(meta["edge_origin"]):
            u, v, w = g.edges[e]
            if origin is None:
                assert w in (0, 2)
            else:
                assert w == 1
                su, sv = src_g.endpoints(origin)
                assert {u // 4, v // 4} == {su, sv}

    def test_completed_reduction(self, tmp_path, capsys):
        src = write_graph(tmp_path, "cube.graph", cube())
        out_path = tmp_path / "full.graph"
        code, _, _ = run(
            capsys, ["reduce", "hc-to-minpmst", src, "--complete", "--out", str(out_path)]
        )
        assert code == 0
        g = parse_graph(out_path.read_text())
        assert g.edge_count == 32 * 31 // 2
        meta = json.loads((tmp_path / "full.graph.meta.json").read_text())
        assert meta["completed"] is True
        assert len(meta["edge_origin"]) == g.edge_count

    def test_explicit_rotation_file(self, tmp_path, capsys):
        q = cube()
        src = write_graph(tmp_path, "cube.graph", q)
        rot_path = tmp_path / "cube.rot"
        rot_path.write_text(format_rotation(default_rotation(q)))
        a_path, b_path = tmp_path / "a.graph", tmp_path / "b.graph"
        run(capsys, ["reduce", "hc-to-minpmst", src, "--out", str(a_path)])
        run(
            capsys,
            ["reduce", "hc-to-minpmst", src, "--rotation", str(rot_path), "--out", str(b_path)],
        )
        assert a_path.read_text() == b_path.read_text()

    def test_custom_meta_path(self, tmp_path, capsys):
        src = write_graph(tmp_path, "cube.graph", cube())
        out_path, meta_path = tmp_path / "r.graph", tmp_path / "elsewhere.json"
        run(
            capsys,
            ["reduce", "hc-to-minpmst", src, "--out", str(out_path), "--meta", str(meta_path)],
        )
        assert meta_path.exists()
        assert not (tmp_path / "r.graph.meta.json").exists()

    def test_rejects_non_cubic_source(self, tmp_path, capsys):
        src = write_graph(tmp_path, "c4.graph", WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]))
        code, _, err = run(capsys, ["reduce", "hc-to-minpmst", src, "--out", "-"])
        assert code == 1
        assert "error:" in err


class TestReduceSat:
    def test_tiny_formula(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 1 1 0\n")
        out_path = tmp_path / "sat.graph"
        code, _, _ = run(capsys, ["reduce", "sat-to-sbst", str(cnf), "--out", str(out_path)])
        assert code == 0
        g = parse_graph(out_path.read_text())
        assert g.vertex_count == 10 + 14 + 8
        assert g.edge_count == 13 + 17 + 7
        meta = json.loads((tmp_path / "sat.graph.meta.json").read_text())
        assert meta["kind"] == "sat-to-sbst"
        assert meta["num_vars"] == 1
        assert len(meta["tags"]) == g.vertex_count

    def test_exact_files_with_both_sides(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text((GOLDEN / "random_cnf_3_4_1.cnf").read_text())
        out_path = tmp_path / "sat.graph"
        code, out, _ = run(capsys, ["reduce", "sat-to-sbst", str(cnf), "--out", str(out_path)])
        assert code == 0
        assert out == ""
        assert out_path.read_text() == (GOLDEN / "sat_3_4_1.graph").read_text()
        meta = (tmp_path / "sat.graph.meta.json").read_text()
        assert meta == (GOLDEN / "sat_3_4_1.graph.meta.json").read_text()

    def test_malformed_cnf(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 1 0\n")
        code, _, err = run(capsys, ["reduce", "sat-to-sbst", str(cnf), "--out", "-"])
        assert code == 1
        assert "error:" in err


class TestReplaceLeavesCommand:
    def test_star(self, tmp_path, capsys):
        src = write_graph(tmp_path, "star.graph", WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]))
        out_path = tmp_path / "grown.graph"
        code, _, _ = run(capsys, ["reduce", "replace-leaves", src, "--out", str(out_path)])
        assert code == 0
        g = parse_graph(out_path.read_text())
        assert g.vertex_count == 16
        assert g.edge_count == 18
        meta = json.loads((tmp_path / "grown.graph.meta.json").read_text())
        assert meta["replaced_leaves"] == 3


class TestGen:
    def test_complete_to_stdout(self, capsys):
        code, out, _ = run(capsys, ["gen", "complete", "4"])
        assert code == 0
        assert out.startswith("c gen complete 4\np 4 6\n")
        assert parse_graph(out).edge_count == 6

    def test_random_is_deterministic_per_seed(self, capsys):
        _, a, _ = run(capsys, ["gen", "random", "10", "0.5", "7"])
        _, b, _ = run(capsys, ["gen", "random", "10", "0.5", "7"])
        _, c, _ = run(capsys, ["gen", "random", "10", "0.5", "8"])
        assert a == b
        assert a != c

    def test_random_weight_flags(self, capsys):
        _, out, _ = run(capsys, ["gen", "random", "10", "0.9", "3", "--wmin", "5", "--wmax", "9"])
        g = parse_graph(out)
        assert g.edge_count > 0
        assert all(5 <= w <= 9 for _, _, w in g.edges)

    def test_random_cnf_round_trips(self, capsys):
        from treematch import parse_cnf_layout

        _, out, _ = run(capsys, ["gen", "random-cnf", "3", "4", "2"])
        lay = parse_cnf_layout(out)
        assert len(lay.formula.clauses) == 4

    def test_random_cnf_exact_text(self, capsys):
        code, out, _ = run(capsys, ["gen", "random-cnf", "3", "4", "1"])
        assert code == 0
        assert out == (GOLDEN / "random_cnf_3_4_1.cnf").read_text()

    def test_gen_into_file(self, tmp_path, capsys):
        path = tmp_path / "k.graph"
        code, out, _ = run(capsys, ["gen", "cube", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == format_graph(cube(), comment="gen cube")

    def test_gen_replaces_a_longer_file(self, tmp_path, capsys):
        path = tmp_path / "k.graph"
        path.write_text("c old\n" * 1000)
        code, _, _ = run(capsys, ["gen", "complete", "3", "--out", str(path)])
        assert code == 0
        assert path.read_text() == format_graph(complete(3), comment="gen complete 3")

    def test_gen_into_a_device(self, capsys):
        code, out, _ = run(capsys, ["gen", "complete", "3", "--out", os.devnull])
        assert code == 0
        assert out == ""


class TestOracleCommands:
    def test_minpmst(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k4.graph", complete(4))
        code, out, _ = run(capsys, ["oracle", "minpmst", path])
        assert code == 0
        assert report(out)["value"] == 3

    def test_minpmst_infeasible(self, tmp_path, capsys):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        path = write_graph(tmp_path, "star.graph", g)
        code, out, _ = run(capsys, ["oracle", "minpmst", path])
        assert code == 2

    def test_minpmst_disconnected(self, tmp_path, capsys):
        path = write_graph(tmp_path, "split.graph", WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))
        code, out, _ = run(capsys, ["oracle", "minpmst", path])
        assert code == 2
        doc = report(out)
        assert (doc["status"], doc["reason"]) == ("infeasible", "graph has no spanning tree")

    def test_minsbst_infeasible(self, tmp_path, capsys):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        path = write_graph(tmp_path, "star.graph", g)
        code, out, _ = run(capsys, ["oracle", "minsbst", path])
        assert code == 2
        assert report(out)["reason"] == "no strongly balanced spanning tree"

    def test_optaug_odd_order(self, tmp_path, capsys):
        path = write_graph(tmp_path, "e5.graph", WeightedGraph(5, []))
        code, out, _ = run(capsys, ["oracle", "optaug", path])
        assert code == 2
        assert report(out)["reason"] == "5 vertices cannot be perfectly matched"

    def test_minsbst(self, tmp_path, capsys):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)])
        path = write_graph(tmp_path, "c4w.graph", g)
        code, out, _ = run(capsys, ["oracle", "minsbst", path])
        assert code == 0
        assert report(out)["value"] == 6

    def test_minsbst_on_a_long_cycle_from_gen(self, capsys, monkeypatch):
        # The pruned search goes one level deeper per decided edge, so a
        # 1000-edge cycle is deeper than Python's default recursion limit.
        code, text, _ = run(capsys, ["gen", "cycle", "1000"])
        assert code == 0
        code, out, err = run(capsys, ["oracle", "minsbst", "-"], stdin=text, monkeypatch=monkeypatch)
        assert (code, err) == (0, "")
        assert '"value": 999' in out

    def test_minsbst_on_an_odd_cycle_from_gen(self, capsys, monkeypatch):
        # Odd order answers before the pruned search, with the report the
        # search printed when it ran.
        code, text, _ = run(capsys, ["gen", "cycle", "999"])
        assert code == 0
        code, out, err = run(capsys, ["oracle", "minsbst", "-"], stdin=text, monkeypatch=monkeypatch)
        assert (code, err) == (2, "")
        assert out == NO_SBST_REPORT

    def test_minpmst_exact_report(self, tmp_path, capsys):
        path = write_graph(tmp_path, "wheel.graph", WHEEL_GRAPH)
        code, out, _ = run(capsys, ["oracle", "minpmst", path])
        assert code == 0
        assert out == WHEEL_ORACLE_REPORT

    @pytest.mark.parametrize("which", ["minpmst", "minsbst"])
    def test_negative_cap_is_an_input_error(self, tmp_path, capsys, which):
        path = write_graph(tmp_path, "k4.graph", complete(4))
        code, out, err = run(capsys, ["oracle", which, path, "--cap", "-1"])
        assert code == 1
        assert out == ""
        assert err == "error: tree cap must be non-negative, got -1\n"

    def test_minsbst_cap_counts_trees_with_a_perfect_matching(self, tmp_path, capsys):
        # K6 is dense, so the cap counts the trees with a perfect matching
        # that the matching-first route builds, not all 1296 trees.
        path = write_graph(tmp_path, "k6.graph", complete(6))
        _, n_trees = reference_min_pmst(complete(6))
        code, out, err = run(capsys, ["oracle", "minsbst", path, "--cap", str(n_trees - 1)])
        assert code == 1
        assert out == ""
        assert err == f"error: more than {n_trees - 1} spanning trees contain a perfect matching\n"
        code, out, _ = run(capsys, ["oracle", "minsbst", path, "--cap", str(n_trees)])
        assert code == 0
        assert report(out)["value"] == 5

    def test_minsbst_exact_report(self, tmp_path, capsys):
        # The hub has degree five, so this goes through the matching-first
        # route.
        path = write_graph(tmp_path, "wheel.graph", WHEEL_GRAPH)
        code, out, _ = run(capsys, ["oracle", "minsbst", path])
        assert code == 0
        assert out == WHEEL_ORACLE_REPORT

    def test_optaug_exact_report(self, tmp_path, capsys):
        path = write_graph(tmp_path, "two.graph", WeightedGraph(6, [(0, 3, 1), (1, 4, 1)]))
        code, out, _ = run(capsys, ["oracle", "optaug", path, "--host", "bipartite"])
        assert code == 0
        assert out == OPTAUG_REPORT

    def test_optaug(self, tmp_path, capsys):
        path = write_graph(tmp_path, "e6.graph", WeightedGraph(6, []))
        code, out, _ = run(capsys, ["oracle", "optaug", path])
        assert code == 0
        assert report(out)["value"] == 5

    def test_sat(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 1 1 0\n")
        code, out, _ = run(capsys, ["oracle", "sat", str(cnf)])
        assert code == 0
        assert report(out)["certificate"] == {"assignment": [1]}

    def test_sat_unsat(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
        code, out, _ = run(capsys, ["oracle", "sat", str(cnf)])
        assert code == 2
        assert report(out)["reason"] == "unsatisfiable"


class TestExportDot:
    def test_basic(self, tmp_path, capsys):
        path = write_graph(tmp_path, "p2.graph", WeightedGraph(2, [(0, 1, 5)]))
        code, out, _ = run(capsys, ["export-dot", path])
        assert code == 0
        assert out.startswith("graph treematch {")
        assert '0 -- 1 [label="5"]' in out

    def test_overlay_bold(self, tmp_path, capsys):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
        path = write_graph(tmp_path, "p3.graph", g)
        over = write_graph(tmp_path, "over.graph", WeightedGraph(3, [(0, 1, 1)]))
        _, out, _ = run(capsys, ["export-dot", path, "--overlay", over])
        assert out.count("style=bold") == 1

    def test_overlay_size_mismatch(self, tmp_path, capsys):
        path = write_graph(tmp_path, "p2.graph", WeightedGraph(2, [(0, 1, 1)]))
        over = write_graph(tmp_path, "p4.graph", WeightedGraph(4, [(0, 1, 1)]))
        code, _, err = run(capsys, ["export-dot", path, "--overlay", over])
        assert code == 1
        assert "error:" in err

    def test_tag_labels_from_meta(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 1 1 0\n")
        out_path = tmp_path / "sat.graph"
        run(capsys, ["reduce", "sat-to-sbst", str(cnf), "--out", str(out_path)])
        code, out, _ = run(
            capsys,
            ["export-dot", str(out_path), "--tags", str(tmp_path / "sat.graph.meta.json")],
        )
        assert code == 0
        assert 'label="8: x1"' in out

    def test_tag_quotes_and_backslashes_are_escaped(self, tmp_path, capsys):
        path = write_graph(tmp_path, "p2.graph", WeightedGraph(2, [(0, 1, 5)]))
        tags = tmp_path / "tags.json"
        tags.write_text(json.dumps({"tags": ['a"b', "c\\"]}))
        code, out, _ = run(capsys, ["export-dot", path, "--tags", str(tags)])
        assert code == 0
        assert out == (
            "graph treematch {\n"
            "  node [shape=circle];\n"
            '  0 [label="0: a\\"b"];\n'
            '  1 [label="1: c\\\\"];\n'
            '  0 -- 1 [label="5"];\n'
            "}\n"
        )

    def test_tag_count_mismatch(self, tmp_path, capsys):
        path = write_graph(tmp_path, "p2.graph", WeightedGraph(2, [(0, 1, 1)]))
        tags = tmp_path / "tags.json"
        tags.write_text('{"tags": ["a", "b", "c"]}')
        code, _, err = run(capsys, ["export-dot", path, "--tags", str(tags)])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("doc", ["{}", "5", '{"tags": 5}', '"ab"'])
    def test_tags_document_of_the_wrong_shape(self, tmp_path, capsys, doc):
        path = write_graph(tmp_path, "p2.graph", WeightedGraph(2, [(0, 1, 1)]))
        tags = tmp_path / "tags.json"
        tags.write_text(doc)
        code, out, err = run(capsys, ["export-dot", path, "--tags", str(tags)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: tags must be a list")


class TestPareser:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_help_mentions_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out, _ = capsys.readouterr()
        assert "minsbst-bipartite" in out


def test_import_loads_only_the_standard_library():
    # A fresh interpreter, pointed at the package under test, lists the
    # top-level packages outside the standard library that importing
    # treematch and its CLI pulls in.
    env = {**os.environ, "PYTHONPATH": str(Path(treematch.__file__).resolve().parents[1])}
    code = (
        "import sys; before = set(sys.modules); import treematch, treematch.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "['treematch']"


def test_no_bare_asserts_in_the_package():
    # `python -O` strips assert statements, so invariant checks must raise.
    package = Path(treematch.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_self_checks_raise_internal_error():
    # Every failed self-check raises InternalError, an AssertionError
    # subclass, so one exception type names a bug in the package.
    package = Path(treematch.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_all_lists_the_public_names_the_package_binds():
    init = Path(treematch.__file__).resolve()
    bound = set()
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert [name for name in treematch.__all__ if not hasattr(treematch, name)] == []
    assert len(treematch.__all__) == len(set(treematch.__all__))
    assert set(treematch.__all__) == public


def test_no_process_global_state_in_the_package():
    # Module-level containers, `global` rebinding and recursion-limit
    # changes all outlive a call; the package keeps no state between calls.
    package = Path(treematch.__file__).resolve().parent
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global) or (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                == "setrecursionlimit"
            ):
                found.append(f"{path.name}:{node.lineno}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, mutable) and not any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_recursion_in_the_package():
    # A function that calls itself, by bare name or as `self.<name>`, has
    # its depth bounded by Python's recursion limit; searches use loops.
    package = Path(treematch.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "self"
                ):
                    found.append(f"{path.name}:{fn.name}:{node.lineno}")
    assert found == []
