"""Tests of the benchmark's report checker and its wiring.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import types
from pathlib import Path

import pytest

import calibrate
import check
import inputs
import run
import workloads

sys.path.insert(0, str(run.SRC))
from treematch import cli  # noqa: E402


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _graph(tmp_path: Path, n: int, edges, weights=None) -> str:
    p = tmp_path / "g.graph"
    p.write_text(inputs.format_graph(n, edges, weights))
    return str(p)


def _edit(out: str, change) -> str:
    doc = json.loads(out)
    change(doc)
    return json.dumps(doc)


def _expect_rejected(checker, *args) -> None:
    with pytest.raises(check.CheckError):
        checker(*args)


def test_aug_report(tmp_path):
    g = _graph(tmp_path, 8, [(0, 1), (2, 3), (4, 5)])
    rc, out = _cli("aug", g)
    assert check.check_aug(g, False, rc, out) == 4  # five components, two of them deficient
    _expect_rejected(check.check_aug, g, False, rc, _edit(out, lambda d: d["edges"].pop()))
    _expect_rejected(check.check_aug, g, False, rc, _edit(out, lambda d: d.update(value=2)))
    _expect_rejected(check.check_aug, g, False, rc, _edit(out, lambda d: d["edges"].__setitem__(0, [0, 1])))
    _expect_rejected(check.check_aug, g, False, rc, _edit(out, lambda d: d["certificate"]["matching"].pop()))
    _expect_rejected(check.check_aug, g, False, 2, out)


def test_aug_report_on_bipartite_host(tmp_path):
    g = _graph(tmp_path, 8, [(0, 4), (1, 5)])
    rc, out = _cli("aug", g, "--host", "bipartite")
    check.check_aug(g, True, rc, out)
    _expect_rejected(check.check_aug, g, True, rc, _edit(out, lambda d: d["edges"].__setitem__(0, [2, 3])))


def test_pmst_and_minpmst2_reports(tmp_path):
    edges = inputs.matchable_connected_graph(random.Random(1), 10, 16)
    g = _graph(tmp_path, 10, edges, list(range(1, 17)))
    rc, out = _cli("pmst-check", g)
    check.check_pmst(g, rc, out)
    _expect_rejected(check.check_pmst, g, rc, _edit(out, lambda d: d.update(value=d["value"] + 1)))
    _expect_rejected(check.check_pmst, g, rc, _edit(out, lambda d: d["edges"].pop()))
    _expect_rejected(check.check_pmst, g, rc, _edit(out, lambda d: d["certificate"]["matching"].pop()))

    g = _graph(tmp_path, 8, [(0, 1), (1, 2), (2, 3)])
    rc, out = _cli("minpmst2", g, "--light", "1", "--heavy", "2")
    assert check.check_minpmst2(g, 1, 2, rc, out) == 3 * 1 + 4 * 2
    _expect_rejected(check.check_minpmst2, g, 1, 2, rc, _edit(out, lambda d: d.update(value=10)))
    _expect_rejected(check.check_minpmst2, g, 1, 2, rc, _edit(out, lambda d: d["certificate"]["added_edges"].pop()))
    # A star spans all eight vertices but holds no perfect matching.
    _expect_rejected(check.check_minpmst2, g, 1, 2, rc, _edit(
        out, lambda d: d.update(edges=[[0, v] for v in range(1, 8)])))


def test_minsbst_and_sbst_check_reports(tmp_path):
    rng = random.Random(2)
    edges = inputs.planted_sb_bipartite(rng, 5, 15)
    g = _graph(tmp_path, 10, edges, [rng.randint(1, 9) for _ in edges])
    rc, out = _cli("minsbst-bipartite", g)
    value = check.check_minsbst(g, rc, out)
    check.check_oracle_value(value, *_cli("oracle", "minsbst", g))
    _expect_rejected(check.check_oracle_value, value + 1, *_cli("oracle", "minsbst", g))
    _expect_rejected(check.check_minsbst, g, rc, _edit(out, lambda d: d.update(value=value - 1)))
    _expect_rejected(check.check_minsbst, g, rc, _edit(
        out, lambda d: d["certificate"].update(unique_leaf=(d["certificate"]["unique_leaf"] + 1) % 10)))

    star = _graph(tmp_path, 4, [(0, 1), (0, 2), (0, 3)])
    rc, out = _cli("sbst-check", star)
    assert rc == 2
    check.check_sbst_check(star, rc, out)
    _expect_rejected(check.check_sbst_check, star, 0, out)
    path = _graph(tmp_path, 4, [(0, 1), (1, 2), (2, 3)])
    rc, out = _cli("sbst-check", path)
    check.check_sbst_check(path, rc, out)
    _expect_rejected(check.check_sbst_check, path, 2, out)


def test_reduction_outputs(tmp_path):
    src = _graph(tmp_path, 6, inputs.cubic_bipartite(random.Random(3), 3))
    dst = str(tmp_path / "hc.graph")
    check.check_hc(src, dst, _cli("reduce", "hc-to-minpmst", src, "--out", dst)[0])
    lines = Path(dst).read_text().splitlines()
    Path(dst).write_text("\n".join(lines[:-1]) + "\n")
    _expect_rejected(check.check_hc, src, dst, 0)

    leaves = str(tmp_path / "leaves.graph")
    check.check_replace_leaves(src, leaves, _cli("reduce", "replace-leaves", src, "--out", leaves)[0])
    tree = _graph(tmp_path, 5, inputs.prufer_tree(random.Random(4), 5))
    check.check_replace_leaves(tree, leaves, _cli("reduce", "replace-leaves", tree, "--out", leaves)[0])
    meta = Path(leaves + ".meta.json")
    meta.write_text(json.dumps(dict(json.loads(meta.read_text()), replaced_leaves=0)))
    _expect_rejected(check.check_replace_leaves, tree, leaves, 0)

    cnf = tmp_path / "f.cnf"
    cnf.write_text(inputs.format_cnf(3, [(1, -2, 3), (-1, 2, 2)]))
    out = str(tmp_path / "sat.graph")
    check.check_sat(3, 2, out, _cli("reduce", "sat-to-sbst", str(cnf), "--out", out)[0])
    _expect_rejected(check.check_sat, 3, 3, out, 0)


def test_corrupted_report_counts_as_failure(tmp_path):
    g = _graph(tmp_path, 8, [(0, 1), (2, 3), (4, 5)])
    inst = workloads.Instance("aug", (("aug", g),), lambda o: check.check_aug(g, False, *o[0]))

    def dropping_main(argv):
        rc = cli.main(argv)
        sys.stdout.seek(0)
        text = _edit(sys.stdout.getvalue(), lambda d: d["edges"].pop())
        sys.stdout.seek(0)
        sys.stdout.truncate()
        sys.stdout.write(text)
        return rc

    tally = run.Tally()
    tally.run(inst, cli)
    tally.run(inst, types.SimpleNamespace(main=dropping_main))
    tally.run(inst, types.SimpleNamespace(main=lambda argv: 1 / 0))
    assert (tally.attempted, tally.failed, len(tally.walls)) == (3, 2, 1)


def test_host_speed_scales_by_the_kernel_timings_around_a_mark():
    assert calibrate.kernel() == calibrate.RESULT
    speed = calibrate.HostSpeed()
    try:
        marks = [speed.measure() for _ in range(3)]
    finally:
        speed.close()
    assert marks == [1, 2, 3] and speed._child.returncode == 0
    assert speed.WINDOW == 3
    speed.walls = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08]
    assert speed.factor(4) == pytest.approx(calibrate.NOMINAL_S / 0.045)  # timings 2..7
    assert speed.factor(0) == pytest.approx(calibrate.NOMINAL_S / 0.02)  # timings 1..3
    assert speed.factor(8) == pytest.approx(calibrate.NOMINAL_S / 0.07)  # timings 6..8


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pools_are_seeded(tmp_path, name):
    w = workloads.WORKLOADS[name]
    pools = []
    for d in (tmp_path / "a", tmp_path / "b"):
        d.mkdir()
        pools.append(w.build(7, d))
    assert len(pools[0]) == w.pool_rounds * w.round_length
    assert [i.kind for i in pools[0]] == [i.kind for i in pools[1]]
    for f in (tmp_path / "a").iterdir():
        assert f.read_text() == (tmp_path / "b" / f.name).read_text()


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
