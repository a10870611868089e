"""The four benchmark workloads.

A workload turns a seed into a pool of instances.  An instance is one
``treematch.cli.main`` call, or a solver call followed by the oracle call
that referees it, plus the check its reports must pass.  The pool is built
in rounds of a fixed mix of instance kinds; runs stop only at round
boundaries, so every run measures the same mix.

Sizes are set so that a 20 s run completes several dozen instances on a
2-vCPU Xeon VM: the tail latency needs ten samples beyond it, and larger
instances would not fit the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import inputs

Outputs = list[tuple[int, str]]  # (exit code, stdout) per CLI call


@dataclass(frozen=True)
class Instance:
    kind: str
    steps: tuple[tuple[str, ...], ...]
    check: Callable[[Outputs], None]


class _Files:
    """Writes numbered input files into the run's work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def path(self, suffix: str) -> str:
        self.count += 1
        return str(self.workdir / f"{self.count:05d}{suffix}")

    def write(self, text: str, suffix: str = ".graph") -> str:
        p = self.path(suffix)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p


# ---------------------------------------------------------------------------
# aug-sparse: greedy_augment's stage scans over ~n/2 components


AUG_N = 1000


def _aug_round(rng: random.Random, files: _Files) -> list[Instance]:
    n = AUG_N
    out = []
    for bipartite in (False, True):
        edges = inputs.sparse_graph(rng, n, n // 2, n // 2 if bipartite else None)
        path = files.write(inputs.format_graph(n, edges))
        argv = ("aug", path) + (("--host", "bipartite") if bipartite else ())

        def verify(o: Outputs, path: str = path, bipartite: bool = bipartite) -> None:
            check.check_aug(path, bipartite, *o[0])

        out.append(Instance("aug-bipartite" if bipartite else "aug", (argv,), verify))
    return out


# ---------------------------------------------------------------------------
# match-dense: one large blossom search per call


DENSE_N = 2000


def _dense_round(rng: random.Random, files: _Files) -> list[Instance]:
    n, m = DENSE_N, 3 * DENSE_N // 2
    light = files.write(inputs.format_graph(n, inputs.sparse_graph(rng, n, m)))
    edges = inputs.matchable_connected_graph(rng, n, m)
    weighted = files.write(inputs.format_graph(n, edges, [rng.randint(1, 9) for _ in edges]))
    return [
        Instance(
            "minpmst2",
            (("minpmst2", light, "--light", "1", "--heavy", "2"),),
            lambda o: check.check_minpmst2(light, 1, 2, *o[0]),
        ),
        Instance("pmst-check", (("pmst-check", weighted),), lambda o: check.check_pmst(weighted, *o[0])),
    ]


# ---------------------------------------------------------------------------
# sbst-bipartite: exchange-graph building in min_weight_common_base


SBST_K = 50
SBST_M = (500, 600, 700, 800)


def _sbst_round(rng: random.Random, files: _Files) -> list[Instance]:
    out = []
    for m in SBST_M:
        edges = inputs.planted_sb_bipartite(rng, SBST_K, m)
        path = files.write(inputs.format_graph(2 * SBST_K, edges, [rng.randint(1, 20) for _ in edges]))

        def verify(o: Outputs, path: str = path) -> None:
            check.check_minsbst(path, *o[0])

        out.append(Instance(f"minsbst-bipartite-m{m}", (("minsbst-bipartite", path),), verify))
    return out


# ---------------------------------------------------------------------------
# referee-small: the README's cross-check session on tiny inputs


def _referee_round(rng: random.Random, files: _Files) -> list[Instance]:
    out = []

    g = files.write(inputs.format_graph(8, inputs.matchable_connected_graph(rng, 8, 17)))

    def pmst_pair(o: Outputs, g: str = g) -> None:
        check.check_oracle_value(check.check_minpmst2(g, 1, 2, *o[0]), *o[1])

    out.append(Instance(
        "minpmst2+oracle",
        (("minpmst2", g, "--light", "1", "--heavy", "2"), ("oracle", "minpmst", g)),
        pmst_pair,
    ))

    edges = inputs.planted_sb_bipartite(rng, 5, 15)
    g = files.write(inputs.format_graph(10, edges, [rng.randint(1, 9) for _ in edges]))

    def sbst_pair(o: Outputs, g: str = g) -> None:
        check.check_oracle_value(check.check_minsbst(g, *o[0]), *o[1])

    out.append(Instance("minsbst+oracle", (("minsbst-bipartite", g), ("oracle", "minsbst", g)), sbst_pair))

    g = files.write(inputs.format_graph(8, inputs.sparse_graph(rng, 8, rng.randint(2, 6))))

    def aug_pair(o: Outputs, g: str = g) -> None:
        check.check_oracle_value(check.check_aug(g, False, *o[0]), *o[1])

    out.append(Instance("aug+oracle", (("aug", g), ("oracle", "optaug", g)), aug_pair))

    if rng.random() < 0.5:
        k = rng.randint(1, 5)
        labels = list(range(2 * k))
        rng.shuffle(labels)
        tree = sorted(inputs.strongly_balanced_tree(rng, k, labels[:k], labels[k:]))
        n = 2 * k
    else:
        n = rng.randint(2, 10)
        tree = inputs.prufer_tree(rng, n)
    g = files.write(inputs.format_graph(n, tree, [rng.randint(1, 5) for _ in tree]))
    out.append(Instance("sbst-check", (("sbst-check", g),), lambda o, g=g: check.check_sbst_check(g, *o[0])))

    num_vars, num_clauses = rng.randint(3, 5), rng.randint(2, 5)
    f = files.write(inputs.format_cnf(num_vars, inputs.cnf(rng, num_vars, num_clauses)), ".cnf")
    dst = files.path(".graph")
    out.append(Instance(
        "reduce-sat",
        (("reduce", "sat-to-sbst", f, "--out", dst),),
        lambda o, v=num_vars, c=num_clauses, dst=dst: check.check_sat(v, c, dst, o[0][0]),
    ))

    k = rng.randint(3, 5)
    g = files.write(inputs.format_graph(2 * k, inputs.cubic_bipartite(rng, k)))
    dst = files.path(".graph")
    out.append(Instance(
        "reduce-hc",
        (("reduce", "hc-to-minpmst", g, "--out", dst),),
        lambda o, g=g, dst=dst: check.check_hc(g, dst, o[0][0]),
    ))

    n = rng.randint(4, 10)
    edges = sorted(set(inputs.prufer_tree(rng, n)) | set(inputs.sparse_graph(rng, n, 2)))
    g = files.write(inputs.format_graph(n, edges))
    dst = files.path(".graph")
    out.append(Instance(
        "reduce-leaves",
        (("reduce", "replace-leaves", g, "--out", dst),),
        lambda o, g=g, dst=dst: check.check_replace_leaves(g, dst, o[0][0]),
    ))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, _Files], list[Instance]]
    round_length: int  # instances per round
    pool_rounds: int  # rounds generated; a run cycles through them
    trace_rounds: int  # leading rounds that the traced run replays

    def build(self, seed: int, workdir: Path) -> list[Instance]:
        rng = random.Random(f"{self.name}:{seed}")
        files = _Files(workdir)
        return [inst for _ in range(self.pool_rounds) for inst in self.make_round(rng, files)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("aug-sparse", _aug_round, 2, 48, 4),
        Workload("match-dense", _dense_round, 2, 48, 4),
        Workload("sbst-bipartite", _sbst_round, len(SBST_M), 16, 2),
        Workload("referee-small", _referee_round, 7, 100, 3),
    )
}
