"""Hardness reductions and their certificate maps.

Two constructions, each with a forward map (build the gadget graph) and a
certificate map in both directions where meaningful:

* Hamiltonian cycle on a cubic bipartite graph, to minimum tree-with-
  matching over a two-valued host.  Every source vertex becomes a hub
  with three ports; each source edge becomes two weight-1 "derived" edges
  wired by the rotation system so that consecutive cycle edges admit
  vertex-disjoint derived picks.  A Hamiltonian cycle then maps to a
  spanning tree of weight exactly |V(source)|, and no tree-with-matching
  can be lighter.

* 3-SAT to strongly balanced spanning tree existence on a subcubic
  graph.  Each variable becomes a cycle threaded on a spine, each clause
  a hexagon hooked onto the literal occurrences it mentions, and a start
  gadget pins down which side of any spanning tree's 2-coloring must
  carry the single leaf.  Satisfying assignments correspond to strongly
  balanced spanning trees.  (Strong balance constrains the tree's own
  bipartition; the host graph here is not bipartite.)

Vertices of the produced graphs carry string tags (``tags[v]``) so tests,
DOT export, and the certificate maps can name them; tag grammar is
documented on each reduction class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BadLayoutError,
    BadRotationError,
    DisconnectedError,
    GraphFormatError,
    InternalError,
    MalformedTreeError,
    NotATreeError,
    NotCubicError,
    NotHamiltonianError,
    NotSatisfyingError,
    NotStronglyBalancedError,
)
from .graph import (
    EdgeSet,
    VertexCycle,
    WeightedGraph,
    _tokenized_lines,
    as_bipartitioned_tree,
    bipartition_of,
    is_connected,
    is_hamiltonian_cycle,
)
from .matching import Matching
from .pmst import build_tree_containing_matching
from .sbst import is_strongly_balanced

# ---------------------------------------------------------------------------
# Rotation systems


@dataclass(frozen=True)
class RotationSystem:
    """A cyclic order of the incident edges around every vertex.

    ``order[v]`` lists edge indices; the cycle wraps.  Slots are 1-based
    in the API to match the file format.
    """

    graph: WeightedGraph
    order: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.order) != self.graph.vertex_count:
            raise BadRotationError(
                f"{len(self.order)} rotation lines for {self.graph.vertex_count} vertices"
            )
        for v, around in enumerate(self.order):
            incident = sorted(e for e, _ in self.graph.adjacency[v])
            if sorted(around) != incident:
                raise BadRotationError(
                    f"rotation at vertex {v} is not a permutation of its incident edges"
                )

    def slot(self, v: int, edge: int) -> int:
        """1-based position of an edge in v's rotation."""
        try:
            return self.order[v].index(edge) + 1
        except ValueError:
            raise BadRotationError(f"edge {edge} is not incident to vertex {v}") from None


def parse_rotation(text: str, graph: WeightedGraph) -> RotationSystem:
    """Rotation file: one ``r <vertex> <edge>...`` line per vertex, with
    ``c`` comment lines; edge numbers refer to the graph file's e-line
    order (0-based)."""
    rows: dict[int, tuple[int, ...]] = {}
    for lineno, parts in _tokenized_lines(text):
        if parts[0] != "r":
            raise GraphFormatError(f"expected an r line, got {parts[0]!r}", lineno)
        try:
            v = int(parts[1])
            edges = tuple(int(p) for p in parts[2:])
        except (ValueError, IndexError):
            raise GraphFormatError("malformed r line", lineno) from None
        if v in rows:
            raise BadRotationError(f"line {lineno}: duplicate rotation for vertex {v}")
        rows[v] = edges
    missing = [v for v in range(graph.vertex_count) if v not in rows]
    if missing:
        raise BadRotationError(f"no rotation for vertices {missing}")
    extra = [v for v in rows if not 0 <= v < graph.vertex_count]
    if extra:
        raise BadRotationError(f"rotation for unknown vertices {sorted(extra)}")
    return RotationSystem(graph, tuple(rows[v] for v in range(graph.vertex_count)))


def format_rotation(rot: RotationSystem) -> str:
    lines = [
        "r {} {}".format(v, " ".join(str(e) for e in around))
        for v, around in enumerate(rot.order)
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Hamiltonian cycle -> minimum tree-with-matching


def _nxt(i: int) -> int:
    return i % 3 + 1


def _prv(i: int) -> int:
    return (i + 1) % 3 + 1


@dataclass(frozen=True)
class HcReduction:
    """Output of ``reduce_hc_to_minpmst``.

    Vertex ids: hub of source vertex u is 4u, its ports are 4u+1..4u+3
    (port i pairs with rotation slot i).  Tags: ``hub{u}``, ``port{u}.{i}``.
    Edge layout: 3n weight-0 hub-port edges first (vertex order, then port
    order), then two weight-1 derived edges per source edge in source
    edge order; ``edge_origin[e]`` names the source edge of a derived
    edge, None elsewhere.  ``complete_with_weight_two`` appends weight-2
    filler edges after everything else.

    A tree containing a perfect matching of weight exactly ``threshold``
    (= source vertex count) exists iff the source has a Hamiltonian
    cycle; anything heavier certifies nothing.
    """

    source: WeightedGraph
    rotation: RotationSystem
    graph: WeightedGraph
    tags: tuple[str, ...]
    edge_origin: tuple[int | None, ...]
    completed: bool = False

    @property
    def threshold(self) -> int:
        return self.source.vertex_count

    def hub(self, u: int) -> int:
        return 4 * u

    def port(self, u: int, i: int) -> int:
        if not 1 <= i <= 3:
            raise ValueError(f"port slot {i} is not 1, 2 or 3")
        return 4 * u + i

    def derived_pair(self, source_edge: int) -> tuple[int, int]:
        """The two derived edge indices of a source edge."""
        base = 3 * self.source.vertex_count + 2 * source_edge
        return base, base + 1


def reduce_hc_to_minpmst(g: WeightedGraph, rot: RotationSystem) -> HcReduction:
    """Build the hub-and-ports graph for a cubic bipartite connected
    source with the given rotation system.

    For a source edge in rotation slot i at u and slot j at v (u < v) the
    derived edges are {port(u, nxt i), port(v, prv j)} and
    {port(u, prv i), port(v, nxt j)}, where nxt/prv step the slot cycle.
    Each port therefore sees exactly one derived edge per slot it serves,
    which keeps the output cubic.
    """
    if rot.graph is not g:
        raise BadRotationError("rotation system belongs to a different graph")
    n = g.vertex_count
    if any(g.degree(v) != 3 for v in range(n)):
        bad = next(v for v in range(n) if g.degree(v) != 3)
        raise NotCubicError(f"vertex {bad} has degree {g.degree(bad)}")
    bipartition_of(g)
    if not is_connected(g):
        raise DisconnectedError("source graph is not connected")

    tags: list[str] = []
    for u in range(n):
        tags.append(f"hub{u}")
        tags.extend(f"port{u}.{i}" for i in (1, 2, 3))
    edges: list[tuple[int, int, int]] = []
    origin: list[int | None] = []
    for u in range(n):
        for i in (1, 2, 3):
            edges.append((4 * u, 4 * u + i, 0))
            origin.append(None)
    for e in range(g.edge_count):
        u, v = g.endpoints(e)
        i, j = rot.slot(u, e), rot.slot(v, e)
        edges.append((4 * u + _nxt(i), 4 * v + _prv(j), 1))
        edges.append((4 * u + _prv(i), 4 * v + _nxt(j), 1))
        origin.extend((e, e))
    out = WeightedGraph(4 * n, edges)
    return HcReduction(g, rot, out, tuple(tags), tuple(origin))


def complete_with_weight_two(red: HcReduction) -> HcReduction:
    """Fill in every absent vertex pair at weight 2 (turning the host
    complete); idempotent."""
    g = red.graph
    filler = [
        (u, v, 2)
        for u in range(g.vertex_count)
        for v in range(u + 1, g.vertex_count)
        if not g.has_edge(u, v)
    ]
    if not filler:
        return red if red.completed else replace(red, completed=True)
    out = g.with_added_edges(filler)
    origin = red.edge_origin + (None,) * len(filler)
    return replace(red, graph=out, edge_origin=origin, completed=True)


def map_hc_to_tree(red: HcReduction, cycle: VertexCycle) -> EdgeSet:
    """Turn a Hamiltonian cycle of the source into a spanning tree of the
    reduced graph of weight exactly ``red.threshold``.

    One derived edge is chosen per cycle edge, consecutive choices vertex
    disjoint.  The first choice is forced: at the anchor (cycle[0],
    oriented so its two cycle edges sit in consecutive rotation slots) we
    take the derived edge through the port numbered like the incoming
    edge's slot, which no derived edge of the incoming edge can touch.
    Later choices prefer the lower edge index.  The chosen edges plus one
    hub-port edge per hub form a perfect matching; completing it greedily
    with weight-0 edges yields the tree.
    """
    src = red.source
    if not is_hamiltonian_cycle(src, cycle):
        raise NotHamiltonianError("not a Hamiltonian cycle of the source graph")
    n = src.vertex_count
    seq = list(cycle)
    s0 = seq[0]
    a = red.rotation.slot(s0, src.edge_index(seq[-1], s0))
    b = red.rotation.slot(s0, src.edge_index(s0, seq[1]))
    if b != _nxt(a):
        # Reversing the cycle swaps the incoming and the outgoing edge.
        seq = [s0] + seq[1:][::-1]
        a, b = b, a
        if b != _nxt(a):
            raise InternalError("two distinct slots must be consecutive one way around")

    edges_along = [src.edge_index(seq[k], seq[(k + 1) % n]) for k in range(n)]
    anchor_port = red.port(s0, a)
    first_pair = red.derived_pair(edges_along[0])
    chosen = [
        next(
            e
            for e in first_pair
            if anchor_port in red.graph.endpoints(e)
        )
    ]
    for k in range(1, n):
        prev_ends = set(red.graph.endpoints(chosen[-1]))
        options = [
            e
            for e in red.derived_pair(edges_along[k])
            if not prev_ends & set(red.graph.endpoints(e))
        ]
        if not options:
            raise InternalError("no derived edge disjoint from the previous choice")
        chosen.append(options[0])
    if set(red.graph.endpoints(chosen[0])) & set(red.graph.endpoints(chosen[-1])):
        raise InternalError("cycle closure reuses a port")

    covered = set()
    for e in chosen:
        covered.update(red.graph.endpoints(e))
    matching_edges = set(chosen)
    for u in range(n):
        free = [i for i in (1, 2, 3) if red.port(u, i) not in covered]
        if len(free) != 1:
            raise InternalError("each hub must have exactly one exposed port")
        matching_edges.add(red.graph.edge_index(red.hub(u), red.port(u, free[0])))
    matching = Matching.from_edges(red.graph, matching_edges)
    if not matching.is_perfect:
        raise InternalError("chosen edges do not form a perfect matching")
    tree = build_tree_containing_matching(red.graph, matching)
    if red.graph.total_weight(tree) != red.threshold:
        raise InternalError("tree weight differs from the threshold")
    return tree


# ---------------------------------------------------------------------------
# 3-SAT formulas with layouts


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF: clauses are triples of DIMACS literals (positive or negative
    1-based variable numbers; repeats within a clause are allowed)."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise BadLayoutError("formula needs at least one variable")
        for j, cl in enumerate(self.clauses):
            if len(cl) != 3:
                raise BadLayoutError(f"clause {j + 1} has {len(cl)} literals, want 3")
            for lit in cl:
                if lit == 0 or not 1 <= abs(lit) <= self.num_vars:
                    raise BadLayoutError(f"clause {j + 1} has bad literal {lit}")

    def satisfied_by(self, assignment: Sequence[int]) -> bool:
        return all(
            any((lit > 0) == bool(assignment[abs(lit) - 1]) for lit in cl)
            for cl in self.clauses
        )


Occurrence = tuple[int, int]  # (clause index, slot index), 0-based


@dataclass(frozen=True)
class CnfLayout:
    """A formula plus the bookkeeping the reduction needs: which side
    ("in" or "out") of its variables' cycles each clause hooks onto, and
    the ordered occurrence list of every variable on each side.

    The position of an occurrence in its list (1-based) decides which
    cycle vertex pair hosts it.
    """

    formula: CnfFormula
    clause_side: tuple[str, ...]
    in_occurrences: tuple[tuple[Occurrence, ...], ...]
    out_occurrences: tuple[tuple[Occurrence, ...], ...]

    def __post_init__(self) -> None:
        f = self.formula
        m = len(f.clauses)
        if len(self.clause_side) != m:
            raise BadLayoutError(f"{len(self.clause_side)} side entries for {m} clauses")
        if any(s not in ("in", "out") for s in self.clause_side):
            raise BadLayoutError("clause sides must be 'in' or 'out'")
        if len(self.in_occurrences) != f.num_vars or len(self.out_occurrences) != f.num_vars:
            raise BadLayoutError("need one occurrence list per variable and side")
        seen: set[Occurrence] = set()
        for var0 in range(f.num_vars):
            for side, lists in (("in", self.in_occurrences), ("out", self.out_occurrences)):
                for (j, l) in lists[var0]:
                    if not (0 <= j < m and 0 <= l < 3):
                        raise BadLayoutError(f"occurrence ({j}, {l}) is out of range")
                    if (j, l) in seen:
                        raise BadLayoutError(f"occurrence ({j}, {l}) listed twice")
                    seen.add((j, l))
                    if abs(f.clauses[j][l]) != var0 + 1:
                        raise BadLayoutError(
                            f"occurrence ({j}, {l}) is not about variable {var0 + 1}"
                        )
                    if self.clause_side[j] != side:
                        raise BadLayoutError(
                            f"occurrence ({j}, {l}) is on the wrong side for clause {j + 1}"
                        )
        expected = {(j, l) for j in range(m) for l in range(3)}
        if seen != expected:
            raise BadLayoutError(f"{len(expected - seen)} occurrences are unplaced")

    def occurrence_position(self, j: int, l: int) -> int:
        """1-based position of clause j's slot l in its variable's list."""
        var0 = abs(self.formula.clauses[j][l]) - 1
        lists = self.in_occurrences if self.clause_side[j] == "in" else self.out_occurrences
        return lists[var0].index((j, l)) + 1


def _clause_order_layout(
    formula: CnfFormula,
    sides: tuple[str, ...],
    explicit: dict[tuple[int, str], list[Occurrence]],
) -> CnfLayout:
    """The layout with the given clause sides.  A variable's occurrence
    list on a side is ``explicit[(var0, side)]`` where that is given, and
    its occurrences there in clause-then-slot order otherwise."""
    occ: dict[tuple[int, str], list[Occurrence]] = {}
    for j, cl in enumerate(formula.clauses):
        for l, lit in enumerate(cl):
            occ.setdefault((abs(lit) - 1, sides[j]), []).append((j, l))
    occ.update(explicit)
    in_occ, out_occ = (
        tuple(tuple(occ.get((var0, side), ())) for var0 in range(formula.num_vars))
        for side in ("in", "out")
    )
    return CnfLayout(formula, sides, in_occ, out_occ)


def default_layout(formula: CnfFormula) -> CnfLayout:
    """Every clause on the "in" side, occurrences in clause-then-slot
    order."""
    return _clause_order_layout(formula, ("in",) * len(formula.clauses), {})


def parse_cnf_layout(text: str) -> CnfLayout:
    """DIMACS cnf with two extra line kinds: ``l <clause> <in|out>`` picks
    a clause's side and ``o <var> <in|out> <clause>:<slot>...`` orders a
    variable's occurrences (clause and slot 1-based in the file).  Absent
    l lines default to "in"; absent o lines default to clause-then-slot
    order among that variable's occurrences on that side."""
    num_vars = None
    num_clauses = None
    clauses: list[tuple[int, int, int]] = []
    sides: dict[int, str] = {}
    explicit_occ: dict[tuple[int, str], list[Occurrence]] = {}
    for lineno, parts in _tokenized_lines(text):
        kind = parts[0] if parts[0] in ("p", "l", "o") else "clause"
        # int() and the <clause>:<slot> split are the only ValueErrors here.
        try:
            if kind == "p":
                if num_vars is not None:
                    raise GraphFormatError("second p line", lineno)
                if len(parts) != 4 or parts[1] != "cnf":
                    raise GraphFormatError("want: p cnf <vars> <clauses>", lineno)
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            elif kind == "l":
                if len(parts) != 3 or parts[2] not in ("in", "out"):
                    raise GraphFormatError("want: l <clause> <in|out>", lineno)
                sides[int(parts[1]) - 1] = parts[2]
            elif kind == "o":
                if len(parts) < 3 or parts[2] not in ("in", "out"):
                    raise GraphFormatError("want: o <var> <in|out> <clause>:<slot>...", lineno)
                occ: list[Occurrence] = []
                for item in parts[3:]:
                    cs, ss = item.split(":")
                    occ.append((int(cs) - 1, int(ss) - 1))
                explicit_occ[(int(parts[1]) - 1, parts[2])] = occ
            else:
                if num_vars is None:
                    raise GraphFormatError("clause before the p line", lineno)
                lits = [int(p) for p in parts]
                if lits[-1] != 0:
                    raise GraphFormatError("clause line must end with 0", lineno)
                body = lits[:-1]
                if len(body) != 3:
                    raise GraphFormatError(f"{len(body)} literals in a clause, want 3", lineno)
                clauses.append((body[0], body[1], body[2]))
        except ValueError as exc:
            raise GraphFormatError(f"malformed {kind} line ({exc})", lineno) from None
    if num_vars is None:
        raise GraphFormatError("missing p line", 1)
    if num_clauses != len(clauses):
        raise GraphFormatError(
            f"p line promised {num_clauses} clauses, found {len(clauses)}", 1
        )
    formula = CnfFormula(num_vars, tuple(clauses))
    if any(j not in range(len(clauses)) for j in sides):
        raise BadLayoutError(f"side line for unknown clause {max(sides) + 1}")
    for var0, _ in explicit_occ:
        if not 0 <= var0 < num_vars:
            raise BadLayoutError(f"occurrence line for unknown variable {var0 + 1}")
    return _clause_order_layout(
        formula, tuple(sides.get(j, "in") for j in range(len(clauses))), explicit_occ
    )


def format_cnf_layout(layout: CnfLayout) -> str:
    f = layout.formula
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for cl in f.clauses:
        lines.append("{} {} {} 0".format(*cl))
    for j, side in enumerate(layout.clause_side):
        lines.append(f"l {j + 1} {side}")
    for var0 in range(f.num_vars):
        for side, lists in (("in", layout.in_occurrences), ("out", layout.out_occurrences)):
            occ = lists[var0]
            if occ:
                body = " ".join(f"{j + 1}:{l + 1}" for j, l in occ)
                lines.append(f"o {var0 + 1} {side} {body}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# 3-SAT -> strongly balanced spanning tree


_START_TAGS = ("start.s1", "start.p0", "start.p1", "start.p2",
               "start.q1", "start.s2", "start.q2", "start.s3")
_MID_NAMES = ("mid12", "mid23", "mid31")


@dataclass(frozen=True)
class SatReduction:
    """Output of ``reduce_sat_to_sbst``.

    Tag grammar (variables and clauses 1-based):
      start.s1 .. start.s3                  start gadget
      x{i}                                  variable cycle anchor
      x{i}.in0, x{i}.out0                   cycle ends next to the anchor
      x{i}.in{k}.pos / x{i}.in{k}.neg       k-th "in"-side occurrence pair
      x{i}.out{k}.pos / x{i}.out{k}.neg     same for the "out" side
      x{i}.true, x{i}.false                 polarity pair across the cycle
      x{i}.hub, x{i}.stem, x{i}.tip         pendant chain off the cycle
      x{i}.end                              spine vertex after the cycle
      joint{i}                              spine joint (last one pendant)
      c{j}.lit{1..3}, c{j}.mid12|mid23|mid31  clause hexagon
      c{j}.stem, c{j}.tip                   clause pendant chain

    The graph is connected, subcubic, of even order, with 10n + 14m + 8
    vertices and 13n + 17m + 7 edges; it has a strongly balanced spanning
    tree iff the formula is satisfiable.
    """

    layout: CnfLayout
    graph: WeightedGraph
    tags: tuple[str, ...]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {t: v for v, t in enumerate(self.tags)}

    def vertex(self, tag: str) -> int:
        try:
            return self._index[tag]
        except KeyError:
            raise KeyError(f"no vertex tagged {tag!r}") from None

    def edge_between(self, tag1: str, tag2: str) -> int:
        return self.graph.edge_index(self.vertex(tag1), self.vertex(tag2))


def _attachment(layout: CnfLayout, j: int, l: int) -> str:
    """Tag of the cycle vertex that clause j's slot l hooks onto (both
    0-based)."""
    lit = layout.formula.clauses[j][l]
    polarity = "pos" if lit > 0 else "neg"
    return f"x{abs(lit)}.{layout.clause_side[j]}{layout.occurrence_position(j, l)}.{polarity}"


def reduce_sat_to_sbst(layout: CnfLayout) -> SatReduction:
    f = layout.formula
    n = f.num_vars
    tags = list(_START_TAGS)
    # Start gadget; the external edge pins variable 1's cycle to it.
    pairs = [
        ("start.s1", "start.p0"),
        ("start.p0", "start.p1"),
        ("start.p1", "start.p2"),
        ("start.p2", "start.q1"),
        ("start.q1", "start.s2"),
        ("start.p2", "start.q2"),
        ("start.q2", "start.s3"),
        ("start.p0", "x1"),
    ]

    for i in range(1, n + 1):
        x = f"x{i}"
        ring = [x, f"{x}.in0"]
        for k in range(1, len(layout.in_occurrences[i - 1]) + 1):
            ring += [f"{x}.in{k}.pos", f"{x}.in{k}.neg"]
        ring += [f"{x}.true", f"{x}.false"]
        for k in range(len(layout.out_occurrences[i - 1]), 0, -1):
            ring += [f"{x}.out{k}.pos", f"{x}.out{k}.neg"]
        ring.append(f"{x}.out0")
        tags += ring
        tags += [f"{x}.hub", f"{x}.stem", f"{x}.tip", f"{x}.end", f"joint{i}"]
        pairs += zip(ring, ring[1:] + ring[:1])
        pairs += [
            (f"{x}.hub", f"{x}.in0"),
            (f"{x}.hub", f"{x}.out0"),
            (f"{x}.hub", f"{x}.stem"),
            (f"{x}.stem", f"{x}.tip"),
            (f"{x}.end", f"{x}.true"),
            (f"{x}.end", f"{x}.false"),
            (f"{x}.end", f"joint{i}"),
        ]
        if i < n:
            pairs.append((f"joint{i}", f"x{i + 1}"))

    for j in range(len(f.clauses)):
        c = f"c{j + 1}"
        hexagon = [f"{c}.{name}" for l in range(3) for name in (f"lit{l + 1}", _MID_NAMES[l])]
        tags += hexagon + [f"{c}.stem", f"{c}.tip"]
        pairs += zip(hexagon, hexagon[1:] + hexagon[:1])
        pairs += [(f"{c}.stem", f"{c}.mid31"), (f"{c}.stem", f"{c}.tip")]
        pairs += [(f"{c}.lit{l + 1}", _attachment(layout, j, l)) for l in range(3)]

    index = {t: v for v, t in enumerate(tags)}
    graph = WeightedGraph(len(tags), [(index[t1], index[t2], 0) for t1, t2 in pairs])
    return SatReduction(layout, graph, tuple(tags))


def map_assignment_to_sb_tree(red: SatReduction, assignment: Sequence[int]) -> EdgeSet:
    """Spanning tree for a satisfying assignment.

    Exactly one independent cycle is broken per drop: the variable cycle
    at the anchor, the hub detour, and the polarity triangle (three drops
    per variable, steered by its value), then per clause the hexagon edge
    after its first satisfied slot plus the two unused attachments.
    """
    f = red.layout.formula
    if len(assignment) != f.num_vars or any(a not in (0, 1) for a in assignment):
        raise ValueError("assignment must be one 0/1 value per variable")
    if not f.satisfied_by(assignment):
        raise NotSatisfyingError("assignment does not satisfy the formula")

    drops: set[int] = set()
    for i in range(1, f.num_vars + 1):
        if assignment[i - 1]:
            drops.add(red.edge_between(f"x{i}", f"x{i}.in0"))
            drops.add(red.edge_between(f"x{i}.hub", f"x{i}.out0"))
            drops.add(red.edge_between(f"x{i}.false", f"x{i}.end"))
        else:
            drops.add(red.edge_between(f"x{i}", f"x{i}.out0"))
            drops.add(red.edge_between(f"x{i}.hub", f"x{i}.in0"))
            drops.add(red.edge_between(f"x{i}.true", f"x{i}.end"))
    for j, cl in enumerate(f.clauses):
        c = f"c{j + 1}"
        sat_slot = next(
            l for l in range(3) if (cl[l] > 0) == bool(assignment[abs(cl[l]) - 1])
        )
        for l in range(3):
            if l != sat_slot:
                drops.add(red.edge_between(f"{c}.lit{l + 1}", _attachment(red.layout, j, l)))
        drops.add(red.edge_between(f"{c}.lit{sat_slot + 1}", f"{c}.{_MID_NAMES[sat_slot]}"))

    tree = frozenset(e for e in range(red.graph.edge_count) if e not in drops)
    if len(tree) != red.graph.vertex_count - 1:
        raise InternalError("the dropped edges do not leave a spanning tree")
    return tree


def extract_assignment_from_tree(red: SatReduction, tree: Iterable[int]) -> tuple[int, ...]:
    """Read the assignment off a strongly balanced spanning tree: variable
    i is true iff the tree keeps the anchor's edge toward out0."""
    try:
        t = as_bipartitioned_tree(red.graph, tree)
    except NotATreeError as exc:
        raise MalformedTreeError(str(exc)) from None
    if is_strongly_balanced(t) is None:
        raise NotStronglyBalancedError("tree is not strongly balanced")
    edge_set = t.edges
    f = red.layout.formula
    out: list[int] = []
    for i in range(1, f.num_vars + 1):
        has_in = red.edge_between(f"x{i}", f"x{i}.in0") in edge_set
        has_out = red.edge_between(f"x{i}", f"x{i}.out0") in edge_set
        if has_in == has_out:
            raise MalformedTreeError(
                f"anchor of variable {i} keeps {'both' if has_in else 'neither'} cycle edges"
            )
        out.append(1 if has_out else 0)
    assignment = tuple(out)
    if not f.satisfied_by(assignment):
        raise MalformedTreeError("decoded assignment does not satisfy the formula")
    return assignment


# ---------------------------------------------------------------------------
# Leaf replacement


def replace_leaves(g: WeightedGraph) -> WeightedGraph:
    """Hang a 4-cycle off every degree-1 vertex (via a fresh pendant
    edge), eliminating leaves while preserving bipartiteness, parity of
    the order, and maximum degree 3 or more.

    A graph without leaves comes back unchanged in value.
    """
    leaves = [v for v in range(g.vertex_count) if g.degree(v) == 1]
    if not leaves:
        return g
    edges = list(g.edges)
    base = g.vertex_count
    for t, leaf in enumerate(leaves):
        a, b, c, d = (base + 4 * t + o for o in range(4))
        edges.extend([(leaf, a, 0), (a, b, 0), (b, c, 0), (c, d, 0), (a, d, 0)])
    return WeightedGraph(base + 4 * len(leaves), edges)
