"""Independent checker for the CLI reports the benchmark collects.

Nothing here imports ``treematch``: every claim in a report is checked
against the input file with this module's own O(n + m) code, so a wrong
solver cannot vouch for itself.  A check raises ``CheckError`` on the
first defect it finds.
"""

from __future__ import annotations

import json
from collections import Counter

Pair = tuple[int, int]


class CheckError(Exception):
    """A report that does not prove the answer it claims."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def read_graph(path: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Vertex count and ``(u, v, w)`` edges (u < v) of a graph file."""
    n, edges = -1, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                n = int(parts[1])
            else:
                _expect(parts[0] == "e", f"{path}: unexpected line {line.strip()!r}")
                u, v = int(parts[1]), int(parts[2])
                w = int(parts[3]) if len(parts) > 3 else 0
                edges.append((min(u, v), max(u, v), w))
    _expect(n >= 1, f"{path}: no p line")
    return n, edges


def read_report(rc: int, out: str, want_rc: int = 0) -> dict:
    _expect(rc == want_rc, f"exit code {rc}, want {want_rc}")
    doc = json.loads(out)
    _expect(isinstance(doc, dict), "report is not a JSON object")
    status = "feasible" if want_rc == 0 else "infeasible"
    _expect(doc.get("status") == status, f"status {doc.get('status')!r}, want {status!r}")
    return doc


def _pairs(n: int, items: object) -> list[Pair]:
    _expect(isinstance(items, list), "edge list is not a list")
    out = []
    for item in items:
        _expect(
            isinstance(item, list) and len(item) == 2 and all(isinstance(x, int) for x in item),
            f"bad vertex pair {item!r}",
        )
        u, v = item
        _expect(0 <= u < n and 0 <= v < n and u != v, f"bad vertex pair {item!r}")
        out.append((min(u, v), max(u, v)))
    _expect(len(set(out)) == len(out), "a pair is listed twice")
    return out


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _component_count(n: int, pairs: list[Pair]) -> int:
    parent = list(range(n))
    count = n
    for u, v in pairs:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def _expect_spanning_tree(n: int, pairs: list[Pair]) -> None:
    _expect(len(pairs) == n - 1, f"{len(pairs)} tree edges for {n} vertices")
    _expect(_component_count(n, pairs) == 1, "tree edges do not connect the graph")


def _expect_perfect_matching(n: int, pairs: list[Pair], allowed: set[Pair]) -> None:
    _expect(all(p in allowed for p in pairs), "matching uses an edge it may not use")
    covered = [x for p in pairs for x in p]
    _expect(len(covered) == n and len(set(covered)) == n, "matching is not perfect")


def _degrees(n: int, pairs: list[Pair]) -> list[int]:
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    return deg


def _tree_sides(n: int, pairs: list[Pair]) -> list[int]:
    """2-colouring of a spanning tree, vertex 0 on side 0."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    side[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if side[y] == -1:
                side[y] = side[x] ^ 1
                stack.append(y)
    return side


def tree_has_perfect_matching(n: int, pairs: list[Pair]) -> bool:
    """Greedy from the leaves of a spanning tree: a vertex its children
    left unmatched must be matched to its parent."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                order.append(y)
    matched = [False] * n
    for v in reversed(order[1:]):
        if not matched[v]:
            if matched[parent[v]]:
                return False
            matched[v] = matched[parent[v]] = True
    return all(matched)


def strongly_balanced_side(n: int, pairs: list[Pair]) -> int | None:
    """The side of a spanning tree with exactly one leaf and every other
    vertex of degree two, or None."""
    side, deg = _tree_sides(n, pairs), _degrees(n, pairs)
    for s in (0, 1):
        members = [v for v in range(n) if side[v] == s]
        if sum(deg[v] == 1 for v in members) == 1 and all(deg[v] in (1, 2) for v in members):
            return s
    return None


# ---------------------------------------------------------------------------
# One check per CLI command


def check_aug(path: str, bipartite: bool, rc: int, out: str) -> int:
    """Added host edges repair the graph: value, host, matching, connectivity."""
    n, edges = read_graph(path)
    doc = read_report(rc, out)
    added = _pairs(n, doc["edges"])
    _expect(doc["value"] == len(added), f"value {doc['value']} but {len(added)} added edges")
    existing = {(u, v) for u, v, _ in edges}
    _expect(not existing & set(added), "an added edge is already in the graph")
    if bipartite:
        k = n // 2
        _expect(all(u < k <= v for u, v in added), "an added edge does not cross the host sides")
    matching = _pairs(n, doc["certificate"]["matching"])
    _expect_perfect_matching(n, matching, existing | set(added))
    _expect(_component_count(n, list(existing) + added) == 1, "augmented graph is disconnected")
    return doc["value"]


def check_pmst(path: str, rc: int, out: str) -> int:
    """A spanning tree of the input holding the certified perfect matching."""
    n, edges = read_graph(path)
    doc = read_report(rc, out)
    weight = {(u, v): w for u, v, w in edges}
    tree = _pairs(n, doc["edges"])
    _expect(all(p in weight for p in tree), "a tree edge is not in the graph")
    _expect_spanning_tree(n, tree)
    _expect_perfect_matching(n, _pairs(n, doc["certificate"]["matching"]), set(tree))
    _expect(doc["value"] == sum(weight[p] for p in tree), "value is not the tree weight")
    return doc["value"]


def check_minpmst2(path: str, light: int, heavy: int, rc: int, out: str) -> int:
    """Spanning tree of the complete host with a perfect matching, priced
    at ``light`` on file edges and ``heavy`` elsewhere."""
    n, edges = read_graph(path)
    doc = read_report(rc, out)
    existing = {(u, v) for u, v, _ in edges}
    tree = _pairs(n, doc["edges"])
    _expect_spanning_tree(n, tree)
    _expect(tree_has_perfect_matching(n, tree), "tree has no perfect matching")
    heavy_count = sum(p not in existing for p in tree)
    _expect(doc["certificate"]["heavy_count"] == heavy_count, "heavy_count disagrees with the tree")
    added = set(_pairs(n, doc["certificate"]["added_edges"]))
    _expect(all(p in existing or p in added for p in tree), "a heavy tree edge was never added")
    value = light * (n - 1 - heavy_count) + heavy * heavy_count
    _expect(doc["value"] == value, f"value {doc['value']}, tree weighs {value}")
    return value


def _check_sb_certificate(n: int, tree: list[Pair], cert: dict) -> None:
    side, deg = _tree_sides(n, tree), _degrees(n, tree)
    plus = cert["plus_side"]
    _expect(isinstance(plus, list) and plus and all(isinstance(v, int) and 0 <= v < n for v in plus),
            "bad plus side")
    s = side[plus[0]]
    _expect(sorted(plus) == [v for v in range(n) if side[v] == s], "plus side is not a tree side")
    leaf = cert["unique_leaf"]
    _expect(leaf in plus and deg[leaf] == 1, "unique leaf is not a plus-side leaf")
    _expect(all(deg[v] == 2 for v in plus if v != leaf), "a plus vertex other than the leaf has degree != 2")
    _expect_perfect_matching(n, _pairs(n, cert["matching"]), set(tree))


def check_minsbst(path: str, rc: int, out: str) -> int:
    """A strongly balanced spanning tree of the input, with its weight."""
    n, edges = read_graph(path)
    doc = read_report(rc, out)
    weight = {(u, v): w for u, v, w in edges}
    tree = _pairs(n, doc["edges"])
    _expect(all(p in weight for p in tree), "a tree edge is not in the graph")
    _expect_spanning_tree(n, tree)
    _check_sb_certificate(n, tree, doc["certificate"])
    _expect(doc["value"] == sum(weight[p] for p in tree), "value is not the tree weight")
    return doc["value"]


def check_sbst_check(path: str, rc: int, out: str) -> None:
    """The verdict on a tree file matches this module's own recognizer."""
    n, edges = read_graph(path)
    tree = [(u, v) for u, v, _ in edges]
    if strongly_balanced_side(n, tree) is None:
        read_report(rc, out, want_rc=2)
        return
    doc = read_report(rc, out)
    _expect(sorted(_pairs(n, doc["edges"])) == sorted(tree), "reported edges are not the tree")
    _check_sb_certificate(n, tree, doc["certificate"])
    _expect(doc["value"] == sum(w for _, _, w in edges), "value is not the tree weight")


def check_oracle_value(value: int, rc: int, out: str) -> None:
    doc = read_report(rc, out)
    _expect(doc["value"] == value, f"solver value {value}, oracle value {doc['value']}")


# ---------------------------------------------------------------------------
# Reductions: sizes and metadata follow from the input alone


def _read_meta(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_replace_leaves(src: str, dst: str, rc: int) -> None:
    _expect(rc == 0, f"exit code {rc}")
    n, edges = read_graph(src)
    leaves = _degrees(n, [(u, v) for u, v, _ in edges]).count(1)
    n2, edges2 = read_graph(dst)
    _expect(n2 == n + 4 * leaves, f"{n2} vertices, want {n + 4 * leaves}")
    _expect(len(edges2) == len(edges) + 5 * leaves, "wrong edge count")
    pairs2 = [(u, v) for u, v, _ in edges2]
    _expect({(u, v) for u, v, _ in edges} <= set(pairs2), "an input edge was dropped")
    _expect(1 not in _degrees(n2, pairs2), "output still has a leaf")
    meta = _read_meta(dst + ".meta.json")
    _expect(meta["source_vertices"] == n and meta["replaced_leaves"] == leaves, "metadata disagrees")


def check_hc(src: str, dst: str, rc: int) -> None:
    _expect(rc == 0, f"exit code {rc}")
    n, edges = read_graph(src)
    n2, edges2 = read_graph(dst)
    _expect(n2 == 4 * n and len(edges2) == 3 * n + 2 * len(edges), "wrong output size")
    _expect(set(_degrees(n2, [(u, v) for u, v, _ in edges2])) == {3}, "output is not cubic")
    meta = _read_meta(dst + ".meta.json")
    origin = meta["edge_origin"]
    _expect(meta["source_vertices"] == n and len(meta["tags"]) == n2, "metadata disagrees")
    _expect(len(origin) == len(edges2), "one origin per output edge")
    _expect(all((o is None) == (w == 0) for o, (_, _, w) in zip(origin, edges2)),
            "gadget edges must weigh 0 and derived edges 1")
    counts = Counter(o for o in origin if o is not None)
    _expect(counts == Counter({e: 2 for e in range(len(edges))}), "each source edge derives two edges")


def check_sat(num_vars: int, num_clauses: int, dst: str, rc: int) -> None:
    _expect(rc == 0, f"exit code {rc}")
    n2, edges2 = read_graph(dst)
    pairs2 = [(u, v) for u, v, _ in edges2]
    _expect(n2 == 10 * num_vars + 14 * num_clauses + 8, "wrong vertex count")
    _expect(len(edges2) == 13 * num_vars + 17 * num_clauses + 7, "wrong edge count")
    _expect(_component_count(n2, pairs2) == 1 and max(_degrees(n2, pairs2)) <= 3,
            "output is not connected and subcubic")
    meta = _read_meta(dst + ".meta.json")
    _expect(meta["num_vars"] == num_vars and meta["num_clauses"] == num_clauses
            and len(meta["tags"]) == n2, "metadata disagrees")
