"""Host-speed calibration: a fixed pure-Python reference kernel.

The benchmark host shares its cores with other tenants, and its speed
drifts by up to half over minutes: the same instance, repeated, takes
150 ms in one 15 s window and 220 ms in another, in CPU time as well as
in wall time.  No statistic taken inside one run removes that.  So a run
times this kernel every fraction of a second, next to the instances, and
scales each instance's time by ``NOMINAL_S / kernel time`` around it:
the reported times are those of a host on which the kernel takes
``NOMINAL_S``.

The kernel does what the package's inner loops do, in three parts:
adjacency lists, breadth-first search, union-find over sorted edges and
a greedy matching on dicts and sets, once on a graph of 8000 vertices
and 800 times on graphs of 10 vertices, the size of ``referee-small``'s
inputs; then a maximum bipartite matching by one
breadth-first augmenting-path search per vertex, each starting with an
O(n) reset of its parent array, as the package's blossom search does.
No single part tracks every workload best: over 29 windows of 15 s,
the large-graph part and the tiny part together cut the coefficient of
variation of the instance-to-kernel ratio to 0.06-0.11, from 0.09-0.18
for the raw instance times.  That beat either part alone for three of
the four instances timed; the fourth, a ``minpmst2`` and oracle pair,
did as well with the tiny part alone (0.077 against 0.079).  The kernel is
part of the benchmark, not of the package, so a change to the package
cannot change it.

It runs in a child process (``python3 calibrate.py``, one request per
stdin line, one ``wall cpu`` reply per stdout line), so that its memory
does not count in the program's ``peak_rss_mb``.  The child only runs
while the parent waits for its reply: the two never run at once.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from pathlib import Path

NOMINAL_S = 0.030  # kernel time on a nominal host; normalised times are on that host
N, M = 8000, 12000  # the large graph
TINY_N, TINY_M, TINY_GRAPHS, TINY_PASSES = 10, 15, 40, 20  # the tiny graphs, and passes over them
SIDE = 500  # vertices on each side of the bipartite graph
RESULT = (452, 7548, 5608, 1180, 6820, 5400, 460)  # what the kernel returns: a wrong result stops the run


def _edges(n: int, m: int, state: int) -> list[tuple[int, int, int]]:
    """m random weighted edges on n vertices from a fixed 64-bit LCG."""
    out = []
    while len(out) < m:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        u = (state >> 33) % n
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        v = (state >> 33) % n
        if u != v:
            out.append((u, v, (state >> 20) % 97))
    return out


EDGES = _edges(N, M, 12345)
TINY = [_edges(TINY_N, TINY_M, seed) for seed in range(TINY_GRAPHS)]
SIDE_ADJ: list[list[int]] = [[] for _ in range(SIDE)]
for _u, _v, _ in _edges(SIDE, 3 * SIDE, 54321):
    SIDE_ADJ[_u].append(_v)


def kernel() -> tuple[int, ...]:
    tiny = [0, 0, 0]
    for _ in range(TINY_PASSES):
        for edges in TINY:
            for i, x in enumerate(_forest(TINY_N, edges)):
                tiny[i] += x
    return _forest(N, EDGES) + tuple(tiny) + (_bipartite_matching(),)


def _bipartite_matching() -> int:
    """Size of a maximum matching between left 0..SIDE-1 and right
    0..SIDE-1 with left u adjacent to SIDE_ADJ[u]."""
    n = SIDE
    match_l, match_r, prev = [-1] * n, [-1] * n, [-1] * n
    size = 0
    for root in range(n):
        for i in range(n):
            prev[i] = -1
        queue, found = [root], -1
        for u in queue:
            for r in SIDE_ADJ[u]:
                if prev[r] == -1:
                    prev[r] = u
                    if match_r[r] == -1:
                        found = r
                        break
                    queue.append(match_r[r])
            if found != -1:
                break
        r = found
        while r != -1:
            u = prev[r]
            nxt = match_l[u]
            match_l[u], match_r[r] = r, u
            r = nxt
        size += found != -1
    return size


def _forest(n: int, edges: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Components, a minimum spanning forest and a greedy matching in it."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    count = 0
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = count
        queue = [s]
        for x in queue:
            for y in adj[x]:
                if comp[y] < 0:
                    comp[y] = count
                    queue.append(y)
        count += 1
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for u, v, _ in sorted(edges, key=lambda e: e[2]):
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            forest.append((u, v))
    matched: set[int] = set()
    mate: dict[int, int] = {}
    for u, v in forest:
        if u not in matched and v not in matched:
            matched.update((u, v))
            mate[u], mate[v] = v, u
    return count, len(forest), len(mate)


def serve() -> None:
    """Child side: time the kernel once per input line."""
    for _ in sys.stdin:
        gc.collect()
        t, c = time.perf_counter(), time.process_time()
        result = kernel()
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        if result != RESULT:
            print(f"error: kernel returned {result}, expected {RESULT}", file=sys.stderr)
            return
        print(f"{wall!r} {cpu!r}", flush=True)


class HostSpeed:
    """Kernel timings through a run, and the factor that scales a time
    taken between two of them to the nominal host."""

    WINDOW = 3  # kernel timings on each side of a time that its factor averages

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )

    def measure(self) -> int:
        """Time the kernel once; returns the number of timings so far,
        the mark of anything timed after this one."""
        assert self._child.stdin and self._child.stdout
        self._child.stdin.write("\n")
        reply = self._child.stdout.readline().split()
        if len(reply) != 2:
            raise RuntimeError("calibration kernel failed")
        self.walls.append(float(reply[0]))
        self.cpus.append(float(reply[1]))
        return len(self.walls)

    def factor(self, mark: int, cpu: bool = False) -> float:
        """NOMINAL_S over the mean kernel time of the WINDOW timings
        before and the WINDOW after a time taken at ``mark``."""
        times = self.cpus if cpu else self.walls
        near = times[max(0, mark - self.WINDOW): mark + self.WINDOW]
        return NOMINAL_S * len(near) / sum(near)

    def close(self) -> None:
        """Stop the child and wait for it to end."""
        if self._child.stdin:
            self._child.stdin.close()
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        if self._child.stdout:
            self._child.stdout.close()


if __name__ == "__main__":
    serve()
