"""The speed reference that scales the benchmark's times to a fixed host speed.

The host this benchmark was written on runs the same pure-Python code up to
1.7x faster for stretches of a tenth of a second to minutes, depending on its
other load, which moves raw times between runs by more than any bound worth
fixing.  So, while a Reference is open, an interval timer interrupts the main
thread every EVERY_S and the signal handler times a fixed reference
computation there, in CPU time; the time the handler takes is counted in
`paused` and `paused_cpu`, which the runner takes out of the interval it fell
into.  Each measured interval (a query, a set-up, a probe) is then multiplied
by the mean speed of the reference timings taken from WINDOW_S before it to
WINDOW_S after it, relative to NOMINAL_S.  A change to twomilton moves the
scaled times as it moves the raw ones; a change in host speed moves the
reference timings with them and cancels out.

The reference runs on the thread that runs the queries, inside a long query
too: timed on a thread of its own it could run on the other processor, whose
speed need not follow this one's, and timed only between queries it would miss
the host's changes during a query of many seconds.  Interval timers are not
inherited by forked children, so the library's worker processes never see the
signal.

The reference computation is the benchmark's own and never imports
twomilton: a memoised bitset branch and bound for a maximum independent set
(peel vertices of degree <= 1, split into components, branch on a vertex of
largest degree) on a fixed union of two Hamiltonian cycles, and a list-based
maximum clique search over fixed disjointness masks.  These are the kinds of
code the library spends its time in, so a host that speeds up or slows down
that kind of code moves the reference by about as much.  A reference of
unrelated work (sorting, dict counting over megabytes of strings) followed the
library only half as well: it added as much noise in steady stretches as it
removed in unsteady ones.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

GRAPH_N = 32
CLIQUE_MASKS, MASK_BITS = 36, 40
# about one computation's CPU time on the 2-vCPU host (Python 3.11) the
# pinned figures come from, so scaled times read as that host's times
NOMINAL_S = 0.0034
EVERY_S = 0.05
WINDOW_S = 0.5


class Reference:
    """Reference timings, taken every EVERY_S while the context is open."""

    def __init__(self):
        rng = random.Random("reference")
        adj = [0] * GRAPH_N
        for _ in range(2):
            order = list(range(GRAPH_N))
            rng.shuffle(order)
            for a, b in zip(order, order[1:] + order[:1]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        self._adj = adj
        self._closed = [adj[v] | (1 << v) for v in range(GRAPH_N)]
        self._masks = [rng.getrandbits(MASK_BITS) & rng.getrandbits(MASK_BITS)
                       & rng.getrandbits(MASK_BITS) for _ in range(CLIQUE_MASKS)]
        self.samples: list[tuple[float, float]] = []  # (time taken, seconds)
        self.paused = 0.0  # wall seconds spent in the signal handler
        self.paused_cpu = 0.0  # CPU seconds spent in the signal handler
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def work(self) -> int:
        memo: dict[int, int] = {}
        return self._alpha((1 << GRAPH_N) - 1, memo) + len(self._clique())

    def _alpha(self, P: int, memo: dict) -> int:
        if P == 0:
            return 0
        hit = memo.get(P)
        if hit is not None:
            return hit
        size, Q = self._peel(P)
        if Q:
            comps = self._components(Q)
            if len(comps) > 1:
                size += sum(self._alpha(c, memo) for c in comps)
            else:
                v = max(_bits(Q), key=lambda u: (self._adj[u] & Q).bit_count())
                size += max(1 + self._alpha(Q & ~self._closed[v], memo),
                            self._alpha(Q & ~(1 << v), memo))
        memo[P] = size
        return size

    def _peel(self, P: int) -> tuple[int, int]:
        size, changed = 0, True
        while changed and P:
            changed = False
            for v in _bits(P):
                low = 1 << v
                if not P & low:
                    continue
                d = self._adj[v] & P
                c = d.bit_count()
                if c == 0:
                    size += 1
                    P ^= low
                    changed = True
                elif c == 1:
                    size += 1
                    P &= ~(d | low)
                    changed = True
        return size, P

    def _components(self, pool: int) -> list[int]:
        comps = []
        while pool:
            comp = frontier = pool & -pool
            while frontier:
                grow = 0
                for v in _bits(frontier):
                    grow |= self._adj[v]
                grow &= pool & ~comp
                comp |= grow
                frontier = grow
            comps.append(comp)
            pool &= ~comp
        return comps

    def _clique(self) -> list[int]:
        masks = self._masks
        best: list[int] = []

        def extend(current, cands):
            nonlocal best
            if len(current) > len(best):
                best = current[:]
            for i, c in enumerate(cands):
                if len(current) + len(cands) - i <= len(best):
                    break
                mc = masks[c]
                current.append(c)
                extend(current, [d for d in cands[i + 1:] if mc & masks[d] == 0])
                current.pop()

        extend([], list(range(len(masks))))
        return best

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late alarm must not nest a second timing
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def _sample(self) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        self.work()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.samples.append((t1, c1 - c0))
        self.paused += t1 - t0
        self.paused_cpu += c1 - c0

    def speed(self, start: float, end: float) -> float:
        """The factor that scales a time measured over [start, end] to the
        reference speed: NOMINAL_S times the mean speed (1 / seconds) of the
        reference timings near it.  The host switches between a fast and a
        slow state many times a second, so the timings are bimodal; a median
        would jump from one mode to the other, the mean speed follows the
        share of time spent in each."""
        at = [t for t, _ in self.samples]
        lo = bisect_left(at, start - WINDOW_S)
        hi = bisect_right(at, end + WINDOW_S)
        near = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]
        return NOMINAL_S * statistics.fmean(1 / s for _, s in near)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
