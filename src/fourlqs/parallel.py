"""Worker-parallel saturation.

A run starts with a short serial probe.  A tree that finishes, or trips
a limit, inside it is returned as that serial result, so small KBs never
start a process and their limits mean exactly what they mean serially.

Past the probe the tree is partitioned by split-decision prefixes
("scripts"): a script of length L routes the first L splits, and the
process running it owns exactly the nodes whose remaining script is all
zeros, so counters and leaves are attributed once.  The parent forks
``workers - 1`` helpers, which inherit the compiled KB, and works on
scripts itself.  Every process takes script indices from one pre-filled
pipe; each helper streams one length-prefixed pickle frame per finished
script on a pipe of its own, then an empty final frame, and exits.  The
frames merge into the same counts, statistics and (normalised) branch
list a serial run produces.

Without ``os.fork`` the run is serial from start to end.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import struct
import time
import traceback
from typing import List, Optional, Tuple

from .core import FourlqsError
from .engine import EngineStats, ProbeExpired, _run

# Forking a helper, reading one frame from it and reaping it took a
# median 2.5 ms from an 18 MB parent and 3.2 ms from a 35 MB one (2-vCPU
# x86-64, Python 3.11): a tree the parent finishes in about that long
# gains nothing from helpers.
PROBE_SECONDS = 0.003

_INDEX = struct.Struct("<H")   # one script index in the shared queue
_LENGTH = struct.Struct("<Q")  # frame length; 0 is the final frame


class HelperLostError(FourlqsError):
    """A helper's stream ended before its final frame, so some subtrees
    were never reported and the merged counts would be partial."""


def _scripts(workers: int) -> List[Tuple[int, ...]]:
    # Subtree sizes are uneven (one of 8 scripts held 43% of the leaves
    # of the 4-individual product KB), so each process gets about eight
    # to draw from; every script also replays its prefix from the root.
    # At most 2,048 two-byte indices: the queue fits the one-page buffer
    # the smallest pipe has, so filling it before any reader exists
    # cannot block.
    depth = 1
    while (1 << depth) < 8 * workers and depth < 11:
        depth += 1
    return [tuple((i >> b) & 1 for b in range(depth - 1, -1, -1))
            for i in range(1 << depth)]


def _take(queue: int):
    """Script indices from the shared queue until it is empty.  Every
    write and read is one index wide, so concurrent readers never split
    an index."""
    while True:
        item = os.read(queue, _INDEX.size)
        if not item:
            return
        yield _INDEX.unpack(item)[0]


def _helper(comp, engine: str, opts, scripts, deadline, queue: int,
            out: int):
    """Body of a forked helper; never returns."""
    status = 1
    try:
        with os.fdopen(out, "wb") as stream:
            for i in _take(queue):
                frame = pickle.dumps(_run(comp, opts, engine, script=scripts[i],
                                          deadline=deadline),
                                     pickle.HIGHEST_PROTOCOL)
                stream.write(_LENGTH.pack(len(frame)) + frame)
                stream.flush()
            stream.write(_LENGTH.pack(0))
        status = 0
    except Exception:
        traceback.print_exc()  # the parent reports the lost stream
    finally:
        os._exit(status)


class _Merge:
    """Running totals over finished scripts, and the limit that ends the
    run: one a script tripped, or the merged leaf count passing
    ``max_branches``."""

    def __init__(self, max_branches: Optional[int]):
        self.max_branches = max_branches
        self.counts = {"open": 0, "closed": 0}
        self.stats = EngineStats()
        self.collected = []
        self.limited = None

    def add(self, result) -> None:
        w_counts, w_stats, w_collected, w_limited = result
        counts, stats = self.counts, self.stats
        counts["open"] += w_counts["open"]
        counts["closed"] += w_counts["closed"]
        stats.rule_apps += w_stats.rule_apps
        stats.pb_apps += w_stats.pb_apps
        stats.gamma_apps += w_stats.gamma_apps
        stats.peak_stack_depth = max(stats.peak_stack_depth,
                                     w_stats.peak_stack_depth)
        stats.peak_branch_literals = max(stats.peak_branch_literals,
                                         w_stats.peak_branch_literals)
        stats.peak_resident_formulae = max(stats.peak_resident_formulae,
                                           w_stats.peak_resident_formulae)
        self.collected.extend(w_collected)
        leaves = counts["open"] + counts["closed"]
        if w_limited:
            self.limited = w_limited
        elif self.max_branches is not None and leaves > self.max_branches:
            self.limited = f"branch limit {self.max_branches} reached"

    def result(self):
        return self.counts, self.stats, self.collected, self.limited


def _pump(helpers: selectors.BaseSelector, merge: _Merge,
          timeout: Optional[float]) -> None:
    """Merge every complete frame the helpers have sent, waiting up to
    ``timeout`` seconds (``None``: until one is readable).  A helper is
    reaped at its final frame; a stream that ends before it raises."""
    for key, _ in helpers.select(timeout):
        pid, buf = key.data
        chunk = os.read(key.fd, 1 << 16)
        if not chunk:
            raise HelperLostError(
                f"parallel helper {pid} exited before reporting all of "
                f"its subtrees")
        buf += chunk
        while len(buf) >= _LENGTH.size:
            n = _LENGTH.unpack_from(buf)[0]
            if n == 0:
                helpers.unregister(key.fd)
                os.close(key.fd)
                os.waitpid(pid, 0)
                break
            if len(buf) < _LENGTH.size + n:
                break
            merge.add(pickle.loads(buf[_LENGTH.size:_LENGTH.size + n]))
            del buf[:_LENGTH.size + n]
            if merge.limited:
                return


def run_parallel(comp, engine: str, opts, workers: int,
                 deadline: Optional[float]):
    """Explore the tableau with ``workers`` processes; same totals as
    serial.

    Limits are run-wide: ``deadline`` is the absolute ``perf_counter``
    reading at which ``opts.max_seconds`` runs out, shared by every
    process (the clock is system-wide), and every helper is killed and
    reaped as soon as a script trips a limit or the merged leaf count
    passes ``max_branches``.  Each script still gets the whole branch budget,
    so a run that trips past the probe may report up to twice
    ``max_branches`` leaves.
    """
    try:
        return _run(comp, opts, engine, deadline=deadline,
                    probe=time.perf_counter() + PROBE_SECONDS
                    if hasattr(os, "fork") else None)
    except ProbeExpired:
        pass

    scripts = _scripts(workers)
    queue, fill = os.pipe()
    os.write(fill, b"".join(_INDEX.pack(i) for i in range(len(scripts))))
    os.close(fill)  # readers see the end of the queue once it is empty
    helpers = selectors.DefaultSelector()  # data: [pid, unread bytes]
    merge = _Merge(opts.max_branches)
    try:
        for _ in range(min(workers, len(scripts)) - 1):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer helpers
                os.close(fd)
                os.close(out)
                break
            if pid == 0:
                _helper(comp, engine, opts, scripts, deadline, queue, out)
            os.close(out)
            helpers.register(fd, selectors.EVENT_READ, [pid, bytearray()])
        for i in _take(queue):
            merge.add(_run(comp, opts, engine, script=scripts[i],
                           deadline=deadline))
            if not merge.limited:
                _pump(helpers, merge, 0)
            if merge.limited:
                break
        while helpers.get_map() and not merge.limited:
            _pump(helpers, merge, None)
    finally:
        os.close(queue)
        for key in list(helpers.get_map().values()):
            os.kill(key.data[0], signal.SIGKILL)
            os.waitpid(key.data[0], 0)
            os.close(key.fd)
        helpers.close()
    return merge.result()
