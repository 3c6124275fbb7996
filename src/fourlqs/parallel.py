"""Worker-parallel saturation.

A run starts as a serial run in the parent, the probe, which
:func:`~fourlqs.engine._run` calls back every ``POLL_LEAVES`` counted
leaves.  A tree that finishes, or trips a limit, within
``PROBE_SECONDS`` is returned as that serial result, so it never starts
a process and its limits mean exactly what they mean serially.

At the first poll past the probe with work pending, the parent hands
over the shallowest entries of its stack as guiding paths, as in PSATO
(Zhang, Bonacina & Hsiang 1996): the split decisions from the root to
each entry's complement child.  It takes at most eight per process and,
when its stack holds fewer, extends each path by fixed suffixes, so that
every process has about eight "scripts" to draw from.  A
script of length L routes the first L splits, and the process running
it owns exactly the nodes whose remaining script is all zeros; a path
ends in a 1, so no script counts a node the probe has counted, and none
starts from the root's empty path.  The parent forks ``workers - 1``
helpers, which inherit the compiled KB and the scripts, carries on with
the deeper rest of its own stack, then takes scripts as a helper does.
Every process takes script indices from one pre-filled pipe; each helper
streams one length-prefixed pickle frame per finished script on a pipe
of its own, then an empty final frame, and exits.  The parent reads the
frames at every poll, so no helper waits on a full pipe, and they merge
with its own work into the same counts, statistics and (normalised)
branch list a serial run produces.

Without ``os.fork`` the run is serial from start to end.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import struct
import traceback
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from .core import FourlqsError
from .engine import EngineStats, _guiding_paths, _run

# Forking a helper blocks the parent for a median 0.95 ms, and the helper
# starts running 2.4 ms after the fork (medians of 40 forks from an 18 MB
# parent, 2-vCPU x86-64, Python 3.11.7): about 3.4 ms.  The probe runs
# eight times that, so a fork that gains nothing, in a tree that ends
# just past the probe, costs at most about an eighth of the run, and a
# tree that ends inside the probe never forks.
PROBE_SECONDS = 0.027

# The queue is filled before any reader exists, so it holds at most the
# one-page buffer the smallest pipe has: 2,048 two-byte indices.
MAX_SCRIPTS = 2048

_INDEX = struct.Struct("<H")   # one script index in the shared queue
_LENGTH = struct.Struct("<Q")  # frame length; 0 is the final frame


class HelperLostError(FourlqsError):
    """A helper's stream ended before its final frame, so some subtrees
    were never reported and the merged counts would be partial."""


def _scripts(paths: Sequence[Tuple[int, ...]],
             workers: int) -> List[Tuple[int, ...]]:
    """Each path extended by every suffix of the shortest length that
    gives about eight scripts per process, and no more than
    ``MAX_SCRIPTS`` in all (``len(paths)`` is at most that).  Subtree
    sizes are uneven (one of 8 scripts held 43% of the leaves of the
    4-individual product KB), so each process gets several to draw from.
    """
    depth = 0
    while (len(paths) << depth < 8 * workers
           and len(paths) << (depth + 1) <= MAX_SCRIPTS):
        depth += 1
    return [path + tuple((i >> b) & 1 for b in range(depth - 1, -1, -1))
            for path in paths for i in range(1 << depth)]


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
        if w_limited:
            self.limited = w_limited
        else:
            self.check(0)

    def check(self, running: int) -> None:
        """Trip the branch limit if the merged leaves and the ``running``
        ones of a run not yet merged pass it."""
        if (self.max_branches is not None
                and self.counts["open"] + self.counts["closed"] + running
                > self.max_branches):
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


class _Parent:
    """The parent's side of a run past the probe: the helpers, the queue
    of scripts they and the parent draw from, and the merge of all their
    results."""

    def __init__(self, comp, engine: str, opts, deadline: Optional[float]):
        self.comp, self.engine, self.opts = comp, engine, opts
        self.deadline = deadline
        self.merge = _Merge(opts.max_branches)
        self.helpers = selectors.DefaultSelector()  # data: [pid, unread]
        self.scripts: List[Tuple[int, ...]] = []
        self.queue: Optional[int] = None

    def fork(self, paths, workers: int) -> None:
        self.scripts = scripts = _scripts(paths, workers)
        self.queue, fill = os.pipe()
        os.write(fill, b"".join(_INDEX.pack(i) for i in range(len(scripts))))
        os.close(fill)  # readers see the end of the queue once it is empty
        for _ in range(min(workers - 1, len(scripts))):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer helpers
                os.close(fd)
                os.close(out)
                break
            if pid == 0:
                _helper(self.comp, self.engine, self.opts, scripts,
                        self.deadline, self.queue, out)
            os.close(out)
            self.helpers.register(fd, selectors.EVENT_READ,
                                  [pid, bytearray()])

    def poll(self, stack: list, leaves: int) -> bool:
        """A parent's run's ``poll`` past the probe: merge what the
        helpers have sent, and stop the run once the run as a whole is
        over a limit."""
        merge = self.merge
        # The frames merged so far and this run's leaves stay within the
        # branch limit, so one more frame can at most double it.
        merge.check(leaves)
        if not merge.limited:
            _pump(self.helpers, merge, 0)
        return merge.limited is not None

    def finish(self, first):
        """Merge the parent's first run, run scripts from the queue
        until it is empty, and merge every helper's frames."""
        comp, engine, opts, deadline = (self.comp, self.engine, self.opts,
                                        self.deadline)
        merge = self.merge
        merge.add(first)
        if not merge.limited:
            for i in _take(self.queue):
                merge.add(_run(comp, opts, engine, script=self.scripts[i],
                               deadline=deadline, poll=self.poll))
                if not merge.limited:
                    _pump(self.helpers, merge, 0)
                if merge.limited:
                    break
        while self.helpers.get_map() and not merge.limited:
            _pump(self.helpers, merge, None)
        return merge.result()

    def close(self) -> None:
        if self.queue is not None:
            os.close(self.queue)
        for key in list(self.helpers.get_map().values()):
            os.kill(key.data[0], signal.SIGKILL)
            os.waitpid(key.data[0], 0)
            os.close(key.fd)
        self.helpers.close()


def run_parallel(comp, engine: str, opts, workers: int,
                 deadline: Optional[float]):
    """Explore the tableau with ``workers`` processes; same totals as
    serial.

    A tree that finishes or trips a limit inside the probe gets the
    serial run's result and starts no process.  Past the probe, limits
    are run-wide: ``deadline`` is the absolute ``perf_counter`` reading
    at which ``opts.max_seconds`` runs out, shared by every process (the
    clock is system-wide), and every helper is killed and reaped as soon
    as a script trips a limit or the merged leaf count passes
    ``max_branches``.  Each script still gets the whole branch budget,
    so a run that trips past the probe may report up to twice
    ``max_branches`` leaves.  Which leaves such a run has counted depends
    on when each helper is killed, so its partial counts, statistics and
    branches can differ from one run to the next; a run that trips no
    limit, and one that trips inside the probe, always reports the same.
    """
    if not hasattr(os, "fork"):
        return _run(comp, opts, engine, deadline=deadline)
    expires = perf_counter() + PROBE_SECONDS
    parent = None

    def probe(stack: list, leaves: int) -> bool:
        # The first run's poll: the clock until the probe expires with
        # work pending, then the hand-over, then the parent's.
        nonlocal parent
        if parent is not None:
            return parent.poll(stack, leaves)
        if stack and perf_counter() > expires:
            # Bound before forking, so the ``finally`` below also reaps
            # the helpers of a hand-over that fails part way.
            parent = _Parent(comp, engine, opts, deadline)
            parent.fork(_guiding_paths(stack, min(8 * workers, MAX_SCRIPTS)),
                        workers)
        return False

    try:
        first = _run(comp, opts, engine, deadline=deadline, poll=probe)
        return first if parent is None else parent.finish(first)
    finally:
        if parent is not None:
            parent.close()
