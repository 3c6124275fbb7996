"""Worker-parallel saturation.

Independent subtrees of the tableau are explored by separate processes.
The tree is partitioned by split-decision prefixes ("scripts"): a script
of length L routes the first L splits, and a worker owns exactly the
nodes whose remaining script is all zeros, so counters and leaves are
attributed once across the pool.  Results merge into the same counts,
statistics and (normalised) branch list a serial run produces.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import List, Optional, Tuple

from .core import KnowledgeBase

_WORKER_STATE = {}


def _init_worker(kb_text: str, engine: str, opts, deadline: Optional[float]):
    from .engine import CompiledKb
    from .syntax import parse_kb

    # The KB travels as text; parsing it back reproduces the parent's
    # symbol orders exactly (every set variable a KB can hold occurs in
    # some conjunct, and individuals ride the ind line), so the literal
    # integers the workers return mean the same thing in the parent.
    kb = parse_kb(kb_text)
    _WORKER_STATE["comp"] = CompiledKb(kb)
    _WORKER_STATE["opts"] = opts
    _WORKER_STATE["engine"] = engine
    _WORKER_STATE["deadline"] = deadline


def _explore_script(script: Tuple[int, ...]):
    from .engine import _run

    return _run(_WORKER_STATE["comp"], _WORKER_STATE["opts"],
                _WORKER_STATE["engine"], script=script,
                deadline=_WORKER_STATE["deadline"])


def run_parallel(kb: KnowledgeBase, comp, engine: str, opts, workers: int):
    """Explore the tableau with a process pool; same totals as serial.

    Limits are run-wide: ``max_seconds`` becomes one absolute
    ``perf_counter`` deadline shared by every worker (the clock is
    system-wide), and the pool is terminated as soon as a worker trips a
    limit or the merged leaf count reaches ``max_branches``.  Each script
    still gets the whole branch budget, so a tripped run may report up to
    twice ``max_branches`` leaves.
    """
    from .engine import EngineOptions, EngineStats
    from .syntax import render_kb

    depth = 1
    while (1 << depth) < 4 * workers and depth < 12:
        depth += 1
    scripts: List[Tuple[int, ...]] = [
        tuple((i >> b) & 1 for b in range(depth - 1, -1, -1))
        for i in range(1 << depth)
    ]

    deadline = (time.perf_counter() + opts.max_seconds
                if opts.max_seconds is not None else None)
    worker_opts = EngineOptions(max_branches=opts.max_branches,
                                max_seconds=opts.max_seconds, workers=1,
                                collect_branches=opts.collect_branches)
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                         else "spawn")
    counts = {"open": 0, "closed": 0}
    stats = EngineStats()
    collected = []
    limited = None
    with ctx.Pool(workers, initializer=_init_worker,
                  initargs=(render_kb(kb), engine, worker_opts,
                            deadline)) as pool:
        for w_counts, w_stats, w_collected, w_limited in pool.imap(
                _explore_script, scripts):
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
            collected.extend(w_collected)
            leaves = counts["open"] + counts["closed"]
            if w_limited:
                limited = w_limited
            elif opts.max_branches is not None and leaves > opts.max_branches:
                limited = f"branch limit {opts.max_branches} reached"
            if limited:
                break  # leaving the with block terminates the pool
    return counts, stats, collected, limited
