"""Command-line interface.

Subcommands: ``check`` (consistency), ``models`` (extracted branch
models), ``query`` (HO conjunctive query answering), ``translate``
(DL axioms to KB text), ``oracle`` (brute-force ground truth), ``bench``
(three-engine comparison).  Exit codes: 0 success (and consistent, for
check), 1 inconsistent, 2 usage or parse error, an input file that
cannot be read as UTF-8 text or an output file that cannot be written,
3 resource limit, 4 internal error: an unexpected exception, reported
as an ``internal error:`` line and its traceback on stderr, so that a
crash is never read as a verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path
from typing import List, Optional

from .bench import BenchConfig, run_bench
from .core import FourlqsError
from .dlfront import parse_dl, translate_kb
from .engine import EngineOptions, ModelBuilder, ResourceLimitError, saturate
from .hocqa import TaskArityError, answer, task_query
from .oracle import (BoundsExceededError, OracleBounds, brute_answers,
                     is_consistent)
from .syntax import parse_kb, parse_query, render_answer_set, render_kb

_TASKS = {"A": "role-filler", "B": "concept-retrieval", "C": "role-instance",
          "D": "cqa"}


def _engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=("keg", "ke", "foke"), default="keg")
    p.add_argument("--max-branches", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel subtree workers, forked only for a tree "
                        "a serial probe of about 27 ms does not finish "
                        "(capped by REASONER_THREADS)")


def _options(args, collect: bool) -> EngineOptions:
    return EngineOptions(max_branches=args.max_branches,
                         max_seconds=args.max_seconds,
                         workers=args.workers,
                         collect_branches=collect)


def _bounds_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-individuals", type=int, default=4)
    p.add_argument("--max-set1", type=int, default=3)
    p.add_argument("--max-set3", type=int, default=2)


def _bounds(args) -> OracleBounds:
    return OracleBounds(max_individuals=args.max_individuals,
                        max_set1=args.max_set1, max_set3=args.max_set3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourlqs",
        description="KE-style tableau reasoner for the 4LQS set fragment")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide knowledge-base consistency")
    p.add_argument("kb", type=Path)
    _engine_flags(p)

    p = sub.add_parser("models", help="print the models extracted from the "
                                      "open complete branches")
    p.add_argument("kb", type=Path)
    _engine_flags(p)

    p = sub.add_parser("query", help="answer a HO conjunctive query")
    p.add_argument("kb", type=Path)
    p.add_argument("--q", type=Path, default=None, help="query file")
    p.add_argument("--task", nargs="+", default=None, metavar="T ARG",
                   help="task letter (A role-filler, B concept-retrieval, "
                        "C role-instance, D cqa) followed by its arguments")
    p.add_argument("--json", action="store_true")
    _engine_flags(p)

    p = sub.add_parser("translate", help="translate DL axioms to KB text")
    p.add_argument("axioms", type=Path)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    oc = osub.add_parser("check")
    oc.add_argument("kb", type=Path)
    _bounds_flags(oc)
    oa = osub.add_parser("answers")
    oa.add_argument("kb", type=Path)
    oa.add_argument("--q", type=Path, required=True)
    _bounds_flags(oa)

    p = sub.add_parser("bench", help="compare the engines on a family KB")
    p.add_argument("--engines", default="keg,ke,foke")
    p.add_argument("--family", choices=("product-rule", "random"),
                   default="product-rule")
    p.add_argument("--individuals", type=int, default=4)
    p.add_argument("--clauses", type=int, default=1)
    p.add_argument("--disjuncts", type=int, default=4)
    p.add_argument("--quantifiers", type=int, default=2)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", type=Path, default=None)
    p.add_argument("--json-out", type=Path, default=None)
    p.add_argument("--parallel", action="store_true",
                   help="worker-parallel saturation; timings not comparable")
    p.add_argument("--workers", type=int, default=2)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process and reused:
    building it costs more than parsing and answering a small query.
    ``parse_args`` leaves it unchanged, so calls cannot leak into each
    other."""
    return build_parser()


def _read(path: Path) -> str:
    """An input file's text; one that cannot be read as UTF-8 text is a
    usage error, not a crash."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FourlqsError(f"{path}: not UTF-8 text ({err.reason} "
                           f"at byte {err.start})") from None
    except OSError as err:
        raise FourlqsError(f"{path}: {err.strerror or err}") from None


def _write(path: Path, text: str, mode: str = "w") -> None:
    """Write ``text`` to an output file; one that cannot be written is a
    usage error, not a crash.  Appending nothing (``mode="a"``) checks a
    path before any work is done."""
    try:
        with path.open(mode, encoding="utf-8") as out:
            out.write(text)
    except OSError as err:
        raise FourlqsError(f"{path}: {err.strerror or err}") from None


def _cmd_check(args) -> int:
    kb = parse_kb(_read(args.kb))
    result = saturate(kb, _options(args, collect=False), engine=args.engine)
    if result.consistent:
        print(f"consistent, {result.open_count} open branches")
        return 0
    print(f"inconsistent, {result.closed_count} closed branches")
    return 1


def _cmd_models(args) -> int:
    kb = parse_kb(_read(args.kb))
    result = saturate(kb, _options(args, collect=True), engine=args.engine)
    models = []
    if result.packed:  # an inconsistent KB needs no model builder
        render = ModelBuilder(result.compiled).render
        models = [render(*branch) for branch in result.packed]
    print('{"models": [' + ", ".join(models) + "]}")
    return 0


def _cmd_query(args) -> int:
    kb = parse_kb(_read(args.kb))
    if args.task is not None:
        letter = args.task[0]
        if letter not in _TASKS:
            raise TaskArityError(f"unknown task {letter!r}; expected one of "
                                 f"{', '.join(sorted(_TASKS))}")
        kind = _TASKS[letter]
        text = _read(args.q) if (kind == "cqa" and args.q) else None
        q = task_query(kind, args.task[1:], kb, text=text)
    elif args.q is not None:
        q = parse_query(_read(args.q), kb)
    else:
        raise TaskArityError("query needs --q or --task")
    result = saturate(kb, _options(args, collect=True), engine=args.engine)
    ans = answer(q, result)
    if args.json:
        print(render_answer_set([(a.binding, a.merges) for a in ans]))
    else:
        if not len(ans):
            print("no answers")
        for a in ans:
            parts = [f"{k.name}={v.name}" for k, v in a.binding.items()]
            merge = [f"{k.name}={v.name}" for k, v in a.merges.map0.items()]
            line = " ".join(parts) if parts else "<empty binding>"
            if merge:
                line += "  [merges: " + " ".join(merge) + "]"
            print(line)
    return 0


def _cmd_translate(args) -> int:
    axioms = parse_dl(_read(args.axioms))
    kb = translate_kb(axioms)
    sys.stdout.write(render_kb(kb))
    return 0


def _cmd_oracle(args) -> int:
    kb = parse_kb(_read(args.kb))
    if args.oracle_command == "check":
        if is_consistent(kb, _bounds(args)):
            print("consistent")
            return 0
        print("inconsistent")
        return 1
    q = parse_query(_read(args.q), kb)
    keys = sorted(brute_answers(kb, q, _bounds(args)))
    sort_of = {}
    for v in q.qvars0:
        sort_of[v.name] = "map0"
    for v in q.qvars1:
        sort_of[v.name] = "map1"
    for v in q.qvars3:
        sort_of[v.name] = "map3"
    rows = []
    for binding, merges in keys:
        row = {"map0": {}, "map1": {}, "map3": {},
               "merges": {k: v for k, v in merges}}
        for name, value in binding:
            row[sort_of[name]][name] = value
        rows.append(row)
    print(json.dumps({"answers": rows}, sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    cfg = BenchConfig(engines=tuple(e.strip() for e in args.engines.split(",")
                                    if e.strip()),
                      family=args.family, individuals=args.individuals,
                      clauses=args.clauses, disjuncts=args.disjuncts,
                      quantifiers=args.quantifiers,
                      repetitions=args.repetitions, seed=args.seed,
                      parallel=args.parallel, workers=args.workers)
    for path in (args.csv, args.json_out):
        if path:
            _write(path, "", mode="a")
    report = run_bench(cfg, progress=lambda msg: print(f"# {msg}",
                                                       file=sys.stderr))
    csv_text = report.to_csv()
    if args.csv:
        _write(args.csv, csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.json_out:
        _write(args.json_out, report.to_json())
    for engine in cfg.engines:
        walls = sorted(report.wall_ms(engine))
        med = walls[len(walls) // 2]
        rows = [r for r in report.rows if r.engine == engine]
        print(f"# {engine}: open={rows[0].open_branches} "
              f"median_wall_ms={med:.1f} min={walls[0]:.1f} "
              f"max={walls[-1]:.1f}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "models":
            return _cmd_models(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "translate":
            return _cmd_translate(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "bench":
            return _cmd_bench(args)
        parser.error(f"unknown command {args.command!r}")
    except (ResourceLimitError, BoundsExceededError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except FourlqsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        traceback.print_exc()
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
