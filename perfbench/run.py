"""Run one workload of the benchmark once and print its metrics.

    python3 perfbench/run.py --workload paper-engines --seed 1 \\
        --seconds 25 --trace 0

Run it from the root of a checkout: the program is imported from
``src/`` of that checkout and from nowhere else, and the run fails
without printing a result when that source is missing.  With
``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics.  The last line of standard output
is the result as one JSON object; the lines before it are the run
record, which is also written, with the spans of a traced run, under
``perfbench/out/``.
"""

from __future__ import annotations

import time

import hostspeed

SPEED = hostspeed.HostSpeed()   # read before anything is imported
SPEED.read()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
UNTRACED_SHARE = 0.25   # of --seconds, in a traced run, for the overhead base
TRACED_SHARE = 0.5      # of --seconds, in a traced run, with spans on

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("keg_s", "s"),
              ("ke_s", "s"), ("foke_s", "s"), ("keg_w2_s", "s"),
              ("check_s", "s"), ("query_s", "s"), ("models_s", "s"))
TIMED = tuple(name for name, unit in END_TO_END
              if unit == "s" and name != "setup_s")
PER_LAYER = (
    ("syntax.parse_kb_s", "s"), ("syntax.parse_query_s", "s"),
    ("syntax.render_answer_set_s", "s"), ("syntax.render_model_report_s", "s"),
    ("dlfront.parse_dl_s", "s"), ("dlfront.translate_s", "s"),
    ("engine.compile_s", "s"),
    ("engine.keg.explore_s", "s"), ("engine.ke.explore_s", "s"),
    ("engine.foke.explore_s", "s"),
    ("engine.keg.leaves_per_s", "1/s"), ("engine.ke.leaves_per_s", "1/s"),
    ("engine.foke.leaves_per_s", "1/s"),
    ("engine.compiled_bytes", "B"), ("engine.keg.peak_alloc_bytes", "B"),
    ("engine.ke.peak_alloc_bytes", "B"), ("engine.foke.peak_alloc_bytes", "B"),
    ("engine.rule_apps", "count"), ("engine.pb_apps", "count"),
    ("engine.foke.gamma_apps", "count"), ("engine.leaves", "count"),
    ("engine.peak_stack_depth", "count"),
    ("engine.keg.peak_resident_formulae", "count"),
    ("engine.ke.peak_resident_formulae", "count"),
    ("engine.foke.peak_resident_formulae", "count"),
    ("engine.closed_frac", "frac"), ("engine.merged_branch_frac", "frac"),
    ("parallel.speedup", "ratio"),
    ("hocqa.answer_s", "s"), ("hocqa.answer_s.A", "s"),
    ("hocqa.answer_s.B", "s"), ("hocqa.answer_s.C", "s"),
    ("hocqa.answer_s.D", "s"), ("hocqa.task_query_s", "s"),
    ("hocqa.answers", "count"), ("hocqa.branches", "count"),
    ("oracle.extract_model_s", "s"), ("cli.overhead_s", "s"),
    ("paper.ke_over_keg", "ratio"), ("paper.foke_over_keg", "ratio"),
    ("trace.overhead_frac", "frac"), ("trace.spans", "count"),
)


def import_program():
    """Import ``fourlqs`` from this checkout's ``src/`` only."""
    if not (SRC / "fourlqs" / "__init__.py").is_file():
        sys.exit(f"perfbench: the program source {SRC / 'fourlqs'} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]
    import fourlqs

    if Path(fourlqs.__file__).resolve().parent != (SRC / "fourlqs").resolve():
        sys.exit(f"perfbench: fourlqs was imported from {fourlqs.__file__}, "
                 f"not from {SRC}")


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def drive(wl, L, res, seconds: float) -> float:
    """Closed loop, one caller: run the workload's operations one after
    another until ``seconds`` have passed and its minimum work is done."""
    wl.minimum_done = False
    res.speed.read()
    start = time.perf_counter()
    with L.installed():
        for _ in wl.schedule(L, res):
            res.speed.read_if_due()
            if wl.minimum_done and time.perf_counter() - start >= seconds:
                break
    elapsed = time.perf_counter() - start
    res.speed.read()
    return elapsed


def counts(wl, res, checks) -> dict:
    """Deterministic counts over the workload's counted inputs.  They must
    repeat exactly between runs, traced or not."""
    keys = set(wl.count_keys(res))
    out = {}
    stats = defaultdict(list)
    leaves = closed = 0
    for (op, key), st in res.first_stats.items():
        if key in keys:
            stats["keg" if op == "check" else op].append(st)
            if op == "check":
                sig = res.first[(op, key)]
                leaves += sig[0] + sig[1]
                closed += sig[1]
    keg = stats["keg"]
    out["engine.rule_apps"] = sum(s.rule_apps for s in keg)
    out["engine.pb_apps"] = sum(s.pb_apps for s in keg)
    out["engine.leaves"] = leaves
    out["engine.peak_stack_depth"] = max((s.peak_stack_depth for s in keg),
                                         default=0)
    out["engine.foke.gamma_apps"] = sum(s.gamma_apps for s in stats["foke"])
    for e in ("keg", "ke", "foke"):
        out[f"engine.{e}.peak_resident_formulae"] = max(
            (s.peak_resident_formulae for s in stats[e]), default=0)
    out["engine.closed_frac"] = closed / leaves if leaves else 0.0
    answers = branches = 0
    for (op, key), stdout in res.first.items():
        item_key = key.split("/")[0]
        if op == "query" and item_key in keys and item_key in checks.collected:
            answers += len(json.loads(stdout)["answers"])
            branches += checks.collected[item_key][0]
    out["hocqa.answers"] = answers
    out["hocqa.branches"] = branches
    opens = sum(v[0] for k, v in checks.collected.items() if k in keys)
    merged = sum(v[1] for k, v in checks.collected.items() if k in keys)
    out["engine.merged_branch_frac"] = merged / opens if opens else 0.0
    return out


def per_layer(tracer, res, res_plain, memory) -> dict:
    """Per-layer figures from the traced phase's spans, each time scaled
    by the host's speed around its span, as the end-to-end times are."""
    factors = [res.speed.factor(s.start, s.end) for s in tracer.spans]
    self_times = [t * f for t, f in zip(tracer.self_times(), factors)]
    by_name = defaultdict(list)
    for s in tracer.spans:
        if s.phase == "measure" or s.name.startswith("dlfront."):
            by_name[s.name].append(self_times[s.sid])

    def med(name: str) -> float:
        return statistics.median(by_name[name]) if by_name[name] else 0.0

    out = {
        "syntax.parse_kb_s": med("syntax.parse_kb"),
        "syntax.parse_query_s": med("syntax.parse_query"),
        "syntax.render_answer_set_s": med("syntax.render_answer_set"),
        "syntax.render_model_report_s": med("syntax.render_model_report"),
        "dlfront.parse_dl_s": med("dlfront.parse_dl"),
        "dlfront.translate_s": med("dlfront.translate_kb"),
        "hocqa.answer_s": med("hocqa.answer"),
        "hocqa.task_query_s": med("hocqa.task_query"),
        "oracle.extract_model_s": med("oracle.extract_model"),
        "cli.overhead_s": med("cli.main"),
    }
    answer_by_task = defaultdict(list)
    compile_s = []
    explore = defaultdict(list)
    for s in tracer.spans:
        if s.phase != "measure":
            continue
        if s.name == "hocqa.answer" and s.request is not None:
            task = tracer.requests[s.request][1].rpartition("/")[2]
            answer_by_task[task].append(self_times[s.sid])
        elif s.name == "engine.saturate" and s.attrs["workers"] == 1 \
                and not s.attrs["collect"]:
            f = factors[s.sid]
            compile_s.append((s.end - s.start - s.attrs["explore_s"]) * f)
            explore[s.attrs["engine"]].append(
                (s.attrs["explore_s"] * f, s.attrs["leaves"]))
    for task in "ABCD":
        vals = answer_by_task[task]
        out[f"hocqa.answer_s.{task}"] = statistics.median(vals) if vals else 0.0
    out["engine.compile_s"] = statistics.median(compile_s) if compile_s else 0.0
    for e in ("keg", "ke", "foke"):
        pairs = explore[e]
        out[f"engine.{e}.explore_s"] = (statistics.median(p[0] for p in pairs)
                                        if pairs else 0.0)
        total = sum(p[0] for p in pairs)
        out[f"engine.{e}.leaves_per_s"] = (sum(p[1] for p in pairs) / total
                                           if total else 0.0)
    out.update(memory)
    agg = {name: res.figure(name) for name in TIMED}
    out["parallel.speedup"] = agg["keg_s"] / agg["keg_w2_s"]
    out["paper.ke_over_keg"] = agg["ke_s"] / agg["keg_s"]
    out["paper.foke_over_keg"] = agg["foke_s"] / agg["keg_s"]
    base = sum(res_plain.figure(n) for n in TIMED)
    out["trace.overhead_frac"] = sum(agg.values()) / base - 1.0
    out["trace.spans"] = len(tracer.spans)
    return out


def memory_pass(wl, res) -> dict:
    """tracemalloc around CompiledKb and around one count-mode saturate
    per engine, on the workload's representative KB."""
    import harness
    import workloads
    from fourlqs.engine import CompiledKb, saturate

    kb = wl.memory_kb(res)
    out = {"engine.compiled_bytes":
           harness.allocation(lambda: CompiledKb(kb))[2]}
    for e in workloads.ENGINES:
        out[f"engine.{e}.peak_alloc_bytes"] = harness.allocation(
            lambda: saturate(kb, workloads.COUNT, engine=e))[1]
    return out


def run(args, workdir: Path) -> dict:
    import harness
    import workloads

    tracer = harness.Tracer() if args.trace else None
    traced = harness.Layers(tracer) if tracer else None
    plain = harness.Layers()
    import_s = time.perf_counter() - START
    SPEED.read()
    setups = []
    for _ in range(SETUP_REPEATS):
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        t0 = time.perf_counter()
        wl.setup(traced or plain)
        setups.append((t0, time.perf_counter() - t0))
        SPEED.read()
    setup_s = SPEED.scale(START, import_s) + statistics.median(
        SPEED.scale(t0, seconds) for t0, seconds in setups)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": commit(), "python": platform.python_version(),
              "platform": platform.platform(), "nproc": os.cpu_count(),
              "reasoner_threads": os.environ.get("REASONER_THREADS"),
              "setup_repeats": [round(s, 6) for _t0, s in setups],
              "import_s": import_s}
    if not args.trace:
        res = harness.Results(SPEED)
        record["measured_s"] = drive(wl, plain, res, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = wl.check(res)
        metrics = {"setup_s": setup_s, "peak_rss_mb": rss_mb,
                   **{name: res.figure(name) for name in TIMED}}
    else:
        res_plain = harness.Results(SPEED)
        record["untraced_s"] = drive(wl, plain, res_plain,
                                     args.seconds * UNTRACED_SHARE)
        tracer.phase = "measure"
        res = harness.Results(SPEED)
        record["traced_s"] = drive(wl, traced, res,
                                   args.seconds * TRACED_SHARE)
        tracer.phase = "memory"
        memory = memory_pass(wl, res)
        metrics = per_layer(tracer, res, res_plain, memory)
        res.merge_outputs(res_plain)
        checks = wl.check(res)
    record["counts"] = counts(wl, res, checks)
    if args.trace:
        metrics.update(record["counts"])
    record["attempted"] = res.attempted
    record["failed"] = checks.failed()
    record["failed_frac"] = record["failed"] / res.attempted
    record["failures"] = checks.messages()[:20]
    times = {name: res.samples(name) for name in res.metrics()}
    record["samples"] = {name: len(v) for name, v in times.items()}
    record["times"] = times
    record["raw_figures"] = {name: res.figure(name, raw=True)
                             for name in res.metrics()}
    record["host_speed"] = SPEED.summary()
    record["tails"] = {}
    for name, samples in times.items():
        t = harness.tail(samples)
        if t is not None:
            record["tails"][name] = {"pct": t[0], "value": t[1],
                                     "median": statistics.median(samples),
                                     "per_s": len(samples) / sum(samples),
                                     "n": len(samples)}
    record["metrics"] = metrics
    if tracer is not None:
        record["spans_file"] = str(_write_spans(args, tracer))
    return record


def _out_name(args, suffix: str) -> Path:
    return HERE / "out" / (f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}{suffix}")


def _write_spans(args, tracer) -> Path:
    path = _out_name(args, "-spans.json")
    path.write_text(json.dumps({"requests": tracer.requests,
                                "spans": [s.as_dict() for s in tracer.spans]}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-engines", "kb-stream", "ontology-query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()

    (HERE / "out").mkdir(exist_ok=True)
    workdir = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _out_name(args, ".json").write_text(json.dumps(record, indent=1,
                                                   sort_keys=True))

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: record["metrics"][name] for name in units}
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['commit'][:12]} python={record['python']} "
          f"nproc={record['nproc']} platform={record['platform']}")
    for name, value in metrics.items():
        n = record["samples"].get(name)
        print(f"# {name} = {value:.6g} {units[name]}"
              + (f"  (n={n})" if n else ""))
    for name, t in record["tails"].items():
        print(f"# {name}: median {t['median']:.6g} s, p{t['pct']:g} "
              f"{t['value']:.6g} s, {t['per_s']:.6g}/s over {t['n']} samples")
    print(f"# counts {json.dumps(record['counts'], sort_keys=True)}")
    print(f"# failed {record['failed']} of {record['attempted']} "
          f"(failed_frac {record['failed_frac']:.6g})")
    for line in record["failures"]:
        print(f"# FAIL {line}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
