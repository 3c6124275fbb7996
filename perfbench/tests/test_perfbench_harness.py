"""Tests of the benchmark itself: its generators, its reference checks and
its tracing.  Run with ``python -m pytest perfbench/tests`` from the root
of the repository."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import hostspeed
import run
import workloads
from fourlqs.syntax import parse_kb
from fourlqs.oracle import reference_saturate

ROOT = Path(__file__).resolve().parents[2]


def one_round(wl, layers=None, res=None):
    """Drive a workload until its minimum work is done."""
    layers = layers or harness.Layers()
    res = res or harness.Results()
    run.drive(wl, layers, res, 0.0)
    return res


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_paper_texts_depend_on_seed_only(tmp_path):
    a = workloads.PaperEngines(7, tmp_path).texts()
    assert workloads.PaperEngines(7, tmp_path).texts() == a
    assert workloads.PaperEngines(8, tmp_path).texts()[:2] != a[:2]


def test_pool_inputs_depend_on_seed_only(tmp_path):
    one = workloads.KbStream(7, tmp_path)
    same = [one.pool_input(i) for i in range(40)]
    assert same == [workloads.KbStream(7, tmp_path).pool_input(i)
                    for i in range(40)]
    other = [workloads.KbStream(8, tmp_path).pool_input(i) for i in range(40)]
    assert other != same
    assert all(q is not None for i, (_t, q) in enumerate(same) if i % 16 == 0)


def test_ontologies_depend_on_seed_only(tmp_path):
    texts = workloads.OntologyQuery(7, tmp_path).dl_texts()
    assert workloads.OntologyQuery(7, tmp_path).dl_texts() == texts
    assert workloads.OntologyQuery(8, tmp_path).dl_texts() != texts
    for text in texts:
        for keyword in ("fun ", "irref ", "some ", "all ", "role "):
            assert keyword in text


def test_paper_kbs_have_the_documented_sizes(tmp_path):
    """Renaming by seed keeps the family's branch counts; the oracle's
    counts are what the workload checks every engine against."""
    big, small, _names = workloads.PaperEngines(3, tmp_path).texts()
    opens, closed = reference_saturate(parse_kb(big))
    assert (len(opens), closed) == (7058, 0)
    assert len(reference_saturate(parse_kb(small))[0]) == 850


# ---------------------------------------------------------------------------
# Reference checks report misses
# ---------------------------------------------------------------------------

def test_clean_round_has_no_failures(tmp_path):
    wl = workloads.PaperEngines(1, tmp_path, individuals=3)
    wl.setup(harness.Layers())
    res = one_round(wl)
    checks = wl.check(res)
    assert res.attempted == 4 + 5       # engines, then 4 queries + models
    assert checks.failed() == 0, checks.messages()


def test_wrong_expected_count_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Reference, "counts",
                        lambda self, kb: (851, 0))
    wl = workloads.PaperEngines(1, tmp_path, individuals=3)
    wl.setup(harness.Layers())
    res = one_round(wl)
    checks = wl.check(res)
    # check, ke, foke and keg_w2 each disagree with the expected count, and
    # so does the number of models.
    assert checks.failed() == 5
    assert any("851" in m for m in checks.messages())


def test_wrong_answer_set_is_a_failure(tmp_path, monkeypatch):
    real = workloads.brute_answers
    monkeypatch.setattr(workloads, "brute_answers",
                        lambda kb, q: real(kb, q) | {((("?x", "nobody"),), ())})
    wl = workloads.PaperEngines(1, tmp_path, individuals=3)
    wl.setup(harness.Layers())
    checks = wl.check(one_round(wl))
    assert checks.failed() == 4          # the four queries
    assert all(op[0] == "query" for op in checks.wrong)


def test_changed_output_and_exceptions_are_failures(tmp_path):
    wl = workloads.PaperEngines(1, tmp_path, individuals=3)
    wl.setup(harness.Layers())
    res = one_round(wl)
    op = ("models", wl.small.key)
    res.output(op, res.first[op] + " ")             # a repeat that differs
    workloads.op_engine(harness.Layers(), res, "bad", "lit (in", "ke")
    checks = wl.check(res)
    assert checks.failed() == 2
    assert res.errors[("ke", "bad")] == 1


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_self_time_subtracts_children():
    tracer = harness.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    spans = {s.name: s for s in tracer.spans}
    self_times = tracer.self_times()
    outer_span = spans["outer"]
    children = sum(s.end - s.start for s in tracer.spans if s.name == "inner")
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert self_times[0] == pytest.approx(
        outer_span.end - outer_span.start - children)


def test_traced_cli_calls_nest_under_cli_main(tmp_path):
    wl = workloads.OntologyQuery(1, tmp_path)
    tracer = harness.Tracer()
    layers = harness.Layers(tracer)
    wl.setup(layers)
    tracer.phase = "measure"
    item = wl.items[0]
    with layers.installed():
        workloads.op_cli(layers, harness.Results(), "query_s",
                         ("query", "q"), ["query", str(item.path),
                                          *item.queries[0].argv, "--json"])
    names = {s.name: s for s in tracer.spans if s.phase == "measure"}
    cli_main = names["cli.main"].sid
    for child in ("syntax.parse_kb", "engine.saturate", "hocqa.task_query",
                  "hocqa.answer", "syntax.render_answer_set"):
        assert names[child].parent == cli_main
    assert {s.name for s in tracer.spans if s.phase == "setup"} >= {
        "dlfront.parse_dl", "dlfront.translate_kb"}


def _counts(stdout: str) -> dict:
    lines = [l for l in stdout.splitlines() if l.startswith("# counts ")]
    return json.loads(lines[0][len("# counts "):])


def test_traced_and_untraced_runs_count_the_same(capsys):
    results = {}
    for trace in ("0", "1"):
        assert run.main(["--workload", "kb-stream", "--seed", "5",
                         "--seconds", "0.1", "--trace", trace]) == 0
        out = capsys.readouterr().out
        last = json.loads(out.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        results[trace] = (_counts(out), last)
    assert results["0"][0] == results["1"][0]
    assert set(results["0"][1]["metrics"]) == {n for n, _u in run.END_TO_END}
    assert set(results["1"][1]["metrics"]) == {n for n, _u in run.PER_LAYER}


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "kb-stream", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def _speed(readings):
    speed = hostspeed.HostSpeed()
    for start, value in readings:
        speed.starts.append(start)
        speed.ends.append(start + 0.01)
        speed.values.append(value)
    return speed


def test_host_speed_scales_by_the_readings_around_a_call():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.HostSpeed().scale(0.0, 2.0) == 2.0     # no readings
    speed = _speed([(1.0, 2 * ref), (3.0, 2 * ref), (5.0, ref)])
    assert speed.scale(1.5, 1.0) == pytest.approx(0.5)       # half speed
    assert speed.scale(3.5, 1.0) == pytest.approx(1 / 1.5)   # 2*ref, ref
    assert speed.scale(0.0, 0.5) == pytest.approx(0.25)      # first only
    assert speed.scale(6.0, 1.0) == pytest.approx(1.0)       # last only
    assert speed.scale(0.5, 5.0) == pytest.approx(2.5)       # all three


def test_figures_are_scaled_and_raw_figures_are_not():
    res = harness.Results(_speed([(1.0, 2 * hostspeed.REFERENCE_S)]))
    res.time("keg_s", "a", 2.0, 1.0)
    res.time("keg_s", "a", 3.0, 3.0)
    res.time("keg_s", "b", 4.0, 4.0)
    res.time("keg_s", "c", 5.0, 8.0)
    assert res.samples("keg_s", raw=True) == [1.0, 3.0, 4.0, 8.0]
    assert res.figure("keg_s", raw=True) == 4.0    # median of 2, 4 and 8
    assert res.figure("keg_s") == pytest.approx(2.0)


def test_tail_needs_ten_samples_beyond_it():
    assert harness.tail(list(range(19))) is None
    assert harness.tail([float(i) for i in range(100)])[0] == 90.0
    assert harness.tail([float(i) for i in range(1000)]) == (99.0, 989.0)
