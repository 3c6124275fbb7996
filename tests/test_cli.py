"""Command-line surface: exit codes, output determinism."""

import contextlib
import io
import json
import os
import random
import re
import tempfile
from typing import Tuple
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from fourlqs import cli
from fourlqs.bench import gen_random_kb
from fourlqs.cli import main

from conftest import CONTRADICTION_KB, DEEP_KB, ITALY_DL, ITALY_KB


@pytest.fixture()
def italy_file(tmp_path):
    path = tmp_path / "italy.4lqs"
    path.write_text(ITALY_KB)
    return path


@pytest.fixture()
def query_file(tmp_path):
    path = tmp_path / "q.query"
    path.write_text("(rel Rome Italy ?r)\n")
    return path


class TestCheck:
    def test_consistent(self, italy_file, capsys):
        assert main(["check", str(italy_file)]) == 0
        assert capsys.readouterr().out == "consistent, 2 open branches\n"

    def test_inconsistent(self, tmp_path, capsys):
        path = tmp_path / "contra.4lqs"
        path.write_text(CONTRADICTION_KB)
        assert main(["check", str(path)]) == 1
        assert "inconsistent" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.4lqs"
        path.write_text("lit (wat a b)")
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.4lqs")]) == 2

    def test_resource_limit_exit_code(self, italy_file):
        assert main(["check", str(italy_file), "--max-branches", "1"]) == 3

    def test_deep_kb_time_limit_exit_code(self, tmp_path, capsys):
        path = tmp_path / "deep.4lqs"
        path.write_text(DEEP_KB)
        assert main(["check", str(path), "--max-seconds", "0.05"]) == 3
        assert "time limit" in capsys.readouterr().err

    def test_engines_agree(self, italy_file, capsys):
        outs = set()
        for engine in ("keg", "ke", "foke"):
            assert main(["check", str(italy_file), "--engine", engine]) == 0
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1


class TestUnreadableInput:
    """A file that cannot be read as UTF-8 text is a usage error (exit 2,
    one ``error:`` line), never a crash or an "inconsistent" exit 1."""

    @pytest.fixture(params=["not-utf8", "directory"])
    def bad(self, request, tmp_path):
        if request.param == "directory":
            return tmp_path
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe(lit")
        return path

    @pytest.mark.parametrize("argv", [
        ["check", "{bad}"], ["models", "{bad}"], ["query", "{bad}", "--q", "{q}"],
        ["query", "{kb}", "--q", "{bad}"],
        ["query", "{kb}", "--task", "D", "--q", "{bad}"],
        ["translate", "{bad}"], ["oracle", "check", "{bad}"],
        ["oracle", "answers", "{kb}", "--q", "{bad}"],
    ], ids=lambda argv: "-".join(a.strip("{}") for a in argv if a[0] != "-"))
    def test_exit_2_with_one_error_line(self, argv, bad, italy_file,
                                        query_file, capsys):
        argv = [a.format(bad=bad, kb=italy_file, q=query_file) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")
        assert captured.err.count("\n") == 1


class TestLimitValues:
    """A limit no run can honour is a usage error (exit 2, one ``error:``
    line, no traceback); a limit of 0 still trips at the first check."""

    @pytest.mark.parametrize("argv, code", [
        (["check", "{kb}", "--max-branches", "-1"], 2),
        (["check", "{kb}", "--max-seconds", "nan"], 2),
        (["check", "{kb}", "--max-seconds", "-1"], 2),
        (["check", "{kb}", "--workers", "-3"], 2),
        (["check", "{kb}", "--workers", "0"], 2),
        (["models", "{kb}", "--max-branches", "-1"], 2),
        (["models", "{kb}", "--max-seconds", "nan"], 2),
        (["models", "{kb}", "--workers", "-3"], 2),
        (["query", "{kb}", "--q", "{q}", "--max-branches", "-1"], 2),
        (["query", "{kb}", "--q", "{q}", "--max-seconds", "nan"], 2),
        (["query", "{kb}", "--q", "{q}", "--workers", "-3"], 2),
        (["bench", "--individuals", "1", "--parallel", "--workers", "-3"], 2),
        (["bench", "--individuals", "1", "--engines", ","], 2),
        (["bench", "--individuals", "1", "--engines", "keg,keg"], 2),
        (["check", "{kb}", "--max-branches", "0"], 3),
        (["check", "{kb}", "--max-seconds", "0"], 3),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_exit_code_and_one_error_line(self, argv, code, italy_file,
                                          query_file, capsys):
        argv = [a.format(kb=italy_file, q=query_file) for a in argv]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestWorkerCapValues:
    """A ``REASONER_THREADS`` that is not a positive integer is a usage
    error, as a ``--workers`` below 1 is; an empty one is no cap."""

    @pytest.mark.parametrize("cap", ["abc", "0", "-1", "2.5"])
    @pytest.mark.parametrize("argv", [
        ["check", "{kb}", "--workers", "2"], ["check", "{kb}"],
        ["models", "{kb}", "--workers", "2"],
        ["query", "{kb}", "--q", "{q}", "--workers", "2"],
    ], ids=" ".join)
    def test_exit_code_and_one_error_line(self, argv, cap, italy_file,
                                          query_file, monkeypatch, capsys):
        monkeypatch.setenv("REASONER_THREADS", cap)
        argv = [a.format(kb=italy_file, q=query_file) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: REASONER_THREADS must be a positive "
                                f"integer, got {cap!r}\n")

    @pytest.mark.parametrize("cap", ["", "1", "3"])
    def test_usable_cap(self, cap, italy_file, monkeypatch, capsys):
        monkeypatch.setenv("REASONER_THREADS", cap)
        assert main(["check", str(italy_file), "--workers", "2"]) == 0
        assert capsys.readouterr().out == "consistent, 2 open branches\n"


class TestInternalError:
    """An unexpected exception is exit 4 with an ``internal error:`` line
    and its traceback, never exit 1, which means "inconsistent"."""

    def test_crash_is_exit_4(self, italy_file, monkeypatch, capsys):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_check", crash)
        assert main(["check", str(italy_file)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        first, rest = captured.err.split("\n", 1)
        assert first == "internal error: RuntimeError: boom"
        assert rest.startswith("Traceback (most recent call last):")
        assert rest.endswith("RuntimeError: boom\n")


class TestLongQuery:
    def test_thousand_conjuncts_exit_0(self, tmp_path, capsys):
        kb = tmp_path / "one.4lqs"
        kb.write_text("lit (in a A)\n")
        q = tmp_path / "long.query"
        q.write_text(" ".join(["(in ?x A)"] * 1000) + "\n")
        assert main(["query", str(kb), "--q", str(q)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "?x=a\n"
        assert captured.err == ""


class TestDeepTranslate:
    def test_negation_nested_2000_deep_exit_0(self, tmp_path, capsys):
        n = 2000
        dl = tmp_path / "deep.dl"
        dl.write_text("subsume " + "(not " * n + "A" + ")" * n + " B\n")
        assert main(["translate", str(dl)]) == 0
        captured = capsys.readouterr()
        assert captured.out == \
            "clause (forall z1) (or (not (in z1 A)) (in z1 B))\n"
        assert captured.err == ""


class TestParserReuse:
    def test_parser_built_once(self, italy_file, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def counting_build():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            assert main(["check", str(italy_file)]) == 0
            assert main(["check", str(italy_file), "--engine", "ke"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_flags_do_not_leak_into_the_next_call(self, italy_file, capsys):
        argv = ["query", str(italy_file), "--task", "C", "Rome", "Italy"]
        assert main(argv + ["--json", "--max-branches", "1"]) == 3
        assert "branch limit 1" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == "?r=isPartOf\n?r=locatedIn\n"
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["answers"]
        assert main(["check", str(italy_file), "--max-branches", "5"]) == 0
        assert main(["check", str(italy_file)]) == 0
        assert capsys.readouterr().out == "consistent, 2 open branches\n" * 2


class TestQuery:
    def test_task_c_json(self, italy_file, capsys):
        assert main(["query", str(italy_file), "--task", "C", "Rome", "Italy",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"answers": [
            {"map0": {}, "map1": {}, "map3": {"?r": "isPartOf"}, "merges": {}},
            {"map0": {}, "map1": {}, "map3": {"?r": "locatedIn"}, "merges": {}},
        ]}

    def test_query_file(self, italy_file, query_file, capsys):
        assert main(["query", str(italy_file), "--q", str(query_file)]) == 0
        out = capsys.readouterr().out
        assert "?r=isPartOf" in out and "?r=locatedIn" in out

    def test_byte_identical_repeat_runs(self, italy_file, query_file, capsys):
        outs = []
        for _ in range(2):
            assert main(["query", str(italy_file), "--q", str(query_file),
                         "--json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_bad_task_letter(self, italy_file):
        assert main(["query", str(italy_file), "--task", "Z"]) == 2


class TestModels:
    def test_reports(self, italy_file, capsys):
        assert main(["models", str(italy_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["models"]) == 2
        for report in payload["models"]:
            assert set(report) == {"domain", "sets1", "sets3"}
            assert report["domain"] == ["Italy", "Rome"]


class TestTranslate:
    def test_pipeline(self, tmp_path, capsys):
        ax = tmp_path / "kb.dl"
        ax.write_text(ITALY_DL)
        assert main(["translate", str(ax)]) == 0
        text = capsys.readouterr().out
        out = tmp_path / "kb.4lqs"
        out.write_text(text)
        assert main(["check", str(out)]) == 0
        assert "consistent, 2 open branches" in capsys.readouterr().out

    def test_unsupported_axiom(self, tmp_path):
        ax = tmp_path / "kb.dl"
        ax.write_text("self R")
        assert main(["translate", str(ax)]) == 2


class TestOracleCommands:
    def test_check(self, italy_file, capsys):
        assert main(["oracle", "check", str(italy_file)]) == 0
        assert capsys.readouterr().out == "consistent\n"

    def test_answers_match_engine(self, italy_file, query_file, capsys):
        assert main(["oracle", "answers", str(italy_file), "--q",
                     str(query_file)]) == 0
        oracle_out = json.loads(capsys.readouterr().out)
        assert main(["query", str(italy_file), "--q", str(query_file),
                     "--json"]) == 0
        engine_out = json.loads(capsys.readouterr().out)
        assert oracle_out == engine_out


class TestOracleBounds:
    """Both oracle subcommands refuse a KB past the individual, set or
    relation bound (exit 3, ``oracle check``'s message), and a negative
    bound is a usage error (exit 2).  The assignment-space bound is
    ``oracle check``'s only."""

    @pytest.mark.parametrize("flags, code, message", [
        (["--max-individuals", "0"], 3, "2 individuals exceed the bound 0"),
        (["--max-set1", "0"], 3,
         "1 set and 0 relation variables exceed the bounds 0/2"),
        (["--max-individuals", "-1"], 2,
         "individual bound must be at least 0, got -1"),
        (["--max-set1", "-1"], 2, "set bound must be at least 0, got -1"),
        (["--max-set3", "-2"], 2,
         "relation bound must be at least 0, got -2"),
        (["--max-set3", "-1", "--max-individuals", "0"], 2,
         "relation bound must be at least 0, got -1"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    @pytest.mark.parametrize("command", ["check", "answers"])
    def test_refused(self, command, flags, code, message, tmp_path, capsys):
        kb = tmp_path / "two.4lqs"
        kb.write_text("lit (in a A)\nlit (in b A)\n")
        q = tmp_path / "q.query"
        q.write_text("(in ?x A)\n")
        argv = ["oracle", command, str(kb), *flags]
        if command == "answers":
            argv += ["--q", str(q)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_answers_needs_no_state_space_bound(self, tmp_path, capsys):
        """4 individuals, 3 sets and 2 relations are within the default
        size bounds, but 2^44 assignments are past ``oracle check``'s."""
        kb = tmp_path / "wide.4lqs"
        kb.write_text("ind a b c d\nlit (in a A)\nlit (in b B)\n"
                      "lit (in c C)\nlit (rel a b R)\nlit (rel c d S)\n")
        q = tmp_path / "q.query"
        q.write_text("(rel ?x ?y R)\n")
        assert main(["oracle", "check", str(kb)]) == 3
        assert capsys.readouterr().err == ("error: assignment space 2^44 "
                                           "exceeds max_states\n")
        assert main(["oracle", "answers", str(kb), "--q", str(q)]) == 0
        assert json.loads(capsys.readouterr().out) == {"answers": [
            {"map0": {"?x": "a", "?y": "b"}, "map1": {}, "map3": {},
             "merges": {}}]}


class TestBench:
    def test_csv_to_stdout(self, capsys):
        assert main(["bench", "--individuals", "1", "--clauses", "1"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("engine,family,individuals")
        assert len(lines) == 4

    def test_csv_file_and_json(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        assert main(["bench", "--individuals", "1", "--clauses", "1",
                     "--csv", str(csv_path), "--json-out", str(json_path),
                     "--engines", "keg,ke"]) == 0
        rows = json.loads(json_path.read_text())["rows"]
        assert {r["engine"] for r in rows} == {"keg", "ke"}
        assert csv_path.read_text().startswith("engine,")

    @pytest.mark.parametrize("flag", ["--csv", "--json-out"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_is_a_usage_error(self, flag, where, tmp_path,
                                                 capsys):
        """Exit 2 with one ``error:`` line, before the benchmark runs (it
        would print progress on stderr and CSV on stdout)."""
        path = (tmp_path if where == "directory"
                else tmp_path / "missing" / "x.out")
        assert main(["bench", "--individuals", "1", "--engines", "keg",
                     flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


# A small ontology for ``translate``, in the shape perfbench's
# ontology-query translates: functional and irreflexive roles, some/all.
_FUZZ_DL = ("fun R\nirref S\nsome R A B\nall B S A\nrole a b R\n"
            "role b c S\nassert c A\nassert a B\n")
_MUTATIONS = ("truncate", "swap", "drop", "nest")
_DEPTHS = (1, 2, 40, 1500)
# Limits a run can honour, and at most one value per run that is a usage
# error.  At most two workers: each one is a forked process.
_LIMIT_VALUES = {
    "--max-branches": (None, "0", "1", "7", str(10 ** 30)),
    "--max-seconds": (None, "0", "1e-9", "5", "inf"),
    "--workers": (None, "1", "2"),
}
_ODD_LIMITS = (("--max-branches", "-1"), ("--max-branches", "1e3"),
               ("--max-branches", "x"), ("--max-seconds", "-1"),
               ("--max-seconds", "nan"), ("--max-seconds", "x"),
               ("--workers", "0"), ("--workers", "-2"), ("--workers", "x"))
_THREAD_CAPS = ("", "1", "2", "64", "0", "-1", "abc")


def _fuzz_mutant(text: str, how: str, at: int, other: int, depth: int,
                 line: Tuple[str, str, str]) -> str:
    """``text`` as it is, truncated, with two tokens swapped or one
    dropped, or with the line ``head atom tail`` appended, its atom under
    ``depth`` nested ``not``s."""
    if how == "none":
        return text
    if how == "truncate":
        return text[:at % (len(text) + 1)]
    if how == "nest":
        head, atom, tail = line
        return text + head + "(not " * depth + atom + ")" * depth + tail
    toks = re.findall(r"\n|\(|\)|[^\s()]+", text)
    i, j = at % len(toks), other % len(toks)
    if how == "swap":
        toks[i], toks[j] = toks[j], toks[i]
    else:
        del toks[i]
    return " ".join(toks)


class TestMainFuzz:
    """``cli.main`` on random KBs, equality included, and mutants of them
    and of a DL ontology, with odd limit and worker-cap values, for
    ``check``, ``models``, ``query`` and ``translate``: only the
    documented exit codes 0-3 come back, never 4 (an internal error such
    as an ``IndexError`` from a literal outside the explorer's mark list),
    and no traceback is printed.  Every choice but the command is drawn
    from the seed: a run mutates its input, adds a usage error or caps
    the workers with odds of 1 in 5 each."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           command=st.sampled_from(("check", "models", "task", "q",
                                    "translate")))
    def test_exit_codes(self, seed, command):
        rng = random.Random(seed)

        def odd(values):
            return rng.choice(values) if rng.random() < 0.2 else None

        how = odd(_MUTATIONS) or "none"
        at, other = rng.randrange(10 ** 4), rng.randrange(10 ** 4)
        depth = rng.choice(_DEPTHS)
        if command == "translate":
            text = _fuzz_mutant(_FUZZ_DL, how, at, other, depth,
                                ("subsume ", "A", " B\n"))
        else:
            text = _fuzz_mutant(gen_random_kb(rng), how, at, other, depth,
                                ("lit ", "(in a A)", "\n"))
        task = rng.choice((["A", "a", "R"], ["B", "a"], ["C", "a", "b"],
                           ["B"], ["E", "a"]))
        limits = {flag: rng.choice(values)
                  for flag, values in _LIMIT_VALUES.items()}
        bad = odd(_ODD_LIMITS)
        if bad:
            limits[bad[0]] = bad[1]
        cap = odd(_THREAD_CAPS)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input")
            with open(path, "w") as f:
                f.write(text)
            qpath = os.path.join(tmp, "q.query")
            with open(qpath, "w") as f:
                conjuncts = rng.choice((1, 3, 1000))
                f.write(" ".join(["(in ?x A)"] * conjuncts) + "\n")
            argv = {"check": ["check", path], "models": ["models", path],
                    "task": ["query", path, "--task", *task, "--json"],
                    "q": ["query", path, "--q", qpath],
                    "translate": ["translate", path]}[command]
            if command != "translate":
                for flag, value in limits.items():
                    if value is not None:
                        argv += [flag, value]
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                os.environ.pop("REASONER_THREADS", None)
                if cap is not None:
                    os.environ["REASONER_THREADS"] = cap
                code = main(argv)
        event(f"{command} exit {code}")
        assert code in (0, 1, 2, 3), (argv, text, err.getvalue())
        assert "Traceback" not in err.getvalue(), (argv, text)
