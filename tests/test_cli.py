import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from apes_eval import apes, cli, qgen, synth
from apes_eval.cli import dumps_report, main
from apes_eval.corpus import document_to_json
from apes_eval.reader import answer_lexical, batch_reader
from conftest import FIG_DOC, write_jsonl

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def make_inputs(tmp_path, n_docs=6, seed=0, shuffle=False):
    docs = synth.make_corpus(n_docs, seed=seed)
    corpus_path = write_jsonl(tmp_path / "corpus.jsonl", [document_to_json(d) for d in docs])
    if shuffle:
        summaries = [synth.shuffled_summary(d, seed=1) for d in docs]
    else:
        summaries = [synth.reference_summary(d) for d in docs]
    sys_path = write_jsonl(
        tmp_path / "sys.jsonl",
        [{"doc_id": s.doc_id, "tokens": list(s.tokens)} for s in summaries],
    )
    questions_path = str(tmp_path / "questions.jsonl")
    assert main(["qgen", "--corpus", corpus_path, "--out", questions_path]) == 0
    return corpus_path, sys_path, questions_path


class TestQgen:
    def test_fig_fixture_writes_six_questions(self, tmp_path, capsys):
        corpus_path = write_jsonl(tmp_path / "corpus.jsonl", [FIG_DOC])
        out = tmp_path / "q.jsonl"
        assert main(["qgen", "--corpus", corpus_path, "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 6
        assert lines[0]["question"][0] == "@placeholder"

    def test_empty_corpus_ok(self, tmp_path):
        corpus_path = write_jsonl(tmp_path / "corpus.jsonl", [])
        out = tmp_path / "q.jsonl"
        assert main(["qgen", "--corpus", corpus_path, "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_default_output_is_stdout(self, tmp_path, capsys):
        corpus_path = write_jsonl(tmp_path / "corpus.jsonl", [FIG_DOC])
        assert main(["qgen", "--corpus", corpus_path]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_heuristic_fallback_warns(self, tmp_path, caplog):
        corpus_path = write_jsonl(
            tmp_path / "corpus.jsonl",
            [{"id": "p", "source": "Kelar met Vexum .", "highlights": ["Kelar met Vexum ."]}],
        )
        out = tmp_path / "q.jsonl"
        with caplog.at_level("WARNING"):
            assert main(["qgen", "--corpus", corpus_path, "--out", str(out)]) == 0
        assert "heuristic" in caplog.text
        assert len(out.read_text().splitlines()) == 2

    def test_malformed_line_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("{broken\n")
        assert main(["qgen", "--corpus", str(bad), "--out", str(tmp_path / "q.jsonl")]) == 1
        assert "corpus.jsonl:1" in capsys.readouterr().err

    def test_doc_without_questions_flagged(self, tmp_path, caplog):
        corpus_path = write_jsonl(
            tmp_path / "corpus.jsonl",
            [
                {
                    "id": "bare",
                    "source": "Kelar won .",
                    "highlights": ["no names in this highlight ."],
                    "entities": [{"id": 0, "surfaces": ["Kelar"]}],
                }
            ],
        )
        out = tmp_path / "q.jsonl"
        with caplog.at_level("WARNING"):
            assert main(["qgen", "--corpus", corpus_path, "--out", str(out)]) == 0
        assert "no questions" in caplog.text
        assert "bare" in caplog.text
        assert out.read_text() == ""

    def test_string_highlights_exit_one(self, tmp_path, capsys):
        corpus_path = write_jsonl(
            tmp_path / "corpus.jsonl",
            [FIG_DOC, {"id": "s", "source": "Kelar spoke .", "highlights": "Kelar spoke ."}],
        )
        rc = main(["qgen", "--corpus", corpus_path, "--out", str(tmp_path / "q.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "corpus.jsonl:2" in err
        assert "highlights" in err


class TestInputBoundary:
    """Each malformed field exits 1 with the offending path:line, no traceback."""

    @pytest.mark.parametrize(
        "field",
        [
            {"source": 5},
            {"highlights": [5]},
            {"entities": [1]},
            {"entities": [{"id": "0", "surfaces": ["Kelar"]}]},
            {"entities": [{"id": 0, "surfaces": "Kelar"}]},
            {"entities": [{"id": 0, "surfaces": ["Kelar"]}], "mentions": {"source": 5}},
            {"entities": [{"id": 0, "surfaces": ["Kelar"]}], "mentions": {"source": [[0, 9, 10]]}},
        ],
    )
    def test_corpus_field_exit_one(self, tmp_path, capsys, field):
        bad = dict({"id": "s", "source": "Kelar spoke .", "highlights": ["Kelar spoke ."]}, **field)
        corpus_path = write_jsonl(tmp_path / "corpus.jsonl", [FIG_DOC, bad])
        rc = main(["qgen", "--corpus", corpus_path, "--out", str(tmp_path / "q.jsonl")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "corpus.jsonl:2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", [{"tokens": 5}, {"tokens": ["a", 5]}, {"text": 5}])
    def test_summary_field_exit_one(self, tmp_path, capsys, field):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        rows = [json.loads(l) for l in open(sys_path)]
        rows[1] = {"doc_id": rows[1]["doc_id"], **field}
        bad_sys = write_jsonl(tmp_path / "bad.jsonl", rows)
        argv = ["evaluate", "--corpus", corpus_path, "--sys", bad_sys,
                "--questions", questions_path, "--out", str(tmp_path / "r.json")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "bad.jsonl:2" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("field", [{"candidates": 5}, {"question": 5}])
    def test_question_field_exit_one(self, tmp_path, capsys, field):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        rows = [json.loads(l) for l in open(questions_path)]
        rows[1].update(field)
        bad = write_jsonl(tmp_path / "bad_q.jsonl", rows)
        argv = ["evaluate", "--corpus", corpus_path, "--sys", sys_path,
                "--questions", bad, "--out", str(tmp_path / "r.json")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "bad_q.jsonl:2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["question", "candidates"])
    def test_question_object_field_exit_one(self, tmp_path, capsys, field):
        # an object used to be read as its keys, and such a question scored
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        rows = [json.loads(l) for l in open(questions_path)]
        rows[1][field] = {t: i for i, t in enumerate(rows[1][field])}
        bad = write_jsonl(tmp_path / "bad_q.jsonl", rows)
        argv = ["evaluate", "--corpus", corpus_path, "--sys", sys_path,
                "--questions", bad, "--out", str(tmp_path / "r.json")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: {bad}:2: bad question: {field} must be a JSON array\n"
        )

    def test_json_nested_past_the_recursion_limit_exit_one(self, tmp_path, capsys):
        # json raises RecursionError, which used to end in a traceback
        corpus = tmp_path / "corpus.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        corpus.write_text(json.dumps(FIG_DOC) + "\n" + '{"id": ' + deep + "}\n")
        assert main(["qgen", "--corpus", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}:2: invalid JSON: maximum recursion depth exceeded")

    def test_int_qid_is_read_as_its_string(self, tmp_path):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        rows = [json.loads(l) for l in open(questions_path)]
        reports = []
        for qid in (7, "7"):
            rows[0]["qid"] = qid
            path = write_jsonl(tmp_path / "q.jsonl", rows)
            out = tmp_path / "r.json"
            argv = ["evaluate", "--corpus", corpus_path, "--sys", sys_path,
                    "--questions", path, "--out", str(out)]
            assert main(argv) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("field", ["answer", "candidate"])
    def test_question_entity_outside_the_table_exit_one(self, tmp_path, capsys, field):
        # such a question used to be scored: @entity9 on a document without
        # it read as a wrong answer, exit 0
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        rows = [json.loads(l) for l in open(questions_path)]
        rows[3]["candidates"].append("@entity99")
        if field == "answer":
            rows[3]["answer"] = "@entity99"
        path = write_jsonl(tmp_path / "q.jsonl", rows)
        argv = ["evaluate", "--corpus", corpus_path, "--sys", sys_path, "--questions", path]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: question {rows[3]['qid']!r}: '@entity99' is not an entity "
            f"of document {rows[3]['doc_id']!r}\n"
        )


class TestEvaluate:
    def test_reference_as_system_oracle_is_perfect(self, tmp_path):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        out = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", sys_path,
                "--questions", questions_path,
                "--reader", "oracle",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["apes"]["overall"] == 1.0
        assert report["apes"]["macro"] == 1.0
        for variant in ("r1", "r2", "rl", "rsu4"):
            assert report["rouge"][variant]["f1"] == 1.0
        assert report["n_docs"] == 6
        assert report["n_questions"] > 0

    def test_shuffled_keeps_r1_lowers_r2_and_apes(self, tmp_path):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path, seed=4)
        _, shuffled_sys, _ = make_inputs(tmp_path, seed=4, shuffle=True)
        reports = {}
        for name, path in (("plain", sys_path), ("shuffled", shuffled_sys)):
            out = tmp_path / f"{name}.json"
            assert main(
                [
                    "evaluate",
                    "--corpus", corpus_path,
                    "--sys", path,
                    "--questions", questions_path,
                    "--reader", "lexical",
                    "--out", str(out),
                ]
            ) == 0
            reports[name] = json.loads(out.read_text())
        assert reports["shuffled"]["rouge"]["r1"]["f1"] == 1.0
        assert reports["shuffled"]["rouge"]["r2"]["f1"] < 1.0
        assert (
            reports["shuffled"]["apes"]["overall"] <= reports["plain"]["apes"]["overall"]
        )

    def test_missing_summary_warns_and_scores_incorrect(self, tmp_path, caplog):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        kept = [json.loads(l) for l in open(sys_path)][1:]
        partial_sys = write_jsonl(tmp_path / "partial.jsonl", kept)
        out = tmp_path / "report.json"
        with caplog.at_level("WARNING"):
            rc = main(
                [
                    "evaluate",
                    "--corpus", corpus_path,
                    "--sys", partial_sys,
                    "--questions", questions_path,
                    "--reader", "oracle",
                    "--out", str(out),
                ]
            )
        assert rc == 0
        report = json.loads(out.read_text())
        first_doc = sorted(report["apes"]["per_doc"])[0]
        assert report["apes"]["per_doc"][first_doc]["correct"] == 0
        assert "without a summary" in caplog.text

    def test_unknown_summary_id_errors(self, tmp_path, capsys):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        rows = [json.loads(l) for l in open(sys_path)]
        rows[0]["doc_id"] = "ghost"
        bad_sys = write_jsonl(tmp_path / "bad.jsonl", rows)
        rc = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", bad_sys,
                "--questions", questions_path,
                "--reader", "oracle",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1
        assert "ghost" in capsys.readouterr().err

    def test_external_reader_gold_stub(self, tmp_path):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        stub = tmp_path / "stub.py"
        stub.write_text(
            textwrap.dedent(
                """
                import json, sys
                for line in sys.stdin:
                    req = json.loads(line)
                    # a candidate present in the context; mimics a sound reader
                    present = [c for c in req["candidates"] if c in req["context"]]
                    print(json.dumps({"qid": req["qid"], "answer": present[0] if present else None}))
                """
            )
        )
        out = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", sys_path,
                "--questions", questions_path,
                "--reader", "external",
                "--reader-cmd", f"{sys.executable} {stub}",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert 0.0 <= report["apes"]["overall"] <= 1.0

    def test_external_gold_stub_scores_perfect(self, tmp_path):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        stub = tmp_path / "gold_stub.py"
        stub.write_text(
            textwrap.dedent(
                """
                import json, sys
                for line in sys.stdin:
                    req = json.loads(line)
                    # qids are "<doc>:<sentence>:<entity id>"
                    entity = req["qid"].rsplit(":", 1)[1]
                    print(json.dumps({"qid": req["qid"], "answer": f"@entity{entity}"}))
                """
            )
        )
        out = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", sys_path,
                "--questions", questions_path,
                "--reader", "external",
                "--reader-cmd", f"{sys.executable} {stub}",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["apes"]["overall"] == 1.0

    def test_external_reader_answering_twice_exits_one(self, tmp_path, capsys):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        stub = tmp_path / "twice_stub.py"
        stub.write_text(
            textwrap.dedent(
                """
                import json, sys
                for i, line in enumerate(sys.stdin):
                    req = json.loads(line)
                    print(json.dumps({"qid": req["qid"], "answer": None}))
                    if i == 0:
                        print(json.dumps({"qid": req["qid"], "answer": req["candidates"][0]}))
                """
            )
        )
        rc = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", sys_path,
                "--questions", questions_path,
                "--reader", "external",
                "--reader-cmd", f"{sys.executable} {stub}",
                "--out", str(tmp_path / "report.json"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "a second time" in err and "line 2" in err
        assert not (tmp_path / "report.json").exists()

    def run_external(self, tmp_path, body, refs_missing_a_document=False):
        """Run evaluate with the reader script `body`; return its exit code and
        the report path. With refs_missing_a_document, ROUGE lacks one
        document's reference and fails while the reader answers."""
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        stub = tmp_path / "reader_stub.py"
        stub.write_text(textwrap.dedent(body))
        out = tmp_path / "report.json"
        argv = [
            "evaluate",
            "--corpus", corpus_path,
            "--sys", sys_path,
            "--questions", questions_path,
            "--reader", "external",
            "--reader-cmd", f"{sys.executable} {stub}",
            "--out", str(out),
        ]
        if refs_missing_a_document:
            refs = tmp_path / "refs.jsonl"
            refs.write_text("".join(pathlib.Path(sys_path).read_text().splitlines(True)[1:]))
            argv += ["--refs", str(refs)]
        return main(argv), out

    def test_external_reader_writing_past_pipe_buffers_finishes(self, tmp_path, caplog):
        # more than 64 KB on each of stdout and stderr: a reader that waited
        # on a full pipe while evaluate waited on the reader would hang
        body = """
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"qid": req["qid"], "answer": req["candidates"][0]}))
            print(" " * 70_000)
            sys.stderr.write("x" * 70_000)
            """
        with caplog.at_level("INFO"):
            rc, out = self.run_external(tmp_path, body)
        assert rc == 0
        assert json.loads(out.read_text())["n_questions"] > 0
        assert "wrote to stderr: " + "x" * 500 in caplog.text

    def test_reader_error_wins_over_rouge_error(self, tmp_path, capsys):
        rc, out = self.run_external(
            tmp_path, "import sys; sys.stdin.read(); sys.exit(3)", refs_missing_a_document=True
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: external reader exited with status 3")
        assert "no reference available" not in err
        assert not out.exists()

    def test_rouge_error_reaps_the_reader(self, tmp_path, capsys):
        pid_file = tmp_path / "reader.pid"
        rc, out = self.run_external(
            tmp_path,
            f"""
            import json, os, sys
            with open({str(pid_file)!r}, "w") as handle:
                handle.write(str(os.getpid()))
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({{"qid": req["qid"], "answer": None}}))
            """,
            refs_missing_a_document=True,
        )
        assert rc == 1
        assert "no reference available" in capsys.readouterr().err
        # waitpid raises once the child is reaped; a zombie or a running
        # reader would still be this process's child
        with pytest.raises(ChildProcessError):
            os.waitpid(int(pid_file.read_text()), os.WNOHANG)
        assert not out.exists()

    @pytest.mark.parametrize(
        "written, where",
        [
            (b'\xff\xfe{"qid"\n', "output line 1"),
            # "\r\n" and a lone "\r" end a line, as in text mode
            (b"\r\n\r\xff\n", "output line 3"),
        ],
        ids=["first line", "after carriage returns"],
    )
    def test_reader_output_that_is_not_text_names_reader_and_line(
        self, tmp_path, capsys, written, where
    ):
        body = f"import sys; sys.stdin.read(); sys.stdout.buffer.write({written!r})"
        rc, out = self.run_external(tmp_path, body)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: external reader {where} is not valid ")
        assert "reader_stub.py" in err
        assert "codec can't" not in err
        assert not out.exists()

    def test_reader_stderr_that_is_not_text_names_reader(self, tmp_path, capsys):
        body = "import sys; sys.stdin.read(); sys.stderr.buffer.write(b'\\xff')"
        rc, out = self.run_external(tmp_path, body)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: external reader stderr is not valid ")
        assert "reader_stub.py" in err
        assert not out.exists()

    def test_external_requires_command(self, tmp_path, capsys):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        rc = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", sys_path,
                "--questions", questions_path,
                "--reader", "external",
            ]
        )
        assert rc == 1
        assert "reader-cmd" in capsys.readouterr().err

    def test_reader_dropping_an_answer_exits_two(self, tmp_path, capsys, monkeypatch):
        # only an in-process reader can break the one-answer-per-request
        # invariant, so it is an internal error, not an input error
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        lexical = batch_reader(answer_lexical)

        def resolve(name, command, threads):
            return lambda requests: lexical(requests)[:-1]

        monkeypatch.setattr(cli, "_resolve_reader", resolve)
        out = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", sys_path,
                "--questions", questions_path,
                "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("internal error: reader returned a different number of answers")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_external_reader_output_splits_on_newline_only(self, tmp_path, char):
        # str.splitlines() breaks at these three, and JSON leaves them raw
        # inside strings: a qid holding one must not split its answer line
        docs = synth.make_corpus(3, seed=0)
        rows = [document_to_json(d) for d in docs]
        sys_rows = [{"doc_id": d.id, "tokens": list(synth.reference_summary(d).tokens)} for d in docs]
        rows[0]["id"] = sys_rows[0]["doc_id"] = f"doc{char}zero"
        corpus_path = write_jsonl(tmp_path / "corpus.jsonl", rows)
        sys_path = write_jsonl(tmp_path / "sys.jsonl", sys_rows)
        questions_path = str(tmp_path / "questions.jsonl")
        assert main(["qgen", "--corpus", corpus_path, "--out", questions_path]) == 0
        stub = tmp_path / "echo_stub.py"
        stub.write_text(
            textwrap.dedent(
                """
                import json, sys
                for line in sys.stdin:
                    req = json.loads(line)
                    answer = {"qid": req["qid"], "answer": req["candidates"][0]}
                    print(json.dumps(answer, ensure_ascii=sys.argv[1] == "ascii"))
                """
            )
        )
        reports = []
        for escaping in ("ascii", "raw"):
            out = tmp_path / f"report_{escaping}.json"
            rc = main(
                [
                    "evaluate",
                    "--corpus", corpus_path,
                    "--sys", sys_path,
                    "--questions", questions_path,
                    "--reader", "external",
                    "--reader-cmd", f"{sys.executable} {stub} {escaping}",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert f"doc{char}zero".encode() in reports[0]

    def test_refs_override(self, tmp_path):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        sys_rows = [json.loads(l) for l in open(sys_path)]
        refs_path = write_jsonl(tmp_path / "refs.jsonl", sys_rows)
        out = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", sys_path,
                "--questions", questions_path,
                "--reader", "oracle",
                "--refs", refs_path,
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["rouge"]["r2"]["f1"] == 1.0

    def test_multi_ref_average_differs_from_max(self, tmp_path):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path, n_docs=3)
        sys_rows = [json.loads(l) for l in open(sys_path)]
        # second reference per doc is unrelated, so "average" drags scores down
        refs_path = write_jsonl(
            tmp_path / "refs.jsonl",
            sys_rows + [{"doc_id": r["doc_id"], "text": "unrelated text ."} for r in sys_rows],
        )
        scores = {}
        for strategy in ("max", "average"):
            out = tmp_path / f"report-{strategy}.json"
            rc = main(
                [
                    "evaluate",
                    "--corpus", corpus_path,
                    "--sys", sys_path,
                    "--questions", questions_path,
                    "--reader", "oracle",
                    "--refs", refs_path,
                    "--multi-ref", strategy,
                    "--out", str(out),
                ]
            )
            assert rc == 0
            scores[strategy] = json.loads(out.read_text())["rouge"]["r1"]["f1"]
        assert scores["max"] == 1.0
        assert scores["average"] < 1.0

    def test_byte_identical_reruns_across_thread_counts(self, tmp_path, monkeypatch):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path, n_docs=10)
        outputs = []
        for threads in ("1", "4", "1"):
            monkeypatch.setenv("APES_EVAL_THREADS", threads)
            out = tmp_path / f"report-{len(outputs)}.json"
            rc = main(
                [
                    "evaluate",
                    "--corpus", corpus_path,
                    "--sys", sys_path,
                    "--questions", questions_path,
                    "--reader", "lexical",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_duplicate_qid_exit_one(self, tmp_path, capsys):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        lines = open(questions_path).read().splitlines()
        with open(questions_path, "a") as handle:
            handle.write(lines[0] + "\n")
        rc = main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", sys_path,
                "--questions", questions_path,
                "--out", str(tmp_path / "report.json"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"questions.jsonl:{len(lines) + 1}" in err
        assert "duplicate qid" in err

    def test_build_report_anonymizes_each_summary_once(self, monkeypatch):
        docs = synth.make_corpus(6, seed=3)
        summaries = [synth.reference_summary(d) for d in docs]
        questions = [q for d in docs for q in qgen.generate_questions(d)]
        calls = []
        original = apes.anonymize_free_text

        def counting(tokens, table):
            calls.append(tuple(tokens))
            return original(tokens, table)

        monkeypatch.setattr(apes, "anonymize_free_text", counting)
        cli.build_report(
            docs, summaries, questions, batch_reader(answer_lexical), cli._references(docs, None)
        )
        assert sorted(calls) == sorted(s.tokens for s in summaries)

    def test_report_roundtrip_stable(self, tmp_path):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path)
        out = tmp_path / "report.json"
        main(
            [
                "evaluate",
                "--corpus", corpus_path,
                "--sys", sys_path,
                "--questions", questions_path,
                "--reader", "lexical",
                "--out", str(out),
            ]
        )
        text = out.read_text()
        assert dumps_report(json.loads(text)) == text


class TestDecodeDemo:
    def write_model(self, tmp_path, saliency=None):
        low = -1e9
        obj = {
            "vocab": ["a", "b", "</s>"],
            "eos": "</s>",
            "t_x": 2,
            "steps": {
                "": {"logp": {"a": 0.0, "b": low, "</s>": low}, "attn": [1.0, 0.0]},
                "a": {"logp": {"b": 0.0, "a": low, "</s>": low}, "attn": [1.0, 0.0]},
                "a b": {"logp": {"</s>": 0.0, "a": low, "b": low}, "attn": [0.0, 1.0]},
            },
        }
        if saliency is not None:
            obj["saliency"] = saliency
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_forced_sequence_with_breakdown(self, tmp_path, capsys):
        model = self.write_model(tmp_path, saliency=[1.0, 0.0])
        rc = main(["decode-demo", model, "--width", "2", "--max-len", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tokens: a b" in out
        for field in ("score:", "logp:", "lp:", "cp:", "ep:"):
            assert field in out

    def test_beam_equals_exhaustive_output(self, tmp_path, capsys):
        model = self.write_model(tmp_path, saliency=[0.5, 0.5])
        argv = ["decode-demo", model, "--width", "9", "--max-len", "3"]
        assert main(argv) == 0
        beam_out = capsys.readouterr().out
        assert main(argv + ["--exhaustive"]) == 0
        assert capsys.readouterr().out == beam_out

    def test_exhaustive_past_the_recursion_limit(self, tmp_path, capsys):
        # one content token: the search space is 1, but the walk is 2000 deep
        path = tmp_path / "one_token.json"
        path.write_text(json.dumps({"vocab": ["a", "</s>"], "eos": "</s>", "t_x": 1}))
        argv = ["decode-demo", str(path), "--gamma", "0", "--max-len", "2000"]
        assert main(argv + ["--exhaustive"]) == 0
        exhaustive_out = capsys.readouterr().out
        assert main(argv + ["--width", "1"]) == 0
        beam_out = capsys.readouterr().out
        assert exhaustive_out.splitlines()[:2] == beam_out.splitlines()[:2]
        assert exhaustive_out.startswith("tokens: ")

    def test_gamma_without_saliency_errors(self, tmp_path, capsys):
        model = self.write_model(tmp_path)
        rc = main(["decode-demo", model, "--gamma", "0.5"])
        assert rc == 1
        assert "saliency" in capsys.readouterr().err

    def test_invalid_model_errors(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text("{}")
        assert main(["decode-demo", str(path)]) == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.update(steps=[1]),
            lambda m: m["steps"][""]["logp"].update(a="zero"),
            lambda m: m.update(saliency=5),
        ],
        ids=["steps list", "logp string", "saliency number"],
    )
    def test_bad_model_field_exit_one(self, tmp_path, capsys, edit):
        path = pathlib.Path(self.write_model(tmp_path, saliency=[1.0, 0.0]))
        model = json.loads(path.read_text())
        edit(model)
        path.write_text(json.dumps(model))
        rc = main(["decode-demo", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "model.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"vocab": {"a": 0, "b": 1, "</s>": 2}, "eos": "</s>", "t_x": 1},
             "vocab must be a JSON array of tokens"),
            ({"vocab": "ab", "eos": "b", "t_x": 1}, "vocab must be a JSON array of tokens"),
            ({"vocab": ["a", "b", "</s>"], "eos": "</s>", "t_x": 2, "saliency": "01"},
             "saliency must be a JSON array of numbers or null"),
        ],
        ids=["vocab object", "vocab string", "saliency string"],
    )
    def test_model_field_read_by_iteration_exit_one(self, tmp_path, capsys, model, message):
        # an object or string used to be read as its keys or characters, exit 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["decode-demo", str(path), "--gamma", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_json_nested_past_the_recursion_limit_exit_one(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"vocab": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["decode-demo", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: maximum recursion depth exceeded")

    def test_null_saliency_still_loads(self, tmp_path, capsys):
        path = pathlib.Path(self.write_model(tmp_path))
        assert main(["decode-demo", str(path), "--gamma", "0"]) == 0
        expected = capsys.readouterr().out
        model = json.loads(path.read_text())
        model["saliency"] = None
        path.write_text(json.dumps(model))
        assert main(["decode-demo", str(path), "--gamma", "0"]) == 0
        assert capsys.readouterr().out == expected

    def test_string_t_x_still_loads(self, tmp_path, capsys):
        path = pathlib.Path(self.write_model(tmp_path, saliency=[1.0, 0.0]))
        assert main(["decode-demo", str(path)]) == 0
        expected = capsys.readouterr().out
        model = json.loads(path.read_text())
        model["t_x"] = "2"
        path.write_text(json.dumps(model))
        assert main(["decode-demo", str(path)]) == 0
        assert capsys.readouterr().out == expected


    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["steps"][""]["logp"].update(a=math.nan),
            lambda m: m["steps"]["a"].update(attn=[math.nan, 0.0]),
        ],
        ids=["nan logp", "nan attention"],
    )
    def test_nan_model_exit_one(self, tmp_path, capsys, edit):
        # json writes and reads a bare NaN; such a model used to print `score: nan`
        path = pathlib.Path(self.write_model(tmp_path, saliency=[1.0, 0.0]))
        model = json.loads(path.read_text())
        edit(model)
        path.write_text(json.dumps(model))
        rc = main(["decode-demo", str(path), "--width", "2", "--max-len", "4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert "Traceback" not in captured.err

    def test_non_string_winning_token_exit_one(self, tmp_path, capsys):
        # the winner's tokens are joined for printing; an int token used to
        # end in a TypeError traceback
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"vocab": [1, 2, "</s>"], "eos": "</s>", "t_x": 1}))
        assert main(["decode-demo", str(path), "--gamma", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: the winning sequence holds the non-string token 1\n"

    @pytest.mark.parametrize(
        "vocab, eos", [(["a", "b", 0], 0), (["a", 7, "</s>"], "</s>")], ids=["int eos", "int loses"]
    )
    def test_non_string_token_that_never_wins_still_runs(self, tmp_path, capsys, vocab, eos):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"vocab": vocab, "eos": eos, "t_x": 1}))
        assert main(["decode-demo", str(path), "--gamma", "0"]) == 0
        assert capsys.readouterr().out == (
            "tokens: a\nscore: -2.197225\nlogp: -2.197225\n"
            "lp: 1.000000\ncp: 0.000000\nep: 0.000000\n"
        )

    def test_minus_infinity_logp_still_loads(self, tmp_path, capsys):
        # a -Infinity log-probability is a probability of 0, a valid distribution
        path = pathlib.Path(self.write_model(tmp_path, saliency=[1.0, 0.0]))
        model = json.loads(path.read_text())
        model["steps"][""]["logp"].update(b=-math.inf)
        model["steps"]["a"]["logp"].update({"</s>": -math.inf})
        model["steps"]["a b"]["logp"].update(a=-math.inf)
        path.write_text(json.dumps(model))
        assert "-Infinity" in path.read_text()
        assert main(["decode-demo", str(path), "--width", "2", "--max-len", "4"]) == 0
        assert capsys.readouterr().out == (
            "tokens: a b\nscore: -0.500000\nlogp: 0.000000\n"
            "lp: 1.148820\ncp: 0.500000\nep: 0.000000\n"
        )

    @pytest.fixture(scope="class")
    def toy_model(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("toy") / "toy.json"
        script = SRC.parent / "scripts" / "make_toy_model.py"
        subprocess.run(
            [sys.executable, str(script), "--out", str(out), "--max-len", "4"],
            check=True, capture_output=True, timeout=60,
        )
        return str(out)

    # Each of these exited 0 with a NaN or infinite score, or a winner
    # that ignored the saliency charge.
    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--alpha", "nan"], "alpha"),
            (["--beta", "inf", "--gamma", "0"], "beta"),
            (["--gamma", "nan"], "gamma"),
            (["--gamma", "inf"], "gamma"),
        ],
        ids=["alpha nan", "beta inf", "gamma nan", "gamma inf"],
    )
    def test_non_finite_penalty_exit_one(self, toy_model, capsys, flags, name):
        assert main(["decode-demo", toy_model, "--max-len", "4", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be finite")


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert main(["gradcheck", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_deterministic_output(self, capsys):
        main(["gradcheck", "--seed", "3", "--trials", "5"])
        first = capsys.readouterr().out
        main(["gradcheck", "--seed", "3", "--trials", "5"])
        assert capsys.readouterr().out == first

    def test_zero_trials_usage_error(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == 1


class TestCorrelate:
    def test_matrix_and_pairs(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "unit,r1,apes\nu1,0.1,0.2\nu2,0.5,0.9\nu3,0.3,0.45\nu4,0.9,1.0\n"
        )
        out = tmp_path / "matrix.csv"
        assert main(["correlate", str(scores), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,r1,apes"
        assert "pearson(r1, apes)" in capsys.readouterr().out

    def test_duplicate_column_unit_offdiagonal(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("unit,a,b\nu1,0.1,0.1\nu2,0.4,0.4\nu3,0.9,0.9\n")
        out = tmp_path / "matrix.csv"
        assert main(["correlate", str(scores), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == "1.000000"

    def test_constant_column_errors_with_name(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("unit,good,flat\nu1,0.1,7\nu2,0.5,7\n")
        assert main(["correlate", str(scores)]) == 1
        assert "flat" in capsys.readouterr().err

    def test_grouping_aggregates_first(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "unit,m1,m2\nu1,0.0,0.0\nu2,0.2,0.1\nu3,0.8,0.9\nu4,0.6,0.7\n"
        )
        groups = tmp_path / "groups.csv"
        groups.write_text("unit,system\nu1,s1\nu2,s1\nu3,s2\nu4,s2\n")
        out = tmp_path / "matrix.csv"
        assert main(["correlate", str(scores), "--grouping", str(groups), "--out", str(out)]) == 0
        assert out.exists()


    @pytest.mark.parametrize(
        "rows, message",
        [
            # a nan cell used to read as pearson(a, b) = 1.000000, exit 0
            ("x,1,2\ny,2,nan\nz,3,1\n", "scores.csv:3: scores must be finite"),
            ("x,1,2\ny,2,inf\nz,3,1\n", "scores.csv:3: scores must be finite"),
            # the variance of a overflowed to inf and r read as 0.000000, exit 0
            ("x,1e200,2\ny,-1e200,1\nz,3,5\n", "a vs b: sums and variances must be finite"),
            ("x,1e308,2\ny,1e308,1\nz,3,1\n", "a vs b: sums and variances must be finite"),
            # the product of the variances underflowed to 0: a ZeroDivisionError traceback
            ("x,1e-160,2e-160\ny,-1e-160,1e-160\nz,3e-160,5e-160\n", "a vs b: undefined correlation"),
            # the product of two finite variances overflowed and r read as -0.000000, exit 0
            ("x,1e80,1e80\ny,-1e80,2e80\nz,3e80,5e79\n", "a vs b: the product of the variances overflows"),
            ("x,1,2\ny," + "1" * 131073 + ",1\nz,3,1\n", "scores.csv:3: field larger than field limit"),
        ],
        ids=[
            "nan", "inf", "variance overflow", "sum overflow", "variance underflow",
            "variance product overflow", "long field",
        ],
    )
    def test_unusable_scores_exit_one(self, tmp_path, capsys, rows, message):
        scores = tmp_path / "scores.csv"
        scores.write_text("unit,a,b\n" + rows)
        assert main(["correlate", str(scores)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_repeated_metric_names_header_line(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("unit,a,a\nx,1,2\ny,2,3\nz,3,1\n")
        assert main(["correlate", str(scores)]) == 1
        assert capsys.readouterr().err == f"error: {scores}:1: duplicate metric names ['a']\n"

    @pytest.mark.parametrize("which", ["scores", "grouping"])
    def test_non_utf8_csv_names_the_file(self, tmp_path, capsys, which):
        scores = tmp_path / "scores.csv"
        scores.write_text("unit,a,b\nx,1,2\ny,2,3\nz,3,1\n")
        groups = tmp_path / "groups.csv"
        groups.write_text("unit,system\nx,s1\ny,s1\nz,s2\n")
        bad = scores if which == "scores" else groups
        bad.write_bytes(bad.read_bytes() + b"w,\xff\n")
        assert main(["correlate", str(scores), "--grouping", str(groups)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err

    def test_grouping_mean_overflow_exit_one(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("unit,a,b\nx,1e308,2\ny,1e308,1\nz,3,1\n")
        groups = tmp_path / "groups.csv"
        groups.write_text("unit,system\nx,s1\ny,s1\nz,s2\n")
        assert main(["correlate", str(scores), "--grouping", str(groups)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: system 's1': intermediate overflow")
        assert "Traceback" not in err


def run_probe(argv, tmp_path):
    """Run `main(argv)` in a fresh interpreter, or only import the CLI when
    argv is None; return the exit code and the names of the modules loaded
    after start-up (`site` may load some, such as tempfile, before)."""
    probe = tmp_path / "probe.json"
    code = textwrap.dedent(
        f"""
        import sys
        preloaded = set(sys.modules)
        import json
        from apes_eval.cli import main
        argv = {argv!r}
        rc = None if argv is None else main(argv)
        with open({str(probe)!r}, "w") as handle:
            json.dump([rc, sorted(set(sys.modules) - preloaded)], handle)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(probe.read_text())
    return rc, set(modules)


def package_modules(modules):
    return {m for m in modules if m == "apes_eval" or m.startswith("apes_eval.")}


class TestUsage:
    """Each subcommand imports the package modules it runs and no others."""

    def test_import_leaves_numpy_unloaded(self, tmp_path):
        _, modules = run_probe(None, tmp_path)
        assert "numpy" not in modules

    def test_import_loads_only_the_cli(self, tmp_path):
        _, modules = run_probe(None, tmp_path)
        assert package_modules(modules) == {"apes_eval", "apes_eval.cli"}

    def test_decode_demo_leaves_numpy_unloaded(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"vocab": ["a", "b", "</s>"], "eos": "</s>", "t_x": 2}))
        argv = ["decode-demo", str(model), "--gamma", "0", "--out", str(tmp_path / "out.txt")]
        rc, modules = run_probe(argv, tmp_path)
        assert rc == 0
        assert "numpy" not in modules
        assert package_modules(modules) == {"apes_eval", "apes_eval.cli", "apes_eval.decode"}

    def test_correlate_loads_only_stats(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("unit,a,b\nx,1,2\ny,2,1\nz,3,5\n")
        rc, modules = run_probe(["correlate", str(scores), "--out", str(tmp_path / "m.csv")], tmp_path)
        assert rc == 0
        assert package_modules(modules) == {"apes_eval", "apes_eval.cli", "apes_eval.stats"}

    def test_qgen_loads_only_corpus_and_qgen(self, tmp_path):
        corpus_path = write_jsonl(tmp_path / "corpus.jsonl", [FIG_DOC])
        argv = ["qgen", "--corpus", corpus_path, "--out", str(tmp_path / "q.jsonl")]
        rc, modules = run_probe(argv, tmp_path)
        assert rc == 0
        assert package_modules(modules) == {
            "apes_eval", "apes_eval.cli", "apes_eval.corpus", "apes_eval.qgen"
        }

    def test_lexical_evaluate_leaves_subprocess_unloaded(self, tmp_path):
        corpus_path, sys_path, questions_path = make_inputs(tmp_path, n_docs=2)
        argv = ["evaluate", "--corpus", corpus_path, "--sys", sys_path,
                "--questions", questions_path, "--out", str(tmp_path / "r.json")]
        rc, modules = run_probe(argv, tmp_path)
        assert rc == 0
        assert not {"subprocess", "shlex", "tempfile"} & modules

    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["qgen"]) == 1
