"""Property tests of the input boundary, run through ``main()``.

Each test takes a valid input, replaces one field (a JSONL field, a CSV
cell, or one line of an external reader's output) with an arbitrary value
and runs the command. Whatever the value, the command must end with
exit code 0, 1 or 2 and print no traceback: bad input is exit 1 with a
message, never an exception out of ``main()``.
"""

import json
import shlex
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apes_eval import synth
from apes_eval.cli import main
from apes_eval.corpus import document_to_json
from conftest import write_jsonl

# Integers are small or beyond 64 bits. A count in between is honoured as
# given: a step model's t_x of 10**9 would allocate gigabytes.
_INTS = (
    st.integers(-1000, 1000)
    | st.integers(2**64, 10**400)
    | st.integers(-(10**400), -(2**64))
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | _INTS
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["@placeholder", "@entity0", "@entity1", "a", "</s>"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _run(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def evaluate_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz_questions")
    docs = synth.make_corpus(3, seed=0)
    corpus_path = write_jsonl(tmp / "corpus.jsonl", [document_to_json(d) for d in docs])
    sys_path = write_jsonl(
        tmp / "sys.jsonl",
        [{"doc_id": d.id, "tokens": list(synth.reference_summary(d).tokens)} for d in docs],
    )
    questions_path = tmp / "questions.jsonl"
    assert main(["qgen", "--corpus", corpus_path, "--out", str(questions_path)]) == 0
    rows = [json.loads(line) for line in questions_path.read_text().splitlines()]
    return tmp, corpus_path, sys_path, rows


@FUZZ
@given(
    line=st.integers(0, 2),
    field=st.sampled_from(["doc_id", "qid", "question", "answer", "candidates"]),
    value=JSON_VALUES,
)
def test_questions_field_never_tracebacks(evaluate_inputs, capsys, line, field, value):
    tmp, corpus_path, sys_path, rows = evaluate_inputs
    edited = [dict(row) for row in rows]
    edited[line][field] = value
    path = write_jsonl(tmp / "fuzzed.jsonl", edited)
    _run(capsys, ["evaluate", "--corpus", corpus_path, "--sys", sys_path,
                  "--questions", path, "--out", str(tmp / "report.json")])


def _step_model() -> dict:
    low = -1e9
    return {
        "vocab": ["a", "b", "</s>"],
        "eos": "</s>",
        "t_x": 2,
        "saliency": [1.0, 0.0],
        "steps": {
            "": {"logp": {"a": 0.0, "b": low, "</s>": low}, "attn": [1.0, 0.0]},
            "a": {"logp": {"b": 0.0, "a": low, "</s>": low}, "attn": [1.0, 0.0]},
            "a b": {"logp": {"</s>": 0.0, "a": low, "b": low}, "attn": [0.0, 1.0]},
        },
    }


def _replace(model: dict, field: str, value) -> None:
    """Set a top-level field, or `logp`/`attn` of the step after "a"."""
    if field in ("logp", "attn"):
        model["steps"]["a"][field] = value
    else:
        model[field] = value


@FUZZ
@given(
    field=st.sampled_from(["vocab", "eos", "t_x", "saliency", "steps", "logp", "attn"]),
    value=JSON_VALUES,
)
def test_step_model_field_never_tracebacks(tmp_path, capsys, field, value):
    model = _step_model()
    _replace(model, field, value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    _run(capsys, ["decode-demo", str(path), "--width", "2", "--max-len", "4"])


def _corpus_rows():
    return [document_to_json(d) for d in synth.make_corpus(3, seed=0)]


def _replace_corpus_field(row: dict, field: str, value) -> None:
    """Set a top-level field, the `id` or `surfaces` of the first entity, or
    the spans of the first annotated stream."""
    if field in ("entity id", "entity surfaces"):
        row["entities"][0][field.split()[1]] = value
    elif field == "spans":
        row["mentions"][next(iter(row["mentions"]))] = value
    else:
        row[field] = value


@FUZZ
@given(
    line=st.integers(0, 2),
    field=st.sampled_from(["id", "source", "highlights", "entity id", "entity surfaces", "spans"]),
    value=JSON_VALUES,
)
def test_corpus_field_never_tracebacks(tmp_path, capsys, line, field, value):
    rows = _corpus_rows()
    _replace_corpus_field(rows[line], field, value)
    path = write_jsonl(tmp_path / "corpus.jsonl", rows)
    _run(capsys, ["qgen", "--corpus", path, "--out", str(tmp_path / "questions.jsonl")])


@FUZZ
@given(
    option=st.sampled_from(["--sys", "--refs"]),
    line=st.integers(0, 2),
    field=st.sampled_from(["doc_id", "text", "tokens"]),
    value=JSON_VALUES,
)
def test_summaries_field_never_tracebacks(evaluate_inputs, capsys, option, line, field, value):
    tmp, corpus_path, sys_path, rows = evaluate_inputs
    summaries = [json.loads(text) for text in open(sys_path, encoding="utf-8")]
    summaries[line][field] = value
    fuzzed = write_jsonl(tmp / "fuzzed_summaries.jsonl", summaries)
    questions = str(tmp / "questions.jsonl")
    argv = ["evaluate", "--corpus", corpus_path, "--sys", sys_path, "--questions", questions,
            "--out", str(tmp / "report.json")]
    if option == "--sys":
        argv[argv.index(sys_path)] = fuzzed
    else:
        argv += ["--refs", fuzzed]
    _run(capsys, argv)


# Text that CSV and JSON readers treat specially, among arbitrary text.
CELLS = st.text(max_size=12) | st.sampled_from(
    ["", "nan", "inf", "-inf", "1e999", "1_0", " 2 ", '"', '"a,b"', "a\nb", "\x00", "unit", "system"]
)


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


@FUZZ
@given(
    grouped=st.booleans(),
    which=st.sampled_from(["scores", "grouping"]),
    row=st.integers(0, 4),
    col=st.integers(0, 2),
    value=CELLS,
)
def test_csv_cell_never_tracebacks(tmp_path, capsys, grouped, which, row, col, value):
    tables = {
        "scores": [["unit", "rouge", "apes"], ["u1", "0.1", "0.3"], ["u2", "0.4", "0.2"],
                   ["u3", "0.2", "0.9"], ["u4", "0.8", "0.5"]],
        "grouping": [["unit", "system"], ["u1", "a"], ["u2", "a"], ["u3", "b"], ["u4", "b"]],
    }
    grouped = grouped or which == "grouping"
    cells = tables[which][row]
    cells[col % len(cells)] = value
    paths = {}
    for name, rows in tables.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(_csv(rows), encoding="utf-8")
    argv = ["correlate", str(paths["scores"]), "--out", str(tmp_path / "matrix.csv")]
    if grouped:
        argv += ["--grouping", str(paths["grouping"])]
    _run(capsys, argv)


# U+2028, U+2029 and U+0085 end a line for str.splitlines() but not for JSON.
LINE_TEXT = st.text(
    st.characters(codec="utf-8")
    | st.sampled_from(["\u2028", "\u2029", "\x85", "\r", "{", "}", '"', ":"]),
    max_size=20,
)
# What the reader prints in place of one answer line: any JSON value, an
# answer object with any value, any text, or bytes that may not be UTF-8.
REPLACEMENTS = (
    st.tuples(st.sampled_from(["value", "answer"]), JSON_VALUES | LINE_TEXT)
    | st.tuples(st.just("text"), LINE_TEXT)
    | st.tuples(st.just("bytes"), st.binary(max_size=20))
)


@pytest.fixture(scope="module")
def echo_reader(tmp_path_factory):
    """A reader command that prints a prepared answers file as it is."""
    tmp = tmp_path_factory.mktemp("fuzz_reader")
    stub = tmp / "echo.py"
    stub.write_text("import sys\nsys.stdout.buffer.write(open(sys.argv[1], 'rb').read())\n")
    answers = tmp / "answers.txt"
    return shlex.join([sys.executable, "-S", str(stub), str(answers)]), answers


@FUZZ
@given(line=st.integers(0, 5), replacement=REPLACEMENTS)
def test_external_reader_line_never_tracebacks(evaluate_inputs, echo_reader, capsys, line, replacement):
    tmp, corpus_path, sys_path, rows = evaluate_inputs
    command, answers_path = echo_reader
    lines = [json.dumps({"qid": r["qid"], "answer": r["candidates"][0]}).encode() for r in rows]
    kind, value = replacement
    if kind == "value":
        lines[line] = json.dumps(value, ensure_ascii=False).encode()
    elif kind == "answer":
        lines[line] = json.dumps({"qid": rows[line]["qid"], "answer": value}, ensure_ascii=False).encode()
    else:
        lines[line] = value.encode() if kind == "text" else value
    answers_path.write_bytes(b"".join(text + b"\n" for text in lines))
    _run(capsys, ["evaluate", "--corpus", corpus_path, "--sys", sys_path,
                  "--questions", str(tmp / "questions.jsonl"), "--reader", "external",
                  "--reader-cmd", command, "--out", str(tmp / "report.json")])
