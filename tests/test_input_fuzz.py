"""Property tests of the input boundary, run through ``main()``.

Each test takes a valid input, replaces one field with an arbitrary JSON
value and runs the command. Whatever the value, the command must end with
exit code 0, 1 or 2 and print no traceback: bad input is exit 1 with a
message, never an exception out of ``main()``.
"""

import json

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
