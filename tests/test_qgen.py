import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apes_eval import synth
from apes_eval.corpus import CorpusError, parse_document
from apes_eval.cli import main
from apes_eval.qgen import ClozeQuestion, generate_questions, load_questions
from conftest import FIG_DOC, write_jsonl
from oracles import count_sentence_entity_pairs

FIG_EXPECTED = [
    ("fig2:0:0", "@placeholder beat @entity1 1-0 in the @entity2", "@entity0"),
    ("fig2:0:1", "@entity0 beat @placeholder 1-0 in the @entity2", "@entity1"),
    ("fig2:0:2", "@entity0 beat @entity1 1-0 in the @placeholder", "@entity2"),
    ("fig2:1:3", "a goal from @placeholder secured all three points", "@entity3"),
    ("fig2:2:2", "win cuts @entity4 ' s @placeholder lead to four points", "@entity2"),
    ("fig2:2:4", "win cuts @placeholder ' s @entity2 lead to four points", "@entity4"),
]


def test_reference_summary_yields_six_exact_questions(fig_doc):
    questions = generate_questions(fig_doc)
    got = [(q.qid, " ".join(q.question), q.answer) for q in questions]
    assert got == FIG_EXPECTED
    for q in questions:
        assert q.candidates == tuple(f"@entity{k}" for k in range(5))


def test_single_entity_highlight():
    doc = parse_document(
        {
            "id": "d",
            "source": "Chelsea won .",
            "highlights": ["Chelsea won"],
            "entities": [{"id": 0, "surfaces": ["Chelsea"]}],
        }
    )
    (question,) = generate_questions(doc)
    assert " ".join(question.question) == "@placeholder won"
    assert question.answer == "@entity0"


def test_repeated_target_blanks_every_mention():
    doc = parse_document(
        {
            "id": "d",
            "source": "Kelar met Kelar .",
            "highlights": ["Kelar met Kelar ."],
            "entities": [{"id": 0, "surfaces": ["Kelar"]}],
        }
    )
    (question,) = generate_questions(doc)
    assert question.question == ("@placeholder", "met", "@placeholder")


def test_highlight_without_entities_contributes_nothing():
    doc = parse_document(
        {
            "id": "d",
            "source": "Kelar won .",
            "highlights": ["nothing capitalized here .", "Kelar scored ."],
            "entities": [{"id": 0, "surfaces": ["Kelar"]}],
        }
    )
    questions = generate_questions(doc)
    assert [q.qid for q in questions] == ["d:1:0"]


def test_multi_sentence_highlight_indexes_sentences_globally():
    doc = parse_document(
        {
            "id": "d",
            "source": "Kelar won . Vexum lost .",
            "highlights": ["Kelar won . later Vexum lost ."],
            "entities": [
                {"id": 0, "surfaces": ["Kelar"]},
                {"id": 1, "surfaces": ["Vexum"]},
            ],
        }
    )
    questions = generate_questions(doc)
    assert [q.qid for q in questions] == ["d:0:0", "d:1:1"]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_question_count_matches_brute_recount(seed):
    doc = synth.make_document("d", random.Random(seed))
    questions = generate_questions(doc)
    assert len(questions) == count_sentence_entity_pairs(doc)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_no_question_leaks_its_answer(seed):
    doc = synth.make_document("d", random.Random(seed))
    surfaces = {
        e.entity_id: {t.lower() for surf in e.surfaces for t in surf}
        for e in doc.table.entities
    }
    for q in generate_questions(doc):
        target = int(q.answer.removeprefix("@entity"))
        lowered = {t.lower() for t in q.question}
        assert q.answer not in q.question
        assert not (surfaces[target] & lowered)
        assert "@placeholder" in q.question


def test_generation_deterministic(fig_doc):
    assert generate_questions(fig_doc) == generate_questions(fig_doc)


def test_questions_jsonl_roundtrip(tmp_path, fig_doc):
    corpus_path = write_jsonl(tmp_path / "corpus.jsonl", [FIG_DOC])
    path = tmp_path / "q.jsonl"
    assert main(["qgen", "--corpus", corpus_path, "--out", str(path)]) == 0
    assert load_questions(str(path)) == generate_questions(fig_doc)


def test_load_questions_rejects_answer_outside_candidates(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text(
        '{"doc_id": "d", "qid": "d:0:0", "question": ["@placeholder", "won"],'
        ' "answer": "@entity9", "candidates": ["@entity0"]}\n'
    )
    with pytest.raises(CorpusError, match="bad question"):
        load_questions(str(path))


def test_cloze_question_invariants():
    with pytest.raises(ValueError, match="@placeholder"):
        ClozeQuestion("d", "d:0:0", ("no", "blank"), "@entity0", ("@entity0",))
