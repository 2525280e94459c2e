"""Fill-in-the-blank question generation from entity-annotated highlights.

Each highlight sentence yields one question per distinct entity mentioned
in it: every mention of the target entity becomes ``@placeholder``, all
other entity mentions become their ``@entityN`` tokens, and the sentence's
trailing terminal punctuation is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import (
    PLACEHOLDER,
    SENTENCE_TERMINALS,
    CorpusError,
    Document,
    entity_token,
    iter_jsonl,
    replace_mentions,
    sentence_spans,
)


@dataclass(frozen=True)
class ClozeQuestion:
    doc_id: str
    qid: str
    question: tuple[str, ...]
    answer: str
    candidates: tuple[str, ...]

    def __post_init__(self) -> None:
        if PLACEHOLDER not in self.question:
            raise ValueError(f"question {self.qid} lacks a {PLACEHOLDER} token")
        if self.answer not in self.candidates:
            raise ValueError(f"answer {self.answer} not among candidates of {self.qid}")


def generate_questions(doc: Document) -> list[ClozeQuestion]:
    """All (sentence, distinct entity) questions of a document.

    Output order is (global sentence index, entity id); sentence indices
    run across the document's highlights in order. A highlight sentence
    with no entity mentions contributes nothing.
    """
    candidates = tuple(entity_token(e.entity_id) for e in doc.table.entities)
    questions: list[ClozeQuestion] = []
    sentence_index = 0
    for k, highlight in enumerate(doc.highlights):
        stream_mentions = doc.table.mentions.get(f"highlight_{k}", [])
        for start, end in sentence_spans(highlight):
            inside = [m for m in stream_mentions if start <= m.start and m.end <= end]
            for target in sorted({m.entity_id for m in inside}):
                blanked = replace_mentions(
                    highlight, inside,
                    lambda e: PLACEHOLDER if e == target else entity_token(e), start, end,
                )
                while blanked and blanked[-1] in SENTENCE_TERMINALS:
                    blanked.pop()
                questions.append(
                    ClozeQuestion(
                        doc_id=doc.id,
                        qid=f"{doc.id}:{sentence_index}:{target}",
                        question=tuple(blanked),
                        answer=entity_token(target),
                        candidates=candidates,
                    )
                )
            sentence_index += 1
    return questions


def question_to_json(q: ClozeQuestion) -> dict:
    return {
        "doc_id": q.doc_id,
        "qid": q.qid,
        "question": list(q.question),
        "answer": q.answer,
        "candidates": list(q.candidates),
    }


def _array(obj: dict, key: str) -> list:
    """A field that must be a JSON array; an object or string is not read
    as its keys or characters."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON array")
    return value


def load_questions(path: str) -> list[ClozeQuestion]:
    """Read questions JSONL; qids must be unique, since answers join on them."""
    questions = []
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path):
        try:
            q = ClozeQuestion(
                doc_id=str(obj["doc_id"]),
                qid=str(obj["qid"]),
                question=tuple(str(t) for t in _array(obj, "question")),
                answer=str(obj["answer"]),
                candidates=tuple(str(c) for c in _array(obj, "candidates")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}:{lineno}: bad question: {exc}") from exc
        if q.qid in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate qid {q.qid!r}")
        seen.add(q.qid)
        questions.append(q)
    return questions
