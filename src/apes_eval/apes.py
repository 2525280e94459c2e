"""APES scoring: the fraction of cloze questions a reader answers correctly
from system summaries, plus entity-saliency statistics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import Document, SystemSummary, anonymize_free_text, parse_entity_token
from .qgen import ClozeQuestion
from .reader import BatchReader, ReaderRequest

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ApesReport:
    """Micro average, per-document tallies, macro (per-doc mean) score, entity stats."""

    overall: float
    macro: float
    per_doc: dict[str, tuple[int, int]]  # doc_id -> (correct, total)
    entities: EntityStats


@dataclass(frozen=True)
class EntityStats:
    avg_entities: float
    avg_salient_entities: float
    salient_density: float


def _doc_index(documents: Iterable[Document]) -> dict[str, Document]:
    index: dict[str, Document] = {}
    for doc in documents:
        if doc.id in index:
            raise ValueError(f"duplicate document id {doc.id!r}")
        index[doc.id] = doc
    return index


def _summary_index(
    summaries: Iterable[SystemSummary], docs: Mapping[str, Document]
) -> dict[str, tuple[str, ...]]:
    """doc_id -> the document's summary anonymized against its entity table."""
    index: dict[str, SystemSummary] = {}
    missing = []
    for summary in summaries:
        if summary.doc_id in index:
            raise ValueError(f"more than one summary for document {summary.doc_id!r}")
        if summary.doc_id not in docs:
            missing.append(summary.doc_id)
        index[summary.doc_id] = summary
    if missing:
        raise ValueError(f"summaries reference unknown document ids: {sorted(missing)}")
    return {
        doc_id: tuple(anonymize_free_text(summary.tokens, docs[doc_id].table))
        for doc_id, summary in index.items()
    }


def salient_entity_ids(doc: Document) -> set[int]:
    """Entities mentioned in any reference highlight of the document."""
    ids: set[int] = set()
    for stream, mentions in doc.table.mentions.items():
        if stream.startswith("highlight_"):
            ids.update(m.entity_id for m in mentions)
    return ids


def build_requests(
    docs: Mapping[str, Document],
    contexts: Mapping[str, tuple[str, ...]],
    questions: Sequence[ClozeQuestion],
) -> tuple[list[tuple[ClozeQuestion, ReaderRequest]], list[ClozeQuestion]]:
    """Requests for questions whose document has a summary.

    `contexts` maps a document id to its summary anonymized against the
    document's entity table (see `_summary_index`). Returns (question,
    request) pairs plus the questions that could not be asked (no summary
    for their document).
    """
    unknown = sorted({q.doc_id for q in questions} - set(docs))
    if unknown:
        raise ValueError(f"questions reference unknown document ids: {unknown}")

    asked: list[tuple[ClozeQuestion, ReaderRequest]] = []
    unanswerable: list[ClozeQuestion] = []
    for q in questions:
        context = contexts.get(q.doc_id)
        if context is None:
            unanswerable.append(q)
            continue
        request = ReaderRequest(
            qid=q.qid,
            question=q.question,
            context=context,
            candidates=q.candidates,
            gold=q.answer,
        )
        asked.append((q, request))
    return asked, unanswerable


def score_apes(
    documents: Iterable[Document],
    summaries: Iterable[SystemSummary],
    questions: Sequence[ClozeQuestion],
    reader: BatchReader,
    meanwhile: Callable[[], None] | None = None,
) -> ApesReport:
    """Answer every question from its document's summary and tally accuracy.

    Questions whose document has no summary count as incorrect (warned).
    The micro average pools questions over the whole corpus; the macro
    average is the mean of per-document fractions over documents with at
    least one question. The entity statistics read the same anonymized
    summaries as the reader.

    `meanwhile` runs after the requests are handed to the reader and
    before its answers are read, so it overlaps a reader that answers in
    another process. The answers are read even when it raises, and a
    reader error then wins over its error.
    """
    docs = _doc_index(documents)
    contexts = _summary_index(summaries, docs)
    asked, unanswerable = build_requests(docs, contexts, questions)
    if unanswerable:
        skipped_docs = sorted({q.doc_id for q in unanswerable})
        log.warning(
            "%d questions over documents without a summary scored incorrect: %s",
            len(unanswerable),
            ", ".join(skipped_docs),
        )

    pending = reader([request for _, request in asked])
    try:
        if meanwhile is not None:
            meanwhile()
    finally:
        answers = list(pending)
        if len(answers) != len(asked):
            # an internal invariant (every reader answers each request once), so exit 2
            raise AssertionError("reader returned a different number of answers than requests")

    per_doc: dict[str, list[int]] = {}
    for (question, _), answer in zip(asked, answers):
        tally = per_doc.setdefault(question.doc_id, [0, 0])
        tally[1] += 1
        if answer.answer is not None and answer.answer == question.answer:
            tally[0] += 1
    for q in unanswerable:
        tally = per_doc.setdefault(q.doc_id, [0, 0])
        tally[1] += 1

    total = sum(t for _, t in per_doc.values())
    correct = sum(c for c, _ in per_doc.values())
    fractions = [c / t for c, t in per_doc.values() if t > 0]
    return ApesReport(
        overall=correct / total if total else 0.0,
        macro=sum(fractions) / len(fractions) if fractions else 0.0,
        per_doc={doc_id: (c, t) for doc_id, (c, t) in sorted(per_doc.items())},
        entities=_entity_stats(docs, contexts),
    )


def entity_stats(
    documents: Iterable[Document], summaries: Sequence[SystemSummary]
) -> EntityStats:
    """Entity counts in summaries and salient-mention density in sources.

    A document's salient entities are those mentioned in its reference
    highlights; density is source mentions of salient entities divided by
    the number of distinct salient entities, averaged over documents that
    have any (computed on the documents the summaries cover).
    """
    docs = _doc_index(documents)
    return _entity_stats(docs, _summary_index(summaries, docs))


def _entity_stats(
    docs: Mapping[str, Document], contexts: Mapping[str, tuple[str, ...]]
) -> EntityStats:
    counts: list[int] = []
    salient_counts: list[int] = []
    densities: list[float] = []
    for doc_id in sorted(contexts):
        doc = docs[doc_id]
        mentioned = {
            eid for eid in map(parse_entity_token, contexts[doc_id]) if eid is not None
        }
        salient = salient_entity_ids(doc)
        counts.append(len(mentioned))
        salient_counts.append(len(mentioned & salient))
        if salient:
            source_mentions = sum(
                1 for m in doc.table.mentions.get("source", []) if m.entity_id in salient
            )
            densities.append(source_mentions / len(salient))

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return EntityStats(
        avg_entities=mean(counts),
        avg_salient_entities=mean(salient_counts),
        salient_density=mean(densities),
    )
