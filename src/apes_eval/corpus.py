"""Tokenized documents with entity tables, and @entityN anonymization of
system summaries.

A corpus is a set of documents, each holding source tokens, reference
highlight sentences, and a table of named entities with their mentions.
A mention is only an entity id and a half-open token span of one stream
(the source or a highlight); its tokens are that slice of the stream.
Entity annotations normally arrive with the corpus JSONL; a
capitalization heuristic (:func:`build_entity_table`) fills in when they
are absent so the toolkit still runs on plain text. Annotated mentions are
checked once, by :meth:`EntityTable.validate`. A system summary is
anonymized by matching the table's surfaces in its tokens
(:func:`anonymize_free_text`).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Iterator, Sequence

log = logging.getLogger(__name__)

SPLIT_PUNCT = frozenset(".,;:!?'\"")
SENTENCE_TERMINALS = frozenset(".!?")
PLACEHOLDER = "@placeholder"


class CorpusError(ValueError):
    """Malformed corpus data: bad JSONL, inconsistent annotations."""


def entity_token(entity_id: int) -> str:
    """Anonymized token for an entity id, e.g. ``@entity3``."""
    return f"@entity{entity_id}"


def parse_entity_token(token: str) -> int | None:
    """Entity id encoded in an ``@entityN`` token, or None."""
    if token.startswith("@entity") and token[7:].isdigit():
        return int(token[7:])
    return None


def tokenize(text: str) -> list[str]:
    """Split text on whitespace, peeling leading/trailing ASCII punctuation.

    Characters in SPLIT_PUNCT become their own tokens; interior punctuation
    (hyphens, apostrophes inside a word) is preserved. Deterministic and
    idempotent on its own space-joined output. Empty input yields [].
    """
    tokens: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        while chunk and chunk[0] in SPLIT_PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and chunk[-1] in SPLIT_PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


def sentence_spans(tokens: Sequence[str]) -> list[tuple[int, int]]:
    """Half-open sentence windows over a token sequence.

    A sentence ends after a maximal run of terminal tokens (. ! ?); a
    trailing fragment without a terminal forms a final sentence.
    """
    spans: list[tuple[int, int]] = []
    start = 0
    for i, tok in enumerate(tokens):
        at_run_end = i + 1 == len(tokens) or tokens[i + 1] not in SENTENCE_TERMINALS
        if tok in SENTENCE_TERMINALS and at_run_end:
            spans.append((start, i + 1))
            start = i + 1
    if start < len(tokens):
        spans.append((start, len(tokens)))
    return spans


@dataclass(frozen=True)
class Mention:
    """One entity occurrence: the half-open token span [start, end) of its stream."""

    entity_id: int
    start: int
    end: int


@dataclass(frozen=True)
class Entity:
    entity_id: int
    surfaces: tuple[tuple[str, ...], ...]


@dataclass
class EntityTable:
    """Entities of one document and their mentions per text stream.

    Streams are named ``source`` and ``highlight_<k>``. Entity ids are
    contiguous from 0 in order of first mention (source first, then
    highlights). Mention spans within a stream never overlap.
    """

    entities: list[Entity]
    mentions: dict[str, list[Mention]]

    def __post_init__(self) -> None:
        for stream in self.mentions:
            self.mentions[stream] = sorted(self.mentions[stream], key=lambda m: m.start)

    @property
    def entity_ids(self) -> list[int]:
        return [e.entity_id for e in self.entities]

    def surface_index(self) -> dict[tuple[str, ...], int]:
        """Lowercased surface -> entity id; first entity wins on collisions."""
        index: dict[tuple[str, ...], int] = {}
        for ent in self.entities:
            for surf in ent.surfaces:
                index.setdefault(tuple(t.lower() for t in surf), ent.entity_id)
        return index

    def validate(self, streams: dict[str, Sequence[str]]) -> None:
        """Ids run from 0; each stream's spans, in start order, are known ids,
        in range, non-overlapping, and match a surface of their entity
        case-insensitively."""
        ids = self.entity_ids
        if ids != list(range(len(ids))):
            raise CorpusError(f"entity ids must be contiguous from 0, got {ids}")
        surfaces = [{tuple(t.lower() for t in surf) for surf in e.surfaces} for e in self.entities]
        for stream, mentions in self.mentions.items():
            if stream not in streams:
                raise CorpusError(f"mentions refer to unknown stream {stream!r}")
            tokens = streams[stream]
            prev_end = 0
            for m in mentions:  # sorted by start in __post_init__
                if m.entity_id not in range(len(surfaces)):
                    raise CorpusError(f"mention of unknown entity id {m.entity_id}")
                if not (0 <= m.start < m.end <= len(tokens)):
                    raise CorpusError(
                        f"mention span ({m.start}, {m.end}) out of range in {stream!r}"
                    )
                if m.start < prev_end:
                    raise CorpusError("overlapping entity mentions")
                prev_end = m.end
                span = tuple(tokens[m.start : m.end])
                if tuple(t.lower() for t in span) not in surfaces[m.entity_id]:
                    raise CorpusError(
                        f"mention {span} matches no surface of entity {m.entity_id}"
                    )


def find_mentions(tokens: Sequence[str], table: EntityTable) -> list[Mention]:
    """Locate table surfaces in an unannotated token sequence.

    Case-insensitive, longest surface first (then lowest entity id), left to
    right, non-overlapping. Used to anonymize system summaries against a
    document's entity table. Surfaces are indexed by their first lowercased
    token, so each position tries only the surfaces that can start there
    (token-level Aho-Corasick, 1975, without failure links).
    """
    index = table.surface_index()
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for surf in sorted(index, key=lambda s: (-len(s), index[s])):
        by_first.setdefault(surf[0], []).append(surf)
    lowered = [t.lower() for t in tokens]
    found: list[Mention] = []
    i = 0
    while i < len(tokens):
        hit = None
        for surf in by_first.get(lowered[i], ()):
            j = i + len(surf)
            if j <= len(tokens) and tuple(lowered[i:j]) == surf:
                hit = Mention(index[surf], i, j)
                break
        if hit is None:
            i += 1
        else:
            found.append(hit)
            i = hit.end
    return found


def anonymize_free_text(tokens: Sequence[str], table: EntityTable) -> list[str]:
    """Anonymize unannotated tokens (e.g. a system summary) by surface matching.

    Each mention :func:`find_mentions` locates becomes its @entityN token;
    proper nouns absent from the table stay as raw tokens.
    """
    out: list[str] = []
    pos = 0
    for m in find_mentions(tokens, table):
        out.extend(tokens[pos : m.start])
        out.append(entity_token(m.entity_id))
        pos = m.end
    out.extend(tokens[pos:])
    return out


# -- heuristic entity detection ------------------------------------------


def _is_capitalized(token: str) -> bool:
    return token[:1].isupper()


def _candidate_runs(tokens: Sequence[str]) -> list[tuple[int, int, bool]]:
    """Maximal capitalized runs with an anchored flag.

    A run is anchored when it starts mid-sentence or spans two or more
    tokens. Lone capitalized sentence openers stay unanchored; they are
    promoted later only when the same surface recurs.
    """
    runs: list[tuple[int, int, bool]] = []
    for start, end in sentence_spans(tokens):
        i = start
        while i < end:
            if _is_capitalized(tokens[i]):
                j = i
                while j < end and _is_capitalized(tokens[j]):
                    j += 1
                runs.append((i, j, i > start or j - i >= 2))
                i = j
            else:
                i += 1
    return runs


def build_entity_table(
    source_tokens: Sequence[str], highlights: Sequence[Sequence[str]]
) -> EntityTable:
    """Detect entities by capitalization across all streams of a document.

    Candidate runs unify case-insensitively; a group becomes an entity when
    it has an anchored run or recurs at least twice. Ids follow first
    appearance (source, then highlights).
    """
    streams: list[tuple[str, Sequence[str]]] = [("source", source_tokens)]
    streams += [(f"highlight_{k}", h) for k, h in enumerate(highlights)]

    groups: dict[tuple[str, ...], dict] = {}
    for stream, tokens in streams:
        for i, j, anchored in _candidate_runs(tokens):
            span = tuple(tokens[i:j])
            key = tuple(t.lower() for t in span)
            group = groups.setdefault(key, {"anchored": False, "runs": [], "surfaces": []})
            group["anchored"] = group["anchored"] or anchored
            group["runs"].append((stream, i, j))
            if span not in group["surfaces"]:
                group["surfaces"].append(span)

    kept = [g for g in groups.values() if g["anchored"] or len(g["runs"]) >= 2]
    entities: list[Entity] = []
    mentions: dict[str, list[Mention]] = {stream: [] for stream, _ in streams}
    for eid, group in enumerate(kept):  # dict order == first-appearance order
        entities.append(Entity(eid, tuple(group["surfaces"])))
        for stream, i, j in group["runs"]:
            mentions[stream].append(Mention(eid, i, j))
    return EntityTable(entities, mentions)


# -- documents and JSONL IO ----------------------------------------------


@dataclass(frozen=True)
class Document:
    id: str
    source_tokens: tuple[str, ...]
    highlights: tuple[tuple[str, ...], ...]
    table: EntityTable


@dataclass(frozen=True)
class SystemSummary:
    doc_id: str
    tokens: tuple[str, ...]


def iter_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, parsed object) pairs; error includes the line number."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            # ValueError also covers an integer past the digit limit, and
            # RecursionError a line nested past the interpreter's depth
            except (ValueError, RecursionError) as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


# Field checks for parse_document; `type(x) is int` also turns away booleans.
def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_entity(value) -> bool:
    return (
        isinstance(value, dict)
        and type(value.get("id")) is int
        and _is_str_list(value.get("surfaces"))
    )


def _is_span_list(value) -> bool:
    """A list of [entity id, start, end] int triples."""
    return isinstance(value, list) and all(
        type(span) is list and len(span) == 3 and all(type(x) is int for x in span)
        for span in value
    )


def parse_document(obj: dict, *, where: str = "document") -> Document:
    try:
        doc_id = obj["id"]
        source_text = obj["source"]
        highlight_texts = obj.get("highlights", [])
    except KeyError as exc:
        raise CorpusError(f"{where}: missing key {exc}") from exc
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError(f"{where}: id must be a non-empty string")
    if not isinstance(source_text, str):
        raise CorpusError(f"{where}: source must be a string")
    if not _is_str_list(highlight_texts):
        raise CorpusError(f"{where}: highlights must be a list of strings")

    source = tuple(tokenize(source_text))
    if not source:
        raise CorpusError(f"{where}: source must contain at least one token")
    highlights = tuple(tuple(tokenize(h)) for h in highlight_texts)

    if "entities" not in obj:
        if "mentions" in obj:
            raise CorpusError(f"{where}: mentions given without entities")
        table = build_entity_table(source, highlights)
        return Document(doc_id, source, highlights, table)

    raw_entities = obj["entities"]
    if not isinstance(raw_entities, list) or not all(map(_is_entity, raw_entities)):
        raise CorpusError(
            f"{where}: entities must be a list of objects, each with an int 'id' "
            "and a list of string 'surfaces'"
        )
    entities = []
    for ent in sorted(raw_entities, key=lambda e: e["id"]):
        surfaces = tuple(tuple(tokenize(s)) for s in ent["surfaces"])
        if not surfaces or any(not s for s in surfaces):
            raise CorpusError(f"{where}: entity {ent['id']} needs non-empty surfaces")
        entities.append(Entity(ent["id"], surfaces))

    streams = {"source": source, **{f"highlight_{k}": h for k, h in enumerate(highlights)}}
    if "mentions" in obj:
        if not isinstance(obj["mentions"], dict):
            raise CorpusError(f"{where}: mentions must be an object keyed by stream")
        mentions: dict[str, list[Mention]] = {}
        for stream, spans in obj["mentions"].items():
            if stream not in streams:
                raise CorpusError(f"{where}: unknown stream {stream!r}")
            if not _is_span_list(spans):
                raise CorpusError(
                    f"{where}: mentions of {stream!r} must be [entity, start, end] int triples"
                )
            mentions[stream] = [Mention(eid, s, e) for eid, s, e in spans]
        table = EntityTable(entities, mentions)
    else:
        table = EntityTable(entities, {})
        for stream, tokens in streams.items():
            table.mentions[stream] = find_mentions(tokens, table)

    try:
        table.validate(streams)
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from exc
    return Document(doc_id, source, highlights, table)


def document_to_json(doc: Document) -> dict:
    """Serialize with explicit annotations so a reload is exact."""
    return {
        "id": doc.id,
        "source": " ".join(doc.source_tokens),
        "highlights": [" ".join(h) for h in doc.highlights],
        "entities": [
            {"id": e.entity_id, "surfaces": [" ".join(s) for s in e.surfaces]}
            for e in doc.table.entities
        ],
        "mentions": {
            stream: [[m.entity_id, m.start, m.end] for m in ms]
            for stream, ms in doc.table.mentions.items()
            if ms
        },
    }


def load_corpus(path: str) -> list[Document]:
    """Read a corpus JSONL file; one document per line, unique ids."""
    docs: list[Document] = []
    seen: set[str] = set()
    heuristic = 0
    for lineno, obj in iter_jsonl(path):
        doc = parse_document(obj, where=f"{path}:{lineno}")
        if doc.id in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        if "entities" not in obj:
            heuristic += 1
        docs.append(doc)
    if heuristic:
        log.warning(
            "%d of %d documents lack entity annotations; heuristic detection used",
            heuristic,
            len(docs),
        )
    return docs


def load_summaries(path: str) -> list[SystemSummary]:
    """Read summaries JSONL: {"doc_id": str, "text": str} (or pre-split "tokens")."""
    summaries: list[SystemSummary] = []
    for lineno, obj in iter_jsonl(path):
        if "doc_id" not in obj:
            raise CorpusError(f"{path}:{lineno}: missing key 'doc_id'")
        if "tokens" in obj:
            if not _is_str_list(obj["tokens"]):
                raise CorpusError(f"{path}:{lineno}: tokens must be a list of strings")
            tokens = tuple(obj["tokens"])
        elif "text" in obj:
            if not isinstance(obj["text"], str):
                raise CorpusError(f"{path}:{lineno}: text must be a string")
            tokens = tuple(tokenize(obj["text"]))
        else:
            raise CorpusError(f"{path}:{lineno}: need 'text' or 'tokens'")
        summaries.append(SystemSummary(str(obj["doc_id"]), tokens))
    return summaries
