"""Deterministic synthetic news-like corpora with exact entity annotations.

Used by the test suite and the demo scripts. Documents carry 2-5 named
entities (pseudo-names with globally unique tokens, so surface matching is
unambiguous), highlight sentences that each mention one or two of them,
and a source that restates every highlight plus extra mention-heavy
sentences.
"""

from __future__ import annotations

import random
from typing import Sequence

from .corpus import Document, Entity, EntityTable, Mention, SystemSummary

_NAME_PREFIXES = [
    "Bar", "Dor", "Fen", "Gal", "Hax", "Jor", "Kel", "Lim", "Mar", "Nev",
    "Oru", "Pel", "Quin", "Rost", "Sil", "Tarn", "Ulm", "Vex", "Wren", "Yor",
]
_NAME_SUFFIXES = ["an", "eth", "ia", "os", "um", "ar"]
_SURNAME_PREFIXES = ["Ald", "Bryn", "Cav", "Drev", "Ell", "Fos", "Grum", "Hald"]
_SURNAME_SUFFIXES = ["wick", "ford", "mere", "stad"]

NAME_POOL = [p + s for p in _NAME_PREFIXES for s in _NAME_SUFFIXES]
SURNAME_POOL = [p + s for p in _SURNAME_PREFIXES for s in _SURNAME_SUFFIXES]

_SYLLABLES = ["ta", "ne", "ri", "mo", "su", "la", "ke", "vo", "di", "pa"]
WORD_POOL = [a + b for a in _SYLLABLES for b in _SYLLABLES]


class _DocBuilder:
    """Accumulates sentences with marked entity slots, then assigns entity
    ids by first mention (source first, then highlights)."""

    def __init__(self, doc_id: str, surfaces: Sequence[tuple[str, ...]]) -> None:
        self.doc_id = doc_id
        self.surfaces = list(surfaces)
        self.streams: dict[str, list[str]] = {}
        self.placements: dict[str, list[tuple[int, int, int]]] = {}  # key, start, end

    def add_sentence(self, stream: str, items: Sequence[object]) -> None:
        tokens = self.streams.setdefault(stream, [])
        placements = self.placements.setdefault(stream, [])
        for item in items:
            if isinstance(item, int):  # surface key
                surface = self.surfaces[item]
                placements.append((item, len(tokens), len(tokens) + len(surface)))
                tokens.extend(surface)
            else:
                tokens.append(str(item))
        tokens.append(".")

    def build(self) -> Document:
        order: list[int] = []
        stream_names = ["source"] + sorted(
            (s for s in self.streams if s != "source"),
            key=lambda s: int(s.split("_")[1]),
        )
        for stream in stream_names:
            for key, _, _ in self.placements.get(stream, []):
                if key not in order:
                    order.append(key)
        ids = {key: eid for eid, key in enumerate(order)}

        entities = [Entity(eid, (self.surfaces[key],)) for key, eid in sorted(ids.items(), key=lambda kv: kv[1])]
        mentions: dict[str, list[Mention]] = {}
        for stream in stream_names:
            mentions[stream] = [
                Mention(ids[key], start, end)
                for key, start, end in self.placements.get(stream, [])
            ]
        highlights = tuple(
            tuple(self.streams[s]) for s in stream_names if s != "source"
        )
        return Document(
            id=self.doc_id,
            source_tokens=tuple(self.streams["source"]),
            highlights=highlights,
            table=EntityTable(entities, mentions),
        )


def make_document(doc_id: str, rng: random.Random) -> Document:
    """One synthetic document with complete annotations."""
    n_entities = rng.randint(2, 4)
    names: list[tuple[str, ...]] = []
    used: set[str] = set()
    for _ in range(n_entities):
        while True:
            if rng.random() < 0.3:
                name = (rng.choice(NAME_POOL), rng.choice(SURNAME_POOL))
            else:
                name = (rng.choice(NAME_POOL),)
            if not used.intersection(name):
                used.update(name)
                names.append(name)
                break

    words = rng.sample(WORD_POOL, len(WORD_POOL))
    word_at = 0

    def take(n: int) -> list[str]:
        nonlocal word_at
        word_at += n
        return words[word_at - n : word_at]

    builder = _DocBuilder(doc_id, names)

    # Highlights: every entity shows up in at least one; some sentences pair two.
    slots: list[list[int]] = []
    keys = list(range(n_entities))
    rng.shuffle(keys)
    while keys:
        if len(keys) >= 2 and rng.random() < 0.4:
            slots.append([keys.pop(), keys.pop()])
        else:
            slots.append([keys.pop()])
    for k, slot in enumerate(slots):
        filler = take(rng.randint(5, 8))
        items: list[object] = list(filler)
        for key in slot:
            items.insert(rng.randrange(len(items) + 1), key)
        builder.add_sentence(f"highlight_{k}", items)

    # Source: restate each highlight's entities with fresh context words,
    # then a few repetition sentences to vary mention density.
    for slot in slots:
        filler = take(rng.randint(4, 7))
        items = list(filler)
        for key in slot:
            items.insert(rng.randrange(len(items) + 1), key)
        builder.add_sentence("source", items)
    for _ in range(rng.randint(1, 3)):
        key = rng.randrange(n_entities)
        items = list(take(rng.randint(3, 5)))
        items.insert(rng.randrange(len(items) + 1), key)
        builder.add_sentence("source", items)

    return builder.build()


def make_corpus(n_docs: int, seed: int = 0) -> list[Document]:
    return [
        make_document(f"doc{i:04d}", random.Random(seed * 1_000_003 + i))
        for i in range(n_docs)
    ]


def reference_summary(doc: Document) -> SystemSummary:
    """The document's own highlights, concatenated, as a system summary."""
    tokens: list[str] = []
    for h in doc.highlights:
        tokens.extend(h)
    return SystemSummary(doc.id, tuple(tokens))


def shuffled_summary(doc: Document, seed: int = 0) -> SystemSummary:
    """Reference summary with its tokens uniformly permuted."""
    ref = list(reference_summary(doc).tokens)
    random.Random(f"{seed}:{doc.id}").shuffle(ref)
    return SystemSummary(doc.id, tuple(ref))


def lead_summary(doc: Document, n_sentences: int = 3) -> SystemSummary:
    """The first source sentences, mirroring a lead-N baseline."""
    from .corpus import sentence_spans

    spans = sentence_spans(doc.source_tokens)[:n_sentences]
    tokens: list[str] = []
    for start, end in spans:
        tokens.extend(doc.source_tokens[start:end])
    return SystemSummary(doc.id, tuple(tokens))
