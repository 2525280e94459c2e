"""Deterministic synthetic news-like corpora with exact entity annotations.

Used by the test suite and the demo scripts. Documents carry 2-4 named
entities (pseudo-names with globally unique tokens, so surface matching is
unambiguous), highlight sentences that each mention one or two of them,
and a source that restates every highlight plus extra mention-heavy
sentences. Each document is written as a corpus line and read back by
:func:`corpus.parse_document`, so its mentions are the ones the loader
finds.
"""

from __future__ import annotations

import itertools
import random

from .corpus import Document, SystemSummary, parse_document, sentence_spans

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


def make_document(doc_id: str, rng: random.Random) -> Document:
    """One synthetic document with complete annotations.

    It is written as a corpus line without mentions, its entities listed in
    order of first mention (source first, then highlights), and read back
    by the corpus loader. No two names share a token, so surface matching
    finds exactly the placed names.
    """
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

    words = iter(rng.sample(WORD_POOL, len(WORD_POOL)))

    def sentence(keys: list[int], n_words: int) -> list[object]:
        """`n_words` fresh words with each name key inserted at a random place."""
        items: list[object] = list(itertools.islice(words, n_words))
        for key in keys:
            items.insert(rng.randrange(len(items) + 1), key)
        return items

    # Highlights: every entity shows up in at least one; some sentences pair two.
    slots: list[list[int]] = []
    keys = list(range(n_entities))
    rng.shuffle(keys)
    while keys:
        if len(keys) >= 2 and rng.random() < 0.4:
            slots.append([keys.pop(), keys.pop()])
        else:
            slots.append([keys.pop()])
    highlights = [sentence(slot, rng.randint(5, 8)) for slot in slots]

    # Source: restate each highlight's entities with fresh context words,
    # then a few repetition sentences to vary mention density.
    source = [sentence(slot, rng.randint(4, 7)) for slot in slots]
    source += [
        sentence([rng.randrange(n_entities)], rng.randint(3, 5))
        for _ in range(rng.randint(1, 3))
    ]

    def text(sentences: list[list[object]]) -> str:
        return " ".join(
            " ".join(names[x]) if isinstance(x, int) else x for s in sentences for x in [*s, "."]
        )

    order = dict.fromkeys(x for s in source + highlights for x in s if isinstance(x, int))
    return parse_document({
        "id": doc_id,
        "source": text(source),
        "highlights": [text([h]) for h in highlights],
        "entities": [
            {"id": eid, "surfaces": [" ".join(names[key])]} for eid, key in enumerate(order)
        ],
    })


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
    spans = sentence_spans(doc.source_tokens)[:n_sentences]
    tokens: list[str] = []
    for start, end in spans:
        tokens.extend(doc.source_tokens[start:end])
    return SystemSummary(doc.id, tuple(tokens))
