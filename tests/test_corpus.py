import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apes_eval import synth
from apes_eval.corpus import (
    CorpusError,
    anonymize_free_text,
    build_entity_table,
    Entity,
    EntityTable,
    Mention,
    entity_token,
    find_mentions,
    load_corpus,
    parse_document,
    parse_entity_token,
    sentence_spans,
    tokenize,
)
from conftest import FIG_DOC, write_jsonl
from oracles import frozen_parse_annotated, scan_find_mentions


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_presplit_punctuation(self):
        assert tokenize("Arsenal beat Burnley 1-0 .") == ["Arsenal", "beat", "Burnley", "1-0", "."]

    def test_trailing_period_split(self):
        assert tokenize("lead to four points.") == ["lead", "to", "four", "points", "."]

    def test_leading_and_stacked_punctuation(self):
        assert tokenize('"Hello, world!"') == ['"', "Hello", ",", "world", "!", '"']

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop 1-0") == ["don't", "stop", "1-0"]

    def test_clitic_apostrophe_splits(self):
        assert tokenize("Chelsea 's lead") == ["Chelsea", "'", "s", "lead"]

    @given(st.text(max_size=80))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once
        assert all(tok and not any(c.isspace() for c in tok) for tok in once)


class TestSentenceSpans:
    def test_plain_split(self):
        toks = tokenize("a b . c d ! e")
        assert sentence_spans(toks) == [(0, 3), (3, 6), (6, 7)]

    def test_terminal_runs_merge(self):
        assert sentence_spans(["well", "?", "!", "ok"]) == [(0, 3), (3, 4)]

    def test_empty(self):
        assert sentence_spans([]) == []


class TestHeuristicDetection:
    def test_capitalized_pair_at_start(self):
        table = build_entity_table(["Aaron", "Ramsey", "scored"], [])
        assert [e.surfaces for e in table.entities] == [(("Aaron", "Ramsey"),)]
        m = table.mentions["source"][0]
        assert (m.start, m.end) == (0, 2)

    def test_single_token_mid_sentence(self):
        table = build_entity_table(["win", "cuts", "Chelsea", "'s", "lead"], [])
        assert len(table.entities) == 1
        m = table.mentions["source"][0]
        assert (m.start, m.end) == (2, 3)

    def test_repeated_sentence_start_surface_unifies(self):
        table = build_entity_table(["Arsenal", "beat", "Burnley", ".", "Arsenal", "won"], [])
        assert len(table.entities) == 2
        arsenal = table.entities[0]
        assert arsenal.surfaces == (("Arsenal",),)
        spans = [(m.start, m.end) for m in table.mentions["source"] if m.entity_id == 0]
        assert spans == [(0, 1), (4, 5)]

    def test_lone_sentence_opener_dropped(self):
        table = build_entity_table(["The", "cat", "sat", "on", "Burnley"], [])
        assert [e.surfaces for e in table.entities] == [(("Burnley",),)]

    def test_ids_follow_first_appearance_source_then_highlights(self):
        table = build_entity_table(
            tokenize("nothing here about Kelar ."),
            [tokenize("yesterday Vexum met Kelar .")],
        )
        by_id = {e.entity_id: e.surfaces[0] for e in table.entities}
        assert by_id == {0: ("Kelar",), 1: ("Vexum",)}


class TestAnonymize:
    def test_no_entities_identity(self):
        table = build_entity_table(["all", "lowercase", "here"], [])
        assert anonymize_free_text(["all", "lowercase", "here"], table) == ["all", "lowercase", "here"]

    def test_direct_substitution(self):
        doc = parse_document(
            {
                "id": "s",
                "source": "Arsenal beat Burnley",
                "entities": [
                    {"id": 0, "surfaces": ["Arsenal"]},
                    {"id": 1, "surfaces": ["Burnley"]},
                ],
            }
        )
        assert anonymize_free_text(doc.source_tokens, doc.table) == [
            "@entity0",
            "beat",
            "@entity1",
        ]

    def test_injective_tokens(self, fig_doc):
        anonymized = anonymize_free_text(fig_doc.source_tokens, fig_doc.table)
        ids = [parse_entity_token(t) for t in anonymized if parse_entity_token(t) is not None]
        assert set(ids) == {0, 1, 2, 3, 4}

    def test_free_text_matching_keeps_unknown_nouns(self, fig_doc):
        out = anonymize_free_text(tokenize("Arsenal met Liverpool"), fig_doc.table)
        assert out == ["@entity0", "met", "Liverpool"]


# Few distinct words in mixed case, so surfaces overlap, share first
# tokens, differ only in case and recur across entities.
_WORDS = st.sampled_from(["a", "A", "b", "B", "c", "ab", "Ab", "d"])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.lists(_WORDS, min_size=1, max_size=3), min_size=1, max_size=3), max_size=5),
    st.lists(_WORDS, max_size=25),
)
def test_find_mentions_matches_the_surface_scan(entity_surfaces, tokens):
    table = EntityTable(
        [Entity(eid, tuple(map(tuple, surfaces))) for eid, surfaces in enumerate(entity_surfaces)],
        {},
    )
    assert find_mentions(tokens, table) == scan_find_mentions(tokens, table)


@st.composite
def _annotated_documents(draw):
    """A corpus line with entities and explicit spans. Most spans name a
    surface of their entity, often in another case. Each kind of fault is
    drawn now and then: ids that are not contiguous, an empty surface, a
    span out of range, empty or overlapping, an unknown id or stream, and a
    span that matches no surface."""
    rarely = st.sampled_from([False] * 11 + [True])

    def usually(usual, fault):
        return draw(fault if draw(rarely) else usual)

    words = st.lists(st.sampled_from(["Kel", "kel", "KEL", "Vex", "vex", "met", "."]), max_size=10)
    source = draw(words.filter(bool))
    highlights = draw(st.lists(words, max_size=2))
    streams = {"source": source, **{f"highlight_{k}": h for k, h in enumerate(highlights)}}
    n = usually(st.integers(1, 3), st.just(0))
    surface = st.sampled_from(["Kel", "vex", "Kel vex"])
    surfaces = [draw(st.lists(surface, min_size=1, max_size=2)) for _ in range(n)]
    mentions = {}
    annotated = st.lists(st.sampled_from(list(streams)), unique=True, min_size=1, max_size=3)
    for stream in usually(annotated, st.just([])):
        tokens = streams[stream]
        triples = []
        for _ in range(draw(st.integers(1, 3))):
            size = len(tokens)
            start = usually(st.integers(0, max(size - 1, 0)), st.sampled_from([-1, size]))
            end = start + usually(st.integers(1, 2), st.sampled_from([0, 0, -1]))
            eid = usually(st.integers(0, max(n - 1, 0)), st.sampled_from([-1, n]))
            triples.append([eid, start, end])
            if 0 <= eid < n and 0 <= start < end <= size and not draw(rarely):
                text = " ".join(tokens[start:end])
                surfaces[eid].append(draw(st.sampled_from([text, text.lower(), text.upper()])))
        mentions[stream] = triples
    if draw(rarely):
        mentions["highlight_7"] = []
    ids = usually(st.permutations(range(n)), st.lists(st.integers(-1, 4), min_size=n, max_size=n))
    entities = [
        {"id": eid, "surfaces": surfs + [""] * draw(rarely)} for eid, surfs in zip(ids, surfaces)
    ]
    return {
        "id": "d",
        "source": " ".join(source),
        "highlights": [" ".join(h) for h in highlights],
        "entities": entities,
        "mentions": mentions,
    }


def _parsed_or_error(parse, obj):
    try:
        return parse(obj)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


@settings(max_examples=400, deadline=None)
@given(_annotated_documents())
def test_mention_check_agrees_with_the_frozen_check(obj):
    # same first error message, or equal documents
    assert _parsed_or_error(parse_document, obj) == _parsed_or_error(frozen_parse_annotated, obj)


def test_load_corpus_annotated_and_heuristic(tmp_path, caplog):
    plain = {"id": "p1", "source": "Kelar met Vexum .", "highlights": ["Kelar won ."]}
    path = write_jsonl(tmp_path / "corpus.jsonl", [FIG_DOC, plain])
    with caplog.at_level("WARNING"):
        docs = load_corpus(path)
    assert [d.id for d in docs] == ["fig2", "p1"]
    assert "heuristic" in caplog.text
    assert docs[1].table.entities  # fallback found something


def test_load_corpus_bad_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "source": "x ."}\n{oops\n')
    with pytest.raises(CorpusError, match=r"bad\.jsonl:2"):
        load_corpus(str(path))


def test_load_corpus_duplicate_id(tmp_path):
    doc = {"id": "a", "source": "Kelar won ."}
    path = write_jsonl(tmp_path / "dup.jsonl", [doc, doc])
    with pytest.raises(CorpusError, match="duplicate document id"):
        load_corpus(path)


def test_parse_document_with_explicit_spans():
    obj = {
        "id": "m",
        "source": "Kelar met Vexum .",
        "highlights": ["Vexum won ."],
        "entities": [
            {"id": 0, "surfaces": ["Kelar"]},
            {"id": 1, "surfaces": ["Vexum"]},
        ],
        "mentions": {
            "source": [[0, 0, 1], [1, 2, 3]],
            "highlight_0": [[1, 0, 1]],
        },
    }
    doc = parse_document(obj)
    assert doc.table.mentions["highlight_0"] == [Mention(1, 0, 1)]


def test_parse_document_rejects_noncontiguous_ids():
    obj = {
        "id": "m",
        "source": "Kelar met Vexum .",
        "entities": [{"id": 0, "surfaces": ["Kelar"]}, {"id": 2, "surfaces": ["Vexum"]}],
        "mentions": {"source": [[0, 0, 1], [2, 2, 3]]},
    }
    with pytest.raises(CorpusError, match="contiguous"):
        parse_document(obj)


def test_parse_document_rejects_span_surface_mismatch():
    obj = {
        "id": "m",
        "source": "Kelar met Vexum .",
        "entities": [{"id": 0, "surfaces": ["Kelar"]}],
        "mentions": {"source": [[0, 1, 2]]},
    }
    with pytest.raises(CorpusError, match="matches no surface"):
        parse_document(obj)


def test_entity_ids_contiguous_on_synthetic_corpus():
    for doc in synth.make_corpus(25, seed=3):
        ids = [e.entity_id for e in doc.table.entities]
        assert ids == list(range(len(ids)))
        first_positions = []
        for eid in ids:
            positions = [
                (stream, m.start)
                for stream, ms in doc.table.mentions.items()
                for m in ms
                if m.entity_id == eid
            ]
            source_hits = [p for s, p in positions if s == "source"]
            first_positions.append(min(source_hits) if source_hits else float("inf"))
        assert first_positions == sorted(first_positions)


def test_entity_token_roundtrip():
    assert entity_token(7) == "@entity7"
    assert parse_entity_token("@entity7") == 7
    assert parse_entity_token("@entityX") is None
    assert parse_entity_token("plain") is None
