import json
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apes_eval.reader import (
    ReaderAnswer,
    ReaderRequest,
    ReaderProtocolError,
    answer_lexical,
    answer_oracle,
    request_to_json,
    start_external_reader,
)


def make_request(context, question=("@placeholder", "won"), candidates=("@entity0", "@entity1"), gold="@entity0"):
    return ReaderRequest(
        qid="d:0:0",
        question=tuple(question),
        context=tuple(context),
        candidates=tuple(candidates),
        gold=gold,
    )


class TestOracle:
    def test_gold_present(self):
        req = make_request(["@entity0", "won"])
        assert answer_oracle(req) == ReaderAnswer("d:0:0", "@entity0")

    def test_gold_absent(self):
        req = make_request(["@entity1", "won"])
        assert answer_oracle(req).answer is None

    def test_empty_context(self):
        assert answer_oracle(make_request([])).answer is None

    def test_missing_gold_is_error(self):
        req = make_request(["@entity0"], gold=None)
        with pytest.raises(ValueError, match="gold"):
            answer_oracle(req)


class TestLexical:
    def test_single_candidate_in_context(self):
        req = make_request(["@entity1", "filler"], candidates=("@entity0", "@entity1"))
        assert answer_lexical(req).answer == "@entity1"

    def test_tie_breaks_to_earliest_occurrence(self):
        req = ReaderRequest(
            qid="q",
            question=("@placeholder", "beat", "@entity1", "1-0"),
            context=("@entity0", "beat", "@entity1", "1-0"),
            candidates=("@entity0", "@entity1"),
        )
        assert answer_lexical(req).answer == "@entity0"

    def test_earliest_tie_break_ignores_gold(self):
        # documented consequence of the scoring: both candidates see the
        # same window, so the earlier mention wins even when the blank
        # stood at the later one
        req = ReaderRequest(
            qid="q",
            question=("@entity0", "beat", "@placeholder", "1-0"),
            context=("@entity0", "beat", "@entity1", "1-0"),
            candidates=("@entity0", "@entity1"),
        )
        assert answer_lexical(req).answer == "@entity0"

    def test_window_overlap_wins(self):
        context = (
            "@entity1 spoke earlier . later @entity2 scored the winning goal"
        ).split()
        req = ReaderRequest(
            qid="q",
            question=("@placeholder", "scored", "the", "winning", "goal"),
            context=tuple(context),
            candidates=("@entity1", "@entity2"),
        )
        assert answer_lexical(req).answer == "@entity2"

    def test_window_is_five_tokens_each_side(self):
        # "won" is six tokens after @entity1 and five before @entity0: only
        # a window of exactly five lifts @entity0 over the earlier @entity1
        fillers = [f"f{i}" for i in range(9)]
        req = ReaderRequest(
            qid="q",
            question=("@placeholder", "won"),
            context=("@entity1", *fillers[:5], "won", *fillers[5:], "@entity0"),
            candidates=("@entity0", "@entity1"),
        )
        assert answer_lexical(req).answer == "@entity0"

    def test_no_candidate_in_context(self):
        req = make_request(["no", "entities", "here"])
        assert answer_lexical(req).answer is None

    @given(st.permutations(["@entity0", "@entity1", "@entity2"]))
    def test_candidate_order_irrelevant(self, perm):
        context = ("@entity2",) + tuple(f"f{i}" for i in range(8)) + (
            "@entity1",
            "scored",
            "points",
        )
        req = ReaderRequest(
            qid="q",
            question=("@placeholder", "scored", "points"),
            context=context,
            candidates=tuple(perm),
        )
        assert answer_lexical(req).answer == "@entity1"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_self_retrieval_when_gold_leads_a_short_sentence(self, seed):
        # restoring the placeholder makes the question its own context; gold
        # is retrieved whenever the sentence fits inside every candidate's
        # window and gold's mention comes first
        import random

        rng = random.Random(seed)
        words = [f"w{rng.randrange(100)}" for _ in range(rng.randint(2, 4))]
        tail = words + ["@entity1"]
        rng.shuffle(tail)
        question = ("@placeholder",) + tuple(tail)
        context = ("@entity0",) + tuple(tail)
        req = ReaderRequest(
            qid="q",
            question=question,
            context=context,
            candidates=("@entity0", "@entity1"),
            gold="@entity0",
        )
        assert answer_lexical(req).answer == "@entity0"

    def test_membership_invariant(self):
        req = make_request(["@entity0", "@entity1", "stray"])
        answer = answer_lexical(req).answer
        assert answer in req.candidates


STUB_FIRST = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps({"qid": req["qid"], "answer": req["candidates"][0]}))
    """
)

STUB_SKIP_ONE = textwrap.dedent(
    """
    import json, sys
    for i, line in enumerate(sys.stdin):
        req = json.loads(line)
        if i == 0:
            continue
        print(json.dumps({"qid": req["qid"], "answer": req["candidates"][0]}))
    """
)


def _stub(tmp_path, body, name="stub.py"):
    path = tmp_path / name
    path.write_text(body)
    return f"{sys.executable} {path}"


def _requests(n=3):
    return [
        ReaderRequest(
            qid=f"d:{i}:0",
            question=("@placeholder", "won"),
            context=("@entity0", "won"),
            candidates=("@entity0", "@entity1"),
        )
        for i in range(n)
    ]


class TestExternalReader:
    def test_first_candidate_stub(self, tmp_path):
        answers = list(start_external_reader(_requests(), _stub(tmp_path, STUB_FIRST)))
        assert [a.answer for a in answers] == ["@entity0"] * 3

    def test_missing_qid_warned_and_unanswered(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            answers = list(start_external_reader(_requests(), _stub(tmp_path, STUB_SKIP_ONE)))
        assert [a.answer for a in answers] == [None, "@entity0", "@entity0"]
        assert "skipped qid" in caplog.text

    def test_malformed_line_aborts(self, tmp_path):
        cmd = _stub(tmp_path, "print('not json')")
        with pytest.raises(ReaderProtocolError, match="malformed"):
            list(start_external_reader(_requests(1), cmd))

    def test_line_nested_past_the_recursion_limit_aborts(self, tmp_path):
        cmd = _stub(tmp_path, "print('[' * 100_000 + ']' * 100_000)")
        with pytest.raises(ReaderProtocolError, match="line 1 is malformed: maximum recursion"):
            list(start_external_reader(_requests(1), cmd))

    def test_nonzero_exit_aborts(self, tmp_path):
        cmd = _stub(tmp_path, "import sys; sys.exit(3)")
        with pytest.raises(ReaderProtocolError, match="status 3"):
            list(start_external_reader(_requests(1), cmd))

    def test_out_of_candidate_answer_downgraded(self, tmp_path, caplog):
        body = textwrap.dedent(
            """
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"qid": req["qid"], "answer": "@entity99"}))
            """
        )
        with caplog.at_level("WARNING"):
            answers = list(start_external_reader(_requests(1), _stub(tmp_path, body)))
        assert answers[0].answer is None
        assert "candidate set" in caplog.text

    def test_qid_answered_twice_aborts(self, tmp_path):
        body = textwrap.dedent(
            """
            import json, sys
            for line in sys.stdin:
                req = json.loads(line)
                print(json.dumps({"qid": req["qid"], "answer": req["candidates"][0]}))
            print(json.dumps({"qid": req["qid"], "answer": req["candidates"][1]}))
            """
        )
        with pytest.raises(ReaderProtocolError, match="line 4 answers qid d:2:0 a second time"):
            list(start_external_reader(_requests(3), _stub(tmp_path, body)))

    def test_errors_surface_when_the_answers_are_read(self, tmp_path):
        pending = start_external_reader(_requests(1), _stub(tmp_path, "import sys; sys.exit(3)"))
        with pytest.raises(ReaderProtocolError, match="status 3"):
            len(pending)

    def test_stderr_tail_logged_on_success(self, tmp_path, caplog):
        body = STUB_FIRST + "sys.stderr.write('HEAD' + 'x' * 600 + 'TAIL')\n"
        cmd = _stub(tmp_path, body)
        with caplog.at_level("INFO"):
            answers = list(start_external_reader(_requests(1), cmd))
        assert answers[0].answer == "@entity0"
        [record] = [r for r in caplog.records if "stderr" in r.getMessage()]
        assert record.levelname == "INFO"
        message = record.getMessage()
        assert cmd in message and message.endswith("x" * 496 + "TAIL")
        assert "HEAD" not in message

    def test_wire_format_excludes_gold(self):
        req = _requests(1)[0]
        wire = request_to_json(req)
        assert set(wire) == {"qid", "question", "context", "candidates"}
        json.dumps(wire)

