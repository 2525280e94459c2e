"""Cloze readers: an oracle extractor, a lexical-window baseline, and a
subprocess protocol for plugging in an external (e.g. neural) reader,
which :func:`start_external_reader` starts and whose answers are read on
first use.

All readers consume anonymized contexts and answer with an ``@entityN``
token from the request's candidate set, or None when they abstain.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .corpus import PLACEHOLDER, parse_entity_token

if TYPE_CHECKING:
    import subprocess

log = logging.getLogger(__name__)


class ReaderProtocolError(ValueError):
    """External reader misbehaved: bad exit status or malformed output."""


@dataclass(frozen=True)
class ReaderRequest:
    qid: str
    question: tuple[str, ...]
    context: tuple[str, ...]
    candidates: tuple[str, ...]
    gold: str | None = None  # test-mode annotation; never sent over the wire


@dataclass(frozen=True)
class ReaderAnswer:
    qid: str
    answer: str | None


BatchReader = Callable[[Sequence[ReaderRequest]], Sequence[ReaderAnswer]]


def answer_oracle(request: ReaderRequest) -> ReaderAnswer:
    """Return the gold entity iff its token occurs in the context.

    Upper-bounds every reader: an answer that is not in the context cannot
    be extracted at all.
    """
    if request.gold is None:
        raise ValueError(f"oracle reader needs a gold answer on request {request.qid}")
    present = request.gold in request.context
    return ReaderAnswer(request.qid, request.gold if present else None)


WINDOW = 5  # tokens on each side of a candidate occurrence


def answer_lexical(request: ReaderRequest) -> ReaderAnswer:
    """Pick the candidate whose context occurrence best matches the question.

    A candidate occurrence scores the number of distinct question content
    words (lowercased; @placeholder and @entityN excluded) found within
    WINDOW tokens of it; the best occurrence counts. Ties go to the
    candidate appearing earliest in the context.
    """
    wanted = set(request.candidates)
    occurrences: dict[str, list[int]] = {}
    for i, tok in enumerate(request.context):
        if tok in wanted:
            occurrences.setdefault(tok, []).append(i)
    if not occurrences:
        return ReaderAnswer(request.qid, None)

    content = {
        t.lower()
        for t in request.question
        if t != PLACEHOLDER and parse_entity_token(t) is None
    }
    lowered = [t.lower() for t in request.context]

    def best_overlap(candidate: str) -> int:
        return max(
            len(content.intersection(lowered[max(0, p - WINDOW) : p + WINDOW + 1]))
            for p in occurrences[candidate]
        )

    ranked = sorted(occurrences, key=lambda c: (-best_overlap(c), occurrences[c][0]))
    return ReaderAnswer(request.qid, ranked[0])


def request_to_json(request: ReaderRequest) -> dict:
    return {
        "qid": request.qid,
        "question": list(request.question),
        "context": list(request.context),
        "candidates": list(request.candidates),
    }


def start_external_reader(
    requests: Sequence[ReaderRequest], command: str
) -> Sequence[ReaderAnswer]:
    """Start an external reader and return its answers, read on first use.

    Requests go to the child's stdin as one JSON object per line
    ({"qid", "question", "context", "candidates"}); the child must print
    one {"qid", "answer"} object per line; "\\n", "\\r\\n" and "\\r" end a
    line, and output that is not text in the locale's encoding is an error.
    The join is by qid, so output order is free. The whole request JSONL
    sits in an unnamed temporary file that is the child's stdin, so the
    child never waits on this process for input and the caller can work
    while it answers.

    The returned sequence waits for the child the first time it is read
    (length, iteration or index); read it to reap the child. Missing qids
    score as unanswered with a warning; malformed output, a qid answered
    twice or a nonzero exit raises ReaderProtocolError at that read. The
    tail of the stderr of a reader that exits 0 is logged at INFO.
    """
    import shlex
    import subprocess
    import tempfile

    payload = "".join(
        json.dumps(request_to_json(r), ensure_ascii=False) + "\n" for r in requests
    )
    # Text mode encodes as subprocess's own text-mode stdin would.
    with tempfile.TemporaryFile("w+") as stdin:
        stdin.write(payload)
        stdin.seek(0)
        proc = subprocess.Popen(
            shlex.split(command),
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
    return _PendingAnswers(requests, command, proc)


class _PendingAnswers(Sequence[ReaderAnswer]):
    """A running external reader's answers; the first read waits for it."""

    def __init__(
        self, requests: Sequence[ReaderRequest], command: str, proc: subprocess.Popen[bytes]
    ) -> None:
        self._requests = requests
        self._command = command
        self._proc = proc
        self._answers: list[ReaderAnswer] | None = None

    def _collect(self) -> list[ReaderAnswer]:
        if self._answers is None:
            self._answers = _collect_answers(self._requests, self._command, self._proc)
        return self._answers

    def __len__(self) -> int:
        return len(self._collect())

    def __getitem__(self, index):
        return self._collect()[index]

    def __iter__(self):
        return iter(self._collect())


def _decode(raw: bytes, stream: str, command: str) -> str:
    """Reader output as ``Popen(text=True)`` reads it: decoded strictly in the
    locale's encoding, with "\\r\\n" and a lone "\\r" read as "\\n"."""
    import locale

    encoding = locale.getpreferredencoding(False)
    try:
        return raw.decode(encoding).replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        lineno = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        where = f"output line {lineno}" if stream == "stdout" else stream
        raise ReaderProtocolError(
            f"external reader {where} is not valid {encoding} text ({exc.reason}); "
            f"reader command: {command}"
        ) from exc


def _collect_answers(
    requests: Sequence[ReaderRequest], command: str, proc: subprocess.Popen[bytes]
) -> list[ReaderAnswer]:
    """Wait for the reader, then check and join its answers."""
    raw_stdout, raw_stderr = proc.communicate()
    stdout, stderr = _decode(raw_stdout, "stdout", command), _decode(raw_stderr, "stderr", command)
    if proc.returncode != 0:
        raise ReaderProtocolError(
            f"external reader exited with status {proc.returncode}: "
            f"{stderr.strip()[:500]}"
        )
    tail = stderr.strip()[-500:]
    if tail:
        log.info("external reader %s wrote to stderr: %s", command, tail)

    by_qid: dict[str, str | None] = {}
    # "\n" only: str.splitlines() also breaks at U+2028, U+2029 and U+0085,
    # which JSON leaves raw inside strings
    for lineno, line in enumerate(stdout.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            qid = obj["qid"]
            answer = obj["answer"]
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise ReaderProtocolError(
                f"external reader output line {lineno} is malformed: {exc}"
            ) from exc
        qid = str(qid)
        if qid in by_qid:
            raise ReaderProtocolError(
                f"external reader output line {lineno} answers qid {qid} a second time"
            )
        by_qid[qid] = None if answer is None else str(answer)

    known = {r.qid for r in requests}
    unknown = set(by_qid) - known
    if unknown:
        log.warning("external reader answered %d unknown qids; ignored", len(unknown))

    answers: list[ReaderAnswer] = []
    for request in requests:
        if request.qid not in by_qid:
            log.warning("external reader skipped qid %s; scored as unanswered", request.qid)
            answers.append(ReaderAnswer(request.qid, None))
            continue
        answer = by_qid[request.qid]
        if answer is not None and answer not in request.candidates:
            log.warning(
                "external reader answered %s outside the candidate set of %s; "
                "scored as unanswered",
                answer,
                request.qid,
            )
            answer = None
        answers.append(ReaderAnswer(request.qid, answer))
    return answers


def batch_reader(answer_one: Callable[[ReaderRequest], ReaderAnswer]) -> BatchReader:
    """Lift a per-request reader to the batch interface, answering in request order."""

    def run(requests: Sequence[ReaderRequest]) -> list[ReaderAnswer]:
        return [answer_one(r) for r in requests]

    return run
