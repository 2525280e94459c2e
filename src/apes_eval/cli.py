"""Command-line interface.

Subcommands: qgen (corpus -> questions), evaluate (ROUGE + APES report),
decode-demo (beam search on a toy model), gradcheck (gradient
verification), correlate (score-table correlation matrices).

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
Reports format floats to 6 decimals (round-half-even) with stable key
order, so reruns on identical inputs are byte-identical. The
APES_EVAL_THREADS environment variable is validated (an integer, or exit
1), but readers answer the questions one by one in request order, so it
never changes output bytes.

Each handler imports the package modules it runs, so a call loads (and,
without bytecode, compiles) only those. Handlers call load_corpus,
load_summaries, _resolve_reader and dumps_report through this module's
globals, which is where the benchmark's tracer wraps them.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import logging
import os
import sys
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .corpus import Document, SystemSummary
    from .qgen import ClozeQuestion
    from .reader import BatchReader

log = logging.getLogger(__name__)

GRADCHECK_TOLERANCE = 1e-5


class CliError(ValueError):
    """Usage or input problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _round_floats(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dumps_report(obj: dict) -> str:
    """Stable report serialization: rounded floats, preserved key order."""
    return json.dumps(_round_floats(obj), indent=2, ensure_ascii=False) + "\n"


def _write_output(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _threads() -> int:
    raw = os.environ.get("APES_EVAL_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"APES_EVAL_THREADS must be an integer, got {raw!r}")
    return max(1, value)


def load_corpus(path: str) -> list[Document]:
    from . import corpus

    return corpus.load_corpus(path)


def load_summaries(path: str) -> list[SystemSummary]:
    from . import corpus

    return corpus.load_summaries(path)


def _resolve_reader(name: str, command: str | None, threads: int) -> BatchReader:
    """The batch reader for --reader; `threads` is validated but not used."""
    from . import reader

    if name == "oracle":
        return reader.batch_reader(reader.answer_oracle)
    if name == "lexical":
        return reader.batch_reader(reader.answer_lexical)
    if name == "external":
        if not command:
            raise CliError("--reader external requires --reader-cmd")
        return functools.partial(reader.run_external_reader, command=command)
    raise CliError(f"unknown reader {name!r}")


# -- qgen -------------------------------------------------------------------


def cmd_qgen(args: argparse.Namespace) -> int:
    from . import qgen

    docs = load_corpus(args.corpus)
    lines = []
    empty: list[str] = []
    for doc in docs:
        questions = qgen.generate_questions(doc)
        if not questions:
            empty.append(doc.id)
        for q in questions:
            lines.append(json.dumps(qgen.question_to_json(q), ensure_ascii=False))
    if empty:
        log.warning("%d documents produced no questions: %s", len(empty), ", ".join(empty))
    _write_output(args.out, "".join(line + "\n" for line in lines))
    return 0


# -- evaluate ---------------------------------------------------------------


def _references(
    docs: Sequence[Document], refs_path: str | None
) -> dict[str, list[tuple[str, ...]]]:
    if refs_path is None:
        return {
            doc.id: [tuple(t for h in doc.highlights for t in h)] for doc in docs
        }
    refs: dict[str, list[tuple[str, ...]]] = {}
    known = {doc.id for doc in docs}
    for summary in load_summaries(refs_path):
        if summary.doc_id not in known:
            raise CliError(f"--refs references unknown document id {summary.doc_id!r}")
        refs.setdefault(summary.doc_id, []).append(summary.tokens)
    return refs


def _check_question_entities(
    docs: Sequence[Document], questions: Sequence[ClozeQuestion], path: str
) -> None:
    """Every candidate of a question (the answer is one of them) must be an
    @entityN id of its document's entity table. Questions on unknown
    documents are left to score_apes, which refuses them."""
    from .corpus import entity_token

    entities = {doc.id: {entity_token(i) for i in doc.table.entity_ids} for doc in docs}
    for q in questions:
        known = entities.get(q.doc_id)
        if known is not None and not known.issuperset(q.candidates):
            stray = next(c for c in q.candidates if c not in known)
            raise CliError(
                f"{path}: question {q.qid!r}: {stray!r} is not an entity of document {q.doc_id!r}"
            )


def _rouge_block(
    docs: Sequence[Document],
    summaries: Sequence[SystemSummary],
    references: dict[str, list[tuple[str, ...]]],
    multi_ref: str = "max",
) -> dict[str, dict[str, float]]:
    from . import rouge

    by_doc = {s.doc_id: s for s in summaries}
    per_variant: dict[str, list[rouge.RougeScore]] = {v: [] for v in rouge.REPORT_VARIANTS}
    for doc in sorted(docs, key=lambda d: d.id):
        summary = by_doc.get(doc.id)
        if summary is None:
            continue
        refs = references.get(doc.id)
        if not refs:
            raise CliError(f"no reference available for document {doc.id!r}")
        for variant, score in rouge.score_variants(summary.tokens, refs, multi_ref).items():
            per_variant[variant].append(score)
    return {
        variant: {
            "precision": mean.precision,
            "recall": mean.recall,
            "f1": mean.f1,
        }
        for variant, mean in (
            (v, rouge.mean_scores(scores)) for v, scores in per_variant.items()
        )
    }


def build_report(
    docs: Sequence[Document],
    summaries: Sequence[SystemSummary],
    questions: Sequence[ClozeQuestion],
    batch: BatchReader,
    references: dict[str, list[tuple[str, ...]]],
    multi_ref: str = "max",
) -> dict:
    """The joint ROUGE + APES report for one system."""
    from . import apes

    apes_report = apes.score_apes(docs, summaries, questions, batch)
    return {
        "apes": {
            "overall": apes_report.overall,
            "macro": apes_report.macro,
            "per_doc": {
                doc_id: {"correct": c, "total": t}
                for doc_id, (c, t) in apes_report.per_doc.items()
            },
        },
        "rouge": _rouge_block(docs, summaries, references, multi_ref),
        "entity_stats": {
            "avg_entities": apes_report.entities.avg_entities,
            "avg_salient_entities": apes_report.entities.avg_salient_entities,
            "salient_density": apes_report.entities.salient_density,
        },
        "n_docs": len(docs),
        "n_questions": len(questions),
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import qgen

    docs = load_corpus(args.corpus)
    summaries = load_summaries(args.sys)
    questions = qgen.load_questions(args.questions)
    references = _references(docs, args.refs)
    batch = _resolve_reader(args.reader, args.reader_cmd, _threads())
    _check_question_entities(docs, questions, args.questions)
    report = build_report(docs, summaries, questions, batch, references, args.multi_ref)
    _write_output(args.out, dumps_report(report))
    return 0


# -- decode-demo -------------------------------------------------------------


def cmd_decode_demo(args: argparse.Namespace) -> int:
    from . import decode

    model = decode.load_model(args.model)
    cfg = decode.PenaltyConfig(
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        beam_width=args.width,
        max_len=args.max_len,
        block_repeated_trigrams=args.block_trigrams,
        saliency=model.saliency,
    )
    if args.exhaustive:
        result = decode.exhaustive_search(model, cfg)
    else:
        result = decode.beam_search(model, cfg)
    for tok in result.tokens:
        if not isinstance(tok, str):
            raise CliError(f"{args.model}: the winning sequence holds the non-string token {tok!r}")
    lines = [f"tokens: {' '.join(result.tokens)}", f"score: {result.score:.6f}"]
    parts = decode.score_breakdown(result.hypothesis, cfg)
    lines += [f"{name}: {parts[name]:.6f}" for name in ("logp", "lp", "cp", "ep")]
    _write_output(args.out, "".join(line + "\n" for line in lines))
    return 0


# -- gradcheck ----------------------------------------------------------------


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    from . import attnloss  # the only module that loads numpy

    error = attnloss.run_gradcheck(args.seed, args.trials)
    status = "PASS" if error < GRADCHECK_TOLERANCE else "FAIL"
    print(
        f"gradcheck {status}: max relative error {error:.6e} "
        f"(trials={args.trials}, seed={args.seed}, tolerance={GRADCHECK_TOLERANCE:.0e})"
    )
    return 0 if status == "PASS" else 2


# -- correlate ----------------------------------------------------------------


def cmd_correlate(args: argparse.Namespace) -> int:
    from . import stats

    table = stats.read_score_csv(args.scores)
    if args.grouping:
        table = stats.level_aggregate(table, stats.read_grouping_csv(args.grouping))
    matrix = stats.correlation_matrix(table)

    buffer = io.StringIO()
    stats.write_matrix_csv(buffer, table.metrics, matrix)
    _write_output(args.out, buffer.getvalue())
    for i, a in enumerate(table.metrics):
        for b in table.metrics[i + 1 :]:
            print(f"pearson({a}, {b}) = {matrix[a][b]:.6f}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="apes-eval", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qgen", help="generate cloze questions from a corpus")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--out", default=None, help="questions JSONL path (default stdout)")
    p.set_defaults(handler=cmd_qgen)

    p = sub.add_parser("evaluate", help="score summaries with ROUGE and APES")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--sys", required=True, help="system summaries JSONL path")
    p.add_argument("--questions", required=True, help="questions JSONL path")
    p.add_argument("--refs", default=None, help="reference summaries JSONL (default: corpus highlights)")
    p.add_argument("--multi-ref", choices=("max", "average"), default="max",
                   help="how ROUGE combines multiple references")
    p.add_argument("--reader", choices=("oracle", "lexical", "external"), default="lexical")
    p.add_argument("--reader-cmd", default=None, help="command line for --reader external")
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("decode-demo", help="run beam search on a toy step model")
    p.add_argument("model", help="step-model JSON path")
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--block-trigrams", action="store_true")
    p.add_argument("--exhaustive", action="store_true", help="use the exhaustive oracle")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_decode_demo)

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("correlate", help="correlation matrix over a score CSV")
    p.add_argument("scores", help="score CSV: unit id column then metric columns")
    p.add_argument("--grouping", default=None, help="unit,system CSV for system-level scores")
    p.add_argument("--out", default=None, help="matrix CSV path (default stdout)")
    p.set_defaults(handler=cmd_correlate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError) as exc:  # every module's input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
