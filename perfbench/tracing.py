"""In-process tracing of the CLI's layers, from outside the program.

The traced pass calls ``apes_eval.cli.main`` in this process with the
layers' public functions replaced by wrappers that record a span
{name, start, end, parent, run id} around each call.  Spans stay in
memory; counts are computed from the recorded arguments after the pass,
so they cost no span time.  A layer's self time is its span minus its
child spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# Per-layer time metrics: metric name -> span name whose self time it sums.
SPAN_METRICS = {
    "corpus.load_corpus_s": "corpus.load_corpus",
    "corpus.load_summaries_s": "corpus.load_summaries",
    "corpus.anonymize_free_text_s": "corpus.anonymize_free_text",
    "qgen.generate_questions_s": "qgen.generate_questions",
    "qgen.load_questions_s": "qgen.load_questions",
    "apes.build_requests_s": "apes.build_requests",
    "apes.entity_stats_s": "apes.entity_stats",
    "apes.score_apes_self_s": "apes.score_apes",
    "reader.lexical_s": "reader.lexical",
    "reader.external_s": "reader.external",
    "rouge.r1_s": "rouge.r1",
    "rouge.r2_s": "rouge.r2",
    "rouge.rl_s": "rouge.rl",
    "rouge.rsu4_s": "rouge.rsu4",
    "cli.dumps_report_s": "cli.dumps_report",
    "decode.load_model_s": "decode.load_model",
    "decode.beam_search_w4_s": "decode.beam_search_w4",
    "decode.beam_search_w8_s": "decode.beam_search_w8",
    "decode.exhaustive_search_s": "decode.exhaustive_search",
    "attnloss.attention_gradients_s": "attnloss.attention_gradients",
    "attnloss.finite_difference_check_s": "attnloss.finite_difference_check",
    "attnloss.run_gradcheck_s": "attnloss.run_gradcheck",
}
COUNT_METRICS = (
    "corpus.mention_probes",
    "qgen.questions",
    "apes.requests",
    "apes.unanswerable",
    "reader.external_payload_bytes",
    "rouge.pairs",
    "rouge.lcs_cells",
    "cli.report_bytes",
)


class Tracer:
    """Spans of every traced pass, plus the counter calls of the current one."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.stack: list[int] = []
        self.run_id = 0
        self.call_name = ""  # name of the plan call in progress
        self.pending: list[tuple] = []  # (counter, args, kwargs, result)

    def span(self, name, fn, counter=None):
        """Wrap fn; `name` is a string or a function of (tracer, args, kwargs)."""

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(self, args, kwargs)
            record = [label, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run_id]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()
            if counter is not None:
                self.pending.append((counter, args, kwargs, result))
            return result

        return traced

    def self_times(self, run_id: int) -> dict[str, float]:
        """Sum of self time per span name over one run."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, rid) in enumerate(self.spans):
            if rid == run_id:
                totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def counts(self) -> dict[str, float]:
        """Counters over the calls recorded since the last call; clears them."""
        totals = {name: 0 for name in COUNT_METRICS}
        totals["reader.asked"] = totals["reader.answered"] = 0
        for counter, args, kwargs, result in self.pending:
            counter(totals, args, kwargs, result)
        self.pending.clear()
        return totals

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]


# -- counters: (totals, args, kwargs, result) -> None ---------------------------


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _count_mentions(totals, args, kwargs, result):
    tokens, table = _arg(args, kwargs, 0, "tokens"), _arg(args, kwargs, 1, "table")
    totals["corpus.mention_probes"] += len(tokens) * len(table.surface_index())


def _count_questions(totals, args, kwargs, result):
    totals["qgen.questions"] += len(result)


def _count_requests(totals, args, kwargs, result):
    asked, unanswerable = result
    totals["apes.requests"] += len(asked)
    totals["apes.unanswerable"] += len(unanswerable)


def _count_pairs(totals, args, kwargs, result):
    totals["rouge.pairs"] += len(_arg(args, kwargs, 1, "references"))


def _count_lcs(totals, args, kwargs, result):
    candidate, references = _arg(args, kwargs, 0, "candidate"), _arg(args, kwargs, 1, "references")
    totals["rouge.pairs"] += len(references)
    totals["rouge.lcs_cells"] += sum(len(candidate) * len(r) for r in references)


def _count_report(totals, args, kwargs, result):
    totals["cli.report_bytes"] += len(result.encode("utf-8"))


def _reader_counter(external: bool):
    def count(totals, args, kwargs, result):
        from apes_eval.reader import request_to_json

        requests = args[0]
        totals["reader.asked"] += len(requests)
        totals["reader.answered"] += sum(1 for a in result if a.answer is not None)
        if external:
            totals["reader.external_payload_bytes"] += sum(
                len((json.dumps(request_to_json(r), ensure_ascii=False) + "\n").encode("utf-8"))
                for r in requests
            )

    return count


def _beam_name(tracer, args, kwargs):
    # Widths 4 and 8 are the plan's decode.w4/decode.w8 calls; the
    # full-width beams of the exhaustive comparison get their own name.
    suffix = tracer.call_name.split(".")[1]
    return f"decode.beam_search_{suffix}" if suffix in ("w4", "w8") else "decode.beam_search_full"


@contextmanager
def instrumented(tracer: Tracer):
    """Swap the wrappers into the program's modules; restore them on exit."""
    from apes_eval import apes, attnloss, cli, decode, qgen, rouge

    def resolve_reader(name, command, threads):
        batch = original_resolve(name, command, threads)
        return tracer.span(f"reader.{name}", batch, _reader_counter(name == "external"))

    original_resolve = cli._resolve_reader
    patches = [
        (cli, "load_corpus", tracer.span("corpus.load_corpus", cli.load_corpus)),
        (cli, "load_summaries", tracer.span("corpus.load_summaries", cli.load_summaries)),
        (apes, "anonymize_free_text",
         tracer.span("corpus.anonymize_free_text", apes.anonymize_free_text, _count_mentions)),
        (qgen, "generate_questions",
         tracer.span("qgen.generate_questions", qgen.generate_questions, _count_questions)),
        (qgen, "load_questions", tracer.span("qgen.load_questions", qgen.load_questions)),
        (apes, "score_apes", tracer.span("apes.score_apes", apes.score_apes)),
        (apes, "build_requests",
         tracer.span("apes.build_requests", apes.build_requests, _count_requests)),
        (apes, "entity_stats", tracer.span("apes.entity_stats", apes.entity_stats)),
        (cli, "_resolve_reader", resolve_reader),
        (rouge, "rouge_n",
         tracer.span(lambda t, a, k: f"rouge.r{_arg(a, k, 2, 'n')}", rouge.rouge_n, _count_pairs)),
        (rouge, "rouge_l", tracer.span("rouge.rl", rouge.rouge_l, _count_lcs)),
        (rouge, "rouge_su",
         tracer.span(lambda t, a, k: f"rouge.rsu{_arg(a, k, 2, 'skip')}", rouge.rouge_su, _count_pairs)),
        (cli, "dumps_report", tracer.span("cli.dumps_report", cli.dumps_report, _count_report)),
        (decode, "load_model", tracer.span("decode.load_model", decode.load_model)),
        (decode, "beam_search", tracer.span(_beam_name, decode.beam_search)),
        (decode, "exhaustive_search", tracer.span("decode.exhaustive_search", decode.exhaustive_search)),
        (attnloss, "run_gradcheck", tracer.span("attnloss.run_gradcheck", attnloss.run_gradcheck)),
        (attnloss, "finite_difference_check",
         tracer.span("attnloss.finite_difference_check", attnloss.finite_difference_check)),
        (attnloss, "attention_gradients",
         tracer.span("attnloss.attention_gradients", attnloss.attention_gradients)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def layer_values(tracer: Tracer, run_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, counters included."""
    self_time = tracer.self_times(run_id)
    values = {metric: self_time.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    counts = tracer.counts()
    values.update({name: counts[name] for name in COUNT_METRICS})
    values["reader.answered_ratio"] = counts["reader.answered"] / max(counts["reader.asked"], 1)
    return values
