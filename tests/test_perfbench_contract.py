"""The benchmark's traced pass still sees every layer the CLI reaches.

perfbench/tracing.py times a layer by replacing a module attribute (such
as `attnloss.attention_gradients`) with a span-recording wrapper. Code
that stops calling a wrapped name through its module, or renames it,
still works untraced but silently zeroes that layer's metric, so this
runs small CLI calls under the wrappers and checks the spans.
"""

import json
import pathlib
import shlex
import sys
import types

from apes_eval import cli, synth
from apes_eval.corpus import document_to_json
from conftest import write_jsonl

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
STUB_READER = PERFBENCH / "stub_reader.py"

# The span of SPAN_METRICS that no call below reaches: the CLI never calls
# the public apes.entity_stats (score_apes computes the statistics from
# summaries it has already anonymised).
NOT_REACHED = {"apes.entity_stats"}


def load_tracing():
    # Executed from its source text, so no bytecode cache is written next to it.
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_calls_record_every_reached_layer(tmp_path):
    tracing = load_tracing()
    docs = synth.make_corpus(4, seed=0)
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [document_to_json(d) for d in docs])
    summaries = write_jsonl(
        tmp_path / "sys.jsonl",
        [{"doc_id": d.id, "tokens": list(synth.reference_summary(d).tokens)} for d in docs],
    )
    questions = str(tmp_path / "questions.jsonl")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"vocab": ["a", "b", "</s>"], "eos": "</s>", "t_x": 2}))
    decode = ["decode-demo", str(model), "--max-len", "3", "--gamma", "0"]
    evaluate = ["evaluate", "--corpus", corpus, "--sys", summaries, "--questions", questions]
    # Call names matter: the beam-search span is named after the call's
    # width suffix, as in the benchmark's plan.
    calls = [
        ("qgen", ["qgen", "--corpus", corpus, "--out", questions]),
        ("evaluate.gold.lexical", evaluate + ["--out", str(tmp_path / "r.json")]),
        # reaches the reader.external span through cli._resolve_reader
        ("evaluate.gold.external", evaluate + [
            "--reader", "external", "--reader-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(str(STUB_READER))}",
            "--out", str(tmp_path / "r_external.json"),
        ]),
        ("decode.w4", decode + ["--width", "4"]),
        ("decode.w8", decode + ["--width", "8"]),
        ("decode.small0.exhaustive", decode + ["--exhaustive"]),
        ("gradcheck", ["gradcheck", "--trials", "2"]),
    ]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        for name, argv in calls:
            tracer.call_name = name
            assert cli.main(argv) == 0, name

    names = [span[0] for span in tracer.spans]
    assert set(tracing.SPAN_METRICS.values()) - NOT_REACHED <= set(names)
    # finite_difference_check reaches attention_gradients through the module
    # attribute, once per trial, so the gradient span nests inside it.
    gradients = [span for span in tracer.spans if span[0] == "attnloss.attention_gradients"]
    assert len(gradients) == names.count("attnloss.finite_difference_check") == 2
    assert all(names[span[3]] == "attnloss.finite_difference_check" for span in gradients)
