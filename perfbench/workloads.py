"""Seeded inputs and CLI call plans for the three benchmark workloads.

Every workload's plan covers the whole CLI surface: ``qgen``, ``evaluate``
with the lexical and with the external reader, ``decode-demo`` (widths 4
and 8, and full-width beam against ``--exhaustive`` on models of acceptance
criterion 5's size) and ``gradcheck``.  Each metric of ``BENCHMARK.json``
is reported on each workload, so each command has to run on each.  The
workloads differ in input shape, which decides the layer that carries the
time:

- ``shuffle_sweep``: many short annotated documents, scored as gold,
  token-shuffled and lead-1 summaries with the lexical reader (the paper's
  shuffle direction check).  Corpus load, anonymisation, the lexical
  reader, ROUGE on short pairs and report serialisation carry the time.
  The external reader scores the gold summaries once more, untimed.
- ``long_multiref``: few long documents without entity annotations, each
  eight synthetic documents joined, with system summaries of about the
  whole source and four references each.  ROUGE-L's |c|*|r| cost, the
  heuristic entity detector and ``find_mentions`` carry the time, and the
  external reader receives multi-megabyte payloads.  The lexical
  evaluation, untimed, uses the default single reference.
- ``decode_gradcheck``: a 61-token, t_x = 20 step model listed to prefix
  depth 2 (about 7.7 MB of JSON) and 200 gradcheck trials; the only
  workload where decoding and the attention-loss kernels carry the time.
  Its corpus is small, so the evaluate-side layers do little.

The program sees only the files written here.  Inputs depend on the seed
alone, and nothing here runs the CLI.
"""

from __future__ import annotations

import json
import math
import os
import random
import shlex
import sys
from dataclasses import dataclass, field
from typing import Callable

from apes_eval import synth
from apes_eval.corpus import document_to_json, sentence_spans

WORKLOADS = ("shuffle_sweep", "long_multiref", "decode_gradcheck")

# Sizes per workload; "tiny" is the harness self-check's scale.
SIZES = {
    "full": {
        "shuffle_sweep": {"docs": 2000, "model_depth": 1, "small_models": 1, "trials": 200},
        "long_multiref": {"docs": 40, "model_depth": 1, "small_models": 1, "trials": 200},
        "decode_gradcheck": {"docs": 100, "model_depth": 2, "small_models": 2, "trials": 200},
    },
    "tiny": {
        "shuffle_sweep": {"docs": 40, "model_depth": 1, "small_models": 1, "trials": 5},
        "long_multiref": {"docs": 3, "model_depth": 1, "small_models": 1, "trials": 5},
        "decode_gradcheck": {"docs": 10, "model_depth": 1, "small_models": 1, "trials": 10},
    },
}

# Share of a run's measuring time given to each kind of call.  Per-call
# wall times on a small shared machine vary by a quarter, so each kind
# gets enough time for several samples of each of its calls.
EVALUATE_SHARES = {"setup": 0.1, "qgen": 0.15, "evaluate": 0.35, "decode": 0.15, "gradcheck": 0.25}
TIME_SHARES = {
    "shuffle_sweep": EVALUATE_SHARES,
    "long_multiref": EVALUATE_SHARES,
    "decode_gradcheck": {"setup": 0.1, "qgen": 0.1, "evaluate": 0.1, "decode": 0.45, "gradcheck": 0.25},
}

LONG_PARTS = 8  # synthetic documents joined into one long_multiref document
LONG_REFS = 4
STEP_VOCAB = [f"w{k:02d}" for k in range(60)] + ["</s>"]
STEP_T_X = 20
DECODE_FLAGS = ["--max-len", "30", "--gamma", "0.5", "--block-trigrams"]
STUB_READER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stub_reader.py")


@dataclass
class Call:
    """One CLI invocation: ``apes-eval <argv>``.

    The call's output is the file ``out`` when set, else its stdout.  An
    untimed call runs once per untraced run, for its checks, and in every
    traced pass, for its layers; it is left out of the end-to-end metrics.
    """

    name: str
    argv: list[str]
    out: str | None = None
    docs: int = 0
    trials: int = 0
    timed: bool = True

    @property
    def kind(self) -> str:
        return self.name.split(".")[0]


# A call that does no work: interpreter start, the cli import and the parser.
SETUP = Call("setup", ["--help"])


@dataclass
class Plan:
    calls: list[Call]
    shape: dict
    shares: dict[str, float]
    checks: list[Callable[["Plan", dict[str, bytes]], set[str]]] = field(default_factory=list)

    def check(self, outputs: dict[str, bytes]) -> set[str]:
        """Names of calls whose output breaks a property; outputs holds the
        calls that exited 0."""
        bad: set[str] = set()
        for check in [_check_each, *self.checks]:
            bad |= check(self, outputs)
        return bad


# -- file writers --------------------------------------------------------------


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def _summary_rows(summaries):
    return [{"doc_id": doc_id, "text": " ".join(tokens)} for doc_id, tokens in summaries]


def _write_step_model(path: str, rng: random.Random, depth: int) -> None:
    """V = 61 including eos, t_x = 20, every prefix up to `depth` listed."""
    steps = {}
    prefixes: list[tuple[str, ...]] = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [p + (tok,) for p in frontier for tok in STEP_VOCAB[:-1]]
        prefixes += frontier
    for prefix in prefixes:
        steps[" ".join(prefix)] = _random_step(rng, STEP_VOCAB, STEP_T_X)
    model = {
        "vocab": STEP_VOCAB,
        "eos": "</s>",
        "t_x": STEP_T_X,
        "steps": steps,
        "saliency": [rng.random() for _ in range(STEP_T_X)],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model, handle)


def _random_step(rng: random.Random, vocab, t_x: int) -> dict:
    logits = [rng.gauss(0.0, 1.0) for _ in vocab]
    top = max(logits)
    log_z = math.log(math.fsum(math.exp(x - top) for x in logits))
    attn = [rng.random() + 1e-3 for _ in range(t_x)]
    total = math.fsum(attn)
    return {
        "logp": {tok: x - top - log_z for tok, x in zip(vocab, logits)},
        "attn": [a / total for a in attn],
    }


def _write_small_model(path: str, rng: random.Random) -> tuple[int, int]:
    """A fully listed model of acceptance criterion 5's size: 2-3 content
    tokens, max length 2-5, t_x 1-3.  Returns (content tokens, max length)."""
    n_content = rng.randint(2, 3)
    max_len = rng.randint(2, 5)
    t_x = rng.randint(1, 3)
    vocab = [chr(97 + i) for i in range(n_content)] + ["</s>"]
    steps = {}
    frontier = [()]
    for _ in range(max_len):
        for prefix in frontier:
            steps[" ".join(prefix)] = _random_step(rng, vocab, t_x)
        frontier = [p + (tok,) for p in frontier for tok in vocab[:-1]]
    model = {
        "vocab": vocab,
        "eos": "</s>",
        "t_x": t_x,
        "steps": steps,
        "saliency": [rng.random() for _ in range(t_x)],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model, handle)
    return n_content, max_len


# -- plan pieces ---------------------------------------------------------------


def _evaluate(work: str, system: str, reader: str, docs: int, refs: str | None = None,
              timed: bool = True) -> Call:
    out = os.path.join(work, f"report.{system}.{reader}.json")
    argv = ["evaluate", "--corpus", os.path.join(work, "corpus.jsonl"),
            "--sys", os.path.join(work, f"sys.{system}.jsonl"),
            "--questions", os.path.join(work, "questions.jsonl"),
            "--reader", reader, "--out", out]
    if reader == "external":
        argv += ["--reader-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(STUB_READER)}"]
    if refs is not None:
        argv += ["--refs", refs, "--multi-ref", "max"]
    return Call(f"evaluate.{system}.{reader}", argv, out=out, docs=docs, timed=timed)


def _decode_calls(work: str, rng: random.Random, size: dict) -> tuple[list[Call], int]:
    model = os.path.join(work, "step_model.json")
    _write_step_model(model, rng, size["model_depth"])
    calls = [
        Call("decode.w4", ["decode-demo", model, "--width", "4", *DECODE_FLAGS]),
        Call("decode.w8", ["decode-demo", model, "--width", "8", *DECODE_FLAGS]),
    ]
    for k in range(size["small_models"]):
        path = os.path.join(work, f"small_model{k}.json")
        n_content, max_len = _write_small_model(path, rng)
        length = ["--max-len", str(max_len)]
        calls.append(Call(f"decode.small{k}.beam",
                          ["decode-demo", path, "--width", str(n_content**max_len), *length]))
        calls.append(Call(f"decode.small{k}.exhaustive",
                          ["decode-demo", path, "--exhaustive", *length]))
    return calls, os.path.getsize(model)


def _lcs_cells(summaries, references) -> int:
    """Sum of |candidate| * |reference| over the pairs ROUGE-L scores."""
    return sum(len(tokens) * sum(len(r) for r in references[doc_id])
               for doc_id, tokens in summaries)


# -- workloads -----------------------------------------------------------------


def build(workload: str, seed: int, work: str, scale: str = "full") -> Plan:
    """Write the workload's inputs under `work` and return its call plan."""
    size = SIZES[scale][workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "long_multiref":
        calls, shape = _long_inputs(work, rng, seed, size["docs"])
        checks = []
    else:
        calls, shape = _short_inputs(work, seed, size["docs"], workload)
        checks = [_check_shuffle] if workload == "shuffle_sweep" else []
    decode_calls, model_bytes = _decode_calls(work, rng, size)
    calls += decode_calls
    calls.append(Call("gradcheck", ["gradcheck", "--seed", str(seed), "--trials", str(size["trials"])],
                      trials=size["trials"]))
    shape["model_json_bytes"] = model_bytes
    shape["gradcheck_trials"] = size["trials"]
    return Plan(calls, shape, TIME_SHARES[workload], checks + [_check_decode_pairs])


def _short_inputs(work: str, seed: int, n_docs: int, workload: str):
    docs = synth.make_corpus(n_docs, seed=seed)
    _write_jsonl(os.path.join(work, "corpus.jsonl"), (document_to_json(d) for d in docs))
    systems = {
        "gold": [synth.reference_summary(d) for d in docs],
        "shuffled": [synth.shuffled_summary(d, seed=seed) for d in docs],
        "lead1": [synth.lead_summary(d, 1) for d in docs],
    }
    if workload != "shuffle_sweep":
        systems = {"gold": systems["gold"]}
    for name, summaries in systems.items():
        _write_jsonl(os.path.join(work, f"sys.{name}.jsonl"),
                     _summary_rows((s.doc_id, s.tokens) for s in summaries))

    questions = os.path.join(work, "questions.jsonl")
    calls = [Call("qgen", ["qgen", "--corpus", os.path.join(work, "corpus.jsonl"), "--out", questions],
                  out=questions, docs=n_docs)]
    calls += [_evaluate(work, name, "lexical", n_docs) for name in systems]
    # shuffle_sweep times the lexical reader only; the external run is there
    # so that every traced run measures both readers.
    calls.append(_evaluate(work, "gold", "external", n_docs, timed=workload != "shuffle_sweep"))

    references = {d.id: [tuple(t for h in d.highlights for t in h)] for d in docs}
    scored = [(s.doc_id, s.tokens) for name in systems for s in systems[name]]
    scored += [(s.doc_id, s.tokens) for s in systems["gold"]]  # the external run
    shape = {
        "docs": n_docs,
        "annotated": True,
        "systems": list(systems),
        "mean_summary_tokens": sum(len(t) for _, t in scored) / len(scored),
        "refs_per_doc": 1,
        "rouge.lcs_cells": _lcs_cells(scored, references),
    }
    return calls, shape


def _sample_sentences(rng: random.Random, tokens, keep: float) -> tuple[str, ...]:
    spans = sentence_spans(tokens)
    kept = [span for span in spans if rng.random() < keep] or spans[:1]
    return tuple(t for start, end in kept for t in tokens[start:end])


def _long_inputs(work: str, rng: random.Random, seed: int, n_docs: int):
    rows, system, refs, references = [], [], [], {}
    for i in range(n_docs):
        doc_id = f"long{i:03d}"
        parts = [synth.make_document(doc_id, random.Random(f"{seed}:{i}:{k}"))
                 for k in range(LONG_PARTS)]
        source = tuple(t for p in parts for t in p.source_tokens)
        highlights = [h for p in parts for h in p.highlights]
        # No "entities" key: the loader falls back to heuristic detection.
        rows.append({"id": doc_id, "source": " ".join(source),
                     "highlights": [" ".join(h) for h in highlights]})
        system.append((doc_id, _sample_sentences(rng, source, 0.9)))
        doc_refs = [tuple(t for h in highlights for t in h)]
        doc_refs += [_sample_sentences(rng, source, 0.55) for _ in range(LONG_REFS - 1)]
        refs += [(doc_id, r) for r in doc_refs]
        references[doc_id] = doc_refs

    _write_jsonl(os.path.join(work, "corpus.jsonl"), rows)
    _write_jsonl(os.path.join(work, "sys.system.jsonl"), _summary_rows(system))
    refs_path = os.path.join(work, "refs.jsonl")
    _write_jsonl(refs_path, _summary_rows(refs))

    questions = os.path.join(work, "questions.jsonl")
    calls = [
        Call("qgen", ["qgen", "--corpus", os.path.join(work, "corpus.jsonl"), "--out", questions],
             out=questions, docs=n_docs),
        _evaluate(work, "system", "external", n_docs, refs=refs_path),
        _evaluate(work, "system", "lexical", n_docs, timed=False),
    ]
    single = {doc_id: r[:1] for doc_id, r in references.items()}
    shape = {
        "docs": n_docs,
        "annotated": False,
        "parts_per_doc": LONG_PARTS,
        "systems": ["system"],
        "mean_summary_tokens": sum(len(t) for _, t in system) / len(system),
        "refs_per_doc": LONG_REFS,
        "rouge.lcs_cells": _lcs_cells(system, references) + _lcs_cells(system, single),
    }
    return calls, shape


# -- output checks -------------------------------------------------------------


def _report(outputs: dict[str, bytes], name: str) -> dict | None:
    try:
        return json.loads(outputs[name])
    except (KeyError, ValueError):
        return None


def _check_each(plan: Plan, outputs: dict[str, bytes]) -> set[str]:
    """Per-call shape checks: questions parse, reports count every document
    and question, decode-demo and gradcheck print their result lines."""
    bad: set[str] = set()
    n_questions = None
    if "qgen" in outputs:
        try:
            n_questions = len([json.loads(line) for line in outputs["qgen"].splitlines()])
        except ValueError:
            bad.add("qgen")
    for call in [SETUP, *plan.calls]:
        if call.name not in outputs:
            continue
        text = outputs[call.name].decode("utf-8", "replace")
        if call.kind == "setup":
            if not text.startswith("usage: apes-eval"):
                bad.add(call.name)
        elif call.kind == "evaluate":
            report = _report(outputs, call.name)
            if (report is None or report.get("n_docs") != call.docs
                    or (n_questions is not None and report.get("n_questions") != n_questions)):
                bad.add(call.name)
        elif call.kind == "decode":
            lines = text.splitlines()
            if len(lines) < 2 or not lines[0].startswith("tokens: ") or not lines[1].startswith("score: "):
                bad.add(call.name)
        elif call.kind == "gradcheck":
            if not text.startswith("gradcheck PASS"):
                bad.add(call.name)
    return bad


def _check_decode_pairs(plan: Plan, outputs: dict[str, bytes]) -> set[str]:
    """The exhaustive oracle prints the same tokens/score lines as the
    full-width beam."""
    bad: set[str] = set()
    for call in plan.calls:
        if call.name.endswith(".exhaustive"):
            beam = call.name.replace(".exhaustive", ".beam")
            if call.name in outputs and beam in outputs:
                if outputs[call.name].splitlines()[:2] != outputs[beam].splitlines()[:2]:
                    bad.add(call.name)
    return bad


def _check_shuffle(plan: Plan, outputs: dict[str, bytes]) -> set[str]:
    """Shuffling keeps unigram ROUGE and lowers bigram ROUGE and APES."""
    gold = _report(outputs, "evaluate.gold.lexical")
    shuffled = _report(outputs, "evaluate.shuffled.lexical")
    if gold is None or shuffled is None:
        return set()
    try:
        holds = (shuffled["rouge"]["r1"]["f1"] == gold["rouge"]["r1"]["f1"]
                 and shuffled["rouge"]["r2"]["f1"] < gold["rouge"]["r2"]["f1"]
                 and shuffled["apes"]["overall"] < gold["apes"]["overall"])
    except (KeyError, TypeError):
        holds = False
    return set() if holds else {"evaluate.shuffled.lexical"}
