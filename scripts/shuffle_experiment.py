#!/usr/bin/env python3
"""Direction check on synthetic data: gold reference summaries must beat
their shuffled counterparts on the QA metric while unigram ROUGE cannot
tell them apart. Prints one row per system and writes a per-document score
CSV suitable for `apes-eval correlate`.
"""

import argparse
import csv
import statistics

from apes_eval import synth
from apes_eval.apes import score_apes
from apes_eval.qgen import generate_questions
from apes_eval.reader import answer_lexical, batch_reader
from apes_eval.rouge import REPORT_VARIANTS, score_variants


def evaluate(docs, summaries, questions):
    reader = batch_reader(answer_lexical)
    apes_report = score_apes(docs, summaries, questions, reader)
    by_doc = {s.doc_id: s for s in summaries}
    per_doc_rows = {}
    for doc in sorted(docs, key=lambda d: d.id):
        ref = [tuple(t for h in doc.highlights for t in h)]
        scores = score_variants(by_doc[doc.id].tokens, ref)
        per_doc_rows[doc.id] = {variant: score.f1 for variant, score in scores.items()}
    rouge_means = {
        variant: statistics.mean(row[variant] for row in per_doc_rows.values())
        for variant in REPORT_VARIANTS
    }
    for doc_id, (correct, total) in apes_report.per_doc.items():
        per_doc_rows[doc_id]["apes"] = correct / total if total else 0.0
    return apes_report.overall, rouge_means, per_doc_rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shuffle-seeds", type=int, default=5)
    parser.add_argument("--scores-csv", default=None,
                        help="write per-document lead-1 scores here (feed to correlate)")
    args = parser.parse_args()

    docs = synth.make_corpus(args.docs, seed=args.seed)
    questions = [q for d in docs for q in generate_questions(d)]
    print(f"{args.docs} documents, {len(questions)} questions")
    header = f"{'system':<14} {'APES':>7} " + " ".join(f"{v:>7}" for v in REPORT_VARIANTS)
    print(header)
    print("-" * len(header))

    gold = [synth.reference_summary(d) for d in docs]
    apes_gold, rouge_gold, _ = evaluate(docs, gold, questions)
    print(f"{'gold':<14} {apes_gold:7.3f} "
          + " ".join(f"{rouge_gold[v]:7.3f}" for v in REPORT_VARIANTS))

    shuffled_scores = []
    for seed in range(args.shuffle_seeds):
        shuffled = [synth.shuffled_summary(d, seed=seed) for d in docs]
        apes_s, rouge_s, _ = evaluate(docs, shuffled, questions)
        shuffled_scores.append(apes_s)
        print(f"{f'shuffled[{seed}]':<14} {apes_s:7.3f} "
              + " ".join(f"{rouge_s[v]:7.3f}" for v in REPORT_VARIANTS))

    lead = [synth.lead_summary(d, 1) for d in docs]
    apes_lead, rouge_lead, per_doc = evaluate(docs, lead, questions)
    print(f"{'lead-1':<14} {apes_lead:7.3f} "
          + " ".join(f"{rouge_lead[v]:7.3f}" for v in REPORT_VARIANTS))

    mean_shuffled = statistics.mean(shuffled_scores)
    print(f"\nmean shuffled APES {mean_shuffled:.3f} vs gold {apes_gold:.3f} "
          f"({'OK' if mean_shuffled < apes_gold else 'UNEXPECTED'})")

    if args.scores_csv:
        metrics = [*REPORT_VARIANTS, "apes"]
        with open(args.scores_csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["unit", *metrics])
            for doc_id in sorted(per_doc):
                writer.writerow([doc_id, *(f"{per_doc[doc_id][m]:.6f}" for m in metrics)])
        print(f"wrote {args.scores_csv}")


if __name__ == "__main__":
    main()
