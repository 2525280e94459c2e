"""Independent brute-force references the fast implementations are checked
against. Deliberately naive: list scans, explicit enumeration, the
quadratic LCS table, O(2^n) where that is the simplest correct thing.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence

import numpy as np


def ngram_list(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def su_unit_counts(tokens: Sequence[str], skip: int) -> Counter:
    """Unigrams plus skip-bigrams (t_i, t_j) with i < j <= i + skip, as one multiset."""
    units: Counter = Counter(tokens)
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + skip, len(tokens) - 1) + 1):
            units[(tokens[i], tokens[j])] += 1
    return units


def greedy_multiset_overlap(a: list, b: list) -> int:
    """Clipped multiset intersection by removing matches one at a time."""
    pool = list(b)
    count = 0
    for item in a:
        if item in pool:
            pool.remove(item)
            count += 1
    return count


def prf(overlap: int, n_cand: int, n_ref: int) -> tuple[float, float, float]:
    p = overlap / n_cand if n_cand else 0.0
    r = overlap / n_ref if n_ref else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def brute_rouge_n(cand: Sequence[str], ref: Sequence[str], n: int):
    a = ngram_list([t.lower() for t in cand], n)
    b = ngram_list([t.lower() for t in ref], n)
    return prf(greedy_multiset_overlap(a, b), len(a), len(b))


def is_subsequence(needle: Sequence[str], hay: Sequence[str]) -> bool:
    it = iter(hay)
    return all(tok in it for tok in needle)


def dp_lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by the quadratic dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def brute_lcs(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence by enumerating subsequences of the shorter side."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for length in range(len(short), 0, -1):
        for indices in itertools.combinations(range(len(short)), length):
            if is_subsequence([short[i] for i in indices], long_):
                return length
    return 0


def brute_rouge_l(cand: Sequence[str], ref: Sequence[str]):
    a = [t.lower() for t in cand]
    b = [t.lower() for t in ref]
    if not a or not b:
        return 0.0, 0.0, 0.0
    return prf(brute_lcs(a, b), len(a), len(b))


def su_unit_list(tokens: Sequence[str], skip: int) -> list:
    units: list = list(tokens)
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens)):
            if j - i <= skip:
                units.append((tokens[i], tokens[j]))
    return units


def brute_rouge_su(cand: Sequence[str], ref: Sequence[str], skip: int):
    a = su_unit_list([t.lower() for t in cand], skip)
    b = su_unit_list([t.lower() for t in ref], skip)
    return prf(greedy_multiset_overlap(a, b), len(a), len(b))


def scan_find_mentions(tokens: Sequence[str], table) -> list:
    """corpus.find_mentions by trying every surface, longest first then lowest
    entity id, at each position, left to right."""
    from apes_eval.corpus import Mention

    index = table.surface_index()
    surfaces = sorted(index, key=lambda s: (-len(s), index[s]))
    lowered = [t.lower() for t in tokens]
    found = []
    i = 0
    while i < len(tokens):
        hit = None
        for surf in surfaces:
            j = i + len(surf)
            if j <= len(tokens) and tuple(lowered[i:j]) == surf:
                hit = Mention(index[surf], i, j)
                break
        if hit is None:
            i += 1
        else:
            found.append(hit)
            i = hit.end
    return found


def frozen_parse_annotated(obj: dict, where: str = "document"):
    """corpus.parse_document on a document with entities and explicit
    mentions, as it checked them while a mention carried its tokens: each
    span is compared with each surface of its entity in turn, and the check
    re-sorts each stream's mentions by start. Takes well-typed fields
    (string texts, entity objects, [entity, start, end] int triples)."""
    from apes_eval.corpus import CorpusError, Document, Entity, EntityTable, Mention, tokenize

    source = tuple(tokenize(obj["source"]))
    highlights = tuple(tuple(tokenize(h)) for h in obj.get("highlights", []))
    streams = {"source": source}
    for k, h in enumerate(highlights):
        streams[f"highlight_{k}"] = h
    entities = []
    for ent in sorted(obj["entities"], key=lambda e: e["id"]):
        surfaces = tuple(tuple(tokenize(s)) for s in ent["surfaces"])
        if not surfaces or any(not s for s in surfaces):
            raise CorpusError(f"{where}: entity {ent['id']} needs non-empty surfaces")
        entities.append(Entity(ent["id"], surfaces))
    for stream in obj["mentions"]:
        if stream not in streams:
            raise CorpusError(f"{where}: unknown stream {stream!r}")

    def matches(entity, span) -> bool:
        lowered = tuple(t.lower() for t in span)
        return any(tuple(s.lower() for s in surf) == lowered for surf in entity.surfaces)

    ids = [e.entity_id for e in entities]
    if ids != list(range(len(ids))):
        raise CorpusError(f"{where}: entity ids must be contiguous from 0, got {ids}")
    for stream, triples in obj["mentions"].items():
        tokens = streams[stream]
        prev_end = 0
        for eid, start, end in sorted(triples, key=lambda t: t[1]):
            if eid not in ids:
                raise CorpusError(f"{where}: mention of unknown entity id {eid}")
            if not (0 <= start < end <= len(tokens)):
                raise CorpusError(
                    f"{where}: mention span ({start}, {end}) out of range in {stream!r}"
                )
            if start < prev_end:
                raise CorpusError(f"{where}: overlapping entity mentions")
            prev_end = end
            span = tuple(tokens[start:end])
            if not matches(entities[eid], span):
                raise CorpusError(f"{where}: mention {span} matches no surface of entity {eid}")
    mentions = {
        stream: [Mention(*t) for t in sorted(triples, key=lambda t: t[1])]
        for stream, triples in obj["mentions"].items()
    }
    return Document(obj["id"], source, highlights, EntityTable(entities, mentions))


def brute_pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def count_sentence_entity_pairs(doc) -> int:
    """Recount of how many questions a document must produce."""
    from apes_eval.corpus import sentence_spans

    total = 0
    for k, highlight in enumerate(doc.highlights):
        mentions = doc.table.mentions.get(f"highlight_{k}", [])
        for start, end in sentence_spans(highlight):
            inside = {m.entity_id for m in mentions if start <= m.start and m.end <= end}
            total += len(inside)
    return total


def frozen_forward(states, u, b, v):
    """The 2-D forward pass as written before it took stacks:
    (tanh preactivation, scores, probabilities)."""
    pre = np.tanh(states @ u.T + b)
    scores = pre @ v
    probs = 1.0 / (1.0 + np.exp(-scores))
    return pre, scores, probs


def frozen_bce(probs, targets) -> float:
    """The mean BCE of one probability vector as written before it took rows."""
    if probs.size == 0:
        raise ValueError("probs must be a non-empty vector")
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("probabilities must lie strictly in (0, 1)")
    terms = -(targets * np.log(probs) + (1.0 - targets) * np.log(1.0 - probs))
    return float(terms.mean())


def inplace_central_difference(fn, array, step: float):
    """Central differences entry by entry: perturb one entry of array in
    place, call fn on the whole array, restore the entry."""
    if step <= 0:
        raise ValueError("step must be positive")
    grad = np.zeros_like(array, dtype=float)
    flat = array.reshape(-1)
    out = grad.reshape(-1)
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + step
        plus = fn(array)
        flat[idx] = original - step
        minus = fn(array)
        flat[idx] = original
        out[idx] = (plus - minus) / (2.0 * step)
    return grad


def frozen_saliency_bce(states, params, targets) -> float:
    """saliency_bce with every public check, on the frozen forward pass and BCE."""
    from apes_eval.attnloss import _check_states, _check_targets

    probs = frozen_forward(_check_states(states, params), params.u, params.b, params.v)[2]
    return frozen_bce(probs, _check_targets(targets, probs.shape[0]))


def inplace_numeric_gradients(states, params, targets, step: float):
    """Numeric gradients of the saliency BCE with respect to u, b, v and
    states, by the in-place loop over copies of each."""
    states = states.copy()
    u, b, v = params.u.copy(), params.b.copy(), params.v.copy()

    def loss(_):
        return frozen_bce(frozen_forward(states, u, b, v)[2], targets)

    return tuple(inplace_central_difference(loss, a, step) for a in (u, b, v, states))


def four_block_finite_difference_check(states, params, targets, step: float = 1e-5) -> float:
    """The gradient check as four copied blocks, one per differentiated
    array, each rebuilding AttentionParams and running saliency_bce (with
    all of its checks) for every perturbed entry, entry by entry."""
    from apes_eval.attnloss import (
        AttentionParams,
        _check_states,
        _check_targets,
        _relative_error,
        attention_gradients,
    )

    states = _check_states(states, params).copy()
    targets = _check_targets(targets, states.shape[0])
    analytic = attention_gradients(states, params, targets)

    u, b, v = params.u.copy(), params.b.copy(), params.v.copy()

    errors = [
        _relative_error(
            analytic.u,
            inplace_central_difference(
                lambda a: frozen_saliency_bce(states, AttentionParams(a, b, v), targets), u, step
            ),
        ),
        _relative_error(
            analytic.b,
            inplace_central_difference(
                lambda a: frozen_saliency_bce(states, AttentionParams(u, a, v), targets), b, step
            ),
        ),
        _relative_error(
            analytic.v,
            inplace_central_difference(
                lambda a: frozen_saliency_bce(states, AttentionParams(u, b, a), targets), v, step
            ),
        ),
        _relative_error(
            analytic.states,
            inplace_central_difference(lambda a: frozen_saliency_bce(a, params, targets), states, step),
        ),
    ]
    return max(errors)


def frozen_coverage_penalty(coverage, beta: float) -> float:
    """The coverage penalty as numpy computed it."""
    cov = np.asarray(coverage, dtype=float)
    if cov.size and cov.min() < 0:
        raise ValueError("coverage entries must be non-negative")
    return float(beta * (-cov.size + np.maximum(cov, 1.0).sum()))


def frozen_entity_penalty(coverage, saliency, gamma: float) -> float:
    """The entity penalty as numpy computed it."""
    cov = np.asarray(coverage, dtype=float)
    sal = np.asarray(saliency, dtype=float)
    if cov.shape != sal.shape:
        raise ValueError(
            f"coverage and saliency lengths differ: {cov.shape} vs {sal.shape}"
        )
    return float(gamma * np.maximum(sal - cov, 0.0).sum())


def frozen_attention_row(prefix, attn, t_x: int):
    """An attention row parsed and checked by numpy, as a float64 array."""
    from apes_eval.decode import PROB_TOL, ModelError

    row = np.asarray(attn, dtype=float)
    if row.shape != (t_x,):
        raise ModelError(f"attention row for prefix {prefix} must have length {t_x}")
    if not (row.min() >= 0 and abs(float(row.sum()) - 1.0) <= PROB_TOL):  # NaN fails
        raise ModelError(
            f"attention row for prefix {prefix} must be non-negative and sum to 1"
        )
    return row


def stepwise_final_score(hyp, cfg) -> float:
    """The full penalty score on the numpy penalties, subtracting each
    penalty in turn and the entity penalty only when gamma > 0."""
    from apes_eval.decode import length_penalty

    if not hyp.finished:
        raise ValueError("final_score applies to finished hypotheses only")
    if cfg.gamma > 0 and cfg.saliency is None:
        raise ValueError("gamma > 0 requires a saliency vector")
    score = hyp.logp / length_penalty(len(hyp.tokens), cfg.alpha)
    score -= frozen_coverage_penalty(hyp.coverage, cfg.beta)
    if cfg.gamma > 0:
        score -= frozen_entity_penalty(hyp.coverage, cfg.saliency, cfg.gamma)
    return score


def frozen_score_breakdown(hyp, cfg) -> dict[str, float]:
    """score_breakdown on the numpy penalties."""
    from apes_eval.decode import length_penalty

    lp = length_penalty(len(hyp.tokens), cfg.alpha)
    cp = frozen_coverage_penalty(hyp.coverage, cfg.beta)
    ep = (
        frozen_entity_penalty(hyp.coverage, cfg.saliency, cfg.gamma)
        if cfg.gamma > 0 and cfg.saliency is not None
        else 0.0
    )
    return {"logp": hyp.logp, "lp": lp, "cp": cp, "ep": ep}


def frozen_final_score(hyp, cfg) -> float:
    if not hyp.finished:
        raise ValueError("final_score applies to finished hypotheses only")
    if cfg.gamma > 0 and cfg.saliency is None:
        raise ValueError("gamma > 0 requires a saliency vector")
    parts = frozen_score_breakdown(hyp, cfg)
    return parts["logp"] / parts["lp"] - parts["cp"] - parts["ep"]


def _creates_repeated_trigram(tokens, nxt) -> bool:
    if len(tokens) < 3:
        return False
    new = (tokens[-2], tokens[-1], nxt)
    return any(tokens[i : i + 3] == new for i in range(len(tokens) - 2))


def frozen_beam_search(model, cfg):
    """Beam search on numpy coverage arrays, building and ranking a
    Hypothesis per child and recomputing each child's coverage penalty:
    (tokens, score, hypothesis) of the best finished hypothesis."""
    from apes_eval.decode import Hypothesis

    ids = {tok: i for i, tok in enumerate(model.vocab)}
    content = [tok for tok in model.vocab if tok != model.eos]

    def id_key(tokens):
        return tuple(ids[t] for t in tokens)

    def rank(h):
        return -(h.logp - frozen_coverage_penalty(h.coverage, cfg.beta)), id_key(h.tokens)

    beams = [Hypothesis((), 0.0, np.zeros(model.t_x), False)]
    finished = []
    exhausted = False

    for _ in range(cfg.max_len):
        candidates = []
        for hyp in beams:
            logps, attn = model.step(hyp.tokens)
            if hyp.tokens:
                finished.append(
                    Hypothesis(hyp.tokens, hyp.logp + logps[model.eos], hyp.coverage, True)
                )
            for tok in content:
                if cfg.block_repeated_trigrams and _creates_repeated_trigram(hyp.tokens, tok):
                    continue
                candidates.append(
                    Hypothesis(hyp.tokens + (tok,), hyp.logp + logps[tok], hyp.coverage + attn, False)
                )
        if not candidates:
            exhausted = True
            break
        candidates.sort(key=rank)
        beams = candidates[: cfg.beam_width]

    if not exhausted:
        finished.extend(Hypothesis(h.tokens, h.logp, h.coverage, True) for h in beams)

    best = min(finished, key=lambda h: (-frozen_final_score(h, cfg), id_key(h.tokens)))
    return best.tokens, frozen_final_score(best, cfg), best
