"""Beam search over an abstract step model with length, coverage, and
saliency penalties, plus an exhaustive-search oracle for small models.

Score of a finished hypothesis Y against source X:

    score = logp / lp(|Y|) - cp(coverage) - ep(coverage)
    lp    = ((5 + |Y|) / 6) ** alpha
    cp    = beta * (-T_X + sum_i max(coverage_i, 1.0))
    ep    = gamma * sum_i max(saliency_i - coverage_i, 0.0)

During expansion hypotheses are ranked by logp - cp(running coverage);
lp and ep apply only when rescoring the finished set. Conventions: the
end-of-sequence token is not part of Y (its step adds log-probability but
no coverage), sequences must emit at least one content token, and
hypotheses still alive at max_len are frozen as finished without an
end-of-sequence term.

Coverage and attention are tuples of Python floats. Sums over them follow
numpy's float64 summation order (see :func:`_sum`), so every score equals
the one numpy's ``ndarray.sum()`` would give, bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from operator import add, sub
from typing import Iterable, Mapping, Sequence

PROB_TOL = 1e-9


def _pairwise_sum(values: Sequence[float]) -> float:
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        # eight running accumulators over blocks of eight, then the rest in order
        m = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        for i in range(8, m, 8):
            a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
            r0, r1, r2, r3 = r0 + a0, r1 + a1, r2 + a2, r3 + a3
            r4, r5, r6, r7 = r4 + a4, r5 + a5, r6 + a6, r7 + a7
        return reduce(add, values[m:], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _sum(values: Sequence[float]) -> float:
    """Sum a list or tuple of floats in numpy's float64 order: 0.0 plus
    numpy's pairwise sum, so the result equals ``ndarray.sum()`` bit for
    bit. Left-to-right summation (``sum()``, which Python 3.12 also
    compensates) and ``math.fsum`` round differently from eight values on."""
    return 0.0 + _pairwise_sum(values)


class ModelError(ValueError):
    """Invalid step model: bad vocabulary, distributions, or attention."""


@dataclass(frozen=True)
class PenaltyConfig:
    alpha: float = 0.9
    beta: float = 0.5
    gamma: float = 0.5
    beam_width: int = 4
    max_len: int = 100
    block_repeated_trigrams: bool = True
    saliency: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("alpha, beta, gamma must be non-negative")
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.saliency is not None and any(not 0 <= s <= 1 for s in self.saliency):
            raise ValueError("saliency entries must lie in [0, 1]")


def length_penalty(length: int, alpha: float) -> float:
    """((5 + length) / 6) ** alpha; equals 1 at length 1 or alpha 0."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return ((5.0 + length) / 6.0) ** alpha


def coverage_penalty(coverage: Sequence[float], beta: float) -> float:
    """Charge accumulated attention mass above 1.0 per source position.

    A NaN entry passes the sign check (and hides a negative one) and makes
    the penalty NaN, as numpy's min and maximum do."""
    if any(c < 0 for c in coverage) and not any(c != c for c in coverage):
        raise ValueError("coverage entries must be non-negative")
    return float(beta * (-len(coverage) + _sum([1.0 if c < 1.0 else c for c in coverage])))


def entity_penalty(
    coverage: Sequence[float], saliency: Sequence[float], gamma: float
) -> float:
    """Charge predicted saliency mass left uncovered by attention; a NaN
    difference makes the penalty NaN."""
    if len(coverage) != len(saliency):
        raise ValueError(
            f"coverage and saliency lengths differ: ({len(coverage)},) vs ({len(saliency)},)"
        )
    gaps = map(sub, saliency, coverage)
    return float(gamma * _sum([0.0 if d < 0.0 else d for d in gaps]))


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[str, ...]
    logp: float
    coverage: tuple[float, ...]
    finished: bool


def final_score(hyp: Hypothesis, cfg: PenaltyConfig) -> float:
    if not hyp.finished:
        raise ValueError("final_score applies to finished hypotheses only")
    if cfg.gamma > 0 and cfg.saliency is None:
        raise ValueError("gamma > 0 requires a saliency vector")
    parts = score_breakdown(hyp, cfg)
    return parts["logp"] / parts["lp"] - parts["cp"] - parts["ep"]


def score_breakdown(hyp: Hypothesis, cfg: PenaltyConfig) -> dict[str, float]:
    """The four score components of a finished hypothesis, for reporting."""
    lp = length_penalty(len(hyp.tokens), cfg.alpha)
    cp = coverage_penalty(hyp.coverage, cfg.beta)
    ep = (
        entity_penalty(hyp.coverage, cfg.saliency, cfg.gamma)
        if cfg.gamma > 0 and cfg.saliency is not None
        else 0.0
    )
    return {"logp": hyp.logp, "lp": lp, "cp": cp, "ep": ep}


class TableModel:
    """Step model backed by an explicit prefix -> (log-probs, attention) table.

    Unlisted prefixes fall back to a uniform distribution over the
    vocabulary and uniform attention. Distributions must exponentiate-sum
    to 1 and attention rows must be non-negative and sum to 1; a NaN
    entry fails both checks.
    """

    def __init__(
        self,
        vocab: Sequence[str],
        eos: str,
        t_x: int,
        steps: Mapping[tuple[str, ...], tuple[Mapping[str, float], Sequence[float]]],
        saliency: Sequence[float] | None = None,
    ) -> None:
        known = set(vocab)
        if len(known) != len(vocab):
            raise ModelError("vocabulary contains duplicates")
        if eos not in vocab:
            raise ModelError("eos token must be in the vocabulary")
        if len(vocab) < 2:
            raise ModelError("vocabulary needs at least one non-eos token")
        if t_x < 1:
            raise ModelError("t_x must be >= 1")
        self.vocab = list(vocab)
        self.eos = eos
        self.t_x = t_x
        self.saliency = None if saliency is None else tuple(float(s) for s in saliency)
        if self.saliency is not None:
            if len(self.saliency) != t_x:
                raise ModelError("saliency length must equal t_x")
            if any(not 0 <= s <= 1 for s in self.saliency):
                raise ModelError("saliency entries must lie in [0, 1]")

        self._steps: dict[tuple[str, ...], tuple[dict[str, float], tuple[float, ...]]] = {}
        for prefix, (logps, attn) in steps.items():
            for tok in prefix:
                if tok not in known:
                    raise ModelError(f"prefix {prefix} uses unknown token {tok!r}")
            if set(logps) != known:
                raise ModelError(f"step for prefix {prefix} must cover the vocabulary")
            total = math.fsum(math.exp(lp) for lp in logps.values())
            if not abs(total - 1.0) <= PROB_TOL:  # negated, so that a NaN fails
                raise ModelError(
                    f"step for prefix {prefix}: probabilities sum to {total}, not 1"
                )
            self._steps[tuple(prefix)] = (dict(logps), _attention_row(prefix, attn, t_x))

        self._uniform_logp = {tok: -math.log(len(self.vocab)) for tok in self.vocab}
        self._uniform_attn = (1.0 / t_x,) * t_x

    def step(self, prefix: Sequence[str]) -> tuple[dict[str, float], tuple[float, ...]]:
        entry = self._steps.get(tuple(prefix))
        if entry is None:
            return self._uniform_logp, self._uniform_attn
        return entry


def _attention_row(prefix: tuple[str, ...], attn: Iterable, t_x: int) -> tuple[float, ...]:
    """An attention row as floats, each entry read by float(). A null entry
    reads as NaN, as numpy's float conversion reads it, and so fails the row
    check; a string or object is not a row, and a number is not iterable."""
    if isinstance(attn, (str, dict)):
        raise ModelError(f"attention row for prefix {prefix} must have length {t_x}")
    row = tuple(math.nan if x is None else float(x) for x in attn)
    if len(row) != t_x:
        raise ModelError(f"attention row for prefix {prefix} must have length {t_x}")
    # min() can pass over a NaN, but a NaN entry makes the sum NaN, which fails
    if not (min(row) >= 0 and abs(_sum(row) - 1.0) <= PROB_TOL):
        raise ModelError(
            f"attention row for prefix {prefix} must be non-negative and sum to 1"
        )
    return row


def model_from_dict(obj: dict) -> TableModel:
    try:
        vocab = obj["vocab"]
        eos = obj["eos"]
        t_x = int(obj["t_x"])
        raw_steps = obj.get("steps", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"bad model object: {exc}") from exc
    # an object or a string would be read as its keys or characters
    if not isinstance(vocab, list):
        raise ModelError("vocab must be a JSON array of tokens")
    saliency = obj.get("saliency")
    if saliency is not None and not isinstance(saliency, list):
        raise ModelError("saliency must be a JSON array of numbers or null")
    if not isinstance(raw_steps, dict):
        raise ModelError("steps must be an object mapping prefixes to step entries")
    steps = {}
    for key, entry in raw_steps.items():
        prefix = tuple(key.split(" ")) if key else ()
        try:
            steps[prefix] = (entry["logp"], entry["attn"])
        except (KeyError, TypeError) as exc:
            raise ModelError(f"bad step entry for prefix {key!r}: {exc}") from exc
    return TableModel(vocab, eos, t_x, steps, saliency)


def load_model(path: str) -> TableModel:
    """Read a step-model JSON file (see :func:`model_from_dict` for the schema).

    Any error in its contents, a value of the wrong type included, is a
    ModelError naming the path.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except (ValueError, RecursionError) as exc:  # as in corpus.iter_jsonl
            raise ModelError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return model_from_dict(obj)
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class DecodeResult:
    tokens: tuple[str, ...]
    score: float
    hypothesis: Hypothesis


def _repeating_successors(tokens: tuple[str, ...]) -> set[str]:
    """The tokens whose appending would repeat a trigram already in `tokens`."""
    tail = tokens[-2:]
    return {tokens[i + 2] for i in range(len(tokens) - 2) if tokens[i : i + 2] == tail}


def beam_search(model: TableModel, cfg: PenaltyConfig) -> DecodeResult:
    """Penalty-aware beam search.

    Expansion keeps the `beam_width` best live hypotheses by
    logp - cp(running coverage); finishing via eos (or freezing at
    max_len) moves a hypothesis aside without occupying a slot. The
    finished set is rescored with the full penalty score and the argmax
    returned, ties going to the lexicographically smallest token-id
    sequence. With trigram blocking, expansions recreating a trigram
    already present in the hypothesis are pruned.

    The content children of one parent share its attention row, so each
    parent's child coverage and its penalty are computed once, and only
    the children kept in the beam become Hypothesis objects. Hypotheses
    travel with their token-id tuples, the tie-break of every ranking.
    """
    ids = {tok: i for i, tok in enumerate(model.vocab)}
    content = [(ids[tok], tok) for tok in model.vocab if tok != model.eos]

    beams = [(Hypothesis((), 0.0, (0.0,) * model.t_x, False), ())]
    finished: list[tuple[Hypothesis, tuple[int, ...]]] = []

    for _ in range(cfg.max_len):
        expanded = []
        ranked = []
        for parent, (hyp, hyp_ids) in enumerate(beams):
            logps, attn = model.step(hyp.tokens)
            if hyp.tokens:
                finished.append(
                    (Hypothesis(hyp.tokens, hyp.logp + logps[model.eos], hyp.coverage, True), hyp_ids)
                )
            coverage = tuple(map(add, hyp.coverage, attn))
            cp = coverage_penalty(coverage, cfg.beta)
            blocked = _repeating_successors(hyp.tokens) if cfg.block_repeated_trigrams else ()
            expanded.append((hyp, logps, coverage))
            # the rank is (-(logp - cp), id tuple); id tuples are unique, so
            # the parent index and token after them never decide the order
            ranked += [
                (-((hyp.logp + logps[tok]) - cp), hyp_ids + (i,), parent, tok)
                for i, tok in content
                if tok not in blocked
            ]
        if not ranked:
            break
        ranked.sort()
        beams = []
        for _, child_ids, parent, tok in ranked[: cfg.beam_width]:
            hyp, logps, coverage = expanded[parent]
            beams.append(
                (Hypothesis(hyp.tokens + (tok,), hyp.logp + logps[tok], coverage, False), child_ids)
            )
    else:
        finished += [(Hypothesis(h.tokens, h.logp, h.coverage, True), i) for h, i in beams]

    best, _ = min(finished, key=lambda entry: (-final_score(entry[0], cfg), entry[1]))
    return DecodeResult(best.tokens, final_score(best, cfg), best)


MAX_EXHAUSTIVE_NODES = 10**6


def exhaustive_search(model: TableModel, cfg: PenaltyConfig) -> DecodeResult:
    """Enumerate every finished sequence up to max_len and return the argmax.

    Shares the finishing conventions of :func:`beam_search`, so a beam wide
    enough to hold every prefix reproduces this result exactly.
    """
    ids = {tok: i for i, tok in enumerate(model.vocab)}
    content = [(ids[tok], tok) for tok in model.vocab if tok != model.eos]
    if len(content) ** cfg.max_len > MAX_EXHAUSTIVE_NODES:
        raise ValueError(
            f"search space {len(content)}^{cfg.max_len} exceeds {MAX_EXHAUSTIVE_NODES}"
        )

    best: tuple[tuple[float, tuple[int, ...]], Hypothesis] | None = None

    def consider(hyp: Hypothesis, hyp_ids: tuple[int, ...]) -> None:
        nonlocal best
        key = (-final_score(hyp, cfg), hyp_ids)
        if best is None or key < best[0]:
            best = (key, hyp)

    def walk(tokens: tuple[str, ...], token_ids: tuple[int, ...], logp: float,
             coverage: tuple[float, ...]) -> None:
        if len(tokens) == cfg.max_len:
            consider(Hypothesis(tokens, logp, coverage, True), token_ids)
            return
        logps, attn = model.step(tokens)
        if tokens:
            consider(Hypothesis(tokens, logp + logps[model.eos], coverage, True), token_ids)
        child_coverage = tuple(map(add, coverage, attn))
        blocked = _repeating_successors(tokens) if cfg.block_repeated_trigrams else ()
        for i, tok in content:
            if tok not in blocked:
                walk(tokens + (tok,), token_ids + (i,), logp + logps[tok], child_coverage)

    walk((), (), 0.0, (0.0,) * model.t_x)
    hyp = best[1]  # set: every sequence of one content token or more finishes
    return DecodeResult(hyp.tokens, final_score(hyp, cfg), hyp)
