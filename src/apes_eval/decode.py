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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

PROB_TOL = 1e-9


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
    """Charge accumulated attention mass above 1.0 per source position."""
    cov = np.asarray(coverage, dtype=float)
    if cov.size and cov.min() < 0:
        raise ValueError("coverage entries must be non-negative")
    return float(beta * (-cov.size + np.maximum(cov, 1.0).sum()))


def entity_penalty(
    coverage: Sequence[float], saliency: Sequence[float], gamma: float
) -> float:
    """Charge predicted saliency mass left uncovered by attention."""
    cov = np.asarray(coverage, dtype=float)
    sal = np.asarray(saliency, dtype=float)
    if cov.shape != sal.shape:
        raise ValueError(
            f"coverage and saliency lengths differ: {cov.shape} vs {sal.shape}"
        )
    return float(gamma * np.maximum(sal - cov, 0.0).sum())


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[str, ...]
    logp: float
    coverage: np.ndarray
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

        self._steps: dict[tuple[str, ...], tuple[dict[str, float], np.ndarray]] = {}
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
            row = np.asarray(attn, dtype=float)
            if row.shape != (t_x,):
                raise ModelError(f"attention row for prefix {prefix} must have length {t_x}")
            if not (row.min() >= 0 and abs(float(row.sum()) - 1.0) <= PROB_TOL):  # NaN fails
                raise ModelError(
                    f"attention row for prefix {prefix} must be non-negative and sum to 1"
                )
            self._steps[tuple(prefix)] = (dict(logps), row)

        self._uniform_logp = {tok: -math.log(len(self.vocab)) for tok in self.vocab}
        self._uniform_attn = np.full(t_x, 1.0 / t_x)

    def step(self, prefix: Sequence[str]) -> tuple[dict[str, float], np.ndarray]:
        entry = self._steps.get(tuple(prefix))
        if entry is None:
            return self._uniform_logp, self._uniform_attn
        return entry


def model_from_dict(obj: dict) -> TableModel:
    try:
        vocab = list(obj["vocab"])
        eos = obj["eos"]
        t_x = int(obj["t_x"])
        raw_steps = obj.get("steps", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"bad model object: {exc}") from exc
    if not isinstance(raw_steps, dict):
        raise ModelError("steps must be an object mapping prefixes to step entries")
    steps = {}
    for key, entry in raw_steps.items():
        prefix = tuple(key.split(" ")) if key else ()
        try:
            steps[prefix] = (entry["logp"], entry["attn"])
        except (KeyError, TypeError) as exc:
            raise ModelError(f"bad step entry for prefix {key!r}: {exc}") from exc
    saliency = obj.get("saliency")
    return TableModel(vocab, eos, t_x, steps, saliency)


def load_model(path: str) -> TableModel:
    """Read a step-model JSON file (see :func:`model_from_dict` for the schema).

    Any error in its contents, a value of the wrong type included, is a
    ModelError naming the path.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
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
    warning: bool = False  # set when nothing finished and the best live prefix is returned


def _creates_repeated_trigram(tokens: tuple[str, ...], nxt: str) -> bool:
    if len(tokens) < 3:
        return False
    new = (tokens[-2], tokens[-1], nxt)
    return any(tokens[i : i + 3] == new for i in range(len(tokens) - 2))


def _id_key(ids: Mapping[str, int], tokens: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(ids[t] for t in tokens)


def beam_search(model: TableModel, cfg: PenaltyConfig) -> DecodeResult:
    """Penalty-aware beam search.

    Expansion keeps the `beam_width` best live hypotheses by
    logp - cp(running coverage); finishing via eos (or freezing at
    max_len) moves a hypothesis aside without occupying a slot. The
    finished set is rescored with the full penalty score and the argmax
    returned, ties going to the lexicographically smallest token-id
    sequence. With trigram blocking, expansions recreating a trigram
    already present in the hypothesis are pruned.
    """
    ids = {tok: i for i, tok in enumerate(model.vocab)}
    content = [tok for tok in model.vocab if tok != model.eos]

    def running_score(h: Hypothesis) -> float:
        return h.logp - coverage_penalty(h.coverage, cfg.beta)

    def rank(h: Hypothesis) -> tuple[float, tuple[int, ...]]:
        return -running_score(h), _id_key(ids, h.tokens)

    beams = [Hypothesis((), 0.0, np.zeros(model.t_x), False)]
    finished: list[Hypothesis] = []
    exhausted = False

    for _ in range(cfg.max_len):
        candidates: list[Hypothesis] = []
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

    if finished:
        best = min(finished, key=lambda h: (-final_score(h, cfg), _id_key(ids, h.tokens)))
        return DecodeResult(best.tokens, final_score(best, cfg), best)

    # Every continuation was pruned before anything could finish.
    best = min(beams, key=rank)
    return DecodeResult(best.tokens, running_score(best), best, warning=True)


MAX_EXHAUSTIVE_NODES = 10**6


def exhaustive_search(model: TableModel, cfg: PenaltyConfig) -> DecodeResult:
    """Enumerate every finished sequence up to max_len and return the argmax.

    Shares the finishing conventions of :func:`beam_search`, so a beam wide
    enough to hold every prefix reproduces this result exactly.
    """
    ids = {tok: i for i, tok in enumerate(model.vocab)}
    content = [tok for tok in model.vocab if tok != model.eos]
    if len(content) ** cfg.max_len > MAX_EXHAUSTIVE_NODES:
        raise ValueError(
            f"search space {len(content)}^{cfg.max_len} exceeds {MAX_EXHAUSTIVE_NODES}"
        )

    best: tuple[tuple[float, tuple[int, ...]], Hypothesis] | None = None

    def consider(hyp: Hypothesis) -> None:
        nonlocal best
        key = (-final_score(hyp, cfg), _id_key(ids, hyp.tokens))
        if best is None or key < best[0]:
            best = (key, hyp)

    def walk(tokens: tuple[str, ...], logp: float, coverage: np.ndarray) -> None:
        if len(tokens) == cfg.max_len:
            consider(Hypothesis(tokens, logp, coverage, True))
            return
        logps, attn = model.step(tokens)
        if tokens:
            consider(Hypothesis(tokens, logp + logps[model.eos], coverage, True))
        for tok in content:
            if cfg.block_repeated_trigrams and _creates_repeated_trigram(tokens, tok):
                continue
            walk(tokens + (tok,), logp + logps[tok], coverage + attn)

    walk((), 0.0, np.zeros(model.t_x))
    if best is None:
        raise RuntimeError("no finished sequence exists")
    hyp = best[1]
    return DecodeResult(hyp.tokens, final_score(hyp, cfg), hyp)
