"""Numeric kernels for the saliency-attention head and its losses.

Forward pass per source position j, with encoder state h_j:

    score_j = v . tanh(U h_j + b)
    prob_j  = sigmoid(score_j)

The saliency loss is the mean binary cross entropy of prob against the
binary targets; the hybrid loss mixes it with the step-wise NLL. Analytic
gradients are verified against central finite differences. Everything is
float64. The forward pass and the BCE are written once, unchecked
(`_forward`, `_bce_rows`); each public function checks its inputs once,
then calls them, and the gradient check differentiates that same loss.

`_forward` is stack-aware: any input may carry one leading axis of copies.
The gradient check uses that to batch its central differences: for an
array with K entries it stacks the K "+step" and the K "-step" copies,
runs them through one forward pass and one row-wise BCE, and takes
(plus - minus) / (2 step), once each for u, b, v and the states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class AttentionParams:
    """Learnable triple: u maps hidden states to the alignment space,
    b shifts them, v projects to a scalar score."""

    u: np.ndarray  # (d_align, d_hidden)
    b: np.ndarray  # (d_align,)
    v: np.ndarray  # (d_align,)

    def __post_init__(self) -> None:
        if self.u.ndim != 2 or self.b.ndim != 1 or self.v.ndim != 1:
            raise ValueError("u must be a matrix; b and v must be vectors")
        d_align = self.u.shape[0]
        if self.b.shape != (d_align,) or self.v.shape != (d_align,):
            raise ValueError(
                f"b and v must have length {d_align}, got {self.b.shape} and {self.v.shape}"
            )
        for name, arr in (("u", self.u), ("b", self.b), ("v", self.v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")


def _check_states(states: np.ndarray, params: AttentionParams) -> np.ndarray:
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError("encoder states must be a (t_x, d_hidden) matrix")
    if states.shape[1] != params.u.shape[1]:
        raise ValueError(
            f"hidden size mismatch: states {states.shape[1]}, u expects {params.u.shape[1]}"
        )
    return states


def _check_targets(targets: Sequence[float], t_x: int) -> np.ndarray:
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (t_x,):
        raise ValueError(f"targets must have length {t_x}")
    if not np.all((targets == 0.0) | (targets == 1.0)):
        raise ValueError("targets must be binary")
    return targets


def _forward(
    states: np.ndarray, u: np.ndarray, b: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unchecked forward pass: (tanh preactivation, scores, probabilities).

    Any argument may carry one leading stack axis; the outputs then carry
    it too, one forward pass per stacked copy.
    """
    pre = np.tanh(states @ np.swapaxes(u, -1, -2) + b[..., None, :])  # (..., t_x, d_align)
    scores = (pre @ v[..., None])[..., 0]
    probs = 1.0 / (1.0 + np.exp(-scores))
    return pre, scores, probs


def _bce_rows(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mean BCE of each row of probs against checked targets; every row must
    be non-empty and in (0, 1)."""
    if probs.size == 0:
        raise ValueError("probs must be a non-empty vector")
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("probabilities must lie strictly in (0, 1)")
    terms = -(targets * np.log(probs) + (1.0 - targets) * np.log(1.0 - probs))
    return terms.mean(axis=-1)


def _bce(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean BCE of one probability vector against checked targets."""
    return float(_bce_rows(probs, targets))


def entity_attention_forward(
    states: np.ndarray, params: AttentionParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position scores and sigmoid saliency probabilities."""
    _, scores, probs = _forward(_check_states(states, params), params.u, params.b, params.v)
    return scores, probs


def bce_loss(probs: Sequence[float], targets: Sequence[float]) -> float:
    """Mean binary cross entropy; probabilities must lie strictly in (0, 1)."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probs must be a non-empty vector")
    return _bce(probs, _check_targets(targets, probs.shape[0]))


def nll_loss(step_probs: Sequence[float]) -> float:
    """Mean negative log probability of the gold token per decoding step."""
    p = np.asarray(step_probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("step probabilities must form a non-empty vector")
    if np.any(p <= 0.0):
        raise ValueError("step probabilities must be positive")
    if np.any(p > 1.0):
        raise ValueError("step probabilities must not exceed 1")
    return float(-np.log(p).mean())


def hybrid_loss(saliency_loss: float, nll: float, delta: float) -> float:
    """Convex mix delta * saliency_loss + (1 - delta) * nll."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    return delta * saliency_loss + (1.0 - delta) * nll


def saliency_bce(
    states: np.ndarray, params: AttentionParams, targets: Sequence[float]
) -> float:
    """Forward pass followed by the BCE loss; the quantity the gradients differentiate."""
    _, probs = entity_attention_forward(states, params)
    return bce_loss(probs, targets)


@dataclass(frozen=True)
class AttentionGradients:
    u: np.ndarray
    b: np.ndarray
    v: np.ndarray
    states: np.ndarray


def attention_gradients(
    states: np.ndarray, params: AttentionParams, targets: Sequence[float]
) -> AttentionGradients:
    """Exact gradients of saliency_bce with respect to u, b, v, and the states.

    Chain rule: d(loss)/d(score_j) = (prob_j - target_j) / t_x, then through
    v and the tanh preactivation.
    """
    states = _check_states(states, params)
    targets = _check_targets(targets, states.shape[0])
    pre, _, probs = _forward(states, params.u, params.b, params.v)

    dscore = (probs - targets) / states.shape[0]  # (t_x,)
    dv = pre.T @ dscore
    dpre = np.outer(dscore, params.v) * (1.0 - pre**2)  # (t_x, d_align)
    db = dpre.sum(axis=0)
    du = dpre.T @ states
    dstates = dpre @ params.u
    return AttentionGradients(u=du, b=db, v=dv, states=dstates)


def _perturbed(array: np.ndarray, step: float) -> np.ndarray:
    """The 2K copies of an array with K entries, stacked on a new leading
    axis: copy i has entry i raised by step, copy K + i has it lowered."""
    flat = array.reshape(-1)
    copies = np.tile(flat, (2, flat.size, 1))
    diagonal = np.arange(flat.size)
    copies[0, diagonal, diagonal] = flat + step
    copies[1, diagonal, diagonal] = flat - step
    return copies.reshape((2 * flat.size, *array.shape))


def _difference(values: np.ndarray, step: float, shape: tuple[int, ...]) -> np.ndarray:
    """Central differences from a function's values on an array's
    _perturbed copies, shaped like the array."""
    plus, minus = values.reshape(2, -1)
    return ((plus - minus) / (2.0 * step)).reshape(shape)


def central_difference(
    fn: Callable[[np.ndarray], float], array: np.ndarray, step: float
) -> np.ndarray:
    """Central finite differences of fn over every entry of array."""
    if step <= 0:
        raise ValueError("step must be positive")
    values = np.array([fn(copy) for copy in _perturbed(array, step)], dtype=float)
    return _difference(values, step, array.shape)


def _relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    """Elementwise |a - n| / max(|a|, |n|), with differences at or below
    `floor` counting as zero so finite-difference noise on vanishing
    gradients does not register as disagreement."""
    if analytic.size == 0:
        return 0.0
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.where(diff <= floor, 0.0, diff / denom).max())


def _numeric_gradients(
    states: np.ndarray,
    u: np.ndarray,
    b: np.ndarray,
    v: np.ndarray,
    targets: np.ndarray,
    step: float,
) -> AttentionGradients:
    """Central differences of the saliency BCE over every entry of u, b, v
    and states; each array's perturbed copies go through one forward pass
    and one BCE as a stack."""

    def numeric(array: np.ndarray, forward: Callable[[np.ndarray], tuple]) -> np.ndarray:
        if array.size == 0:  # no entry to perturb, so no loss to evaluate
            return np.zeros(array.shape)
        probs = forward(_perturbed(array, step))[2]
        return _difference(_bce_rows(probs, targets), step, array.shape)

    return AttentionGradients(
        u=numeric(u, lambda stack: _forward(states, stack, b, v)),
        b=numeric(b, lambda stack: _forward(states, u, stack, v)),
        v=numeric(v, lambda stack: _forward(states, u, b, stack)),
        states=numeric(states, lambda stack: _forward(stack, u, b, v)),
    )


def finite_difference_check(
    states: np.ndarray,
    params: AttentionParams,
    targets: Sequence[float],
    step: float = 1e-5,
) -> float:
    """Max relative error of the analytic gradients against central differences.

    Relative error uses an absolute floor of 1e-8 so near-zero gradients do
    not explode the ratio.
    """
    states = _check_states(states, params)
    targets = _check_targets(targets, states.shape[0])
    analytic = attention_gradients(states, params, targets)
    if step <= 0:
        raise ValueError("step must be positive")
    if not np.isfinite(step):
        raise ValueError("step must be finite")  # the loss does not re-check perturbed u, b, v
    numeric = _numeric_gradients(states, params.u, params.b, params.v, targets, step)
    return max(
        _relative_error(getattr(analytic, name), getattr(numeric, name))
        for name in ("u", "b", "v", "states")
    )


def random_instance(
    rng: np.random.Generator,
    max_hidden: int = 8,
    max_align: int = 8,
    max_positions: int = 10,
) -> tuple[np.ndarray, AttentionParams, np.ndarray]:
    """A random (states, params, targets) triple for gradient checking."""
    t_x = int(rng.integers(1, max_positions + 1))
    d_hidden = int(rng.integers(1, max_hidden + 1))
    d_align = int(rng.integers(1, max_align + 1))
    states = rng.standard_normal((t_x, d_hidden))
    params = AttentionParams(
        u=rng.standard_normal((d_align, d_hidden)),
        b=rng.standard_normal(d_align),
        v=rng.standard_normal(d_align),
    )
    targets = rng.integers(0, 2, size=t_x).astype(float)
    return states, params, targets


def run_gradcheck(seed: int, trials: int, step: float = 1e-5) -> float:
    """Worst relative gradient error over seeded random instances."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        states, params, targets = random_instance(rng)
        worst = max(worst, finite_difference_check(states, params, targets, step))
    return worst
