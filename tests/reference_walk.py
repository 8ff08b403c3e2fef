"""A frozen copy of ``training._walk`` and ``training._draw`` as they were
while each step masked its rows with a per-episode ``free`` array (commit
fcb7fac), kept as the oracle of the walk's bit-identity tests.

Each step builds its masked rows with ``np.where(free, row, -inf)`` and
checks which episodes sample or sit on a near tie as it goes. Do not edit
it to follow the walk: its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from qlayout import diffcore as dc
from qlayout.errors import NumericError

TIE_MARGIN = 1e-12


def walk(logits, firsts, sizes, uniforms):
    """The seats of every episode: episode e takes ``sizes[e]`` steps from
    row ``firsts[e]`` onwards, samples its first ``len(uniforms[e])``
    steps with those uniforms and takes the argmax after that."""
    if not np.isfinite(logits).all():
        raise NumericError("the walk's logit table has non-finite entries")
    order = np.argsort(-np.asarray(sizes), kind="stable")
    sizes = np.asarray(sizes)[order]
    rows = np.asarray(firsts, dtype=np.intp)[order]
    n_sampled = np.array([len(uniforms[e]) for e in order])
    n_eps = len(order)
    draws = np.zeros((n_eps, sizes[0]))
    for i, e in enumerate(order):
        draws[i, :n_sampled[i]] = uniforms[e]
    at = np.minimum(rows[:, None] + np.arange(sizes[0]), len(logits) - 1)
    steps = logits[at]
    if (n_sampled < sizes).any():
        tied = (np.diff(np.sort(logits, axis=1), axis=1) <= TIE_MARGIN).any(
            axis=1)[at]
    eps = np.arange(n_eps)
    live = (sizes > np.arange(sizes[0])[:, None]).sum(axis=1)
    free = np.ones((n_eps, logits.shape[1]), dtype=bool)
    seats = np.zeros((n_eps, sizes[0]), dtype=np.int64)
    for t, m in enumerate(live):
        masked = np.where(free[:m], steps[:m, t], -np.inf)
        drawn = n_sampled[:m] > t
        if drawn.all():
            actions = draw(dc.softmax_array(masked, 1), draws[:m, t])
        else:
            actions = np.argmax(masked, axis=1)
            slow = drawn | tied[:m, t]
            if slow.any():
                redo = np.flatnonzero(slow)
                probs = dc.softmax_array(masked[redo], 1)
                actions[redo] = np.argmax(probs, axis=1)
                sampled = drawn[redo]
                actions[redo[sampled]] = draw(probs[sampled],
                                              draws[redo[sampled], t])
        seats[:m, t] = actions
        free[eps[:m], actions] = False
    back = np.argsort(order)
    return [seats[i, :sizes[i]] for i in back]


def draw(probs, u):
    """The seat each row of ``probs`` draws with its uniform in ``u``, as
    ``Generator.choice(p=...)`` does."""
    cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)
