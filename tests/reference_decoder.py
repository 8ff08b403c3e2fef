"""A frozen copy of ``PolicyNetwork._contexts``,
``PolicyNetwork.pointer_logits`` and ``training._log_probs`` as they were
before each became one tape node (commit 2e88ae5), kept as the oracle of
the fused decoder's bit-identity test, with the mask construction
``training._step_masks`` that ``_log_probs`` read then (since deleted:
the walk now hands its feasible seats to ``_log_probs``).

Each step is its own ``diffcore`` op, so ``Tape.run`` accumulates the
gradients of the shared intermediates in the order the fused backwards
replay. Do not edit it to follow the policy: its value is that it does
not change. It reads the policy's own parameters.
"""

from __future__ import annotations

import numpy as np

from qlayout import diffcore as dc
from qlayout.diffcore import Tensor
from qlayout.policy import PolicyNetwork


def _step_masks(seats, n_phys):
    """The feasible seats of every row of a stacked table whose episode i
    takes ``seats[i]`` in its rows, one row per step; and the episode of
    each row. Step t may take a seat its episode takes at step t or
    later, so the mask compares the step that takes each seat with the
    row's step."""
    sizes = [len(assign) for assign in seats]
    episode = np.repeat(np.arange(len(seats)), sizes)
    step = np.arange(len(episode)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    taken = np.full((len(seats), n_phys), n_phys)  # no step reaches N
    taken[episode, np.concatenate(seats)] = step
    return taken[episode] >= step[:, None], episode


def contexts(pol, program, starts):
    """The (T, d_c) context queries of the steps that place the T rows
    of ``program`` in order; an episode begins at each row in
    ``starts``."""
    kind = pol.dec_cfg.context_kind
    p = pol.store.lookup(program.requires_grad)
    w = p("ctx.W")
    first = np.zeros(program.shape[0], dtype=bool)
    first[starts] = True
    current = program  # (T, d_e)
    if kind == "stack_project":
        # row t averages the projections of its episode's steps up to t
        episode = np.cumsum(first)
        prefix_mean = np.tril(episode[:, None] == episode).astype(float)
        prefix_mean /= prefix_mean.sum(axis=1, keepdims=True)
        return dc.matmul(Tensor(prefix_mean), dc.matmul(current, w.T))
    # an episode's first step reads the start token, later steps the
    # row before them (row 0 is the token, row r + 1 program row r)
    previous = dc.gather(
        dc.concat([p("ctx.start").reshape(1, -1), program]),
        np.where(first, 0, np.arange(len(first))))
    if kind == "project_concat":
        return dc.concat([dc.matmul(current, w.T),
                          dc.matmul(previous, w.T)], axis=1)
    return dc.matmul(dc.concat([current, previous], axis=1), w.T)


def pointer_logits(pol, context, physical):
    """Clipped compatibility of every physical node: shape (N,) for one
    context (d_c,), (T, N) for a (T, d_c) stack of contexts."""
    d_c = pol.dec_cfg.context_dim
    m = pol.dec_cfg.heads
    d = d_c // m
    n_phys = physical.shape[0]
    one_step = context.ndim == 1
    ctx = context.reshape(1, d_c) if one_step else context
    steps = ctx.shape[0]
    p = pol.store.lookup(ctx.requires_grad or physical.requires_grad)

    # per-head (m, T, d) queries, (m, d, N) keys and (m, N, d) values
    q = dc.matmul(ctx, p("ptr.W_Q").T) * Tensor(1.0 / np.sqrt(d))
    q = dc.transpose(q.reshape(steps, m, d), (1, 0, 2))
    keys = dc.matmul(physical, p("ptr.W_K").T).reshape(n_phys, m, d)
    vals = dc.matmul(physical, p("ptr.W_V").T).reshape(n_phys, m, d)
    weights = dc.softmax(
        dc.matmul(q, dc.transpose(keys, (1, 2, 0))), axis=-1)  # (m, T, N)
    glimpse = dc.matmul(
        weights.reshape(m, steps, 1, n_phys),
        dc.transpose(vals, (1, 0, 2)).reshape(m, 1, n_phys, d),
    )  # (m, T, 1, d)
    glimpse = dc.transpose(glimpse, (1, 0, 2, 3)).reshape(steps, d_c)
    q_final = dc.matmul(glimpse, p("ptr.W_G").T)  # (T, d_c)
    keys_final = dc.matmul(physical, p("ptr.W_Kf").T)  # (N, d_c)
    compat = dc.matmul(q_final, keys_final.T) * Tensor(1.0 / np.sqrt(d_c))
    logits = dc.tanh(compat) * Tensor(pol.dec_cfg.clip)
    return logits.reshape(n_phys) if one_step else logits


def log_probs(table, seats):
    """The (B,) tape of the B episodes' log-probabilities: one masked
    softmax over the stacked table, read at the chosen seats, and one
    indicator matmul that sums each episode's rows."""
    rows, n_phys = table.shape
    feasible, episode = _step_masks(seats, n_phys)
    probs = PolicyNetwork.masked_distribution(table, feasible)
    logs = dc.log(dc.gather(probs.reshape(rows * n_phys),
                            np.arange(rows) * n_phys + np.concatenate(seats)))
    member = np.arange(len(seats))[:, None] == episode
    return dc.matmul(member.astype(np.float64), logs)
