"""Per-layer tracing from outside the program.

``Tracer`` replaces public functions of the qlayout modules with wrappers
that record call counts, inclusive time and self time (inclusive time
minus the time of traced callees), and restores every original on exit.
A function is replaced in each module namespace that binds it, because a
caller reads the binding of its own module: ``decode`` looks up
``qlayout.training.rollout`` and ``local_search`` looks up
``qlayout.postprocess.neighbor``. Very hot functions (``diffcore._make``,
``Tape.run``, ``Layout.copy``, ``neighbor``) are counted but not timed, so
their time stays in their caller's self time.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict

from .calib import clock

SEARCH_ACCEPTED = "postprocess.accepted"
SEARCH_ITERATIONS = "postprocess.iterations"
SEARCH_STOPPED_EARLY = "postprocess.stopped_early"


class Stats:
    """Counters and span totals of one traced phase."""

    def __init__(self):
        self.calls = Counter()
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()


def _qlayout_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "qlayout" or name.startswith("qlayout.")]


class Tracer:
    def __init__(self):
        self.stats = Stats()
        self._open = []  # per open span: seconds spent in traced callees
        self._undo = []  # (namespace, attribute, original) to restore

    # --- wrappers --------------------------------------------------------

    def span(self, fn, name):
        """Wrap ``fn``; ``name`` is a string or a function of the call's
        arguments."""
        open_spans = self._open
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                in_callees = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                key = name_of(*args, **kwargs) if name_of else name
                s = self.stats
                s.calls[key] += 1
                s.incl_s[key] += dt
                s.self_s[key] += dt - in_callees

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, name, amount=None):
        """Wrap ``fn`` to add 1 (or ``amount(*args)``) to a counter."""
        counts = self.stats.counts

        if amount is None:
            def traced(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def traced(*args, **kwargs):
                counts[name] += amount(*args)
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _cost_fn_factory(self, fast_cost_fn, in_search):
        """Wrap ``fast_cost_fn`` so the closures it returns are timed.

        Under strict hill climbing a move is accepted exactly when its cost
        is a new strict running minimum of the values the closure returns,
        so the search binding counts accepted moves from those values.
        """
        counts = self.stats.counts

        def traced_factory(pg, cm):
            cost = self.span(fast_cost_fn(pg, cm), "objective.cost_eval")
            if not in_search:
                return cost
            best = []

            def tracked(assign):
                c = cost(assign)
                if not best:
                    best.append(c)
                elif c < best[0]:
                    best[0] = c
                    counts[SEARCH_ACCEPTED] += 1
                return c

            return tracked

        traced_factory.__wrapped__ = fast_cost_fn
        return traced_factory

    def _search(self, local_search):
        counts = self.stats.counts

        def traced(initial, pg, cg, cfg):
            before = counts[SEARCH_ITERATIONS]
            try:
                return local_search(initial, pg, cg, cfg)
            finally:
                if counts[SEARCH_ITERATIONS] - before < cfg.n_iters:
                    counts[SEARCH_STOPPED_EARLY] += 1

        return self.span(traced, "postprocess.local_search")

    # --- installing ------------------------------------------------------

    def _patch_function(self, module, attr, make_wrapper):
        """Replace every binding of ``module.attr`` in the qlayout modules;
        ``make_wrapper(original, binding_module)`` builds each wrapper."""
        original = getattr(module, attr)
        for mod in _qlayout_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, make_wrapper(original, mod))

    def _patch_method(self, cls, attr, make_wrapper):
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, attr, type(raw)(make_wrapper(raw.__func__)))
        else:
            setattr(cls, attr, make_wrapper(raw))

    def install(self):
        from qlayout import (circuit, diffcore, objective, policy,
                             postprocess, topology, training)

        span, counted = self.span, self.counted
        for mod, attr in ((circuit, "parse_qasm"),
                          (circuit, "build_program_graph")):
            self._patch_function(
                mod, attr,
                lambda f, _m, key=f"circuit.{attr}": span(f, key))
        for attr in ("build_grid", "build_heavy_hex",
                     "coupling_graph_from_dict"):
            self._patch_function(topology, attr,
                                 lambda f, _m: span(f, "topology.build"))
        net = policy.PolicyNetwork
        for attr in ("load", "encode", "make_context", "pointer_logits",
                     "masked_distribution"):
            self._patch_method(net, attr,
                               lambda f, key=f"policy.{attr}": span(f, key))

        def rollout_name(pg, cg, pol, mode="greedy", *args, **kwargs):
            return ("training.rollout_sample" if mode == "sample"
                    else "training.rollout_greedy")

        self._patch_function(training, "rollout",
                             lambda f, _m: span(f, rollout_name))
        for attr in ("decode", "gen_random_instance"):
            self._patch_function(
                training, attr,
                lambda f, _m, key=f"training.{attr}": span(f, key))

        self._patch_function(diffcore, "_make",
                             lambda f, _m: counted(f, "diffcore.ops"))
        self._patch_function(diffcore, "adam_step",
                             lambda f, _m: span(f, "diffcore.adam_step"))
        self._patch_method(diffcore.Tensor, "backward",
                           lambda f: span(f, "diffcore.backward"))
        self._patch_method(
            diffcore.Tape, "run",
            lambda f: counted(f, "diffcore.tape_nodes",
                              lambda tape: len(tape.order)))

        self._patch_function(
            objective, "fast_cost_fn",
            lambda f, m: self._cost_fn_factory(f, m is postprocess))
        self._patch_method(objective.Layout, "copy",
                           lambda f: counted(f, "objective.layout_copies"))
        self._patch_function(postprocess, "neighbor",
                             lambda f, _m: counted(f, SEARCH_ITERATIONS))
        self._patch_function(postprocess, "local_search",
                             lambda f, _m: self._search(f))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return the stats gathered so far and start a new phase.

        The live containers are cleared in place because the wrappers hold
        references to them.
        """
        live, snap = self.stats, Stats()
        for attr in ("calls", "incl_s", "self_s", "counts"):
            getattr(snap, attr).update(getattr(live, attr))
            getattr(live, attr).clear()
        return snap

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
