"""Per-layer tracing by rebinding the names through which one layer calls the next.

The program is not edited.  While a `Tracer` is installed, the module-level
names listed in SPANS and HOT point at timing wrappers, and uninstalling puts
the originals back.  Boundaries crossed at most a few thousand times per
iteration record a span (name, parent span, start, end).  The inner hot calls,
about a million per league iteration, record only a call count and busy time
per parent, so that tracing stays cheap enough to leave the bytes and most of
the timing undisturbed.  A traced call's parent is the innermost traced call
that is still open, span or hot.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

ROOT = "root"

# (module, attribute, layer name).  Each call path passes exactly one wrapper:
# selfplay and ppo bind compute_advantages/train_iteration separately, and
# the ppo workload calls them through dogfight.ppo.
SPANS = (
    ("dogfight.cli", "train_loop", "selfplay.train_loop"),
    ("dogfight.cli", "save_checkpoint", "harness.save_checkpoint"),
    ("dogfight.cli", "write_metrics", "harness.write_metrics"),
    ("dogfight.cli", "write_match", "harness.write_match"),
    ("dogfight.selfplay", "play_match", "selfplay.play_match"),
    ("dogfight.selfplay", "evaluate_vs_past", "selfplay.evaluate_vs_past"),
    ("dogfight.selfplay", "_act", "selfplay.act"),
    ("dogfight.selfplay", "run_search", "mcts.run_search"),
    ("dogfight.selfplay", "env_step", "environment.env_step"),
    ("dogfight.selfplay", "compute_advantages", "ppo.compute_advantages"),
    ("dogfight.selfplay", "train_iteration", "ppo.train_iteration"),
    ("dogfight.ppo", "compute_advantages", "ppo.compute_advantages"),
    ("dogfight.ppo", "train_iteration", "ppo.train_iteration"),
)

HOT = (
    ("dogfight.environment", "rk4_step", "dynamics.rk4_step"),
    ("dogfight.environment", "missile_step", "missile.missile_step"),
    ("dogfight.environment", "observe", "environment.observe"),
    ("dogfight.mcts", "observe", "environment.observe"),
    ("dogfight.selfplay", "observe", "environment.observe"),
    ("dogfight.mcts", "expand_node", "mcts.expand_node"),
    ("dogfight.mcts", "forward", "mlp.forward"),
    ("dogfight.selfplay", "forward", "mlp.forward"),
    ("dogfight.mlp", "forward", "mlp.forward"),
    ("dogfight.selfplay", "sample_and_logprob", "mlp.sample_and_logprob"),
    ("dogfight.ppo", "backprop", "mlp.backprop"),
    ("dogfight.ppo", "adam_step", "mlp.adam_step"),
)


def _visit_share(result) -> float:
    """Root visits of the chosen child over all root visits (= simulations)."""
    visits = result.visit_counts
    return float(visits[result.chosen_index]) / float(visits.sum())


NOTES = {"mcts.run_search": _visit_share}


class Tracer:
    """Spans and hot-call counters, kept in memory until `summary`."""

    def __init__(self):
        # span: [name, parent name, parent index or -1, start ns, end ns, note]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._names: list[str] = [ROOT]
        self.hot_calls: dict = defaultdict(int)  # (name, parent) -> calls
        self.hot_ns: dict = defaultdict(int)  # (name, parent) -> busy ns
        self._saved: list = []

    def _span(self, name, fn):
        spans, open_, names = self.spans, self._open, self._names
        note = NOTES.get(name)
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            rec = [name, names[-1], open_[-1] if open_ else -1, clock(), 0, None]
            open_.append(len(spans))
            spans.append(rec)
            names.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                open_.pop()
                names.pop()
            if note is not None:
                rec[5] = note(result)
            return result

        return wrapped

    def _hot(self, name, fn):
        calls, busy, names = self.hot_calls, self.hot_ns, self._names
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            key = (name, names[-1])
            names.append(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[key] += clock() - t0
                calls[key] += 1
                names.pop()

        return wrapped

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span of its own."""
        return self._span(name, fn)(*args, **kwargs)

    def __enter__(self):
        for table, make in ((SPANS, self._span), (HOT, self._hot)):
            for module, attr, name in table:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, make(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False

    def summary(self, iterations: int, checkpoint_bytes: float) -> dict:
        """Per-layer metrics: counts per iteration, busy times per call."""
        durs: dict = defaultdict(list)  # span name -> durations, ns
        pair_n: dict = defaultdict(int)  # (span name, parent name) -> count
        pair_ns: dict = defaultdict(int)  # (span name, parent name) -> ns
        covered: dict = defaultdict(int)  # parent name -> ns inside children
        notes: dict = defaultdict(list)
        for name, parent, _, t0, t1, note in self.spans:
            d = t1 - t0
            durs[name].append(d)
            pair_n[name, parent] += 1
            pair_ns[name, parent] += d
            covered[parent] += d
            if note is not None:
                notes[name].append(note)
        hot_n: dict = defaultdict(int)
        hot_ns: dict = defaultdict(int)
        for (name, parent), n in self.hot_calls.items():
            hot_n[name] += n
            hot_ns[name] += self.hot_ns[name, parent]
            covered[parent] += self.hot_ns[name, parent]

        def per_call(total_ns, n, scale):
            return total_ns / n / scale if n else 0.0

        def hot(name, unit, scale):
            return {f"{name}.calls": (hot_n[name] / iterations, "count"),
                    f"{name}.{unit}": (per_call(hot_ns[name], hot_n[name], scale),
                                       unit)}

        def span_self(name):
            return sum(durs[name]) - covered[name]

        def pct(values, q):
            return float(np.percentile(values, q)) if values else 0.0

        env = durs["environment.env_step"]
        search = durs["mcts.run_search"]
        n_search = len(search)
        under_search = ("mcts.run_search", "mcts.expand_node")
        acts = durs["selfplay.act"]
        m = {}
        m.update(hot("dynamics.rk4_step", "us", 1e3))
        m.update(hot("missile.missile_step", "us", 1e3))
        m.update({
            "environment.env_step.calls": (len(env) / iterations, "count"),
            "environment.env_step.us": (per_call(sum(env), len(env), 1e3), "us"),
            "environment.env_step.self_us": (
                per_call(span_self("environment.env_step"), len(env), 1e3), "us"),
        })
        m.update(hot("environment.observe", "us", 1e3))
        m.update(hot("mlp.forward", "us", 1e3))
        m["mlp.sample_and_logprob.us"] = (per_call(
            hot_ns["mlp.sample_and_logprob"], hot_n["mlp.sample_and_logprob"], 1e3),
            "us")
        for name in ("mlp.backprop", "mlp.adam_step"):
            m[f"{name}.ms"] = (per_call(hot_ns[name], hot_n[name], 1e6), "ms")
        m.update({
            "mcts.run_search.calls": (n_search / iterations, "count"),
            "mcts.run_search.ms_p50": (pct(search, 50) / 1e6, "ms"),
            "mcts.run_search.ms_p99": (pct(search, 99) / 1e6, "ms"),
            "mcts.run_search.self_ms": (
                per_call(span_self("mcts.run_search"), n_search, 1e6), "ms"),
            "mcts.env_steps_per_search": (per_call(
                pair_n["environment.env_step", "mcts.run_search"], n_search, 1),
                "count"),
            "mcts.forwards_per_search": (per_call(
                sum(self.hot_calls["mlp.forward", p] for p in under_search),
                n_search, 1), "count"),
            "mcts.observes_per_expansion": (per_call(
                self.hot_calls["environment.observe", "mcts.expand_node"],
                hot_n["mcts.expand_node"], 1), "count"),
            "mcts.chosen_visit_share": (
                float(np.mean(notes["mcts.run_search"])) if n_search else 0.0,
                "ratio"),
            "ppo.train_iteration.s": (per_call(
                sum(durs["ppo.train_iteration"]), len(durs["ppo.train_iteration"]),
                1e9), "s"),
            "ppo.compute_advantages.ms": (per_call(
                sum(durs["ppo.compute_advantages"]),
                len(durs["ppo.compute_advantages"]), 1e6), "ms"),
            "selfplay.collect_s": (
                pair_ns["selfplay.play_match", "selfplay.train_loop"]
                / iterations / 1e9, "s"),
            "selfplay.train_s": (
                (pair_ns["ppo.compute_advantages", "selfplay.train_loop"]
                 + pair_ns["ppo.train_iteration", "selfplay.train_loop"])
                / iterations / 1e9, "s"),
            "selfplay.eval_s": (
                sum(durs["selfplay.evaluate_vs_past"]) / iterations / 1e9, "s"),
            "selfplay.decisions": (len(acts) / iterations, "count"),
            "selfplay.decision_ms_p50": (pct(acts, 50) / 1e6, "ms"),
            "selfplay.act.forwards": (
                self.hot_calls["mlp.forward", "selfplay.act"] / iterations, "count"),
            "selfplay.play_match.forwards": (
                self.hot_calls["mlp.forward", "selfplay.play_match"] / iterations,
                "count"),
            "harness.save_checkpoint.ms": (per_call(
                sum(durs["harness.save_checkpoint"]),
                len(durs["harness.save_checkpoint"]), 1e6), "ms"),
            "harness.checkpoint_bytes": (checkpoint_bytes, "bytes"),
            "harness.write_ms": (
                (sum(durs["harness.write_metrics"]) + sum(durs["harness.write_match"]))
                / iterations / 1e6, "ms"),
            "cli.train.s": (per_call(sum(durs["cli.train"]), len(durs["cli.train"]),
                                     1e9), "s"),
        })
        return m
