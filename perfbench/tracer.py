"""Spans around calls into the package's public functions, kept in memory.

``Tracer.install`` replaces every public function of the traced modules, and
a few methods, with a wrapper that records a span: name, start, end, parent
span and benchmark phase. Modules that bound a function by name (``from
.solver import lm_iterate``) hold their own reference to it, so each
function is replaced in every ``balm`` namespace that holds it. Nothing is
wrapped unless a traced run asks for it.

A span's self time is its duration minus the time its child spans cover.
Self times of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("scene", "solver", "policy", "env", "nn", "sac", "baselines", "bench")
# (module, class, method, span name)
TRACED_METHODS = (
    ("scene", "BAProblem", "observation_arrays", "scene.observation_arrays"),
    ("env", "BAEnv", "step", "env.step"),
    ("sac", "ReplayBuffer", "sample", "sac.replay_sample"),
)
ORACLE = "baselines.zero_net_oracle"
ZERO_NET_TRAIN = "baselines.zero_net_train"

NAME, START, END, PARENT, PHASE, FLAG = range(6)


def rebind(original, replacement) -> list:
    """Point every ``balm`` module attribute bound to ``original`` at ``replacement``.

    Returns the (module, attribute) pairs changed, so a caller can undo it.
    """
    changed = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "balm" or module_name.startswith("balm.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.counts: dict = defaultdict(int)  # (counter, phase) -> count

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn, flag=None):
        """Wrapper recording a span per call; ``flag(args, result)`` tags the span."""
        tracer = self
        clock = time.perf_counter
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if flag is not None:
                span[FLAG] = flag(args, result)
            return result

        return traced

    def count_raises(self, counter: str, fn):
        """Wrapper counting the calls that raise, without a span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.counts[(counter, tracer.phase)] += 1
                raise

        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import balm  # noqa: F401 - loads every traced module
        import scipy.linalg

        for short in TRACED_MODULES:
            module = sys.modules[f"balm.{short}"]
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                flag = _improved if (short, attr) == ("solver", "lm_iterate") else None
                rebind(value, self.wrap(f"{short}.{attr}", value, flag))
        for short, cls_name, method, name in TRACED_METHODS:
            cls = getattr(sys.modules[f"balm.{short}"], cls_name)
            setattr(cls, method, self.wrap(name, getattr(cls, method)))
        policy = sys.modules["balm.policy"]
        for value in vars(policy).values():
            if inspect.isclass(value) and "next_lambda" in vars(value):
                setattr(value, "next_lambda", self.wrap("policy.next_lambda", value.next_lambda))
        # A failed Cholesky factorization is what sends the solver to its
        # least-squares fallback.
        scipy.linalg.cho_factor = self.count_raises(
            "solver.cholesky_fallbacks", scipy.linalg.cho_factor
        )

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def root_total(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def summary(self, phase: str) -> dict:
        """Per span name: calls and self time within one phase."""
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            if span[PHASE] == phase:
                out[span[NAME]]["calls"] += 1
                out[span[NAME]]["self_s"] += self_s
        return dict(out)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "phase", "flag"],
            "spans": self.spans,
            "counts": {f"{c}@{p}": n for (c, p), n in self.counts.items()},
            "root_total_s": self.root_total(),
            "self_total_s": sum(self.self_times()),
        }


def _improved(args, result) -> bool:
    """lm_iterate flag: did the iteration lower the error of the state it started from?"""
    state = args[1]
    _new_state, record = result
    return bool(record.error < state.error_history[-1])


def layer_metrics(tracer: Tracer, rounds: int, setup_repeats: int) -> dict:
    """The per-layer metrics of one traced run, per measured round.

    ``scene.generate_synthetic`` is reported per set-up instead, since the
    scenes are generated there.
    """
    measured = tracer.summary("measure")

    def calls(name):
        return measured.get(name, {"calls": 0})["calls"] / rounds

    def self_s(name):
        return measured.get(name, {"self_s": 0.0})["self_s"] / rounds

    iterations = improving = train_linearize = 0
    for index, span in enumerate(tracer.spans):
        if span[PHASE] != "measure":
            continue
        if span[NAME] == "solver.lm_iterate" and not tracer.has_ancestor(index, ORACLE):
            iterations += 1
            improving += bool(span[FLAG])
        if span[NAME] == "solver.linearize" and tracer.has_ancestor(index, ZERO_NET_TRAIN):
            train_linearize += 1
    oracle_calls = measured.get(ORACLE, {"calls": 0})["calls"]
    setup = tracer.summary("setup").get("scene.generate_synthetic", {"self_s": 0.0})

    metrics = {
        "solver.damped_step.self_s": (self_s("solver.damped_step"), "s"),
        "solver.linearize.calls": (calls("solver.linearize"), "count"),
        "solver.linearize.self_s": (self_s("solver.linearize"), "s"),
        "solver.residuals.self_s": (self_s("solver.residuals"), "s"),
        "scene.project_many.self_s": (self_s("scene.project_many"), "s"),
        "solver.lm_iterate.self_s": (self_s("solver.lm_iterate"), "s"),
        "scene.observation_arrays.calls": (calls("scene.observation_arrays"), "count"),
        "scene.observation_arrays.self_s": (self_s("scene.observation_arrays"), "s"),
        "scene.generate_synthetic.self_s": (setup["self_s"] / setup_repeats, "s"),
        "solver.cholesky_fallbacks": (
            tracer.counts.get(("solver.cholesky_fallbacks", "measure"), 0) / rounds,
            "count",
        ),
        "solver.improving_ratio": (improving / iterations if iterations else 0.0, "ratio"),
        "policy.observe.self_s": (self_s("policy.observe"), "s"),
        "policy.next_lambda.self_s": (self_s("policy.next_lambda"), "s"),
        "env.step.calls": (calls("env.step"), "count"),
        "env.step.self_s": (self_s("env.step"), "s"),
        "nn.mlp_forward.self_s": (self_s("nn.mlp_forward"), "s"),
        "nn.mlp_forward_cached.self_s": (self_s("nn.mlp_forward_cached"), "s"),
        "nn.mlp_backward.calls": (calls("nn.mlp_backward"), "count"),
        "nn.mlp_backward.self_s": (self_s("nn.mlp_backward"), "s"),
        "nn.adam_step.self_s": (self_s("nn.adam_step"), "s"),
        "sac.sac_update.calls": (calls("sac.sac_update"), "count"),
        "sac.sac_update.self_s": (self_s("sac.sac_update"), "s"),
        "sac.select_action.self_s": (self_s("sac.select_action"), "s"),
        "sac.replay_sample.self_s": (self_s("sac.replay_sample"), "s"),
        "baselines.zero_net_oracle.calls": (calls(ORACLE), "count"),
        "baselines.zero_net_oracle.self_s": (self_s(ORACLE), "s"),
        "baselines.linearize_per_label": (
            train_linearize / oracle_calls if oracle_calls else 0.0,
            "count",
        ),
        "bench.run_comparison.self_s": (self_s("bench.run_comparison"), "s"),
        "bench.performance_profile.self_s": (self_s("bench.performance_profile"), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
