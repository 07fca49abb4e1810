"""Per-module tracing installed from outside the program.

``install`` replaces the public entry points of ``tthjb.cli``,
``integrate``, ``operators``, ``tt``, ``basis`` and ``sample`` with timing
or counting wrappers.  A function is replaced under every name it is bound
to in every ``tthjb`` module (``tthjb.integrate.tt_round`` and
``tthjb.tt.tt_round`` are separate bindings of one function), so calls are
caught where they are looked up.  Spans are kept in memory and written out
when the traced command has ended.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from collections import Counter

# (module, attribute, group, timed).  Timed entries record a span per call;
# the others only count calls, because they run hundreds of thousands of
# times per solve and a span each would distort the figures.
WRAPPED = [
    ("cli", "cmd_solve", "cli.solve", True),
    ("cli", "cmd_sample", "cli.sample", True),
    ("cli", "write_checkpoint", "cli.checkpoint_write", True),
    ("cli", "read_checkpoint", "cli.checkpoint_read", True),
    ("integrate", "power_iteration_bound", "integrate.power", True),
    ("integrate", "_step_quantities", "integrate.rhs", True),
    ("integrate", "stepsize_retraction", "integrate.retraction", True),
    ("integrate", "_retraction_rel_err", "integrate.retraction_eval", False),
    ("integrate", "degree_truncate", "integrate.compress", True),
    ("integrate", "rank_adapt", "integrate.compress", True),
    ("integrate", "_diag_record", "integrate.diag", True),
    ("integrate", "euler_step", "sample.bridge", True),
    ("operators", "apply_stiffness", "operators.apply_stiffness", True),
    ("operators", "apply_nonlin_linearized", "operators.nonlin", True),
    ("operators", "apply_lin", "operators.apply_lin", True),
    ("operators", "extract_quadratic", "operators.extract_quadratic", True),
    ("tt", "tt_round", "tt.round", True),
    ("tt", "tt_norm", "tt.norm", True),
    ("tt", "right_orthogonalize", "tt.orthogonalize", True),
    ("basis", "ou_generator_matrix", "basis.operator_matrix", False),
    ("basis", "derivative_matrix", "basis.operator_matrix", False),
    ("basis", "mapped_monomial_transform", "basis.operator_matrix", False),
    ("sample", "grad_v_batch", "sample.grad", True),
    ("sample", "_normals", "sample.rng", True),
]
# Methods are replaced on their class.
WRAPPED_METHODS = [
    ("basis", "LegendreBasis", "evaluate", "basis.eval"),
    ("basis", "LegendreBasis", "evaluate_with_derivative", "basis.eval"),
]


class Tracer:
    """Spans and counters of one traced command."""

    def __init__(self):
        self.spans = []            # (id, parent id or -1, group, start_ns, end_ns)
        self._stack = []           # [id, nanoseconds covered by child spans]
        self._depth = Counter()
        self._ids = itertools.count()
        self.calls = Counter()
        self.inclusive_ns = Counter()   # outermost spans of a group only
        self.self_ns = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.basis_misses_before = 0

    def timed(self, group, fn, after=None):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [next(self._ids), 0]
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append(frame)
            self._depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._depth[group] -= 1
                took = end - start
                if self._stack:
                    self._stack[-1][1] += took
                if not self._depth[group]:
                    self.inclusive_ns[group] += took
                self.self_ns[group] += took - frame[1]
                self.calls[group] += 1
                self.spans.append((frame[0], parent, group, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, group, fn):
        def wrapper(*args, **kwargs):
            self.calls[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    # hooks that read arguments or results -----------------------------

    def _power(self, args, result):
        iters = result[1]
        self.counts["power_iters"] += iters
        self.counts["power_capped"] += iters >= args[2].power_max_iters

    def _round(self, args, result):
        self.maxima["round_rank_in"] = max(self.maxima["round_rank_in"], max(args[0].ranks))

    def _checkpoint(self, args, result):
        self.counts["checkpoint_bytes"] += os.path.getsize(args[0])

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,group,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def install(tracer: Tracer):
    """Wrap the entry points listed above in every loaded ``tthjb`` module."""
    import tthjb.basis
    import tthjb.tt

    modules = [m for name, m in sys.modules.items()
               if (name == "tthjb" or name.startswith("tthjb.")) and m is not None]
    hooks = {"integrate.power": tracer._power, "tt.round": tracer._round,
             "cli.checkpoint_write": tracer._checkpoint}
    for modname, attr, group, timed in WRAPPED:
        original = getattr(sys.modules[f"tthjb.{modname}"], attr)
        if timed:
            wrapper = tracer.timed(group, original, hooks.get(group))
        else:
            wrapper = tracer.counted(group, original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    for modname, cls_name, attr, group in WRAPPED_METHODS:
        cls = getattr(sys.modules[f"tthjb.{modname}"], cls_name)
        setattr(cls, attr, tracer.timed(group, getattr(cls, attr)))

    tt_init = tthjb.tt.TensorTrain.__init__

    def counting_init(obj, *args, **kwargs):
        tracer.counts["tt_constructions"] += 1
        tt_init(obj, *args, **kwargs)

    tthjb.tt.TensorTrain.__init__ = counting_init
    tracer.basis_misses_before = tthjb.basis.build_basis.cache_info().misses


def layer_metrics(tracer: Tracer) -> dict:
    """Per-module metrics of one traced command, by name: counts exactly,
    times in seconds."""
    import tthjb.basis

    def secs(group):
        return tracer.inclusive_ns[group] / 1e9

    def self_secs(group):
        return tracer.self_ns[group] / 1e9

    calls = tracer.calls
    steps = calls["integrate.diag"]
    evals = calls["integrate.retraction_eval"]
    misses = tthjb.basis.build_basis.cache_info().misses - tracer.basis_misses_before
    return {
        "integrate.steps": steps,
        "integrate.power_s": secs("integrate.power"),
        "integrate.power_self_s": self_secs("integrate.power"),
        "integrate.power_iters": tracer.counts["power_iters"],
        "integrate.power_capped_steps": tracer.counts["power_capped"],
        "integrate.rhs_s": secs("integrate.rhs"),
        "integrate.rhs_self_s": self_secs("integrate.rhs"),
        "integrate.retraction_s": secs("integrate.retraction"),
        "integrate.retraction_self_s": self_secs("integrate.retraction"),
        "integrate.retraction_evals": evals,
        "integrate.steps_per_retraction_eval": steps / evals if evals else 0.0,
        "integrate.compress_s": secs("integrate.compress"),
        "integrate.compress_self_s": self_secs("integrate.compress"),
        "integrate.diag_s": secs("integrate.diag"),
        "integrate.diag_self_s": self_secs("integrate.diag"),
        "operators.apply_stiffness_calls": calls["operators.apply_stiffness"],
        "operators.apply_stiffness_s": secs("operators.apply_stiffness"),
        "operators.apply_stiffness_self_s": self_secs("operators.apply_stiffness"),
        "operators.nonlin_s": secs("operators.nonlin"),
        "operators.apply_lin_s": secs("operators.apply_lin"),
        "operators.extract_quadratic_s": secs("operators.extract_quadratic"),
        "tt.round_calls": calls["tt.round"],
        "tt.round_s": secs("tt.round"),
        "tt.round_self_s": self_secs("tt.round"),
        "tt.round_rank_in_max": tracer.maxima["round_rank_in"],
        "tt.norm_calls": calls["tt.norm"],
        "tt.norm_s": secs("tt.norm"),
        "tt.orthogonalize_calls": calls["tt.orthogonalize"],
        "tt.orthogonalize_s": secs("tt.orthogonalize"),
        "tt.constructions": tracer.counts["tt_constructions"],
        "basis.operator_matrix_builds": calls["basis.operator_matrix"],
        "basis.build_basis_misses": misses,
        "basis.eval_calls": calls["basis.eval"],
        "basis.eval_s": secs("basis.eval"),
        "sample.grad_calls": calls["sample.grad"],
        "sample.grad_s": secs("sample.grad"),
        "sample.grad_self_s": self_secs("sample.grad"),
        "sample.rng_s": secs("sample.rng"),
        "sample.bridge_steps": calls["sample.bridge"],
        "sample.bridge_s": secs("sample.bridge"),
        "cli.checkpoint_write_s": secs("cli.checkpoint_write"),
        "cli.checkpoint_bytes": tracer.counts["checkpoint_bytes"],
        "cli.checkpoint_read_s": secs("cli.checkpoint_read"),
        "cli.solve_s": secs("cli.solve"),
        "cli.solve_self_s": self_secs("cli.solve"),
        "cli.sample_s": secs("cli.sample"),
        "cli.sample_self_s": self_secs("cli.sample"),
    }
