"""Spans around the calls the benchmark's workloads make into each layer.

The tracer replaces module attributes with thin wrappers for the length of
a traced region and puts the originals back afterwards.  Each wrapper opens
a span on entry and closes it on exit; spans nest through a stack, so a
span's self time is its duration minus the durations of its direct children
(calls are synchronous and single-threaded, so children never overlap).
Spans are folded into per-name totals as they close, which keeps memory
flat however many calls a workload makes.

Model-level spans carry the label of the model they act on
(``classical``, ``hybrid-4q``); spans opened inside them inherit it, so
kernel time can also be split by model.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name).  The quantum kernels are reached through
# the references that ``model`` binds at import, so those are wrapped; the
# ``qsim`` attributes are what ``gradcheck`` reaches.
TARGETS = (
    ("scenario", "generate", "scenario.generate"),
    ("scenario", "default_schedule", "scenario.default_schedule"),
    ("scenario", "write_schedule_json", "scenario.write_schedule_json"),
    ("scenario", "read_schedule_json", "scenario.read_schedule_json"),
    ("data", "aggregate", "data.aggregate"),
    ("data", "build_features", "data.build_features"),
    ("data", "label", "data.label"),
    ("data", "split", "data.split"),
    ("data", "normalize", "data.normalize"),
    ("data", "write_bsm_csv", "data.write_bsm_csv"),
    ("data", "read_bsm_csv", "data.read_bsm_csv"),
    ("data", "write_feature_csv", "data.write_feature_csv"),
    ("model", "build_model", "model.build_model"),
    ("model", "train", "model.train"),
    ("model", "loss_and_gradients", "model.loss_and_gradients"),
    ("model", "forward", "model.forward"),
    ("model", "predict", "model.predict"),
    ("model", "_QUANTUM_FORWARD", "qsim.forward_batch"),
    ("model", "_QUANTUM_GRADIENTS", "qsim.gradients_batch"),
    ("nn", "dense_forward", "nn.dense_forward"),
    ("nn", "dense_backward", "nn.dense_backward"),
    ("nn", "adam_step", "nn.adam_step"),
    ("qsim", "gradients_batch", "qsim.gradients_batch"),
    ("qsim", "quantum_forward", "qsim.quantum_forward"),
    ("qsim", "quantum_gradients", "qsim.quantum_gradients"),
    ("evaluation", "run_experiment", "evaluation.run_experiment"),
    ("evaluation", "compare", "evaluation.compare"),
    ("gradcheck", "check_forward_oracle", "gradcheck.check_forward_oracle"),
    ("gradcheck", "check_parameter_shift", "gradcheck.check_parameter_shift"),
    ("gradcheck", "check_hybrid_gradients", "gradcheck.check_hybrid_gradients"),
    ("cli", "main", "cli.main"),
)

ROOT = "bench"
LAYERS = ("scenario", "data", "model", "nn", "qsim", "evaluation", "gradcheck", "cli", ROOT)


class Stat:
    __slots__ = ("s", "self_s", "calls")

    def __init__(self):
        self.s = 0.0
        self.self_s = 0.0
        self.calls = 0


def _model_label(args) -> str | None:
    """Label of the model a model-level call acts on, from its first argument
    (a model, whose ``config`` has the label, or the config itself)."""
    if not args:
        return None
    config = getattr(args[0], "config", args[0])
    label = getattr(config, "label", None)
    return label if isinstance(label, str) else None


class Tracer:
    """Per-span-name totals, overall and per model label.

    ``stats[name]`` and ``by_label[(name, label)]`` hold duration, self time
    and call count; ``records`` and ``rows`` count the vehicle records
    ``scenario.generate`` returned and the labeled rows ``data.label``
    returned.  A tracer can be entered more than once; ``wall`` sums the
    traced regions.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.by_label: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.records = 0
        self.rows = 0
        self.absent: list[str] = []
        self.wall = 0.0
        self._stack: list[list] = []  # [name, label, start, child duration]
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, label: str | None) -> None:
        if label is None and self._stack:
            label = self._stack[-1][1]
        self._stack.append([name, label, time.perf_counter(), 0.0])

    def _close(self) -> float:
        end = time.perf_counter()
        name, label, start, child = self._stack.pop()
        duration = end - start
        targets = [self.stats[name]]
        if label is not None:
            targets.append(self.by_label[(name, label)])
        for stat in targets:
            stat.s += duration
            stat.self_s += duration - child
            stat.calls += 1
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    def _wrap(self, name: str, func):
        model_level = name.startswith("model.")

        def traced(*args, **kwargs):
            self._open(name, _model_label(args) if model_level else None)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close()
            if name == "scenario.generate":
                self.records += len(result[0])
            elif name == "data.label":
                self.rows += len(result)
            return result

        return traced

    def __enter__(self):
        import qincident

        for module_name, attr, name in TARGETS:
            module = getattr(qincident, module_name)
            if not hasattr(module, attr):
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        self._open(ROOT, None)
        return self

    def __exit__(self, *exc):
        self.wall += self._close()
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer (the part of a span name before the dot).
        Together these cover the traced region exactly once."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[name.split(".")[0]] += stat.self_s
        return out
