"""Per-layer spans recorded from outside divlab.

``Tracer.install()`` wraps each public function listed in ``SPANS`` in every
``divlab`` module namespace that binds it (``f_divergence`` is bound in
``divlab.divergence``, ``divlab.contraction``, ``divlab.chi2bounds``,
``divlab.pinsker``, ``divlab.cli`` and the package itself), and wraps the
f/f1/f2 callables of every generator the registry builds to count kernel
evaluations.  Spans are recorded only while an op is open; each keeps its
name, start, end, parent span and op id in flat arrays, which are written
once by ``Tracer.save`` when the run ends.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array

import numpy as np

# (span name, defining module, function); cli.parse covers both file parsers
SPANS = (
    ("divergence.f_divergence", "divlab.divergence", "f_divergence"),
    ("divergence.as_weight_vec", "divlab.divergence", "as_weight_vec"),
    ("divergence.integral_representation", "divlab.divergence", "integral_representation"),
    ("chi2bounds.kappa_bounds", "divlab.chi2bounds", "kappa_bounds"),
    ("markov.structure", "divlab.markov", "structure"),
    ("markov.stationary_distribution", "divlab.markov", "stationary_distribution"),
    ("contraction.eta_chi2", "divlab.contraction", "eta_chi2"),
    ("contraction.eta_f_estimate", "divlab.contraction", "eta_f_estimate"),
    ("contraction.contraction_rate_profile", "divlab.contraction", "contraction_rate_profile"),
    ("contraction.mixing_time_bounds", "divlab.contraction", "mixing_time_bounds"),
    ("pinsker.certify_constant", "divlab.pinsker", "certify_constant"),
    ("pinsker.h_lambda", "divlab.pinsker", "h_lambda"),
    ("bregman.bregman_sandwich", "divlab.bregman", "bregman_sandwich"),
    ("quantum.quantum_eta_estimate", "divlab.quantum", "quantum_eta_estimate"),
    ("quantum.quantum_eta_bounds", "divlab.quantum", "quantum_eta_bounds"),
    ("quantum.quantum_mixing_time_bounds", "divlab.quantum", "quantum_mixing_time_bounds"),
    ("quantum.channel_structure", "divlab.quantum", "channel_structure"),
    ("quantum.petz_f_divergence", "divlab.quantum", "petz_f_divergence"),
    ("quantum.apply_channel", "divlab.quantum", "apply_channel"),
    ("cli.run", "divlab.cli", "run"),
    ("cli.parse", "divlab.cli", "parse_matrix"),
    ("cli.parse", "divlab.cli", "parse_kraus"),
    ("cli.dumps_report", "divlab.cli", "dumps_report"),
)

# the per-layer metrics of BENCHMARK.json, in its order: (name, unit)
LAYER_METRICS = (
    ("divergence.f_divergence.calls", "count"),
    ("divergence.f_divergence.self_s", "s"),
    ("divergence.as_weight_vec.calls", "count"),
    ("divergence.as_weight_vec.self_s", "s"),
    ("divergence.integral_representation.self_s", "s"),
    ("generators.eval_calls", "count"),
    ("generators.eval_points", "count"),
    ("chi2bounds.kappa_bounds.calls", "count"),
    ("chi2bounds.kappa_bounds.self_s", "s"),
    ("markov.structure.calls", "count"),
    ("markov.structure.self_s", "s"),
    ("markov.stationary_distribution.calls", "count"),
    ("markov.stationary_distribution.self_s", "s"),
    ("contraction.eta_chi2.calls", "count"),
    ("contraction.eta_f_estimate.calls", "count"),
    ("contraction.eta_f_estimate.self_s", "s"),
    ("contraction.eta_f_estimate.total_s", "s"),
    ("contraction.eta_f_estimate.divergence_calls", "count"),
    ("contraction.contraction_rate_profile.self_s", "s"),
    ("contraction.mixing_time_bounds.self_s", "s"),
    ("pinsker.certify_constant.self_s", "s"),
    ("pinsker.h_lambda.calls", "count"),
    ("pinsker.h_lambda.self_s", "s"),
    ("bregman.bregman_sandwich.self_s", "s"),
    ("quantum.quantum_eta_estimate.calls", "count"),
    ("quantum.quantum_eta_estimate.self_s", "s"),
    ("quantum.quantum_eta_estimate.total_s", "s"),
    ("quantum.quantum_eta_bounds.self_s", "s"),
    ("quantum.quantum_mixing_time_bounds.self_s", "s"),
    ("quantum.channel_structure.calls", "count"),
    ("quantum.channel_structure.self_s", "s"),
    ("quantum.petz_f_divergence.calls", "count"),
    ("quantum.petz_f_divergence.self_s", "s"),
    ("quantum.apply_channel.calls", "count"),
    ("quantum.apply_channel.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("cli.dumps_report.self_s", "s"),
    ("op.total_s", "s"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.traced_ops_per_s", "ops/s"),
    ("trace.overhead_frac", "ratio"),
)

OP_SPAN = "op"


class Tracer:
    """In-memory span recorder; spans are kept only while an op is open."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self._index = {OP_SPAN: 0}
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self.eval_calls = 0
        self.eval_points = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_index: int) -> None:
        self._op = op_index
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()
        self._op = -1

    def _span_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn):
        name_id = self._span_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn):
        tracer = self

        def counted(t):
            if tracer._op >= 0:
                tracer.eval_calls += 1
                tracer.eval_points += int(np.size(t))
            return fn(t)

        return counted

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "divlab" and not mod_name.startswith("divlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap the traced functions and the registry's generator builder."""
        for name, mod_name, attr in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self.wrap(name, original))
        make = sys.modules["divlab.generators"].make_generator

        def counting_make_generator(name, **params):
            g = make(name, **params)
            return dataclasses.replace(
                g, f=self._count(g.f), f1=self._count(g.f1), f2=self._count(g.f2)
            )

        self._rebind(make, counting_make_generator)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time (span time minus traced child spans) and total
        span time per span name, plus the derived per-layer metrics of
        ``LAYER_METRICS``; ``op.total_s`` is the time of all traced ops."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            mask = name_id == i
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.self_s"] = float(self_s[mask].sum())
            out[f"{name}.total_s"] = float(dur[mask].sum())
        est = self._index.get("contraction.eta_f_estimate", -1)
        fdiv = self._index.get("divergence.f_divergence", -1)
        parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)
        out["contraction.eta_f_estimate.divergence_calls"] = int(
            np.sum((name_id == fdiv) & (parent_name == est))
        )
        out["generators.eval_calls"] = self.eval_calls
        out["generators.eval_points"] = self.eval_points
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
