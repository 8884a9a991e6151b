"""Spans around calls into subsim's layers, recorded from outside the package.

The tracer replaces public functions at their module attributes with thin
wrappers that record one span per call: name, start, end, parent span and
operation id, plus up to two integer attributes read off the call's arguments
or result (for example the number of states handed to the kernel).  Spans
stay in memory until `to_arrays`; the runner writes them out when it ends.

Nothing inside `src/` is edited.  When a hook's target no longer exists
(an API change), its layer is reported absent instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from time import perf_counter

import numpy as np

ROOT = -1  # parent id of spans opened outside any traced call
INPUTS = -1  # operation id of spans recorded while generating inputs


def _kernel_attrs(args, kwargs, out):
    states, obs_xy = args[0], args[1]
    return np.shape(states)[0], np.shape(obs_xy)[0]


def _run_attrs(args, kwargs, out):
    d = out.diagnostics
    return d.levels_completed, int(d.floor_reached)


def _assemble_attrs(args, kwargs, out):
    return len(out.probabilities), 0


# (module, attribute, span name, layer, attribute reader, wraps a system)
HOOKS = [
    ("subsim.conflict", "miss_distance_batch", "dynamics.kernel", "dynamics", _kernel_attrs, None),
    ("subsim.conflict", "run_subset_simulation", "engine.run", "engine", _run_attrs, None),
    ("subsim.toy", "run_subset_simulation", "engine.run", "engine", _run_attrs, None),
    ("subsim.engine", "assemble_ccdf", "engine.assemble", "engine", _assemble_attrs, None),
    ("subsim.rng", "generator", "rng.generator", "rng", None, None),
    ("subsim.conflict", "conflict_system", "conflict.system", "conflict", None, "conflict"),
    ("subsim.conflict", "pc_ss", "conflict.pc_ss", "conflict", None, None),
    ("subsim.conflict", "pc_dmc", "conflict.pc_dmc", "conflict", None, None),
    ("subsim.analysis", "pc_ss", "conflict.pc_ss", "conflict", None, None),
    ("subsim.analysis", "pc_dmc", "conflict.pc_dmc", "conflict", None, None),
    ("subsim.toy", "toy_system", "toy.system", "toy", None, "toy"),
    ("subsim.conflict", "kf_step", "tracking.kf", "tracking", None, None),
    ("subsim.analysis", "kf_step", "tracking.kf", "tracking", None, None),
    ("subsim.analysis", "freeze_phase", "analysis.freeze", "analysis", None, None),
]

SYSTEM_CALLABLES = ("sample_prior", "evaluate", "conditional_chain")


class Tracer:
    """Installs the hooks, records spans, and restores the originals."""

    def __init__(self):
        self.op = INPUTS
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans: list[tuple] = []
        self._attrs: dict[int, tuple[int, int]] = {}
        self._stack = [ROOT]
        self._next = 0
        self._saved: list[tuple] = []
        # engine.run span id -> arrays its chains returned, in call order
        self.chain_samples: dict[int, list[np.ndarray]] = {}
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def install(self):
        missing = set()
        for module_name, attr, span, layer, attrs, system in HOOKS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.add(layer)
                continue
            wrapped = self.wrap(span, original, attrs, system)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)
        self.absent = sorted(missing)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def wrap(self, name, fn, attrs=None, system=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = tracer._next
            tracer._next = idx + 1
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._spans.append((idx, nid, parent, tracer.op, t0, t1))
            if attrs is not None:
                tracer._attrs[idx] = attrs(args, kwargs, out)
            if system is not None:
                out = tracer._wrap_system(system, out)
            return out

        return traced

    def _wrap_system(self, prefix, system):
        """Wrap the callables of a returned RareEventSystem; keep any others."""
        fields = {f.name for f in dataclasses.fields(system)}
        if not set(SYSTEM_CALLABLES) <= fields:
            self.absent = sorted(set(self.absent) | {prefix})
            return system
        # Only the conflict metrics read level populations; toy runs would
        # hold hundreds of them in memory for nothing.
        chain = self._wrap_chain(prefix + ".chain", system.conditional_chain, prefix == "conflict")
        return dataclasses.replace(
            system,
            sample_prior=self.wrap(prefix + ".sample_prior", system.sample_prior),
            evaluate=self.wrap(prefix + ".evaluate", system.evaluate),
            conditional_chain=chain,
        )

    def _wrap_chain(self, name, fn, keep_samples):
        """Chain spans carry (length, accepted moves); samples optionally kept per run."""
        tracer = self

        def attrs(args, kwargs, out):
            x = np.asarray(out[0])
            x = x.reshape(len(x), -1)
            prev = np.concatenate([np.asarray(args[0]).reshape(1, -1), x[:-1]])
            moves = int(np.count_nonzero(np.any(x != prev, axis=1)))
            if keep_samples:
                tracer.chain_samples.setdefault(tracer._stack[-1], []).append(x)
            return len(x), moves

        return self.wrap(name, fn, attrs)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns indexed by span id (ids are 0..n-1)."""
        n = len(self._spans)
        table = np.array(self._spans, dtype=np.float64).reshape(n, 6)
        table = table[np.argsort(table[:, 0], kind="stable")]
        out = {
            "name": table[:, 1].astype(np.int64),
            "parent": table[:, 2].astype(np.int64),
            "op": table[:, 3].astype(np.int64),
            "start": table[:, 4],
            "end": table[:, 5],
            "a1": np.zeros(n, dtype=np.int64),
            "a2": np.zeros(n, dtype=np.int64),
        }
        for idx, (a1, a2) in self._attrs.items():
            out["a1"][idx] = a1
            out["a2"][idx] = a2
        return out

    def level_distinct(self, run_levels: dict[int, int]) -> tuple[int, int]:
        """(distinct samples, samples) summed over the conflict chain levels.

        A run with L levels grew L - 1 levels of chains, each N rows, in call
        order; `run_levels` maps engine.run span ids to L.
        """
        distinct = total = 0
        for run_span, blocks in self.chain_samples.items():
            if run_span not in run_levels:
                continue
            x = np.concatenate(blocks)
            for level in np.split(x, run_levels[run_span] - 1):
                distinct += len(np.unique(level, axis=0))
                total += len(level)
        return distinct, total
