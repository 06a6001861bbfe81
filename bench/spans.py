"""Spans around calls into the package's public functions.

A Tracer replaces a module attribute (the name a caller looks up, for
example blfqvqe.vqe.expectation_exact) with a wrapper that records one
span per call: name, start, end and the enclosing span on the same
thread.  Spans stay in memory until the run writes them out.  Untraced
runs never install a wrapper.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

# (module, attribute, span name): every name the traced layers are
# looked up by.  A function imported into several modules is wrapped at
# each of them so every caller is seen.
TRACED = (
    ("vqe", "run_circuit", "simulator.run_circuit"),
    ("vqe", "expectation_exact", "simulator.expectation_exact"),
    ("vqe", "expectation_sampled", "simulator.expectation_sampled"),
    ("vqe", "vqe_run", "vqe.vqe_run"),
    ("vqe", "scaling_experiment", "vqe.scaling_experiment"),
    ("vqe", "relative_variance", "vqe.relative_variance"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_hamiltonian", "cli.hamiltonian"),
    ("cli", "cmd_vqe", "cli.vqe"),
    ("cli", "cmd_observables", "cli.observables"),
    ("cli", "build_effective_hamiltonian", "hamiltonian.build"),
    ("cli", "diagonalize", "hamiltonian.diagonalize"),
    ("cli", "embed_direct", "pauli.encode"),
    ("cli", "embed_compact", "pauli.encode"),
    ("cli", "jw_to_bk_pauli", "pauli.encode"),
    ("cli", "vqe_run", "vqe.vqe_run"),
    ("cli", "elastic_form_factor", "observables.elastic_form_factor"),
    ("cli", "pdf", "observables.pdf"),
    ("cli", "decay_constant", "observables.decay_constant"),
    ("cli", "mass_radius", "observables.mass_radius"),
    ("cli", "charge_radius", "observables.charge_radius"),
    ("observables", "form_factor_matrix", "observables.form_factor_matrix"),
)


def _shots(args, kwargs, result):
    """Shots one expectation_sampled call draws: per term x measured terms."""
    pauli_sum = kwargs.get("pauli_sum", args[1] if len(args) > 1 else None)
    shots = kwargs.get("shots_per_term", args[2] if len(args) > 2 else 0)
    measured = sum(1 for t in pauli_sum.terms if set(t.axes) != {"I"})
    return {"simulator.shots": shots * measured}


def _solve(args, kwargs, result):
    return {"vqe.evaluations": len(result.trace),
            "vqe.iterations": result.n_iterations}


COUNTERS = {"simulator.expectation_sampled": _shots, "vqe.vqe_run": _solve}


class Tracer:
    """In-memory span recorder; install() and remove() the wrappers."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []          # [name, start, end, parent, thread]
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent,
                                   threading.get_ident()])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                with self._lock:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[key] += value
            return result
        return traced

    def install(self):
        for module, attr, name in TRACED:
            mod = self.modules[module]
            if mod is None:
                continue
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))

    def remove(self):
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    def summary(self):
        """Per span name: [calls, total seconds, self seconds].

        Self time is a span's duration minus its children's.  Children
        run on their parent's thread, one after another, so they never
        overlap; a span opened on a worker thread has no parent.
        """
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, parent, _ in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start
            if parent is not None:
                out[self.spans[parent][0]][2] -= end - start
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
