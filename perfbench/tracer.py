"""Span recording from outside the program, and the per-layer summary.

The traced child process wraps every public function of the layer modules
in each ``lindcur`` namespace that binds it, so calls between modules are
seen too.  Each wrapper appends one span (name, start, end, parent index)
to an in-memory list; the list is written out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("lattice", "linalg", "spectral", "reservoir", "lindblad", "current", "cli")
PRIVATE_SPANS = {"cli._write_csvs"}

# spans whose return value also yields a problem-size count
COUNTERS = {
    "spectral.bohr_frequencies": lambda r: {"spectral.bins": len(r.frequencies)},
    "current.build_engine": lambda r: {
        "current.quadruples": len(r.first_index) + len(r.second_index)
    },
    "lindblad.evolve": lambda r: {"lindblad.evolve_steps": len(r.times) - 1},
    "lindblad.build_generator": lambda r: {
        "lindblad.generator_bytes": r.hamiltonian_part.matrix.nbytes
        + r.dissipator.matrix.nbytes
        + r.dissipator_adjoint.matrix.nbytes
    },
}

# per-layer metrics: (metric, span or counter, statistic, unit)
LAYER_METRICS = (
    ("lattice.expectation_report_s", "lattice.expectation_report", "incl", "s"),
    ("lattice.expectation_report_calls", "lattice.expectation_report", "calls", "count"),
    ("linalg.hermitian_eigensystem_s", "linalg.hermitian_eigensystem", "incl", "s"),
    ("linalg.superop_adjoint_s", "linalg.superop_adjoint", "incl", "s"),
    ("spectral.bins", "spectral.bins", "count", "count"),
    ("spectral.bohr_frequencies_s", "spectral.bohr_frequencies", "incl", "s"),
    ("spectral.decompose_s", "spectral.decompose", "incl", "s"),
    ("spectral.decompose_calls", "spectral.decompose", "calls", "count"),
    ("spectral.interaction_picture_batch_s", "spectral.interaction_picture_batch", "incl", "s"),
    ("reservoir.gplus_table_s", "reservoir.gplus_table", "incl", "s"),
    ("reservoir.sample_kernel_s", "reservoir.sample_kernel", "incl", "s"),
    ("lindblad.build_generator_s", "lindblad.build_generator", "incl", "s"),
    ("lindblad.generator_bytes", "lindblad.generator_bytes", "count", "bytes"),
    ("lindblad.evolve_s", "lindblad.evolve", "incl", "s"),
    ("lindblad.evolve_steps", "lindblad.evolve_steps", "count", "count"),
    ("lindblad.steady_state_s", "lindblad.steady_state", "incl", "s"),
    ("lindblad.full_matrix_calls", "lindblad.LindbladGenerator.full_matrix", "calls", "count"),
    ("lindblad.pre_lindblad_generator_s", "lindblad.pre_lindblad_generator", "incl", "s"),
    ("lindblad.triangle_convolution_s", "lindblad.triangle_convolution", "incl", "s"),
    ("current.build_engine_s", "current.build_engine", "incl", "s"),
    ("current.quadruples", "current.quadruples", "count", "count"),
    ("current.jd_expectation_s", "current.jd_expectation", "incl", "s"),
    ("current.jd_expectation_calls", "current.jd_expectation", "calls", "count"),
    ("current.jd_observables_s", "current.jd_observables", "incl", "s"),
    ("current.jd_observables_calls", "current.jd_observables", "calls", "count"),
    ("current.continuity_report_self_s", "current.continuity_report", "self", "s"),
    ("current.jd_finite_time_oracle_s", "current.jd_finite_time_oracle", "incl", "s"),
    ("current.divergence_identity_check_s", "current.divergence_identity_check", "incl", "s"),
    ("cli.build_workbench_s", "cli.build_workbench", "incl", "s"),
    ("cli.write_csvs_self_s", "cli._write_csvs", "self", "s"),
)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.counts = {}
        self._stack = []
        self._name_index = {}

    def wrap(self, name, fn):
        index = self._name_index.setdefault(name, len(self._name_index))
        if index == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return traced

    def install(self):
        """Wrap the layer functions in every loaded lindcur namespace."""
        import lindcur.cli  # noqa: F401  loads every layer module

        namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "lindcur"]
        for layer in LAYERS:
            module = sys.modules[f"lindcur.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and name not in PRIVATE_SPANS:
                    continue
                traced = self.wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)
        cls = sys.modules["lindcur.lindblad"].LindbladGenerator
        cls.full_matrix = self.wrap("lindblad.LindbladGenerator.full_matrix", cls.full_matrix)

    def record(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts}


def summarize(record: dict, wall_s: float) -> dict:
    """Per-name inclusive, self and call totals, and the uncovered time.

    Inclusive time counts only spans with no enclosing span of the same
    name; self time is a span's duration less its direct children's.
    """
    names, spans = record["names"], record["spans"]
    incl, self_s, calls = {}, {}, {}
    child_time = [0.0] * len(spans)
    for start, end, parent in ((s[1], s[2], s[3]) for s in spans):
        if parent >= 0:
            child_time[parent] += end - start
    top = 0.0
    for i, (index, start, end, parent) in enumerate(spans):
        name = names[index]
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != index:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            incl[name] = incl.get(name, 0.0) + duration
        if parent < 0:
            top += duration
    return {
        "incl": incl,
        "self": self_s,
        "calls": calls,
        "count": dict(record["counts"]),
        "uncovered_s": wall_s - top,
    }


def layer_metrics(summary: dict) -> dict:
    """The per-layer metric values named in LAYER_METRICS (0 when idle)."""
    return {
        metric: summary[stat].get(key, 0)
        for metric, key, stat, _ in LAYER_METRICS
    }
