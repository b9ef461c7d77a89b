"""Spans and counters around the calls into each spacing_lab layer.

The tracer wraps public functions of the layer modules at run time (and the
few internal boundaries whose arguments carry a count the public signature
hides), replacing every reference the package's modules hold to them.  The
program's source is not touched.  Each call records a span (name, start,
end, parent, thread); parent stacks are per thread because ``tabulate`` and
``sample`` run a thread pool.  Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its direct
children.  Self times are summed over all threads, so with a pool they can
exceed the wall time of the command that spawned them.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

PAINLEVE_EVALUATORS = ("e2_bulk", "e2_hard", "e1_bulk", "e4_bulk",
                       "enn_generating", "p2_nn", "p1_direct", "p2_direct",
                       "p4_direct", "p1_gap1", "am5_identity_residual")

# (module, attribute, span name); span name None records counts only, so
# the sieve's time stays in the self time of primes_from
_TARGETS = [
    ("quadrature", "gauss_legendre", "quadrature.gauss_legendre"),
    ("quadrature", "nystrom_spectrum", "quadrature.nystrom_spectrum"),
    ("kernels", "kernel_matrix", "kernels.kernel_matrix"),
    ("fredholm", "_converged_spectrum", "fredholm.converged_spectrum"),
    ("fredholm", "gap_n", "fredholm.gap_n"),
    ("painleve", "build_problem", "painleve.build_problem"),
    ("painleve", "integrate", "painleve.integrate"),
    *[("painleve", name, "painleve.eval") for name in PAINLEVE_EVALUATORS],
    ("montecarlo", "sample_ensemble", "montecarlo.sample_ensemble"),
    ("montecarlo", "unfold", "montecarlo.unfold"),
    ("montecarlo", "chi_square_test", "montecarlo.chi_square_test"),
    ("sequences", "primes_from", "sequences.primes_from"),
    ("sequences", "_sieve_range", None),
    ("cli", "write_tabulate", "cli.tabulate"),
    ("cli", "_write_histogram_csv", "cli.csv"),
]
# CSV writers that are methods
_METHODS = [
    ("fredholm", "SpacingTable", "to_csv", "cli.csv"),
    ("sequences", "PrimeWindow", "to_csv", "cli.csv"),
]


class Tracer:
    def __init__(self):
        self.spans = []         # (id, name, start_ns, end_ns, parent id, thread)
        self.counts = Counter()
        self._count_lock = threading.Lock()     # pool threads add counts too
        self._ids = itertools.count()
        self._local = threading.local()
        self._open = Counter()  # open spans by name, on any thread

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_result=None):
        """fn recording a span called ``name`` (a str, or a function of the
        result; None records none) and passing (args, kwargs, result) to
        ``on_result``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                stack = self._stack()
                sid = next(self._ids)
                parent = stack[-1][0] if stack else None
                stack.append((sid, name))
                self._count_open(name, 1)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    self._count_open(name, -1)
                label = name(result) if callable(name) else name
                self.spans.append((sid, label, start, end, parent,
                                   threading.get_ident()))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _in_span(self, name) -> bool:
        """Whether this thread is inside a span called ``name``."""
        return any(n == name for _, n in self._stack())

    def _count_open(self, name, n):
        with self._count_lock:
            self._open[name] += n

    def _count(self, **amounts):
        with self._count_lock:
            for key, n in amounts.items():
                self.counts[key] += n

    # -- per-call counts -----------------------------------------------------

    def _on_spectrum(self, args, kwargs, spectrum):
        n = spectrum.nodes_used
        self._count(nodes=n, matrix_bytes=8 * n * n,
                    spectra_in_tabulate=int(self._open["cli.tabulate"] > 0),
                    spectra_in_det=int(
                        self._in_span("fredholm.converged_spectrum")))

    def _on_kernel_matrix(self, args, kwargs, matrix):
        self._count(kernel_entries=int(matrix.size))

    def _on_integrate(self, args, kwargs, solution):
        self._count(steps=len(solution.grid) - 1)

    def _on_sample(self, args, kwargs, samples):
        self._count(spectra=len(samples))

    def _on_sieve(self, args, kwargs, primes):
        lo, hi = args[0], args[1]
        self._count(numbers_sieved=max(0, hi - lo))

    def _on_tabulate(self, args, kwargs, outcome):
        table, _ = outcome
        self._count(tabulated_values=len(table.s_grid) * len(table.columns))

    def install(self):
        """Wrap every target in every spacing_lab module that refers to it."""
        import spacing_lab.cli      # noqa: F401  (loads every layer module)
        from spacing_lab import verify

        hooks = {
            "quadrature.nystrom_spectrum": self._on_spectrum,
            "kernels.kernel_matrix": self._on_kernel_matrix,
            "painleve.integrate": self._on_integrate,
            "montecarlo.sample_ensemble": self._on_sample,
            "sequences._sieve_range": self._on_sieve,
            "cli.write_tabulate": self._on_tabulate,
        }
        modules = [m for key, m in sys.modules.items()
                   if key == "spacing_lab" or key.startswith("spacing_lab.")]
        for module_name, attr, span in _TARGETS:
            original = getattr(sys.modules[f"spacing_lab.{module_name}"], attr)
            wrapped = self.wrap(span, original,
                                hooks.get(f"{module_name}.{attr}"))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr, span in _METHODS:
            cls = getattr(sys.modules[f"spacing_lab.{module_name}"], cls_name)
            setattr(cls, attr, self.wrap(span, getattr(cls, attr)))
        verify.ALL_CRITERIA = tuple(
            self.wrap(lambda result: f"verify.{result.name}", fn)
            for fn in verify.ALL_CRITERIA)

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer figures: calls, self and total seconds, and counts."""
        child_ns = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[sid]
        return {"calls": dict(calls),
                "self_s": {k: v * 1e-9 for k, v in self_ns.items()},
                "total_s": {k: v * 1e-9 for k, v in total_ns.items()},
                "counts": dict(self.counts)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns",
                                  "parent", "thread"],
                       "spans": self.spans, "counts": self.counts}, f)
