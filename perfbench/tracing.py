"""Cross-layer tracing from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper, in
its defining module and under every name another `ltwist` module imported it
as (e.g. `ltwist.analytic.bessel_k`, `ltwist.zeros.hecke_coeff`), so calls
between layers are seen.  Each call becomes a span (id, name, start, end,
parent id) kept in memory; `write()` dumps them at exit.  A span's self
time is its duration minus the time covered by its child spans; it is
reported as a share of the traced run, so a layer a workload bypasses reads
0 % rather than a constant time.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict

# The public functions a traced run wraps; RATIONALE.md says which
# end-to-end metric each should move, and on which workload.
TRACED = (
    ("specfun", "bessel_k"), ("specfun", "gamma_r"), ("specfun", "trigamma"),
    ("forms", "parse_fixture"), ("forms", "hecke_coeff"),
    ("forms", "prime_power_a"), ("forms", "dual_form"),
    ("series", "c_coeffs"), ("series", "lambda_table"),
    ("series", "eval_series"), ("series", "eval_char_series"),
    ("series", "twist_decomposition"), ("series", "rs_average"),
    ("dirichlet", "characters"), ("dirichlet", "trig_coeffs"),
    ("dirichlet", "gauss_sum"),
    ("analytic", "gamma_factor"), ("analytic", "eval_form"),
    ("analytic", "modularity_residual"),
    ("zeros", "lambda_derivs"), ("zeros", "scan_zeros"),
    ("zeros", "feofd_residual"), ("zeros", "taylor_residual"),
)


def _bessel_route(args, kwargs):
    """Route of one bessel_k call, classified from its arguments the way
    bessel_k decides: y above bits*ln2/2 is an asymptotic candidate (which
    can still fall back to the trapezoid rule inside)."""
    y = args[1] if len(args) > 1 else kwargs["y"]
    ctx = args[2] if len(args) > 2 else kwargs.get("ctx")
    bits = ctx.work_bits if ctx is not None else 128
    return "asym" if float(y) > bits * math.log(2) / 2 else "trap"


def _lambda_order(args, kwargs):
    order = args[2] if len(args) > 2 else kwargs["order"]
    return f"order{order}"


# traced name -> (classifier of one call, the labels it can return)
_SUBLABEL = {
    "specfun.bessel_k": (_bessel_route, ("trap", "asym")),
    "zeros.lambda_derivs": (_lambda_order, ("order0", "order1", "order2")),
}


class Tracer:
    def __init__(self):
        self.spans = []      # (id, name, start, end, parent id or -1)
        self._stack = []     # [id, child seconds]
        self._next_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)

    def _wrap(self, name, fn):
        sublabel = _SUBLABEL.get(name, (None,))[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if sublabel is None \
                else f"{name}.{sublabel(args, kwargs)}"
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                if label != name:
                    self.calls[label] += 1
                self.self_s[label] += duration - frame[1]
                self.spans.append((span_id, label, start, end, parent))

        return traced

    def install(self):
        """Wrap every traced function wherever an ltwist module binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "ltwist" or n.startswith("ltwist.")]
        for module_name, func_name in TRACED:
            home = sys.modules[f"ltwist.{module_name}"]
            original = getattr(home, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def metrics(self, wall_s) -> dict:
        """calls, errors and self time as a share of `wall_s` per traced
        function; bessel_k's self time by route, lambda_derivs' by order."""
        out = {}
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.errors"] = (self.errors[name], "count")
            labels = [name]
            if name in _SUBLABEL:
                labels = [f"{name}.{sub}" for sub in _SUBLABEL[name][1]]
            for label in labels:
                if label != name:
                    out[f"{label}.calls"] = (self.calls[label], "count")
                out[f"{label}.self_pct"] = (
                    100 * self.self_s[label] / wall_s, "%")
        return out

    def write(self, path):
        """Spans as gzipped JSON lines [id, name, start, end, parent]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
