"""Outside-in layer tracing of pdmorse.

The tracer wraps each layer's public entry points.  Modules import one
another with ``from .x import y``, so a wrapper replaces the name in every
loaded ``pdmorse`` module that binds the original function; ``kernels`` is
reached as ``kernels.sweep`` and is therefore replaced at its module
attribute.  Nothing inside ``src/`` changes.

Spans (name, start, end, parent, request id, ok, count) live in flat lists
and are written out once, at the end of a run.  ``count`` is the work unit
of the boundary: propagation steps, serialized bytes, listed levels,
sampled points or integrand calls.  Integrand evaluations made inside a
quadrature span are counted there and do not open spans of their own.
"""
from __future__ import annotations

import json
import sys
import time
from functools import wraps
from pathlib import Path

import numpy as np

_QUADRATURE = "quadrature"


def _steps(args, kwargs, result):
    return len(args[0]) - 1


def _sweep_steps(args, kwargs, result):
    return len(args[0])


def _bytes(args, kwargs, result):
    return len(result.encode())


def _length(args, kwargs, result):
    return len(result)


def _one(args, kwargs, result):
    return 1


def _points(args, kwargs, result):
    return int(np.size(args[2] if len(args) > 2 else kwargs["z"]))


def _nonzero_exit(args, kwargs, result):
    return int(result != 0)


# layer -> {public name: work unit of one call (None: no unit)}
BOUNDARIES = {
    "cli": {"main": _nonzero_exit},
    "catalog": {"resolve_molecule": None, "get_molecule": None,
                "load_molecule_config": None, "reference_energy": None},
    "model": {"reduce": None, "parse_ordering": None},
    "analytic": {"spectrum": _length, "make_state": None, "epsilon_nl": None},
    "wavefn": {"attach_norm": None, "norm_const": None, "norm_const_quadrature": None,
               "phi": _points, "phi_eta0": _points},
    "quadrature": {"integrate_with_endpoint_power": None, "adaptive_gauss": None},
    "oracle": {"solve_states": _length, "solve_on_grid": _length, "shoot_state": _one,
               "default_domain": None, "u_eff": None},
    "kernels": {"rk4_propagators": _steps, "sweep": _sweep_steps},
    "reports": {"build_spectrum_report": None, "table1_report": None,
                "spectrum_csv": _bytes, "spectrum_json": _bytes,
                "wavefunction_csv": _bytes, "oracle_compare_rows": None,
                "oracle_csv": _bytes},
}


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.labels: list[str] = []
        self.label: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.ok: list[bool] = []
        self.count: list[int] = []
        self.stack: list[int] = []
        self.quadrature_depth = 0
        self.request_id: int | None = None
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pdmorse" or name.startswith("pdmorse."))]
        for layer, names in BOUNDARIES.items():
            home = sys.modules.get(f"pdmorse.{layer}")
            for name, unit in names.items():
                original = getattr(home, name, None)
                if not callable(original):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, name, original, unit)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _open(self, label_id: int) -> int:
        idx = len(self.label)
        self.label.append(label_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.ok.append(False)
        self.count.append(0)
        self.stack.append(idx)
        return idx

    def _wrap(self, layer: str, name: str, fn, unit):
        label_id = len(self.labels)
        self.labels.append(f"{layer}.{name}")
        in_quadrature_layer = layer == _QUADRATURE
        counts_integrand = name == "adaptive_gauss"
        perf = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request_id is None or (self.quadrature_depth and not in_quadrature_layer):
                return fn(*args, **kwargs)
            idx = self._open(label_id)
            if counts_integrand:
                integrand = args[0]

                def counted(x):
                    self.count[idx] += 1
                    return integrand(x)

                args = (counted,) + args[1:]
            if in_quadrature_layer:
                self.quadrature_depth += 1
            self.start[idx] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self.stack.pop()
                if in_quadrature_layer:
                    self.quadrature_depth -= 1
            self.ok[idx] = True
            if unit is not None:
                self.count[idx] = unit(args, kwargs, result)
            return result

        return wrapper

    # -- output -----------------------------------------------------------
    def write_spans(self, path: Path) -> None:
        with open(path, "w") as handle:
            for i in range(len(self.label)):
                handle.write(json.dumps({
                    "name": self.labels[self.label[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i],
                    "request": self.request[i], "ok": self.ok[i],
                    "count": self.count[i]}) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (value, unit) aggregated from the recorded spans."""
        n = len(self.label)
        names = [self.labels[self.label[i]] for i in range(n)]
        layer = [name.split(".", 1)[0] for name in names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        self_time = [dur[i] - child[i] for i in range(n)]

        def parent_layer(i):
            p = self.parent[i]
            return layer[p] if p >= 0 else None

        def spans(*wanted, top_of=None):
            """Indices of spans named in `wanted`; top_of: skip those nested in that layer."""
            return [i for i in range(n) if names[i] in wanted
                    and (top_of is None or parent_layer(i) != top_of)]

        def total(idx, values):
            return sum(values[i] for i in idx)

        def ratio(a, b, scale=1.0):
            return a * scale / b if b else 0.0

        # attach_norm spans that fell back to (or, at eta = 0, only have) quadrature
        quad_norms = set()
        for i in spans("quadrature.integrate_with_endpoint_power", "quadrature.adaptive_gauss"):
            p = self.parent[i]
            while p >= 0 and names[p] != "wavefn.attach_norm":
                p = self.parent[p]
            if p >= 0:
                quad_norms.add(p)

        props = spans("kernels.rk4_propagators")
        sweeps = spans("kernels.sweep")
        prop_steps, sweep_steps = total(props, self.count), total(sweeps, self.count)
        prop_s, sweep_s = total(props, dur), total(sweeps, dur)
        solvers = spans("oracle.solve_states", "oracle.solve_on_grid", "oracle.shoot_state",
                        top_of="oracle")
        levels = total(solvers, self.count)
        serializers = spans("reports.spectrum_csv", "reports.spectrum_json",
                            "reports.wavefunction_csv", "reports.oracle_csv")
        reports_self = total([i for i in range(n) if layer[i] == "reports"], self_time)
        bytes_out = total(serializers, self.count)
        # phi() hands eta = 0 states on to phi_eta0; count such a call once
        phis = [i for i in spans("wavefn.phi", "wavefn.phi_eta0")
                if self.parent[i] < 0 or names[self.parent[i]] != "wavefn.phi"]
        norms = spans("wavefn.attach_norm")
        wavefn_top = [i for i in range(n) if layer[i] == "wavefn" and parent_layer(i) != "wavefn"]
        integrals = [i for i in range(n) if layer[i] == _QUADRATURE
                     and parent_layer(i) != _QUADRATURE]
        integrand_calls = total(spans("quadrature.adaptive_gauss"), self.count)
        spectra = spans("analytic.spectrum")
        reduces = spans("model.reduce")
        mains = spans("cli.main")
        return {
            "kernels.propagator_calls": (len(props), "count"),
            "kernels.propagator_steps": (prop_steps, "count"),
            "kernels.propagators_s": (prop_s, "s"),
            "kernels.propagators_ns_per_step": (ratio(prop_s, prop_steps, 1e9), "ns"),
            "kernels.sweep_calls": (len(sweeps), "count"),
            "kernels.sweep_steps": (sweep_steps, "count"),
            "kernels.sweep_s": (sweep_s, "s"),
            "kernels.sweep_ns_per_step": (ratio(sweep_s, sweep_steps, 1e9), "ns"),
            "oracle.levels": (levels, "count"),
            "oracle.sweeps_per_level": (ratio(len(sweeps), levels), "sweeps/level"),
            "oracle.self_s": (total([i for i in range(n) if layer[i] == "oracle"], self_time), "s"),
            "reports.self_s": (reports_self, "s"),
            "reports.bytes_out": (bytes_out, "B"),
            "reports.ns_per_byte": (ratio(reports_self, bytes_out, 1e9), "ns/B"),
            "wavefn.phi_calls": (len(phis), "count"),
            "wavefn.phi_points": (total(phis, self.count), "count"),
            "wavefn.phi_s": (total(phis, dur), "s"),
            "wavefn.norm_closed": (sum(1 for i in norms if self.ok[i] and i not in quad_norms),
                                   "count"),
            "wavefn.norm_quadrature": (sum(1 for i in norms if self.ok[i] and i in quad_norms),
                                       "count"),
            "wavefn.norm_s": (total(norms, dur), "s"),
            "wavefn.failed": (sum(1 for i in wavefn_top if not self.ok[i]), "count"),
            "quadrature.integrals": (len(integrals), "count"),
            "quadrature.panels": (integrand_calls / 2, "count"),
            "quadrature.panels_per_integral": (ratio(integrand_calls / 2, len(integrals)),
                                               "panels/integral"),
            "quadrature.s": (total(integrals, dur), "s"),
            "quadrature.failed": (sum(1 for i in integrals if not self.ok[i]), "count"),
            "analytic.spectrum_calls": (len(spectra), "count"),
            "analytic.levels_listed": (total(spectra, self.count), "count"),
            "analytic.spectrum_s": (total(spectra, dur), "s"),
            "model.reduce_calls": (len(reduces), "count"),
            "model.reduce_s": (total(reduces, dur), "s"),
            "catalog.resolve_s": (total(spans("catalog.resolve_molecule"), dur), "s"),
            "cli.requests": (len(mains), "count"),
            "cli.self_s": (total(mains, self_time), "s"),
            "cli.exit_nonzero": (total([i for i in mains if self.ok[i]], self.count), "count"),
            "cli.uncaught": (sum(1 for i in mains if not self.ok[i]), "count"),
            "trace.spans": (n, "count"),
        }
