"""Spans around the public functions of each chdf module, and what they give.

`install` wraps functions in place.  Several modules import a function by
name (`step` and `diagnostics` take `cc_fwd`/`cc_inv`, `step` takes
`velocity_solve`, `driver` takes `coupled_time_step`), so every chdf module
attribute that is the original function is replaced, not only the one in
the defining module.  A span records its key, start, end, parent span and
an optional note (bytes, or iteration counts from a returned report).

`layer_metrics` turns the spans of one or more traced runs into per-layer
numbers.  A span's self time is its duration minus that of its child
spans.  Krylov (lgmres) spans belong to the layer of their parent span,
because the stationary solve reaches lgmres through step._krylov_solve.
"""

from __future__ import annotations

import sys

# (module, attribute) -> span key.  Keys of one layer share the prefix.
TARGETS = {
    **{("grid", f"{b}_{d}"): "grid.transform"
       for b in ("cc", "sc", "cs") for d in ("fwd", "inv")},
    **{("grid", f): "grid.ops" for f in (
        "gradient", "divergence", "project_velocity", "neumann_laplacian",
        "inverse_neumann_laplacian", "hminus1_norm_sq")},
    ("model", "f_phi"): "model.potential",
    ("model", "f_psi"): "model.potential",
    # _clamp is private but is the pointwise kernel the coupling spends its
    # time in, and the stationary solve calls it directly.
    **{("model", f): "model.coupling" for f in (
        "_clamp", "coupling_g", "secant_g_phi", "secant_g_psi",
        "secant_g_phi_dfirst", "secant_g_psi_dfirst")},
    ("model", "total_energy"): "model.energy",
    ("darcy", "velocity_solve"): "darcy.solve",
    # darcy and step both import scipy's lgmres by name; one wrapper
    # replaces it in both.
    ("step", "lgmres"): "krylov",
    ("step", "coupled_time_step"): "step.step",
    ("step", "ch_subsystem_solve"): "step.ch_solve",
    ("diagnostics", "build_ledger_row"): "diagnostics.ledger_row",
    ("diagnostics", "stationary_solve"): "diagnostics.stationary",
    ("driver", "load_config"): "driver.config",
    ("driver", "read_snapshot"): "driver.snapshot_read",
    ("driver", "write_snapshot"): "driver.snapshot_write",
    ("driver.LedgerWriter", "write"): "driver.ledger_write",
}


def _step_counts(args, result):
    r = result[2]
    return [r.picard_iterations, r.newton_iterations_phi,
            r.newton_iterations_psi, r.h_halvings]


# Work done by one call, taken from its arguments or its result.
NOTES = {
    "grid.transform": lambda args, result: args[0].nbytes + result.nbytes,
    "driver.snapshot_write": lambda args, result: args[1].data.nbytes,
    "driver.snapshot_read": lambda args, result: result[0].data.nbytes,
    "darcy.solve": lambda args, result: result[2].outer_iterations,
    "step.step": _step_counts,
}


class Tracer:
    """Spans kept in memory: [key index, start, end, parent, note]."""

    def __init__(self, clock):
        self.clock = clock
        self.keys: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, key: str, fn):
        if key not in self.keys:
            self.keys.append(key)
        kid = self.keys.index(key)
        note = NOTES.get(key)
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [kid, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"keys": self.keys, "spans": self.spans}


def install(tracer: Tracer) -> None:
    """Wrap every target in every chdf module that refers to it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "chdf" or name.startswith("chdf.")]
    for (mod_name, attr), key in TARGETS.items():
        if mod_name == "driver.LedgerWriter":
            cls = sys.modules["chdf.driver"].LedgerWriter
            cls.write = tracer.wrap(key, cls.write)
            continue
        original = getattr(sys.modules[f"chdf.{mod_name}"], attr)
        wrapped = tracer.wrap(key, original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)


# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = {
    "grid.transform_calls": "count",
    "grid.transform_ms": "ms",
    "grid.transform_bytes": "bytes.computed",
    "grid.ops_ms": "ms",
    "model.potential_ms": "ms",
    "model.coupling_ms": "ms",
    "model.coupling_calls": "count",
    "model.energy_ms": "ms",
    "darcy.solve_ms": "ms",
    "darcy.solve_calls": "count",
    "darcy.uzawa_iters": "count",
    "darcy.krylov_ms": "ms",
    "darcy.krylov_calls": "count",
    "step.step_ms": "ms",
    "step.ch_solve_ms": "ms",
    "step.ch_solve_calls": "count",
    "step.picard_iters": "count",
    "step.newton_phi_iters": "count",
    "step.newton_psi_iters": "count",
    "step.h_halvings": "count",
    "step.krylov_ms": "ms",
    "step.krylov_calls": "count",
    "diagnostics.ledger_row_ms": "ms",
    "diagnostics.stationary_ms": "ms",
    "diagnostics.krylov_ms": "ms",
    "diagnostics.krylov_calls": "count",
    "driver.config_ms": "ms",
    "driver.snapshot_read_ms": "ms",
    "driver.snapshot_write_ms": "ms",
    "driver.snapshot_bytes": "bytes.computed",
    "driver.ledger_write_ms": "ms",
    "trace.overhead_frac": "frac",
}


def span_totals(dump: dict) -> dict:
    """Sum self time, inclusive time, entries and notes per (layer) key."""
    keys, spans = dump["keys"], dump["spans"]
    child = [0.0] * len(spans)
    for kid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    tot: dict[str, float] = {}

    def add(name, value):
        tot[name] = tot.get(name, 0.0) + value

    for i, (kid, start, end, parent, note) in enumerate(spans):
        key = keys[kid]
        pkey = keys[spans[parent][0]] if parent >= 0 else ""
        if key == "krylov":
            key = f"{pkey.split('.')[0] or 'driver'}.krylov"
        dur = end - start
        add(f"{key}.self", dur - child[i])
        if pkey != key:            # an entry into the key from outside it
            add(f"{key}.incl", dur)
            add(f"{key}.calls", 1)
        if key == "step.step":
            for name, v in zip(("picard", "newton_phi", "newton_psi",
                                "halvings"), note):
                add(f"step.{name}", v)
        elif note is not None:
            add(f"{key}.note", note)
    return tot


def layer_metrics(totals: dict, per: float, overhead_frac: float) -> dict:
    """Per-layer metrics from summed span totals, divided by `per`."""
    def g(name):
        return totals.get(name, 0.0) / per

    ms = 1e3
    return {
        "grid.transform_calls": g("grid.transform.calls"),
        "grid.transform_ms": g("grid.transform.self") * ms,
        "grid.transform_bytes": g("grid.transform.note"),
        "grid.ops_ms": g("grid.ops.self") * ms,
        "model.potential_ms": g("model.potential.self") * ms,
        "model.coupling_ms": g("model.coupling.self") * ms,
        "model.coupling_calls": g("model.coupling.calls"),
        "model.energy_ms": g("model.energy.incl") * ms,
        "darcy.solve_ms": g("darcy.solve.incl") * ms,
        "darcy.solve_calls": g("darcy.solve.calls"),
        "darcy.uzawa_iters": g("darcy.solve.note"),
        "darcy.krylov_ms": g("darcy.krylov.self") * ms,
        "darcy.krylov_calls": g("darcy.krylov.calls"),
        "step.step_ms": g("step.step.incl") * ms,
        "step.ch_solve_ms": g("step.ch_solve.self") * ms,
        "step.ch_solve_calls": g("step.ch_solve.calls"),
        "step.picard_iters": g("step.picard"),
        "step.newton_phi_iters": g("step.newton_phi"),
        "step.newton_psi_iters": g("step.newton_psi"),
        "step.h_halvings": g("step.halvings"),
        "step.krylov_ms": g("step.krylov.self") * ms,
        "step.krylov_calls": g("step.krylov.calls"),
        "diagnostics.ledger_row_ms": g("diagnostics.ledger_row.self") * ms,
        "diagnostics.stationary_ms": g("diagnostics.stationary.incl") * ms,
        "diagnostics.krylov_ms": g("diagnostics.krylov.self") * ms,
        "diagnostics.krylov_calls": g("diagnostics.krylov.calls"),
        "driver.config_ms": g("driver.config.self") * ms,
        "driver.snapshot_read_ms": g("driver.snapshot_read.self") * ms,
        "driver.snapshot_write_ms": g("driver.snapshot_write.self") * ms,
        "driver.snapshot_bytes": (g("driver.snapshot_read.note")
                                  + g("driver.snapshot_write.note")),
        "driver.ledger_write_ms": g("driver.ledger_write.self") * ms,
        "trace.overhead_frac": overhead_frac,
    }
