"""Names the benchmark in perfbench/ reaches into the package by.

perfbench/tracing.py wraps each entry of its TARGETS table by name, and
perfbench/worker.py times a steady run at diagnostics._krylov_solve; a
rename in the package would break every traced or steady benchmark run.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import chdf
from chdf import darcy
from chdf import diagnostics as diag
from chdf import step
from chdf.darcy import velocity_solve
from chdf.grid import Grid2D, ScalarField, VectorField
from chdf.model import ModelParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    for mod_name, attr in _tracing_module().TARGETS:
        if mod_name == "driver.LedgerWriter":
            owner = chdf.driver.LedgerWriter
        else:
            owner = importlib.import_module(f"chdf.{mod_name}")
        assert callable(getattr(owner, attr, None)), f"{mod_name}.{attr}"


def test_tracer_notes_read_the_reports():
    notes = _tracing_module().NOTES
    grid = Grid2D(16, 16, 1.0, 1.0)
    X, Y = grid.cell_centers()
    force = VectorField(grid, np.stack((np.sin(np.pi * X) * np.cos(np.pi * Y),
                                  -np.cos(np.pi * X) * np.sin(np.pi * Y))))
    zero = VectorField.zero(grid)
    args = (zero, force, 1e-3, ModelParams())
    assert type(notes["darcy.solve"](args, velocity_solve(*args))) is int
    pert = 0.04 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    prev = step.State(zero, ScalarField(grid, pert), ScalarField(grid, 0.5 - pert))
    args = (prev, 1e-3, ModelParams())
    result = step.coupled_time_step(*args)
    counts = notes["step.step"](args, result)
    assert len(counts) == 4 and all(type(c) is int for c in counts)


def test_stationary_solve_calls_krylov_once_per_update(monkeypatch):
    # Counted per grid level (the last axis of the arrays), since the
    # stationary solve is nested over levels.
    calls = {"krylov": [], "damped": []}
    krylov, damped = diag._krylov_solve, step._damped_update

    def counted_krylov(*args, **kwargs):
        calls["krylov"].append(args[2].shape[-1])
        return krylov(*args, **kwargs)

    def counted_damped(*args, **kwargs):
        calls["damped"].append(args[0].shape[-1])
        return damped(*args, **kwargs)

    monkeypatch.setattr(diag, "_krylov_solve", counted_krylov)
    monkeypatch.setattr(step, "_damped_update", counted_damped)
    grid = Grid2D(32, 32, 1.0, 1.0)
    X, Y = grid.cell_centers()
    # A resolved seed (updates at 8^2) and a sharp one (updates at 32^2).
    for phi, first in ((0.1 + 0.04 * np.cos(np.pi * X) * np.cos(np.pi * Y), 8),
                       (0.1 + 0.3 * np.sign(X - 0.5), 32)):
        seed = (ScalarField(grid, phi), ScalarField(grid, 0.5 + 0.2 * (phi - 0.1)))
        del calls["krylov"][:], calls["damped"][:]
        diag.stationary_solve(0.1, 0.5, seed, ModelParams(w=1.0, theta_c=1.0))
        assert calls["krylov"][0] == first
        # One damped update per field (phi, psi) per Newton update.
        for n in set(calls["krylov"] + calls["damped"]):
            assert calls["damped"].count(n) == 2 * calls["krylov"].count(n)


def test_tracer_krylov_sees_darcy_ch_and_stationary_solves(monkeypatch):
    # tracing.install replaces every chdf module attribute that is the
    # object at step.lgmres; here each one counts its calls by caller.
    assert step.lgmres is darcy.pcg is step.pcg
    original = step.lgmres
    callers = []

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "chdf" or name.startswith("chdf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    grid = Grid2D(16, 16, 1.0, 1.0)
    X, Y = grid.cell_centers()
    force = VectorField(grid, np.stack((np.sin(np.pi * X) * np.cos(np.pi * Y),
                                  -np.cos(np.pi * X) * np.sin(np.pi * Y))))
    velocity_solve(VectorField.zero(grid), force, 1e-3, ModelParams())
    assert callers and set(callers) == {"chdf.darcy"}
    pert = 0.04 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    prev = step.State(VectorField.zero(grid), ScalarField(grid, pert),
                      ScalarField(grid, 0.5 - pert))
    del callers[:]
    step.coupled_time_step(prev, 1e-3, ModelParams(w=1.0, theta_c=1.0))
    assert "chdf.step" in callers
    del callers[:]
    seed = (ScalarField(grid, 0.1 + pert), ScalarField(grid, 0.5 - pert))
    diag.stationary_solve(0.1, 0.5, seed, ModelParams(w=1.0, theta_c=1.0))
    assert callers and set(callers) == {"chdf.step"}


def test_import_leaves_scipy_sparse_out():
    # scipy.sparse would add to the import time and peak RSS that setup_s
    # and peak_rss_mb measure; no module of the package needs it.
    code = "import sys, chdf; print('scipy.sparse' in sys.modules)"
    src = str(Path(chdf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "False"


def test_import_leaves_scipy_fft_out():
    # grid loads scipy's compiled pocketfft by file: scipy.fft would bring
    # scipy.special and numpy.f2py, most of the package's import time.
    code = ("import sys, chdf, chdf.cli; print([m for m in ('scipy.fft', "
            "'scipy.special', 'numpy.f2py') if m in sys.modules])")
    src = str(Path(chdf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
