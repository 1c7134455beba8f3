"""Run orchestration: config files, presets, snapshots, the time loop.

Config files are flat "key = value" lines under "[section]" headers.  The
ledger is a CSV with one row per step, printed at 17 significant digits so
doubles round-trip.  Snapshots are a one-line text header followed by the
raw little-endian float64 payload, integrity-checked by a 64-bit FNV-1a
checksum.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import diagnostics as diag
from . import grid as gridops
from . import model as mdl
from .errors import (BoundViolation, NonConvergence, ParseError,
                     SnapshotFormatError, StepTooLarge, UnknownPreset,
                     ValidationError)
from .grid import Grid2D, ScalarField, VectorField
from .model import ModelParams
from .step import (ChemicalPotentials, SolverTolerances, State,
                   coupled_time_step)

_SNAPSHOT_MAGIC = "CHDF1"
_STRIPE_CLIP = 1e-3


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    nx: int = 64
    ny: int = 64
    Lx: float = 1.0
    Ly: float = 1.0
    h: float = 1e-3
    t_end: float = 0.1
    output_every: int = 100
    params: ModelParams = field(default_factory=ModelParams)
    tolerances: SolverTolerances = field(default_factory=SolverTolerances)
    preset: str = "homogeneous"
    mean_phi: float = 0.0
    mean_psi: float = 0.5
    amplitude: float = 0.9
    width: float = 0.08
    noise_amplitude: float = 0.05
    phi_path: str = ""
    psi_path: str = ""
    seed: int = 0
    output_dir: str = "out"
    series: str = "ledger.csv"
    snapshot_prefix: str = "state"


_GRID_KEYS = {"nx": int, "ny": int, "Lx": float, "Ly": float}
_TIME_KEYS = {"h": float, "t_end": float, "output_every": int}
_MODEL_KEYS = {f.name: float for f in fields(ModelParams)}
_TOL_KEYS = {
    "newton_tol": float, "picard_tol": float, "energy_tol": float,
    "velocity_tol": float, "max_newton": int, "max_picard": int,
    "newton_damping_min": float,
}
_INITIAL_KEYS = {
    "preset": str, "mean_phi": float, "mean_psi": float, "amplitude": float,
    "width": float, "noise_amplitude": float, "phi_path": str,
    "psi_path": str, "seed": int,
}
_OUTPUT_KEYS = {"directory": str, "series": str, "snapshot_prefix": str}
_SECTIONS = {
    "grid": _GRID_KEYS, "time": _TIME_KEYS, "model": _MODEL_KEYS,
    "tolerances": _TOL_KEYS, "initial": _INITIAL_KEYS, "output": _OUTPUT_KEYS,
}


def _convert(section: str, key: str, raw: str, typ):
    try:
        if typ is int:
            val = int(raw)
        elif typ is float:
            val = float(raw)
        elif typ is str:
            val = raw
        else:
            raise AssertionError(typ)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key} = {raw!r} is not a valid {typ.__name__}") from exc
    if typ is float and not math.isfinite(val):
        raise ParseError(f"[{section}] {key} = {raw!r} is not a finite number")
    return val


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ParseError(f"malformed config {path}: {exc}") from exc

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        values[section] = {}
        for key, raw in parser[section].items():
            if key not in allowed:
                raise ValidationError(f"unknown key {key} in section [{section}]")
            values[section][key] = _convert(section, key, raw, allowed[key])

    cfg = RunConfig()
    g = values.get("grid", {})
    t = values.get("time", {})
    o = values.get("output", {})
    ini = values.get("initial", {})
    cfg.nx = g.get("nx", cfg.nx)
    cfg.ny = g.get("ny", cfg.ny)
    cfg.Lx = g.get("Lx", cfg.Lx)
    cfg.Ly = g.get("Ly", cfg.Ly)
    cfg.h = t.get("h", cfg.h)
    cfg.t_end = t.get("t_end", cfg.t_end)
    cfg.output_every = t.get("output_every", cfg.output_every)
    cfg.output_dir = o.get("directory", cfg.output_dir)
    cfg.series = o.get("series", cfg.series)
    cfg.snapshot_prefix = o.get("snapshot_prefix", cfg.snapshot_prefix)
    for key in _INITIAL_KEYS:
        if key in ini:
            setattr(cfg, key, ini[key])

    try:
        cfg.params = ModelParams(**values.get("model", {}))
        cfg.tolerances = SolverTolerances(**values.get("tolerances", {}))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    # Grid2D validates nx/ny/Lx/Ly on construction; surface that now.
    try:
        Grid2D(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if cfg.h <= 0:
        raise ValidationError("h must be > 0")
    if cfg.t_end <= 0:
        raise ValidationError("t_end must be > 0")
    if cfg.output_every < 1:
        raise ValidationError("output_every must be >= 1")
    if cfg.preset not in ("homogeneous", "stripe", "random_spinodal", "snapshot"):
        raise ValidationError(f"unknown preset {cfg.preset!r}")
    if not -1.0 < cfg.mean_phi < 1.0:
        raise ValidationError("mean_phi must lie in the open interval (-1, 1)")
    if not 0.0 < cfg.mean_psi < 1.0:
        raise ValidationError("mean_psi must lie in the open interval (0, 1)")
    if not 0.0 <= cfg.noise_amplitude <= 0.05:
        raise ValidationError("noise_amplitude must lie in [0, 0.05]")
    return cfg


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def write_snapshot(path: str, f: ScalarField, time: float, name: str) -> None:
    """Write a header line plus the raw little-endian float64 payload."""
    grid = f.grid
    payload = np.ascontiguousarray(f.data, dtype="<f8").tobytes()
    header = (f"{_SNAPSHOT_MAGIC} {grid.nx} {grid.ny} {grid.Lx:.17g} "
              f"{grid.Ly:.17g} {time:.17g} {name} {_fnv1a64(payload):016x}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def read_snapshot(path: str) -> tuple[ScalarField, float, str]:
    """Read a snapshot; verifies magic, shape, and payload checksum."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace")
        payload = fh.read()
    parts = header.split()
    if len(parts) != 8 or parts[0] != _SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: bad snapshot header")
    try:
        nx, ny = int(parts[1]), int(parts[2])
        Lx, Ly, time = float(parts[3]), float(parts[4]), float(parts[5])
        name = parts[6]
        checksum = int(parts[7], 16)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: unparseable header fields") from exc
    if len(payload) != nx * ny * 8:
        raise SnapshotFormatError(f"{path}: payload length mismatch")
    if _fnv1a64(payload) != checksum:
        raise SnapshotFormatError(f"{path}: checksum mismatch")
    data = np.frombuffer(payload, dtype="<f8").reshape(ny, nx).astype(float)
    grid = Grid2D(nx, ny, Lx, Ly)
    return ScalarField(grid, data), time, name


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def _band_limited_noise(grid: Grid2D, rng: np.random.Generator,
                        amplitude: float) -> np.ndarray:
    """Zero-mean noise from the lowest cosine modes, scaled to amplitude."""
    kmax = 4
    X, Y = grid.cell_centers()
    noise = np.zeros((grid.ny, grid.nx))
    for k in range(kmax + 1):
        for l in range(kmax + 1):
            if k == 0 and l == 0:
                continue
            coeff = rng.standard_normal()
            noise += coeff * np.cos(k * np.pi * X / grid.Lx) * np.cos(l * np.pi * Y / grid.Ly)
    noise -= noise.mean()
    peak = np.max(np.abs(noise))
    if peak > 0:
        noise *= amplitude / peak
    return noise


def initial_condition(preset: str, grid: Grid2D, params: ModelParams,
                      seed: int, *, mean_phi: float = 0.0, mean_psi: float = 0.5,
                      amplitude: float = 0.9, width: float = 0.08,
                      noise_amplitude: float = 0.05, phi_path: str = "",
                      psi_path: str = "") -> State:
    """Construct the starting state for a named scenario."""
    u0 = VectorField.zero(grid)
    if preset == "homogeneous":
        state = State(u0, ScalarField.constant(grid, mean_phi),
                      ScalarField.constant(grid, mean_psi))
    elif preset == "stripe":
        X, _ = grid.cell_centers()
        phi = mean_phi + amplitude * np.tanh((X - 0.5 * grid.Lx) / width)
        phi = np.clip(phi, -1.0 + _STRIPE_CLIP, 1.0 - _STRIPE_CLIP)
        state = State(u0, ScalarField(grid, phi),
                      ScalarField.constant(grid, mean_psi))
    elif preset == "random_spinodal":
        rng = np.random.default_rng(seed)
        phi = mean_phi + _band_limited_noise(grid, rng, noise_amplitude)
        psi = mean_psi + _band_limited_noise(grid, rng, noise_amplitude)
        state = State(u0, ScalarField(grid, phi), ScalarField(grid, psi))
    elif preset == "snapshot":
        phi_field, time, _ = read_snapshot(phi_path)
        psi_field, _, _ = read_snapshot(psi_path)
        if phi_field.grid != grid or psi_field.grid != grid:
            raise SnapshotFormatError("snapshot grid does not match the configured grid")
        state = State(u0, phi_field, psi_field, time=time)
    else:
        raise UnknownPreset(f"unknown preset {preset!r}")
    state.validate()
    return state


def _initial_from_config(cfg: RunConfig, grid: Grid2D) -> State:
    return initial_condition(
        cfg.preset, grid, cfg.params, cfg.seed,
        mean_phi=cfg.mean_phi, mean_psi=cfg.mean_psi,
        amplitude=cfg.amplitude, width=cfg.width,
        noise_amplitude=cfg.noise_amplitude,
        phi_path=cfg.phi_path, psi_path=cfg.psi_path,
    )


# ---------------------------------------------------------------------------
# Ledger CSV
# ---------------------------------------------------------------------------

def _format_real(v: float) -> str:
    return f"{v:.17g}"


class LedgerWriter:
    def __init__(self, path: str):
        self._fh = open(path, "w", newline="", encoding="ascii")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(diag.LEDGER_FIELDS)
        self._fh.flush()

    def write(self, row: diag.LedgerRow) -> None:
        self._writer.writerow(
            _format_real(getattr(row, name)) for name in diag.LEDGER_FIELDS)
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_ledger(path: str) -> list[diag.LedgerRow]:
    rows = []
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != diag.LEDGER_FIELDS:
            raise ParseError(f"{path}: unexpected ledger header")
        for rec in reader:
            rows.append(diag.LedgerRow(*(float(v) for v in rec)))
    return rows


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run(cfg: RunConfig, perturb_hook=None) -> int:
    """Advance the coupled system to t_end, writing ledger rows and snapshots.

    Aborts with a solver-failure status on any invariant violation (slack
    below tolerance, bounds, mass targets); the offending row is still
    written as the final diagnostic record.  perturb_hook(step_index, state)
    is a test seam invoked after each step.
    """
    grid = Grid2D(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    state = _initial_from_config(cfg, grid)
    params = cfg.params
    tol = cfg.tolerances
    os.makedirs(cfg.output_dir, exist_ok=True)
    writer = LedgerWriter(os.path.join(cfg.output_dir, cfg.series))

    e0 = mdl.total_energy(state, params)
    slack_floor = -tol.energy_tol * (1.0 + abs(e0))
    psi_mean_0 = gridops.mean(state.psi)
    n_steps = int(round(cfg.t_end / cfg.h))
    potentials: ChemicalPotentials | None = None
    try:
        for k in range(n_steps):
            try:
                state, potentials, report = coupled_time_step(
                    state, cfg.h, params, tol, potentials)
            except (NonConvergence, StepTooLarge) as exc:
                raise type(exc)(f"step {k}: {exc}") from exc
            if perturb_hook is not None:
                perturb_hook(k, state)
                report.mass_achieved_phi = gridops.mean(state.phi)
                report.mass_achieved_psi = gridops.mean(state.psi)
            row = diag.build_ledger_row(state, potentials, report, params)
            writer.write(row)
            violations = []
            if report.inequality_slack < slack_floor:
                violations.append("energy inequality slack below tolerance")
            if not (-1.0 < report.min_phi and report.max_phi < 1.0):
                violations.append("phi bounds violated")
            if not (0.0 < report.min_psi and report.max_psi < 1.0):
                violations.append("psi bounds violated")
            if abs(report.mass_achieved_psi - psi_mean_0) > 1e-10:
                violations.append("psi mass drifted from its conserved value")
            if abs(report.mass_achieved_phi - report.mass_target_a) > 1e-10:
                violations.append("phi mass missed its prescribed target")
            if violations:
                raise BoundViolation(
                    f"step {state.step_index}: " + "; ".join(violations))
            if (k + 1) % cfg.output_every == 0 or k + 1 == n_steps:
                tag = f"{state.step_index:08d}"
                prefix = os.path.join(cfg.output_dir, cfg.snapshot_prefix)
                write_snapshot(f"{prefix}_phi_{tag}.snap", state.phi, state.time, "phi")
                write_snapshot(f"{prefix}_psi_{tag}.snap", state.psi, state.time, "psi")
    finally:
        writer.close()
    return 0


def steady(cfg: RunConfig) -> int:
    """Solve the stationary system from the configured initial condition."""
    grid = Grid2D(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    state = _initial_from_config(cfg, grid)
    sol = diag.stationary_solve(
        gridops.mean(state.phi), gridops.mean(state.psi),
        (state.phi, state.psi), cfg.params, tol=1e-10)
    os.makedirs(cfg.output_dir, exist_ok=True)
    prefix = os.path.join(cfg.output_dir, cfg.snapshot_prefix)
    write_snapshot(f"{prefix}_phi_steady.snap", sol.phi_inf, math.inf, "phi")
    write_snapshot(f"{prefix}_psi_steady.snap", sol.psi_inf, math.inf, "psi")
    d_phi, d_psi = diag.separation_margin(sol.phi_inf, sol.psi_inf)
    print(f"mu_phi_inf = {sol.mu_phi_inf:.12e}")
    print(f"mu_psi_inf = {sol.mu_psi_inf:.12e}")
    print(f"separation margins: phi {d_phi:.6e}, psi {d_psi:.6e}")
    return 0


def _check_operators(grid: Grid2D) -> tuple[bool, str]:
    X, Y = grid.cell_centers()
    f = np.cos(2 * np.pi * X / grid.Lx) * np.cos(np.pi * Y / grid.Ly)
    lam = (2 * np.pi / grid.Lx) ** 2 + (np.pi / grid.Ly) ** 2
    sf = ScalarField(grid, f)
    err = float(np.max(np.abs(gridops.neumann_laplacian(sf).data - lam * f)))
    inv = gridops.inverse_neumann_laplacian(ScalarField(grid, f * lam))
    err = max(err, float(np.max(np.abs(inv.data - f))))
    g = gridops.gradient(sf)
    err = max(err, float(np.max(np.abs(gridops.divergence(g).data + lam * f))))
    ok = err <= 1e-10 * (1.0 + lam)
    return ok, f"operator eigenmode residual {err:.3e}"


def _check_roots() -> tuple[bool, str]:
    from .darcy import forchheimer_scalar_root
    e1 = abs(forchheimer_scalar_root(1.0, 1.0, 3.0, 2.0) - 1.0)
    e2 = abs(forchheimer_scalar_root(1.0, 1.0, 4.0, 10.0) - 2.0)
    err = max(e1, e2)
    return err <= 1e-12, f"scalar drag root error {err:.3e}"


def _check_secants() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    a = rng.uniform(-0.99, 0.99, 2000)
    b = rng.uniform(-0.99, 0.99, 2000)
    c = rng.uniform(0.01, 0.99, 2000)
    theta_c, w = 1.3, 0.7
    lhs = np.asarray(mdl.secant_g_phi(a, b, c, theta_c, w)) * (a - b)
    rhs = (np.asarray(mdl.coupling_g(a, c, theta_c, w)[0])
           - np.asarray(mdl.coupling_g(b, c, theta_c, w)[0]))
    err = float(np.max(np.abs(lhs - rhs)))
    return err <= 1e-13, f"secant identity residual {err:.3e}"


def _check_one_step(grid: Grid2D, params: ModelParams,
                    tol: SolverTolerances) -> tuple[bool, str]:
    X, _ = grid.cell_centers()
    phi = 0.5 * np.tanh((X - 0.5 * grid.Lx) / (0.1 * grid.Lx))
    state = State(VectorField.zero(grid), ScalarField(grid, phi),
                  ScalarField.constant(grid, 0.5))
    e0 = mdl.total_energy(state, params)
    _, _, report = coupled_time_step(state, 1e-3, params, tol)
    ok = (report.inequality_slack >= -tol.energy_tol * (1.0 + abs(e0))
          and abs(report.mass_achieved_psi - 0.5) <= 1e-12
          and abs(report.mass_achieved_phi - report.mass_target_a) <= 1e-12)
    return ok, (f"one-step slack {report.inequality_slack:.3e}, "
                f"psi mean error {abs(report.mass_achieved_psi - 0.5):.3e}")


def check(cfg: RunConfig) -> int:
    """Run the invariant suites at the configured grid size."""
    grid = Grid2D(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    checks = [
        ("spectral operators", _check_operators(grid)),
        ("drag scalar roots", _check_roots()),
        ("coupling secants", _check_secants()),
        ("one-step energy/mass", _check_one_step(grid, cfg.params, cfg.tolerances)),
    ]
    all_ok = True
    for name, (ok, detail) in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:24s} {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1
