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
from .errors import (BoundViolation, ChdfError, ParseError,
                     SnapshotFormatError, UnknownPreset, ValidationError)
from .grid import Grid2D, ScalarField, VectorField
from .model import ModelParams
from .step import ChemicalPotentials, State, coupled_time_step

_SNAPSHOT_MAGIC = "CHDF1"
_STRIPE_CLIP = 1e-3
# Relative floor of a step's energy slack: `run` and `check` fail a step
# whose slack falls below -ENERGY_TOL (1 + |energy before the step|).
ENERGY_TOL = 1e-9
# Largest miss of a step's phase or surfactant mean from its target that
# `run` and `check` accept.
MEAN_TOL = 1e-12


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


# The keys of each config section.  [model] sets the fields of ModelParams,
# the other sections those of RunConfig, where [output] directory is
# output_dir.  A key's type is the type of its field's default.
_SECTIONS = {
    "grid": ("nx", "ny", "Lx", "Ly"),
    "time": ("h", "t_end", "output_every"),
    "model": tuple(f.name for f in fields(ModelParams)),
    "initial": ("preset", "mean_phi", "mean_psi", "amplitude", "width",
                "noise_amplitude", "phi_path", "psi_path", "seed"),
    "output": ("directory", "series", "snapshot_prefix"),
}


def _convert(section: str, key: str, raw: str, typ):
    try:
        val = typ(raw)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key} = {raw!r} is not a valid {typ.__name__}") from exc
    if typ is float and not math.isfinite(val):
        raise ParseError(f"[{section}] {key} = {raw!r} is not a finite number")
    return val


def _step_count(cfg: RunConfig) -> int:
    """Number of steps of size h that `run` takes to reach t_end."""
    return round(cfg.t_end / cfg.h)


def load_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ParseError(f"malformed config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path} is not UTF-8 text: {exc}") from exc

    default = RunConfig()
    owners = {"model": default.params}
    values: dict[str, dict] = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SECTIONS[section]:
                raise ValidationError(f"unknown key {key} in section [{section}]")
            name = "output_dir" if key == "directory" else key
            typ = type(getattr(owners.get(section, default), name))
            values[section][name] = _convert(section, key, raw, typ)

    flat = {name: val for section, given in values.items()
            if section not in owners for name, val in given.items()}
    cfg = RunConfig(params=ModelParams(**values["model"]), **flat)
    # Grid2D validates nx/ny/Lx/Ly on construction; surface that now.
    try:
        Grid2D(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if cfg.h <= 0:
        raise ValidationError("h must be > 0")
    if cfg.t_end <= 0:
        raise ValidationError("t_end must be > 0")
    if not math.isfinite(cfg.t_end / cfg.h):
        raise ValidationError(f"t_end = {cfg.t_end:g} and h = {cfg.h:g}: t_end/h overflows")
    if _step_count(cfg) < 1:
        raise ValidationError(f"t_end = {cfg.t_end:g} rounds to 0 steps of "
                              f"h = {cfg.h:g}: round(t_end/h) must be >= 1")
    if cfg.output_every < 1:
        raise ValidationError("output_every must be >= 1")
    if cfg.preset not in PRESETS:
        raise ValidationError(f"unknown preset {cfg.preset!r}")
    means = (cfg.mean_phi, cfg.mean_psi)
    for name, m, (lo, hi) in zip(("mean_phi", "mean_psi"), means, mdl.BOXES):
        if not lo < m < hi:
            raise ValidationError(f"{name} must lie in the open interval ({lo:g}, {hi:g})")
    if not 0.0 <= cfg.noise_amplitude <= 0.05:
        raise ValidationError("noise_amplitude must lie in [0, 0.05]")
    if cfg.width <= 0:
        raise ValidationError("width must be > 0")
    if cfg.seed < 0:
        raise ValidationError("seed must be >= 0")
    # The noise reaches +-noise_amplitude about each mean at some cell.
    noise = cfg.noise_amplitude
    if cfg.preset == "random_spinodal" and not all(
            m - noise > lo and m + noise < hi for m, (lo, hi) in zip(means, mdl.BOXES)):
        raise ValidationError(
            f"random_spinodal: mean_phi = {cfg.mean_phi:g} and mean_psi = "
            f"{cfg.mean_psi:g} must lie noise_amplitude = {noise:g} inside "
            + " and ".join(f"({lo:g}, {hi:g})" for lo, hi in mdl.BOXES))
    return cfg


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Bytes per array pass, which bounds the temporaries to about 1 MiB,
# and P^1 .. P^_FNV_CHUNK mod 2^64.
_FNV_CHUNK = 16384
_FNV_POWERS = np.multiply.accumulate(np.full(_FNV_CHUNK, _FNV_PRIME, dtype=np.uint64))


def _fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a, h <- (h xor b) P mod 2^64 per byte b, in array passes.

    The xor touches only the low byte l of h, and l' = (l xor b) P mod 256
    does not depend on the higher bits.  P is odd, so bit j of l' is bit j
    of l xor b xor bit j of ((l xor b) mod 2^j) P: each bit of l over a
    chunk of bytes is one xor-prefix, given the bits below it (uint8
    products keep bits 0-7 exact).  With every l_i known, xoring b_i adds
    (l_i xor b_i) - l_i to h, so over n bytes
    h_n = P^n h_0 + sum_i P^(n-i) ((l_i xor b_i) - l_i) mod 2^64.
    """
    h = _FNV_OFFSET
    stream = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, stream.size, _FNV_CHUNK):
        b = stream[start:start + _FNV_CHUNK]
        n = b.size
        low = np.zeros(n, dtype=np.uint8)       # l_i, filled bit by bit
        for j in range(8):
            below = (low ^ b) & ((1 << j) - 1)
            flips = ((b >> j) ^ (below * (_FNV_PRIME & 0xFF) >> j)) & 1
            bit = np.empty(n, dtype=np.uint8)
            bit[0] = h >> j & 1
            np.bitwise_xor.accumulate(flips[:-1], out=bit[1:])
            bit[1:] ^= bit[0]
            low |= bit << j
        powers = _FNV_POWERS[n - 1::-1]         # P^n .. P^1, wrapping uint64
        h = (int(powers[0]) * h + int(np.sum(powers * (low ^ b)))
             - int(np.sum(powers * low))) & 0xFFFFFFFFFFFFFFFF
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
    if not time > -math.inf:
        raise SnapshotFormatError(f"{path}: header time {time} is not finite or +inf")
    try:
        grid = Grid2D(nx, ny, Lx, Ly)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: header names an invalid grid: {exc}") from exc
    if len(payload) != nx * ny * 8:
        raise SnapshotFormatError(f"{path}: payload length mismatch")
    if _fnv1a64(payload) != checksum:
        raise SnapshotFormatError(f"{path}: checksum mismatch")
    data = np.frombuffer(payload, dtype="<f8").reshape(ny, nx).astype(float)
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


PRESETS = ("homogeneous", "stripe", "random_spinodal", "snapshot")


def initial_condition(cfg: RunConfig, grid: Grid2D) -> State:
    """Construct the starting state of the configured preset on grid."""
    if cfg.preset not in PRESETS:
        raise UnknownPreset(f"unknown preset {cfg.preset!r}")
    phi, psi, time = cfg.mean_phi, cfg.mean_psi, 0.0
    if cfg.preset == "stripe":
        X, _ = grid.cell_centers()
        phi = phi + cfg.amplitude * np.tanh((X - 0.5 * grid.Lx) / cfg.width)
        phi = np.clip(phi, -1.0 + _STRIPE_CLIP, 1.0 - _STRIPE_CLIP)
    elif cfg.preset == "random_spinodal":
        rng = np.random.default_rng(cfg.seed)
        phi = phi + _band_limited_noise(grid, rng, cfg.noise_amplitude)
        psi = psi + _band_limited_noise(grid, rng, cfg.noise_amplitude)
    elif cfg.preset == "snapshot":
        phi_field, time, phi_name = read_snapshot(cfg.phi_path)
        psi_field, _, psi_name = read_snapshot(cfg.psi_path)
        for path, f, name, role, (lo, hi) in (
                (cfg.phi_path, phi_field, phi_name, "phi", mdl.BOXES[0]),
                (cfg.psi_path, psi_field, psi_name, "psi", mdl.BOXES[1])):
            if name != role:
                raise SnapshotFormatError(
                    f"{path}: header names field {name!r}, but it is read as {role!r}")
            # Written so that a NaN fails it.
            if not (np.min(f.data) > lo and np.max(f.data) < hi):
                raise SnapshotFormatError(
                    f"{path}: field {role} leaves ({lo:g}, {hi:g})")
        if phi_field.grid != grid or psi_field.grid != grid:
            raise SnapshotFormatError("snapshot grid does not match the configured grid")
        phi, psi = phi_field.data, psi_field.data
        # `steady` writes its states at t = inf; a run from one starts at 0.
        time = 0.0 if time == math.inf else time
    shape = (grid.ny, grid.nx)
    state = State(VectorField.zero(grid), ScalarField(grid, np.full(shape, phi)),
                  ScalarField(grid, np.full(shape, psi)), time=time)
    state.validate()
    return state


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

def _step_violations(row: diag.LedgerRow, energy_before: float, phi_target: float,
                     psi_mean: float) -> list[str]:
    """The laws the step of ledger row `row` breaks, one message each: the
    energy inequality (slack >= -ENERGY_TOL (1 + |energy before the step|)),
    the open boxes `model.BOXES`, and the means phi_target and psi_mean, each
    to MEAN_TOL.  `run` and `check` judge every step by it."""
    violations = []
    if row.slack < -ENERGY_TOL * (1.0 + abs(energy_before)):
        violations.append("energy inequality slack below tolerance")
    for name, (lo, hi) in zip(("phi", "psi"), mdl.BOXES):
        if not (lo < getattr(row, f"min_{name}") and getattr(row, f"max_{name}") < hi):
            violations.append(f"{name} bounds violated")
    if abs(row.mean_psi - psi_mean) > MEAN_TOL:
        violations.append("psi mass drifted from its conserved value")
    if abs(row.mean_phi - phi_target) > MEAN_TOL:
        violations.append("phi mass missed its prescribed target")
    return violations


def run(cfg: RunConfig) -> int:
    """Advance the coupled system to t_end, writing ledger rows and snapshots.

    Aborts with a solver-failure status on any invariant violation (slack
    below tolerance, bounds, mass targets); the offending row is still
    written as the final diagnostic record.  An error raised by a step is
    raised again with the same type, its message prefixed, as a violation's
    is, by "step k", k the number of steps taken, which tags snapshots.
    """
    grid = Grid2D(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    state = initial_condition(cfg, grid)
    params = cfg.params
    os.makedirs(cfg.output_dir, exist_ok=True)
    writer = LedgerWriter(os.path.join(cfg.output_dir, cfg.series))

    energy = mdl.total_energy(state, params)
    psi_mean_0 = gridops.mean(state.psi)
    # Time still to go, in units of h.  A step halved k times advances
    # 2**-k of its request, and the next steps make that up, so `left` stays
    # an exact dyadic fraction that reaches 0 with no sliver step.
    left = float(_step_count(cfg))
    potentials: ChemicalPotentials | None = None
    k = 0
    try:
        while left > 0.0:
            frac = min(1.0, left)
            prev = state
            try:
                state, potentials, report = coupled_time_step(
                    prev, cfg.h * frac, params, potentials)
            except ChdfError as exc:
                raise type(exc)(f"step {k}: {exc}") from exc
            left -= frac * 0.5 ** report.h_halvings
            row = diag.build_ledger_row(prev, state, potentials, report.h_used,
                                        params, energy)
            writer.write(row)
            violations = _step_violations(row, energy, report.mass_target_a, psi_mean_0)
            energy = row.energy_total
            if violations:
                raise BoundViolation(f"step {k}: " + "; ".join(violations))
            k += 1
            if k % cfg.output_every == 0 or left == 0.0:
                tag = f"{k:08d}"
                prefix = os.path.join(cfg.output_dir, cfg.snapshot_prefix)
                write_snapshot(f"{prefix}_phi_{tag}.snap", state.phi, state.time, "phi")
                write_snapshot(f"{prefix}_psi_{tag}.snap", state.psi, state.time, "psi")
    finally:
        writer.close()
    return 0


def steady(cfg: RunConfig) -> int:
    """Solve the stationary system from the configured initial condition."""
    grid = Grid2D(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    state = initial_condition(cfg, grid)
    sol = diag.stationary_solve(
        gridops.mean(state.phi), gridops.mean(state.psi),
        (state.phi, state.psi), cfg.params)
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
    err = float(np.max(np.abs(gridops.neg_lap(grid, f) - lam * f)))
    err = max(err, float(np.max(np.abs(gridops.inv_neg_lap(grid, f * lam) - f))))
    g = gridops.gradient(ScalarField(grid, f))
    err = max(err, float(np.max(np.abs(gridops.divergence(g).data + lam * f))))
    ok = err <= 1e-10 * (1.0 + lam)
    return ok, f"operator eigenmode residual {err:.3e}"


def _check_secants() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    a = rng.uniform(-0.99, 0.99, 2000)
    b = rng.uniform(-0.99, 0.99, 2000)
    c = rng.uniform(0.01, 0.99, 2000)
    theta_c, w = 1.3, 0.7
    lhs = mdl.secant_g_phi(a, b, c, theta_c, w) * (a - b)
    rhs = mdl.coupling_g(a, c, theta_c, w)[0] - mdl.coupling_g(b, c, theta_c, w)[0]
    err = float(np.max(np.abs(lhs - rhs)))
    return err <= 1e-13, f"secant identity residual {err:.3e}"


def _check_one_step(grid: Grid2D, params: ModelParams, h: float) -> tuple[bool, str]:
    X, _ = grid.cell_centers()
    phi = 0.5 * np.tanh((X - 0.5 * grid.Lx) / (0.1 * grid.Lx))
    state = State(VectorField.zero(grid), ScalarField(grid, phi),
                  ScalarField.constant(grid, 0.5))
    e0 = mdl.total_energy(state, params)
    nxt, potentials, report = coupled_time_step(state, h, params)
    row = diag.build_ledger_row(state, nxt, potentials, report.h_used, params, e0)
    violations = _step_violations(row, e0, report.mass_target_a, 0.5)
    detail = f"one-step slack {row.slack:.3e}, psi mean error {abs(row.mean_psi - 0.5):.3e}"
    return not violations, "; ".join([detail, *violations])


def check(cfg: RunConfig) -> int:
    """Run the invariant suites at the configured grid size, printing each
    suite's line as it returns; a suite that raises ends the command."""
    grid = Grid2D(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    all_ok = True
    for name, suite in (
        ("spectral operators", lambda: _check_operators(grid)),
        ("coupling secants", _check_secants),
        ("one-step energy/mass", lambda: _check_one_step(grid, cfg.params, cfg.h)),
    ):
        ok, detail = suite()
        print(f"{'PASS' if ok else 'FAIL'}  {name:24s} {detail}", flush=True)
        all_ok = all_ok and ok
    return 0 if all_ok else 1
