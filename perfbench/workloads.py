"""Workload definitions and the seeded input generator.

Each workload is one `chdf` subcommand on one config.  The generator writes
the config and, where the workload needs them, CHDF1 snapshots of the
initial fields; the program receives nothing else.  The generator has its
own snapshot writer so that a change to the program cannot change the
inputs it is measured on.

Seeding.  A seed names a set of `inputs` initial states; instance k of a
run uses state k mod `inputs`, so each run pools several inputs.  Each
state adds a band-limited perturbation, drawn from (seed, k), to a fixed
base pattern.  Fully random initial states make the work per run depend on
the seed far more than any optimisation moves it: on a 2-core box, 12
coarsening steps took 10.8-14.9 s over seeds 1-8, and the stationary solve
took 4.4-15.9 s (12-31 Newton iterations) over seeds 1-6, because the
damped Newton path changes from one random state to the next.  A 10 %
(coarsen) or 2 % (steady) perturbation keeps the inputs distinct while the
work per instance varies by about 10 %, which pooling several inputs per
run averages out; at 5 % the steady solve took 7 or 8 Newton iterations
depending on the seed (5 of 12 seeds took 8), at 2 % 11 of 12 took 7.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DOMAIN = 16.0          # coarsen/steady side length: many interface widths
NOISE_MODES = 8        # highest cosine index of the band-limited noise
BASE_SEED = 0          # fixed base pattern of coarsen-64
COARSEN_PERTURBATION = 0.1
STEADY_PERTURBATION = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # chdf subcommand: "run" or "steady"
    nx: int
    steps: int          # time steps per instance; 0 for steady
    inputs: int         # distinct initial states per seed


WORKLOADS = {
    "stripe-64": Workload("stripe-64", "run", 64, 40, 1),
    "coarsen-64": Workload("coarsen-64", "run", 64, 3, 4),
    "steady-128": Workload("steady-128", "steady", 128, 0, 8),
}

_STRIPE_MODEL = {"alpha": 1.0, "r": 3.0, "w": 1.0, "theta_c": 2.0, "sigma2": 0.1}
SEEDED_MODEL = {"alpha": 0.0, "r": 3.0, "w": 1.0, "theta_c": 3.0, "sigma2": 0.1}


def band_noise(nx: int, length: float, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean sum of cos modes k, l <= NOISE_MODES, scaled to max |n| = 1."""
    x = (np.arange(nx) + 0.5) * length / nx
    k = np.arange(NOISE_MODES + 1)
    basis = np.cos(np.pi * k[:, None] * x[None, :] / length)   # (mode, cell)
    coeff = rng.standard_normal((NOISE_MODES + 1, NOISE_MODES + 1))
    coeff[0, 0] = 0.0
    n = basis.T @ coeff @ basis                                  # (y, x)
    n -= n.mean()
    return n / np.max(np.abs(n))


def _normalised(n: np.ndarray) -> np.ndarray:
    n = n - n.mean()
    return n / np.max(np.abs(n))


def initial_fields(workload: Workload, seed: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Initial state k of a seed: (phi, psi) on the workload's grid."""
    nx = workload.nx
    rng = np.random.default_rng([seed % (1 << 64), k])
    if workload.name == "coarsen-64":
        base = np.random.default_rng(BASE_SEED)
        b1, b2 = band_noise(nx, DOMAIN, base), band_noise(nx, DOMAIN, base)
        eps = COARSEN_PERTURBATION
    else:
        x = (np.arange(nx) + 0.5) * DOMAIN / nx
        b1 = np.tile(np.cos(4.0 * np.pi * x / DOMAIN), (nx, 1))
        b2 = b1
        eps = STEADY_PERTURBATION
    n1 = _normalised(b1 + eps * band_noise(nx, DOMAIN, rng))
    n2 = _normalised(b2 + eps * band_noise(nx, DOMAIN, rng))
    phi = 0.9 * np.tanh(3.0 * n1)
    phi -= phi.mean()
    psi = 0.5 + 0.2 * n2
    return phi, psi


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def write_chdf1(path: str, data: np.ndarray, length: float, name: str) -> None:
    """Write a CHDF1 snapshot: one text header line, then float64 payload."""
    ny, nx = data.shape
    payload = np.ascontiguousarray(data, dtype="<f8").tobytes()
    header = (f"CHDF1 {nx} {ny} {length:.17g} {length:.17g} 0 {name} "
              f"{fnv1a64(payload):016x}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def _config_text(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def write_inputs(workload: Workload, seed: int, k: int, directory: str) -> str:
    """Write the config (and snapshots) of state k; return the config path."""
    os.makedirs(directory, exist_ok=True)
    if workload.name == "stripe-64":
        # The stripe preset has no random content: every seed runs the
        # acceptance scenario itself.
        sections = {
            "grid": {"nx": 64, "ny": 64, "Lx": 1.0, "Ly": 1.0},
            "time": {"h": 1e-3, "t_end": workload.steps * 1e-3,
                     "output_every": workload.steps},
            "model": _STRIPE_MODEL,
            "initial": {"preset": "stripe", "amplitude": 0.9, "width": 0.08,
                        "mean_psi": 0.5},
        }
    else:
        phi, psi = initial_fields(workload, seed, k)
        phi_path = os.path.join(directory, "phi0.snap")
        psi_path = os.path.join(directory, "psi0.snap")
        write_chdf1(phi_path, phi, DOMAIN, "phi")
        write_chdf1(psi_path, psi, DOMAIN, "psi")
        sections = {
            "grid": {"nx": workload.nx, "ny": workload.nx, "Lx": DOMAIN, "Ly": DOMAIN},
            "time": {"h": 0.1, "t_end": max(workload.steps, 1) * 0.1,
                     "output_every": max(workload.steps, 1)},
            "model": SEEDED_MODEL,
            "initial": {"preset": "snapshot", "phi_path": phi_path,
                        "psi_path": psi_path},
        }
    path = os.path.join(directory, "workload.cfg")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_config_text(sections))
    return path
