"""Output checks for one finished `chdf run` or `chdf steady`.

Each check returns a list of problems; an empty list means the run passed.
Besides the exit code, a run is checked three ways:

* invariants the paper guarantees, re-derived from the outputs: strict
  bounds, exact means, a non-increasing energy, and (steady) the
  stationary equations themselves, evaluated with this module's own
  cosine-transform operators rather than the program's;
* snapshots re-read through `chdf.driver.read_snapshot`, which verifies
  their FNV-1a checksums, and compared with the ledger or printed values;
* the final ledger row, or the steady values, against the reference stored
  with the benchmark for that seed (references.json), within tolerances set
  by the solver tolerances.
"""

from __future__ import annotations

import csv
import math
import os
import re

import numpy as np
from scipy.fft import dctn, idctn

# Absolute tolerances against the stored reference.  Energies also scale
# with 1 + |E|, as the slack floor in chdf.driver.run does.
REF_TOL = {
    "energy": 1e-9,       # SolverTolerances.energy_tol
    "mean": 1e-10,        # chdf.driver.run's mass check
    "extreme": 1e-8,      # field values after Newton/Picard at 1e-11
    "mu": 1e-8,           # stationary potentials (solve tolerance 1e-10)
    "margin": 1e-6,       # printed with 7 significant digits
}
LEDGER_CHECKED = ("time", "energy_total", "energy_free", "mean_phi",
                  "mean_psi", "min_phi", "max_phi", "min_psi", "max_psi")
STATIONARY_RESIDUAL_TOL = 1e-9   # the solve stops at 1e-10 in its own norm


def read_ledger_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def compare_ledger_row(row: dict, ref: dict) -> list[str]:
    out = []
    for name in LEDGER_CHECKED:
        if name.startswith("energy"):
            tol = REF_TOL["energy"] * (1.0 + abs(ref[name]))
        elif name.startswith("mean"):
            tol = REF_TOL["mean"]
        elif name == "time":
            tol = 1e-12
        else:
            tol = REF_TOL["extreme"]
        if not _close(row[name], ref[name], tol):
            out.append(f"final {name} {row[name]!r} differs from reference "
                       f"{ref[name]!r} by more than {tol:.1e}")
    return out


def check_run_outputs(outdir: str, steps: int, mean0: tuple[float, float] | None,
                      read_snapshot) -> tuple[list[str], dict | None]:
    """Check a `chdf run` output directory; return (problems, final row)."""
    path = os.path.join(outdir, "ledger.csv")
    if not os.path.isfile(path):
        return [f"missing ledger {path}"], None
    rows = read_ledger_csv(path)
    problems = []
    if len(rows) != steps:
        problems.append(f"ledger has {len(rows)} rows, expected {steps}")
    if not rows:
        return problems, None
    for i, row in enumerate(rows):
        if not all(math.isfinite(v) for v in row.values()):
            problems.append(f"row {i} has a non-finite value")
        if not (-1.0 < row["min_phi"] and row["max_phi"] < 1.0
                and 0.0 < row["min_psi"] and row["max_psi"] < 1.0):
            problems.append(f"row {i} leaves the physical bounds")
        if i > 0:
            prev = rows[i - 1]["energy_total"]
            if row["energy_total"] > prev + REF_TOL["energy"] * (1.0 + abs(prev)):
                problems.append(f"row {i}: energy increased")
    first = mean0 if mean0 is not None else (rows[0]["mean_phi"], rows[0]["mean_psi"])
    last = rows[-1]
    for name, m in zip(("mean_phi", "mean_psi"), first):
        if not _close(last[name], m, REF_TOL["mean"]):
            problems.append(f"final {name} {last[name]!r} moved from {m!r}")
    for name in ("phi", "psi"):
        snap = os.path.join(outdir, f"state_{name}_{steps:08d}.snap")
        try:
            field, _, _ = read_snapshot(snap)
        except Exception as exc:   # noqa: BLE001 - any read failure fails the run
            problems.append(f"snapshot {snap}: {exc}")
            continue
        d = field.data
        if (float(d.min()) != last[f"min_{name}"] or float(d.max()) != last[f"max_{name}"]
                or not _close(float(np.sum(d)) / d.size, last[f"mean_{name}"], 1e-14)):
            problems.append(f"snapshot {name} disagrees with the final ledger row")
    return problems, last


_STEADY_LINES = {
    "mu_phi_inf": re.compile(r"^mu_phi_inf = (\S+)$", re.M),
    "mu_psi_inf": re.compile(r"^mu_psi_inf = (\S+)$", re.M),
    "margins": re.compile(r"^separation margins: phi (\S+), psi (\S+)$", re.M),
}


def parse_steady_stdout(text: str) -> dict | None:
    found = {k: r.search(text) for k, r in _STEADY_LINES.items()}
    if not all(found.values()):
        return None
    return {
        "mu_phi_inf": float(found["mu_phi_inf"].group(1)),
        "mu_psi_inf": float(found["mu_psi_inf"].group(1)),
        "margin_phi": float(found["margins"].group(1)),
        "margin_psi": float(found["margins"].group(2)),
    }


def stationary_residual(phi: np.ndarray, psi: np.ndarray, length: float,
                        model: dict) -> tuple[float, float, float]:
    """Max-norm residual of the stationary equations and the two potentials.

    -Lap phi + P0(F'(phi) + G_phi) + sigma2 (-Lap)^-1 P0 phi = 0 and
    -beta Lap psi + P0(F'(psi) + G_psi) = 0 on the cosine grid, with
    F' = theta atanh(phi), theta (log psi - log(1 - psi)) and
    G = -(theta_c/2) phi^2 - w psi (1 - phi^2) (the clamp is the identity
    on the open box).  Returns (residual, mu_phi, mu_psi).
    """
    ny, nx = phi.shape
    k = np.pi * np.arange(nx) / length
    lam = k[None, :] ** 2 + (np.pi * np.arange(ny) / length)[:, None] ** 2

    def neg_lap(f):
        return idctn(dctn(f, type=2, norm="ortho") * lam, type=2, norm="ortho")

    def inv_neg_lap(f):
        c = dctn(f, type=2, norm="ortho")
        c[0, 0] = 0.0
        c[1:, :] /= lam[1:, :]
        c[0, 1:] /= lam[0, 1:]
        return idctn(c, type=2, norm="ortho")

    theta_c, w, sigma2 = model["theta_c"], model["w"], model["sigma2"]
    theta_phi = model.get("theta_phi", 1.0)
    theta_psi = model.get("theta_psi", 1.0)
    beta = model.get("beta", 1.0)
    p_phi = theta_phi * np.arctanh(phi) - theta_c * phi + 2.0 * w * psi * phi
    p_psi = theta_psi * (np.log(psi) - np.log1p(-psi)) - w * (1.0 - phi * phi)
    r_phi = neg_lap(phi) + (p_phi - p_phi.mean()) + sigma2 * inv_neg_lap(phi - phi.mean())
    r_psi = beta * neg_lap(psi) + (p_psi - p_psi.mean())
    res = max(float(np.max(np.abs(r_phi))), float(np.max(np.abs(r_psi))))
    return res, float(p_phi.mean()), float(p_psi.mean())


def check_steady_outputs(outdir: str, stdout: str, mean0: tuple[float, float],
                         length: float, model: dict,
                         read_snapshot) -> tuple[list[str], dict | None]:
    """Check a `chdf steady` run; return (problems, printed values)."""
    values = parse_steady_stdout(stdout)
    if values is None:
        return ["steady output lines missing"], None
    problems = []
    fields = {}
    for name in ("phi", "psi"):
        snap = os.path.join(outdir, f"state_{name}_steady.snap")
        try:
            fields[name] = read_snapshot(snap)[0].data
        except Exception as exc:   # noqa: BLE001 - any read failure fails the run
            problems.append(f"snapshot {snap}: {exc}")
    if problems:
        return problems, values
    phi, psi = fields["phi"], fields["psi"]
    if not (np.max(np.abs(phi)) < 1.0 and 0.0 < psi.min() and psi.max() < 1.0):
        return ["steady fields leave the physical bounds"], values
    for name, f, m in (("phi", phi, mean0[0]), ("psi", psi, mean0[1])):
        if not _close(float(f.mean()), m, REF_TOL["mean"]):
            problems.append(f"steady {name} mean {f.mean()!r} moved from {m!r}")
    margins = (1.0 - float(np.max(np.abs(phi))), 0.5 - float(np.max(np.abs(psi - 0.5))))
    for name, got, want in zip(("phi", "psi"), margins,
                               (values["margin_phi"], values["margin_psi"])):
        if not _close(got, want, REF_TOL["margin"]):
            problems.append(f"printed {name} margin {want!r} != snapshot {got!r}")
    res, mu_phi, mu_psi = stationary_residual(phi, psi, length, model)
    if res > STATIONARY_RESIDUAL_TOL:
        problems.append(f"stationary residual {res:.3e} > {STATIONARY_RESIDUAL_TOL:.0e}")
    for name, got in (("mu_phi_inf", mu_phi), ("mu_psi_inf", mu_psi)):
        if not _close(got, values[name], REF_TOL["mu"]):
            problems.append(f"printed {name} {values[name]!r} != recomputed {got!r}")
    return problems, values


def compare_steady(values: dict, ref: dict) -> list[str]:
    out = []
    for name in ("mu_phi_inf", "mu_psi_inf", "margin_phi", "margin_psi"):
        tol = REF_TOL["mu"] if name.startswith("mu") else REF_TOL["margin"]
        if not _close(values[name], ref[name], tol):
            out.append(f"{name} {values[name]!r} differs from reference {ref[name]!r}")
    return out
