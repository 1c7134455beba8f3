"""Self-tests of the benchmark harness (not of the solver).

Run from the repository root:  python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks      # noqa: E402
import run         # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402
from chdf.driver import read_snapshot   # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.mark.parametrize("name", ["coarsen-64", "steady-128"])
def test_generator_is_a_function_of_the_seed(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    a = workloads.initial_fields(wl, 7, 1)
    b = workloads.initial_fields(wl, 7, 1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    for other in (workloads.initial_fields(wl, 8, 1), workloads.initial_fields(wl, 7, 2)):
        assert not np.array_equal(a[0], other[0])
    phi, psi = a
    assert np.max(np.abs(phi)) < 1.0 and 0.0 < psi.min() and psi.max() < 1.0
    for d in ("one", "two"):
        workloads.write_inputs(wl, 7, 1, str(tmp_path / d))
    for f in ("phi0.snap", "psi0.snap"):
        assert (tmp_path / "one" / f).read_bytes() == (tmp_path / "two" / f).read_bytes()
    field, _, _ = read_snapshot(str(tmp_path / "one" / "phi0.snap"))
    assert np.array_equal(field.data, phi)


def _fake_run(outdir, steps=2):
    """A consistent two-step `chdf run` output directory."""
    rng = np.random.default_rng(3)
    phi = 0.5 * rng.uniform(-1, 1, (8, 8))
    psi = 0.5 + 0.1 * rng.uniform(-1, 1, (8, 8))
    for name, f in (("phi", phi), ("psi", psi)):
        workloads.write_chdf1(str(outdir / f"state_{name}_{steps:08d}.snap"), f, 1.0, name)
    row = {"time": 0.002, "energy_total": -1.5, "energy_free": -1.5,
           "mean_phi": float(np.sum(phi)) / phi.size, "mean_psi": float(np.sum(psi)) / psi.size,
           "min_phi": float(phi.min()), "max_phi": float(phi.max()),
           "min_psi": float(psi.min()), "max_psi": float(psi.max())}
    rows = [dict(row, time=0.001, energy_total=-1.4), row]
    with open(outdir / "ledger.csv", "w", encoding="ascii") as fh:
        fh.write(",".join(row) + "\n")
        for r in rows:
            fh.write(",".join(f"{r[k]:.17g}" for k in row) + "\n")
    return row


def test_run_check_accepts_consistent_and_rejects_perturbed_ledger(tmp_path):
    row = _fake_run(tmp_path)
    problems, final = checks.check_run_outputs(str(tmp_path), 2, None, read_snapshot)
    assert problems == [] and final == row
    assert checks.compare_ledger_row(final, row) == []
    for name, delta in (("energy_total", 1e-6), ("max_phi", 1e-6), ("mean_psi", 1e-9)):
        assert checks.compare_ledger_row(dict(final, **{name: final[name] + delta}), row)
    # An energy increase along the ledger fails even without a reference.
    text = (tmp_path / "ledger.csv").read_text().replace("-1.3999999999999999", "-1.6")
    (tmp_path / "ledger.csv").write_text(text)
    problems, _ = checks.check_run_outputs(str(tmp_path), 2, None, read_snapshot)
    assert any("energy increased" in p for p in problems)


def test_snapshot_checksum_and_ledger_agreement_are_checked(tmp_path):
    _fake_run(tmp_path)
    snap = tmp_path / "state_psi_00000002.snap"
    data = bytearray(snap.read_bytes())
    data[-1] ^= 1
    snap.write_bytes(bytes(data))
    problems, _ = checks.check_run_outputs(str(tmp_path), 2, None, read_snapshot)
    assert any("checksum" in p for p in problems)


def test_steady_check_rejects_wrong_values(tmp_path):
    # Uniform fields are stationary: F'(0) = 0 and the coupling is constant.
    phi = np.zeros((16, 16))
    psi = np.full((16, 16), 0.5)
    model = workloads.SEEDED_MODEL
    res, mu_phi, mu_psi = checks.stationary_residual(phi, psi, 16.0, model)
    assert res < 1e-14 and mu_phi == 0.0 and mu_psi == pytest.approx(-model["w"])
    for name, f in (("phi", phi), ("psi", psi)):
        workloads.write_chdf1(str(tmp_path / f"state_{name}_steady.snap"), f, 16.0, name)
    stdout = ("mu_phi_inf = 0.000000000000e+00\nmu_psi_inf = -1.000000000000e+00\n"
              "separation margins: phi 1.000000e+00, psi 5.000000e-01\n")
    problems, values = checks.check_steady_outputs(
        str(tmp_path), stdout, (0.0, 0.5), 16.0, model, read_snapshot)
    assert problems == []
    assert checks.compare_steady(values, values) == []
    assert checks.compare_steady(values, dict(values, mu_psi_inf=-0.99))
    wrong = stdout.replace("-1.000000000000e+00", "-9.000000000000e-01")
    problems, _ = checks.check_steady_outputs(
        str(tmp_path), wrong, (0.0, 0.5), 16.0, model, read_snapshot)
    assert problems
    bumped = phi.copy()
    bumped[3, 4] = 0.1
    assert checks.stationary_residual(bumped, psi, 16.0, model)[0] > 1e-3


def test_self_time_subtracts_children_and_krylov_takes_parent_layer():
    dump = {"keys": ["step.ch_solve", "krylov", "grid.transform"],
            "spans": [[0, 0.0, 10.0, -1, None], [1, 2.0, 6.0, 0, None],
                      [2, 3.0, 4.0, 1, 4096]]}
    tot = tracing.span_totals(dump)
    assert tot["step.ch_solve.self"] == 6.0
    assert tot["step.krylov.self"] == 3.0 and tot["step.krylov.calls"] == 1
    assert tot["grid.transform.note"] == 4096


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == tracing.LAYER_METRICS
    assert set(tracing.layer_metrics({}, 1.0, 0.0)) == set(layer)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    for name in list(e2e) + list(layer) + list(workloads.WORKLOADS):
        assert NAME.match(name), name
