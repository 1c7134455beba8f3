"""Configuration, presets, snapshot/ledger formats, and the CLI."""

import os

import numpy as np
import pytest

from chdf import cli, driver
from chdf.errors import (BoundViolation, ParseError, SnapshotFormatError,
                         StepTooLarge, UnknownPreset, ValidationError)
from chdf.grid import Grid2D, ScalarField
from chdf.model import ModelParams


@pytest.fixture
def grid():
    return Grid2D(16, 16, 1.0, 1.0)


def _write(path, text):
    path.write_text(text)
    return str(path)


MINIMAL = """
[grid]
nx = 16
ny = 16

[time]
h = 1e-3
t_end = 0.01

[initial]
preset = homogeneous
mean_phi = 0.2
"""


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_minimal_config_gets_defaults(tmp_path):
    cfg = driver.load_config(_write(tmp_path / "a.cfg", MINIMAL))
    assert cfg.nx == 16 and cfg.Lx == 1.0
    assert cfg.mean_phi == 0.2 and cfg.mean_psi == 0.5
    assert cfg.params.r == 3.0
    assert cfg.tolerances.newton_tol == 1e-11
    assert cfg.output_dir == "out"


def test_unknown_key_rejected(tmp_path):
    bad = MINIMAL + "\n[model]\nwibble = 3\n"
    with pytest.raises(ValidationError, match="wibble"):
        driver.load_config(_write(tmp_path / "b.cfg", bad))


def test_unknown_section_rejected(tmp_path):
    bad = MINIMAL + "\n[mystery]\nx = 1\n"
    with pytest.raises(ValidationError, match="mystery"):
        driver.load_config(_write(tmp_path / "c.cfg", bad))


def test_c_out_of_interval_named(tmp_path):
    bad = MINIMAL + "\n[model]\nc = 1.5\n"
    with pytest.raises(ValidationError) as exc:
        driver.load_config(_write(tmp_path / "d.cfg", bad))
    msg = str(exc.value)
    assert "c " in msg and "(-1, 1)" in msg


def test_r_equals_two_rejected(tmp_path):
    bad = MINIMAL + "\n[model]\nr = 2.0\n"
    with pytest.raises(ValidationError, match="r must be > 2"):
        driver.load_config(_write(tmp_path / "e.cfg", bad))


def test_malformed_line_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        driver.load_config(_write(tmp_path / "f.cfg", "[grid]\nnx 16\n"))


def test_non_numeric_value_is_parse_error(tmp_path):
    cases = [("model", "alpha", "fast"), ("time", "h", "nan"),
             ("time", "t_end", "inf"), ("grid", "Lx", "nan"),
             ("initial", "amplitude", "nan"), ("tolerances", "newton_tol", "nan")]
    for section, key, raw in cases:
        text = "\n".join(ln for ln in MINIMAL.splitlines()
                         if not ln.startswith(f"{key} ="))
        header = f"[{section}]\n"
        entry = f"{key} = {raw}\n"
        bad = (text.replace(header, header + entry) if header in text
               else f"{text}\n{header}{entry}")
        with pytest.raises(ParseError, match=rf"\[{section}\] {key} = "):
            driver.load_config(_write(tmp_path / "g.cfg", bad))


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip_bitwise(tmp_path, grid):
    rng = np.random.default_rng(4)
    f = ScalarField(grid, rng.standard_normal((16, 16)))
    path = str(tmp_path / "f.snap")
    driver.write_snapshot(path, f, time=0.25, name="phi")
    g, t, name = driver.read_snapshot(path)
    assert t == 0.25 and name == "phi"
    assert g.grid == grid
    assert np.array_equal(g.data, f.data)


def test_snapshot_checksum_detects_corruption(tmp_path, grid):
    f = ScalarField.constant(grid, 0.3)
    path = tmp_path / "f.snap"
    driver.write_snapshot(str(path), f, 0.0, "phi")
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        driver.read_snapshot(str(path))


def test_snapshot_bad_header_rejected(tmp_path):
    path = tmp_path / "f.snap"
    path.write_bytes(b"NOPE 1 2 3\n")
    with pytest.raises(SnapshotFormatError):
        driver.read_snapshot(str(path))


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def test_homogeneous_preset_exact_means(grid):
    st = driver.initial_condition("homogeneous", grid, ModelParams(), 0,
                                  mean_phi=0.2, mean_psi=0.5)
    assert np.all(st.phi.data == 0.2)
    assert np.all(st.psi.data == 0.5)
    assert np.all(st.u.x == 0.0)


def test_stripe_preset_respects_clip_margin(grid):
    st = driver.initial_condition("stripe", grid, ModelParams(), 0,
                                  amplitude=5.0, width=0.01)
    assert np.max(np.abs(st.phi.data)) <= 1.0 - 1e-3


def test_random_spinodal_deterministic_and_bounded(grid):
    a = driver.initial_condition("random_spinodal", grid, ModelParams(), 42)
    b = driver.initial_condition("random_spinodal", grid, ModelParams(), 42)
    c = driver.initial_condition("random_spinodal", grid, ModelParams(), 43)
    assert np.array_equal(a.phi.data, b.phi.data)
    assert np.array_equal(a.psi.data, b.psi.data)
    assert not np.array_equal(a.phi.data, c.phi.data)
    assert np.max(np.abs(a.phi.data - a.phi.data.mean())) <= 0.05 + 1e-12


def test_unknown_preset_raises(grid):
    with pytest.raises(UnknownPreset):
        driver.initial_condition("vortex", grid, ModelParams(), 0)


def test_snapshot_preset_rejects_nan_cell(tmp_path, grid):
    src = driver.initial_condition("random_spinodal", grid, ModelParams(), 7)
    src.phi.data[3, 5] = np.nan
    phi_path = str(tmp_path / "phi.snap")
    psi_path = str(tmp_path / "psi.snap")
    driver.write_snapshot(phi_path, src.phi, 0.0, "phi")
    driver.write_snapshot(psi_path, src.psi, 0.0, "psi")
    with pytest.raises(BoundViolation, match="phi leaves"):
        driver.initial_condition("snapshot", grid, ModelParams(), 0,
                                 phi_path=phi_path, psi_path=psi_path)


def test_snapshot_preset_round_trip(tmp_path, grid):
    src = driver.initial_condition("random_spinodal", grid, ModelParams(), 7)
    phi_path = str(tmp_path / "phi.snap")
    psi_path = str(tmp_path / "psi.snap")
    driver.write_snapshot(phi_path, src.phi, 1.5, "phi")
    driver.write_snapshot(psi_path, src.psi, 1.5, "psi")
    st = driver.initial_condition("snapshot", grid, ModelParams(), 0,
                                  phi_path=phi_path, psi_path=psi_path)
    assert np.array_equal(st.phi.data, src.phi.data)
    assert st.time == 1.5


# ---------------------------------------------------------------------------
# run / ledger
# ---------------------------------------------------------------------------

def _homog_cfg(tmp_path, extra=""):
    text = MINIMAL + f"\n[output]\ndirectory = {tmp_path / 'out'}\n" + extra
    return driver.load_config(_write(tmp_path / "run.cfg", text))


def test_run_homogeneous_constant_energy(tmp_path):
    cfg = _homog_cfg(tmp_path)
    assert driver.run(cfg) == 0
    rows = driver.read_ledger(os.path.join(cfg.output_dir, cfg.series))
    assert len(rows) == 10
    energies = [r.energy_total for r in rows]
    assert max(energies) - min(energies) < 1e-12 * (1 + abs(energies[0]))
    times = [r.time for r in rows]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_run_stripe_nonincreasing_energy(tmp_path):
    text = """
[grid]
nx = 32
ny = 32

[time]
h = 1e-3
t_end = 0.05

[model]
w = 1.0
theta_c = 2.0

[initial]
preset = stripe
amplitude = 0.8
width = 0.08
"""
    text += f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    cfg = driver.load_config(_write(tmp_path / "s.cfg", text))
    assert driver.run(cfg) == 0
    rows = driver.read_ledger(os.path.join(cfg.output_dir, cfg.series))
    energies = [r.energy_total for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert all(r.slack >= -1e-9 * (1 + abs(energies[0])) for r in rows)


def test_run_determinism_bitwise(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg1 = _homog_cfg(tmp_path / "a")
    cfg2 = _homog_cfg(tmp_path / "b")
    driver.run(cfg1)
    driver.run(cfg2)
    led1 = open(os.path.join(cfg1.output_dir, cfg1.series), "rb").read()
    led2 = open(os.path.join(cfg2.output_dir, cfg2.series), "rb").read()
    assert led1 == led2
    snaps1 = sorted(os.listdir(cfg1.output_dir))
    for name in snaps1:
        if name.endswith(".snap"):
            b1 = open(os.path.join(cfg1.output_dir, name), "rb").read()
            b2 = open(os.path.join(cfg2.output_dir, name), "rb").read()
            assert b1 == b2


def test_run_abort_on_injected_violation(tmp_path):
    cfg = _homog_cfg(tmp_path)

    def hook(step_index, state):
        if step_index == 3:
            state.phi.data[0, 0] += 0.5   # break the phi mass law

    with pytest.raises(Exception) as exc:
        driver.run(cfg, perturb_hook=hook)
    assert "step 4" in str(exc.value)
    rows = driver.read_ledger(os.path.join(cfg.output_dir, cfg.series))
    assert len(rows) == 4   # the offending diagnostic row is the last one


def test_run_names_step_on_solver_failure(tmp_path):
    # h*sigma1 >= 1 makes the mean update overshoot immediately.
    text = MINIMAL + "\n[model]\nsigma1 = 2000.0\n"
    text += f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    cfg = driver.load_config(_write(tmp_path / "h.cfg", text))
    with pytest.raises(StepTooLarge, match="step 0"):
        driver.run(cfg)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_output_dir_override(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", MINIMAL)
    out = tmp_path / "cli_out"
    assert cli.main(["run", cfg_path, "--output-dir", str(out)]) == 0
    assert (out / "ledger.csv").exists()


def test_cli_validation_exit_code(tmp_path):
    cfg_path = _write(tmp_path / "bad.cfg", MINIMAL + "\n[model]\nr = 2.0\n")
    assert cli.main(["run", cfg_path]) == cli.EXIT_VALIDATION


def test_cli_solver_failure_exit_code(tmp_path):
    cfg_path = _write(tmp_path / "stall.cfg",
                      MINIMAL + "\n[model]\nsigma1 = 2000.0\n")
    out = tmp_path / "o"
    assert cli.main(["run", cfg_path, "--output-dir", str(out)]) == cli.EXIT_SOLVER


def test_cli_io_failure_exit_code(tmp_path):
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == cli.EXIT_IO


def test_cli_check_passes(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", MINIMAL)
    assert cli.main(["check", cfg_path]) == 0


def test_cli_steady_homogeneous(tmp_path, capsys):
    cfg_path = _write(tmp_path / "c.cfg", MINIMAL)
    out = tmp_path / "o"
    assert cli.main(["steady", cfg_path, "--output-dir", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "mu_phi_inf" in captured
    assert (out / "state_phi_steady.snap").exists()


def test_cli_threads_env(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path / "c.cfg", MINIMAL)
    monkeypatch.setenv("CHDF_THREADS", "1")
    out = tmp_path / "o"
    assert cli.main(["run", cfg_path, "--output-dir", str(out)]) == 0
    for bad in ("soon", "-3"):
        monkeypatch.setenv("CHDF_THREADS", bad)
        assert cli.main(["run", cfg_path]) == cli.EXIT_VALIDATION
