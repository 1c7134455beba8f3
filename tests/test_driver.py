"""Configuration, presets, snapshot/ledger formats, and the CLI."""

import inspect
import os
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from chdf import cli, driver, errors, grid as gridops, step
from chdf import model as mdl
from chdf.errors import (BoundViolation, ParseError, PicardStall,
                         SnapshotFormatError, StepTooLarge, UnknownPreset,
                         ValidationError)
from chdf.grid import Grid2D, ScalarField


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
    assert cfg.output_dir == "out"


def test_unknown_key_rejected(tmp_path):
    # The Newton cap is a constant of the step, not a key of [model] either.
    for section, line in (("model", "wibble = 3"), ("model", "max_newton = 50")):
        key = line.split()[0]
        path = _write(tmp_path / "b.cfg", MINIMAL + f"\n[{section}]\n{line}\n")
        with pytest.raises(ValidationError, match=key):
            driver.load_config(path)
        assert cli.main(["check", path]) == cli.EXIT_VALIDATION


def test_unknown_section_rejected(tmp_path):
    bad = MINIMAL + "\n[mystery]\nx = 1\n"
    with pytest.raises(ValidationError, match="mystery"):
        driver.load_config(_write(tmp_path / "c.cfg", bad))


@pytest.mark.parametrize("line", ["velocity_tol = 1e-16", "newton_tol = 1e-20",
                                  "max_newton = 2"])
def test_tolerances_section_rejected(tmp_path, line):
    # The solver's stopping rules are constants of the step: a config cannot
    # set one below round-off or cap Newton short of convergence.
    path = _write(tmp_path / "tol.cfg", MINIMAL + f"\n[tolerances]\n{line}\n")
    with pytest.raises(ValidationError, match="tolerances"):
        driver.load_config(path)
    out = tmp_path / "o"
    assert cli.main(["run", path, "--output-dir", str(out)]) == cli.EXIT_VALIDATION
    assert not (out / "ledger.csv").exists()


@pytest.mark.parametrize("command", ["run", "check", "steady"])
def test_config_that_is_not_utf8_is_parse_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.cfg"
    path.write_bytes((MINIMAL + "# caf\xe9\n").encode("latin-1"))
    with pytest.raises(ParseError, match="latin1.cfg"):
        driver.load_config(str(path))
    out = tmp_path / "o"
    assert cli.main([command, str(path), "--output-dir", str(out)]) == cli.EXIT_VALIDATION
    assert "latin1.cfg" in capsys.readouterr().err
    assert not out.exists()


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


def test_t_end_below_one_step_rejected(tmp_path):
    # run takes round(t_end/h) steps; zero steps would exit 0 with an empty
    # ledger and no snapshot.
    for t_end in ("4e-4", "5e-4"):
        path = _write(tmp_path / "z.cfg", MINIMAL.replace("t_end = 0.01",
                                                          f"t_end = {t_end}"))
        with pytest.raises(ValidationError, match=r"t_end.*h = 0\.001"):
            driver.load_config(path)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--output-dir", str(out)]) == cli.EXIT_VALIDATION
        assert not out.exists()
    path = _write(tmp_path / "one.cfg", MINIMAL.replace("t_end = 0.01", "t_end = 6e-4"))
    assert driver.load_config(path).t_end == 6e-4


@pytest.mark.parametrize("command", ["run", "check", "steady"])
@pytest.mark.parametrize("h, t_end", [("1e-320", "0.1"), ("1e-3", "1e308")])
def test_step_count_that_overflows_is_rejected(tmp_path, capsys, command, h, t_end):
    # t_end/h is inf: every subcommand rejects the config before it counts
    # steps, naming both keys.
    path = _write(tmp_path / "big.cfg", MINIMAL.replace("h = 1e-3", f"h = {h}")
                  .replace("t_end = 0.01", f"t_end = {t_end}"))
    out = tmp_path / "out"
    assert cli.main([command, path, "--output-dir", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"chdf: t_end = {float(t_end):g} and h = {float(h):g}: t_end/h overflows\n"
    assert not out.exists()


def test_non_numeric_value_is_parse_error(tmp_path):
    cases = [("model", "alpha", "fast"), ("time", "h", "nan"),
             ("time", "t_end", "inf"), ("grid", "Lx", "nan"),
             ("initial", "amplitude", "nan")]
    for section, key, raw in cases:
        text = "\n".join(ln for ln in MINIMAL.splitlines()
                         if not ln.startswith(f"{key} ="))
        header = f"[{section}]\n"
        entry = f"{key} = {raw}\n"
        bad = (text.replace(header, header + entry) if header in text
               else f"{text}\n{header}{entry}")
        with pytest.raises(ParseError, match=rf"\[{section}\] {key} = "):
            driver.load_config(_write(tmp_path / "g.cfg", bad))


EVERY_KEY = """
[grid]
nx = 32
ny = 8
Lx = 2.0
Ly = 0.5

[time]
h = 2e-3
t_end = 0.5
output_every = 7

[initial]
preset = snapshot
mean_phi = -0.3
mean_psi = 0.4
amplitude = 0.7
width = 0.2
noise_amplitude = 0.01
phi_path = in/phi.snap
psi_path = in/psi.snap
seed = 9

[output]
directory = results
series = rows.csv
snapshot_prefix = run
"""


def test_every_key_loads_into_its_field(tmp_path):
    expected = dict(
        nx=32, ny=8, Lx=2.0, Ly=0.5, h=2e-3, t_end=0.5, output_every=7,
        preset="snapshot", mean_phi=-0.3, mean_psi=0.4, amplitude=0.7,
        width=0.2, noise_amplitude=0.01, phi_path="in/phi.snap",
        psi_path="in/psi.snap", seed=9, output_dir="results",
        series="rows.csv", snapshot_prefix="run")
    default = driver.RunConfig()
    assert set(expected) == set(vars(default)) - {"params"}
    cfg = driver.load_config(_write(tmp_path / "every.cfg", EVERY_KEY))
    for name, value in expected.items():
        assert value != getattr(default, name), name
        assert getattr(cfg, name) == value, name
        assert type(getattr(cfg, name)) is type(value), name


def test_negative_seed_rejected(tmp_path):
    # numpy refuses a negative seed, which crashed the run with a traceback.
    bad = MINIMAL.replace("preset = homogeneous", "preset = random_spinodal\nseed = -1")
    path = _write(tmp_path / "s.cfg", bad)
    with pytest.raises(ValidationError, match="seed"):
        driver.load_config(path)
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_VALIDATION


def test_nonpositive_width_rejected(tmp_path):
    # The stripe divides by width: zero ran to exit 0 on an infinite slope.
    for width in ("0", "-0.1"):
        bad = MINIMAL.replace("preset = homogeneous", f"preset = stripe\nwidth = {width}")
        with pytest.raises(ValidationError, match="width"):
            driver.load_config(_write(tmp_path / "w.cfg", bad))


def test_random_spinodal_noise_must_fit_inside_the_bounds(tmp_path):
    # The noise peaks at noise_amplitude: mean_phi = 0.97 put a cell of phi
    # past 1, which the run reported as a solver failure (exit 3).
    for mean in ("mean_phi = 0.97", "mean_phi = -0.96", "mean_psi = 0.03"):
        bad = MINIMAL.replace("preset = homogeneous\nmean_phi = 0.2",
                              f"preset = random_spinodal\n{mean}")
        path = _write(tmp_path / "n.cfg", bad)
        with pytest.raises(ValidationError) as exc:
            driver.load_config(path)
        for name in ("random_spinodal", "mean_phi", "mean_psi", "noise_amplitude"):
            assert name in str(exc.value)
        out = tmp_path / "o"
        assert cli.main(["run", path, "--output-dir", str(out)]) == cli.EXIT_VALIDATION
    ok = MINIMAL.replace("preset = homogeneous\nmean_phi = 0.2",
                         "preset = random_spinodal\nmean_phi = 0.94")
    assert driver.load_config(_write(tmp_path / "ok.cfg", ok)).mean_phi == 0.94


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


def _fnv1a64_bytewise(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def test_snapshot_checksum_is_fnv1a64():
    # The array form of the checksum against the byte loop of its definition.
    rng = np.random.default_rng(11)
    payloads = [rng.integers(0, 256, n, dtype=np.uint8).tobytes()
                for n in (0, 1, 7, 8, 4099)]
    payloads.append(rng.standard_normal((128, 128)).astype("<f8").tobytes())
    for data in payloads:
        assert driver._fnv1a64(data) == _fnv1a64_bytewise(data), len(data)


def test_snapshot_checksum_detects_corruption(tmp_path, grid):
    f = ScalarField.constant(grid, 0.3)
    path = tmp_path / "f.snap"
    driver.write_snapshot(str(path), f, 0.0, "phi")
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="checksum"):
        driver.read_snapshot(str(path))


@pytest.mark.parametrize("fields, match", [
    ("nan 1 0", "invalid grid"), ("1 inf 0", "invalid grid"),
    ("1 1 nan", "header time"), ("1 1 -inf", "header time")])
def test_snapshot_header_rejects_nonfinite_lengths_and_times(tmp_path, fields, match):
    # "Lx Ly time": lengths must be finite, and a time finite or +inf.
    payload = bytes(16 * 16 * 8)
    path = tmp_path / "bad.snap"
    path.write_bytes(f"CHDF1 16 16 {fields} phi {driver._fnv1a64(payload):016x}\n"
                     .encode("ascii") + payload)
    with pytest.raises(SnapshotFormatError, match=match):
        driver.read_snapshot(str(path))
    cfg_path = _write(tmp_path / "snap.cfg", MINIMAL.replace(
        "preset = homogeneous",
        f"preset = snapshot\nphi_path = {path}\npsi_path = {path}"))
    assert cli.main(["run", cfg_path, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_IO


def test_snapshot_bad_header_rejected(tmp_path):
    path = tmp_path / "f.snap"
    path.write_bytes(b"NOPE 1 2 3\n")
    with pytest.raises(SnapshotFormatError):
        driver.read_snapshot(str(path))


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def test_homogeneous_preset_exact_means(grid):
    st = driver.initial_condition(driver.RunConfig(
        preset="homogeneous", mean_phi=0.2, mean_psi=0.5), grid)
    assert np.all(st.phi.data == 0.2)
    assert np.all(st.psi.data == 0.5)
    assert np.all(st.u.x == 0.0)


def test_stripe_preset_respects_clip_margin(grid):
    st = driver.initial_condition(driver.RunConfig(
        preset="stripe", amplitude=5.0, width=0.01), grid)
    assert np.max(np.abs(st.phi.data)) <= 1.0 - 1e-3


def test_random_spinodal_deterministic_and_bounded(grid):
    a = driver.initial_condition(driver.RunConfig(preset="random_spinodal", seed=42), grid)
    b = driver.initial_condition(driver.RunConfig(preset="random_spinodal", seed=42), grid)
    c = driver.initial_condition(driver.RunConfig(preset="random_spinodal", seed=43), grid)
    assert np.array_equal(a.phi.data, b.phi.data)
    assert np.array_equal(a.psi.data, b.psi.data)
    assert not np.array_equal(a.phi.data, c.phi.data)
    assert np.max(np.abs(a.phi.data - a.phi.data.mean())) <= 0.05 + 1e-12


def test_unknown_preset_raises(grid):
    with pytest.raises(UnknownPreset):
        driver.initial_condition(driver.RunConfig(preset="vortex"), grid)


def test_snapshot_preset_rejects_nan_cell(tmp_path, grid):
    src = driver.initial_condition(driver.RunConfig(preset="random_spinodal", seed=7), grid)
    src.phi.data[3, 5] = np.nan
    phi_path = str(tmp_path / "phi.snap")
    psi_path = str(tmp_path / "psi.snap")
    driver.write_snapshot(phi_path, src.phi, 0.0, "phi")
    driver.write_snapshot(psi_path, src.psi, 0.0, "psi")
    with pytest.raises(SnapshotFormatError, match=f"^{phi_path}: field phi leaves"):
        driver.initial_condition(driver.RunConfig(
            preset="snapshot", phi_path=phi_path, psi_path=psi_path), grid)


@pytest.mark.parametrize("command", ["run", "steady"])
@pytest.mark.parametrize("role, value, interval", [
    ("phi", 1.5, "(-1, 1)"), ("phi", np.nan, "(-1, 1)"), ("psi", 0.0, "(0, 1)")])
def test_snapshot_outside_its_bounds_is_an_io_failure(tmp_path, capsys, command,
                                                      role, value, interval):
    # The file's content is wrong, as with a bad checksum or name: exit 4,
    # naming the file and the field, not a solver failure.
    grid = Grid2D(16, 16, 1.0, 1.0)
    fields = {"phi": np.full((16, 16), 0.3), "psi": np.full((16, 16), 0.6)}
    fields[role][2, 3] = value
    paths = {name: str(tmp_path / f"{name}.snap") for name in fields}
    for name, data in fields.items():
        driver.write_snapshot(paths[name], ScalarField(grid, data), 0.0, name)
    cfg_path = _write(tmp_path / "bad.cfg", MINIMAL.replace(
        "preset = homogeneous",
        f"preset = snapshot\nphi_path = {paths['phi']}\npsi_path = {paths['psi']}"))
    out = tmp_path / "o"
    assert cli.main([command, cfg_path, "--output-dir", str(out)]) == cli.EXIT_IO
    assert capsys.readouterr().err == (
        f"chdf: {paths[role]}: field {role} leaves {interval}\n")
    assert not out.exists()


def test_snapshot_preset_round_trip(tmp_path, grid):
    src = driver.initial_condition(driver.RunConfig(preset="random_spinodal", seed=7), grid)
    phi_path = str(tmp_path / "phi.snap")
    psi_path = str(tmp_path / "psi.snap")
    driver.write_snapshot(phi_path, src.phi, 1.5, "phi")
    driver.write_snapshot(psi_path, src.psi, 1.5, "psi")
    st = driver.initial_condition(driver.RunConfig(
        preset="snapshot", phi_path=phi_path, psi_path=psi_path), grid)
    assert np.array_equal(st.phi.data, src.phi.data)
    assert st.time == 1.5


def test_snapshot_preset_checks_header_names(tmp_path, capsys):
    # Each header must name the field it is read as; swapped paths would
    # otherwise run with phi and psi exchanged.
    grid = Grid2D(16, 16, 1.0, 1.0)
    phi_path = str(tmp_path / "phi.snap")
    psi_path = str(tmp_path / "psi.snap")
    driver.write_snapshot(phi_path, ScalarField.constant(grid, 0.3), 0.0, "phi")
    driver.write_snapshot(psi_path, ScalarField.constant(grid, 0.6), 0.0, "psi")
    with pytest.raises(SnapshotFormatError, match="'psi', but it is read as 'phi'"):
        driver.initial_condition(driver.RunConfig(
            preset="snapshot", phi_path=psi_path, psi_path=phi_path), grid)
    cfg_path = _write(tmp_path / "swap.cfg", MINIMAL.replace(
        "preset = homogeneous",
        f"preset = snapshot\nphi_path = {psi_path}\npsi_path = {phi_path}"))
    out = tmp_path / "o"
    assert cli.main(["run", cfg_path, "--output-dir", str(out)]) == cli.EXIT_IO
    assert capsys.readouterr().err == (
        f"chdf: {psi_path}: header names field 'psi', but it is read as 'phi'\n")
    assert not out.exists()


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


def _perturb_after_step(monkeypatch, k, perturb):
    """Make run's step k (from 0) hand on its state as perturb(state) left it:
    the step's ledger row, and the next step, see the perturbed state."""
    taken = []
    coupled = step.coupled_time_step

    def perturbed(*args):
        out = coupled(*args)
        if len(taken) == k:
            perturb(out[0])
        taken.append(out)
        return out

    monkeypatch.setattr(driver, "coupled_time_step", perturbed)


def test_run_abort_on_injected_violation(tmp_path, monkeypatch):
    cfg = _homog_cfg(tmp_path)

    def kick(state):
        state.phi.data[0, 0] += 0.5   # break the phi mass law

    _perturb_after_step(monkeypatch, 3, kick)
    with pytest.raises(BoundViolation, match="^step 3: ") as exc:
        driver.run(cfg)
    assert "phi mass missed its prescribed target" in str(exc.value)
    rows = driver.read_ledger(os.path.join(cfg.output_dir, cfg.series))
    assert len(rows) == 4   # the offending diagnostic row is the last one

    # An error raised by the same step names the same number.
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 4:
            raise PicardStall("injected stall")
        return step.coupled_time_step(*args)

    monkeypatch.setattr(driver, "coupled_time_step", failing)
    with pytest.raises(PicardStall, match="^step 3: injected stall$"):
        driver.run(cfg)


def test_run_floors_each_slack_at_the_energy_before_its_step(tmp_path, monkeypatch):
    # On this stripe the energy falls from 6.33 to 1.62 before step 2, so
    # step 2's slack floor is -ENERGY_TOL (1 + 1.62) = -2.6e-9: a slack of
    # -5e-9 breaks it, though it clears -7.3e-9, the floor of the initial energy.
    cfg = driver.load_config(_write(tmp_path / "s.cfg", f"""
[grid]
nx = 16
ny = 16

[time]
h = 1e-3
t_end = 0.003

[model]
alpha = 1.0
r = 3.0
w = 1.0
theta_c = 2.0
sigma2 = 0.1

[initial]
preset = stripe
amplitude = 0.9
width = 0.08
mean_psi = 0.5

[output]
directory = {tmp_path / 'out'}
"""))
    build, energies = driver.diag.build_ledger_row, []

    def slackened(*args):
        energies.append(args[-1])
        row = build(*args)
        return replace(row, slack=-5e-9) if len(energies) == 3 else row

    monkeypatch.setattr(driver.diag, "build_ledger_row", slackened)
    with pytest.raises(BoundViolation,
                       match="^step 2: energy inequality slack below tolerance$"):
        driver.run(cfg)
    tol = driver.ENERGY_TOL
    assert -tol * (1.0 + abs(energies[0])) < -5e-9 < -tol * (1.0 + abs(energies[2]))


def test_run_reuses_each_step_energy_unless_hooked(tmp_path, monkeypatch):
    # A row's energy_total is the next row's energy_before, so a run
    # evaluates the total energy once, perturbed or not.  The perturbation
    # lands before the row is built: a no-op one moves no ledger byte, and
    # after one that moves phi the row is the ledger of the perturbed state,
    # against whose energy the next row's slack closes.
    text = """
[grid]
nx = 16
ny = 16

[time]
h = 1e-3
t_end = 0.005

[model]
w = 1.0
theta_c = 2.0

[initial]
preset = stripe
amplitude = 0.8
width = 0.1
"""
    calls = []
    total_energy = mdl.total_energy

    def counted(*args):
        calls.append(args)
        return total_energy(*args)

    hooked = []

    def bump(state):
        # Zero-mean at the cell centres; it moves phi toward the interface.
        X, _ = state.phi.grid.cell_centers()
        state.phi.data += 1e-3 * np.cos(np.pi * X / state.phi.grid.Lx)
        hooked.append(deepcopy(state))

    monkeypatch.setattr(mdl, "total_energy", counted)
    ledgers = []
    for name, perturb in (("a", None), ("b", lambda state: None), ("c", bump)):
        out = tmp_path / name
        cfg = driver.load_config(_write(
            tmp_path / f"{name}.cfg", text + f"\n[output]\ndirectory = {out}\n"))
        if perturb is not None:
            _perturb_after_step(monkeypatch, 1, perturb)
        calls.clear()
        assert driver.run(cfg) == 0
        assert len(calls) == 1
        ledgers.append(open(os.path.join(cfg.output_dir, cfg.series), "rb").read())
    assert ledgers[0] == ledgers[1]

    rows = driver.read_ledger(os.path.join(cfg.output_dir, cfg.series))
    assert ledgers[2] != ledgers[0]
    assert rows[1].energy_total == total_energy(hooked[0], cfg.params)
    params, e_prev, row = cfg.params, rows[1].energy_total, rows[2]
    terms = (row.dissipation_d2 + row.dissipation_dr
             + params.m_phi_const * row.grad_mu_phi_sq
             + params.m_psi_const * row.grad_mu_psi_sq + row.reaction_term)
    assert row.slack == pytest.approx(e_prev - row.energy_total - cfg.h * terms,
                                      abs=1e-13 * (1.0 + abs(e_prev)))


def test_run_names_the_step_of_every_step_error(tmp_path, capsys, monkeypatch):
    # At h = 1 the third step's phi target lies further from phi_prev's mean
    # than its room to -1: shifted to the target, the start leaves (-1, 1).
    # The start is pulled toward the target instead, and the run finishes.
    # An OutOfDomain from inside a step keeps its type and exit status.
    cfg_path = _write(tmp_path / "far.cfg", """
[grid]
nx = 16
ny = 16
Lx = 4
Ly = 4

[time]
h = 1
t_end = 3

[model]
sigma1 = 0.5
theta_c = 4
w = 0.5
alpha = 1
r = 4
eta_const = 100
sigma2 = 0.1
beta = 0.1

[initial]
preset = stripe
mean_phi = -0.6
mean_psi = 0.1
amplitude = 0.5
width = 2
""")
    assert cli.main(["run", cfg_path, "--output-dir", str(tmp_path / "ok")]) == 0
    assert len(driver.read_ledger(str(tmp_path / "ok" / "ledger.csv"))) == 3

    calls = []

    def failing(prev, h, params, init_potentials=None):
        calls.append(h)
        if len(calls) == 3:
            mdl.f_phi(np.full_like(prev.phi.data, 1.0), params.theta_phi)
        return step.coupled_time_step(prev, h, params, init_potentials)

    monkeypatch.setattr(driver, "coupled_time_step", failing)
    out = tmp_path / "o"
    assert cli.main(["run", cfg_path, "--output-dir", str(out)]) == cli.EXIT_SOLVER
    assert capsys.readouterr().err == (
        "chdf: step 2: phase potential argument outside (-1, 1)\n")
    assert len(driver.read_ledger(str(out / "ledger.csv"))) == 2


def test_run_makes_up_time_lost_to_a_halved_step(tmp_path, monkeypatch):
    # One Picard stall halves the first step to h/2; the run makes up the
    # other h/2 at the end instead of stopping short of t_end.
    text = """
[grid]
nx = 16
ny = 16

[time]
h = 1e-3
t_end = 5e-3

[model]
w = 1.0
theta_c = 2.0

[initial]
preset = stripe
amplitude = 0.8
width = 0.1
"""
    text += f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
    cfg = driver.load_config(_write(tmp_path / "halve.cfg", text))
    attempt = step._attempt_step
    stalls = []

    def stall_once(*args):
        if not stalls:
            stalls.append(args[1])
            raise PicardStall("injected stall")
        return attempt(*args)

    monkeypatch.setattr(step, "_attempt_step", stall_once)
    assert driver.run(cfg) == 0
    assert stalls == [1e-3]
    rows = driver.read_ledger(os.path.join(cfg.output_dir, cfg.series))
    # h/2, four steps of h, h/2: no sliver step after the last.
    assert len(rows) == 6
    assert rows[0].time == 5e-4
    assert rows[-1].time == pytest.approx(5e-3, abs=1e-15)
    snaps = sorted(n for n in os.listdir(cfg.output_dir) if n.endswith(".snap"))
    assert snaps == ["state_phi_00000006.snap", "state_psi_00000006.snap"]
    _, t, _ = driver.read_snapshot(os.path.join(cfg.output_dir, snaps[0]))
    assert t == pytest.approx(5e-3, abs=1e-15)


UNIT_MODEL = """
[model]
alpha = 1.0
w = 1.0
theta_c = 2.0
sigma2 = 0.1
"""


def _drop_snapshots(tmp_path, grid):
    # An elliptical interface and one surfactant cosine mode.
    X, Y = grid.cell_centers()
    rho = np.sqrt(((X - 0.5) / 0.3) ** 2 + ((Y - 0.5) / 0.18) ** 2)
    paths = str(tmp_path / "phi0.snap"), str(tmp_path / "psi0.snap")
    driver.write_snapshot(paths[0], ScalarField(grid, 0.9 * np.tanh((1 - rho) / 0.15)),
                          0.0, "phi")
    driver.write_snapshot(paths[1], ScalarField(
        grid, 0.5 + 0.2 * np.cos(np.pi * X) * np.cos(np.pi * Y)), 0.0, "psi")
    return f"preset = snapshot\nphi_path = {paths[0]}\npsi_path = {paths[1]}"


@pytest.mark.parametrize("case", ["stripe-128", "drop-64", "stiff-stripe-32"])
def test_unit_domain_solves_stop_at_their_round_off_floor(tmp_path, case):
    # On the unit square the Laplacian's top eigenvalue puts the residual's
    # round-off above step.NEWTON_TOL = 1e-11: without the floor these inputs
    # die with NewtonDivergence, the stripe at step 0 and the drop at step 6.
    # At theta_c = 8 the coupling presses phi to about 1e-8 from -1, where
    # one ulp of phi moves F' by about 1e-8: without the pointwise part of
    # the floor that stripe's phi solve reaches its cap at step 0.
    # run() still enforces the slack, bound and mass checks on every step.
    nx, steps = {"stripe-128": (128, 3), "drop-64": (64, 8), "stiff-stripe-32": (32, 5)}[case]
    initial = ("preset = stripe\namplitude = 0.9\nwidth = 0.08" if case != "drop-64"
               else _drop_snapshots(tmp_path, Grid2D(nx, nx, 1.0, 1.0)))
    model = "[model]\ntheta_c = 8.0\n" if case == "stiff-stripe-32" else UNIT_MODEL
    text = (f"[grid]\nnx = {nx}\nny = {nx}\n\n[time]\nh = 1e-3\n"
            f"t_end = {steps * 1e-3}\noutput_every = {steps}\n{model}\n"
            f"[initial]\n{initial}\n\n[output]\ndirectory = {tmp_path / 'out'}\n")
    cfg = driver.load_config(_write(tmp_path / "u.cfg", text))
    assert driver.run(cfg) == 0
    rows = driver.read_ledger(os.path.join(cfg.output_dir, cfg.series))
    assert len(rows) == steps


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


def test_every_error_class_has_an_exit_status(tmp_path, monkeypatch, capsys):
    # cli.main names the validation and IO classes and maps every other
    # ChdfError to exit 3: each class, a new one included, must reach an
    # exit status with its message rather than escape as a traceback.
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.ChdfError) and cls is not errors.ChdfError]
    assert {errors.ParseError, errors.PicardStall, errors.SnapshotFormatError} <= set(classes)
    cfg_path = _write(tmp_path / "c.cfg", MINIMAL)
    for cls in classes:
        def fail(cfg, cls=cls):
            raise cls("injected")

        monkeypatch.setattr(driver, "run", fail)
        status = cli.main(["run", cfg_path])
        assert status in (cli.EXIT_VALIDATION, cli.EXIT_SOLVER, cli.EXIT_IO), cls
        assert capsys.readouterr().err == "chdf: injected\n", cls


@pytest.mark.parametrize("nx, ny, nbytes", [(0, 16, 0), (3, 16, 384), (-1, -1, 8)])
def test_cli_snapshot_naming_an_invalid_grid_is_an_io_failure(tmp_path, nx, ny, nbytes):
    # Payload length and checksum match the header, so only the grid is wrong.
    payload = bytes(nbytes)
    path = tmp_path / "bad.snap"
    path.write_bytes(f"CHDF1 {nx} {ny} 1 1 0 phi {driver._fnv1a64(payload):016x}\n"
                     .encode("ascii") + payload)
    with pytest.raises(SnapshotFormatError, match="bad.snap"):
        driver.read_snapshot(str(path))
    cfg_path = _write(tmp_path / "snap.cfg", MINIMAL.replace(
        "preset = homogeneous",
        f"preset = snapshot\nphi_path = {path}\npsi_path = {path}"))
    assert cli.main(["run", cfg_path, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_IO


def test_cli_check_passes(tmp_path):
    cfg_path = _write(tmp_path / "c.cfg", MINIMAL)
    assert cli.main(["check", cfg_path]) == 0


def test_cli_check_steps_with_the_configured_h(tmp_path, capsys):
    # h*sigma1 = 0.2 < 1 at this h; a one-step check at h = 1e-3 would
    # raise StepTooLarge for a config that `run` completes.
    text = MINIMAL.replace("h = 1e-3", "h = 1e-4").replace("t_end = 0.01", "t_end = 2e-4")
    cfg_path = _write(tmp_path / "c.cfg", text + "\n[model]\nsigma1 = 2000.0\n")
    assert cli.main(["run", cfg_path, "--output-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert cli.main(["check", cfg_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(line.startswith("PASS  ") for line in lines)


@pytest.mark.parametrize("field, value, law", [("max_psi", 1.0, "psi bounds violated"),
                                                ("min_phi", -1.0, "phi bounds violated")])
def test_cli_check_judges_its_step_by_the_laws_of_run(tmp_path, capsys, monkeypatch,
                                                       field, value, law):
    # A row on a bound of its box fails the one-step suite, as it fails `run`.
    build = driver.diag.build_ledger_row
    monkeypatch.setattr(driver.diag, "build_ledger_row",
                        lambda *args: replace(build(*args), **{field: value}))
    assert cli.main(["check", _write(tmp_path / "c.cfg", MINIMAL)]) == 1
    line = capsys.readouterr().out.splitlines()[2]
    assert line.startswith("FAIL  one-step") and line.endswith(f"; {law}")


def test_cli_check_prints_each_suite_before_one_raises(tmp_path, capsys):
    # h*sigma1 = 2 makes the one-step suite raise StepTooLarge: a solver
    # failure (exit 3) that comes after the two suites that pass.
    text = MINIMAL.replace("homogeneous", "stripe")
    cfg_path = _write(tmp_path / "c.cfg", text + "\n[model]\nsigma1 = 2000.0\n")
    assert cli.main(["check", cfg_path]) == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert [line.split()[:2] for line in captured.out.splitlines()] == [
        ["PASS", "spectral"], ["PASS", "coupling"]]
    assert "h*sigma1 = 2.000e+00 >= 1" in captured.err


def test_cli_steady_homogeneous(tmp_path, capsys):
    cfg_path = _write(tmp_path / "c.cfg", MINIMAL)
    out = tmp_path / "o"
    assert cli.main(["steady", cfg_path, "--output-dir", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "mu_phi_inf" in captured
    assert (out / "state_phi_steady.snap").exists()


def test_cli_run_starts_from_steady_output_at_time_zero(tmp_path):
    # steady writes its states at t = inf; a run from them starts at 0.
    stripe_path = _write(tmp_path / "s.cfg", MINIMAL.replace(
        "preset = homogeneous", "preset = stripe"))
    steady_out = tmp_path / "steady"
    assert cli.main(["steady", stripe_path, "--output-dir", str(steady_out)]) == 0
    cfg_path = _write(tmp_path / "r.cfg", MINIMAL.replace(
        "preset = homogeneous",
        f"preset = snapshot\nphi_path = {steady_out / 'state_phi_steady.snap'}\n"
        f"psi_path = {steady_out / 'state_psi_steady.snap'}"))
    out = tmp_path / "run"
    assert cli.main(["run", cfg_path, "--output-dir", str(out)]) == 0
    assert driver.read_ledger(str(out / "ledger.csv"))[0].time == 1e-3


def _workers_in_command(monkeypatch, cfg_path, threads, fail=False):
    """grid's transform worker count inside `chdf check` under CHDF_THREADS (None
    if the command never ran), the exit status, and the count after."""
    seen = []

    def spy(cfg):
        seen.append(gridops.workers)
        if fail:
            raise OSError("spy: write failed")
        return 0

    monkeypatch.setattr(driver, "check", spy)
    monkeypatch.setenv("CHDF_THREADS", threads)
    rc = cli.main(["check", cfg_path])
    return seen[0] if seen else None, rc, gridops.workers


def test_cli_threads_env(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path / "c.cfg", MINIMAL)
    before = gridops.workers
    assert before == 1     # scipy's default, for callers of the library
    out = tmp_path / "o"
    monkeypatch.setenv("CHDF_THREADS", "1")
    assert cli.main(["run", cfg_path, "--output-dir", str(out)]) == 0
    # The setting holds for the call only, an IO-error exit included.
    assert gridops.workers == before
    assert _workers_in_command(monkeypatch, cfg_path, "1") == (1, 0, before)
    assert (_workers_in_command(monkeypatch, cfg_path, "2", fail=True)
            == (2, cli.EXIT_IO, before))
    for good, n in (("+2", 2), (" 1", 1)):
        assert _workers_in_command(monkeypatch, cfg_path, good) == (n, 0, before)
    for bad in ("soon", "-3", "", "x", "-1"):
        assert (_workers_in_command(monkeypatch, cfg_path, bad)
                == (None, cli.EXIT_VALIDATION, before))


def test_cli_threads_zero_means_every_core(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path / "c.cfg", MINIMAL)
    before = gridops.workers
    assert _workers_in_command(monkeypatch, cfg_path, "2") == (2, 0, before)
    assert (_workers_in_command(monkeypatch, cfg_path, "0")
            == (os.cpu_count(), 0, before))
