"""Config validation, pipeline artifacts, determinism, exit codes."""

import csv
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

import signorini as sg
import signorini.cli as cli
import signorini.solver as solver_mod
from signorini.errors import InvalidConfigurationError


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "n": 1,
        "a": 0.0,
        "R": 1.0,
        "hx": 1 / 32,
        "hy": 1 / 32,
        "boundary": "oracle:signorini_profile",
        "solver": {"method": "psor", "omega": 1.9},
        "r_grid": {"count": 15},
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_invalid_config_names_field(tmp_path, capsys):
    path = write_config(tmp_path, a=1.5)
    rc = cli.main(["diagnose", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'a'" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    path = write_config(tmp_path)
    raw = json.loads(path.read_text())
    raw["bogus_field"] = 1
    path.write_text(json.dumps(raw))
    rc = cli.main(["diagnose", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'bogus_field'" in capsys.readouterr().err


@pytest.mark.parametrize("name,value,key", [
    ("solver", {"method": "psor", "omgea": 1.9}, "omgea"),
    ("solver", {"method": "psor", "eps": 1e-3}, "eps"),
    ("solver", {"method": "psor", "omega": 1.9, "relaxation": 1.9}, "relaxation"),
    ("r_grid", {"cout": 12}, "cout"),
    ("solver", "psor", "solver"),
    ("solver", {"method": "psor", "max_iter": 2}, "max_iter"),
    ("solver", {"method": "psor", "warm_start": False}, "warm_start"),
])
def test_unknown_solver_and_r_grid_keys_rejected(tmp_path, capsys, name, value, key):
    path = write_config(tmp_path, **{name: value})
    rc = cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("name,value", [
    ("a", "x"), ("hx", None), ("delta", True), ("n", True), ("seed", 1.5),
    ("Kprime", "bogus"), ("C_weiss", [1]), ("r_grid", {"count": "40"}), ("Kprime", "auto"),
    ("solver", {"method": "psor", "omega": "x"}), ("solver", {"method": "psor", "tol": [1e-10]}),
    ("solver", {"method": "psor", "tol": True}), ("solver", {"method": "psor", "omega": None}),
    ("solver", {"method": "psor", "tol": "x"}), ("solver", {"method": ["psor"]}),
    ("r_grid", {"count": 0}), ("r_grid", {"count": -1}), ("r_grid", {"count": 3}),
    ("r_grid", {"r_min": 0.0}), ("r_grid", {"r_max": 1.5}),
    ("r_grid", {"r_min": 0.5, "r_max": 0.2}), ("r_grid", {"r_min": 0.95}),
    ("solver", {"method": "psor", "tol": -1}), ("solver", {"method": "psor", "tol": 0}),
    ("solver", {"method": "psor", "tol": float("nan")}),
    # integers beyond the float range
    *(pytest.param(name, 10**400, id=f"{name}-1e400") for name in ("R", "hx", "hy", "delta")),
    pytest.param("solver", {"method": "psor", "tol": 10**400}, id="solver-tol-1e400"),
])
def test_config_type_errors_exit_before_the_solve(tmp_path, capsys, name, value):
    path = write_config(tmp_path, **{name: value})
    out = tmp_path / "out"
    rc = cli.main(["diagnose", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert f"'{name}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,value", [
    ("obstacle", "abc"), ("coefficients", "x"), ("obstacle", {"poly": "x"}),
    ("obstacle", {"poly": [[1, [0, 0, 5]]]}), ("source", {"poly": [["a", [0]]]}),
    ("output", 5), ("source", "2.5"), ("obstacle", True), ("boundary", "oracle"),
    ("boundary", {"poly": [[1, [0.5]]]}), ("coefficients", [["abc"]]),
])
def test_malformed_data_specs_exit_before_the_solve(tmp_path, capsys, monkeypatch, name, value):
    # a number is a real non-bool value, and a poly term a number with at
    # most dim integer exponents; anything else exits 2 with a message
    # that names the field
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "solve_active_set", no_solve)
    path = write_config(tmp_path, hx=1 / 8, hy=1 / 8, **{name: value})
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid configuration: field '{name}'")
    assert not out.exists()


def test_default_radii_off_the_grid_exit_before_the_solve(tmp_path, capsys):
    # at hx = hy = 1/4 the default r_min = 4 max(hx, hy) = 1 exceeds 0.9 R
    path = write_config(tmp_path, hx=0.25, hy=0.25, r_grid={})
    out = tmp_path / "out"
    assert cli.main(["diagnose", "--config", str(path), "--out", str(out)]) == 2
    assert "'r_grid'" in capsys.readouterr().err
    assert not out.exists()
    # the radii only matter to verbs that run the profile stage
    assert cli.main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == 0

def test_radii_below_the_sphere_floor_exit_before_the_solve(tmp_path, capsys):
    # at h = 1/32 a sphere rule needs r >= 2 max(hx, hy) = 0.0625
    path = write_config(tmp_path, r_grid={"count": 8, "r_min": 0.01})
    out = tmp_path / "out"
    assert cli.main(["diagnose", "--config", str(path), "--out", str(out)]) == 2
    assert "'r_grid'" in capsys.readouterr().err
    assert not (out / "U.npy").exists()


def test_identity_checks_step_down_at_R(tmp_path):
    # fewer than 3 profile radii lie in [0.2 R, 0.8 R], so the checks read
    # them all; H' at the top radius, R itself, is a one-sided step down
    path = write_config(tmp_path, a=0.5, r_grid={"count": 5, "r_min": 0.85, "r_max": 1.0})
    out = tmp_path / "out"
    assert cli.main(["diagnose", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert (out / "manifest.json").exists()
    rel = json.loads((out / "identities.json").read_text())["height_derivative_rel_max"]
    assert 0.0 < rel < 0.01  # measured 1.8e-3


def test_diagnose_evaluates_each_field_density_once(tmp_path, monkeypatch):
    # one evaluation per field, the profile's: the identities stage reads its
    # columns, and classification reads only sphere sums
    import signorini.functionals as functionals

    stage, calls = [None], []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append((name, stage[0]))
            return fn(*args, **kwargs)
        return counted

    def entered(name, run):
        def wrapped(cfg, res):
            stage[0] = name
            return run(cfg, res)
        return wrapped

    for name in ("cell_energy_density", "ball_sums"):
        monkeypatch.setattr(functionals, name, counting(name, getattr(functionals, name)))
    for name, run in list(cli.STAGES.items()):
        monkeypatch.setitem(cli.STAGES, name, entered(name, run))
    out = tmp_path / "run"
    rc = cli.main(["diagnose", "--config", str(write_config(tmp_path)), "--out", str(out),
                   "--quiet"])
    assert rc == 0
    assert len(json.loads((out / "freeboundary.json").read_text())["points"]) == 1
    assert calls == [("cell_energy_density", "profile"), ("ball_sums", "profile")]


def test_diagnose_profile_pipeline(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "run1"
    rc = cli.main(["diagnose", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 0
    for artifact in ("U.npy", "profile.csv", "profile_summary.json",
                     "identities.json", "freeboundary.json", "manifest.json"):
        assert (out / artifact).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["classification_at_origin"] == "Regular"
    assert set(manifest["stage_s"]) == {"solve", "profile", "identities", "freeboundary"}
    assert all(t >= 0.0 for t in manifest["stage_s"].values())
    # the solve's multigrid hierarchy: its build and the total of its updates
    hierarchy = manifest["solver_hierarchy"]
    assert set(hierarchy) == {"build_s", "update_s"}
    assert 0.0 < hierarchy["build_s"] + hierarchy["update_s"] <= manifest["stage_s"]["solve"]
    assert manifest["environment"] == {"python": platform.python_version(),
                                       "numpy": np.__version__, "scipy": scipy.__version__}
    comp = json.loads((out / "identities.json").read_text())["complementarity"]
    assert comp["min_gap_max"] <= 1e-8
    # n = 1's one free-boundary point: the dealt phase forks nothing
    assert json.loads((out / "freeboundary.json").read_text())["n_gamma"] == 1
    assert manifest["freeboundary_processes"] == 1
    assert not {"profile_processes", "identities_processes"} & set(manifest)


def test_diagnose_builds_the_grid_once(tmp_path, monkeypatch):
    # the profile stage's radii and the solve read one grid, in a run of a
    # config with radii (whose check builds a grid when the config is read)
    # and in one without
    calls = []

    def counting(*args):
        calls.append(args)
        return sg.build_grid(*args)

    cfg = cli.ExperimentConfig.from_json(write_config(tmp_path, hx=1 / 16, hy=1 / 16))
    monkeypatch.setattr(cli, "build_grid", counting)
    cli.run(cfg, tmp_path / "run", quiet=True)
    assert calls == [(1, 1.0, 1 / 16, 1 / 16, 0.0)]
    path = write_config(tmp_path, hx=1 / 16, hy=1 / 16, r_grid={})
    assert cli.main(["diagnose", "--config", str(path), "--out", str(tmp_path / "main"),
                     "--quiet"]) == 0
    assert len(calls) == 2


def test_manifest_reports_point_nearest_origin(tmp_path):
    # README config on a 1/96 grid: its only free-boundary point lies three
    # cells left of the origin
    path = write_config(
        tmp_path, a=0.5, hx=1 / 96, hy=1 / 96,
        coefficients=[[{"poly": [[1.0, [0]], [0.1, [1]]]}]],
        solver={"method": "psor", "omega": 1.95, "tol": 1e-10},
        r_grid={"count": 15, "r_min": 0.1},
    )
    out = tmp_path / "run"
    rc = cli.main(["diagnose", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    points = json.loads((out / "freeboundary.json").read_text())["points"]
    nearest = min(points, key=lambda p: np.linalg.norm(p["x0"]))
    assert np.linalg.norm(nearest["x0"]) > 2.1 / 96
    assert manifest["classification_x0"] == nearest["x0"]
    assert manifest["classification_at_origin"] == nearest["class"] == "Regular"
    assert manifest["solver_iterations"] >= 2
    # at least one CG iteration per finest-level solve
    assert manifest["solver_inner_iterations"] >= manifest["solver_iterations"]
    # one record per active-set solve, the coarse levels' first, coarsest
    # first; the finest level's last is the tight one, whose stop is the
    # natural residual at the config's tol
    steps = manifest["solver_steps"]
    levels = [s["level"] for s in steps]
    assert levels == sorted(levels, reverse=True) and levels[0] > 0
    *loose, last = [s for s in steps if s["level"] == 0]
    assert len(loose) + 1 == manifest["solver_iterations"]
    assert all(s == {"level": s["level"], "active": s["active"], "cg_iterations": s["cg_iterations"],
                     "rtol": solver_mod.ACTIVE_SET_LOOSE_RTOL} for s in steps[:-1])
    assert last == steps[-1] == {"level": 0, "active": last["active"],
                                 "cg_iterations": last["cg_iterations"], "tol": 1e-10}
    # the first finest-level set is predicted from the nested start
    assert loose[0]["active"] > 0 and last["active"] > 0
    assert manifest["solver_final_update"] <= 1e-10


def test_profile_csv_schema(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["diagnose", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    header = (out / "profile.csv").read_text().split("\n", 1)[0]
    assert header == (
        "r,H,B,D,I,G,psi,sigma,M,J,Phi,N,Ntilde,W,in_lambda_mask,in_gamma_mask"
    )


def test_reruns_byte_identical(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["diagnose", "--config", str(path), "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["diagnose", "--config", str(path), "--out", str(out2), "--quiet"]) == 0
    for name in ("profile.csv", "profile_summary.json", "identities.json",
                 "freeboundary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_inactive_obstacle_empty_gamma(tmp_path):
    path = write_config(tmp_path, obstacle=-2.0, boundary="oracle:y_power", a=0.5)
    out = tmp_path / "out"
    rc = cli.main(["classify", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 0
    fb = json.loads((out / "freeboundary.json").read_text())
    assert fb["n_gamma"] == 0
    assert fb["points"] == []


def test_solve_verb_writes_field(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 0
    U = np.load(out / "U.npy")
    assert U.shape == (65, 33)


def test_blowup_verb(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["blowup", "--config", str(path), "--out", str(out),
                   "--x0", "0", "--scale", "0.4", "--quiet"])
    assert rc == 0
    assert (out / "blowup.npy").exists()


@pytest.mark.parametrize("x0", ["5", "0,0", "zero"])
def test_blowup_bad_x0_exit_code(tmp_path, capsys, x0):
    path = write_config(tmp_path)
    rc = cli.main(["blowup", "--config", str(path), "--out", str(tmp_path / "out"),
                   "--x0", x0, "--scale", "0.4"])
    assert rc == 2
    assert "--x0" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["0", "-0.5", "inf", "nan"])
def test_blowup_bad_scale_exit_code(tmp_path, capsys, scale):
    path = write_config(tmp_path)
    rc = cli.main(["blowup", "--config", str(path), "--out", str(tmp_path / "out"),
                   "--x0", "0", "--scale", scale])
    assert rc == 2
    assert "--scale" in capsys.readouterr().err


@pytest.mark.parametrize("text,needle", [
    ('{"n": 1,', "config.json"),  # truncated JSON: the file is named
    ("[1, 2]", "JSON object"),  # valid JSON, but not an object
    (None, "missing.json"),  # no such file
])
def test_malformed_config_exit_code(tmp_path, capsys, text, needle):
    path = tmp_path / ("missing.json" if text is None else "config.json")
    if text is not None:
        path.write_text(text)
    rc = cli.main(["diagnose", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert needle in capsys.readouterr().err


def test_sweep_malformed_values_exit_code(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s"),
                   "--param", "a", "--values", "{bad", "--quiet"])
    assert rc == 2
    assert "--values" in capsys.readouterr().err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_every_verb_writes_strict_json(tmp_path):
    path = write_config(tmp_path, hx=1 / 16, hy=1 / 16, r_grid={"count": 12, "r_min": 0.25})
    stages = {
        "solve": {"solve"},
        "classify": {"solve", "freeboundary"},
        "diagnose": {"solve", "profile", "identities", "freeboundary"},
        "blowup": {"solve", "blowup"},
    }
    for verb in stages:
        extra = ["--x0", "0", "--scale", "0.4"] if verb == "blowup" else []
        out = tmp_path / verb
        assert cli.main([verb, "--config", str(path), "--out", str(out), "--quiet", *extra]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["stage_s"]) == stages[verb]
        for name in ("U.npy", "active.npy", "trace.npy"):
            assert (out / name).exists(), (verb, name)
    for a in ("0", "0.5"):
        assert cli.main(["oracle", "--kind", "signorini_profile", "--a", a,
                         "--out", str(tmp_path / f"oracle{a}"), "--quiet"]) == 0
    written = sorted(tmp_path.rglob("*.json"))
    # the config, 4 manifests, classify 1, diagnose 3, blowup 1, oracle 2 x 1
    assert len(written) == 12
    for f in written:
        json.loads(f.read_text(), parse_constant=_reject_constant)


def test_infinite_decay_slope_written_as_string(tmp_path, monkeypatch):
    # decay_fit documents slope = H_slope = inf for a degenerate fit
    real = cli.free_boundary_report

    def report_with_infinite_slope(*args, **kwargs):
        fb = real(*args, **kwargs)
        fb.points[0].update(decay_slope=float("inf"), H_slope=float("inf"))
        return fb

    monkeypatch.setattr(cli, "free_boundary_report", report_with_infinite_slope)
    path = write_config(tmp_path, hx=1 / 16, hy=1 / 16)
    out = tmp_path / "out"
    assert cli.main(["classify", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    fb = json.loads((out / "freeboundary.json").read_text(), parse_constant=_reject_constant)
    assert fb["points"][0]["decay_slope"] == fb["points"][0]["H_slope"] == "inf"


def test_sweep_csv_quotes_cells_with_commas(tmp_path):
    path = write_config(tmp_path, hx=1 / 16, hy=1 / 16, r_grid={"count": 12, "r_min": 0.25})
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(path), "--out", str(out), "--param", "solver",
                   "--values", '{"method":"psor","omgea":1},{"method":"psor","omega":1.9}',
                   "--quiet"])
    assert rc == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert all(len(row) == 9 for row in rows)
    assert rows[1][0] == str({"method": "psor", "omgea": 1})
    assert rows[1][1].startswith("error:") and "omgea" in rows[1][1]
    assert rows[2][1] == "ok"


def test_oracle_verb_and_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "oracle"
    rc = cli.main(["oracle", "--kind", "signorini_profile", "--a", "0.5",
                   "--out", str(out), "--quiet"])
    assert rc == 0
    meta = json.loads((out / "oracle.json").read_text())
    assert meta == {"a": 0.5, "kind": "signorini_profile", "residual": 0.0, "kappa": 1.25}
    # the closed form cannot fail; an exponent outside (-1, 1) is a configuration error
    rc = cli.main(["oracle", "--kind", "signorini_profile", "--a", "1.0",
                   "--out", str(tmp_path / "o2"), "--quiet"])
    assert rc == 2 and not (tmp_path / "o2").exists()
    assert "a must lie in (-1,1)" in capsys.readouterr().err


def test_module_entry_point_exits_with_main_code(tmp_path):
    # `python -m signorini.cli` runs _console_entry, which exits with main's code
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def entry(*args):
        return subprocess.run([sys.executable, "-m", "signorini.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    out = tmp_path / "oracle"
    assert entry("oracle", "--kind", "signorini_profile", "--a", "0.5", "--out", str(out),
                 "--quiet").returncode == 0
    assert (out / "angular_profile.csv").is_file() and (out / "oracle.json").is_file()
    bad = entry("oracle", "--kind", "bogus", "--a", "0.5", "--out", str(out))
    assert bad.returncode == 2 and "kind 'bogus'" in bad.stderr


def test_oracle_takes_the_grid_range_of_a_but_experiments_keep_0_to_1(tmp_path, capsys):
    assert cli.main(["oracle", "--kind", "signorini_profile", "--a", "-0.5",
                     "--out", str(tmp_path / "oracle"), "--quiet"]) == 0
    meta = json.loads((tmp_path / "oracle" / "oracle.json").read_text())
    assert meta["kappa"] == 1.75
    path = write_config(tmp_path, a=-0.5)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "field 'a'" in capsys.readouterr().err
    grid = sg.build_grid(1, 1.0, 0.25, 0.25, -0.5)
    with pytest.raises(InvalidConfigurationError):
        sg.make_problem(grid)


def test_nonconvergence_exit_code(tmp_path, monkeypatch):
    # one solve cannot settle the active set; a failed CG ends the solve
    path = write_config(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(solver_mod, "ACTIVE_SET_MAX_STEPS", 1)
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    monkeypatch.setattr(solver_mod, "_cg", lambda *args: (None, solver_mod.CG_MAX_ITER))
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 3


def test_sweep_over_exponent(tmp_path):
    path = write_config(tmp_path, hx=1 / 24, hy=1 / 24, r_grid={"count": 12, "r_min": 0.2})
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(path), "--out", str(out),
                   "--param", "a", "--values", "0,0.5", "--quiet"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    for row, a in zip(rows, (0.0, 0.5)):
        assert row["status"] == "ok"
        assert float(row["decay_slope"]) == pytest.approx((3 - a) / 2, abs=0.1)


def test_sweep_spacing_ladder_error_decays(tmp_path):
    # refine the extension spacing against a fine thin spacing; the
    # oracle-error column of the sweep table must decay monotonically
    path = write_config(tmp_path, hx=1 / 64, hy=1 / 8,
                        r_grid={"count": 12, "r_min": 0.25})
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(path), "--out", str(out),
                   "--param", "hy", "--values", "0.125,0.0625,0.03125", "--quiet"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    errs = [float(dict(zip(header, ln.split(",")))["oracle_linf_error"]) for ln in lines[1:]]
    assert errs[2] < errs[1] < errs[0]
    assert np.log2(errs[0] / errs[1]) >= 0.8


def test_output_field_fallback(tmp_path):
    out = tmp_path / "from_config"
    path = write_config(tmp_path, output=str(out), hx=1 / 16, hy=1 / 16,
                        r_grid={"count": 12, "r_min": 0.25})
    rc = cli.main(["solve", "--config", str(path), "--quiet"])
    assert rc == 0
    assert (out / "U.npy").exists()


def test_sweep_empty_values(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--config", str(path), "--out", str(out),
                   "--param", "a", "--values", "", "--quiet"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only


def test_sweep_unknown_parameter(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s"),
                   "--param", "nope", "--values", "1", "--quiet"])
    assert rc == 2
    assert "'nope'" in capsys.readouterr().err


def test_n2_classify_writes_graph(tmp_path):
    path = write_config(
        tmp_path, n=2, hx=1 / 16, hy=1 / 16,
        solver={"method": "psor", "omega": 1.8, "tol": 1e-8},
        r_grid={"count": 12, "r_min": 0.2},
    )
    out = tmp_path / "out"
    rc = cli.main(["classify", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 0
    fb = json.loads((out / "freeboundary.json").read_text())
    assert fb["n_gamma"] > 0
    manifest = json.loads((out / "manifest.json").read_text())
    # one process per CPU of the affinity mask, at most one per point
    assert manifest["freeboundary_processes"] == min(len(fb["points"]),
                                                     len(os.sched_getaffinity(0)))
    assert (out / "graph.csv").exists()
    assert fb["graph_error"] is None and fb["gamma_est"] is not None
    rows = (out / "graph.csv").read_text().strip().split("\n")
    assert rows[0] == "s,g"
    assert len(rows) >= 6


def test_penalized_solver_via_config(tmp_path, capsys):
    # the active-set solve is the one obstacle solver: "penalized", once a
    # second method, exits 2 before the solve and names the field
    path = write_config(
        tmp_path, solver={"method": "penalized", "eps": 1e-3}, hx=1 / 24, hy=1 / 24
    )
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 2
    assert "'solver.method'" in capsys.readouterr().err
    assert not out.exists()


def test_tilted_n2_summary_is_strict_json(tmp_path):
    # the tilted n=2 profile calibrates K' and C_weiss to inf; those and the
    # NaN margins must reach the summary as strings, not bare Infinity/NaN
    tilt = {"poly": [[0.25, [0, 0]], [0.1, [1, 0]]]}
    path = write_config(
        tmp_path, n=2, a=0.5, hx=1 / 8, hy=1 / 8,
        coefficients=[[{"poly": [[1.0, [0, 0]], [0.1, [0, 1]]]}, tilt], [tilt, 1.0]],
        solver={"method": "psor", "omega": 1.95, "tol": 1e-10},
        r_grid={"count": 40}, Kprime="calibrate", C_weiss="calibrate",
    )
    out = tmp_path / "run"
    assert cli.main(["diagnose", "--config", str(path), "--out", str(out), "--quiet"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    summary = json.loads((out / "profile_summary.json").read_text(), parse_constant=reject)
    assert summary["Kprime"] == summary["C_weiss"] == summary["Ntilde_min_r"] == "inf"
    assert summary["phi_monotonicity_margin"] == summary["weiss_monotonicity_margin"] == "nan"
    for name in ("identities.json", "manifest.json"):
        json.loads((out / name).read_text(), parse_constant=reject)
    # the diagnostics are dealt once: the report's points over the CPUs,
    # while this process runs the profile and identity checks inline
    manifest = json.loads((out / "manifest.json").read_text())
    points = json.loads((out / "freeboundary.json").read_text())["points"]
    assert len(points) > 1
    assert manifest["freeboundary_processes"] == min(len(points), len(os.sched_getaffinity(0)))
    assert not {"profile_processes", "identities_processes"} & set(manifest)
