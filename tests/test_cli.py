"""End-to-end tests of the INI-driven experiment runner."""

import configparser
import csv
import functools
import weakref

import numpy as np
import pytest

from qgbsde import cli, sde
from qgbsde.cli import get_ensemble, main
from qgbsde.model import Partition, make_brownian, make_quadratic
from qgbsde.oracle import cole_hopf_from_model, cole_hopf_increment_stat
from qgbsde.sde import (dump_ensemble, flow_identity_residual, load_ensemble,
                        simulate_forward, simulate_variational)

BASE = """
[model]
name = brownian

[grid]
n_steps = 4

[mc]
n_paths = 500
seed = 3

[solver]
basis = global_polynomial
degree = 2
"""


@pytest.fixture(autouse=True)
def _no_cache(monkeypatch):
    monkeypatch.delenv("QGBSDE_CACHE_DIR", raising=False)


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_report(out_dir):
    lines = (out_dir / "report.csv").read_text().splitlines()
    assert lines[0].startswith("# generated ")
    return lines[0], list(csv.DictReader(lines[1:]))


def test_solve_writes_full_artifact_set(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    stamp, rows = _read_report(out)
    names = {r["statistic_name"] for r in rows}
    assert {"y0", "z0", "y0_reference", "y0_abs_error", "z0_reference",
            "y0_quadrature", "y0_vs_quadrature"} <= names
    for r in rows:
        assert r["model"] == "brownian"
        assert r["N"] == "4"
        assert r["P"] == "500"
        assert r["seed"] == "3"
        assert r["experiment_id"] == "solve_brownian"
        float(r["value"])
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("command: solve\n")
    assert not (out / "ensemble.bin").exists()

    resolved = configparser.ConfigParser()
    resolved.read(out / "config_resolved.ini")
    for sec, keys in (("grid", ("n_steps", "refine_factor", "ladder")),
                      ("mc", ("n_paths", "seed", "workers")),
                      ("solver", ("basis", "degree", "cells_per_dim",
                                  "picard_iters", "clamp", "space_nodes",
                                  "gh_nodes", "space_bound")),
                      ("truncation", ("level", "levels", "reference_level",
                                      "oracle_reference")),
                      ("outputs", ("directory", "experiment_id", "write_ensemble"))):
        for key in keys:
            assert resolved.has_option(sec, key), f"[{sec}] {key} missing"
    assert resolved["grid"]["n_steps"] == "4"
    assert resolved["solver"]["space_bound"] == "auto"


def test_config_errors_exit_2_and_write_nothing(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a bad config must be rejected before any simulation")

    monkeypatch.setattr(cli, "simulate_forward", never)
    bad = (
        (BASE + "\n[plotting]\nstyle = dark\n", []),          # unknown section
        (BASE + "\n[truncation]\nlevels = 3 2 1\n", []),      # not increasing
        (BASE.replace("n_paths = 500", "n_paths = 50"), []),  # too few paths
        (BASE.replace("name = brownian", "name = heston"), []),
        (BASE.replace("n_steps = 4", "n_steps = few"), []),
        (BASE + "\n[outputs]\nformat = json\n", []),          # unknown key
        (BASE.replace("[mc]", "[mc]\ngamma = 1.0"), []),      # model key under [mc]
        (BASE.replace("seed = 3", "seed = 3\nworkers = 0"), []),
        (BASE, ["--workers", "0"]),
        (BASE.replace("seed = 3", "seed = -1"), []),
        (BASE.replace("seed = 3", f"seed = {2 ** 64}"), []),
        (BASE, ["--seed", "-1"]),
        (BASE + "space_nodes = 0\n", []),
        (BASE + "gh_nodes = 0\n", []),
        (BASE + "\n[truncation]\nlevel = -1\n", []),
        (BASE + "\n[truncation]\nlevels = 1 2\nreference_level = 2\n", []),
        (BASE.replace("name = brownian", "name = quadratic\nsigma = nan"), []),
        (BASE.replace("name = brownian", "name = brownian\nhorizon = nan"), []),
        (BASE.replace("name = brownian", "name = brownian\nx0 = inf"), []),
        (BASE + "space_bound = -1\n", []),
        (BASE + "space_bound = 0\n", []),
    )
    for i, (text, flags) in enumerate(bad):
        cfg = _write(tmp_path, text, name=f"bad{i}.ini")
        out = tmp_path / f"bad_out{i}"
        assert main(["--config", cfg, "--out", str(out), *flags]) == 2, (i, text, flags)
        assert not out.exists()
    assert main(["--config", str(tmp_path / "absent.ini")]) == 2


def test_wrong_growth_certificate_exits_2(tmp_path, monkeypatch):
    @functools.wraps(make_quadratic)
    def understated(**kwargs):
        return make_quadratic(**kwargs).with_driver(growth_M=0.1)

    monkeypatch.setitem(cli.PRESETS, "quadratic", understated)
    cfg = _write(tmp_path, BASE.replace("name = brownian", "name = quadratic\ngamma = 2.0"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_resolved_config_reproduces_the_run(tmp_path):
    # a level that %g would round must be written back exactly
    cfg = _write(tmp_path, BASE.replace("name = brownian", "name = quadratic")
                 + "\n[truncation]\nlevels = 0.3333333333 1.0\n")
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["--config", cfg, "--command", "all", "--out", str(first)]) == 0
    assert main(["--config", str(first / "config_resolved.ini"), "--command", "all",
                 "--out", str(again)]) == 0
    assert _report_body(again) == _report_body(first)

    def resolved(out):
        text = (out / "config_resolved.ini").read_text()
        assert f"directory = {out}\n" in text
        return text.replace(f"directory = {out}\n", "")

    assert resolved(again) == resolved(first)


def test_model_key_for_wrong_preset_is_rejected(tmp_path):
    # gamma is a quadratic-family knob and must not silently no-op elsewhere
    cfg = _write(tmp_path, BASE.replace("name = brownian",
                                        "name = brownian\ngamma = 1.0"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_duplicate_sections_are_malformed(tmp_path):
    cfg = _write(tmp_path, BASE + "\n[model]\nname = gbm\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_runtime_failure_exits_1_without_artifacts(tmp_path):
    text = """
[model]
name = discount
rate = 3.0

[grid]
n_steps = 1

[mc]
n_paths = 500
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


def test_truncate_sweep_rejects_lipschitz_driver(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--command", "truncate_sweep",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_reports_identical_across_worker_counts(tmp_path):
    cfg = _write(tmp_path, BASE)
    bodies, summaries = [], []
    for w in (1, 2, 3):
        out = tmp_path / f"w{w}"
        assert main(["--config", cfg, "--out", str(out), "--workers", str(w)]) == 0
        body = (out / "report.csv").read_text().split("\n", 1)[1]
        bodies.append(body)
        summaries.append((out / "summary.txt").read_text())
    assert bodies[0] == bodies[1] == bodies[2]
    assert summaries[0] == summaries[1] == summaries[2]


def test_ensemble_cache_roundtrip(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("QGBSDE_CACHE_DIR", str(cache))
    cfg = _write(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    cached = list(cache.glob("ens_*.bin"))
    assert len(cached) == 1
    ens = load_ensemble(cached[0])
    assert ens.n_paths == 500 and ens.seed == 3
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    assert list(cache.glob("ens_*.bin")) == cached
    body1 = (out1 / "report.csv").read_text().split("\n", 1)[1]
    body2 = (out2 / "report.csv").read_text().split("\n", 1)[1]
    assert body1 == body2


def test_ensemble_cache_keeps_model_parameters_apart(tmp_path, monkeypatch):
    # make_quadratic names every model quadratic_<terminal>, so a key on the
    # name alone handed the sigma = 1 paths to a sigma = 2 run
    def body(out):
        return (out / "report.csv").read_text().split("\n", 1)[1]

    text = BASE.replace("name = brownian", "name = quadratic\nsigma = {}")
    uncached = {}
    for sigma in (1.0, 2.0):
        cfg = _write(tmp_path, text.format(sigma), name=f"s{sigma}.ini")
        out = tmp_path / f"plain{sigma}"
        assert main(["--config", cfg, "--command", "simulate", "--out", str(out)]) == 0
        uncached[sigma] = body(out)
    assert uncached[1.0] != uncached[2.0]
    monkeypatch.setenv("QGBSDE_CACHE_DIR", str(tmp_path / "cache"))
    for sigma in (1.0, 2.0, 1.0):
        cfg = _write(tmp_path, text.format(sigma), name=f"s{sigma}.ini")
        out = tmp_path / f"cached{sigma}"
        assert main(["--config", cfg, "--command", "simulate", "--out", str(out)]) == 0
        assert body(out) == uncached[sigma]
    assert len(list((tmp_path / "cache").glob("ens_*.bin"))) == 2


def _report_body(out):
    return (out / "report.csv").read_text().split("\n", 1)[1]


@pytest.mark.parametrize("damage", ["truncated", "wrong_times"])
def test_rejected_cache_file_is_rebuilt_with_a_note(tmp_path, monkeypatch, damage):
    cfg = _write(tmp_path, BASE)
    assert main(["--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    cache = tmp_path / "cache"
    monkeypatch.setenv("QGBSDE_CACHE_DIR", str(cache))
    assert main(["--config", cfg, "--out", str(tmp_path / "first")]) == 0
    (path,) = cache.glob("ens_*.bin")
    if damage == "truncated":
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
    else:
        # the requested paths on another four-step grid, under the same key
        other = Partition(np.array([0.0, 0.1, 0.5, 0.7, 1.0]))
        dump_ensemble(simulate_forward(make_brownian(), other, 500, 3), path)
    out = tmp_path / "rebuilt"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert f"cache file {path.name} rejected" in (out / "summary.txt").read_text()
    assert _report_body(out) == _report_body(tmp_path / "plain")
    np.testing.assert_array_equal(load_ensemble(path).partition.times,
                                  Partition.uniform(1.0, 4).times)
    assert sorted(p.name for p in cache.iterdir()) == [path.name]  # no temp file left
    out = tmp_path / "reused"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert "rejected" not in (out / "summary.txt").read_text()


def test_all_simulates_each_grid_once(tmp_path, monkeypatch):
    grids = []

    def counting(model, partition, *args, **kwargs):
        grids.append(partition.n_steps)
        return simulate_forward(model, partition, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate_forward", counting)
    cfg = _write(tmp_path, BASE.replace("name = brownian", "name = quadratic")
                 + "\n[truncation]\nlevels = 0.5 1.0\n")
    assert main(["--config", cfg, "--command", "all", "--out", str(tmp_path / "o")]) == 0
    # solve and the sweep share the 4-step ensemble; diagnose needs the fine one
    assert grids == [4, 16]


def test_diagnose_releases_the_fine_ensemble(tmp_path, monkeypatch):
    handed_out = []
    alive_at_flow = []
    residuals = []

    def recording(ctx, partition, *args, **kwargs):
        ens = get_ensemble(ctx, partition, *args, **kwargs)
        handed_out.append((partition.n_steps, weakref.ref(ens)))
        return ens

    def checking(model, ensemble, *args, **kwargs):
        alive_at_flow.extend(n for n, ref in handed_out if ref() is not None)
        return simulate_variational(model, ensemble, *args, **kwargs)

    def counting(ensemble):
        residuals.append(flow_identity_residual(ensemble))
        return residuals[-1]

    monkeypatch.setattr(cli, "get_ensemble", recording)
    monkeypatch.setattr(cli, "simulate_variational", checking)
    monkeypatch.setattr(sde, "flow_identity_residual", counting)
    cfg = _write(tmp_path, BASE.replace("n_steps = 4", "n_steps = 4\nrefine_factor = 2"))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--command", "diagnose", "--out", str(out)]) == 0
    assert [n for n, _ in handed_out] == [8]
    assert alive_at_flow == []
    # computed once, inside simulate_variational, and reported as it was
    _, rows = _read_report(out)
    row = [r for r in rows if r["statistic_name"] == "flow_identity_residual"]
    assert len(residuals) == 1 and [float(r["value"]) for r in row] == residuals


def test_truncate_sweep_identical_across_worker_counts(tmp_path):
    # 70k paths span three RNG and Euler blocks and two regression blocks;
    # the batched sweep must not depend on how the forward work was split
    cfg = _write(tmp_path, """
[model]
name = quadratic

[grid]
n_steps = 4

[mc]
n_paths = 70000
seed = 3

[truncation]
levels = 0.5 1 2 4
oracle_reference = true
""")
    bodies = []
    for w in (1, 2, 3):
        out = tmp_path / f"w{w}"
        assert main(["--config", cfg, "--command", "truncate_sweep", "--out", str(out),
                     "--workers", str(w)]) == 0
        bodies.append((out / "report.csv").read_text().split("\n", 1)[1])
    assert bodies[0] == bodies[1] == bodies[2]
    names = [r["statistic_name"] for r in _read_report(tmp_path / "w1")[1]]
    assert names.count("trunc_y0_abs_error_vs_oracle") == 4


def test_strict_mode_turns_warnings_into_failure(tmp_path):
    # an undersized space grid makes the quadrature cross-check bail out with
    # a warning; strict mode promotes that to a nonzero exit
    text = BASE + "\nspace_bound = 0.5\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "lax"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert "WARNING" in (out / "summary.txt").read_text()
    out2 = tmp_path / "strict"
    assert main(["--config", cfg, "--out", str(out2), "--strict"]) == 1
    assert (out2 / "report.csv").exists()  # artifacts still written


def test_seed_override_and_experiment_id(tmp_path):
    cfg = _write(tmp_path, BASE + "\n[outputs]\nexperiment_id = trial9\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--seed", "11"]) == 0
    _, rows = _read_report(out)
    assert {r["seed"] for r in rows} == {"11"}
    assert {r["experiment_id"] for r in rows} == {"trial9"}
    resolved = configparser.ConfigParser()
    resolved.read(out / "config_resolved.ini")
    assert resolved["mc"]["seed"] == "11"


def test_simulate_writes_ensemble(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--command", "simulate", "--out", str(out)]) == 0
    ens = load_ensemble(out / "ensemble.bin")
    assert ens.n_paths == 500
    _, rows = _read_report(out)
    names = {r["statistic_name"] for r in rows}
    assert {"x_terminal_mean", "x_terminal_sq_mean", "x_max_abs"} <= names


def test_converge_reports_ladder_rows(tmp_path):
    text = BASE.replace("n_steps = 4",
                        "n_steps = 4\nladder = 2 4 8\nrefine_factor = 2")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--command", "converge", "--out", str(out)]) == 0
    _, rows = _read_report(out)
    per_n = {(r["statistic_name"], r["N"]) for r in rows}
    for n in (2, 4, 8):
        assert ("z_regularity_sum", str(n)) in per_n
        assert ("y_increment_sq", str(n)) in per_n
        assert ("y_increment_ratio", str(n)) in per_n
    names = {r["statistic_name"] for r in rows}
    assert "order_z_regularity" in names
    assert "order_z_regularity_r2" in names
    # the identity model keeps its driver Lipschitz, so the quadratic-family
    # ratio band must not be asserted, only reported
    summary = (out / "summary.txt").read_text()
    assert "y increment / mesh ratios" in summary


QUADRATIC = """
[model]
name = quadratic
kappa = {kappa}

[grid]
n_steps = 4
ladder = {ladder}
refine_factor = 2

[mc]
n_paths = 2000
seed = 3

[solver]
degree = 2

[truncation]
level = 6.0
"""


def test_converge_checks_quadratic_model_against_closed_form(tmp_path):
    # the closed-form rows and the band check are asserted, not its verdict:
    # at this P and degree that reflects the regression's bias near T
    for kappa, ladder in ((1.0, (2, 4)), (2.0, (4, 8))):
        cfg = _write(tmp_path, QUADRATIC.format(
            kappa=kappa, ladder=" ".join(map(str, ladder))))
        out = tmp_path / f"out{kappa:g}"
        assert main(["--config", cfg, "--command", "converge", "--out",
                     str(out)]) == 0
        _, rows = _read_report(out)
        exact = {r["N"]: float(r["value"]) for r in rows
                 if r["statistic_name"] == "y_increment_ratio_closed_form"}
        base = Partition.uniform(1.0, ladder[0])
        assert exact[str(ladder[0])] == pytest.approx(
            cole_hopf_increment_stat(make_quadratic(kappa=kappa), base,
                                     base.refine(2)) / base.mesh, rel=1e-12)
        assert set(exact) == set(map(str, ladder))
        summary = (out / "summary.txt").read_text()
        assert "y increment / closed-form value" in summary
        assert "within [0.5, 2.0] x its closed-form value" in summary
        assert "y increment / mesh ratios" not in summary
        assert "closed-form increment statistic unavailable" not in summary


def test_solve_on_steep_terminal_has_closed_form_under_strict(tmp_path):
    # tanh(2 x) is steep enough that Gauss-Hermite lost the closed form; the
    # lattice rule keeps it, so strict mode has no warning to fail on
    cfg = _write(tmp_path, QUADRATIC.format(kappa=2.0, ladder="4 8"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--strict"]) == 0
    _, rows = _read_report(out)
    ref = {r["statistic_name"]: float(r["value"]) for r in rows}
    assert ref["y0_reference"] == pytest.approx(
        cole_hopf_from_model(make_quadratic(kappa=2.0)).y0, abs=1e-15)
    assert "oracle unavailable" not in (out / "summary.txt").read_text()


def test_all_command_on_quadratic_model(tmp_path):
    text = """
[model]
name = quadratic
gamma = 1.0
terminal = tanh

[grid]
n_steps = 4
refine_factor = 2

[mc]
n_paths = 500
seed = 3

[solver]
basis = global_polynomial
degree = 2

[truncation]
level = 6.0
levels = 0.5 1.0
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--command", "all", "--out", str(out)]) == 0
    _, rows = _read_report(out)
    names = {r["statistic_name"] for r in rows}
    assert {"y0", "y0_reference", "trunc_err_y", "trunc_realized_max_z",
            "y_increment_sq", "z_regularity_sum", "bmo_estimate",
            "bmo_bound_value", "representation_rms"} <= names
    trunc_rows = [r for r in rows if r["statistic_name"] == "trunc_err_y"]
    assert {r["n_trunc"] for r in trunc_rows} == {"0.5", "1"}
    summary = (out / "summary.txt").read_text()
    assert "driver truncated at level 6" in summary
