"""End-to-end tests of the INI-driven experiment runner."""

import configparser
import csv
import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from qgbsde import cli, diagnostics, solver
from qgbsde.cli import get_ensemble, main
from qgbsde.errors import QuadratureUnstable
from qgbsde.model import Partition, make_brownian, make_quadratic
from qgbsde.oracle import cole_hopf_from_model, cole_hopf_increment_stat
from qgbsde.regression import RegressionBasis, step_design
from qgbsde.sde import (dump_ensemble, load_ensemble, simulate_forward,
                        simulate_variational)
from qgbsde.solver import solve_backward_regression

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
                      ("solver", ("basis", "degree", "cells_per_dim")),
                      ("truncation", ("level", "levels", "oracle_reference")),
                      ("outputs", ("directory", "experiment_id"))):
        for key in keys:
            assert resolved.has_option(sec, key), f"[{sec}] {key} missing"
    assert resolved["grid"]["n_steps"] == "4"


def test_solve_reports_conditional_standard_errors(tmp_path, monkeypatch):
    # y0 and z0 are means at the constant t = 0 design, so their std_error
    # is the step-0 residual RMS of the same solve over sqrt(P)
    solved = []

    def keep(*args, **kwargs):
        solved.append(solve_backward_regression(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_backward_regression", keep)
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, BASE), "--out", str(out)]) == 0
    rows = {r["statistic_name"]: r for r in _read_report(out)[1]}
    meta = solved[0].meta
    y0_se, z0_se = float(rows["y0"]["std_error"]), float(rows["z0"]["std_error"])
    assert y0_se == meta.y_residual_rms[0] / np.sqrt(500) > 0
    assert z0_se == meta.z_residual_rms[0] / np.sqrt(500) > 0
    assert rows["y0_reference"]["std_error"] == ""
    summary = (out / "summary.txt").read_text()
    assert f"std_error: y0 {y0_se:.3e}, z0 {z0_se:.3e} (conditional on the fitted " \
           "regressions, not seed-to-seed error)" in summary


# config_resolved.ini as written before the |Y| clamp, the quadrature's grid
# settings, reference_level and write_ensemble were deleted
OLD_RESOLVED = """
[model]
name = brownian
x0 = 0.0
horizon = 1.0
kappa = 1.0
terminal = identity

[grid]
n_steps = 4
refine_factor = 4
ladder = 8 16 32 64

[mc]
n_paths = 500
seed = 3
workers = 1

[solver]
basis = global_polynomial
degree = 2
cells_per_dim = 50
picard_iters = 3
clamp = false
space_nodes = 128
gh_nodes = 64
space_bound = auto

[truncation]
level = 10.0
levels = 1 2 3 4 6 8
reference_level = 16.0
oracle_reference = false

[outputs]
directory = qgbsde_out
experiment_id = solve_brownian
write_ensemble = false
"""


def test_config_errors_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a bad config must be rejected before any simulation")

    monkeypatch.setattr(cli, "simulate_forward", never)
    bad = (
        (BASE + "\n[plotting]\nstyle = dark\n", []),          # unknown section
        (BASE + "\n[truncation]\nlevels = 3 2 1\n", []),      # not increasing
        (BASE + "\n[truncation]\nlevels = 1 inf\n", []),
        (BASE + "\n[truncation]\nlevels = 1 nan\n", []),
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
        (BASE + "\n[truncation]\nlevel = -1\n", []),
        (BASE + "\n[truncation]\nlevels = 1 2\nreference_level = 2\n", []),
        (BASE.replace("name = brownian", "name = quadratic\nsigma = nan"), []),
        (BASE.replace("name = brownian", "name = brownian\nhorizon = nan"), []),
        (BASE.replace("name = brownian", "name = brownian\nx0 = inf"), []),
        (OLD_RESOLVED, []),                                   # deleted settings
    )
    for i, (text, flags) in enumerate(bad):
        cfg = _write(tmp_path, text, name=f"bad{i}.ini")
        out = tmp_path / f"bad_out{i}"
        assert main(["--config", cfg, "--out", str(out), *flags]) == 2, (i, text, flags)
        assert not out.exists()
    assert ("unknown keys: [solver] clamp, [solver] gh_nodes, [solver] picard_iters, "
            "[solver] space_bound, [solver] space_nodes, [truncation] reference_level, "
            "[outputs] write_ensemble"
            ) in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "absent.ini")]) == 2


def test_wrong_growth_certificate_exits_2(tmp_path, monkeypatch):
    @functools.wraps(make_quadratic)
    def understated(**kwargs):
        return dataclasses.replace(make_quadratic(**kwargs), growth_M=0.1)

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


def test_unusable_output_directory_exits_2_before_simulating(tmp_path, monkeypatch,
                                                            capsys):
    def never(*args, **kwargs):
        raise AssertionError("a bad directory must be rejected before any simulation")

    monkeypatch.setattr(cli, "simulate_forward", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _write(tmp_path, BASE)
    for out in (blocker / "sub", blocker):
        assert main(["--config", cfg, "--out", str(out)]) == 2
        assert f"[outputs] directory must be a writable directory or creatable in " \
               f"one, got {out}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.ini"]
    assert blocker.read_text() == ""


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


def test_unwritable_cache_directory_is_a_warning(tmp_path, monkeypatch):
    cfg = _write(tmp_path, BASE)
    assert main(["--config", cfg, "--out", str(tmp_path / "plain"), "--strict"]) == 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("QGBSDE_CACHE_DIR", str(blocker / "cache"))
    out = tmp_path / "cached"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert _report_body(out) == _report_body(tmp_path / "plain")
    assert "WARNING: cache file ens_" in (out / "summary.txt").read_text()
    assert " not written (" in (out / "summary.txt").read_text()
    assert main(["--config", cfg, "--out", str(tmp_path / "strict"), "--strict"]) == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("damage", ["truncated", "wrong_times", "non_finite"])
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
    elif damage == "non_finite":
        ens = load_ensemble(path)
        ens.states[123, 2, 0] = np.nan
        dump_ensemble(ens, path)
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
    alive_at_rows = []
    residuals = []

    def recording(ctx, partition, *args, **kwargs):
        ens = get_ensemble(ctx, partition, *args, **kwargs)
        # the states and the array that owns their memory, not the ensemble
        # object: a coarse view or a result that kept either would keep the
        # fine states alive after the ensemble has gone
        refs = [weakref.ref(a) for a in (ens.states, ens.states.base)]
        handed_out.append((partition.n_steps, refs))
        return ens

    def checking(self, *args, **kwargs):
        alive_at_rows.extend(n for n, refs in handed_out
                             if any(ref() is not None for ref in refs))
        return add(self, *args, **kwargs)

    def keeping(model, ensemble):
        served, resid = simulate_variational(model, ensemble)
        residuals.append(resid)
        return served, resid

    add = cli.RunContext.add
    monkeypatch.setattr(cli, "get_ensemble", recording)
    monkeypatch.setattr(cli.RunContext, "add", checking)
    monkeypatch.setattr(diagnostics, "simulate_variational", keeping)
    cfg = _write(tmp_path, BASE.replace("n_steps = 4", "n_steps = 4\nrefine_factor = 2"))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--command", "diagnose", "--out", str(out)]) == 0
    assert [n for n, _ in handed_out] == [8]
    # the fine states go with the pass, before the first row is written
    assert alive_at_rows == []
    # measured once, inside simulate_variational, and reported as it was
    _, rows = _read_report(out)
    row = [r for r in rows if r["statistic_name"] == "flow_identity_residual"]
    assert len(residuals) == 1
    assert [float(r["value"]) for r in row] == residuals


def _count_step_designs(monkeypatch):
    steps = []

    def counting(basis, x, step=None):
        steps.append(step)
        return step_design(basis, x, step=step)

    for module in (solver, diagnostics):  # the only modules that build designs
        monkeypatch.setattr(module, "step_design", counting)
    return steps


SMALL_QUADRATIC = BASE.replace("name = brownian", "name = quadratic").replace(
    "n_steps = 4", "n_steps = 4\nrefine_factor = 2\nladder = 2 4") + """
[truncation]
levels = 0.5 1.0
"""


@pytest.mark.parametrize("command, extra, calls", [
    # one design per fine node of the pass: the coarse node's serves the
    # coarse step, the fine step there, and the BMO and gradient checks
    ("diagnose", "", 8),
    # plus one per step for the sweep, which solves the run's level too
    ("all", "", 4 + 8),
    # a level on the ladder is that ladder row of the sweep
    ("all", "level = 1.0\n", 4 + 8),
    ("converge", "", 2 * 2 + 2 * 4),
], ids=["diagnose-8", "all-12", "all-on-ladder-12", "converge-12"])
def test_each_design_is_built_once(tmp_path, monkeypatch, command, extra, calls):
    steps = _count_step_designs(monkeypatch)
    cfg = _write(tmp_path, SMALL_QUADRATIC + extra)
    assert main(["--config", cfg, "--command", command, "--out", str(tmp_path / "o")]) == 0
    assert len(steps) == calls


_NOT_GRADIENT = ("y_increment_sq", "y_increment_ratio", "z_regularity_sum",
                 "z_regularity_node", "z_regularity_left_endpoint", "z_increment_sq",
                 "bmo_estimate", "bmo_plain", "bmo_bound_value")


@pytest.mark.parametrize("variant, warning", [
    # f_y = 3 makes the gradient's implicit factor 1 - dt f_y = 0.25 from
    # t < 0.5 on: the gradient fails at coarse node 1 of 4, mid-pass
    (dict(f_y=lambda t, x, y, z: np.full(x.shape[0], 3.0 if t < 0.5 else 0.0)),
     "implicit factor 1 - dt f_y reached 2.500e-01; refine the grid (step 1)"),
    (dict(b_jac=None), "model 'quadratic_tanh_n10' does not supply b_jac"),
], ids=["stiff_f_y", "no_b_jac"])
def test_diagnose_without_the_gradient_writes_every_other_row(tmp_path, monkeypatch,
                                                               capsys, variant, warning):
    cfg = _write(tmp_path, SMALL_QUADRATIC)
    assert main(["--config", cfg, "--command", "diagnose", "--out", str(tmp_path / "a")]) == 0
    _, rows = _read_report(tmp_path / "a")
    full = {r["statistic_name"]: r["value"] for r in rows}
    assert {"flow_identity_residual", "representation_rms"} <= set(full)

    @functools.wraps(make_quadratic)
    def variant_model(**kwargs):
        return dataclasses.replace(make_quadratic(**kwargs), **variant)

    monkeypatch.setitem(cli.PRESETS, "quadratic", variant_model)
    capsys.readouterr()
    assert main(["--config", cfg, "--command", "diagnose", "--out", str(tmp_path / "b")]) == 0
    _, rows = _read_report(tmp_path / "b")
    assert {r["statistic_name"]: r["value"] for r in rows} == {
        name: full[name] for name in _NOT_GRADIENT}
    line = f"variational check skipped: {warning}"
    assert f"warning: {line}" in capsys.readouterr().err.splitlines()
    assert f"WARNING: {line}" in (tmp_path / "b" / "summary.txt").read_text()


def test_each_diagnosis_field_feeds_the_row_of_its_name(tmp_path, monkeypatch):
    kept = []

    def keeping(*args):
        kept.append(run(*args))
        return kept[-1]

    run = cli.diagnose_pass
    monkeypatch.setattr(cli, "diagnose_pass", keeping)
    cfg = _write(tmp_path, SMALL_QUADRATIC)
    assert main(["--config", cfg, "--command", "diagnose", "--out", str(tmp_path / "o")]) == 0
    [diag] = kept
    _, rows = _read_report(tmp_path / "o")
    values = {r["statistic_name"]: float(r["value"]) for r in rows}
    assert len(values) == len(rows)
    for name in ("bmo_estimate", "bmo_plain", "flow_identity_residual"):
        assert values[name] == getattr(diag, name)
    # the report's one mean and one max of the per-node arrays
    assert values["representation_rms"] == diag.representation_rms.mean()
    assert values["representation_max"] == diag.representation_max.max()


def _diagnose_extra_columns(tmp_path, monkeypatch, P, N):
    """The peak that diagnose adds to the traced memory once the fine
    ensemble exists, in columns of P float64 values."""
    grown = []

    def measuring(ctx, partition, *args, **kwargs):
        ens = get_ensemble(ctx, partition, *args, **kwargs)
        grown.append(ens.states.nbytes)
        tracemalloc.reset_peak()
        grown.append(tracemalloc.get_traced_memory()[0])
        return ens

    monkeypatch.setattr(cli, "get_ensemble", measuring)
    cfg = _write(tmp_path, SMALL_QUADRATIC.replace("n_steps = 4", f"n_steps = {N}")
                 .replace("n_paths = 500", f"n_paths = {P}"))
    tracemalloc.start()
    try:
        assert main(["--config", cfg, "--command", "diagnose",
                     "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fine_bytes, at_ensemble = grown
    assert fine_bytes == 8 * P * (2 * N + 1)
    return (peak - at_ensemble) / (8 * P)


def test_diagnose_stores_no_coarse_solution(tmp_path, monkeypatch):
    # numpy reports its buffers to tracemalloc. Once the fine ensemble
    # exists, the pass adds the flows, at most N + 1 coarse columns, and
    # one node's temporaries, fewer than 48; the paths carry no increments.
    # The coarse Y and Z, the BMO tail sums or gradY and gradZ, stored,
    # would add N columns each.
    N = 48
    extra_columns = _diagnose_extra_columns(tmp_path, monkeypatch, 2000, N)
    # about 260 with the coarse solution, the tail sums, the flows' inverses
    # and the gradient arrays all stored
    assert extra_columns < (N + 1) + 48, extra_columns


def test_diagnose_holds_the_flows_at_checkpoints(tmp_path, monkeypatch):
    # the flows at every ceil(sqrt(N + 1)) = 7th node, 7 columns, and one
    # segment of at most 7 more, beside one node's temporaries; the whole
    # flow would be N + 1 = 49 columns
    N = 48
    extra_columns = _diagnose_extra_columns(tmp_path, monkeypatch, 2000, N)
    assert extra_columns < 2 * math.ceil(math.sqrt(N + 1)) + 48, extra_columns


def test_truncate_sweep_identical_across_worker_counts(tmp_path):
    # 70k paths span nine RNG and Euler blocks of at most 8192 paths;
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
    # at vol = 0.5 no space grid holds the gbm terminal mass, so the
    # quadrature cross-check bails out with a warning; strict mode promotes
    # that to a nonzero exit
    cfg = _write(tmp_path, BASE.replace("name = brownian", "name = gbm\nvol = 0.5"))
    out = tmp_path / "lax"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert "WARNING" in (out / "summary.txt").read_text()
    out2 = tmp_path / "strict"
    assert main(["--config", cfg, "--out", str(out2), "--strict"]) == 1
    assert (out2 / "report.csv").exists()  # artifacts still written


def test_gbm_solve_runs_its_quadrature_cross_check_under_strict(tmp_path, capsys):
    # sigma grows linearly in x, so the first space grid leaks too much mass
    # and the quadrature doubles it; on that grid Euler's E[X_T] is exact
    cfg = _write(tmp_path, BASE.replace("name = brownian", "name = gbm")
                 .replace("n_steps = 4", "n_steps = 16"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--strict"]) == 0
    assert "warning" not in capsys.readouterr().err
    assert "WARNING" not in (out / "summary.txt").read_text()
    rows = {r["statistic_name"]: float(r["value"]) for r in _read_report(out)[1]}
    assert rows["y0_quadrature"] == pytest.approx((1 + 0.05 / 16) ** 16, abs=1e-12)


def test_simulate_writes_the_paths_solve_uses(tmp_path):
    cfg = _write(tmp_path, BASE)
    sim, solved = tmp_path / "sim", tmp_path / "solve"
    assert main(["--config", cfg, "--command", "simulate", "--out", str(sim)]) == 0
    assert main(["--config", cfg, "--out", str(solved)]) == 0
    rows = {r["statistic_name"]: float(r["value"]) for r in _read_report(solved)[1]}
    sol = solve_backward_regression(make_brownian(), load_ensemble(sim / "ensemble.bin"),
                                    RegressionBasis(kind="global_polynomial", degree=2))
    assert sol.y0 == rows["y0"]


def test_readme_settings_table_lists_every_setting():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = re.findall(r"^\| `\[(\w+)\] (\w+)`", readme, flags=re.MULTILINE)
    assert documented == [(s.section, s.key) for s in cli._SETTINGS]


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
    x_max_abs, = (r["value"] for r in rows if r["statistic_name"] == "x_max_abs")
    assert x_max_abs == repr(float(np.abs(ens.states).max()))


def test_cli_imports_no_heavy_scipy_subpackage():
    # in a fresh interpreter: the test session itself imports scipy.integrate
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("scipy.interpolate", "scipy.optimize", "scipy.linalg", "scipy.sparse")
    code = ("import sys, qgbsde.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


_REGULARITY_ROWS = ("y_increment_sq", "y_increment_ratio", "z_regularity_sum",
                    "z_regularity_node", "z_regularity_left_endpoint",
                    "z_increment_sq")


def _regularity_values(rows, n):
    """{name: (value, std_error)} of the regularity rows at N = n, in report
    order."""
    return {r["statistic_name"]: (r["value"], r["std_error"]) for r in rows
            if r["N"] == str(n) and r["statistic_name"] in _REGULARITY_ROWS}


def test_converge_reports_ladder_rows(tmp_path):
    text = BASE.replace("n_steps = 4",
                        "n_steps = 4\nladder = 2 4 8\nrefine_factor = 2")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--command", "converge", "--out", str(out)]) == 0
    _, rows = _read_report(out)
    basis = RegressionBasis(kind="global_polynomial", degree=2)
    for n in (2, 4, 8):
        # each rung writes the six rows of its pass, in diagnose's order
        ens = simulate_forward(make_brownian(), Partition.uniform(1.0, n).refine(2),
                               500, seed=3)
        reg = diagnostics.regularity_pass(make_brownian(), ens, 2, basis)
        mesh = diagnostics._coarsen(ens, 2).partition.mesh
        want = (reg.y_increment_sq, reg.y_increment_sq / mesh,
                reg.z_regularity_sum, reg.z_regularity_node,
                reg.z_regularity_left_endpoint, reg.z_increment_sq)
        assert list(_regularity_values(rows, n).items()) == [
            (name, (repr(float(v)), "")) for name, v in zip(_REGULARITY_ROWS, want)]
    names = {r["statistic_name"] for r in rows}
    assert "order_z_regularity" in names
    assert "order_z_regularity_r2" in names
    # the identity model keeps its driver Lipschitz, so the quadratic-family
    # ratio band must not be asserted, only reported
    summary = (out / "summary.txt").read_text()
    assert "y increment / mesh ratios" in summary


def test_one_rung_converge_writes_diagnose_regularity_rows(tmp_path):
    # both commands run the same pass on the same fine ensemble
    text = SMALL_QUADRATIC.replace("ladder = 2 4", "ladder = 4")
    cfg = _write(tmp_path, text)
    reports = []
    for command in ("converge", "diagnose"):
        out = tmp_path / command
        assert main(["--config", cfg, "--command", command, "--out", str(out)]) == 0
        reports.append(_regularity_values(_read_report(out)[1], 4))
    assert tuple(reports[0]) == _REGULARITY_ROWS
    assert reports[0] == reports[1]


def test_study_scripts_resolve(tmp_path):
    # each study script writes its INI from a heredoc and runs one command;
    # a setting deleted from the CLI would fail only when the study is run
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.sh"))
    assert scripts
    for script in scripts:
        text = script.read_text()
        (ini,) = re.findall(r"<<'EOF'\n(.*?)^EOF$", text, flags=re.DOTALL | re.MULTILINE)
        (command,) = re.findall(r"--command (\w+)", text)
        assert command in cli.COMMANDS, script.name
        cfg = _write(tmp_path, ini, name=f"{script.stem}.ini")
        cli.RunContext(cli._load_config(cfg), cli._parse_args(["--config", cfg]))


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
            cole_hopf_increment_stat(make_quadratic(kappa=kappa), base.refine(2),
                                     2) / base.mesh, rel=1e-12)
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


ALL_QUADRATIC = """
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


def test_all_command_on_quadratic_model(tmp_path):
    cfg = _write(tmp_path, ALL_QUADRATIC)
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
    assert summary.count("driver truncated at level 6") == 1


def _spy_solves(monkeypatch):
    solved = []

    def spy(*args, **kwargs):
        solved.append(args)
        return solve_backward_regression(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_backward_regression", spy)
    return solved


def _rows_without_id(out):
    return [{k: v for k, v in r.items() if k != "experiment_id"}
            for r in _read_report(out)[1]]


def _check_all_solves_in_the_sweep(tmp_path, monkeypatch, text):
    """all makes no solve_backward_regression call, and its solve rows are
    the solve command's bit for bit. Returns all's rows."""
    cfg = _write(tmp_path, text)
    solve_out, all_out = tmp_path / "solve", tmp_path / "all"
    assert main(["--config", cfg, "--out", str(solve_out)]) == 0
    solved = _spy_solves(monkeypatch)
    assert main(["--config", cfg, "--command", "all", "--out", str(all_out)]) == 0
    assert solved == []
    # all writes the solve's rows first, then the sweep's
    want, got = _rows_without_id(solve_out), _rows_without_id(all_out)
    assert [r["statistic_name"] for r in want] == [
        "y0", "z0", "y0_reference", "y0_abs_error", "z0_reference", "z0_abs_error",
        "y0_quadrature", "z0_quadrature", "y0_vs_quadrature"]
    assert want[0]["std_error"] and want[1]["std_error"]
    assert got[:len(want)] == want
    return got


def test_all_reads_its_solve_from_the_sweep_when_the_level_is_on_the_ladder(
        tmp_path, monkeypatch):
    # level 0.5 engages its clamp, so its row leaves the reference's
    got = _check_all_solves_in_the_sweep(
        tmp_path, monkeypatch, ALL_QUADRATIC.replace("level = 6.0", "level = 0.5"))
    (err,) = [r for r in got if r["statistic_name"] == "trunc_err_y"
              and r["n_trunc"] == "0.5"]
    assert float(err["value"]) > 0.0


# the ladder is 0.5 1.0 and the realized max |Z| lies between them
@pytest.mark.parametrize("level_line", ["", "level = 0.7\n", "level = 0.3\n"],
                         ids=["default", "between", "below"])
def test_all_solves_an_off_ladder_level_in_the_sweep(tmp_path, monkeypatch, level_line):
    _check_all_solves_in_the_sweep(
        tmp_path, monkeypatch, ALL_QUADRATIC.replace("level = 6.0\n", level_line))


def test_all_sweep_rows_do_not_depend_on_the_solved_level(tmp_path):
    trunc_rows = []
    for level in ("10.0", "0.7", "0.3", "1.0", "20.0"):
        cfg = _write(tmp_path, ALL_QUADRATIC.replace("level = 6.0", f"level = {level}"))
        out = tmp_path / level
        assert main(["--config", cfg, "--command", "all", "--out", str(out)]) == 0
        trunc_rows.append([r for r in _rows_without_id(out)
                           if r["statistic_name"].startswith("trunc_")])
    assert len(trunc_rows[0]) == 2 * 2 + 2
    assert all(rows == trunc_rows[0] for rows in trunc_rows)


def test_all_on_a_lipschitz_model_solves_once(tmp_path, monkeypatch):
    cfg = _write(tmp_path, BASE)
    solved = _spy_solves(monkeypatch)
    assert main(["--config", cfg, "--command", "all", "--out", str(tmp_path / "o")]) == 0
    assert len(solved) == 1


def _count_closed_forms(monkeypatch, fail=None):
    calls = []

    def counting(model, *args, **kwargs):
        calls.append(model)
        if fail is not None:
            raise fail
        return cole_hopf_from_model(model, *args, **kwargs)

    monkeypatch.setattr(cli, "cole_hopf_from_model", counting)
    return calls


def test_all_works_the_closed_form_once(tmp_path, monkeypatch):
    cfg = _write(tmp_path, ALL_QUADRATIC + "oracle_reference = true\n")
    calls = _count_closed_forms(monkeypatch)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--command", "all", "--out", str(out)]) == 0
    assert len(calls) == 1
    _, rows = _read_report(out)
    y0_ref = cole_hopf_from_model(make_quadratic(terminal="tanh")).y0
    (ref,) = [r for r in rows if r["statistic_name"] == "y0_reference"]
    sweep = {r["n_trunc"]: float(r["value"]) for r in rows
             if r["statistic_name"] == "trunc_y0_abs_error_vs_oracle"}
    assert float(ref["value"]) == y0_ref
    assert list(sweep) == ["0.5", "1"]


def test_all_keeps_both_warnings_of_an_unavailable_closed_form(tmp_path, monkeypatch,
                                                               capsys):
    cfg = _write(tmp_path, ALL_QUADRATIC + "oracle_reference = true\n")
    calls = _count_closed_forms(monkeypatch, QuadratureUnstable("no convergence"))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--command", "all", "--out", str(out)]) == 0
    assert len(calls) == 1
    err = capsys.readouterr().err
    assert "warning: oracle unavailable: no convergence" in err
    assert "warning: oracle reference requested but unavailable: no convergence" in err
    names = {r["statistic_name"] for r in _read_report(out)[1]}
    assert not names & {"y0_reference", "trunc_y0_abs_error_vs_oracle"}
