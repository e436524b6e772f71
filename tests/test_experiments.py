import ast
import ctypes
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ggm import experiments
from ggm.cli import main
from ggm.errors import ConfigError
from ggm.experiments import (
    METHODS,
    ExperimentConfig,
    MethodParams,
    ResultTable,
    build_config,
    derive_cell_seeds,
    emit_csv,
    manifest_path,
    parse_config_file,
    realize_cell,
    run_experiment,
    select_params,
    write_manifest,
    _one_blas_thread,
)
from ggm.io import read_matrix_csv, write_matrix_csv
from ggm.metrics import mean_normalized_error
from ggm.solvers import PenaltyWeights, solve_ggl, solve_gl, solve_joint_hidden, solve_lvgl

TINY_GRIDS = dict(rho_grid=(0.05, 0.2), beta_grid=(0.1, 0.5), eta_grid=(1.0,),
                  max_iters=300, tol_primal=1e-4, tol_dual=1e-4)


def tiny_tc1(**over):
    base = dict(n=10, p=0.2, n_hidden=1, m=50, k_sweep=(1, 2),
                n_realizations=2, base_seed=7, **TINY_GRIDS)
    base.update(over)
    return build_config("tc1", {}, **base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_defaults_follow_experiment():
    cfg1 = build_config("tc1", {})
    assert cfg1.k_sweep == (1, 2, 3, 4, 5, 6)
    cfg2 = build_config("tc2", {})
    assert cfg2.m_sweep == (50, 100, 200, 350, 500) and cfg2.k == 4
    cfg3 = build_config("tc3", {}, synthetic_substitute=True)
    assert cfg3.n == 32 and cfg3.o_sweep == (25, 26, 27, 28, 29, 30, 31)


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\nn = 12\nk_sweep = 1, 3\nbase_seed = 5\n", encoding="utf-8")
    mapping = parse_config_file(path)
    cfg = build_config("tc1", mapping, m="75")
    assert cfg.n == 12 and cfg.k_sweep == (1, 3) and cfg.base_seed == 5 and cfg.m == 75
    cfg = build_config("tc1", {}, k_sweep=[2, 3.0], rho_grid=(0.1, 0.5))
    assert cfg.k_sweep == (2, 3) and cfg.rho_grid == (0.1, 0.5)
    assert all(type(v) is int for v in cfg.k_sweep)


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        build_config("tc1", {}, nonsense=1)
    with pytest.raises(ConfigError):
        build_config("tc1", {}, m_sweep=(10, 20))        # wrong sweep axis
    with pytest.raises(ConfigError):
        build_config("tc2", {}, m_sweep=())              # required axis empty
    with pytest.raises(ConfigError):
        build_config("tc3", {})                          # no data, no substitute
    with pytest.raises(ConfigError, match="exactly one"):
        build_config("tc3", {}, data_files="x.net", synthetic_substitute="true")
    for experiment in ("tc1", "tc2"):                    # tc3-only keys
        for bad in ({"data_files": "x.net"}, {"synthetic_substitute": "true"},
                    {"data_files": "x.net", "synthetic_substitute": "true"}):
            with pytest.raises(ConfigError, match="tc3 keys"):
                build_config(experiment, {}, **bad)
    with pytest.raises(ConfigError):
        build_config("tc3", {}, synthetic_substitute=True, o_sweep=(40,))
    with pytest.raises(ConfigError):
        build_config("tc1", {}, n_hidden=10, n=10)
    for bad in ({"rho_grid": "0.05,nan"}, {"beta_grid": "0.1,-1"}, {"eta_grid": "inf"},
                {"tol_primal": "nan"}, {"m": "abc"},
                {"max_iters": "nan"}, {"k_sweep": "2,x"}, {"rho_grid": "0.1,y"}):
        with pytest.raises(ConfigError):
            build_config("tc1", {}, **bad)
    # sequences are read item by item, like a comma-separated list
    for bad in ({"k_sweep": ["a"]}, {"k_sweep": [2.5]}, {"rho_grid": ["x"]},
                {"k_sweep": (float("inf"),)}):
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=f"cannot read {name} = "):
            build_config("tc1", {}, **bad)
    # a scalar field is read like a tuple item: integral numbers only
    for bad in ({"m": 200.5}, {"workers": 1.5}, {"n": float("inf")}):
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=f"cannot read {name} = "):
            build_config("tc1", {}, **bad)
    # a repeated sweep value would share one selected-parameter entry
    for experiment, bad in (("tc1", {"k_sweep": (2, 2)}), ("tc1", {"k_sweep": [2, 2.0]}),
                            ("tc2", {"m_sweep": "100,50,100"}),
                            ("tc3", {"o_sweep": (25, 25), "synthetic_substitute": True})):
        with pytest.raises(ConfigError, match="repeats a value"):
            build_config(experiment, {}, **bad)
    cfg = build_config("tc1", {}, m=200.0, workers=2.0, k_sweep=[2.0])
    assert (cfg.m, cfg.workers, cfg.k_sweep) == (200, 2, (2,))
    assert all(type(v) is int for v in (cfg.m, cfg.workers, *cfg.k_sweep))
    # a config built directly converts its fields like build_config
    for bad in ({"k_sweep": (2.5,)}, {"k_sweep": ("x",)}, {"workers": 1.5}):
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=f"cannot read {name} = "):
            ExperimentConfig("tc1", n_realizations=1, **bad)
    path = tmp_path / "cfg.txt"
    path.write_text("experiment = tc2\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        build_config("tc1", parse_config_file(path))
    path.write_text("n = twenty\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="n = 'twenty'"):
        build_config("tc1", parse_config_file(path))


_REMOVED_KEYS = ("neighbors", "rewire_p", "n_rewire", "weight_lo", "weight_hi", "diag_margin")


def test_removed_generation_keys_are_unknown(tmp_path, capsys):
    # the paper's fixed graph settings are constants, not config keys
    path = tmp_path / "cfg.txt"
    for key in _REMOVED_KEYS:
        path.write_text(f"{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_config("tc2", parse_config_file(path))
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_config("tc2", {}, **{key: 1})
        flag = "--" + key.replace("_", "-")
        assert main(["run", "tc2", "--out", str(tmp_path / "x.csv"), flag, "1"]) == 2
        assert "unknown config key" in capsys.readouterr().err


def test_keys_an_experiment_does_not_read_are_rejected():
    for experiment, bad, readers in (("tc1", {"k": 7}, "tc2 and tc3"),
                                     ("tc2", {"m": 100}, "tc1 and tc3"),
                                     ("tc2", {"p": 0.3}, "tc1 and tc3"),
                                     ("tc3", {"n_hidden": 3, "synthetic_substitute": True},
                                      "tc1 and tc2")):
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=f"{experiment} does not read {name}: "
                                              f"it is one of the {readers} keys"):
            build_config(experiment, {}, **bad)
    # tc3 draws its graphs from p only for the synthetic stand-in
    with pytest.raises(ConfigError, match="tc3 does not read p with data_files"):
        build_config("tc3", {}, n=6, k=2, o_sweep=(5,), data_files="a.net,b.net", p=0.9)
    # a config built directly is checked the same way
    with pytest.raises(ConfigError, match="tc1 does not read k"):
        ExperimentConfig("tc1", k_sweep=(1,), k=7)
    # a key left at its default passes, wherever it comes from
    assert build_config("tc1", {}, k=4).k == 4
    assert build_config("tc2", {}, m="200", p=0.15).m == 200
    # tc3 hides n - O nodes, so its unread n_hidden is not held against a small n
    assert build_config("tc3", {}, n=2, o_sweep=(1, 2), synthetic_substitute=True).n == 2


def test_unread_table_covers_only_fields_and_spares_each_field_once():
    names = {f.name for f in fields(ExperimentConfig)}
    assert set(experiments._UNREAD) == set(experiments.EXPERIMENTS)
    assert all(set(keys) <= names for keys in experiments._UNREAD.values())
    # every field is read by at least one experiment
    assert not set.intersection(*(set(keys) for keys in experiments._UNREAD.values()))
    assert len(names) == 20


def test_generation_settings_are_the_papers():
    # tc2: Watts-Strogatz base with 4 ring neighbors; every layer moves
    # ceil(10 %) of the base edges; edge weights lie in [0.5, 1.0]
    for experiment in ("tc1", "tc2"):
        cfg = build_config(experiment, {}, n=30, base_seed=2)
        for si in range(2):
            seeds = derive_cell_seeds(cfg.base_seed, si, 0)
            graphs = experiments._layer_graphs(cfg, 4, seeds)
            base = graphs[0]
            if experiment == "tc2":
                assert base.n_edges == cfg.n * 4 // 2
            moved = math.ceil(0.1 * base.n_edges)
            for variant in graphs[1:]:
                assert variant.n_edges == base.n_edges
                assert len(base.edge_set() - variant.edge_set()) == moved
                assert np.count_nonzero(variant.adjacency != base.adjacency) <= 4 * moved
            _, truths = realize_cell(cfg, si, 0)
            for truth in truths:
                off = truth[~np.eye(len(truth), dtype=bool)]
                assert np.all((off == 0) | ((off >= -1.0) & (off <= -0.5)))
                assert np.count_nonzero(off) > 0
                assert np.linalg.eigvalsh(truth).min() >= 0.1 - 1e-12


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"The keys are(.*?)Any\s+other\s+key", readme, re.S).group(1)
    listed = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", paragraph))  # asides dropped
    assert sorted(listed) == sorted(f.name for f in fields(ExperimentConfig))


def test_seed_derivation_is_method_independent():
    a = derive_cell_seeds(3, 1, 4)
    b = derive_cell_seeds(3, 1, 4)
    assert a == b
    assert derive_cell_seeds(3, 1, 5) != a
    assert derive_cell_seeds(3, 2, 4) != a


def test_realize_cell_matched_data():
    cfg = tiny_tc1()
    covs_a, truths_a = realize_cell(cfg, 1, 0)
    covs_b, truths_b = realize_cell(cfg, 1, 0)
    assert all(np.array_equal(x, y) for x, y in zip(covs_a.covs, covs_b.covs))
    assert all(np.array_equal(x, y) for x, y in zip(truths_a, truths_b))
    assert covs_a.n_layers == 2 and covs_a.dim == 9


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def test_tc1_table_and_k1_joint_equals_lvgl(tmp_path):
    cfg = tiny_tc1()
    result = run_experiment(cfg)
    assert result.table.xaxis == (1, 2)
    assert result.table.errors.shape == (2, 4)
    assert result.mc_invocations == 4 * 2 * 2
    # K = 1: the joint estimator and LVGL share the same objective and grid
    gl_col = METHODS.index("LVGL")
    joint_col = METHODS.index("Joint")
    assert np.array_equal(result.raw_errors[0, gl_col], result.raw_errors[0, joint_col])

    out = tmp_path / "tc1.csv"
    emit_csv(result.table, out)
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "xaxis,GL,GGL,LVGL,Joint"
    assert len(text.splitlines()) == 3

    manifest = write_manifest(result, out)
    assert manifest == str(tmp_path / "tc1.manifest.txt")
    body = open(manifest, encoding="utf-8").read()
    assert "mc_method_invocations = 16 (expected 16)" in body
    assert "selected[1]" in body and "selected[2]" in body
    assert f"selection_seconds = {result.selection_seconds:.3f}" in body
    assert f"monte_carlo_seconds = {result.monte_carlo_seconds:.3f}" in body


def test_tc1_rerun_byte_identical(tmp_path):
    cfg = tiny_tc1()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(a.table, pa)
    emit_csv(b.table, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_tc1_worker_count_independent(tmp_path):
    # at 3 realizations the Monte Carlo chunks are 3 cells at workers = 1
    # and 2 + 1 cells at workers = 2
    for n_realizations in (3, 2):
        serial = run_experiment(tiny_tc1(workers=1, n_realizations=n_realizations))
        pooled = run_experiment(tiny_tc1(workers=2, n_realizations=n_realizations))
        assert np.array_equal(serial.raw_errors, pooled.raw_errors)
        assert serial.selected == pooled.selected
        for name in ("selection_invocations", "mc_invocations", "selection_iterations",
                     "mc_iterations", "selection_unconverged", "mc_unconverged"):
            assert getattr(serial, name) == getattr(pooled, name)
    pa, pb = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    emit_csv(serial.table, pa)
    emit_csv(pooled.table, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_monte_carlo_cells_equal_cold_public_solves():
    # selection walks warm-started paths; every Monte Carlo solve starts cold
    cfg = tiny_tc1(k_sweep=(2,))
    result = run_experiment(cfg)
    prm, solver_cfg = result.selected[2], cfg.solver_config()
    weights = PenaltyWeights.tied(2, prm.joint_rho, prm.joint_beta,
                                  prm.joint_rho * prm.joint_eta, prm.joint_beta * prm.joint_eta)
    for r in range(cfg.n_realizations):
        covs, truths = realize_cell(cfg, 0, r)
        public = {
            "GL": [solve_gl(c, prm.gl_lam, solver_cfg) for c in covs.covs],
            "GGL": solve_ggl(covs, prm.ggl_l1, prm.ggl_l2, solver_cfg),
            "LVGL": [solve_lvgl(c, prm.lv_rho, prm.lv_beta, solver_cfg)[0] for c in covs.covs],
            "Joint": solve_joint_hidden(covs, weights, solver_cfg).s_hat,
        }
        assert [mean_normalized_error(public[m], truths) for m in METHODS] == \
            list(result.raw_errors[0, :, r])


def _select(cfg, sweep_index, method):
    """One selection task: (errors over the grid, unconverged, iterations)
    of the method on the held-out cell."""
    (job,) = experiments._solve_task(cfg, sweep_index, (cfg.n_realizations,),
                                     [(method, experiments._grid(cfg, method))])
    return job


def test_selection_walks_warm_rho_paths(monkeypatch):
    # one Joint path (beta = 0.01, eta = 1) on the K = 2 held-out cell of the
    # tc1 preset at 12 realizations; its iterations were measured at 225 warm
    # and 757 cold, and the ceiling is 10 % above the warm count
    cfg = build_config("tc1", {}, k_sweep=(2, 3), n_realizations=12, base_seed=0,
                       beta_grid=(0.01,), eta_grid=(1.0,), max_iters=800,
                       tol_primal=1e-4, tol_dual=1e-4)
    solves = []
    solve_joint = experiments._solve_joint

    def recording(covs, weights, solver_cfg, starts):
        s_hat, p_hat, runs = solve_joint(covs, weights, solver_cfg, starts)
        solves.extend((w.rho[0], start is None, run.iterations)
                      for w, start, run in zip(weights, starts, runs))
        return s_hat, p_hat, runs

    monkeypatch.setattr(experiments, "_solve_joint", recording)
    errors, unconverged, iterations = _select(cfg, 0, "Joint")
    assert unconverged == 0 and errors.shape == (1, len(cfg.rho_grid))
    assert [rho for rho, _, _ in solves] == sorted(cfg.rho_grid, reverse=True)
    assert [cold for _, cold, _ in solves] == [True] + [False] * (len(solves) - 1)
    warm = sum(iterations for _, _, iterations in solves)
    covs, _ = realize_cell(cfg, 0, 12)
    cold = sum(solve_joint_hidden(covs, PenaltyWeights.tied(2, rho, 0.01, rho, 0.01),
                                  cfg.solver_config()).iterations for rho in cfg.rho_grid)
    assert warm <= 1.1 * 225 and warm < cold and iterations == warm


def test_unconverged_solves_are_counted(tmp_path):
    runs = [run_experiment(tiny_tc1(max_iters=2, workers=workers)) for workers in (1, 2)]
    for result in runs:
        assert (result.selection_unconverged, result.mc_unconverged) == (28, 16)
        assert (result.selection_invocations, result.mc_invocations) == (28, 16)
    body = open(write_manifest(runs[1], tmp_path / "capped.csv"), encoding="utf-8").read()
    assert "unconverged_method_invocations = selection 28, monte_carlo 16\n" in body
    # criterion 9's config: every solve converges within its 300 iterations
    result = run_experiment(tiny_tc1(base_seed=13))
    assert (result.selection_unconverged, result.mc_unconverged) == (0, 0)


def test_iterations_are_counted(tmp_path):
    # at max_iters = 2 every solve runs 2 iterations. Selection solves GL at
    # 2 rho x K layers, GGL at 4 points, LVGL at 4 points x K and Joint at
    # 4 points: 14 solves at K = 1 and 20 at K = 2. Each of the 2 x 2 Monte
    # Carlo cells solves GL and LVGL per layer and GGL and Joint once.
    result = run_experiment(tiny_tc1(max_iters=2))
    assert (result.selection_iterations, result.mc_iterations) == (2 * 34, 2 * 20)
    body = open(write_manifest(result, tmp_path / "capped.csv"), encoding="utf-8").read()
    assert "admm_iterations = selection 68, monte_carlo 40\n" in body


@pytest.mark.parametrize("method", ["GGL", "LVGL", "Joint"])
def test_selection_split_by_the_memory_cap_gives_the_same_errors(monkeypatch, method):
    cfg = tiny_tc1(k_sweep=(2,), beta_grid=(0.1, 0.3, 0.5), eta_grid=(0.0, 1.0))
    grid = experiments._grid(cfg, method)
    # a selection task walks the held-out cell's grid; a Monte Carlo task
    # solves one tuple on 2 cells
    tasks = [((cfg.n_realizations,), grid), (range(2), [[grid[0][-1]]])]
    whole = [experiments._solve_task(cfg, 0, cells, [(method, steps)]) for cells, steps in tasks]
    solve = experiments._solve
    # room for one (2, 9, 9) stack or two one-layer problems per batch
    monkeypatch.setattr(experiments, "_BATCH_BYTES", 2 * 9 * 9 * 8 + 7)
    for (cells, steps), ((errors, *counts),) in zip(tasks, whole):
        batches = []
        monkeypatch.setattr(experiments, "_solve", lambda method, covs, hps, *rest:
                            batches.append(len(hps)) or solve(method, covs, hps, *rest))
        (split, *split_counts), = experiments._solve_task(cfg, 0, cells, [(method, steps)])
        assert np.array_equal(split, errors) and split_counts == counts
        assert max(batches) == (2 if method == "LVGL" else 1)
        assert len(batches) > len(steps)


def test_repeated_grid_values_are_separate_paths():
    # the two beta = 0.1 paths (and the two rho = 0.2 steps) are walked by
    # grid position, so every error is set and the duplicate paths agree
    cfg = tiny_tc1(k_sweep=(2,), rho_grid=(0.05, 0.2, 0.2), beta_grid=(0.1, 0.1, 0.5))
    once = tiny_tc1(k_sweep=(2,), rho_grid=(0.05, 0.2, 0.2), beta_grid=(0.1, 0.5))
    for method in ("LVGL", "Joint"):
        errors, _, _ = _select(cfg, 0, method)
        errors = errors.reshape(len(cfg.rho_grid), len(cfg.beta_grid), -1)
        assert np.array_equal(errors[:, 0], errors[:, 1])
        alone, _, _ = _select(once, 0, method)
        assert np.array_equal(errors[:, 1:], alone.reshape(errors[:, 1:].shape))


@pytest.mark.parametrize("experiment, over", [
    ("tc1", dict(k_sweep=(6,))),
    ("tc2", dict(m_sweep=(50,))),
    ("tc3", dict(o_sweep=(31,), synthetic_substitute=True)),
])
def test_presets_select_in_one_batch_per_rho_step(monkeypatch, experiment, over):
    cfg = build_config(experiment, {}, n_realizations=1, max_iters=1, **over)
    calls = []
    solve = experiments._solve
    monkeypatch.setattr(experiments, "_solve", lambda *args: calls.append(args[0]) or solve(*args))
    for method in METHODS:
        _select(cfg, 0, method)
    assert calls == [m for m in METHODS for _ in cfg.rho_grid]
    # a Monte Carlo task of all the preset's realizations: one call per method
    cfg, calls[:] = build_config(experiment, {}, max_iters=1, **over), []
    experiments._solve_task(cfg, 0, range(cfg.n_realizations),
                            [(m, [experiments._grid(cfg, m)[0][:1]]) for m in METHODS])
    assert calls == list(METHODS)


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    asked = []

    class SerialPool:
        def __init__(self, max_workers, initializer=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    run_experiment(tiny_tc1(k_sweep=(1,), n_realizations=1, workers=10_000))
    assert asked == [min(10_000, os.cpu_count() or 1)]


def test_select_params_first_minimum_per_method():
    cfg = build_config("tc1", {}, rho_grid=(0.1, 0.2, 0.3), beta_grid=(1.0, 2.0),
                       eta_grid=(5.0, 6.0))
    sizes = {"GL": 3, "GGL": 9, "LVGL": 6, "Joint": 12}
    flat = {m: [0.5] * n for m, n in sizes.items()}
    assert select_params(cfg, flat) == MethodParams(0.1, 0.1, 0.1, 0.1, 1.0, 0.1, 1.0, 5.0)
    # two equal minima per method; the earlier grid point wins
    ties = {"GL": (1, 2), "GGL": (6, 7), "LVGL": (3, 5), "Joint": (3, 11)}
    errors = {m: [0.9] * n for m, n in sizes.items()}
    for method, (first, later) in ties.items():
        errors[method][first] = errors[method][later] = 0.25
    params = select_params(cfg, errors)
    assert params == MethodParams(gl_lam=0.2, ggl_l1=0.3, ggl_l2=0.1, lv_rho=0.2, lv_beta=2.0,
                                  joint_rho=0.1, joint_beta=2.0, joint_eta=6.0)
    assert params.hyperparameters("GGL") == (0.3, 0.1)
    assert params.hyperparameters("Joint") == (0.1, 2.0, 6.0)


def _openblas_thread_counts():
    """Thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    getters = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    return [getattr(lib, name)() for lib in map(ctypes.CDLL, paths)
            for name in getters if hasattr(lib, name)]


def test_raw_errors_do_not_depend_on_the_worker_count_at_100_observed_nodes():
    # at 100 observed nodes OpenBLAS threads the sample covariance's product
    # when it may, so a cell solved on a threaded BLAS gets other bits
    if not os.path.exists("/proc/self/maps") or max(_openblas_thread_counts(), default=1) < 2:
        pytest.skip("needs an OpenBLAS that runs more than one thread in this process")
    runs = [run_experiment(build_config(
        "tc1", {}, n=102, p=0.03, k_sweep=(2,), n_realizations=1, rho_grid=(0.1,),
        beta_grid=(0.3,), eta_grid=(1.0,), max_iters=3, workers=workers)) for workers in (1, 2)]
    assert np.array_equal(runs[0].raw_errors, runs[1].raw_errors)


def test_pool_workers_run_one_openblas_thread(monkeypatch):
    if not os.path.exists("/proc/self/maps") or not _openblas_thread_counts():
        pytest.skip("needs an OpenBLAS found through /proc/self/maps")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with ProcessPoolExecutor(1, initializer=_one_blas_thread) as pool:
        counts = pool.submit(_openblas_thread_counts).result(timeout=60)
    assert counts and all(c == 1 for c in counts)


def test_tc2_sample_growth_helps_each_method():
    cfg = build_config("tc2", {}, n=10, n_hidden=1, m_sweep=(50, 5000),
                       n_realizations=1, base_seed=3, **TINY_GRIDS)
    result = run_experiment(cfg)
    assert result.table.xaxis == (50, 5000)
    small, large = result.table.errors
    assert np.all(large < small)


def test_tc3_synthetic_substitute_axis():
    cfg = build_config("tc3", {}, n=10, k=2, o_sweep=(8, 10), m=60,
                       synthetic_substitute=True, n_realizations=1,
                       base_seed=11, **TINY_GRIDS)
    result = run_experiment(cfg)
    assert result.table.xaxis == (8, 10)
    rerun = run_experiment(cfg)
    assert np.array_equal(result.raw_errors, rerun.raw_errors)


def test_tc3_real_files(tmp_path):
    # two tiny Pajek layers on 6 nodes
    a = tmp_path / "a.net"
    b = tmp_path / "b.net"
    a.write_text('*Vertices 6\n*Edges\n1 2 1\n2 3 1\n4 5 2\n', encoding="utf-8")
    b.write_text('*Vertices 6\n*Edges\n1 2 1\n3 4 1\n5 6 1\n', encoding="utf-8")
    cfg = build_config("tc3", {}, n=6, k=2, o_sweep=(5, 6), m=40,
                       data_files=(str(a), str(b)),
                       n_realizations=1, base_seed=0, **TINY_GRIDS)
    result = run_experiment(cfg)
    assert result.table.errors.shape == (2, 4)


def test_tc3_reads_only_the_support_of_a_layer_file(tmp_path):
    weighted = {"a.net": '*Vertices 6\n*Edges\n1 2 0.3\n2 3 7\n4 5 2\n*Arcs\n5 6 1\n6 5 4\n',
                "b.txt": '6\n1 2 9\n3 4 0.1\n5 6 2.5\n'}
    binary = {"a.net": '*Vertices 6\n*Edges\n1 2\n2 3\n4 5\n5 6\n',
              "b.txt": '6\n1 2\n3 4\n5 6\n'}
    runs = []
    for name, texts in (("weighted", weighted), ("binary", binary)):
        (tmp_path / name).mkdir()
        paths = [tmp_path / name / f for f in texts]
        for path, text in zip(paths, texts.values()):
            path.write_text(text, encoding="utf-8")
        runs.append(run_experiment(build_config(
            "tc3", {}, n=6, k=2, o_sweep=(5, 6), m=40, data_files=tuple(map(str, paths)),
            n_realizations=2, base_seed=4, **TINY_GRIDS)))
    assert np.array_equal(runs[0].raw_errors, runs[1].raw_errors)
    assert runs[0].selected == runs[1].selected


def test_emit_csv_rejects_empty(tmp_path):
    from ggm.errors import InvalidInput
    with pytest.raises(InvalidInput):
        emit_csv(ResultTable((), np.zeros((0, 4))), tmp_path / "x.csv")


def test_manifest_path_swaps_extension():
    assert manifest_path("results/run.csv") == "results/run.manifest.txt"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_tc1(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main([
        "run", "tc1", "--out", str(out),
        "--n", "10", "--p", "0.2", "--n-hidden", "1", "--m", "50",
        "--k-sweep", "1,2", "--n-realizations", "1", "--base-seed", "7",
        "--rho-grid", "0.05,0.2", "--beta-grid", "0.1,0.5", "--eta-grid", "1.0",
        "--max-iters", "300", "--tol-primal", "1e-4", "--tol-dual", "1e-4",
    ])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "cli.manifest.txt").exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_run_with_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "tc1.txt"
    cfg_file.write_text(
        "n = 10\np = 0.2\nn_hidden = 1\nm = 50\nk_sweep = 1,2\n"
        "n_realizations = 1\nbase_seed = 7\nrho_grid = 0.05,0.2\n"
        "beta_grid = 0.1,0.5\neta_grid = 1.0\nmax_iters = 300\n"
        "tol_primal = 1e-4\ntol_dual = 1e-4\n", encoding="utf-8")
    out = tmp_path / "from_file.csv"
    code = main(["run", "tc1", "--config", str(cfg_file), "--out", str(out),
                 "--base-seed", "9"])     # flag overrides the file
    assert code == 0
    capsys.readouterr()
    manifest = (tmp_path / "from_file.manifest.txt").read_text(encoding="utf-8")
    assert "config.base_seed = 9" in manifest


def test_cli_run_rejects_unknown_key(tmp_path, capsys):
    for key, value in (("--bogus", "1"), ("--step", "1"), ("--pd-floor", "1"),
                       ("--admissible-set", "symmetric")):
        code = main(["run", "tc1", "--out", str(tmp_path / "x.csv"), key, value])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err


def test_cli_run_tc3_rejects_a_node_count_mismatch_in_the_pool(tmp_path, capsys):
    files = []
    for name in ("a.net", "b.net"):
        path = tmp_path / name
        path.write_text('*Vertices 6\n*Edges\n1 2\n3 4\n', encoding="utf-8")
        files.append(str(path))
    code = main(["run", "tc3", "--out", str(tmp_path / "z.csv"), "--data-files", ",".join(files),
                 "--n", "7", "--k", "2", "--o-sweep", "5,6", "--workers", "2"])
    assert code == 2
    assert "data files have 6 nodes" in capsys.readouterr().err


def test_cli_run_rejects_malformed_value(tmp_path, capsys):
    code = main(["run", "tc1", "--out", str(tmp_path / "y.csv"), "--m", "abc"])
    assert code == 2
    assert "m = 'abc'" in capsys.readouterr().err


def test_cli_solve_and_oracle(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = []
    for i in range(2):
        x = rng.standard_normal((3, 60))
        c = x @ x.T / 60
        path = tmp_path / f"cov{i}.csv"
        write_matrix_csv(c, path)
        paths.append(str(path))
    out = tmp_path / "est"
    code = main(["solve", "--covs", *paths, "--rho", "0.1", "--beta", "0.2",
                 "--rho-pair", "0.05", "--beta-pair", "0.05", "--out", str(out)])
    assert code == 0
    assert (out / "s_hat_1.csv").exists() and (out / "p_hat_2.csv").exists()
    assert "objective" in capsys.readouterr().out
    # an asymmetric CSV is read as its symmetric part
    sym = read_matrix_csv(paths[0])
    sym = 0.5 * (sym + sym.T)
    asym = tmp_path / "asym.csv"
    write_matrix_csv(2.0 * np.tril(sym, -1) + np.diag(np.diag(sym)), asym)
    sym_out, asym_out = tmp_path / "sym", tmp_path / "asym"
    for path, target in ((paths[0], sym_out), (str(asym), asym_out)):
        assert main(["solve", "--covs", path, "--out", str(target)]) == 0
    assert (asym_out / "s_hat_1.csv").read_bytes() == (sym_out / "s_hat_1.csv").read_bytes()
    capsys.readouterr()
    code = main(["solve", "--covs", *paths, "--rho", "nan", "--out", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err

    oracle_out = tmp_path / "oracle"
    code = main(["oracle", "--covs", paths[0], "--rho", "0.1", "--beta", "0.2",
                 "--budget", "2000", "--out", str(oracle_out)])
    assert code == 0
    assert (oracle_out / "s_hat_1.csv").exists() and (oracle_out / "p_hat_1.csv").exists()
    assert "oracle objective" in capsys.readouterr().out

    nan_path = tmp_path / "nan.csv"
    write_matrix_csv(np.array([[1.0, np.nan], [np.nan, 1.0]]), nan_path)
    code = main(["oracle", "--covs", str(nan_path), "--budget", "50"])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_cli_solve_missing_file(tmp_path, capsys):
    code = main(["solve", "--covs", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


def test_only_the_cli_prints():
    # library code returns what it found or raises; only the CLI writes to the terminal
    package = Path(experiments.__file__).parent
    printing = sorted(
        path.name for path in package.glob("*.py")
        if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert printing == ["cli.py"]
