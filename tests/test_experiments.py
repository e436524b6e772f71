import ctypes
import os
from concurrent.futures import ProcessPoolExecutor

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
from ggm.io import write_matrix_csv

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
    with pytest.raises(ConfigError):
        build_config("tc3", {}, synthetic_substitute=True, o_sweep=(40,))
    with pytest.raises(ConfigError):
        build_config("tc1", {}, n_hidden=10, n=10)
    for bad in ({"rho_grid": "0.05,nan"}, {"beta_grid": "0.1,-1"}, {"eta_grid": "inf"},
                {"tol_primal": "nan"}, {"admissible_set": "bogus"}, {"m": "abc"},
                {"max_iters": "nan"}, {"k_sweep": "2,x"}, {"rho_grid": "0.1,y"}):
        with pytest.raises(ConfigError):
            build_config("tc1", {}, **bad)
    # sequences are read item by item, like a comma-separated list
    for bad in ({"k_sweep": ["a"]}, {"k_sweep": [2.5]}, {"rho_grid": ["x"]},
                {"k_sweep": (float("inf"),)}):
        name = next(iter(bad))
        with pytest.raises(ConfigError, match=f"cannot read {name} = "):
            build_config("tc1", {}, **bad)
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
    serial = run_experiment(tiny_tc1(workers=1))
    pooled = run_experiment(tiny_tc1(workers=2))
    assert np.array_equal(serial.raw_errors, pooled.raw_errors)
    assert serial.selected == pooled.selected
    assert serial.selection_invocations == pooled.selection_invocations
    pa, pb = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    emit_csv(serial.table, pa)
    emit_csv(pooled.table, pb)
    assert pa.read_bytes() == pb.read_bytes()


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
                       data_files=(str(a), str(b)), binarize=True,
                       n_realizations=1, base_seed=0, **TINY_GRIDS)
    result = run_experiment(cfg)
    assert result.table.errors.shape == (2, 4)


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
    for key in ("--bogus", "--step", "--pd-floor"):
        code = main(["run", "tc1", "--out", str(tmp_path / "x.csv"), key, "1"])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err


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
