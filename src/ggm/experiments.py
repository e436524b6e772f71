"""Benchmark harness: seeded Monte Carlo sweeps over synthetic and real
multi-layer GMRF data, hyperparameter grid selection on a held-out
realization, and CSV emission of the per-sweep mean errors.

Every cell (sweep value, realization) derives its seeds from
(base_seed, sweep index, realization index) only, so all four methods
see identical data and reruns are byte-identical regardless of the
worker count.
"""
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, InvalidInput
from .graphs import (
    Graph,
    MultiLayerFamily,
    block_view,
    choose_hidden,
    gen_erdos_renyi,
    gen_rewired_family,
    gen_small_world,
    to_precision,
)
from .io import load_multilayer
from .metrics import mean_normalized_error
from .sampling import sample_family
from .solvers import PenaltyWeights, SolverConfig, solve_ggl, solve_gl, solve_joint_hidden, solve_lvgl

METHODS = ("GL", "GGL", "LVGL", "Joint")
EXPERIMENTS = ("tc1", "tc2", "tc3")

_SUBSTITUTE_TAG = 980131   # seed tag for the synthetic 32-node stand-in


def _logspace(lo_exp, hi_exp, num):
    return tuple(float(v) for v in np.logspace(lo_exp, hi_exp, num))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, file-friendly description of one benchmark run."""

    experiment: str
    # graph family
    n: int = 20
    p: float = 0.15
    neighbors: int = 4
    rewire_p: float = 0.15
    n_rewire: int = 0              # 0 -> ceil(10% of base edge count)
    weight_lo: float = 0.5
    weight_hi: float = 1.0
    diag_margin: float = 0.1
    # hidden nodes / layers / samples
    n_hidden: int = 2
    k: int = 4
    k_sweep: tuple = ()            # tc1 axis
    m: int = 200
    m_sweep: tuple = ()            # tc2 axis
    o_sweep: tuple = ()            # tc3 axis
    # monte carlo
    n_realizations: int = 20
    base_seed: int = 0
    workers: int = 1
    # penalty grids (shared across methods; eta scales the fusion weights)
    rho_grid: tuple = _logspace(-2, 0, 5)
    beta_grid: tuple = _logspace(-2, 0.5, 5)
    eta_grid: tuple = (0.5, 1.0, 2.0)
    # solver (looser than SolverConfig's defaults: a sweep runs thousands of solves)
    step: float = 1.0
    max_iters: int = 800
    tol_primal: float = 1e-4
    tol_dual: float = 1e-4
    admissible_set: str = "symmetric"
    pd_floor: float = 1e-8
    # tc3 data
    data_files: tuple = ()
    synthetic_substitute: bool = False
    binarize: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        for name in ("n", "k", "m", "n_realizations", "max_iters", "workers", "neighbors"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.base_seed < 0 or self.n_hidden < 0 or self.n_rewire < 0:
            raise ConfigError("base_seed, n_hidden and n_rewire must be nonnegative")
        if self.n_hidden >= self.n:
            raise ConfigError("n_hidden must be smaller than n")
        sweeps = {"k_sweep": self.k_sweep, "m_sweep": self.m_sweep, "o_sweep": self.o_sweep}
        expected = {"tc1": "k_sweep", "tc2": "m_sweep", "tc3": "o_sweep"}[self.experiment]
        for name, values in sweeps.items():
            if name == expected:
                if not values:
                    raise ConfigError(f"{self.experiment} requires a nonempty {name}")
                if any(int(v) < 1 for v in values):
                    raise ConfigError(f"{name} values must be positive")
            elif values:
                raise ConfigError(f"{name} is not a sweep axis of {self.experiment}")
        if self.experiment == "tc3":
            if any(int(o) > self.n for o in self.o_sweep):
                raise ConfigError("o_sweep values cannot exceed n")
            if not self.data_files and not self.synthetic_substitute:
                raise ConfigError("tc3 needs data_files or synthetic_substitute = true")
        if not self.rho_grid or not self.beta_grid or not self.eta_grid:
            raise ConfigError("penalty grids must be nonempty")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(step=self.step, max_iters=self.max_iters,
                            tol_primal=self.tol_primal, tol_dual=self.tol_dual,
                            admissible_set=self.admissible_set, pd_floor=self.pd_floor)

    @property
    def sweep(self) -> tuple:
        return {"tc1": self.k_sweep, "tc2": self.m_sweep, "tc3": self.o_sweep}[self.experiment]


_DEFAULT_SWEEPS = {
    "tc1": {"k_sweep": (1, 2, 3, 4, 5, 6)},
    "tc2": {"m_sweep": (50, 100, 200, 350, 500), "k": 4},
    "tc3": {"o_sweep": (25, 26, 27, 28, 29, 30, 31), "n": 32, "k": 4},
}

_INT_TUPLES = {"k_sweep", "m_sweep", "o_sweep"}
_FLOAT_TUPLES = {"rho_grid", "beta_grid", "eta_grid"}
_STR_TUPLES = {"data_files"}
_BOOLS = {"synthetic_substitute", "binarize"}


def _parse_value(name: str, raw):
    if isinstance(raw, (tuple, list)):
        return tuple(raw)
    text = str(raw).strip()
    if name in _INT_TUPLES:
        return tuple(int(v) for v in text.split(",") if v.strip())
    if name in _FLOAT_TUPLES:
        return tuple(float(v) for v in text.split(",") if v.strip())
    if name in _STR_TUPLES:
        return tuple(v.strip() for v in text.split(",") if v.strip())
    if name in _BOOLS:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name} expects a boolean, got {raw!r}")
    target = ExperimentConfig.__dataclass_fields__[name].type
    if target is int or target == "int":
        return int(text)
    if target is float or target == "float":
        return float(text)
    return text


def parse_config_file(path) -> dict:
    """Read a flat key=value config file; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().lower()] = value.strip()
    return out


def build_config(experiment: str, mapping=None, **overrides) -> ExperimentConfig:
    """Assemble a config: experiment defaults, then file values, then overrides."""
    known = {f.name for f in fields(ExperimentConfig)}
    values = dict(_DEFAULT_SWEEPS.get(experiment, {}))
    for source in (mapping or {}), overrides:
        for key, raw in source.items():
            key = key.lower()
            if key == "experiment":
                if str(raw) != experiment:
                    raise ConfigError(
                        f"config file says experiment={raw!r} but {experiment!r} was requested")
                continue
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _parse_value(key, raw)
    try:
        return ExperimentConfig(experiment=experiment, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class MethodParams:
    """Hyperparameters frozen for one sweep value, all four methods."""

    gl_lam: float
    ggl_l1: float
    ggl_l2: float
    lv_rho: float
    lv_beta: float
    joint_rho: float
    joint_beta: float
    joint_eta: float


@dataclass(frozen=True)
class ResultTable:
    """Mean error per sweep value and method, columns ordered as METHODS."""

    xaxis: tuple
    errors: np.ndarray   # (n_sweep, 4)


@dataclass
class RunResult:
    table: ResultTable
    raw_errors: np.ndarray         # (n_sweep, 4, n_realizations)
    selected: dict                 # sweep value -> MethodParams
    mc_invocations: int
    selection_invocations: int
    runtime_seconds: float
    config: ExperimentConfig


# ---------------------------------------------------------------------------
# Seeded data generation
# ---------------------------------------------------------------------------

def derive_cell_seeds(base_seed: int, sweep_index: int, realization: int):
    """Independent sub-seeds for one (sweep value, realization) cell."""
    ss = np.random.SeedSequence([int(base_seed), int(sweep_index), int(realization)])
    graph, family, prec, hidden, sample = (int(v) for v in ss.generate_state(5, dtype=np.uint64))
    return {"graph": graph, "family": family, "prec": prec, "hidden": hidden, "sample": sample}


def _auto_rewire(cfg: ExperimentConfig, base: Graph) -> int:
    if cfg.n_rewire:
        return cfg.n_rewire
    return math.ceil(0.1 * base.n_edges)


def _layer_graphs(cfg: ExperimentConfig, n_layers: int, seeds) -> list:
    if cfg.experiment == "tc2":
        base = gen_small_world(cfg.n, cfg.neighbors, cfg.rewire_p, seeds["graph"])
    else:
        base = gen_erdos_renyi(cfg.n, cfg.p, seeds["graph"])
    return gen_rewired_family(base, n_layers, _auto_rewire(cfg, base), seeds["family"])


def substitute_layers(cfg: ExperimentConfig) -> list:
    """Synthetic stand-in for the real multi-layer data: one seeded family
    of cfg.k related graphs on cfg.n nodes, fixed for the whole run."""
    seeds = derive_cell_seeds(cfg.base_seed, _SUBSTITUTE_TAG, 0)
    base = gen_erdos_renyi(cfg.n, cfg.p, seeds["graph"])
    return gen_rewired_family(base, cfg.k, _auto_rewire(cfg, base), seeds["family"])


def load_tc3_layers(cfg: ExperimentConfig) -> list:
    if cfg.data_files:
        graphs = load_multilayer(cfg.data_files)
        if cfg.binarize:
            graphs = [Graph(g.n_nodes, (g.adjacency != 0).astype(float)) for g in graphs]
        if graphs[0].n_nodes != cfg.n:
            raise ConfigError(
                f"data files have {graphs[0].n_nodes} nodes but the config says n = {cfg.n}")
        if len(graphs) != cfg.k:
            raise ConfigError(f"{len(graphs)} data files given but the config says k = {cfg.k}")
        return graphs
    return substitute_layers(cfg)


def realize_cell(cfg: ExperimentConfig, sweep_index: int, realization: int,
                 fixed_graphs=None):
    """Generate one cell's data: observed covariances and true S_O blocks."""
    seeds = derive_cell_seeds(cfg.base_seed, sweep_index, realization)
    value = int(cfg.sweep[sweep_index])
    if cfg.experiment == "tc1":
        n_layers, m, n_hidden = value, cfg.m, cfg.n_hidden
        graphs = _layer_graphs(cfg, n_layers, seeds)
    elif cfg.experiment == "tc2":
        n_layers, m, n_hidden = cfg.k, value, cfg.n_hidden
        graphs = _layer_graphs(cfg, n_layers, seeds)
    else:
        n_layers, m, n_hidden = cfg.k, cfg.m, cfg.n - value
        graphs = fixed_graphs if fixed_graphs is not None else load_tc3_layers(cfg)
        graphs = graphs[:n_layers]
    precisions = [
        to_precision(g, (cfg.weight_lo, cfg.weight_hi), cfg.diag_margin, seeds["prec"] + i)
        for i, g in enumerate(graphs)
    ]
    partition = choose_hidden(cfg.n, n_hidden, seeds["hidden"])
    family = MultiLayerFamily(tuple(precisions), partition)
    _, covs = sample_family(family, m, seeds["sample"])
    truths = [block_view(pg.precision, partition)[0] for pg in precisions]
    return covs, truths


# ---------------------------------------------------------------------------
# Method execution and hyperparameter selection
# ---------------------------------------------------------------------------

def run_methods(covs, truths, params: MethodParams, solver_cfg: SolverConfig) -> np.ndarray:
    """Errors of the four methods on one data set, in METHODS order."""
    n_layers = covs.n_layers
    gl = [solve_gl(c, params.gl_lam, solver_cfg) for c in covs.covs]
    ggl = solve_ggl(covs, params.ggl_l1, params.ggl_l2, solver_cfg)
    lvgl = [solve_lvgl(c, params.lv_rho, params.lv_beta, solver_cfg)[0] for c in covs.covs]
    weights = PenaltyWeights.tied(
        n_layers, params.joint_rho, params.joint_beta,
        params.joint_rho * params.joint_eta, params.joint_beta * params.joint_eta)
    joint = solve_joint_hidden(covs, weights, solver_cfg).s_hat
    return np.array([
        mean_normalized_error(gl, truths),
        mean_normalized_error(ggl, truths),
        mean_normalized_error(lvgl, truths),
        mean_normalized_error(list(joint), truths),
    ])


def select_params(cfg: ExperimentConfig, sweep_index: int, fixed_graphs=None):
    """Grid-search each method on the held-out realization of one sweep value.

    The held-out realization index equals n_realizations, so it never
    appears in the Monte Carlo set. Ties resolve to the first grid point.
    Returns (params, number of method invocations spent).
    """
    solver_cfg = cfg.solver_config()
    covs, truths = realize_cell(cfg, sweep_index, cfg.n_realizations, fixed_graphs)
    spent = 0

    def best(candidates, runner):
        nonlocal spent
        best_err, best_c = np.inf, None
        for cand in candidates:
            err = runner(cand)
            spent += 1
            if err < best_err:
                best_err, best_c = err, cand
        return best_c

    gl_lam = best(cfg.rho_grid, lambda lam: mean_normalized_error(
        [solve_gl(c, lam, solver_cfg) for c in covs.covs], truths))
    ggl_l1, ggl_l2 = best(
        [(l1, l2) for l1 in cfg.rho_grid for l2 in cfg.rho_grid],
        lambda c: mean_normalized_error(solve_ggl(covs, c[0], c[1], solver_cfg), truths))
    lv_rho, lv_beta = best(
        [(r, b) for r in cfg.rho_grid for b in cfg.beta_grid],
        lambda c: mean_normalized_error(
            [solve_lvgl(cov, c[0], c[1], solver_cfg)[0] for cov in covs.covs], truths))

    def joint_err(c):
        rho, beta, eta = c
        w = PenaltyWeights.tied(covs.n_layers, rho, beta, rho * eta, beta * eta)
        return mean_normalized_error(list(solve_joint_hidden(covs, w, solver_cfg).s_hat), truths)

    joint_rho, joint_beta, joint_eta = best(
        [(r, b, e) for r in cfg.rho_grid for b in cfg.beta_grid for e in cfg.eta_grid],
        joint_err)
    params = MethodParams(gl_lam, ggl_l1, ggl_l2, lv_rho, lv_beta,
                          joint_rho, joint_beta, joint_eta)
    return params, spent


def _mc_cell(cfg: ExperimentConfig, sweep_index: int, realization: int,
             params: MethodParams, fixed_graphs):
    covs, truths = realize_cell(cfg, sweep_index, realization, fixed_graphs)
    return run_methods(covs, truths, params, cfg.solver_config())


def _mc_cell_star(args):
    return _mc_cell(*args)


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run the configured sweep: per sweep value, select hyperparameters on
    the held-out realization, then score all methods on every Monte Carlo
    realization (optionally on a process pool)."""
    start = time.time()
    fixed_graphs = load_tc3_layers(cfg) if cfg.experiment == "tc3" else None
    sweep = cfg.sweep
    selected = {}
    selection_spent = 0
    for si in range(len(sweep)):
        params, spent = select_params(cfg, si, fixed_graphs)
        selected[sweep[si]] = params
        selection_spent += spent

    tasks = [(cfg, si, r, selected[sweep[si]], fixed_graphs)
             for si in range(len(sweep)) for r in range(cfg.n_realizations)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            cell_errors = list(pool.map(_mc_cell_star, tasks, chunksize=1))
    else:
        cell_errors = [_mc_cell_star(t) for t in tasks]

    raw = np.empty((len(sweep), len(METHODS), cfg.n_realizations))
    for idx, (_, si, r, _, _) in enumerate(tasks):
        raw[si, :, r] = cell_errors[idx]
    table = ResultTable(tuple(sweep), raw.mean(axis=2))
    return RunResult(
        table=table,
        raw_errors=raw,
        selected=selected,
        mc_invocations=len(METHODS) * len(cell_errors),
        selection_invocations=selection_spent,
        runtime_seconds=time.time() - start,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def emit_csv(table: ResultTable, path) -> None:
    """Write 'xaxis,GL,GGL,LVGL,Joint' rows at 6 significant digits."""
    if not table.xaxis:
        raise InvalidInput("result table is empty")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("xaxis," + ",".join(METHODS) + "\n")
        for x, row in zip(table.xaxis, table.errors):
            fh.write(format(x, ".6g") + "," + ",".join(format(v, ".6g") for v in row) + "\n")


def manifest_path(csv_path) -> str:
    root, _ = os.path.splitext(str(csv_path))
    return root + ".manifest.txt"


def write_manifest(result: RunResult, csv_path) -> str:
    """Plain-text run record next to the CSV: config, seeds policy,
    selected hyperparameters, and the solver invocation audit."""
    cfg = result.config
    lines = [
        f"experiment = {cfg.experiment}",
        f"csv = {os.path.basename(str(csv_path))}",
        "rng = PCG64 via numpy SeedSequence([base_seed, sweep_index, realization]); "
        "normals from Generator.standard_normal (ziggurat)",
    ]
    for f in fields(ExperimentConfig):
        lines.append(f"config.{f.name} = {getattr(cfg, f.name)}")
    for value, params in result.selected.items():
        lines.append(f"selected[{value}] = {params}")
    expected = len(METHODS) * len(cfg.sweep) * cfg.n_realizations
    lines.append(f"mc_method_invocations = {result.mc_invocations} (expected {expected})")
    lines.append(f"selection_method_invocations = {result.selection_invocations}")
    lines.append(f"runtime_seconds = {result.runtime_seconds:.3f}")
    path = manifest_path(csv_path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
