"""Benchmark harness: seeded Monte Carlo sweeps over synthetic and real
multi-layer GMRF data, hyperparameter grid selection on a held-out
realization, and CSV emission of the per-sweep mean errors.

Every cell (sweep value, realization) derives its seeds from
(base_seed, sweep index, realization index) only, so all four methods
see identical data. Selection is one task per sweep value x method on
the held-out cell, run on the same process pool as the Monte Carlo
cells and reduced in grid order in the parent, so reruns are
byte-identical and the result does not depend on the worker count. A
selection task walks its grid as warm-started rho paths; every Monte
Carlo solve starts cold, so it equals the public solver's output.
"""
import ctypes
import math
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import repeat

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
from .sampling import ObservedCovariances, sample_family
from .solvers import (  # noqa: F401  (perfbench/spans.py wraps the public solvers here)
    PenaltyWeights,
    SolverConfig,
    _solve_ggl,
    _solve_joint,
    solve_ggl,
    solve_gl,
    solve_joint_hidden,
    solve_lvgl,
)

METHODS = ("GL", "GGL", "LVGL", "Joint")
EXPERIMENTS = ("tc1", "tc2", "tc3")

_SUBSTITUTE_TAG = 980131   # seed tag for the synthetic 32-node stand-in
# each experiment's sweep-axis field
_SWEEP_AXES = {"tc1": "k_sweep", "tc2": "m_sweep", "tc3": "o_sweep"}
# OpenBLAS's thread-count setter under the names of its plain, 64-bit-index
# and numpy/scipy-wheel builds.
_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _logspace(lo_exp, hi_exp, num):
    return tuple(float(v) for v in np.logspace(lo_exp, hi_exp, num))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, file-friendly description of one benchmark run.

    Every field is converted to its declared type on construction (see
    _parse_value), so a config built directly is checked like one read
    from a file.
    """

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
    k_sweep: tuple[int, ...] = ()  # tc1 axis
    m: int = 200
    m_sweep: tuple[int, ...] = ()  # tc2 axis
    o_sweep: tuple[int, ...] = ()  # tc3 axis
    # monte carlo
    n_realizations: int = 20
    base_seed: int = 0
    workers: int = 1
    # penalty grids (shared across methods; eta scales the fusion weights)
    rho_grid: tuple[float, ...] = _logspace(-2, 0, 5)
    beta_grid: tuple[float, ...] = _logspace(-2, 0.5, 5)
    eta_grid: tuple[float, ...] = (0.5, 1.0, 2.0)
    # solver (looser than SolverConfig's defaults: a sweep runs thousands of solves)
    max_iters: int = 800
    tol_primal: float = 1e-4
    tol_dual: float = 1e-4
    # tc3 data
    data_files: tuple[str, ...] = ()
    synthetic_substitute: bool = False

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _parse_value(f.name, getattr(self, f.name)))
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        for name in ("n", "k", "m", "n_realizations", "max_iters", "workers", "neighbors"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.base_seed < 0 or self.n_hidden < 0 or self.n_rewire < 0:
            raise ConfigError("base_seed, n_hidden and n_rewire must be nonnegative")
        if self.n_hidden >= self.n:
            raise ConfigError("n_hidden must be smaller than n")
        for name in _SWEEP_AXES.values():
            values = getattr(self, name)
            if name == _SWEEP_AXES[self.experiment]:
                if not values:
                    raise ConfigError(f"{self.experiment} requires a nonempty {name}")
                if any(v < 1 for v in values):
                    raise ConfigError(f"{name} values must be positive")
                if len(set(values)) != len(values):
                    raise ConfigError(f"{name} repeats a value: {values}")
            elif values:
                raise ConfigError(f"{name} is not a sweep axis of {self.experiment}")
        if self.experiment == "tc3":
            if any(o > self.n for o in self.o_sweep):
                raise ConfigError("o_sweep values cannot exceed n")
            if bool(self.data_files) == self.synthetic_substitute:
                raise ConfigError("tc3 needs exactly one of data_files and "
                                  "synthetic_substitute = true")
        elif self.data_files or self.synthetic_substitute:
            raise ConfigError("data_files and synthetic_substitute are tc3 keys, "
                              f"not {self.experiment} ones")
        for name in ("rho_grid", "beta_grid", "eta_grid"):
            values = getattr(self, name)
            if not values:
                raise ConfigError("penalty grids must be nonempty")
            if not all(0 <= v < math.inf for v in values):
                raise ConfigError(f"{name} values must be finite and nonnegative")
        try:
            object.__setattr__(self, "_solver_config", SolverConfig(
                max_iters=self.max_iters, tol_primal=self.tol_primal, tol_dual=self.tol_dual))
        except ValueError as exc:
            raise ConfigError(f"solver settings: {exc}") from exc

    def solver_config(self) -> SolverConfig:
        return self._solver_config

    @property
    def sweep(self) -> tuple:
        return getattr(self, _SWEEP_AXES[self.experiment])


_DEFAULT_SWEEPS = {
    "tc1": {"k_sweep": (1, 2, 3, 4, 5, 6)},
    "tc2": {"m_sweep": (50, 100, 200, 350, 500), "k": 4},
    "tc3": {"o_sweep": (25, 26, 27, 28, 29, 30, 31), "n": 32, "k": 4},
}


def _parse_item(kind: type, raw):
    """kind(raw), refusing to truncate a non-integral number to an int."""
    value = kind(raw)
    if kind is int and not isinstance(raw, str) and value != raw:
        raise ValueError(f"{raw!r} is not an integer")
    return value


def _parse_value(name: str, raw):
    """Convert a raw value to the type its ExperimentConfig field declares;
    a tuple field takes a comma-separated list or a sequence of items."""
    text = str(raw).strip()
    target = ExperimentConfig.__dataclass_fields__[name].type
    if target is bool:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name} expects a boolean, got {raw!r}")
    try:
        if typing.get_origin(target) is tuple:
            items = raw if isinstance(raw, (tuple, list)) else \
                [v.strip() for v in text.split(",") if v.strip()]
            return tuple(_parse_item(typing.get_args(target)[0], v) for v in items)
        return _parse_item(target, text if isinstance(raw, str) else raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot read {name} = {raw!r}: {exc}") from exc


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
            values[key] = raw
    return ExperimentConfig(experiment=experiment, **values)


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

    def hyperparameters(self, method: str) -> tuple:
        """One method's tuple, laid out as _grid yields it."""
        return {"GL": (self.gl_lam,), "GGL": (self.ggl_l1, self.ggl_l2),
                "LVGL": (self.lv_rho, self.lv_beta),
                "Joint": (self.joint_rho, self.joint_beta, self.joint_eta)}[method]


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
    # method invocations with a solve that stopped at max_iters unconverged
    mc_unconverged: int
    selection_unconverged: int
    runtime_seconds: float
    selection_seconds: float
    monte_carlo_seconds: float
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
    return _layer_graphs(cfg, cfg.k, derive_cell_seeds(cfg.base_seed, _SUBSTITUTE_TAG, 0))


def load_tc3_layers(cfg: ExperimentConfig) -> list:
    if cfg.data_files:
        graphs = load_multilayer(cfg.data_files)
        if graphs[0].n_nodes != cfg.n:
            raise ConfigError(
                f"data files have {graphs[0].n_nodes} nodes but the config says n = {cfg.n}")
        if len(graphs) != cfg.k:
            raise ConfigError(f"{len(graphs)} data files given but the config says k = {cfg.k}")
        return graphs
    return substitute_layers(cfg)


def realize_cell(cfg: ExperimentConfig, sweep_index: int, realization: int):
    """Generate one cell's data: observed covariances and true S_O blocks."""
    seeds = derive_cell_seeds(cfg.base_seed, sweep_index, realization)
    value = cfg.sweep[sweep_index]
    if cfg.experiment == "tc1":
        graphs, m, n_hidden = _layer_graphs(cfg, value, seeds), cfg.m, cfg.n_hidden
    elif cfg.experiment == "tc2":
        graphs, m, n_hidden = _layer_graphs(cfg, cfg.k, seeds), value, cfg.n_hidden
    else:
        graphs, m, n_hidden = load_tc3_layers(cfg), cfg.m, cfg.n - value
    precisions = [
        to_precision(g, (cfg.weight_lo, cfg.weight_hi), cfg.diag_margin, seeds["prec"] + i)
        for i, g in enumerate(graphs)
    ]
    partition = choose_hidden(cfg.n, n_hidden, seeds["hidden"])
    family = MultiLayerFamily(tuple(precisions), partition)
    covs = sample_family(family, m, seeds["sample"])
    truths = [block_view(pg.precision, partition)[0] for pg in precisions]
    return covs, truths


# ---------------------------------------------------------------------------
# Cell scoring and hyperparameter selection
# ---------------------------------------------------------------------------

def _grid(cfg: ExperimentConfig, method: str) -> list:
    """A method's candidate hyperparameter tuples, in selection order. The
    first entry is the outer loop, over rho_grid."""
    rho, beta, eta = cfg.rho_grid, cfg.beta_grid, cfg.eta_grid
    return {
        "GL": [(lam,) for lam in rho],
        "GGL": [(l1, l2) for l1 in rho for l2 in rho],
        "LVGL": [(r, b) for r in rho for b in beta],
        "Joint": [(r, b, e) for r in rho for b in beta for e in eta],
    }[method]


def _solve(method: str, covs, hp: tuple, solver_cfg: SolverConfig, start):
    """One solve of a method on the ObservedCovariances covs, from the
    AdmmState start (None: cold): (S_O estimates, converged, end AdmmState)."""
    if method in ("GL", "GGL"):   # GL is GGL at one layer, lambda2 = 0
        return _solve_ggl(covs, hp[0], hp[1] if method == "GGL" else 0.0, solver_cfg, start)
    rho, beta, eta = hp if method == "Joint" else (*hp, 0.0)   # LVGL is Joint at K = 1
    weights = PenaltyWeights.tied(covs.n_layers, rho, beta, rho * eta, beta * eta)
    est, end = _solve_joint(covs, weights, solver_cfg, start)
    return list(est.s_hat), est.converged, end


def _estimate(method: str, covs, hp: tuple, solver_cfg: SolverConfig, start=None):
    """One method's S_O estimates, one per layer, at hyperparameters hp;
    whether every solve converged; and the end state to start the next
    call from. start is such a state (None: cold, as the public solvers
    start). GL and LVGL solve each layer on its own and keep one state per
    layer."""
    if method in ("GGL", "Joint"):
        return _solve(method, covs, hp, solver_cfg, start)
    runs = [_solve(method, ObservedCovariances((c,)), hp, solver_cfg, s)
            for c, s in zip(covs.covs, start or repeat(None))]
    estimates, converged, ends = zip(*runs)
    return [s for layer in estimates for s in layer], all(converged), ends


def _score_cell(cfg: ExperimentConfig, sweep_index: int, realization: int, jobs):
    """Realize one Monte Carlo cell once and solve each (method, hp) job
    cold: (the error of each job, the number of jobs that did not converge)."""
    covs, truths = realize_cell(cfg, sweep_index, realization)
    solver_cfg = cfg.solver_config()
    errors, unconverged = [], 0
    for method, hp in jobs:
        estimates, converged, _ = _estimate(method, covs, hp, solver_cfg)
        errors.append(mean_normalized_error(estimates, truths))
        unconverged += not converged
    return errors, unconverged


def _select_cell(cfg: ExperimentConfig, sweep_index: int, method: str):
    """One method's held-out errors over _grid(cfg, method), in grid order,
    and the number of grid points that did not converge.

    The grid is walked as paths that fix every hyperparameter but rho (GL's
    lambda, GGL's lambda1), each from its largest rho down. A path's first
    solve starts cold and each later one where the previous one ended
    (Friedman, Hastie & Tibshirani, JSS 2010)."""
    covs, truths = realize_cell(cfg, sweep_index, cfg.n_realizations)
    solver_cfg = cfg.solver_config()
    grid = _grid(cfg, method)
    n_paths = len(grid) // len(cfg.rho_grid)
    descending = sorted(range(len(cfg.rho_grid)), key=lambda r: -cfg.rho_grid[r])
    errors, unconverged = [None] * len(grid), 0
    for path in range(n_paths):
        state = None
        for r in descending:
            point = r * n_paths + path
            estimates, converged, state = _estimate(method, covs, grid[point], solver_cfg, state)
            errors[point] = mean_normalized_error(estimates, truths)
            unconverged += not converged
    return errors, unconverged


def _one_blas_thread():
    """Pool initializer: run this worker's OpenBLAS on one thread, unless
    OPENBLAS_NUM_THREADS sets a count. The pool already fills the cores, and
    workers forked from a parent with a threaded BLAS oversubscribe them: a
    tc3 run at O = 32 took four times the wall time on 2 cores."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return
    for lib in libs:
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                getattr(lib, name)(1)


def select_params(cfg: ExperimentConfig, held_out_errors: dict) -> MethodParams:
    """Reduce one sweep value's held-out errors, which map each method to its
    errors over _grid(cfg, method), to the first grid point of least error."""
    chosen = []
    for method in METHODS:
        best_err, best_hp = np.inf, None
        for hp, err in zip(_grid(cfg, method), held_out_errors[method]):
            if err < best_err:
                best_err, best_hp = err, hp
        chosen.extend(best_hp)
    return MethodParams(*chosen)


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run the configured sweep: per sweep value, select hyperparameters on
    the held-out realization (index n_realizations, never a Monte Carlo
    one), then score all methods on every Monte Carlo realization. Both
    phases map one task function over the same process pool (the builtin
    map when workers = 1), of at most one process per CPU."""
    start = time.time()
    sweep_indices = range(len(cfg.sweep))
    with ProcessPoolExecutor(min(cfg.workers, os.cpu_count() or 1),
                             initializer=_one_blas_thread) \
            if cfg.workers > 1 else nullcontext() as pool:
        mapper = pool.map if pool else map
        # Joint's grid, then LVGL's, is most of the selection time: queue them first.
        selection = [(si, method) for method in reversed(METHODS) for si in sweep_indices]
        held_out = list(mapper(_select_cell, repeat(cfg), *zip(*selection)))
        by_cell = {cell: errors for cell, (errors, _) in zip(selection, held_out)}
        selected = {cfg.sweep[si]: select_params(
            cfg, {method: by_cell[si, method] for method in METHODS}) for si in sweep_indices}
        selection_seconds = time.time() - start

        cells = [(si, r, [(method, selected[cfg.sweep[si]].hyperparameters(method))
                          for method in METHODS])
                 for si in sweep_indices for r in range(cfg.n_realizations)]
        scores = list(mapper(_score_cell, repeat(cfg), *zip(*cells)))

    raw = np.empty((len(cfg.sweep), len(METHODS), cfg.n_realizations))
    for (si, r, _), (errors, _) in zip(cells, scores):
        raw[si, :, r] = errors
    runtime = time.time() - start
    return RunResult(
        table=ResultTable(tuple(cfg.sweep), raw.mean(axis=2)),
        raw_errors=raw,
        selected=selected,
        mc_invocations=len(METHODS) * len(cells),
        selection_invocations=sum(len(errors) for errors, _ in held_out),
        mc_unconverged=sum(n for _, n in scores),
        selection_unconverged=sum(n for _, n in held_out),
        runtime_seconds=runtime,
        selection_seconds=selection_seconds,
        monte_carlo_seconds=runtime - selection_seconds,
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
    lines.append(f"unconverged_method_invocations = selection {result.selection_unconverged}, "
                 f"monte_carlo {result.mc_unconverged}")
    lines.append(f"runtime_seconds = {result.runtime_seconds:.3f}")
    lines.append(f"selection_seconds = {result.selection_seconds:.3f}")
    lines.append(f"monte_carlo_seconds = {result.monte_carlo_seconds:.3f}")
    path = manifest_path(csv_path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
