"""Benchmark harness: seeded Monte Carlo sweeps over synthetic and real
multi-layer GMRF data, hyperparameter grid selection on a held-out
realization, and CSV emission of the per-sweep mean errors.

Every cell (sweep value, realization) derives its seeds from
(base_seed, sweep index, realization index) only, so all four methods
see identical data. Both phases map one task function, _solve_task,
over one pool of `workers` processes, each on one BLAS thread. A task
realizes its cells once and solves each job, a method at a list of
hyperparameter tuples laid out as rho steps, on every cell: the tuples
are walked as warm-started rho paths, and each step is one batch of
problems across paths and cells. Selection is one task per sweep value
x method on the held-out cell at the method's whole grid, and the parent
reduces its errors in grid order. The Monte Carlo phase is one task per
chunk of a sweep value's realizations, with one job per method at its
selected tuple: a single step, solved cold, so it equals the public
solver's output. A batch's problems get the bits of their solves alone,
and batches are capped in memory (_BATCH_BYTES), so reruns are
byte-identical and no result depends on the worker count.
"""
import ctypes
import math
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import ConfigError, InvalidInput
from .graphs import (
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
# the keys each experiment does not read, which its config must leave at their defaults
_UNREAD = {
    "tc1": ("k", "m_sweep", "o_sweep", "data_files", "synthetic_substitute"),
    "tc2": ("p", "m", "k_sweep", "o_sweep", "data_files", "synthetic_substitute"),
    "tc3": ("n_hidden", "k_sweep", "m_sweep"),
}
# Bound on the bytes of one (B, K, o, o) stack of a batched solve: a task's
# problems are solved in batches of at most this size. At 2**20 a task of
# the tc1, tc2 or tc3 preset is one batch per rho step (a Joint selection
# step at K = 6, O = 18: 15 problems, 0.23 MiB; at K = 4, O = 31: 0.44 MiB;
# a Monte Carlo task of all 20 realizations at K = 4, O = 31: 0.59 MiB).
_BATCH_BYTES = 2 ** 20
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
    from a file. A field the experiment does not read (_UNREAD) must keep
    its default.
    """

    experiment: str
    # graph family
    n: int = 20
    p: float = 0.15
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
        for f in fields(self):
            if f.name in _UNREAD[self.experiment] and getattr(self, f.name) != f.default:
                readers = " and ".join(e for e in EXPERIMENTS if f.name not in _UNREAD[e])
                raise ConfigError(f"{self.experiment} does not read {f.name}: "
                                  f"it is one of the {readers} keys")
        for name in ("n", "k", "m", "n_realizations", "max_iters", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.base_seed < 0 or self.n_hidden < 0:
            raise ConfigError("base_seed and n_hidden must be nonnegative")
        if self.n_hidden >= self.n and "n_hidden" not in _UNREAD[self.experiment]:
            raise ConfigError("n_hidden must be smaller than n")
        axis = _SWEEP_AXES[self.experiment]
        if not self.sweep:
            raise ConfigError(f"{self.experiment} requires a nonempty {axis}")
        if any(v < 1 for v in self.sweep):
            raise ConfigError(f"{axis} values must be positive")
        if len(set(self.sweep)) != len(self.sweep):
            raise ConfigError(f"{axis} repeats a value: {self.sweep}")
        if self.experiment == "tc3":
            if any(o > self.n for o in self.o_sweep):
                raise ConfigError("o_sweep values cannot exceed n")
            if bool(self.data_files) == self.synthetic_substitute:
                raise ConfigError("tc3 needs exactly one of data_files and "
                                  "synthetic_substitute = true")
            if self.data_files and self.p != ExperimentConfig.p:
                raise ConfigError("tc3 does not read p with data_files: the files give its graphs")
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
    "tc2": {"m_sweep": (50, 100, 200, 350, 500)},
    "tc3": {"o_sweep": (25, 26, 27, 28, 29, 30, 31), "n": 32},
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
    # ADMM iterations summed over every solve of the phase
    mc_iterations: int
    selection_iterations: int
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


def _layer_graphs(cfg: ExperimentConfig, n_layers: int, seeds) -> list:
    """A base graph and n_layers - 1 variants that each move ceil(10 %) of its
    edges; tc2's base is Watts-Strogatz with 4 ring neighbors and rewiring
    probability 0.15, the others' Erdos-Renyi, all as in the paper."""
    if cfg.experiment == "tc2":
        base = gen_small_world(cfg.n, 4, 0.15, seeds["graph"])
    else:
        base = gen_erdos_renyi(cfg.n, cfg.p, seeds["graph"])
    return gen_rewired_family(base, n_layers, math.ceil(0.1 * base.n_edges), seeds["family"])


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
    # edge weights in [0.5, 1.0] and a diagonal margin of 0.1: the paper's, to_precision's defaults
    precisions = [to_precision(g, rng_seed=seeds["prec"] + i) for i, g in enumerate(graphs)]
    partition = choose_hidden(cfg.n, n_hidden, seeds["hidden"])
    family = MultiLayerFamily(tuple(precisions), partition)
    covs = sample_family(family, m, seeds["sample"])
    truths = [block_view(pg.precision, partition)[0] for pg in precisions]
    return covs, truths


# ---------------------------------------------------------------------------
# Cell scoring and hyperparameter selection
# ---------------------------------------------------------------------------

def _grid(cfg: ExperimentConfig, method: str) -> list:
    """A method's candidate hyperparameter tuples as rho steps: step i holds
    one tuple per path, rho_grid[i] (GL's lambda, GGL's lambda1) first and
    the path's other hyperparameters after it. Read row by row, the steps
    are the selection order."""
    rho, beta, eta = cfg.rho_grid, cfg.beta_grid, cfg.eta_grid
    paths = {"GL": [()], "GGL": [(l2,) for l2 in rho], "LVGL": [(b,) for b in beta],
             "Joint": [(b, e) for b in beta for e in eta]}[method]
    return [[(r, *rest) for rest in paths] for r in rho]


def _solve(method: str, covs, hps, solver_cfg: SolverConfig, starts):
    """One batched solve of a method: problem p on the covariance stack
    covs[p] of the (B, K, o, o) stack covs (K = 1 for GL and LVGL), at the
    hyperparameters hps[p], started from starts[p] (None: cold, else the
    AdmmRun to continue). Returns (the (B, K, o, o) S_O stack, the AdmmRun
    of each problem)."""
    if method in ("GL", "GGL"):   # GL is GGL at one layer, lambda2 = 0
        lambda2 = [hp[1] for hp in hps] if method == "GGL" else np.zeros(len(hps))
        return _solve_ggl(covs, [hp[0] for hp in hps], lambda2, solver_cfg, starts)
    weights = []
    for hp in hps:
        rho, beta, eta = hp if method == "Joint" else (*hp, 0.0)   # LVGL is Joint at K = 1
        weights.append(PenaltyWeights.tied(covs.shape[1], rho, beta, rho * eta, beta * eta))
    s_hat, _, runs = _solve_joint(covs, weights, solver_cfg, starts)
    return s_hat, runs


def _solve_task(cfg: ExperimentConfig, sweep_index: int, realizations, jobs):
    """Realize the cells (sweep_index, r), r in realizations, once and
    solve each (method, steps) job on every cell, steps laid out as _grid
    lays them out. Returns, per job, the errors (cells, tuples) with the
    steps read row by row, the number of (cell, tuple) points with a solve
    that did not converge, and the ADMM iterations of all their solves.

    A job's problems are one flat list, ordered (cell, path, layer): GGL
    and Joint solve a point's stack as one problem, GL and LVGL each of
    its K layers as a one-layer problem. Each path is walked by position,
    from the step of largest rho down: a problem's first solve starts cold
    and each later one from the AdmmRun its previous one ended in
    (Friedman, Hastie & Tibshirani, JSS 2010), so a job of one step is
    solved cold, as the public solvers do. Each step solves every problem,
    in _solve calls whose (B, K, o, o) stacks stay under _BATCH_BYTES;
    each problem's bits are those of its solve alone, so the result does
    not depend on the split."""
    cells = [realize_cell(cfg, sweep_index, r) for r in realizations]
    stack = np.stack([covs.covs for covs, _ in cells])   # (cells, K, o, o)
    _, k, o, _ = stack.shape
    solver_cfg = cfg.solver_config()
    out = []
    for method, steps in jobs:
        n_paths = len(steps[0])
        layers = k if method in ("GL", "LVGL") else 1   # problems per point
        rows = np.repeat(stack, n_paths, axis=0).reshape(-1, k // layers, o, o)
        size = max(1, _BATCH_BYTES // rows[0].nbytes)
        runs = [None] * len(rows)
        errors = np.empty((len(cells), len(steps), n_paths))
        unconverged = iterations = 0
        for i in sorted(range(len(steps)), key=lambda i: -steps[i][0][0]):
            hps = [hp for hp in steps[i] * len(cells) for _ in range(layers)]
            s_hat = []
            for lo in range(0, len(rows), size):
                s, runs[lo:lo + size] = _solve(method, rows[lo:lo + size], hps[lo:lo + size],
                                               solver_cfg, runs[lo:lo + size])
                s_hat.append(s)
            s_hat = np.concatenate(s_hat).reshape(len(cells), n_paths, k, o, o)
            for cell, path in np.ndindex(len(cells), n_paths):
                errors[cell, i, path] = mean_normalized_error(s_hat[cell, path], cells[cell][1])
            converged = np.reshape([run.converged for run in runs], (-1, layers))
            unconverged += int((~converged.all(axis=1)).sum())
            iterations += sum(run.iterations for run in runs)
        out.append((errors.reshape(len(cells), -1), unconverged, iterations))
    return out


def _one_blas_thread():
    """Pool initializer: run this worker's OpenBLAS on one thread, unless
    OPENBLAS_NUM_THREADS sets a count. A cell then gets the same bits at any
    worker count, and the workers do not oversubscribe the cores: forked with
    a threaded BLAS, a tc3 run at O = 32 took 4x the wall time on 2 cores."""
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
    errors over _grid(cfg, method) read row by row, to the first grid point
    of least error."""
    chosen = []
    for method in METHODS:
        best_err, best_hp = np.inf, None
        for hp, err in zip(sum(_grid(cfg, method), []), held_out_errors[method]):
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
    phases map one task function over the same pool of cfg.workers
    processes, at most one per CPU, each on one BLAS thread."""
    start = time.time()
    sweep_indices = range(len(cfg.sweep))
    n_workers = min(cfg.workers, os.cpu_count() or 1)
    with ProcessPoolExecutor(n_workers, initializer=_one_blas_thread) as pool:
        # Joint's grid, then LVGL's, is most of the selection time: queue them first.
        selection = [(si, method) for method in reversed(METHODS) for si in sweep_indices]
        held_out = [jobs[0] for jobs in pool.map(
            _solve_task, repeat(cfg), [si for si, _ in selection], repeat((cfg.n_realizations,)),
            [[(method, _grid(cfg, method))] for _, method in selection])]
        by_cell = {cell: errors[0] for cell, (errors, _, _) in zip(selection, held_out)}
        selected = {cfg.sweep[si]: select_params(
            cfg, {method: by_cell[si, method] for method in METHODS}) for si in sweep_indices}
        selection_seconds = time.time() - start

        # chunks of one sweep value's realizations, enough for every worker
        chunk = -(-cfg.n_realizations // n_workers)
        scoring = [(si, range(lo, min(lo + chunk, cfg.n_realizations)),
                    [(method, [[selected[cfg.sweep[si]].hyperparameters(method)]])
                     for method in METHODS])
                   for si in sweep_indices for lo in range(0, cfg.n_realizations, chunk)]
        scores = list(pool.map(_solve_task, repeat(cfg), *zip(*scoring)))

    raw = np.empty((len(cfg.sweep), len(METHODS), cfg.n_realizations))
    for (si, cells, _), jobs in zip(scoring, scores):
        raw[si, :, cells.start:cells.stop] = [errors[:, 0] for errors, _, _ in jobs]
    scored = [job for jobs in scores for job in jobs]
    runtime = time.time() - start
    return RunResult(
        table=ResultTable(tuple(cfg.sweep), raw.mean(axis=2)),
        raw_errors=raw,
        selected=selected,
        mc_invocations=sum(errors.size for errors, _, _ in scored),
        selection_invocations=sum(errors.size for errors, _, _ in held_out),
        mc_unconverged=sum(n for _, n, _ in scored),
        selection_unconverged=sum(n for _, n, _ in held_out),
        mc_iterations=sum(n for _, _, n in scored),
        selection_iterations=sum(n for _, _, n in held_out),
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
    lines.append(f"admm_iterations = selection {result.selection_iterations}, "
                 f"monte_carlo {result.mc_iterations}")
    lines.append(f"runtime_seconds = {result.runtime_seconds:.3f}")
    lines.append(f"selection_seconds = {result.selection_seconds:.3f}")
    lines.append(f"monte_carlo_seconds = {result.monte_carlo_seconds:.3f}")
    path = manifest_path(csv_path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
