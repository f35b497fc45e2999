"""Command line front end: convergence, locking, diagnostics and mesh tools.

Each subcommand builds a :class:`RunConfig` from the parsed flags, runs the
corresponding study and writes a deterministic CSV or markdown table to
stdout or to ``--out``.  Exit codes: 0 on success, 1 when the linear solver
fails or a run runs out of memory (a failing study level is named in the
message), 2 on configuration errors.  No flag sets a quadrature order:
the discretization fixes it (:func:`assembly.default_quad`).
"""

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .analysis import (
    INFSUP_CAP,
    QUANTITIES,
    ConvergenceTable,
    check_commuting_projection,
    compute_errors,
    infsup_estimate,
    interpolate_stress,
    normal_jump_norm,
    stress_l2_error,
)
from .assembly import assemble, ynorm_gram
from .fe_space import FEFunction, build_elasticity_spaces, grid_unknowns
from .mesh import (
    DEFAULT_DISTORTION,
    generate_square_mesh,
    generate_trapezoidal_mesh,
    mesh_quality,
    write_mesh,
)
from .problem import LameParams, trig_solution
from .solver import SolverError, solve

__all__ = [
    "ConfigError",
    "RunConfig",
    "main",
    "run_convergence",
    "run_diagnostics",
    "run_locking",
]

ELEMENTS = ("rt2", "rt3", "bdm1")
MESH_FAMILIES = ("square", "trapezoid")
FORMATS = ("csv", "md")

#: Number formats of the study tables, one set per output format: mesh
#: size, error, relative error in percent and observed order.
NUMBER_FORMATS = {
    "csv": {"h": ".6e", "err": ".6e", "pct": ".3f", "order": ".2f"},
    "md": {"h": ".3e", "err": ".2e", "pct": ".2f", "order": ".1f"},
}

#: Default material of every study.
DEFAULT_PARAMS = LameParams(mu=79.3, lam=123.0)

#: Default Poisson-ratio sweep for the locking study.
LOCKING_NUS = (0.3, 0.49, 0.499, 0.4999)


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Validated settings shared by the study runners."""

    element: str = "rt2"
    mesh_family: str = "square"
    distortion: float = DEFAULT_DISTORTION
    levels: tuple = (2, 4, 8, 16, 32, 64)
    params: LameParams = DEFAULT_PARAMS
    fmt: str = "csv"
    out: str | None = None
    seed: int = 0
    young: float = 1000.0
    poisson: tuple = LOCKING_NUS

    def __post_init__(self):
        if self.element not in ELEMENTS:
            raise ConfigError(f"unknown element {self.element!r}; "
                              f"choose from {ELEMENTS}")
        if self.mesh_family not in MESH_FAMILIES:
            raise ConfigError(f"unknown mesh family {self.mesh_family!r}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown format {self.fmt!r}")
        if not self.levels:
            raise ConfigError("at least one mesh level is required")
        for n in self.levels:
            if n < 1 or (n & (n - 1)) != 0:
                raise ConfigError(f"mesh levels must be powers of 2, got {n}")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError("mesh levels must be strictly increasing")
        if self.mesh_family == "trapezoid" and self.levels[0] < 2:
            raise ConfigError("the trapezoidal family needs levels n >= 2")
        if not 0.0 <= self.distortion < 0.5:
            raise ConfigError("distortion must lie in [0, 1/2)")
        # written only after the whole study has run
        if self.out is not None:
            if not self.out:
                raise ConfigError("output path is empty")
            if os.path.isdir(self.out):
                raise ConfigError(f"output path {self.out!r} is a directory")
            if not os.path.isdir(os.path.dirname(self.out) or "."):
                raise ConfigError(f"output directory of {self.out!r} does "
                                  "not exist or is not a directory")
        # the seed range np.random.RandomState accepts
        if not 0 <= self.seed < 2 ** 32:
            raise ConfigError(f"seed must lie in [0, 2**32), got {self.seed}")
        for nu in self.poisson:
            if not 0.0 <= nu < 0.5:
                raise ConfigError(
                    f"Poisson ratio must lie in [0, 1/2), got {nu}")
            # rejects a Young modulus that is not finite and positive, and
            # a pair whose lambda overflows as nu -> 1/2
            try:
                LameParams.from_young_poisson(self.young, nu)
            except ValueError as exc:
                raise ConfigError(
                    f"Young modulus {self.young:g} with Poisson ratio {nu:g} "
                    f"is not an admissible material: {exc}") from None


def build_mesh(config: RunConfig, n: int):
    if config.mesh_family == "square":
        return generate_square_mesh(n)
    return generate_trapezoidal_mesh(n, d=config.distortion)


@contextmanager
def _at_level(where: str, n: int):
    """A SolverError or MemoryError raised again naming ``where`` and n."""
    try:
        yield
    except SolverError as exc:
        raise type(exc)(f"{where}level n={n}: {exc}") from exc
    except MemoryError:
        raise SolverError(f"{where}level n={n}: out of memory") from None


def _levels(config: RunConfig, where: str):
    """Each level's ``(n, spaces)``, its mesh and spaces built once."""
    for n in config.levels:
        with _at_level(where, n):
            yield n, build_elasticity_spaces(build_mesh(config, n),
                                             config.element)


def _run_level(n: int, spaces, solution, where: str):
    """The system of one study level and its errors."""
    with _at_level(where, n):
        system = assemble(*spaces, solution.params, f=solution.f,
                          g=solution.g)
        x = system.split(solve(system).solution)
        return system, compute_errors(*map(FEFunction, spaces, x), solution)


def _table(header, rows, fmt: str) -> str:
    """A CSV or markdown table of string cells."""
    if fmt == "csv":
        lines = [",".join(cells) for cells in (header, *rows)]
    else:
        lines = ["| " + " | ".join(cells) + " |" for cells in (header, *rows)]
        lines.insert(1, "|" + "---|" * len(header))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# convergence


def run_convergence(config: RunConfig) -> ConvergenceTable:
    """Solve the trigonometric benchmark on each level and tabulate errors."""
    where = "convergence run failed at "
    solution = trig_solution(config.params)
    return ConvergenceTable(rows=tuple(_run_level(*level, solution, where)[1]
                                       for level in _levels(config, where)))


def format_convergence(table: ConvergenceTable, fmt: str) -> str:
    """Errors, percentages and orders per level; no order on the first."""
    num = NUMBER_FORMATS[fmt]
    orders = table.orders() if len(table.rows) >= 2 else {}
    cols = (("e_{}", "pct_{}", "ord_{}") if fmt == "csv"
            else ("e_{}", "%", "order"))
    header = ["h"] + [col.format(name) for name in QUANTITIES for col in cols]
    rows = []
    for i, r in enumerate(table.rows):
        cells = [format(r.h, num["h"])]
        for name in QUANTITIES:
            cells += [format(getattr(r, f"e_{name}"), num["err"]),
                      format(getattr(r, f"pct_{name}"), num["pct"]),
                      format(orders[name][i - 1], num["order"]) if i else ""]
        rows.append(cells)
    return _table(header, rows, fmt)


# ---------------------------------------------------------------------------
# locking


@dataclass(frozen=True)
class LockingRow:
    nu: float
    n: int
    total_dofs: int
    e_sigma: float
    e_u: float


def run_locking(config: RunConfig) -> tuple:
    """Error-vs-dofs sweep over Poisson ratios at fixed Young modulus."""
    rows, levels = [], list(_levels(config, "locking run failed at "))
    for nu in config.poisson:
        params = LameParams.from_young_poisson(config.young, nu)
        solution = trig_solution(params)
        for n, spaces in levels:
            system, rep = _run_level(n, spaces, solution,
                                     f"locking run failed at nu={nu}, ")
            rows.append(LockingRow(nu=nu, n=n, total_dofs=system.n,
                                   e_sigma=rep.e_sigma, e_u=rep.e_u))
    return tuple(rows)


def format_locking(rows, fmt: str) -> str:
    err = NUMBER_FORMATS[fmt]["err"]
    return _table(("nu", "n", "total_dofs", "e_sigma", "e_u"),
                  [(f"{r.nu:g}", str(r.n), str(r.total_dofs),
                    format(r.e_sigma, err), format(r.e_u, err))
                   for r in rows], fmt)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class Diagnostic:
    """One check; it passes when its value is at most its threshold."""

    name: str
    value: float
    threshold: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


def run_diagnostics(config: RunConfig) -> tuple:
    """Structure checks on the smallest level plus an inf-sup sweep.

    Failures are reported in the returned records, never raised.  A level
    above the inf-sup size cap is a ConfigError, raised before any mesh is
    built.  The output is deterministic for a given config.
    """
    for n in config.levels:
        total = grid_unknowns(config.element, n)
        if total > INFSUP_CAP:
            raise ConfigError(
                f"inf-sup diagnostic is capped at {INFSUP_CAP} unknowns; "
                f"level n={n} has {total}")
    levels = [spaces for _, spaces in _levels(config, "diagnostics at ")]

    stress, disp, _ = levels[0]
    results = []

    s5 = check_commuting_projection(stress, disp,
                                    trig_solution(config.params).sigma)
    results.append(Diagnostic("commuting-interpolation residual", s5, 1e-10,
                              f"{config.element} on n={config.levels[0]}"))

    rng = np.random.RandomState(config.seed)
    fn = FEFunction(stress, rng.standard_normal(stress.n_dofs))
    jump = normal_jump_norm(fn)
    results.append(Diagnostic("interior-edge normal jump", jump, 1e-10,
                              "random unit-scale coefficients"))

    def identity(x):
        return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))

    ierr = stress_l2_error(interpolate_stress(stress, identity), identity)
    results.append(Diagnostic("identity-field representation", ierr, 1e-10))

    estimates = [infsup_estimate(assemble(*spaces, config.params),
                                 ynorm_gram(*spaces)) for spaces in levels]
    lo, hi = min(estimates), max(estimates)
    # a zero estimate (a level the solver refuses) fails
    variation = (hi - lo) / lo if lo > 0 else float("inf")
    note = "estimates " + ", ".join(f"{v:.6e}" for v in estimates)
    results.append(Diagnostic("inf-sup variation across levels", variation,
                              0.2, note))
    return tuple(results)


def format_diagnostics(results) -> str:
    lines = []
    for d in results:
        status = "PASS" if d.passed else "FAIL"
        line = (f"{status}  {d.name}: measured {d.value:.3e} "
                f"(threshold {d.threshold:.1e})")
        if d.note:
            line += f"  [{d.note}]"
        lines.append(line)
    failed = sum(not d.passed for d in results)
    lines.append("all diagnostics passed" if failed == 0
                 else f"{failed} diagnostic(s) failed")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# mesh


def run_mesh(config: RunConfig) -> str:
    if len(config.levels) != 1:
        raise ConfigError("the mesh subcommand takes a single level")
    n = config.levels[0]
    mesh = build_mesh(config, n)
    quality = mesh_quality(mesh)
    lines = [  # the square family ignores the distortion
        f"mesh: {config.mesh_family} n={n}" + (
            f" distortion={config.distortion:g}"
            if config.mesh_family == "trapezoid" else ""),
        f"vertices: {mesh.n_vertices}  quads: {mesh.n_quads}  "
        f"edges: {mesh.n_edges}",
        f"h_max: {quality.h_max:.6e}  "
        f"shape_regularity: {quality.shape_regularity:.6f}",
    ]
    if config.out:
        write_mesh(mesh, config.out)
        lines.append(f"wrote mesh to {config.out}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


def _parse_list(kind, what: str, kinds: str):
    """An argparse type: a tuple of comma-separated ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be comma-separated {kinds}, got {text!r}")
    return parse


_parse_levels = _parse_list(int, "levels", "integers")


def _add_shared_flags(sub, levels_default):
    sub.add_argument("--mesh", dest="mesh_family", choices=MESH_FAMILIES,
                     default="square")
    sub.add_argument("--distortion", type=float, default=DEFAULT_DISTORTION,
                     help="trapezoid offset as a fraction of the cell height")
    sub.add_argument("--levels", type=_parse_levels, default=levels_default,
                     help="comma-separated mesh subdivisions, e.g. 2,4,8")


def _add_material_flags(sub):
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="first Lame parameter")
    sub.add_argument("--mu", type=float, default=None,
                     help="shear modulus")
    sub.add_argument("--E", type=float, default=None, help="Young modulus")
    sub.add_argument("--nu", type=float, default=None, help="Poisson ratio")


def _resolve_params(args) -> LameParams:
    have_lame = args.lam is not None or args.mu is not None
    have_young = args.E is not None or args.nu is not None
    if have_lame and have_young:
        raise ConfigError("give either --lambda/--mu or --E/--nu, not both")
    if have_lame:
        if args.lam is None or args.mu is None:
            raise ConfigError("--lambda and --mu must be given together")
        return LameParams(mu=args.mu, lam=args.lam)
    if have_young:
        if args.E is None or args.nu is None:
            raise ConfigError("--E and --nu must be given together")
        return LameParams.from_young_poisson(args.E, args.nu)
    return DEFAULT_PARAMS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadelast",
        description="Mixed-element elasticity studies on quadrilateral meshes")
    subs = parser.add_subparsers(dest="command", required=True)

    conv = subs.add_parser("convergence",
                           help="error table for the trigonometric benchmark")
    lock = subs.add_parser("locking",
                           help="near-incompressible sweep at fixed E")
    diag = subs.add_parser("diagnostics",
                           help="stability and conformity checks")
    mesh = subs.add_parser("mesh", help="generate and inspect a mesh")
    for sub in (conv, lock, diag):
        sub.add_argument("--element", choices=ELEMENTS, default="rt2")
    _add_shared_flags(conv, (2, 4, 8, 16, 32, 64))
    _add_shared_flags(lock, (2, 4, 8, 16, 32))
    _add_shared_flags(diag, (2, 4))
    _add_shared_flags(mesh, (4,))
    for sub in (conv, lock, diag):
        sub.add_argument("--out", help="output path (default stdout)")
    mesh.add_argument("--out", help="mesh file to write (summary on stdout)")

    _add_material_flags(conv)
    lock.set_defaults(element="bdm1", mesh_family="trapezoid")
    lock.add_argument("--E", dest="young", metavar="E", type=float,
                      default=1000.0, help="Young modulus")
    lock.add_argument("--nu", dest="poisson", metavar="NU",
                      type=_parse_list(float, "Poisson ratios", "floats"),
                      default=LOCKING_NUS,
                      help="comma-separated Poisson ratios")
    for table in (conv, lock):
        table.add_argument("--format", dest="fmt", choices=FORMATS,
                           default="csv")
    _add_material_flags(diag)
    diag.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args) -> RunConfig:
    # each subcommand registers only the RunConfig fields it reads
    kwargs = {k: v for k, v in vars(args).items()
              if k in RunConfig.__dataclass_fields__}
    if args.command in ("convergence", "diagnostics"):
        kwargs.update(params=_resolve_params(args))
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "convergence":
            text = format_convergence(run_convergence(config), config.fmt)
        elif args.command == "locking":
            text = format_locking(run_locking(config), config.fmt)
        elif args.command == "diagnostics":
            text = format_diagnostics(run_diagnostics(config))
        else:
            text = run_mesh(config)
        # the mesh subcommand writes its mesh, not its summary, to --out
        if config.out is None or args.command == "mesh":
            sys.stdout.write(text)
        else:
            with open(config.out, "w") as fh:
                fh.write(text)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the studies read no file; a write failed
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
