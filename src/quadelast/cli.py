"""Command line front end: convergence, locking, diagnostics and mesh tools.

Each subcommand builds a :class:`RunConfig` from the parsed flags, runs the
corresponding study and writes a deterministic CSV or markdown table to
stdout or to ``--out``.  Exit codes: 0 on success, 1 when the linear solver
fails (the failing level is named in the message), 2 on configuration
errors.
"""

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (
    INFSUP_CAP,
    ConvergenceTable,
    check_commuting_projection,
    compute_errors,
    infsup_estimate,
    interpolate_stress,
    normal_jump_norm,
)
from .assembly import assemble, default_quad, ynorm_gram
from .fe_space import FEFunction, build_elasticity_spaces, evaluate_batch
from .mapping import gauss_rule, geometry_at
from .mesh import (
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

CSV_COLUMNS = ("h,e_sigma,pct_sigma,ord_sigma,e_div,pct_div,ord_div,"
               "e_u,pct_u,ord_u,e_p,pct_p,ord_p")
LOCKING_COLUMNS = "nu,n,total_dofs,e_sigma,e_u"

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
    distortion: float = 1.0 / 6.0
    levels: tuple = (2, 4, 8, 16, 32, 64)
    params: LameParams = DEFAULT_PARAMS
    quad: int | None = None
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
        if self.quad is not None and self.quad < 1:
            raise ConfigError("quadrature order must be >= 1")
        # written only after the whole study has run
        if self.out is not None and not os.path.isdir(
                os.path.dirname(self.out) or "."):
            raise ConfigError(f"output directory of {self.out!r} does not "
                              "exist or is not a directory")
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


def _solve_level(config: RunConfig, n: int, solution):
    mesh = build_mesh(config, n)
    spaces = build_elasticity_spaces(mesh, config.element)
    system = assemble(*spaces, solution.params,
                      f=solution.f, g=solution.g, quad=config.quad)
    report = solve(system)
    sh, uh, ph = system.split(report.solution)
    fields = tuple(FEFunction(s, c) for s, c in zip(spaces, (sh, uh, ph)))
    return system, fields


# ---------------------------------------------------------------------------
# convergence


def run_convergence(config: RunConfig) -> ConvergenceTable:
    """Solve the trigonometric benchmark on each level and tabulate errors."""
    solution = trig_solution(config.params)
    rows = []
    for n in config.levels:
        try:
            _, (sh, uh, ph) = _solve_level(config, n, solution)
        except SolverError as exc:
            raise type(exc)(
                f"convergence run failed at level n={n}: {exc}") from exc
        rows.append(compute_errors(sh, uh, ph, solution))
    return ConvergenceTable(rows=tuple(rows))


def _order_strings(table: ConvergenceTable, fmt_one) -> dict:
    orders = table.orders() if len(table.rows) >= 2 else {}
    out = {}
    for name in ("sigma", "div", "u", "p"):
        vals = orders.get(name, np.empty(0))
        out[name] = [""] + [fmt_one(v) for v in vals]
    return out


def format_convergence_csv(table: ConvergenceTable) -> str:
    ords = _order_strings(table, lambda v: f"{v:.2f}")
    lines = [CSV_COLUMNS]
    for i, r in enumerate(table.rows):
        lines.append(",".join([
            f"{r.h:.6e}",
            f"{r.e_sigma:.6e}", f"{r.pct_sigma:.3f}", ords["sigma"][i],
            f"{r.e_div:.6e}", f"{r.pct_div:.3f}", ords["div"][i],
            f"{r.e_u:.6e}", f"{r.pct_u:.3f}", ords["u"][i],
            f"{r.e_p:.6e}", f"{r.pct_p:.3f}", ords["p"][i],
        ]))
    return "\n".join(lines) + "\n"


def format_convergence_md(table: ConvergenceTable) -> str:
    ords = _order_strings(table, lambda v: f"{v:.1f}")
    header = ("| h | e_sigma | % | order | e_div | % | order "
              "| e_u | % | order | e_p | % | order |")
    lines = [header, "|" + "---|" * 13]
    for i, r in enumerate(table.rows):
        cells = [f"{r.h:.3e}"]
        for name, err, pct in (("sigma", r.e_sigma, r.pct_sigma),
                               ("div", r.e_div, r.pct_div),
                               ("u", r.e_u, r.pct_u),
                               ("p", r.e_p, r.pct_p)):
            cells += [f"{err:.2e}", f"{pct:.2f}", ords[name][i]]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


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
    rows = []
    for nu in config.poisson:
        params = LameParams.from_young_poisson(config.young, nu)
        solution = trig_solution(params)
        for n in config.levels:
            try:
                system, (sh, uh, ph) = _solve_level(config, n, solution)
            except SolverError as exc:
                raise type(exc)(f"locking run failed at nu={nu}, "
                                f"level n={n}: {exc}") from exc
            rep = compute_errors(sh, uh, ph, solution)
            total = system.n_sigma + system.n_v + system.n_q
            rows.append(LockingRow(nu=nu, n=n, total_dofs=total,
                                   e_sigma=rep.e_sigma, e_u=rep.e_u))
    return tuple(rows)


def format_locking_csv(rows) -> str:
    lines = [LOCKING_COLUMNS]
    for r in rows:
        lines.append(f"{r.nu:g},{r.n},{r.total_dofs},"
                     f"{r.e_sigma:.6e},{r.e_u:.6e}")
    return "\n".join(lines) + "\n"


def format_locking_md(rows) -> str:
    lines = ["| nu | n | total_dofs | e_sigma | e_u |", "|" + "---|" * 5]
    for r in rows:
        lines.append(f"| {r.nu:g} | {r.n} | {r.total_dofs} "
                     f"| {r.e_sigma:.2e} | {r.e_u:.2e} |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class Diagnostic:
    name: str
    value: float
    threshold: float
    passed: bool
    note: str = ""


def run_diagnostics(config: RunConfig) -> tuple:
    """Structure checks on the smallest level plus an inf-sup sweep.

    Failures are reported in the returned records, never raised.  A level
    above the inf-sup size cap is a ConfigError, raised before any
    diagnostic runs.  The output is deterministic for a given config.
    """
    levels = []
    for n in config.levels:
        spaces = build_elasticity_spaces(build_mesh(config, n), config.element)
        total = sum(space.n_dofs for space in spaces)
        if total > INFSUP_CAP:
            raise ConfigError(
                f"inf-sup diagnostic is capped at {INFSUP_CAP} unknowns; "
                f"level n={n} has {total}")
        levels.append(spaces)

    n0 = config.levels[0]
    stress = levels[0][0]
    mesh = stress.mesh
    results = []

    s5 = check_commuting_projection(stress, trig_solution(config.params).sigma)
    results.append(Diagnostic("commuting-interpolation residual", s5,
                              1e-10, s5 <= 1e-10,
                              f"{config.element} on n={n0}"))

    rng = np.random.RandomState(config.seed)
    fn = FEFunction(stress, rng.standard_normal(stress.n_dofs))
    jump = normal_jump_norm(fn)
    results.append(Diagnostic("interior-edge normal jump", jump,
                              1e-10, jump <= 1e-10,
                              "random unit-scale coefficients"))

    ident = interpolate_stress(
        stress, lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)))
    rule = gauss_rule(default_quad(stress.element))
    _, _, jac = geometry_at(mesh.element_corners(), rule.points)
    diff = evaluate_batch(ident, rule.points) - np.eye(2)
    ierr = float(np.sqrt(np.sum(rule.weights[None, :] * jac
                                * np.sum(diff ** 2, axis=(-2, -1)))))
    results.append(Diagnostic("identity-field representation", ierr,
                              1e-10, ierr <= 1e-10))

    estimates = []
    for sp_n in levels:
        system = assemble(*sp_n, config.params, quad=config.quad)
        estimates.append(infsup_estimate(system, ynorm_gram(*sp_n)))
    lo, hi = min(estimates), max(estimates)
    variation = (hi - lo) / lo if lo > 0 else float("inf")
    results.append(Diagnostic("inf-sup variation across levels", variation,
                              0.2, lo > 0 and variation <= 0.2,
                              "estimates " + ", ".join(f"{v:.6e}"
                                                       for v in estimates)))
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
    lines = [
        f"mesh: {config.mesh_family} n={n} distortion={config.distortion:g}",
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
    sub.add_argument("--element", choices=ELEMENTS, default="rt2")
    sub.add_argument("--mesh", dest="mesh_family", choices=MESH_FAMILIES,
                     default="square")
    sub.add_argument("--distortion", type=float, default=1.0 / 6.0,
                     help="trapezoid offset as a fraction of the cell height")
    sub.add_argument("--levels", type=_parse_levels, default=levels_default,
                     help="comma-separated mesh subdivisions, e.g. 2,4,8")
    sub.add_argument("--quad", type=int, default=None,
                     help="tensor-Gauss assembly order (default r+6)")
    sub.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--seed", type=int, default=0)


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
    _add_shared_flags(conv, (2, 4, 8, 16, 32, 64))
    _add_material_flags(conv)

    lock = subs.add_parser("locking",
                           help="near-incompressible sweep at fixed E")
    _add_shared_flags(lock, (2, 4, 8, 16, 32))
    lock.set_defaults(element="bdm1", mesh_family="trapezoid")
    lock.add_argument("--E", type=float, default=1000.0, help="Young modulus")
    lock.add_argument("--nu", type=_parse_list(float, "Poisson ratios",
                                                "floats"),
                      default=LOCKING_NUS,
                      help="comma-separated Poisson ratios")

    diag = subs.add_parser("diagnostics",
                           help="stability and conformity checks")
    _add_shared_flags(diag, (2, 4))
    _add_material_flags(diag)

    mesh = subs.add_parser("mesh", help="generate and inspect a mesh")
    mesh.add_argument("--mesh", dest="mesh_family", choices=MESH_FAMILIES,
                      default="square")
    mesh.add_argument("--distortion", type=float, default=1.0 / 6.0)
    mesh.add_argument("--levels", type=_parse_levels, default=(4,))
    mesh.add_argument("--out", default=None)
    return parser


def _config_from_args(args) -> RunConfig:
    kwargs = dict(
        mesh_family=args.mesh_family,
        distortion=args.distortion,
        levels=args.levels,
        out=args.out,
    )
    if args.command != "mesh":
        kwargs.update(element=args.element, quad=args.quad,
                      fmt=args.fmt, seed=args.seed)
    if args.command == "locking":
        kwargs.update(young=args.E, poisson=args.nu)
    elif args.command != "mesh":
        kwargs.update(params=_resolve_params(args))
    return RunConfig(**kwargs)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


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
            table = run_convergence(config)
            text = (format_convergence_csv(table) if config.fmt == "csv"
                    else format_convergence_md(table))
        elif args.command == "locking":
            rows = run_locking(config)
            text = (format_locking_csv(rows) if config.fmt == "csv"
                    else format_locking_md(rows))
        elif args.command == "diagnostics":
            results = run_diagnostics(config)
            text = format_diagnostics(results)
        else:
            text = run_mesh(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    _emit(text, config.out if args.command != "mesh" else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
