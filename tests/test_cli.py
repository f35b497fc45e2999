import re

import numpy as np
import pytest

import quadelast.cli as cli
from quadelast.cli import (
    ConfigError,
    RunConfig,
    main,
    run_convergence,
    run_diagnostics,
    run_locking,
)
from quadelast.fe_space import FEFunction
from quadelast.mesh import QuadMesh, generate_trapezoidal_mesh, read_mesh
from quadelast.solver import SolverError

from helpers import (flip_edge_sign, format_convergence_csv,
                     format_convergence_md, format_locking_csv,
                     format_locking_md, without_asymmetry)
from quadelast.analysis import ConvergenceTable, ErrorReport

CSV_HEADER = ("h,e_sigma,pct_sigma,ord_sigma,e_div,pct_div,ord_div,"
              "e_u,pct_u,ord_u,e_p,pct_p,ord_p")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convergence_csv_layout(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--element", "bdm1",
                           "--levels", "2,4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert len(first) == len(second) == 13
    # order cells are empty on the first row, populated afterwards
    for idx in (3, 6, 9, 12):
        assert first[idx] == ""
        float(second[idx])
    # h halves between rows
    assert np.isclose(float(second[0]), 0.5 * float(first[0]))


def test_convergence_orders_in_csv(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--element", "bdm1",
                           "--mesh", "square", "--levels", "4,8,16")
    assert code == 0
    last = out.strip().split("\n")[-1].split(",")
    assert abs(float(last[9]) - 1.0) < 0.15  # ord_u
    assert abs(float(last[12]) - 1.0) < 0.15  # ord_p


def test_convergence_markdown(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--element", "bdm1",
                           "--levels", "2,4", "--format", "md")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("| h | e_sigma | % | order |")
    assert lines[1].startswith("|---|")
    assert len(lines) == 4
    assert all(line.count("|") == 14 for line in lines[2:])


def test_convergence_written_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "convergence", "--element", "bdm1",
                           "--levels", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().split("\n")[0] == CSV_HEADER


def test_csv_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert run_cli(capsys, "convergence", "--element", "bdm1",
                       "--levels", "2,4", "--out", str(p))[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ("convergence", "--levels", "3,4"),
    ("convergence", "--levels", "4,2"),
    ("convergence", "--levels", "2,2"),
    ("convergence", "--levels", "2", "--lambda", "1.0"),
    ("convergence", "--levels", "2", "--lambda", "1.0", "--mu", "1.0",
     "--E", "5.0", "--nu", "0.3"),
    ("convergence", "--levels", "2", "--distortion", "0.7"),
    ("diagnostics", "--levels", "2", "--out", "."),
    ("locking", "--levels", "2", "--nu", "0.5"),
    ("locking", "--levels", "2", "--nu", "-0.1"),
    ("mesh", "--levels", "2,4"),
    ("convergence", "--levels", "2", "--out", ""),
    ("mesh", "--levels", "2", "--out", ""),
])
def test_config_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("convergence", "--mu", "inf", "--lambda", "1"),
    ("convergence", "--lambda", "inf", "--mu", "1"),
    ("convergence", "--E", "inf", "--nu", "0.3"),
    ("convergence", "--lambda", "1e308", "--mu", "1e308"),
    ("convergence", "--lambda", "1", "--mu", "1e-310"),
    ("diagnostics", "--mu", "nan", "--lambda", "1"),
    ("locking", "--E", "-5"),
    ("locking", "--E", "0"),
    ("locking", "--E", "nan"),
    ("locking", "--E", "inf"),
    ("locking", "--E", "1e308", "--nu", "0.4999"),
])
def test_bad_material_exits_2_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a mesh was built for a bad material")

    monkeypatch.setattr(cli, "build_mesh", no_work)
    code, out, err = run_cli(capsys, *argv, "--levels", "2")
    assert code == 2
    assert "configuration error" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
def test_bad_seed_exits_2_before_any_work(capsys, monkeypatch, seed):
    def no_work(*args, **kwargs):
        raise AssertionError("a mesh was built for a bad seed")

    monkeypatch.setattr(cli, "build_mesh", no_work)
    code, out, err = run_cli(capsys, "diagnostics", "--seed", seed,
                             "--levels", "2")
    assert code == 2
    assert "configuration error" in err and "seed" in err
    assert "Traceback" not in err and out == ""


def test_seed_range_ends_are_accepted():
    assert RunConfig(seed=0).seed == 0
    assert RunConfig(seed=2 ** 32 - 1).seed == 2 ** 32 - 1


@pytest.mark.parametrize("argv", [
    ("convergence", "--mesh", "trapezoid", "--levels", "1,2"),
    ("locking", "--levels", "1,2"),
    ("diagnostics", "--mesh", "trapezoid", "--levels", "1"),
    ("mesh", "--mesh", "trapezoid", "--levels", "1"),
])
def test_trapezoid_level_1_exits_2_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a mesh was built for a bad level")

    monkeypatch.setattr(cli, "build_mesh", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "configuration error" in err
    assert "Traceback" not in err and out == ""


def test_infsup_cap_exits_2_before_any_mesh(capsys, monkeypatch):
    # the spaces of n = 2048 took 31 s and 5.5 GB before the cap was read
    def no_work(*args, **kwargs):
        raise AssertionError("a mesh was built for a level over the cap")

    monkeypatch.setattr(cli, "build_mesh", no_work)
    code, out, err = run_cli(capsys, "diagnostics", "--element", "bdm1",
                             "--mesh", "trapezoid", "--levels", "2,2048")
    assert code == 2
    assert err == ("configuration error: inf-sup diagnostic is capped at "
                   "50000 unknowns; level n=2048 has 46153728\n")
    assert out == ""


@pytest.mark.parametrize("parent", ["missing", "regular-file"])
@pytest.mark.parametrize("command", ["convergence", "mesh"])
def test_out_without_directory_exits_2_before_any_work(capsys, monkeypatch,
                                                       tmp_path, command,
                                                       parent):
    def no_work(*args, **kwargs):
        raise AssertionError("a mesh was built for an unwritable --out")

    monkeypatch.setattr(cli, "build_mesh", no_work)
    plain = tmp_path / "plain"
    plain.write_text("")
    base = tmp_path / "missing" if parent == "missing" else plain
    target = base / "x.csv"
    code, out, err = run_cli(capsys, command, "--levels", "2",
                             "--out", str(target))
    assert code == 2
    assert "configuration error" in err and "output directory" in err
    assert "Traceback" not in err and out == ""
    assert not target.exists()


@pytest.mark.parametrize("command", ["convergence", "mesh"])
def test_empty_out_exits_2_before_any_work(capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("a mesh was built for an empty --out")

    monkeypatch.setattr(cli, "build_mesh", no_work)
    code, out, err = run_cli(capsys, command, "--levels", "2", "--out", "")
    assert code == 2
    assert "configuration error" in err and "empty" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("command, writer", [("convergence", "open"),
                                             ("mesh", "write_mesh")])
def test_failed_out_write_exits_2(capsys, monkeypatch, tmp_path, command,
                                  writer):
    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, writer, fail, raising=False)
    code, out, err = run_cli(capsys, command, "--levels", "2",
                             "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert "cannot write output" in err and "No space left" in err
    assert "Traceback" not in err and out == ""


def _flag_help(capsys, command):
    """Whitespace-normalized help of each flag of ``command``."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    blocks = re.split(r"\n  (?=-)", capsys.readouterr().out)[1:]
    return {b.split()[0].rstrip(","): " ".join(b.split()) for b in blocks}


def test_mesh_flags_have_the_studies_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    mesh, conv = _flag_help(capsys, "mesh"), _flag_help(capsys, "convergence")
    for flag in ("--mesh", "--distortion", "--levels"):
        assert mesh[flag] == conv[flag]
    assert "trapezoid offset" in mesh["--distortion"]
    assert "mesh file" in mesh["--out"]
    assert "--element" not in mesh


def test_out_in_working_directory_is_accepted():
    assert RunConfig(out="table.csv").out == "table.csv"


def test_unknown_element_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--element", "ned1"])
    assert exc.value.code == 2


def test_material_flags_change_the_errors(capsys):
    base = run_cli(capsys, "convergence", "--element", "bdm1",
                   "--levels", "2")[1]
    stiff = run_cli(capsys, "convergence", "--element", "bdm1",
                    "--levels", "2", "--lambda", "1.0", "--mu", "1.0")[1]
    young = run_cli(capsys, "convergence", "--element", "bdm1",
                    "--levels", "2", "--E", "1000", "--nu", "0.3")[1]
    assert base != stiff != young


def test_locking_csv_layout(capsys):
    code, out, _ = run_cli(capsys, "locking", "--levels", "2,4",
                           "--nu", "0.3,0.4999")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "nu,n,total_dofs,e_sigma,e_u"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0.3" and first[1] == "2"
    assert int(first[2]) == 60  # bdm1 trapezoid n=2
    # near-incompressible rows carry much larger absolute stress errors
    e_low = float(lines[1].split(",")[3])
    e_high = float(lines[3].split(",")[3])
    assert e_high > 100 * e_low


def test_locking_nu_zero_is_admissible(capsys):
    code, out, _ = run_cli(capsys, "locking", "--levels", "2", "--nu", "0")
    assert code == 0
    assert out.strip().split("\n")[1].startswith("0,2,")


def test_locking_markdown(capsys):
    code, out, _ = run_cli(capsys, "locking", "--levels", "2",
                           "--nu", "0.3", "--format", "md")
    assert code == 0
    assert out.startswith("| nu | n | total_dofs | e_sigma | e_u |")


def test_diagnostics_all_pass(capsys):
    code, out, _ = run_cli(capsys, "diagnostics", "--element", "bdm1",
                           "--levels", "2,4")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    assert "all diagnostics passed" in out
    assert "inf-sup" in out


def test_diagnostics_report_corrupted_sign(capsys, monkeypatch):
    # the conformity check sees the random field on a space with one
    # flipped edge orientation
    original = cli.normal_jump_norm

    def jump_on_flipped_space(fn):
        return original(FEFunction(flip_edge_sign(fn.space),
                                   fn.coefficients))

    monkeypatch.setattr(cli, "normal_jump_norm", jump_on_flipped_space)
    code, out, _ = run_cli(capsys, "diagnostics", "--element", "bdm1",
                           "--levels", "2")
    assert code == 0  # failures are reported, not thrown
    lines = out.strip().split("\n")
    jump_line = next(l for l in lines if "normal jump" in l)
    assert jump_line.startswith("FAIL")
    assert "1 diagnostic(s) failed" in out
    # only the conformity check is affected
    assert out.count("FAIL") == 1


def test_diagnostics_infsup_cap_is_config_error(capsys):
    # rt2 at n=64 has 111,104 unknowns, above the inf-sup cap
    code, _, err = run_cli(capsys, "diagnostics", "--levels", "64")
    assert code == 2
    assert "capped" in err


def test_diagnostics_singular_system_fails_variation(capsys, monkeypatch):
    # without the asymmetry block K is exactly singular: the estimate is 0
    # and the variation diagnostic reports FAIL instead of raising
    original = cli.assemble

    def assemble_without_ba(*args, **kwargs):
        system = original(*args, **kwargs)
        return without_asymmetry(system)

    monkeypatch.setattr(cli, "assemble", assemble_without_ba)
    code, out, _ = run_cli(capsys, "diagnostics", "--element", "bdm1",
                           "--levels", "2")
    assert code == 0
    line = next(l for l in out.split("\n") if "inf-sup variation" in l)
    assert line.startswith("FAIL")
    assert "estimates 0.000000e+00" in line


def test_run_diagnostics_returns_records():
    results = run_diagnostics(RunConfig(element="bdm1", levels=(2,)))
    assert len(results) == 4
    assert all(r.passed for r in results)
    assert {r.name for r in results} == {
        "commuting-interpolation residual",
        "interior-edge normal jump",
        "identity-field representation",
        "inf-sup variation across levels",
    }


def test_mesh_subcommand_writes_readable_file(tmp_path, capsys):
    target = tmp_path / "mesh.txt"
    code, out, _ = run_cli(capsys, "mesh", "--mesh", "trapezoid",
                           "--levels", "4", "--out", str(target))
    assert code == 0
    assert "vertices: 25" in out and "quads: 16" in out
    mesh = read_mesh(target)
    ref = generate_trapezoidal_mesh(4)
    assert np.allclose(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.quads, ref.quads)


def test_mesh_summary_reports_quality(capsys):
    code, out, _ = run_cli(capsys, "mesh", "--levels", "2")
    assert code == 0
    assert "h_max: 7.071068e-01" in out
    assert "shape_regularity" in out


def test_mesh_summary_names_distortion_only_for_trapezoids(capsys):
    # the square family ignores --distortion, so its summary does not name it
    square = run_cli(capsys, "mesh", "--mesh", "square", "--levels", "4",
                     "--distortion", "0.3")[1]
    assert square.splitlines()[0] == "mesh: square n=4"
    trapezoid = run_cli(capsys, "mesh", "--mesh", "trapezoid", "--levels",
                        "4", "--distortion", "0.3")[1]
    assert trapezoid.splitlines()[0] == "mesh: trapezoid n=4 distortion=0.3"


def test_solver_failure_exit_code_names_level(capsys, monkeypatch):
    def boom(system):
        raise SolverError("synthetic breakdown")

    monkeypatch.setattr("quadelast.cli.solve", boom)
    code, _, err = run_cli(capsys, "convergence", "--levels", "2,4")
    assert code == 1
    assert "n=2" in err and "synthetic breakdown" in err


def test_locking_solver_failure_names_nu_and_level(capsys, monkeypatch):
    def boom(system):
        raise SolverError("synthetic breakdown")

    monkeypatch.setattr(cli, "solve", boom)
    code, out, err = run_cli(capsys, "locking", "--levels", "2,4",
                             "--nu", "0.3,0.49")
    assert code == 1 and out == ""
    assert "nu=0.3, level n=2" in err and "synthetic breakdown" in err


def test_out_of_memory_names_level_without_traceback(capsys, monkeypatch):
    def exhausted(system):
        raise MemoryError("Unable to allocate 2.21 GiB for an array")

    monkeypatch.setattr(cli, "solve", exhausted)
    code, out, err = run_cli(capsys, "convergence", "--levels", "2,4")
    assert code == 1 and out == ""
    assert err == ("solver failure: convergence run failed at level n=2: "
                   "out of memory\n")


def test_out_of_memory_outside_a_level_exits_1(capsys, monkeypatch):
    def exhausted(*spaces):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr(cli, "ynorm_gram", exhausted)
    code, out, err = run_cli(capsys, "diagnostics", "--levels", "2")
    assert code == 1 and out == ""
    assert err.startswith("out of memory") and "Traceback" not in err


@pytest.fixture(scope="module")
def study_tables():
    """Tables of every shape the writers see: several levels, one level,
    and orders that are inf and nan where an error is exactly zero."""
    zero_p = ConvergenceTable(rows=(
        ErrorReport(0.5, 1.0, 2.0, 3.0, 0.0, 10.0, 20.0, 30.0, 0.0),
        ErrorReport(0.25, 0.5, 0.0, 1.5, 0.0, 5.0, 0.0, 15.0, 0.0),
    ))
    return {
        "convergence": [
            run_convergence(RunConfig(element="bdm1", levels=(2, 4, 8))),
            run_convergence(RunConfig(element="rt2", mesh_family="trapezoid",
                                      levels=(2,))),
            zero_p,
        ],
        "locking": run_locking(RunConfig(element="bdm1",
                                         mesh_family="trapezoid",
                                         levels=(2, 4),
                                         poisson=(0.3, 0.4999))),
    }


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_table_writer_matches_the_former_formatters(study_tables, fmt):
    conv_oracle = {"csv": format_convergence_csv,
                   "md": format_convergence_md}[fmt]
    lock_oracle = {"csv": format_locking_csv, "md": format_locking_md}[fmt]
    for table in study_tables["convergence"]:
        assert cli.format_convergence(table, fmt) == conv_oracle(table)
    rows = study_tables["locking"]
    assert len({r.nu for r in rows}) == 2
    assert cli.format_locking(rows, fmt) == lock_oracle(rows)


def test_quad_flag_is_unrecognized(capsys):
    # the quadrature order belongs to the discretization: a script that
    # still passes --quad stops at parsing instead of running without it
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--quad", "8", "--levels", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quad" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("convergence", "--seed", "3"),
    ("locking", "--seed", "3"),
    ("diagnostics", "--format", "md"),
])
def test_flag_the_subcommand_does_not_read_is_unrecognized(capsys, argv):
    # a flag the study ignores would print the same table as without it
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--levels", "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["convergence", "mesh"])
def test_out_naming_a_directory_exits_2_before_any_work(
        capsys, monkeypatch, tmp_path, command):
    def no_work(*args, **kwargs):
        raise AssertionError("a mesh was built for a directory --out")

    monkeypatch.setattr(cli, "build_mesh", no_work)
    code, out, err = run_cli(capsys, command, "--levels", "2",
                             "--out", str(tmp_path))
    assert code == 2
    assert "configuration error" in err and "is a directory" in err
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_run_convergence_function_returns_table():
    table = run_convergence(RunConfig(element="bdm1", levels=(2, 4)))
    assert len(table.rows) == 2
    assert table.rows[1].h < table.rows[0].h
    assert set(table.orders()) == {"sigma", "div", "u", "p"}


def test_run_locking_rows():
    rows = run_locking(RunConfig(element="bdm1", mesh_family="trapezoid",
                                 levels=(2,), poisson=(0.3, 0.49)))
    assert [r.nu for r in rows] == [0.3, 0.49]
    assert all(r.total_dofs == 60 for r in rows)


def record_mesh_work(monkeypatch):
    """The meshes ``cli.build_mesh`` returns, and the ``(name, mesh)`` of
    every computation of a mesh's translation classes or dissection."""
    built, computed = [], []
    real_build = cli.build_mesh

    def build(*args):
        built.append(real_build(*args))
        return built[-1]
    monkeypatch.setattr(cli, "build_mesh", build)
    for name in ("translation_classes", "dissection_leaves"):
        prop = vars(QuadMesh)[name]

        def counted(mesh, name=name, compute=prop.func):
            computed.append((name, mesh))
            return compute(mesh)
        monkeypatch.setattr(prop, "func", counted)
    return built, computed


def test_locking_builds_each_level_once(monkeypatch):
    # one mesh and one set of spaces per level for the whole nu sweep, and
    # each mesh's classes and dissection computed once for its two
    # assemblies
    built, computed = record_mesh_work(monkeypatch)
    rows = run_locking(RunConfig(element="bdm1", mesh_family="trapezoid",
                                 levels=(2, 4, 8), poisson=(0.3, 0.49)))
    assert len(rows) == 6 and len(built) == 3 and len(computed) == 6
    assert {(name, id(mesh)) for name, mesh in computed} == {
        (name, id(mesh)) for mesh in built
        for name in ("translation_classes", "dissection_leaves")}


def test_mesh_command_and_read_mesh_compute_no_classes(monkeypatch,
                                                       tmp_path):
    built, computed = record_mesh_work(monkeypatch)
    path = str(tmp_path / "mesh.txt")
    cli.run_mesh(RunConfig(mesh_family="trapezoid", levels=(8,), out=path))
    read_mesh(path)
    assert len(built) == 1 and computed == []


@pytest.mark.parametrize("command", ["convergence", "locking", "diagnostics"])
def test_out_of_memory_building_a_level_names_it(capsys, monkeypatch,
                                                 command):
    real_build = cli.build_elasticity_spaces

    def exhausted(mesh, element):
        if mesh.n_quads > 4:
            raise MemoryError("Unable to allocate 1.00 GiB for an array")
        return real_build(mesh, element)

    monkeypatch.setattr(cli, "build_elasticity_spaces", exhausted)
    code, out, err = run_cli(capsys, command, "--levels", "2,4")
    assert code == 1 and out == ""
    assert err.startswith("solver failure: ") and "Traceback" not in err
    assert err.endswith("level n=4: out of memory\n")


def test_runconfig_defaults_validate():
    config = RunConfig()
    assert config.levels[-1] == 64
    assert config.params.lam == 123.0 and config.params.mu == 79.3
    assert config.params is cli.DEFAULT_PARAMS
    with pytest.raises(ConfigError, match="powers of 2"):
        RunConfig(levels=(2, 6))
    with pytest.raises(ConfigError, match="increasing"):
        RunConfig(levels=(4, 4))
    with pytest.raises(ConfigError, match="element"):
        RunConfig(element="p2")


def test_material_flags_default_to_the_config_default():
    args = cli.build_parser().parse_args(["convergence"])
    assert cli._resolve_params(args) is cli.DEFAULT_PARAMS
    assert cli._config_from_args(args).params == RunConfig().params
