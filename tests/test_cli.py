import dataclasses

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
from quadelast.mesh import generate_trapezoidal_mesh, read_mesh
from quadelast.solver import SolverError

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
    ("convergence", "--levels", "2", "--quad", "0"),
    ("locking", "--levels", "2", "--nu", "0.5"),
    ("locking", "--levels", "2", "--nu", "-0.1"),
    ("mesh", "--levels", "2,4"),
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


def test_diagnostics_report_corrupted_sign(capsys):
    code, out, _ = run_cli(capsys, "diagnostics", "--element", "bdm1",
                           "--levels", "2", "--corrupt-sign")
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
        return dataclasses.replace(system, Ba=0.0 * system.Ba)

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


def test_solver_failure_exit_code_names_level(capsys, monkeypatch):
    def boom(system):
        raise SolverError("synthetic breakdown")

    monkeypatch.setattr("quadelast.cli.solve", boom)
    code, _, err = run_cli(capsys, "convergence", "--levels", "2,4")
    assert code == 1
    assert "n=2" in err and "synthetic breakdown" in err


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
