"""Argument parsing, config files, exit codes, and subcommand smoke runs."""

import json
from dataclasses import replace

import numpy as np
import pytest

import splitmin.reporting as reporting
from splitmin.cli import (_build_parser, _parse_bool, _parse_floats,
                          _parse_ints, _parse_mesh, _parse_pairs,
                          _parse_space, build_run_config, load_config_file,
                          main)
from splitmin.exceptions import DomainError, ParameterError, SingularMatrixError
from splitmin.reporting import RunConfig, run


# ---------------------------------------------------------------- parsers

def test_parse_mesh_square_and_rectangular():
    assert _parse_mesh("16") == (16, 16)
    assert _parse_mesh("8x4") == (8, 4)
    assert _parse_mesh("8X4") == (8, 4)


@pytest.mark.parametrize("bad", ["", "foo", "4x", "1x2x3", "2.5"])
def test_parse_mesh_rejects_garbage(bad):
    with pytest.raises(ParameterError):
        _parse_mesh(bad)


def test_parse_space():
    assert _parse_space("2,1") == (2, 1)
    assert _parse_space("3,-1") == (3, -1)
    for bad in ("2", "2,1,0", "a,b"):
        with pytest.raises(ParameterError):
            _parse_space(bad)


def test_parse_number_lists():
    assert _parse_floats("0.04,0.02,0.01") == (0.04, 0.02, 0.01)
    assert _parse_ints("4, 8") == (4, 8)
    with pytest.raises(ParameterError):
        _parse_floats("0.1,zap")
    with pytest.raises(ParameterError):
        _parse_ints("4,4.5")


def test_parse_pairs():
    assert _parse_pairs("2,1:3,0") == (((2, 1), (3, 0)),)
    assert _parse_pairs("2,1:3,0;3,2:4,0") == (((2, 1), (3, 0)),
                                               ((3, 2), (4, 0)))
    for bad in ("2,1", "2,1:3,0:4,0", ";"):
        with pytest.raises(ParameterError):
            _parse_pairs(bad)


def test_parse_bool():
    for text in ("1", "true", "Yes", "ON"):
        assert _parse_bool(text) is True
    for text in ("0", "false", "No", "off"):
        assert _parse_bool(text) is False
    with pytest.raises(ParameterError):
        _parse_bool("maybe")


# ---------------------------------------------------------------- config file

def test_load_config_with_section_header(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nmesh = 8x4\ntau = 0.05\nsteps = 7\nout = results\n")
    values = load_config_file(str(path))
    assert values == {"mesh": (8, 4), "tau": 0.05, "n_steps": 7,
                      "out_dir": "results"}


def test_load_config_without_section_header(tmp_path):
    path = tmp_path / "bare.cfg"
    path.write_text("problem = pollution\nstabilized = no\ntrial = 2,1\n")
    values = load_config_file(str(path))
    assert values == {"problem": "pollution", "stabilized": False,
                      "trial": (2, 1)}


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nmeshes = 8\n")
    with pytest.raises(ParameterError):
        load_config_file(str(path))


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\ntau = soon\n")
    with pytest.raises(ParameterError):
        load_config_file(str(path))


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nmesh = 8\ntau = 0.05\nsteps = 3\n")
    args = _build_parser().parse_args(
        ["run", "--config", str(path), "--tau", "0.02", "--galerkin"])
    config = build_run_config(args)
    assert config.mesh == (8, 8)      # from file
    assert config.tau == 0.02          # flag wins
    assert config.n_steps == 3         # alias mapped
    assert config.stabilized is False  # --galerkin


def test_missing_config_file_is_a_configuration_error():
    args = _build_parser().parse_args(["run", "--config", "/no/such/file.ini"])
    with pytest.raises(ParameterError):
        build_run_config(args)


# ---------------------------------------------------------------- exit codes

def test_run_subcommand_writes_artifacts(tmp_path, capsys):
    code = main(["run", "--problem", "manufactured", "--mesh", "6",
                 "--tau", "0.05", "--steps", "2", "--out", str(tmp_path)])
    assert code == 0
    assert "wrote artifacts" in capsys.readouterr().out
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["config"]["n_steps"] == 2
    assert (tmp_path / "errors.csv").exists()


def test_unknown_problem_exits_2(tmp_path, capsys):
    code = main(["run", "--problem", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err


def test_invalid_mesh_exits_2(capsys):
    code = main(["run", "--mesh", "eight"])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err


def test_solver_failures_exit_3(monkeypatch, capsys):
    def boom(config):
        raise SingularMatrixError("pivot vanished")

    monkeypatch.setattr("splitmin.cli.run", boom)
    assert main(["run", "--steps", "1"]) == 3
    assert "solver failure:" in capsys.readouterr().err

    def out_of_range(config):
        raise DomainError("point outside interval")

    monkeypatch.setattr("splitmin.cli.run", out_of_range)
    assert main(["run", "--steps", "1"]) == 3


@pytest.mark.parametrize("problem", ["manufactured", "pollution", "circular-wind"])
def test_spaces_without_an_interior_function_exit_2(tmp_path, capsys, problem):
    code = main(["run", "--problem", problem, "--mesh", "1", "--trial", "1,0",
                 "--test", "1,0", "--steps", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "no interior one" in capsys.readouterr().err
    assert not (tmp_path / "metadata.json").exists()


def test_bad_scheme_choice_is_rejected_by_argparse():
    with pytest.raises(SystemExit):
        main(["run", "--scheme", "leapfrog"])


@pytest.mark.parametrize("argv", (["timing", "--tau", "0.5"],
                                  ["run", "--jobs", "2"],
                                  ["converge", "--taus", "0.1", "--scheme", "be"]))
def test_options_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_verify_single_criterion(capsys):
    code = main(["verify", "--criteria", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS")
    assert out.count("\n") == 1


def test_verify_unknown_criterion_exits_2(capsys):
    code = main(["verify", "--criteria", "99"])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err


def test_converge_subcommand_smoke(tmp_path, capsys):
    code = main(["converge", "--problem", "manufactured", "--mesh", "6",
                 "--tau", "0.04", "--steps", "5",
                 "--taus", "0.04,0.02,0.01", "--schemes", "pr",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "pr: L2 order" in out
    assert (tmp_path / "convergence.csv").exists()
    assert (tmp_path / "slopes.csv").exists()


def test_converge_rejects_non_dividing_tau(tmp_path, capsys):
    code = main(["converge", "--mesh", "6", "--tau", "0.04", "--steps", "5",
                 "--taus", "0.04,0.02,0.015", "--schemes", "pr",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error:" in capsys.readouterr().err


def test_converge_rejects_scheme_from_config(tmp_path, capsys):
    path = tmp_path / "conv.ini"
    path.write_text("[run]\nscheme = be\n")
    code = main(["converge", "--config", str(path), "--mesh", "6",
                 "--tau", "0.04", "--steps", "5", "--taus", "0.04,0.02",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "--schemes" in err
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("option,extra", (
    ("scheme", ["--scheme", "be"]),
))
def test_run_general_path_rejects_options_it_ignores(tmp_path, monkeypatch,
                                                     capsys, option, extra):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--problem", "circular-wind", "--mesh", "4",
                 "--tau", "0.1", "--steps", "1", "--out", "out", *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and option in err
    assert not (tmp_path / "out" / "metadata.json").exists()


def test_run_general_path_galerkin(tmp_path, monkeypatch):
    # a Galerkin pair on the general path factors B alone: r = 0, no
    # residual table, and the fill of that factor in metadata.json
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--problem", "circular-wind", "--mesh", "4",
                 "--tau", "0.1", "--steps", "2", "--out", "out", "--galerkin"])
    assert code == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["config"]["stabilized"] is False
    assert meta["effective_scheme"] == "monolithic-cn"
    assert meta["fill_nnz"] > 0
    assert not (tmp_path / "out" / "residuals.csv").exists()


def test_run_general_path_starts_at_t0(tmp_path):
    # circular-wind has a steady wind and no forcing: t0 only shifts the clock
    config = RunConfig(problem="circular-wind", mesh=(6, 6), tau=0.1, n_steps=4)
    start = run(replace(config, out_dir=str(tmp_path / "t0")))
    later = run(replace(config, t0=0.5, out_dir=str(tmp_path / "t05")))
    assert later.time == pytest.approx(0.5 + 4 * 0.1)
    assert np.array_equal(later.u, start.u)


_CONVERGE = ["converge", "--mesh", "6", "--tau", "0.04", "--steps", "5",
             "--schemes", "pr"]


@pytest.mark.parametrize("argv", (
    ["timing", "--meshes", ",", "--no-general"],
    [*_CONVERGE, "--taus", "0.04,0,0.02"],
    [*_CONVERGE, "--taus", "0.04,-0.02,0.01"],
    ["run", "--resolution", "0"],
    ["run", "--tau", "-0.5"],
    ["run", "--snapshot-stride", "-2"],
    [*_CONVERGE, "--problem", "pollution", "--taus", "0.04,0.02,0.01"],
    [*_CONVERGE[:-1], ",", "--taus", "0.04,0.02,0.01"],
    [*_CONVERGE, "--taus", "0.04,0.02,0.01", "--jobs", "0"],
    [*_CONVERGE, "--taus", "0.04,0.02,0.01", "--jobs", "-3"],
    ["run", "--tau", "inf", "--steps", "2"],
    ["run", "--config", "t0-nan.ini", "--steps", "2"],
    ["run", "--config", "t0-inf.ini", "--steps", "2"],
    [*_CONVERGE[:-1], "pr,strang-cn,foo", "--taus", "0.04,0.02,0.01"],
    ["run", "--trial", "2,1", "--test", "1,0", "--steps", "2"],
    ["run", "--problem", "circular-wind", "--trial", "2,1", "--test", "1,0", "--steps", "2"],
    ["run", "--trial", "2,0", "--test", "2,1", "--steps", "2"],
), ids=["empty-meshes", "zero-tau", "negative-tau", "zero-resolution",
        "negative-run-tau", "negative-stride", "no-closed-form", "empty-schemes",
        "zero-jobs", "negative-jobs", "infinite-tau", "nan-t0", "infinite-t0",
        "unknown-scheme", "coarse-test-split", "coarse-test-general",
        "smoother-test"])
def test_invalid_input_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                               argv):
    def no_run(*args):
        raise AssertionError("a time loop ran on invalid input")

    monkeypatch.chdir(tmp_path)
    for value in ("nan", "inf"):
        (tmp_path / f"t0-{value}.ini").write_text(f"t0 = {value}\n")
    monkeypatch.setattr(reporting, "march", no_run)
    assert main([*argv, "--out", "out"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_timing_subcommand_smoke(tmp_path, capsys):
    code = main(["timing", "--meshes", "4,8", "--pairs", "2,1:3,0",
                 "--no-general", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "trial(2,1)/test(3,0) n=4" in out
    lines = (tmp_path / "timing.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert "general_time_ms" not in lines[0]
