import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kdvcrit
from kdvcrit import numbertheory as nt
from kdvcrit import kernel, pde, spectral
from kdvcrit.cli import dispatch
from kdvcrit.errors import LinearSolveFailure

DATA = Path(__file__).with_name("data")


def test_python_m_kdvcrit_runs_the_cli():
    src = Path(kdvcrit.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "kdvcrit", "--help"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and "verify-all" in proc.stdout


@pytest.mark.parametrize("system", ["linear", "second-order", "nonlinear"])
def test_simulate_config_file(tmp_path, system):
    cfg = tmp_path / "sim.json"
    control = {"type": "sine-bump", "amplitude": 0.1}
    cfg.write_text(json.dumps({"k": 2, "l": 1, "nx": 8, "nt": 6, "T": 0.2, "control": control}))
    out = tmp_path / "traj.csv"
    assert dispatch(["simulate", "--system", system, "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t" and len(header) == 1 + 8 + 2
    assert float(header[-1]) == pytest.approx(nt.CriticalPair(2, 1).L)
    assert len(lines) == 1 + 6 + 1


def test_bad_pairs_are_usage_errors(tmp_path, capsys):
    assert dispatch(["lengths", "--nmax", "0"]) == 2
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"k": 1, "l": 2, "nx": 8, "nt": 6, "T": 0.2}))
    argv = ["simulate", "--system", "linear", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]
    assert dispatch(argv) == 2
    assert "k >= l >= 1" in capsys.readouterr().err


def test_gramian_json_schema(tmp_path):
    out = tmp_path / "gramian.json"
    argv = ["gramian", "--k", "1", "--l", "1", "--T", "0.5", "--nx", "8", "--nt", "10"]
    assert dispatch(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    grid = pde.Grid(L=nt.CriticalPair(1, 1).L, nx=8, T=0.5, nt=10)
    rep = pde.gramian(grid, nt.representations(3))
    assert set(payload) == set(rep.as_dict())
    assert payload["nt"] == 10 and payload["dim_mn"] == 1


def test_gramian_bad_grid_is_usage_error(tmp_path, capsys):
    argv = ["gramian", "--k", "1", "--l", "1", "--T", "0.5", "--nx", "4", "--nt", "10"]
    assert dispatch(argv + ["--out", str(tmp_path / "g.json")]) == 2
    assert "nx must be an integer >= 8, got 4" in capsys.readouterr().err


def test_gramian_aliased_grid_is_failed_check(tmp_path, capsys):
    # at nx = 8 every node of L(9,9) sits on a double zero of the M_N profile
    argv = ["gramian", "--k", "9", "--l", "9", "--T", "1", "--nx", "8", "--nt", "10"]
    assert dispatch(argv + ["--out", str(tmp_path / "g.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "rank 0 != dim M_N = 1" in err


def test_singular_step_matrix_is_failed_check(tmp_path, capsys, monkeypatch):
    # dgbtrf reports an exactly zero pivot of the banded LU by info > 0
    monkeypatch.setattr(pde, "dgbtrf", lambda ab, kl, ku: (ab, None, 1))
    with pytest.raises(LinearSolveFailure, match=r"dgbtrf info = 1\)$"):
        pde.solve_linear(pde.Grid(L=3.0, nx=8, T=0.2, nt=6))
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"L": 3.0, "nx": 8, "nt": 6, "T": 0.2}))
    argv = ["simulate", "--system", "linear", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "usage error" not in err and "dgbtrf info = 1" in err


def test_verify_all_config_overlay(tmp_path):
    # the file fills options the command line left unset, store_true flags included
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"only": "numbertheory", "no-timing": True}))
    out = tmp_path / "report.json"
    assert dispatch(["verify-all", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["checks"]] == ["representations vs brute force (N <= 1e4)"]
    assert not any("runtime_s" in c for c in report["checks"])


_RUN = {"L": 3.0, "nx": 8, "nt": 6, "T": 0.2}
_SIGNS = ["verify-signs", "--k", "3", "--l", "2"]


# "{tmp}" in a command or config stands for the test's tmp_path; a str config
# is written as it is, any other as JSON
@pytest.mark.parametrize(
    "command, cfg, message",
    [
        (["spectral", "--L", "3.6", "--z", "0:3"], None, "bad range '0:3'"),
        (["spectral", "--L", "nan", "--z", "0:1:2"], None, "L must be positive and finite, got nan"),
        (["spectral", "--L", "inf", "--z", "0:1:2"], None, "L must be positive and finite, got inf"),
        (["verify-all", "--no-timing"], {"bogus": 1}, "unknown config key: bogus"),
        (["verify-all", "--no-timing"], {"func": 1}, "unknown config key: func"),
        (["verify-all", "--no-timing"], {"only": 5}, "config key only takes a str"),
        (
            ["simulate", "--system", "linear"],
            {"L": 3.0, "nx": 8, "nt": 6, "T": 0.2, "control": {"type": "nope"}},
            "unknown control type 'nope'",
        ),
        (["simulate", "--system", "linear"], {"L": 3.0, "nx": 8, "T": 0.2}, "run file lacks nt"),
        (["simulate", "--system", "linear"], {"k": 2, "l": 1, "nt": 6}, "run file lacks nx, T"),
        (["verify-all", "--config", "{tmp}/missing.json"], None, "cannot read config"),
        (["verify-all"], "{not json", "cannot read config"),
        (["verify-all"], ["only"], "config must be a JSON object, not a list"),
        (["simulate", "--system", "linear", "--config", "{tmp}/missing.json"], None,
         "cannot read run file"),
        (["simulate", "--system", "linear"], "{not json", "cannot read run file"),
        (["simulate", "--system", "linear"], [], "run file must be a JSON object, not a list"),
        (["simulate", "--system", "linear"], dict(_RUN, nx="eight"),
         "run file key nx takes an int: 'eight'"),
        (["simulate", "--system", "linear"], dict(_RUN, control=[]),
         "run file key control takes a dict: []"),
        (["simulate", "--system", "linear"], dict(_RUN, control={"type": "file"}),
         "control type 'file' needs a path"),
        (
            ["simulate", "--system", "linear"],
            dict(_RUN, control={"type": "file", "path": "{tmp}/missing.csv"}),
            "cannot read control file",
        ),
        (["simulate", "--system", "linear"], dict(_RUN, initial={"type": "psi-re"}),
         "initial type 'psi-re' needs k and l"),
        (["kernel", "--k", "2", "--l", "1", "--zmin", "1", "--zmax", "5", "--points", "-3"], None,
         "--points must be >= 1"),
        (_SIGNS + ["--tsweep", "0.4,abc"], None, "bad --tsweep '0.4,abc'"),
        (_SIGNS + ["--tsweep", "nan"], None, "T must be positive and finite, got nan"),
        (_SIGNS + ["--tsweep", "0.4", "--n-side", "1"], None, "n_side must be an integer >= 2, got 1"),
        (["lengths", "--nmax", "3", "--out", "{tmp}/missing/out.csv"], None, "cannot write"),
        (
            ["verify-all", "--only", "spectrl"],
            None,
            "unknown --only tag spectrl; valid tags: kernel, numbertheory, pde, spectral, "
            "synthesis, unreachable",
        ),
    ],
    ids=["range", "spectral-L-nan", "spectral-L-inf", "config-key", "config-argparse-attr",
         "config-type", "control-type", "run-file-key", "run-file-keys", "config-missing",
         "config-malformed", "config-list", "run-file-missing", "run-file-malformed",
         "run-file-list", "run-file-type", "control-list", "control-file-no-path",
         "control-file-missing", "initial-no-pair", "kernel-points", "tsweep", "tsweep-nan",
         "n-side", "out-dir-missing", "only-tag"],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, command, cfg, message):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        text = cfg if isinstance(cfg, str) else json.dumps(cfg)
        path.write_text(text.replace("{tmp}", str(tmp_path)))
        argv += ["--config", str(path)]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.count("usage error:") == 1 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize(
    "command",
    ["lengths", "constants", "spectral", "kernel", "kernel-asym", "simulate", "gramian",
     "synthesize", "verify-signs", "verify-all"],
)
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: kdvcrit {command}" in capsys.readouterr().out


def test_kernel_nonfinite_z_is_usage_error(tmp_path, capsys):
    argv = ["kernel", "--k", "2", "--l", "1", "--zmin", "nan", "--zmax", "5", "--points", "3"]
    assert dispatch(argv + ["--out", str(tmp_path / "k.csv")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("zr", [("-5", "5"), ("0", "5"), ("5", "-0.1")])
def test_kernel_bad_range_is_usage_error(tmp_path, capsys, zr):
    argv = ["kernel", "--k", "2", "--l", "1", "--zmin", zr[0], "--zmax", zr[1], "--points", "3"]
    assert dispatch(argv + ["--out", str(tmp_path / "k.csv")]) == 2
    err = capsys.readouterr().err
    assert f"z range [{float(zr[0]):g}, {float(zr[1]):g}]" in err and "Warning" not in err


def test_kernel_rows_match_pointwise_values(tmp_path):
    pair = nt.CriticalPair(2, 1)
    out = tmp_path / "k.csv"
    argv = ["kernel", "--k", "2", "--l", "1", "--zmin", "10", "--zmax", "1e4", "--points", "9"]
    assert dispatch(argv + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 9
    for z, re_val, im_val in rows:
        val = kernel.intB_closed(pair, float(z))
        assert [re_val, im_val] == ["%.17g" % val.real, "%.17g" % val.imag]


def test_verify_all_records_stray_exception(tmp_path, monkeypatch):
    def broken(z):
        raise RuntimeError("boom")

    monkeypatch.setattr(spectral, "roots", broken)
    out = tmp_path / "report.json"
    argv = ["verify-all", "--only", "spectral,numbertheory", "--no-timing", "--out", str(out)]
    assert dispatch(argv) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [c["status"] for c in checks] == ["fail", "fail", "pass"]
    assert checks[0]["measured"] == "RuntimeError: boom"


def test_constants_json(tmp_path):
    out = tmp_path / "constants.json"
    assert dispatch(["constants", "--k", "2", "--l", "1", "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert {"k", "l", "N", "L", "p", "caseE0", "eta", "E", "F", "E1_over_E"} <= set(payload)
    assert (payload["k"], payload["l"]) == (2, 1)


def test_kernel_asym_exits_zero(tmp_path):
    out = tmp_path / "asym.json"
    assert dispatch(["kernel-asym", "--k", "2", "--l", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())


def test_synthesize_usage_and_leak_exits(tmp_path, capsys):
    out = str(tmp_path / "ctrl.csv")
    assert dispatch(["synthesize", "--k", "2", "--l", "1", "--T", "-1", "--out", out]) == 2
    # at (3,2), T = 0.4 the spectral hump exceeds double range: SupportLeak
    assert dispatch(["synthesize", "--k", "3", "--l", "2", "--T", "0.4", "--out", out]) == 1
    assert "spectral hump" in capsys.readouterr().err


def test_verify_signs_json(tmp_path):
    out = tmp_path / "signs.json"
    argv = ["verify-signs", "--k", "3", "--l", "2", "--tsweep", "0.4", "--n-side", "401"]
    assert dispatch(argv + ["--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())
    report_keys = {
        "pair", "case", "T", "gamma", "value", "log_norm_w", "wshift", "re_ratio",
        "im_ratio_over_T", "im_ratio_plus_p", "prop37_ratio", "z_peak", "log_peak", "n_grid",
    }  # SignReport.as_dict
    assert set(entry) == report_keys | {"pass_re_band", "pass_im_negative", "pass_im_below_minus_p"}
    assert entry["pass_re_band"] and entry["pass_im_negative"]


def test_spectral_csv_is_stable(capsys):
    # frames from one root triple print the same bytes as three root solves did
    assert dispatch(["spectral", "--L", "3.6", "--z", "0:3:7"]) == 0
    with open(DATA / "spectral_L3.6_z0-3-7.csv", newline="") as fh:
        assert capsys.readouterr().out == fh.read()
