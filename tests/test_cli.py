import json
from pathlib import Path

import pytest

from kdvcrit import numbertheory as nt
from kdvcrit import kernel, pde, spectral
from kdvcrit.cli import dispatch

DATA = Path(__file__).with_name("data")


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
    assert "nx >= 8" in capsys.readouterr().err


def test_verify_all_config_overlay(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"only": "numbertheory"}))
    out = tmp_path / "report.json"
    assert dispatch(["verify-all", "--config", str(cfg), "--no-timing", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["checks"]] == ["representations vs brute force (N <= 1e4)"]


def test_kernel_nonfinite_z_is_usage_error(tmp_path, capsys):
    argv = ["kernel", "--k", "2", "--l", "1", "--zmin", "nan", "--zmax", "5", "--points", "3"]
    assert dispatch(argv + ["--out", str(tmp_path / "k.csv")]) == 2
    assert "finite" in capsys.readouterr().err


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
