import ast
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kdvcrit
from kdvcrit import numbertheory as nt
from kdvcrit import cli, kernel, pde, spectral, synthesis
from kdvcrit import unreachable as ur
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


@pytest.mark.parametrize("layout", ["column", "row"])
def test_simulate_control_file(tmp_path, layout):
    # the nt + 1 samples of the sine-bump control, read from a file one a line
    # or all on one line, give the CSV of the run that makes them itself
    run = {"L": 3.0, "nx": 8, "nt": 6, "T": 0.2}
    bump = {"type": "sine-bump", "amplitude": 0.1}
    u = cli._control_from_spec(bump, pde.Grid(**run).t_nodes)
    samples = tmp_path / "u.csv"
    samples.write_text(("\n" if layout == "column" else ",").join(repr(float(v)) for v in u) + "\n")
    csv = {}
    for name, control in (("file", {"type": "file", "path": str(samples)}), ("array", bump)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(dict(run, control=control)))
        csv[name] = tmp_path / f"{name}.csv"
        assert dispatch(["simulate", "--system", "linear", "--config", str(cfg), "--out", str(csv[name])]) == 0
    assert np.any(u != 0.0) and csv["file"].read_text() == csv["array"].read_text()


def test_simulate_psi_re_initial_state(tmp_path):
    # row 0 of the CSV is Re((re + i im) phi) at the interior nodes and 0 at the ends
    pair = nt.CriticalPair(2, 1)
    initial = {"type": "psi-re", "re": 0.3, "im": 0.7}
    cfg = tmp_path / "psi.json"
    cfg.write_text(json.dumps({"k": 2, "l": 1, "nx": 32, "nt": 4, "T": 0.05, "initial": initial}))
    out = tmp_path / "traj.csv"
    assert dispatch(["simulate", "--system", "nonlinear", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, row0 = list(csv.reader(fh))[:2]
    x = np.array([float(v) for v in header[1:]])
    want = (complex(0.3, 0.7) * ur.phi(ur.eta_triple(pair), x[1:-1])).real
    assert row0[0] == "0" and row0[1] == row0[-1] == "0"
    assert row0[2:-1] == ["%.17g" % v for v in want]


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
    rep = cli._plain(pde.gramian(grid, nt.representations(3)))
    assert set(payload) == set(rep) - {"complement"} | {"complement_top"}
    assert payload["singular_values"] == rep["singular_values"][:12]
    assert payload["complement_top"] == rep["complement"][:6]
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


def _bump(start, stop):
    return {"type": "sine-bump", "start": start, "stop": stop}
_SIGNS = ["verify-signs", "--k", "3", "--l", "2"]


# "{tmp}" in a command or config stands for the test's tmp_path; a str config
# is written as it is, any other as JSON
@pytest.mark.parametrize(
    "command, cfg, message",
    [
        (["spectral", "--L", "3.6", "--z", "0:3"], None, "bad range '0:3'"),
        (["spectral", "--L", "3.6", "--z", "1e400:1:3"], None, "bad range '1e400:1:3'"),
        (["spectral", "--L", "3.6", "--z=-1e308:1e308:3"], None, "bad range '-1e308:1e308:3'"),
        (["spectral", "--L", "3.6", "--z=0:3:0"], None, "bad range '0:3:0'"),
        (["spectral", "--L", "nan", "--z", "0:1:2"], None, "L must be positive and finite, got nan"),
        (["spectral", "--L", "inf", "--z", "0:1:2"], None, "L must be positive and finite, got inf"),
        (["verify-all", "--no-timing"], {"bogus": 1}, "unknown config key: bogus"),
        (["verify-all", "--no-timing"], {"func": 1}, "unknown config key: func"),
        (["verify-all"], {"no_timing": True}, "unknown config key: no_timing"),
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
        (
            ["simulate", "--system", "linear"],
            dict(_RUN, control={"type": "file", "path": "{tmp}/short.csv"}),
            "control file length != nt+1",
        ),
        (["simulate", "--system", "linear"], dict(_RUN, initial={"type": "psi-re"}),
         "initial type 'psi-re' needs k and l"),
        (["simulate", "--system", "linear"], dict(_RUN, control=_bump(0.8, 0.2)),
         "sine-bump window [0.8, 0.2] must be"),
        (["simulate", "--system", "linear"], dict(_RUN, control=_bump(0.2, 0.2)),
         "sine-bump window [0.2, 0.2] must be"),
        (["simulate", "--system", "linear"], dict(_RUN, T=1.0, control=_bump(1.5, 3.0)),
         "sine-bump window [1.5, 3] must be finite and hold a time node"),
        (["simulate", "--system", "linear"], dict(_RUN, control=_bump(0.0, float("inf"))),
         "sine-bump window [0, inf] must be"),
        (["simulate", "--system", "linear"], dict(_RUN, control=_bump(0.01, 0.02)),
         "sine-bump window [0.01, 0.02] must be"),
        (["kernel", "--k", "2", "--l", "1", "--zmin", "1", "--zmax", "5", "--points", "-3"], None,
         "--points must be >= 1"),
        (_SIGNS + ["--tsweep", "0.4,abc"], None, "bad --tsweep '0.4,abc'"),
        (_SIGNS + ["--tsweep", "nan"], None, "T must be positive and finite, got nan"),
        (_SIGNS + ["--tsweep", "1e300"], None, "T = 1e+300 leaves double range"),
        (_SIGNS + ["--tsweep", "0.4", "--n-side", "1"], None, "n_side must be an integer >= 2, got 1"),
        (["lengths", "--nmax", "3", "--out", "{tmp}/missing/out.csv"], None, "cannot write"),
        (
            ["verify-all", "--only", "spectrl"],
            None,
            "unknown --only tag spectrl; valid tags: kernel, numbertheory, pde, spectral, "
            "synthesis, unreachable",
        ),
        (["verify-all", "--only", ""], None, "empty --only tag in ''"),
        (["verify-all"], {"only": "spectral,"}, "empty --only tag in 'spectral,'"),
    ],
    ids=["range", "range-inf", "range-span-overflow", "range-no-points", "spectral-L-nan", "spectral-L-inf",
         "config-key", "config-argparse-attr", "config-underscore-key", "config-type",
         "control-type", "run-file-key", "run-file-keys", "config-missing", "config-malformed",
         "config-list", "run-file-missing", "run-file-malformed", "run-file-list", "run-file-type",
         "control-list", "control-file-no-path", "control-file-missing", "control-file-length",
         "initial-no-pair", "bump-reversed", "bump-empty", "bump-after-T", "bump-stop-inf",
         "bump-between-nodes", "kernel-points", "tsweep", "tsweep-nan", "tsweep-extreme", "n-side", "out-dir-missing",
         "only-tag", "only-empty", "config-only-empty-tag"],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, command, cfg, message):
    (tmp_path / "short.csv").write_text("0.0,0.0\n")  # two control samples, where nt + 1 = 7
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


def test_verify_all_battery_passes():
    # every check of the battery runs to completion and passes, in _CHECKS order
    report = cli.verify_all(include_timing=False)
    assert [c["name"] for c in report["checks"]] == [name for _, name, *_ in cli._CHECKS]
    assert all(c["status"] == "pass" for c in report["checks"]) and report["failed"] == 0


def test_constants_json(tmp_path):
    out = tmp_path / "constants.json"
    assert dispatch(["constants", "--k", "2", "--l", "1", "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert {"k", "l", "N", "L", "p", "caseE0", "eta", "E", "F", "E1_over_E"} <= set(payload)
    assert (payload["k"], payload["l"]) == (2, 1)


def test_kernel_asym_exits_zero(tmp_path):
    out = tmp_path / "asym.json"
    assert dispatch(["kernel-asym", "--k", "2", "--l", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # the JSON holds the report's fields by name
    rep = kernel.verify_expansion(nt.CriticalPair(2, 1))
    assert set(payload) == {f.name for f in dataclasses.fields(rep)}
    assert payload["pair"] == [2, 1] and payload["slopes"] == list(rep.slopes)


@dataclasses.dataclass
class _Inner:
    z: complex
    flag: np.bool_


@dataclasses.dataclass
class _Record:
    inner: _Inner
    zc: np.complex128
    x: np.float64
    arr: np.ndarray
    tup: tuple
    none: None
    n: int


def _json_native(v) -> bool:
    if type(v) is dict:
        return all(type(k) is str and _json_native(w) for k, w in v.items())
    if type(v) is list:
        return all(map(_json_native, v))
    return type(v) in (str, int, float, bool, type(None))


def test_plain_encodes_every_value_kind():
    rec = _Record(
        inner=_Inner(z=1 - 2j, flag=np.bool_(True)),
        zc=np.complex128(0.5 + 3j),
        x=np.float64(-0.0),
        arr=np.array([[1.0, 2.0], [3.0, 4.0]]),
        tup=(np.int64(7), np.float64(0.25)),
        none=None,
        n=3,
    )
    plain = cli._plain(rec)
    assert _json_native(plain)
    json.dumps(plain, allow_nan=False)
    assert plain == {
        "inner": {"z": [1.0, -2.0], "flag": True},
        "zc": [0.5, 3.0],
        "x": -0.0,
        "arr": [[1.0, 2.0], [3.0, 4.0]],
        "tup": [7, 0.25],
        "none": None,
        "n": 3,
    }


@pytest.mark.parametrize("k, l", [(2, 1), (4, 1)], ids=["case-1", "case-2"])
def test_constants_text_prints_plain_numbers(tmp_path, k, l):
    out = tmp_path / "constants.txt"
    assert dispatch(["constants", "--k", str(k), "--l", str(l), "--out", str(out)]) == 0
    text = out.read_text()
    assert "np." not in text
    (line,) = [s for s in text.splitlines() if s.startswith("eta: ")]
    eta = ast.literal_eval(line.removeprefix("eta: "))
    want = ur.eta_triple(nt.CriticalPair(k, l)).eta
    assert eta == [[e.real, e.imag] for e in want]


def test_lengths_csv_and_json_agree(tmp_path):
    argv = ["lengths", "--nmax", "12", "--out"]
    assert dispatch(argv + [str(tmp_path / "l.csv")]) == 0
    assert dispatch(argv + [str(tmp_path / "l.json"), "--json"]) == 0
    with open(tmp_path / "l.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    classes = json.loads((tmp_path / "l.json").read_text())
    assert len(rows) == len(classes) > 1
    for row, cls in zip(rows, classes):
        assert {"N", "L", "pairs", "n_L", "n_L_pos", "dim_MN", "T_star"} <= set(cls)
        for key in ("N", "n_L", "n_L_pos", "dim_MN"):
            assert int(row[key]) == cls[key]
        assert row["L"] == "%.17g" % cls["L"]
        assert row["pairs"] == ";".join(f"({k},{l})" for k, l in cls["pairs"])
        assert row["T_star"] == ("" if cls["T_star"] is None else "%.17g" % cls["T_star"])


def test_synthesize_usage_and_leak_exits(tmp_path, capsys):
    out = str(tmp_path / "ctrl.csv")
    assert dispatch(["synthesize", "--k", "2", "--l", "1", "--T", "-1", "--out", out]) == 2
    # at (3,2), T = 0.4 the spectral hump exceeds double range: SupportLeak
    assert dispatch(["synthesize", "--k", "3", "--l", "2", "--T", "0.4", "--out", out]) == 1
    assert "spectral hump" in capsys.readouterr().err


def test_synthesize_writes_the_steering_signals(tmp_path, capsys):
    # the t, u, w columns re-parse bit for bit to steering_spectrum's signals
    out = tmp_path / "ctrl.csv"
    assert dispatch(["synthesize", "--k", "1", "--l", "1", "--T", "1", "--out", str(out)]) == 0
    assert "outside-[0,T] mass:" in capsys.readouterr().err
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    trip = synthesis.steering_spectrum(synthesis.make_spec(nt.CriticalPair(1, 1), 1.0))
    cols = np.array(rows, dtype=float).T
    assert header == ["t", "u", "w"] and cols.shape == (3, 131072)
    for got, want in zip(cols, (trip.t, trip.u_time, trip.w_time)):
        assert np.array_equal(got, want)


def test_verify_signs_json(tmp_path):
    out = tmp_path / "signs.json"
    argv = ["verify-signs", "--k", "3", "--l", "2", "--tsweep", "0.4", "--n-side", "401"]
    assert dispatch(argv + ["--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())
    report_keys = {
        "pair", "case", "T", "gamma", "value", "log_norm_w", "wshift", "re_ratio",
        "im_ratio_over_T", "im_ratio_plus_p", "prop37_ratio", "z_peak", "log_peak", "n_grid",
    }  # SignReport's fields, im_ratio renamed, and im_ratio_plus_p
    assert set(entry) == report_keys | {"pass_re_band", "pass_im_negative", "pass_im_below_minus_p"}
    assert entry["pass_re_band"] and entry["pass_im_negative"]


def test_verify_signs_sweep_matches_single_runs(tmp_path):
    # a T sweep in one process reads one per-pair store; each entry is the
    # JSON of a single-T run made on a cleared store
    argv = ["verify-signs", "--k", "3", "--l", "2", "--n-side", "2001", "--out"]
    synthesis._pair_tables.cache_clear()
    assert dispatch(argv + [str(tmp_path / "sweep.json"), "--tsweep", "0.5,0.4"]) == 0
    singles = []
    for T in ("0.5", "0.4"):
        synthesis._pair_tables.cache_clear()
        assert dispatch(argv + [str(tmp_path / f"{T}.json"), "--tsweep", T]) == 0
        singles += json.loads((tmp_path / f"{T}.json").read_text())
    assert json.loads((tmp_path / "sweep.json").read_text()) == singles


def test_spectral_csv_is_stable(capsys):
    # frames from one root triple print the same bytes as three root solves did
    assert dispatch(["spectral", "--L", "3.6", "--z", "0:3:7"]) == 0
    with open(DATA / "spectral_L3.6_z0-3-7.csv", newline="") as fh:
        assert capsys.readouterr().out == fh.read()
