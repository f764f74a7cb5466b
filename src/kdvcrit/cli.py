"""Unified command line: enumeration, frames, kernel sweeps, simulation,
Gramian analysis, control synthesis, and the verify-all orchestrator.

Structured output is JSON, encoded here from the reports' dataclass fields
by one encoder (`_plain`); gridded output is CSV with every float printed at
17 significant digits so files re-parse to identical values.  Exit codes:
0 success, 1 at least one failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import json
import sys
import time

import numpy as np

# pde and its scipy imports load only in simulate, gramian and verify-all's pde checks
from . import kernel, numbertheory, spectral, synthesis, unreachable
from .errors import DomainError, KdvCritError

_FMT = "%.17g"


def _f(x) -> str:
    return _FMT % float(x)


def _c(x) -> str:
    z = complex(x)
    return f"{_FMT % z.real}{'+' if z.imag >= 0 else '-'}{_FMT % abs(z.imag)}j"


@contextlib.contextmanager
def _output(path):
    """Yield stdout for None or "-", else `path` opened for writing."""
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        yield fh


def _write_csv(path, header, rows):
    with _output(path) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def _plain(x):
    """JSON-native form of a report value: a dataclass as its fields by name,
    a complex number as [re, im], arrays, tuples and lists as lists, numpy
    scalars as Python scalars."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.ndarray, tuple, list)):
        return [_plain(v) for v in x]
    return x.item() if isinstance(x, np.generic) else x


def _emit_json(obj, path):
    with _output(path) as out:
        out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _checked(obj, types: dict, what: str) -> dict:
    """`obj` must be a JSON object whose keys are in `types`, each holding a
    value of the type (or tuple of types) given there."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object, not a {type(obj).__name__}")
    for key, val in obj.items():
        kinds = types.get(key)
        if kinds is None:
            raise DomainError(f"unknown {what} key: {key}")
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        # JSON true/false would pass as int: bool is a subclass of it
        if not isinstance(val, kinds) or (isinstance(val, bool) and bool not in kinds):
            names = " or ".join(kind.__name__ for kind in kinds)
            article = "an" if names[0] in "aeiou" else "a"
            raise DomainError(f"{what} key {key} takes {article} {names}: {val!r}")
    return obj


def _read_json(path, types: dict, what: str) -> dict:
    """Load the JSON file at `path` and check it with `_checked`."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read {what} {path}: {exc}") from exc
    return _checked(obj, types, what)


_NUMBER = (int, float)
# the options a verify-all config file may set; flags win over the file
_CONFIG_TYPES = {"only": str, "no-timing": bool, "out": str}
_RUN_TYPES = {
    "k": int, "l": int, "L": _NUMBER, "nx": int, "nt": int, "T": _NUMBER,
    "control": dict, "initial": dict,
}
_CONTROL_TYPES = {"type": str, "amplitude": _NUMBER, "start": _NUMBER, "stop": _NUMBER, "path": str}
_INITIAL_TYPES = {"type": str, "re": _NUMBER, "im": _NUMBER}


def _pair(args) -> numbertheory.CriticalPair:
    return numbertheory.CriticalPair(args.k, args.l)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_lengths(args) -> int:
    seen = sorted({q.N for q in numbertheory.enumerate_pairs(args.nmax)})
    payload = [
        {**_plain(cls), "L": cls.L, "pairs": [[q.k, q.l] for q in cls.pairs]}
        for cls in map(numbertheory.representations, seen)
    ]
    if args.json:
        _emit_json(payload, args.out)
    else:
        rows = [
            [
                d["N"],
                _f(d["L"]),
                ";".join(f"({k},{l})" for k, l in d["pairs"]),
                d["n_L"],
                d["n_L_pos"],
                d["dim_MN"],
                "" if d["T_star"] is None else _f(d["T_star"]),
            ]
            for d in payload
        ]
        _write_csv(args.out, ["N", "L", "pairs", "n_L", "n_L_pos", "dim_MN", "T_star"], rows)
    return 0


def cmd_constants(args) -> int:
    pair = _pair(args)
    data = unreachable.constants(pair)
    ratio = None if pair.caseE0 else unreachable.e1_over_e(pair)
    # eta as its roots, not the EtaTriple record; key order is the text form's line order
    payload = {**_plain(pair), **_plain(data), "eta": _plain(data.eta.eta), "E1_over_E": _plain(ratio)}
    if args.json:
        _emit_json(payload, args.out)
    else:
        with _output(args.out) as out:
            for key, val in payload.items():
                print(f"{key}: {val}", file=out)
    return 0


def _parse_range(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        lo, hi = float(a), float(b)
        if not np.isfinite(hi - lo) or int(n) < 1:  # an inf or nan bound, an overflowing span, no points
            raise ValueError("the bounds and their span must be finite, npoints >= 1")
        return np.linspace(lo, hi, int(n))
    except ValueError as exc:
        raise DomainError(f"bad range {text!r}, expected start:stop:npoints") from exc


def cmd_spectral(args) -> int:
    zs = _parse_range(args.z)
    rows = []
    for z in zs:
        fr = spectral.frame(z, args.L)
        rows.append(
            [_f(z)]
            + [_f(v) for lam in fr.lam for v in (lam.real, lam.imag)]
            + [_c(fr.detQ), _c(fr.P), _c(fr.Xi), _c(fr.G), _c(fr.H)]
        )
    header = ["z"]
    for j in (1, 2, 3):
        header += [f"re_lambda{j}", f"im_lambda{j}"]
    header += ["detQ", "P", "Xi", "G", "H"]
    _write_csv(args.out, header, rows)
    return 0


def cmd_kernel(args) -> int:
    pair = _pair(args)
    lo, hi = args.zmin, args.zmax
    if not (np.isfinite([lo, hi]).all() and np.sign(lo) == np.sign(hi) != 0):
        raise DomainError(f"kernel: z range [{lo:g}, {hi:g}] must be finite, nonzero, one sign")
    if args.points < 1:
        raise DomainError(f"kernel: --points must be >= 1, got {args.points}")
    zs = np.geomspace(lo, hi, args.points)
    # the private masked form prints near-pole rows blank; a public masked twin
    # of intB_closed would be a second public entry for one quantity
    vals, near = kernel._intB_masked(pair, zs)
    rows = [
        [_f(z), "", ""] if bad else [_f(z), _f(v.real), _f(v.imag)]
        for z, v, bad in zip(zs, vals, near)
    ]
    _write_csv(args.out, ["z", "re_intB", "im_intB"], rows)
    return 0


def cmd_kernel_asym(args) -> int:
    pair = _pair(args)
    rep = kernel.verify_expansion(pair)
    _emit_json(_plain(rep), args.out)
    ok = all(s < e + 0.1 for s, e in zip(rep.slopes, rep.expected))
    return 0 if ok else 1


def _control_from_spec(spec: dict, t_nodes: np.ndarray) -> np.ndarray:
    kind = spec.get("type", "zero")
    if kind == "zero":
        return np.zeros_like(t_nodes)
    if kind == "sine-bump":
        amp = spec.get("amplitude", 1.0)
        t0 = spec.get("start", 0.0)
        t1 = spec.get("stop", t_nodes[-1])
        # the bump is sampled at the time nodes: with none strictly inside its window it is zero
        if not (np.isfinite(t1 - t0) and np.any((t_nodes > t0) & (t_nodes < t1))):
            raise DomainError(f"sine-bump window [{t0:g}, {t1:g}] must be finite and hold a time node")
        s = np.clip((t_nodes - t0) / (t1 - t0), 0.0, 1.0)
        return amp * np.sin(np.pi * s) ** 2 * ((t_nodes >= t0) & (t_nodes <= t1))
    if kind == "file":
        if "path" not in spec:
            raise DomainError("control type 'file' needs a path")
        try:
            u = np.loadtxt(spec["path"], delimiter=",")
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read control file {spec['path']}: {exc}") from exc
        if u.size != t_nodes.size:
            raise DomainError("control file length != nt+1")
        return u
    raise DomainError(f"unknown control type {kind!r}")


def _initial_from_spec(spec: dict, pair, x_nodes):
    kind = spec.get("type", "zero")
    if kind == "zero":
        return None
    if kind == "psi-re":
        if pair is None:
            raise DomainError("initial type 'psi-re' needs k and l in the run file")
        amp = complex(spec.get("re", 1.0), spec.get("im", 0.0))
        eta = unreachable.eta_triple(pair)
        vals = (amp * unreachable.phi(eta, x_nodes)).real
        ders = (amp * unreachable.phi_x(eta, x_nodes)).real
        return vals, ders
    raise DomainError(f"unknown initial type {kind!r}")


def cmd_simulate(args) -> int:
    from . import pde
    cfg = _read_json(args.config, _RUN_TYPES, "run file")
    paired = "k" in cfg and "l" in cfg
    missing = [key for key in ("nx", "nt", "T") + (() if paired else ("L",)) if key not in cfg]
    if missing:
        raise DomainError(f"run file lacks {', '.join(missing)}")
    if paired:
        pair = numbertheory.CriticalPair(cfg["k"], cfg["l"])
        length = pair.L
    else:
        pair = None
        length = float(cfg["L"])
    grid = pde.Grid(L=length, nx=cfg["nx"], T=float(cfg["T"]), nt=cfg["nt"])
    control = _checked(cfg.get("control", {}), _CONTROL_TYPES, "control")
    initial = _checked(cfg.get("initial", {}), _INITIAL_TYPES, "initial")
    u = _control_from_spec(control, grid.t_nodes)
    y0 = _initial_from_spec(initial, pair, grid.x_nodes)
    if args.system == "linear":
        traj = pde.solve_linear(grid, y0=y0, u=u)
    elif args.system == "second-order":
        _, traj = pde.solve_second_order(grid, u)
    else:
        traj = pde.solve_nonlinear(grid, y0=y0, u=u)
    header = ["t"] + [_f(x) for x in grid.x_nodes]
    rows = [
        [_f(t)] + [_f(v) for v in state]
        for t, state in zip(grid.t_nodes, traj.states)
    ]
    _write_csv(args.out, header, rows)
    return 0


def cmd_gramian(args) -> int:
    from . import pde
    pair = _pair(args)
    length = args.L if args.L is not None else pair.L
    cls = numbertheory.representations(pair.N)
    grid = pde.Grid(L=length, nx=args.nx, T=args.T, nt=args.nt)
    rep = pde.gramian(grid, cls)
    payload = _plain(rep)
    payload["singular_values"] = payload["singular_values"][:12]
    payload["complement_top"] = payload.pop("complement")[:6]
    _emit_json(payload, args.out)
    return 0


def cmd_synthesize(args) -> int:
    pair = _pair(args)
    spec = synthesis.make_spec(pair, args.T)
    trip = synthesis.steering_spectrum(spec)
    rows = [
        [_f(t), _f(u), _f(w)]
        for t, u, w in zip(trip.t, trip.u_time, trip.w_time)
    ]
    _write_csv(args.out, ["t", "u", "w"], rows)
    print(
        f"outside-[0,T] mass: {trip.outside_mass:.3e} (z_max = {trip.z_max:.1f}, "
        f"n = {trip.z.size})",
        file=sys.stderr,
    )
    return 0


def _sign_passes(rep) -> tuple[bool, bool]:
    """The sign conditions of verify-signs and verify-all: Re value in [0.7, 1.3], Im value < 0."""
    return 0.7 <= rep.re_ratio <= 1.3, rep.value.imag < 0.0


def cmd_verify_signs(args) -> int:
    pair = _pair(args)
    try:
        sweeps = [float(s) for s in args.tsweep.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad --tsweep {args.tsweep!r}, expected T,T,...") from exc
    out = []
    failed = False
    for T in sweeps:
        spec = synthesis.make_spec(pair, T)
        rep = synthesis.sign_report(spec, n_side=args.n_side)
        entry = _plain(rep)
        entry["im_ratio_over_T"] = entry.pop("im_ratio")
        # Im I/T + p: I carries the bump's centring phase e^{-ipT/2} and
        # e^{ipT/2} I -> 1 as T -> 0, so this tends to p/2, not to 0
        entry["im_ratio_plus_p"] = rep.im_ratio + pair.p
        entry["pass_re_band"], entry["pass_im_negative"] = _sign_passes(rep)
        entry["pass_im_below_minus_p"] = bool(rep.im_ratio < -pair.p)
        out.append(entry)
        failed |= not (entry["pass_re_band"] and entry["pass_im_negative"])
    _emit_json(out, args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def _roots_residual():
    rng = np.random.default_rng(20240811)
    z = rng.uniform(-1e6, 1e6, 10000)
    lam = spectral.roots(z)
    res = np.abs(lam**3 + lam + 1j * z[:, None]).max(axis=1)
    worst = float((res / (1.0 + np.abs(z))).max())
    return worst, worst <= 1e-12


def _root_orders():
    zg = 1e3 * 2.0 ** np.arange(0, 10.5)
    lam = spectral.roots(zg)
    errs = [np.abs(lam - spectral.asymptotic_roots(zg, n)).max(axis=1) for n in (1, 2)]
    s1, s2 = (np.polyfit(np.log10(zg), np.log10(e), 1)[0] for e in errs)
    ok = abs(s1 + 1.0 / 3.0) < 0.05 and abs(s2 + 5.0 / 3.0) < 0.05
    return [float(s1), float(s2)], ok


def _gamma_lambda():
    worst = 0.0
    for q in numbertheory.enumerate_pairs(20)[:50]:
        d = unreachable.constants(q)
        closed = -8j * np.pi**3 * q.k * q.l * (q.k + q.l) / q.L**3
        worst = max(
            worst,
            abs(d.Gamma - closed) / abs(closed),
            abs(d.Lambda - closed) / abs(closed),
        )
    return worst, worst <= 1e-12


def _e_dichotomy():
    ok = True
    for q in numbertheory.enumerate_pairs(20)[:50]:
        d = unreachable.constants(q)
        if q.caseE0:
            ok &= abs(d.E) < 1e-12
        else:
            ok &= abs(d.E) > 1e-3 * abs(d.Gamma)
    return ok, ok


def _e1_ratio():
    worst = 0.0
    for q in numbertheory.enumerate_pairs(20):
        if q.caseE0:
            continue
        r = unreachable.e1_over_e(q)
        worst = max(worst, abs(r.imag + q.p * q.L / 6.0))
    return worst, worst <= 1e-10


def _expansion_slopes():
    out = {}
    ok = True
    # the orders come from the report; the second-slope window is per pair
    for (k, l), win in (((2, 1), 0.05), ((4, 1), 0.07)):
        rep = kernel.verify_expansion(numbertheory.CriticalPair(k, l))
        out[f"({k},{l})"] = list(rep.slopes)
        (s0, s1, s2), (e0, e1, e2) = rep.slopes, rep.expected
        ok &= abs(s0 - e0) < 0.05 and abs(s1 - e1) < win and s2 <= e2 + 0.1
    return out, ok


def _representations_oracle():
    table = collections.defaultdict(list)
    for k in range(1, 101):
        for l in range(1, k + 1):
            table[k * k + k * l + l * l].append((k, l))
    ok = True
    for n, pairs in table.items():
        if n > 10000:
            continue
        cls = numbertheory.representations(n)
        ok &= sorted((q.k, q.l) for q in cls.pairs) == sorted(pairs)
        ok &= cls.dim_MN == len(pairs) + sum(k > l for k, l in pairs)
    return ok, ok


def _pde_order():
    from . import pde
    pair = numbertheory.CriticalPair(2, 1)
    eta = unreachable.eta_triple(pair)
    c0 = 0.3 + 0.7j
    errs = []
    for nx in (48, 96, 192):
        grid = pde.Grid(L=pair.L, nx=nx, T=1.0, nt=1200)
        x = grid.x_nodes
        vals = (c0 * unreachable.psi(eta, 0.0, x)).real
        ders = (c0 * unreachable.phi_x(eta, x)).real
        traj = pde.solve_linear(grid, y0=(vals, ders))
        ref = traj.system.interpolate(
            (c0 * unreachable.psi(eta, 1.0, x)).real,
            (c0 * np.exp(-1j * eta.p) * unreachable.phi_x(eta, x)).real,
        )
        errs.append(traj.system.l2_norm(traj.final() - ref))
    slope = float(np.polyfit(np.log10([48, 96, 192]), np.log10(errs), 1)[0])
    return -slope, -slope >= 1.9


def _gramian_quick():
    from . import pde
    cls = numbertheory.representations(3)
    crit = pde.gramian(pde.Grid(L=2 * np.pi, nx=128, T=1.0, nt=650), cls)
    free = pde.gramian(pde.Grid(L=1.0, nx=128, T=1.0, nt=650), cls)
    vals = {
        "critical": crit.restricted_ratio,
        "noncritical": free.restricted_min_ratio,
    }
    return vals, crit.restricted_ratio <= 1e-6 and free.restricted_min_ratio >= 1e-4


def _signs_quick():
    spec = synthesis.make_spec(numbertheory.CriticalPair(3, 2), 0.4)
    rep = synthesis.sign_report(spec, n_side=4001)
    vals = {"re": rep.re_ratio, "im": rep.value.imag}
    return vals, all(_sign_passes(rep))


# (tag, name, check, tolerance); each check returns (measured value, passed)
_CHECKS = (
    ("spectral", "root residual / (1+|z|)", _roots_residual, 1e-12),
    ("spectral", "root expansion slopes", _root_orders, "[-1/3, -5/3] +/- 0.05"),
    ("unreachable", "Gamma = Lambda closed form", _gamma_lambda, 1e-12),
    ("unreachable", "E vanishes iff 3 | (2k+l)", _e_dichotomy, "exact dichotomy"),
    ("unreachable", "Im(E1/E) = -pL/6", _e1_ratio, 1e-10),
    ("kernel", "two-term expansion slopes", _expansion_slopes, "criterion windows"),
    ("numbertheory", "representations vs brute force (N <= 1e4)", _representations_oracle, "exact"),
    ("pde", "spatial convergence order", _pde_order, ">= 1.9"),
    ("pde", "Gramian dichotomy (quick grid)", _gramian_quick, "<= 1e-6 vs >= 1e-4"),
    ("synthesis", "sign integral (3,2), T = 0.4", _signs_quick, "Re in [0.7,1.3], Im < 0"),
)


def verify_all(only=None, include_timing=True):
    """Run the bounded verification battery; the acceptance suite in tests/
    enforces the full criteria at their stated grids.  Deterministic: fixed
    seeds, no wall-clock inputs (runtimes are annotations only and can be
    suppressed for byte-identical reports)."""
    tags = {tag for tag, *_ in _CHECKS}
    if only is not None and not only <= tags:
        raise DomainError(
            f"unknown --only tag {', '.join(sorted(only - tags))}; "
            f"valid tags: {', '.join(sorted(tags))}"
        )
    checks = []
    for tag, name, fn, tol in _CHECKS:
        if only is not None and tag not in only:
            continue
        t0 = time.perf_counter()
        try:
            value, ok = fn()
        except Exception as exc:  # one broken check must not end the battery
            value, ok = f"{type(exc).__name__}: {exc}", False
        entry = {
            "name": name,
            "status": "pass" if ok else "fail",
            "measured": value,
            "tolerance": tol,
        }
        if include_timing:
            entry["runtime_s"] = round(time.perf_counter() - t0, 3)
        checks.append(entry)
    failed = any(c["status"] == "fail" for c in checks)
    return {"checks": checks, "failed": int(failed)}


def cmd_verify_all(args) -> int:
    if args.config:
        for key, val in _read_json(args.config, _CONFIG_TYPES, "config").items():
            attr = key.replace("-", "_")
            # None, or a store_true flag left False: the command line did not set it
            if getattr(args, attr) in (None, False):
                setattr(args, attr, val)
    only = None
    if args.only is not None:
        only = {s.strip() for s in args.only.split(",")}
        if "" in only:
            raise DomainError(f"empty --only tag in {args.only!r}; give comma-separated tag names")
    report = verify_all(only=only, include_timing=not args.no_timing)
    _emit_json(report, args.out)
    return 1 if report["failed"] else 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_INT = {"type": int, "required": True}
_FLOAT = {"type": float, "required": True}
_FLAG = {"action": "store_true"}

# (name, handler, help, takes --k/--l, options); every command also takes --out
_COMMANDS = (
    ("lengths", cmd_lengths, "enumerate critical length classes", False,
     (("--nmax", dict(_INT, help="bound on k")), ("--json", _FLAG))),
    ("constants", cmd_constants, "eta triple and expansion constants", True,
     (("--json", _FLAG),)),
    ("spectral", cmd_spectral, "root frames on a z range", False,
     (("--L", _FLOAT), ("--z", {"required": True, "help": "start:stop:npoints"}))),
    ("kernel", cmd_kernel, "closed-form int B on a log grid", True,
     (("--zmin", _FLOAT), ("--zmax", _FLOAT), ("--points", _INT))),
    ("kernel-asym", cmd_kernel_asym, "expansion-order report", True, ()),
    ("simulate", cmd_simulate, "run a discretized control system", False,
     (("--system", {"choices": ["linear", "second-order", "nonlinear"], "required": True}),
      ("--config", {"required": True, "help": "JSON: L or (k,l), nx, nt, T, control, initial"}))),
    ("gramian", cmd_gramian, "control-to-state SVD split along M_N", True,
     (("--T", _FLOAT), ("--nx", _INT), ("--nt", _INT),
      ("--L", {"type": float, "default": None, "help": "override length (dichotomy tests)"}))),
    ("synthesize", cmd_synthesize, "bump steering control to CSV", True, (("--T", _FLOAT),)),
    ("verify-signs", cmd_verify_signs, "sign-condition sweep for I / J", True,
     (("--tsweep", {"default": "0.4,0.2,0.1,0.05"}), ("--n-side", {"type": int, "default": 8001}))),
    ("verify-all", cmd_verify_all, "bounded verification battery, JSON report", False,
     (("--only", {"default": None, "help": "comma list: numbertheory,spectral,..."}),
      ("--config", {"default": None}),
      ("--no-timing", dict(_FLAG, help="omit runtimes (byte-stable reports)")))),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kdvcrit",
        description="Numerics for KdV boundary control at critical lengths",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    paired = argparse.ArgumentParser(add_help=False)
    paired.add_argument("--k", type=int, required=True)
    paired.add_argument("--l", type=int, required=True)
    for name, func, text, takes_pair, options in _COMMANDS:
        p = sub.add_parser(name, help=text, parents=[paired] if takes_pair else [])
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
    return ap


def dispatch(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KdvCritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
