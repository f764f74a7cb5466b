"""Outside-in tracing of the kdvcrit layers.

The tracer replaces each traced function at every kdvcrit module attribute
that holds it (so the ``from .spectral import roots`` copies in jets, kernel
and synthesis are wrapped too) by a wrapper that records a span.  Nothing in
the library changes: ``Tracer.restore`` puts every original object back and
checks by identity that it is back, so untraced runs measure the unpatched
program.

Spans live in memory (one list) and carry an operation id and a parent id;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (home module, attribute) of every traced function.  Each is wrapped at all
# kdvcrit module bindings of the same object.
FUNCTIONS = [
    ("spectral", "roots"),
    ("spectral", "gh_scaled"),
    ("jets", "root_jets"),
    ("jets", "h_jets_scaled"),
    ("kernel", "interaction_numerator"),
    ("unreachable", "constants"),
    ("synthesis", "make_spec"),
    ("synthesis", "steering_spectrum"),
    ("synthesis", "sign_report"),
    ("synthesis", "vhat1_scaled"),
    ("synthesis", "quad"),
    ("pde", "solve_linear"),
    ("pde", "solve_second_order"),
    ("pde", "solve_nonlinear"),
    ("pde", "gramian"),
    ("pde", "hum_control"),
    ("pde", "cholesky"),
]

# traced methods: (module, class, method, span name)
METHODS = [
    ("synthesis", "BumpTable", "__init__", "synthesis.BumpTable"),
    ("synthesis", "BumpTable", "eval_w", "synthesis.BumpTable.eval_w"),
]

# index of the argument whose size counts as "points" for a span
_POINTS_ARG = {
    "spectral.roots": 0,
    "spectral.gh_scaled": 0,
    "jets.root_jets": 0,
    "jets.h_jets_scaled": 0,
    "kernel.interaction_numerator": 1,
    "synthesis.vhat1_scaled": 2,
    "synthesis.BumpTable.eval_w": 1,  # after self
}

# spans recorded by the wrapped LU factorization (see _TracedSparseLinalg)
LU_SPANS = ["pde.splu", "pde.lu_solve"]

PACKAGE = "kdvcrit"
MODULES = ("spectral", "jets", "kernel", "unreachable", "synthesis", "pde")


class Span:
    __slots__ = ("sid", "parent", "op", "name", "owner", "attrs", "t0", "t1")

    def __init__(self, sid, parent, op, name, owner, attrs):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.owner = owner  # kdvcrit module whose binding the call went through
        self.attrs = attrs
        self.t0 = self.t1 = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if not k.startswith("_")}
        return {
            "id": self.sid,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "via": self.owner,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": attrs,
        }


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class _TracedLU:
    """Factorization wrapper whose ``solve`` records a span per call."""

    def __init__(self, tracer: "Tracer", lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, *args, **kwargs):
        cols = 1 if np.ndim(rhs) == 1 else int(np.shape(rhs)[1])
        span = self._tracer.open("pde.lu_solve", "pde", {"rhs_columns": cols})
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedSparseLinalg:
    """Stand-in for ``pde.sparse_linalg`` whose ``splu`` is traced."""

    def __init__(self, tracer: "Tracer", module):
        self._tracer = tracer
        self._module = module

    def splu(self, *args, **kwargs):
        span = self._tracer.open("pde.splu", "pde")
        try:
            lu = self._module.splu(*args, **kwargs)
        finally:
            self._tracer.close(span)
        return _TracedLU(self._tracer, lu)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans around the traced kdvcrit layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def open(self, name: str, owner: str, attrs=None) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, self.op, name, owner, attrs if attrs is not None else {})
        self.spans.append(span)
        self.stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def current_owner(self):
        """Module whose binding the innermost open span was entered through."""
        return self.stack[-1].owner if self.stack else None

    # -- patching -------------------------------------------------------

    def _modules(self):
        prefix = PACKAGE + "."
        return {
            name[len(prefix):]: mod
            for name, mod in sorted(sys.modules.items())
            if name.startswith(prefix) and mod is not None
        }

    def _wrap(self, name: str, owner: str, fn):
        tracer = self
        index = _POINTS_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if index is not None:
                arg = args[index]
                attrs["points"] = int(np.size(arg))
                if name == "synthesis.vhat1_scaled":
                    attrs["_z"] = arg
            if name == "pde.solve_nonlinear":
                attrs["nt"] = int(args[0].nt)
            span = tracer.open(name, owner, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for home, attr in FUNCTIONS:
            original = getattr(modules[home], attr)
            name = f"{home}.{attr}"
            for mod_name, mod in modules.items():
                if vars(mod).get(attr) is original:
                    self._set(mod, attr, self._wrap(name, mod_name, original))
        for home, cls_name, attr, name in METHODS:
            cls = getattr(modules[home], cls_name)
            self._set(cls, attr, self._wrap(name, home, vars(cls)[attr]))
        pde = modules["pde"]
        self._set(pde, "sparse_linalg", _TracedSparseLinalg(self, pde.sparse_linalg))

    def restore(self) -> None:
        """Put back every original binding and check each by identity."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"binding {owner.__name__}.{attr} not restored")


def warning_origin(filename: str, tracer: Tracer | None, package_dir: Path) -> str:
    """kdvcrit module a warning came from, or "other".

    A warning raised with ``stacklevel=2`` inside a wrapped function (scipy's
    ``quad``) names the tracer's wrapper as its location; it is attributed to
    the module whose binding the innermost open span went through, which is
    the module that made the call.
    """
    path = Path(filename)
    if tracer is not None and path == Path(__file__) and tracer.current_owner():
        return tracer.current_owner()
    if path.parent == package_dir and path.stem in MODULES:
        return path.stem
    return "other"


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from a finished trace (see BENCHMARK.json)."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "points": 0, "rhs_columns": 0})
    for span, st in zip(spans, selfs):
        agg = by_name[span.name]
        agg["calls"] += 1
        agg["self_s"] += st
        agg["points"] += span.attrs.get("points", 0)
        agg["rhs_columns"] += span.attrs.get("rhs_columns", 0)

    names = [f"{home}.{attr}" for home, attr in FUNCTIONS] + [m[3] for m in METHODS] + LU_SPANS
    out = {}
    for name in names:
        agg = by_name[name]
        out[f"{name}.self_s"] = agg["self_s"]
        out[f"{name}.calls"] = agg["calls"]
        if name in _POINTS_ARG:
            out[f"{name}.points"] = agg["points"]
    out["pde.lu_solve.rhs_columns"] = by_name["pde.lu_solve"]["rhs_columns"]
    out["pde.picard_per_step"] = picard_per_step(spans)
    out["synthesis.vhat1_scaled.redundancy"] = vhat1_redundancy(spans)
    return out


def picard_per_step(spans) -> float:
    """``lu_solve`` calls made directly by ``solve_nonlinear``, per time step."""
    steps = 0
    solves = 0
    nonlinear = set()
    for span in spans:
        if span.name == "pde.solve_nonlinear":
            nonlinear.add(span.sid)
            steps += span.attrs["nt"]
        elif span.name == "pde.lu_solve" and span.parent in nonlinear:
            solves += 1
    return solves / steps if steps else 0.0


def vhat1_redundancy(spans) -> float:
    """Bump-transform points requested per distinct z, within each operation."""
    per_op = defaultdict(list)
    for span in spans:
        if span.name == "synthesis.vhat1_scaled":
            per_op[span.op].append(np.ravel(span.attrs["_z"]))
    requested = sum(sum(z.size for z in zs) for zs in per_op.values())
    distinct = sum(np.unique(np.concatenate(zs)).size for zs in per_op.values())
    return requested / distinct if distinct else 0.0
