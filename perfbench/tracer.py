"""Outside-in tracer for numrad, kept in the benchmark's own files.

`Tracer` wraps every public function of the numrad modules and numpy's
Hermitian eigensolvers (`numpy.linalg.eigvalsh` and `eigh`, the layer called
`lapack` here). It rebinds every place that holds one of those functions, so
names imported with `from .linalg import operator_norm` are traced too.
Each call becomes one span: (name id, parent span, start, end, extra), kept
in memory. Leaving the `with` block restores every original.
`layer_metrics` turns the spans into per-layer counts, busy time and self
time. Nothing under src/ knows about tracing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "io", "bounds", "numrange", "extremal", "linalg")
KERNELS = ("eigvalsh", "eigh")

GEN = (
    "extremal.gen_disk_instance",
    "extremal.gen_segment_instance",
    "extremal.gen_nilpotent_instance",
    "extremal.ginibre",
    "extremal.random_unitary",
)
SEARCH = ("extremal.search_sqrt_disk", "extremal.probe_equality_case")

# Labelled estimates of real flops per complex Hermitian matrix of order n:
# the Golub & Van Loan symmetric QR counts (4n^3/3 for values, 9n^3 with
# vectors) times 4 for complex arithmetic.
FLOPS_PER_N3 = {"lapack.eigvalsh": 16.0 / 3.0, "lapack.eigh": 36.0}


def public_functions(module) -> dict:
    """Functions a module defines and exports (`__all__`, else no leading underscore)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k in vars(module) if not k.startswith("_")]
    found = {}
    for name in names:
        value = getattr(module, name, None)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            found[name] = value
    return found


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _stack_shape(args, kwargs):
    shape = np.shape(_arg(args, kwargs, 0, "a"))
    return int(np.prod(shape[:-2], dtype=np.int64)), int(shape[-1])


def _cert_kinds(args, kwargs):
    kinds = [type(c).__name__ for c in _arg(args, kwargs, 1, "certs")]
    return kinds.count("DiskCertificate"), kinds.count("SectorPair")


def _iters(args, kwargs):
    return int(_arg(args, kwargs, 1, "iters"))


# Extra data recorded with a span, taken from the call's arguments.
HOOKS = {
    "lapack.eigvalsh": _stack_shape,
    "lapack.eigh": _stack_shape,
    "bounds.verify_all": _cert_kinds,
    "extremal.search_sqrt_disk": _iters,
    "extremal.probe_equality_case": _iters,
}


def _numrad_modules() -> list:
    return [m for k, m in list(sys.modules.items()) if k == "numrad" or k.startswith("numrad.")]


class Tracer:
    """Context manager that records one span per traced call, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def __enter__(self) -> "Tracer":
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"numrad.{layer}")
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for name in KERNELS:
            fn = getattr(np.linalg, name)
            originals[id(fn)] = (fn, self._wrap(f"lapack.{name}", fn))
        try:
            for module in _numrad_modules() + [np.linalg]:
                for attr, value in list(vars(module).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, hit[1])
        except BaseException:
            self._undo()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._undo()

    def _undo(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra = hook(args, kwargs) if hook else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, parent, t0, t1, extra)

        return traced


class SpanTable:
    """Columns of a finished trace, with group queries.

    A group is a set of span names. Its calls and busy time count only the
    spans with no ancestor in the group, so nested calls are not counted
    twice; its self time sums each member's duration minus its children's.
    """

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        if any(s is None for s in spans):
            raise RuntimeError("trace summarized while a traced call is still open")
        self.names = tracer.names
        self.spans = spans
        n = len(spans)
        self.name = np.fromiter((s[0] for s in spans), np.int64, n)
        self.parent_list = [s[1] for s in spans]
        self.parent = np.array(self.parent_list, dtype=np.int64).reshape(n)
        self.dur = np.fromiter((s[3] - s[2] for s in spans), float, n)
        child = np.zeros(n)
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.dur[nested])
        self.self_time = self.dur - child
        self.roots = ~nested

    def members(self, names) -> np.ndarray:
        ids = [k for k, name in enumerate(self.names) if name in names]
        return np.isin(self.name, ids)

    def layer(self, layer: str) -> np.ndarray:
        return self.members({n for n in self.names if n.split(".", 1)[0] == layer})

    def inside(self, member: np.ndarray) -> np.ndarray:
        """True for spans with a proper ancestor in the group (parents precede children)."""
        flags = member.tolist()
        out = [False] * len(flags)
        for i, p in enumerate(self.parent_list):
            if p >= 0 and (flags[p] or out[p]):
                out[i] = True
        return np.array(out, dtype=bool)

    def group(self, member: np.ndarray) -> tuple[int, float, float]:
        outer = member & ~self.inside(member)
        return int(outer.sum()), float(self.dur[outer].sum()), float(self.self_time[member].sum())

    def extras(self, member: np.ndarray) -> list:
        return [self.spans[i][4] for i in np.flatnonzero(member)]


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of a traced pass whose operations took wall_s in total.

    Returns {name: (value, unit)}. Layers a workload never reaches report 0.
    `trace.unaccounted_share` is the part of wall_s that no span covers.
    """
    t = SpanTable(tracer)
    m: dict[str, tuple] = {}

    def fn_metrics(name, keys):
        member = t.members({name})
        calls, busy, self_s = t.group(member)
        for key in keys:
            value = {
                "calls": (calls, "count"),
                "busy_s": (busy, "s"),
                "self_s": (self_s, "s"),
                "mean_ms": (_per(busy, calls) * 1e3, "ms"),
                "mean_us": (_per(busy, calls) * 1e6, "us"),
            }[key]
            m[f"{name}.{key}"] = value
        return member, calls

    radius, radius_calls = fn_metrics(
        "numrange.numerical_radius", ("calls", "busy_s", "self_s", "mean_ms")
    )
    fn_metrics("numrange.numerical_range_boundary", ("calls", "busy_s"))

    lapack = t.layer("lapack")
    in_radius = t.inside(radius)
    m["numrange.numerical_radius.eig_calls_per_call"] = (
        _per(int((lapack & in_radius).sum()), radius_calls), "count"
    )
    total_calls = total_mats = 0
    flops = nbytes = 0.0
    for kernel in ("lapack.eigvalsh", "lapack.eigh"):
        member = t.members({kernel})
        calls, busy, _ = t.group(member)
        shapes = t.extras(member)
        mats = sum(k for k, _ in shapes)
        m[f"{kernel}.calls"] = (calls, "count")
        m[f"{kernel}.matrices"] = (mats, "count")
        m[f"{kernel}.busy_s"] = (busy, "s")
        total_calls += calls
        total_mats += mats
        flops += sum(FLOPS_PER_N3[kernel] * k * n**3 for k, n in shapes)
        # Input matrix and eigenvalues, plus the eigenvectors for eigh.
        out_n2 = 16 if kernel == "lapack.eigh" else 0
        nbytes += sum(k * (16 * n * n + 8 * n + out_n2 * n * n) for k, n in shapes)
    m["lapack.matrices_per_call"] = (_per(total_mats, total_calls), "count")
    m["lapack.flop_est"] = (flops, "flop")
    m["lapack.bytes_est"] = (nbytes, "B")

    fn_metrics("bounds.optimize_lambda", ("calls", "busy_s", "self_s", "mean_ms"))
    verify, _ = fn_metrics("bounds.verify_all", ("calls", "busy_s", "self_s", "mean_ms"))
    certs = t.extras(verify)
    disk_certs = sum(d for d, _ in certs)
    sector_certs = sum(s for _, s in certs)
    for name, n_certs in (
        ("bounds.check_disk", disk_certs),
        ("bounds.check_sector_hypothesis", sector_certs),
    ):
        calls, _, _ = t.group(t.members({name}))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.per_cert"] = (_per(calls, n_certs), "count")

    search = t.members(set(SEARCH))
    calls, busy, self_s = t.group(search)
    trials = sum(t.extras(search & ~t.inside(search)))
    m["extremal.search.trials"] = (trials, "count")
    m["extremal.search.busy_s"] = (busy, "s")
    m["extremal.search.self_s"] = (self_s, "s")
    m["extremal.search.trial_us"] = (_per(busy, trials) * 1e6, "us")
    calls, busy, _ = t.group(t.members(set(GEN)))
    m["extremal.gen.calls"] = (calls, "count")
    m["extremal.gen.busy_s"] = (busy, "s")
    fn_metrics("linalg.operator_norm", ("calls", "busy_s", "mean_us"))
    fn_metrics("cli.cmd_compute", ("calls", "mean_ms"))
    fn_metrics("cli.cmd_verify", ("calls", "mean_ms"))

    _, io_busy, _ = t.group(t.layer("io"))
    m["io.busy_s"] = (io_busy, "s")
    for layer in LAYERS + ("lapack",):
        m[f"{layer}.self_s"] = (float(t.self_time[t.layer(layer)].sum()), "s")
    covered = float(t.dur[t.roots].sum())
    m["trace.spans"] = (len(t.spans), "count")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.unaccounted_share"] = (_per(wall_s - covered, wall_s), "ratio")
    return m
