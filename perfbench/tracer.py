"""Span tracing of gpregime's public functions, for the per-layer metrics.

A Tracer replaces each target function with a wrapper at every place a
gpregime module binds it, so calls within a module and across modules
are both caught. Each call records a span (name, start, end, parent,
operation id) in memory. Functions whose repeats are counted also get a
digest of their arguments, compared by value; the time spent hashing is
kept on the span and taken out of every per-layer time.

The span stack assumes one thread: the workload process runs with
GPREGIME_THREADS=1.
"""

import dataclasses
import functools
import hashlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

# layer (a gpregime module) -> its public functions that get spans
TARGETS = {
    "radial": ("filon_sin", "filon_cos", "radial_fourier",
               "radial_fourier_inverse"),
    "scattering": ("solve_neumann", "solve_zero_energy", "fourier_w",
                   "fourier_w_ode", "verify_lemma_scattering"),
    "gp": ("minimize_gp", "hgp_spectrum", "verify_decay", "fourier_decay"),
    "kernels": ("build_G", "build_eta_H", "build_nu_H", "eta_norms",
                "nu_norms", "hyperbolic", "build_hN"),
    "fock": ("build_A", "build_B", "build_ladder", "build_fock_space",
             "exp_generator", "verify_b_commutators", "verify_un",
             "verify_energy_identity", "verify_B_number_growth",
             "verify_A_number_growth", "sweep_d_eta"),
    "fockexact": ("verify_exact_identities",),
    "cli": ("scatter_stage", "gp_stage", "kernels_stage", "fock_stage",
            "run"),
}
LAYERS = tuple(TARGETS)

# functions whose calls are compared by value with earlier calls
REPEATS = ("radial.filon_sin", "radial.filon_cos", "radial.radial_fourier",
           "radial.radial_fourier_inverse", "scattering.solve_neumann",
           "scattering.fourier_w_ode", "fock.build_A", "fock.build_B",
           "fock.build_ladder", "fock.build_fock_space")


def _size(x):
    return int(np.size(x))


# name -> (counter, function of (bound arguments, result) -> amount)
COUNTERS = {
    # Filon work as nodes x frequencies requested; radial_fourier_inverse
    # delegates to radial_fourier and is counted there.
    "radial.filon_sin": ("radial.filon.cells",
                         lambda a, r: _size(a["f"]) * _size(a["omega"])),
    "radial.filon_cos": ("radial.filon.cells",
                         lambda a, r: _size(a["f"]) * _size(a["omega"])),
    "radial.radial_fourier": ("radial.filon.cells",
                              lambda a, r: _size(a["w"]) * _size(a["p"])),
    "kernels.build_eta_H": ("kernels.band_nodes",
                            lambda a, r: _size(r.p_nodes)),
    "kernels.build_nu_H": ("kernels.band_nodes",
                           lambda a, r: _size(r.p_nodes)),
    "gp.minimize_gp": ("gp.minimize_gp.iterations",
                       lambda a, r: int(r.iterations)),
}


def _feed(h, obj, seen):
    """Hash `obj` by value into `h`; `seen` guards shared and cyclic parts."""
    if obj is None or isinstance(obj, (bool, int, float, complex, str,
                                       bytes, np.generic)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
        return
    if id(obj) in seen:
        h.update(f"ref:{seen[id(obj)]};".encode())
        return
    seen[id(obj)] = len(seen)
    if isinstance(obj, np.ndarray):
        h.update(f"nd:{obj.dtype}:{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}:{len(obj)};".encode())
        for item in obj:
            _feed(h, item, seen)
    elif isinstance(obj, dict):
        h.update(f"dict:{len(obj)};".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key, seen)
            _feed(h, obj[key], seen)
    elif dataclasses.is_dataclass(obj):
        h.update(f"dc:{type(obj).__qualname__};".encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name), seen)
    elif callable(obj):
        h.update(f"fn:{getattr(obj, '__qualname__', repr(obj))};".encode())
    elif hasattr(obj, "__dict__"):
        h.update(f"obj:{type(obj).__qualname__};".encode())
        _feed(h, vars(obj), seen)
    else:
        h.update(f"repr:{obj!r};".encode())


def value_digest(args, kwargs):
    """Digest equal for calls whose arguments are equal by value."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, (args, kwargs), {})
    return h.digest()


@dataclasses.dataclass
class Span:
    name: str          # "<layer>.<function>"
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 at the top
    op: int
    overhead: float    # argument hashing inside [start, end]
    repeat: bool = False
    count: int = 0     # amount added to the function's COUNTERS entry


class Tracer:
    """Installs span-recording wrappers on the target functions."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._seen = set()
        self._bound = []   # (module, attribute, original)

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if (name == "gpregime" or name.startswith("gpregime."))
                and m is not None]
        for layer, names in TARGETS.items():
            home = sys.modules[f"gpregime.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bound.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound = []

    def begin_operation(self, op):
        self.op = op
        self._seen = set()

    def _wrap(self, name, fn):
        track = name in REPEATS
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            # the name keeps equal arguments to different functions apart
            key = name.encode() + value_digest(args, kwargs) if track \
                else None
            t1 = time.perf_counter()
            span = Span(name, t0, t0, self._stack[-1] if self._stack else -1,
                        self.op, t1 - t0)
            if key is not None:
                span.repeat = key in self._seen
                self._seen.add(key)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.count = counter[1](bound.arguments, result)
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh)


def self_times(spans):
    """Per span: its duration less hashing and less its children's spans."""
    own = [s.end - s.start - s.overhead for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def operation_metrics(spans, op_wall):
    """Per-layer metrics of one traced operation from its spans.

    `spans` holds this operation's spans only, with parents indexing into
    the same list; `op_wall` is the operation's traced wall time.
    """
    own = self_times(spans)
    # hashing time within each span's subtree, taken out of its total
    sub_overhead = [s.overhead for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        if spans[i].parent >= 0:
            sub_overhead[spans[i].parent] += sub_overhead[i]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        for fn_name in TARGETS[layer]:
            out[f"{layer}.{fn_name}.s"] = 0.0
            out[f"{layer}.{fn_name}.calls"] = 0
    for name in REPEATS:
        out[f"{name}.repeats"] = 0
    for counter, _ in COUNTERS.values():
        out[counter] = 0
    out["cli.artifacts.s"] = op_wall
    for i, s in enumerate(spans):
        layer = s.name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own[i]
        out[f"{s.name}.calls"] += 1
        if s.repeat:
            out[f"{s.name}.repeats"] += 1
        if s.name in COUNTERS:
            out[COUNTERS[s.name][0]] += s.count
        # a call inside a call of the same function is already in its total
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            total = s.end - s.start - sub_overhead[i]
            out[f"{s.name}.s"] += total
            if s.name == "cli.run":
                out["cli.artifacts.s"] -= s.end - s.start
    return out


def split_by_operation(spans):
    """{op: spans of that op, with parents re-indexed into the sublist}."""
    ops = {}
    index = {}
    for i, s in enumerate(spans):
        sub = ops.setdefault(s.op, [])
        index[i] = len(sub)
        sub.append(dataclasses.replace(
            s, parent=index[s.parent] if s.parent >= 0 else -1))
    return ops


def median_metrics(per_op):
    """Median of each metric over the traced operations."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
