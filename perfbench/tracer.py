"""In-memory spans around the public layers of sphere_strichartz.

The wrappers are installed from outside the package: each target function
is replaced in every ``sphere_strichartz.*`` module namespace that holds it
(``norms.synthesize_by_degree`` as well as ``spectral.synthesize_by_degree``),
and methods are replaced on their class.  A wrapper records a span only while
an op is active (``Tracer.op`` is not None), so warm-up and correctness checks
run untraced through the same wrappers.

A span is ``[name, start, end, parent, op]`` with ``perf_counter`` times and
``parent`` the index of the enclosing span (-1 for a root).  Generator layers
(``iter_space_chunks``, ``iter_time_blocks``) get one span per ``next()``, so
their self time is the time spent producing items, not the consumer's time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from time import perf_counter

# (metric name, module, attribute); a dotted attribute is a method on a class
LAYERS = (
    ("grids.inverse_sht", "grids", "inverse_sht"),
    ("grids.forward_sht", "grids", "forward_sht"),
    ("grids.inverse_zonal", "grids", "inverse_zonal"),
    ("grids.forward_zonal", "grids", "forward_zonal"),
    ("harmonics.legendre_column", "harmonics", "legendre_column"),
    ("harmonics.zonal_basis_column", "harmonics", "zonal_basis_column"),
    ("norms.mixed_norm", "norms", "mixed_norm"),
    ("spectral.synthesize_by_degree", "spectral", "synthesize_by_degree"),
    ("spectral.materialize", "spectral", "SpaceTimeField.materialize"),
    ("spectral.iter_space_chunks", "spectral", "SpaceTimeField.iter_space_chunks"),
    ("spectral.iter_time_blocks", "spectral", "SpaceTimeField.iter_time_blocks"),
    ("potential.apply_phi", "potential", "apply_phi"),
    ("potential.duhamel_apply", "potential", "duhamel_apply"),
    ("potential.x_norm", "potential", "x_norm"),
    ("potential.PotentialSpec.values", "potential", "PotentialSpec.values"),
    ("experiments.strichartz_ratio", "experiments", "strichartz_ratio"),
    ("experiments.field_lp_norm", "experiments", "field_lp_norm"),
    ("experiments.estimate_strichartz_constant", "experiments",
     "estimate_strichartz_constant"),
    ("cli.run", "cli", "run"),
)
GENERATORS = {"spectral.iter_space_chunks", "spectral.iter_time_blocks"}

# Counters kept beside the spans.  time_fft.* are computed from shapes, not
# measured: one length-M inverse FFT per grid point of each free field whose
# time series are synthesized (complex128, 16 bytes per output sample).
COUNTERS = (
    "grids.legendre_tables.hits",
    "grids.legendre_tables.misses",
    "norms.time_fft.points",
    "norms.time_fft.bytes_computed",
    "potential.picard.iterations",
)


class Tracer:
    """Span collector; one per process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._cache_info = None
        self._cache_snapshot = None
        self._root = None

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int, root: str | None = "op") -> None:
        """Activate tracing for one op; `root` names an enclosing span."""
        self.op = op_id
        self._cache_snapshot = self._cache_info() if self._cache_info else None
        self._root = self._open(root) if root else None

    def end_op(self) -> None:
        if self._root is not None:
            self._close(self._root)
        if self._cache_snapshot is not None:
            now = self._cache_info()
            self.counters["grids.legendre_tables.hits"] += now.hits - self._cache_snapshot.hits
            self.counters["grids.legendre_tables.misses"] += (
                now.misses - self._cache_snapshot.misses)
        self.op = None

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if self.op is None:
                return gen
            if name == "spectral.iter_space_chunks":
                field = args[0]
                points = field.tg.M * math.prod(field.grid.shape)
                self.counters["norms.time_fft.points"] += points
                self.counters["norms.time_fft.bytes_computed"] += 16 * points
            return self._spanned(name, gen)
        return wrapper

    def _spanned(self, name: str, gen):
        while True:
            idx = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    def install(self) -> None:
        """Wrap every layer in LAYERS, in every package namespace that holds it."""
        modules = {m: importlib.import_module(f"sphere_strichartz.{m}")
                   for _, m, _ in LAYERS}
        self._cache_info = modules["grids"]._legendre_tables.cache_info
        pkg_modules = [m for k, m in sys.modules.items()
                       if k == "sphere_strichartz" or k.startswith("sphere_strichartz.")]
        for name, module, attr in LAYERS:
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            make = self._wrap_generator if name in GENERATORS else self._wrap
            wrapped = make(name, orig)
            setattr(owner, leaf, wrapped)
            if path:
                continue  # methods are found through their class
            for mod in pkg_modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)


def layer_totals(spans) -> dict:
    """{span name: [calls, self seconds]}; self time excludes direct child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        tot = out.setdefault(name, [0, 0.0])
        tot[0] += 1
        tot[1] += (end - start) - child[i]
    return out
