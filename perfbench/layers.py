"""Per-layer tracing for the benchmark's traced runs.

Each probed function is replaced by a wrapper at every module attribute
that is bound to it, so calls through re-exports (``lenslat.gamma_table``,
``from .lattice import gamma_table`` in ``spectra`` and ``cli``, the
census script's ``from lenslat import ...``) are caught as well as calls
inside the defining module.  A wrapper records a span: its duration
goes to the caller's child time, and duration minus child time is the
span's self time, credited to the probe's layer.  Counts are taken from
the arguments and return values at the same boundary.

A layer's self time also includes loading its module once in the
worker (``LoadTimer``), so a layer that does no work in a workload
still reads its small load cost rather than nothing, and work moved
into import shows in the layer that moved it.

Nothing here edits the library: wrappers are installed on the loaded
modules for a traced job and removed afterwards.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import sys
import time
from dataclasses import dataclass, field
from inspect import signature
from statistics import median
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One function of one layer, located by module name and attribute."""

    layer: str
    module: str
    name: str
    # "span" wrappers time the call; "count" wrappers only count it, for
    # helpers called so often that a span would swamp their own cost
    kind: str = "span"


CENSUS_MODULE = "isospectral_search"

PROBES = (
    Probe("lattice", "lenslat.lattice", "gamma"),
    Probe("lattice", "lenslat.lattice", "gamma_table"),
    Probe("spectra", "lenslat.spectra", "n_lattice_formula"),
    Probe("spectra", "lenslat.spectra", "multiplicity"),
    Probe("spectra", "lenslat.spectra", "spectrum"),
    Probe("spectra", "lenslat.spectra", "compare_spectra"),
    Probe("spectra", "lenslat.spectra", "parity_report"),
    Probe("oracle", "lenslat.oracle", "enumerate_omega"),
    Probe("oracle", "lenslat.oracle", "n_lattice_bruteforce"),
    Probe("oracle", "lenslat.oracle", "classify_partition"),
    Probe("oracle", "lenslat.oracle", "fiber_census"),
    Probe("oracle", "lenslat.oracle", "enumerate_c"),
    Probe("oracle", "lenslat.oracle", "gamma_bruteforce"),
    Probe("cli", "lenslat.cli", "main"),
    Probe("cli", "lenslat.cli", "verify_grid"),
    Probe("cli.canonical", "lenslat.cli", "canonical_q_tuples"),
    Probe("cli.canonical", "lenslat.cli", "_canonical_form", kind="count"),
    Probe("census", CENSUS_MODULE, "main"),
)

LAYERS = ("lattice", "spectra", "oracle", "cli", "cli.canonical", "census")

# module whose load counts for a layer; any other lenslat module (the
# package itself, or one added later) counts for cli, which owns the import
MODULE_LAYERS = {
    "lenslat.lattice": "lattice",
    "lenslat.spectra": "spectra",
    "lenslat.oracle": "oracle",
    CENSUS_MODULE: "census",
}


class LoadTimer(importlib.abc.MetaPathFinder):
    """Self seconds of executing each lenslat module on its first import.

    Installed at the front of ``sys.meta_path`` while ``lenslat.cli`` is
    imported; nested lenslat modules are subtracted from the module that
    imported them, as spans are.
    """

    def __init__(self):
        self.layer_s = dict.fromkeys(LAYERS, 0.0)
        self._stack: list[list[float]] = []

    def find_spec(self, name, path, target=None):
        if name != "lenslat" and not name.startswith("lenslat."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        run = spec.loader.exec_module
        spec.loader.exec_module = lambda module: self.timed(name, run, module)
        return spec

    def timed(self, name: str, run: Callable, *args):
        """run(*args), with its self time credited to the layer of module name."""
        children = [0.0]
        self._stack.append(children)
        start = time.perf_counter()
        try:
            return run(*args)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self.layer_s[MODULE_LAYERS.get(name, "cli")] += elapsed - children[0]


@dataclass
class JobCounts:
    """Exact counts of one traced job; they repeat for the same requests."""

    lattice_calls: int = 0
    spectra_values: int = 0
    max_mult_bits: int = 0
    oracle_candidates: int = 0
    oracle_found: int = 0
    canonical_tried: int = 0
    canonical_kept: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class JobTrace:
    """Self seconds per layer and exact counts, for one traced job."""

    self_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    counts: JobCounts = field(default_factory=JobCounts)


def _mults(result) -> list[int]:
    """Multiplicities carried by a spectra return value, by its shape."""
    if isinstance(result, int):
        return [result]
    entries = getattr(result, "entries", None)
    if entries is not None:
        return [e.mult for e in entries]
    if isinstance(result, tuple):
        return [r.mult for r in result if hasattr(r, "mult")]
    return []


class Tracer:
    """Installs and removes the probe wrappers; accumulates one JobTrace."""

    def __init__(self, probes=PROBES):
        self.job = JobTrace()
        self.absent: list[str] = []
        self._originals: list[tuple[Probe, Callable]] = []
        self._patched: list[tuple[object, str, Callable]] = []
        self._stack: list[list[float]] = []
        for probe in probes:
            module = sys.modules.get(probe.module)
            fn = getattr(module, probe.name, None) if module is not None else None
            if callable(fn):
                self._originals.append((probe, fn))
            else:
                self.absent.append(f"{probe.module}.{probe.name}")

    def install(self) -> None:
        """Wrap every module attribute bound to a probed function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(probe, fn)) for probe, fn in self._originals}
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def bindings(self) -> int:
        """Number of module attributes currently wrapped."""
        return len(self._patched)

    def take_job(self) -> JobTrace:
        job, self.job = self.job, JobTrace()
        return job

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        observe = self._observer(probe, fn)
        if probe.kind == "count":
            def counted(*args, **kwargs):
                self.job.counts.canonical_tried += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        layer = probe.layer
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.job.self_s[layer] += elapsed - children[0]
            if observe is not None:
                observe(self.job.counts, args, kwargs, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _observer(self, probe: Probe, fn: Callable):
        name = probe.name
        if name in ("gamma", "gamma_table"):
            def observe(counts, args, kwargs, result):
                counts.lattice_calls += 1
            return observe
        if probe.layer == "spectra":
            evaluates = name in ("n_lattice_formula", "multiplicity")

            def observe(counts, args, kwargs, result):
                if evaluates:
                    counts.spectra_values += 1
                if name != "n_lattice_formula":
                    for mult in _mults(result):
                        if mult.bit_length() > counts.max_mult_bits:
                            counts.max_mult_bits = mult.bit_length()
            return observe
        if name in ("enumerate_omega", "enumerate_c"):
            sig = signature(fn)
            sphere_count = getattr(sys.modules.get(probe.module), "l1_sphere_count", None)

            def observe(counts, args, kwargs, result):
                bound = sig.bind(*args, **kwargs).arguments
                space = bound["space"]
                if name == "enumerate_omega":
                    counts.oracle_candidates += sphere_count(space.m, bound["h"])
                else:
                    counts.oracle_candidates += (2 * space.p - 1) ** bound["U"].u
                counts.oracle_found += len(result)
            return observe
        if name == "canonical_q_tuples":
            def observe(counts, args, kwargs, result):
                counts.canonical_kept += len(result)
            return observe
        return None


def layer_metrics(traces: list[JobTrace], walls: list[float], load_s: dict[str, float]) -> dict:
    """Per-layer metrics from the traced jobs of one run.

    Self times are medians over jobs plus the layer's one load in the
    worker; shares are medians of per-job self time over job wall time.
    Counts come from the first job (the caller checks that every job
    repeats them).  ``oracle.candidates`` is computed from the
    enumeration arguments, not counted inside the enumeration.
    """
    def med_self(layer):
        return median(t.self_s[layer] for t in traces) + load_s[layer]

    def med_share(layer):
        return median(t.self_s[layer] / w for t, w in zip(traces, walls))

    c = traces[0].counts
    return {
        "lattice.self_s": (med_self("lattice"), "s"),
        "lattice.share": (med_share("lattice"), "ratio"),
        "lattice.calls": (c.lattice_calls, "count"),
        "spectra.self_s": (med_self("spectra"), "s"),
        "spectra.share": (med_share("spectra"), "ratio"),
        "spectra.values": (c.spectra_values, "count"),
        "spectra.max_mult_bits": (c.max_mult_bits, "bits"),
        "cli.self_s": (med_self("cli"), "s"),
        "cli.canonical_share": (med_share("cli.canonical"), "ratio"),
        "cli.canonical_tried": (c.canonical_tried, "count"),
        "cli.canonical_hit_ratio": (_ratio(c.canonical_kept, c.canonical_tried), "ratio"),
        "oracle.self_s": (med_self("oracle"), "s"),
        "oracle.share": (med_share("oracle"), "ratio"),
        "oracle.candidates": (c.oracle_candidates, "count"),
        "oracle.hit_ratio": (_ratio(c.oracle_found, c.oracle_candidates), "ratio"),
        "census.self_s": (med_self("census"), "s"),
    }


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0

