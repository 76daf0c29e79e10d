"""Pass runner shared by every workload.

A workload is a fixed list of items generated from the seed. One *pass*
runs every item once, each followed by its own correctness check, after
clearing mflow's memo caches so that every pass starts cold, as a CLI call
does. A run repeats the pass until its time is used up; exact per-item
results and cache counters must then agree between all passes, traced or
not.
"""

from __future__ import annotations

import array
import dataclasses
import hashlib
import os
import sys
import time

import numpy as np


class BenchError(Exception):
    """The benchmark cannot run here (for example, no mflow sources)."""


class CheckFailed(Exception):
    """An item's result did not meet its acceptance tolerance."""


def load_mflow(root: str):
    """Import mflow from ``<root>/src``, refusing any installed copy."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "mflow", "__init__.py")):
        raise BenchError(f"no mflow sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import mflow
    if not os.path.abspath(mflow.__file__).startswith(src + os.sep):
        raise BenchError(f"mflow was imported from {mflow.__file__}, not {src}")
    return mflow


@dataclasses.dataclass
class Item:
    """One unit of work. ``known_defect`` names a failure documented as a
    defect of mflow today; such a failure is counted but keeps ``correct``."""

    label: str
    data: object
    known_defect: str | None = None


@dataclasses.dataclass
class PassResult:
    traced: bool
    wall_s: float
    latencies_s: list
    failed: int
    ok: list            # per item: passed its check
    details: list       # per item: failure text, "" when ok
    facts: list         # per item: exact results (dict) for cross-pass checks
    caches: dict        # lru_cache hits/misses after the pass
    counts: dict        # span counts (traced passes only)
    self_s: dict        # span self time (traced passes only)


_CACHES = {"branching.fuse": ("mflow.branching", "_fuse"),
           "gelfand_tsetlin.count_below": ("mflow.gelfand_tsetlin", "_count_below")}


def _cache(key):
    mod_name, attr = _CACHES[key]
    fn = getattr(sys.modules.get(mod_name), attr, None)
    return fn if hasattr(fn, "cache_info") else None


def clear_caches() -> None:
    for key in _CACHES:
        fn = _cache(key)
        if fn is not None:
            fn.cache_clear()


def cache_counts() -> dict:
    """Hits and misses of mflow's memo caches (0 when a cache is absent)."""
    out = {}
    for key in _CACHES:
        fn = _cache(key)
        info = fn.cache_info() if fn is not None else None
        out[f"{key}_hits"] = info.hits if info else 0
        out[f"{key}_misses"] = info.misses if info else 0
    return out


def run_pass(workload, items, tracer=None) -> PassResult:
    """Run every item once from cold caches; failures are recorded, not raised."""
    clear_caches()
    workload.begin_pass()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    latencies, ok, details, facts = array.array("d"), [], [], []
    try:
        t_pass = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            try:
                fact = workload.check(item, workload.run(item))
                passed, detail = True, ""
            except Exception as exc:  # an item failure is counted, the run goes on
                fact, passed, detail = {}, False, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            ok.append(passed)
            details.append(detail)
            facts.append(fact)
        wall = time.perf_counter() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    counts, self_s = {}, {}
    if tracer is not None:
        counts = tracer.exact_counts()
        self_s = dict(tracer.self_s)
    return PassResult(tracer is not None, wall, latencies, ok.count(False), ok, details,
                      facts, cache_counts(), counts, self_s)


@dataclasses.dataclass
class Measurement:
    """Passes of one run. Only the first untraced and first traced pass keep
    their per-item facts; every later pass is compared with them and then
    reduced to timings, so the harness's own memory does not grow with the
    number of passes."""

    passes: list
    failures: list      # (item index, detail), each distinct failure once
    problems: list      # cross-pass differences in exact results

    def select(self, traced: bool) -> list:
        return [p for p in self.passes if p.traced == traced]

    @property
    def attempted(self) -> int:
        return sum(len(p.latencies_s) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)


def differences(ref: PassResult, p: PassResult, k: int) -> list:
    """Exact results of pass k that differ from the reference pass."""
    out = []
    if p.ok != ref.ok or p.facts != ref.facts:
        out.append(f"pass {k} item results differ from pass 0")
    if p.caches != ref.caches:
        out.append(f"pass {k} cache counts {p.caches} != {ref.caches}")
    return out


MIN_ITEMS = 100     # per run, so the 90th percentile has 10 samples beyond it


def measure(workload, items, seconds: float, tracer=None):
    """Repeat passes for ``seconds``; with a tracer, untraced and traced
    passes alternate, starting untraced."""
    min_each = max(2 if tracer is not None else 3, -(-MIN_ITEMS // len(items)))
    passes, failures, problems = [], set(), []
    ref = traced_ref = None
    t0 = time.perf_counter()
    while True:
        n_traced = sum(p.traced for p in passes)
        enough = len(passes) - n_traced >= min_each and (tracer is None or n_traced >= 2)
        if enough and time.perf_counter() - t0 >= seconds:
            return Measurement(passes, sorted(failures), problems)
        use = tracer if tracer is not None and len(passes) % 2 == 1 else None
        p = run_pass(workload, items, use)
        k = len(passes)
        failures.update((i, d) for i, d in enumerate(p.details) if d)
        if ref is None:
            ref = p
        else:
            problems += differences(ref, p, k)
        if p.traced:
            if traced_ref is None:
                traced_ref = p
            elif p.counts != traced_ref.counts:
                problems.append(f"pass {k} span counts differ from the first traced pass")
        if p is not ref and p is not traced_ref:
            p.ok = p.details = p.facts = None
        passes.append(p)


def percentile(values, q: float) -> float:
    """q-th percentile, interpolated as statistics.quantiles does by default."""
    return float(np.percentile(values, q, method="weibull"))


def digest(obj) -> str:
    """Stable hash of generated inputs (arrays by dtype, shape and bytes)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"nd{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            h.update(b"{")
            for k in sorted(x):
                feed(k)
                feed(x[k])
            h.update(b"}")
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, Item):
            feed((x.label, x.data, x.known_defect))
        else:
            h.update(repr(x).encode())
            h.update(b";")

    feed(obj)
    return h.hexdigest()
