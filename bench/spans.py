"""Timing spans around mflow's public entry points, installed from outside.

The wrappers are set on each defining module (or class, for trajectory
methods) and on every loaded ``mflow`` module that imported the same object
under any name, so ``mflow.flow.adjugate`` and ``mflow.cli.run_all`` are
traced as well as ``mflow.matrices.adjugate`` and ``mflow.verify.run_all``.
``uninstall`` puts every original back. Nothing under ``src/`` is edited.

Spans are aggregated in memory: per span name the call count and the self
time (span duration minus the time of its child spans), plus parent/child
call counts, the step statistics of every returned trajectory and the bytes
of every file a ``serialize.save_*`` call wrote.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
import time

# Layer module -> traced attributes. "Class.method" entries are patched on
# the class, which every importer shares.
LAYERS = {
    "matrices": ("adjugate", "eig_hermitian", "check_hermitian",
                 "polar_decompose", "section_sqrt"),
    "flow": ("integrate_flow", "FlowTrajectory.at",
             "FlowTrajectory.momentum_drift", "FlowTrajectory.law_residuals"),
    "contraction": ("contract_closed_form", "contract_point", "same_fiber",
                    "star_action"),
    "gelfand_tsetlin": ("gt_pattern", "validate_interlacing", "enumerate_gt",
                        "weyl_dim", "poisson_bracket", "random_orbit_point"),
    "branching": ("enumerate_trivalent_trees", "tree_polytope_count",
                  "cg_multiplicity", "parse_newick"),
    "polygons": ("build_polygon", "bend", "diagonal_lengths"),
    "serialize": ("load_matrix", "save_matrix", "save_trajectory",
                  "save_pattern", "save_polygon"),
    "cli": ("main",),
    "verify": ("run_all",),
}


def span_names() -> list:
    """Every span name, '<module>.<function>', in LAYERS order."""
    return [f"{mod}.{attr.rsplit('.', 1)[-1]}"
            for mod, attrs in LAYERS.items() for attr in attrs]


class Tracer:
    """Span recorder; one instance per benchmark process."""

    def __init__(self):
        self._patches = []
        self.missing = []
        self.reset()

    def reset(self) -> None:
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.edges = collections.Counter()     # (parent span, child span)
        self.accepted_steps = 0
        self.rejected_steps = 0
        self.bytes_written = 0
        self._stack = []                        # [name, child seconds]

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        if name == "flow.integrate_flow":
            after = self._count_steps
        elif name.startswith("serialize.save_"):
            after = self._count_bytes
        else:
            after = None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                self.edges[(parent, name)] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return span

    def _count_steps(self, traj, args, kwargs) -> None:
        self.accepted_steps += traj.step_stats.accepted
        self.rejected_steps += traj.step_stats.rejected

    def _count_bytes(self, result, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self.bytes_written += os.path.getsize(path)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("spans already installed")
        self.missing = []
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == "mflow" or key.startswith("mflow."))]
        for mod_name, attrs in LAYERS.items():
            module = sys.modules.get(f"mflow.{mod_name}")
            for attr in attrs:
                name = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
                if module is None:
                    self.missing.append(name)
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    original = None if cls is None else cls.__dict__.get(meth)
                    if original is None:
                        self.missing.append(name)
                        continue
                    self._set(cls, meth, self._wrap(name, original), original)
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper, original)

    def _set(self, owner, key, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def rhs_calls(self) -> int:
        """Adjugate calls made directly by the integrator's field evaluation."""
        return self.edges[("flow.integrate_flow", "matrices.adjugate")]

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for the same inputs."""
        out = {f"{name}.calls": self.calls[name] for name in span_names()}
        out["flow.accepted_steps"] = self.accepted_steps
        out["flow.rejected_steps"] = self.rejected_steps
        out["flow.rhs_calls"] = self.rhs_calls()
        out["serialize.bytes_written"] = self.bytes_written
        return out
