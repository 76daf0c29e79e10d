"""The four benchmark workloads.

Each workload builds a fixed item list from the seed (mflow receives only
these generated inputs), runs one item through mflow's public entry points,
and checks the result at the README acceptance tolerances. ``check`` raises
on a wrong result and otherwise returns the item's exact facts (step counts,
exit codes, byte counts...), which must repeat bit for bit in every pass.

mflow is always reached through module attributes (``flow.integrate_flow``,
``cli.main``) so that the timing spans installed by ``spans.Tracer`` see the
calls. ``harness.load_mflow`` must run before this module is imported.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import re

import numpy as np

from harness import CheckFailed, Item
from mflow import branching, cli, contraction, flow, gelfand_tsetlin as gt


# -- input generators (numpy only, never mflow) -----------------------------

def _haar_unitary(n, rng):
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _haar_su(n, rng):
    U = _haar_unitary(n, rng)
    return U * np.linalg.det(U) ** (-1.0 / n)


def _random_sl(n, rng):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return B / np.linalg.det(B) ** (1.0 / n)


def _random_hermitian(n, rng):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (Z + Z.conj().T)


def _shuffled(items, rng):
    return [items[i] for i in rng.permutation(len(items))]


def _polygon_admissible(r) -> bool:
    """SU(2) weights with a nonzero invariant: even sum, each at most the rest."""
    total = sum(r)
    return total % 2 == 0 and 2 * max(r) <= total


def _cg_count(r) -> int:
    """Multiplicity of the trivial SU(2) irrep in the tensor product (oracle)."""
    state = {0: 1}
    for ri in r:
        new = {}
        for j, cnt in state.items():
            for jj in range(abs(j - ri), j + ri + 1, 2):
                new[jj] = new.get(jj, 0) + cnt
        state = new
    return state.get(0, 0)


def _weyl(weight) -> int:
    num = den = 1
    for i, j in itertools.combinations(range(len(weight)), 2):
        num *= weight[i] - weight[j] + j - i
        den *= j - i
    return num // den


def _traceless_momentum(M):
    H = M.conj().T @ M
    return H - np.trace(H) / M.shape[0] * np.eye(M.shape[0])


def _interlaces(upper, lower) -> bool:
    return all(upper[i] >= lower[i] >= upper[i + 1] for i in range(len(lower)))


class Workload:
    name = ""

    def build(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, items, workdir: str) -> None:
        """Materialize input files (only the CLI workload has any)."""

    def begin_pass(self) -> None:
        """Drop per-pass state so every pass starts cold."""

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> dict:
        raise NotImplementedError


# -- flow-oracle -------------------------------------------------------------

class FlowOracle(Workload):
    """One item: integrate_flow from an SL(n) start, checked against the
    closed-form contraction, the decay law and momentum conservation."""

    name = "flow-oracle"
    # (m, n, starts per pass) for random SL(n) starts. The counts put the
    # median item well inside the m = 1, n = 3 group and the 90th percentile
    # inside the n = 8 group, so neither sits on a boundary between groups
    # of different cost.
    MIX = ((1, 3, 36), (1, 4, 8), (1, 8, 6), (1, 12, 2),
           (2, 3, 2), (2, 4, 2), (3, 3, 2), (3, 4, 2))

    def build(self, seed):
        rng = np.random.default_rng([seed, 0])
        items = []
        for m, n, count in self.MIX:
            for _ in range(count):
                items.append(Item(f"m={m} n={n}", {"B0": _random_sl(n, rng), "m": m,
                                                   "simple_min": True}))
        # degenerate starts: fixed singular values (their step counts, and so
        # their cost, do not depend on the seed), random rotations
        degenerate = [
            ("eye(4)", np.eye(4, dtype=complex), False),
            ("s=(2,2,1/2,1/2)", _haar_su(4, rng) @ np.diag([2.0, 2.0, 0.5, 0.5]) @ _haar_su(4, rng),
             False),
            ("s=(3/2,3/2,4/9)", _haar_su(3, rng) @ np.diag([1.5, 1.5, 1 / 2.25]) @ _haar_su(3, rng),
             True),
        ]
        for label, B0, simple_min in degenerate:
            items.append(Item(f"m=1 degenerate {label}",
                              {"B0": B0.astype(complex), "m": 1, "simple_min": simple_min}))
        return _shuffled(items, rng)

    def run(self, item):
        return flow.integrate_flow(item.data["B0"], flow.FlowConfig(m=item.data["m"]))

    def check(self, item, traj):
        B0, m = item.data["B0"], item.data["m"]
        nb = float(np.linalg.norm(B0))
        closed = contraction.contract_closed_form(B0)
        dev = float(np.linalg.norm(traj.terminal - closed))
        if not dev < 1e-5 * nb:
            raise CheckFailed(f"terminal deviates from closed form by {dev:.2e} (|B0| = {nb:.3g})")
        law = float(np.max(np.abs(traj.law_residuals())))
        law_tol = 1e-7 if m == 1 else 1e-6
        if not law < law_tol:
            raise CheckFailed(f"decay-law residual {law:.2e} >= {law_tol:g}")
        drift = float(np.max(traj.momentum_drift()))
        if not drift < 1e-6 * nb ** 2:
            raise CheckFailed(f"momentum drift {drift:.2e} >= 1e-6 |B0|^2")
        pre_snap = float(np.linalg.norm(traj.samples[-1][1] - closed)) / nb
        return {"m": m, "simple_min": item.data["simple_min"],
                "accepted": traj.step_stats.accepted, "rejected": traj.step_stats.rejected,
                "pre_snap_dev": pre_snap}


def oracle_dev_max(facts) -> float:
    """Largest pre-snap |B_last - contract(B0)| / |B0| over m = 1 items whose
    smallest singular value is simple (0.0 when there are none)."""
    devs = [f["pre_snap_dev"] for f in facts
            if f and f.get("m") == 1 and f.get("simple_min")]
    return max(devs, default=0.0)


# -- tree-cg -----------------------------------------------------------------

class TreeCG(Workload):
    """One item: an admissible SU(2) weight vector r (entries <= 4), counted
    with tree_polytope_count on every trivalent tree with len(r) leaves and
    compared with the Clebsch-Gordan multiplicity."""

    name = "tree-cg"
    SAMPLES = ((5, 40), (6, 800))       # (leaves, weights per pass)
    TREES = {5: 15, 6: 105}             # (2n - 5)!! trivalent trees

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        items = []
        for leaves, count in self.SAMPLES:
            pool = [r for r in itertools.product(range(5), repeat=leaves)
                    if _polygon_admissible(r)]
            for k in sorted(rng.choice(len(pool), size=count, replace=False)):
                items.append(Item(f"{leaves} leaves", pool[k]))
        return _shuffled(items, rng)

    def begin_pass(self):
        self._trees = {}

    def run(self, item):
        r = item.data
        trees = self._trees.get(len(r))
        if trees is None:
            trees = self._trees[len(r)] = branching.enumerate_trivalent_trees(len(r))
        return [branching.tree_polytope_count(t, r) for t in trees]

    def check(self, item, counts):
        r = item.data
        if len(counts) != self.TREES[len(r)]:
            raise CheckFailed(f"{len(counts)} trees counted, expected {self.TREES[len(r)]}")
        expected = branching.cg_multiplicity(r)
        if expected != _cg_count(r) or expected == 0:
            raise CheckFailed(f"cg_multiplicity({r}) = {expected}, oracle {_cg_count(r)}")
        bad = [c for c in counts if c != expected]
        if bad:
            raise CheckFailed(f"{len(bad)} trees disagree with multiplicity {expected} at r = {r}")
        return {"mult": expected}


# -- gt-spectral -------------------------------------------------------------

class GTSpectral(Workload):
    """Items of four kinds: interlacing of random Hermitian patterns, Poisson
    brackets and star actions at orbit points, fiber tests on regular, zero
    and block momenta, and GT lattice counts against the Weyl dimension."""

    name = "gt-spectral"
    PATTERNS, ORBITS, FIBERS, COUNTS = 1100, 60, 60, 100
    FIBER_TOL = 1e-9

    def build(self, seed):
        rng = np.random.default_rng([seed, 2])
        items = []
        for k in range(self.PATTERNS):
            n = 2 + k % 11
            items.append(Item(f"pattern n={n}", ("pattern", _random_hermitian(n, rng))))
        for k in range(self.ORBITS):
            n = 3 + k % 2
            lam = np.sort(rng.uniform(-2.0, 2.0, size=n))[::-1]
            phases = [rng.uniform(-np.pi, np.pi, size=level) for level in range(1, n)]
            items.append(Item(f"orbit n={n}",
                              ("orbit", lam, int(rng.integers(1 << 31)), phases)))
        for k in range(self.FIBERS):
            label, x, y, expected = self._fiber_case(k % 6, rng)
            items.append(Item(f"fiber {label}", ("fiber", x, y, expected)))
        for k in range(self.COUNTS):
            n = 2 + k % 5
            top = tuple(sorted((int(v) for v in rng.integers(0, 6, size=n)), reverse=True))
            items.append(Item(f"count n={n}", ("count", top)))
        return _shuffled(items, rng)

    def _fiber_case(self, kind, rng):
        if kind < 2:                                    # regular momentum
            v = np.diag([3.0, 2.0, 1.0]).astype(complex)
            k = _haar_unitary(3, rng)
            if kind == 0:
                return "regular/equal", (k, v), (k.copy(), v.copy()), True
            th = rng.uniform(0.2, 1.0)
            phase = np.diag(np.exp(1j * np.array([th, -th, 0.0])))
            return "regular/torus", (k, v), (k @ phase, v), False
        if kind < 4:                                    # zero momentum
            z = np.zeros((3, 3), dtype=complex)
            k = _haar_unitary(3, rng)
            u = _haar_unitary(3, rng)
            if kind == 2:
                return "zero/su", (k, z), (k @ (u * np.linalg.det(u) ** (-1 / 3)), z), True
            return "zero/u", (k, z), (k @ u, z), bool(abs(np.linalg.det(u) - 1.0) <= self.FIBER_TOL)
        h0 = _haar_unitary(4, rng)                      # block momentum
        vb = h0.conj().T @ np.diag([2.0, 2.0, -1.0, -1.0]) @ h0
        vb = 0.5 * (vb + vb.conj().T)
        kb = _haar_unitary(4, rng)
        blocks = np.zeros((4, 4), dtype=complex)
        blocks[:2, :2] = _haar_su(2, rng)
        blocks[2:, 2:] = _haar_su(2, rng)
        u_good = h0.conj().T @ blocks @ h0
        if kind == 4:
            return "block/su", (kb, vb), (kb @ u_good, vb), True
        bad = h0.conj().T @ np.diag(np.exp(1j * np.array([0.3, 0.0, 0.0, 0.0]))) @ h0
        return "block/phase", (kb, vb), (kb @ u_good @ bad, vb), False

    def run(self, item):
        kind = item.data[0]
        if kind == "pattern":
            P = gt.gt_pattern(item.data[1])
            tol = 1e-8 * (1.0 + max(abs(v) for v in P.rows[0]))
            return P, gt.validate_interlacing(P, tol)
        if kind == "orbit":
            _, lam, seed, phases = item.data
            A = gt.random_orbit_point(lam, seed)
            n = lam.size
            momenta = [gt.OrbitFunction.gt_entry(i, j) for j in range(1, n) for i in range(1, j + 1)]
            brackets = [gt.poisson_bracket(f, g, A) for f, g in itertools.combinations(momenta, 2)]
            base = gt.gt_pattern(A)
            moved = [gt.gt_pattern(contraction.star_action(A, level, phases[level - 1]))
                     for level in range(1, n)]
            return brackets, base, moved
        if kind == "fiber":
            _, (kx, vx), (ky, vy), _ = item.data
            x = contraction.CotangentPoint(kx, vx)
            y = contraction.CotangentPoint(ky, vy)
            tol = self.FIBER_TOL
            return (contraction.same_fiber(x, y, tol),
                    contraction.contracted_equal(contraction.contract_point(x),
                                                 contraction.contract_point(y), tol))
        top = item.data[1]
        return gt.enumerate_gt(top), gt.weyl_dim(top)

    def check(self, item, result):
        kind = item.data[0]
        if kind == "pattern":
            P, violations = result
            n = item.data[1].shape[0]
            if P.n != n or violations:
                raise CheckFailed(f"n = {n}: {len(violations)} interlacing violations")
            return {"rows": hash(P.rows)}
        if kind == "orbit":
            brackets, base, moved = result
            worst = max(abs(v) for v in brackets)
            if not worst < 1e-8:
                raise CheckFailed(f"Poisson bracket {worst:.2e} >= 1e-8")
            for out in moved:
                for r0, r1 in zip(base.rows, out.rows):
                    dev = float(np.max(np.abs(np.array(r0) - np.array(r1))))
                    if not dev < 1e-7:
                        raise CheckFailed(f"star action moved the pattern by {dev:.2e}")
            return {"brackets": len(brackets), "rows": hash(base.rows)}
        if kind == "fiber":
            expected = item.data[3]
            if tuple(result) != (expected, expected):
                raise CheckFailed(f"same_fiber/normal form = {result}, expected {expected}")
            return {"fiber": expected}
        count, dim = result
        top = item.data[1]
        if not count == dim == _weyl(top):
            raise CheckFailed(f"enumerate_gt{top} = {count}, weyl_dim = {dim}")
        return {"count": count}


# -- cli-session -------------------------------------------------------------

_WORK = "@"     # argv prefix for paths inside the run's work directory


def _matrix_json(M) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"n": int(M.shape[0]),
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in M]}


def _csv(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _random_newick(leaves, rng) -> str:
    nodes = [str(k) for k in range(1, leaves + 1)]
    while len(nodes) > 2:
        i, j = sorted(rng.choice(len(nodes), size=2, replace=False))
        merged = f"({nodes[i]},{nodes[j]})"
        nodes = [v for k, v in enumerate(nodes) if k not in (i, j)] + [merged]
    return f"({nodes[0]},{nodes[1]})"


def _random_polygon(n, rng):
    E = rng.standard_normal((n - 1, 3))
    E = np.vstack([E, -E.sum(axis=0)])
    r = np.linalg.norm(E, axis=1)
    d = np.array([np.linalg.norm(E[:k].sum(axis=0)) for k in range(2, n - 1)])
    return r, d


class CLISession(Workload):
    """A closed loop with one client: each item is one in-process
    ``mflow.cli.main(argv)`` call with captured output. An item fails when
    its exit code differs from the documented one or an exception escapes."""

    name = "cli-session"
    # (m, n, --samples) of the flow requests
    FLOWS = ((1, 2, None), (1, 4, 16), (1, 6, None), (2, 3, None), (2, 5, 16),
             (3, 3, 16), (3, 4, None))
    DEEP_NEWICK = 2000

    def build(self, seed):
        rng = np.random.default_rng([seed, 3])
        items = []

        def item(label, argv, kind, expect=(0,), known_defect=None, files=None, **extra):
            items.append(Item(label, {"argv": argv, "kind": kind, "expect": expect,
                                      "files": files or {}, **extra}, known_defect))

        for k, (m, n, samples) in enumerate(self.FLOWS):
            B0 = _random_sl(n, rng)
            argv = ["flow", "--in", f"{_WORK}in/flow{k}.json", "--m", str(m),
                    "--out", f"{_WORK}out/flow{k}.csv"]
            if samples:
                argv += ["--samples", str(samples)]
            item(f"flow m={m} n={n} samples={samples}", argv, "flow",
                 files={f"in/flow{k}.json": _matrix_json(B0)},
                 B0=B0, m=m, samples=samples, out=f"out/flow{k}.csv")
        for k, n in enumerate((3, 5)):
            B = _random_sl(n, rng) * rng.uniform(0.5, 2.0)
            argv = ["contract", "--in", f"{_WORK}in/contract{k}.json"]
            if k == 0:
                argv += ["--out", f"{_WORK}out/contract{k}.json"]
            item(f"contract n={n}", argv, "contract", files={f"in/contract{k}.json": _matrix_json(B)},
                 B=B, out=f"out/contract{k}.json" if k == 0 else None)
        for k, n in enumerate((4, 7)):
            A = _random_hermitian(n, rng)
            item(f"gt-pattern n={n}",
                 ["gt-pattern", "--in", f"{_WORK}in/herm{k}.json", "--out", f"{_WORK}out/pattern{k}.json"],
                 "gt-pattern", files={f"in/herm{k}.json": _matrix_json(A)},
                 A=A, out=f"out/pattern{k}.json")
        for n in (3, 4, 5):
            top = sorted((int(v) for v in rng.integers(0, 5, size=n)), reverse=True)
            item(f"gt-count n={n}", ["gt-count", "--weight", ",".join(map(str, top))],
                 "gt-count", top=tuple(top))
        r = [int(v) for v in rng.integers(0, 4, size=4)]
        r[-1] += sum(r) % 2
        item("branch cg", ["branch", "--cg", ",".join(map(str, r))], "branch-cg", r=tuple(r))
        lam = sorted((int(v) for v in rng.integers(0, 6, size=4)), reverse=True)
        eta = [int(rng.integers(lam[i + 1], lam[i] + 1)) for i in range(3)]
        item("branch pieri", ["branch", "--pieri", f"{_csv(eta)}:{_csv(lam)}"], "branch-pieri",
             eta=tuple(eta), lam=tuple(lam))
        mu = list(lam)
        mu[0], mu[-1] = mu[0] + 1, mu[-1] - 1
        item("branch dominance", ["branch", "--dominance", f"{_csv(lam)}:{_csv(mu)}"],
             "branch-dominance", lam=tuple(lam), mu=tuple(mu))
        chain = [lam, eta]
        while len(chain[-1]) > 1:
            up = chain[-1]
            chain.append([int(rng.integers(up[i + 1], up[i] + 1)) for i in range(len(up) - 1)])
        chain.reverse()
        item("branch chain", ["branch", "--chain", ":".join(_csv(row) for row in chain)],
             "branch-chain", chain=tuple(map(tuple, chain)))
        for leaves in (5, 6):
            pool = [w for w in itertools.product(range(4), repeat=leaves) if _polygon_admissible(w)]
            w = pool[int(rng.integers(len(pool)))]
            item(f"tree-count {leaves} leaves",
                 ["tree-count", "--tree", _random_newick(leaves, rng), "--r", _csv(w)],
                 "tree-count", r=tuple(w))
        for k, n in enumerate((6, 8)):
            sides, diags = _random_polygon(n, rng)
            angles = rng.uniform(-np.pi, np.pi, size=n - 3)
            bends = [{"diagonal": list(range(1, j + 1)), "theta": float(rng.uniform(-np.pi, np.pi))}
                     for j in (2, n - 2)]
            scenario = {"r": sides.tolist(), "d": diags.tolist(),
                        "angles": angles.tolist(), "bends": bends}
            item(f"polygon n={n}", ["polygon", "--scenario", f"{_WORK}in/scenario{k}.json",
                                    "--out", f"{_WORK}out/polygon{k}.json"],
                 "polygon", files={f"in/scenario{k}.json": scenario},
                 r=sides, d=diags, out=f"out/polygon{k}.json")
        item("verify", ["verify", "--seed", str(int(rng.integers(1 << 30)))], "verify")
        # hostile inputs: each must be refused with its documented exit code
        nan = _matrix_json(_random_sl(3, rng))
        nan["entries"][1][2][0] = float("nan")
        item("hostile NaN entry", ["flow", "--in", f"{_WORK}in/nan.json", "--out", f"{_WORK}out/nan.csv"],
             "hostile", expect=(1,), files={"in/nan.json": nan})
        item("hostile malformed JSON", ["contract", "--in", f"{_WORK}in/malformed.json"],
             "hostile", expect=(2,),
             files={"in/malformed.json": '{"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]'})
        item("hostile infeasible triangle", ["polygon", "--r", "1,1,1,1", "--d", "5", "--angles", "0"],
             "hostile", expect=(1,))
        deep = "(" * self.DEEP_NEWICK + "1,2" + ")" * self.DEEP_NEWICK
        # a clean refusal is exit 1 (not a trivalent tree) or 2 (parse error)
        item(f"hostile {self.DEEP_NEWICK}-deep Newick", ["tree-count", "--tree", deep, "--r", "1,1"],
             "hostile", expect=(1, 2),
             known_defect="parse_newick recurses, so RecursionError escapes cli.main")
        return items

    def prepare(self, items, workdir):
        self.workdir = workdir
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
        for item in items:
            for rel, content in item.data["files"].items():
                with open(os.path.join(workdir, rel), "w") as fh:
                    fh.write(content if isinstance(content, str) else json.dumps(content))

    def _path(self, rel):
        return os.path.join(self.workdir, rel)

    def run(self, item):
        argv = [self._path(a[1:]) if a.startswith(_WORK) else a for a in item.data["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse refusals exit 2
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return code, out.getvalue(), err.getvalue()

    def check(self, item, result):
        code, stdout, stderr = result
        d = item.data
        if code not in d["expect"]:
            raise CheckFailed(f"exit {code}, expected {d['expect']}: {stderr.strip()[:200]}")
        facts = {"exit": code}
        kind = d["kind"]
        if kind == "hostile":
            return facts
        lines = stdout.splitlines()
        if kind == "flow":
            facts.update(self._check_flow(d, lines))
        elif kind == "contract":
            if d["out"]:
                with open(self._path(d["out"])) as fh:
                    obj = json.load(fh)
            else:
                obj = json.loads(stdout)
            C = np.array([[complex(re_, im_) for re_, im_ in row] for row in obj["entries"]])
            B = d["B"]
            drift = float(np.max(np.abs(_traceless_momentum(B) - _traceless_momentum(C))))
            smin = float(np.linalg.svd(C, compute_uv=False)[-1])
            if not (drift < 1e-9 * max(1.0, np.linalg.norm(B) ** 2) and smin < 1e-9 * np.linalg.norm(B)):
                raise CheckFailed(f"contraction drift {drift:.2e}, smallest singular value {smin:.2e}")
        elif kind == "gt-pattern":
            with open(self._path(d["out"])) as fh:
                rows = json.load(fh)["rows"]
            A = d["A"]
            n = A.shape[0]
            scale = 1.0 + float(np.max(np.abs(A)))
            spectrum = np.linalg.eigvalsh(A)[::-1]
            if [len(row) for row in rows] != list(range(n, 0, -1)):
                raise CheckFailed("pattern rows are not triangular")
            if np.max(np.abs(np.array(rows[0]) - spectrum)) > 1e-9 * scale:
                raise CheckFailed("top row is not the spectrum")
            tol = 1e-8 * scale
            for up, low in zip(rows, rows[1:]):
                if not all(up[i] + tol >= low[i] >= up[i + 1] - tol for i in range(len(low))):
                    raise CheckFailed("pattern rows do not interlace")
        elif kind == "gt-count":
            expected = _weyl(d["top"])
            if lines != [str(expected), f"weyl={expected} MATCH"]:
                raise CheckFailed(f"output {lines}, expected count {expected}")
        elif kind == "branch-cg":
            m = _cg_count(d["r"])
            if not lines or not lines[-1].endswith(f"multiplicity={m}"):
                raise CheckFailed(f"output {lines}, expected multiplicity {m}")
        elif kind == "branch-pieri":
            want = f"admissible={'true' if _interlaces(d['lam'], d['eta']) else 'false'}"
            if lines != [want]:
                raise CheckFailed(f"output {lines}, expected {want}")
        elif kind == "branch-dominance":
            diff = np.cumsum(np.array(d["mu"]) - np.array(d["lam"]))
            member = bool(np.all(diff >= 0) and diff[-1] == 0)
            if lines != [f"member={'true' if member else 'false'}"]:
                raise CheckFailed(f"output {lines}, expected member={member}")
        elif kind == "branch-chain":
            rows = d["chain"]
            member = all(_interlaces(b, a) for a, b in zip(rows, rows[1:]))
            if lines != [f"member={'true' if member else 'false'}"]:
                raise CheckFailed(f"output {lines}, expected member={member}")
        elif kind == "tree-count":
            m = _cg_count(d["r"])
            if lines != [str(m), f"cg={m} MATCH"]:
                raise CheckFailed(f"output {lines}, expected {m}")
        elif kind == "polygon":
            sides = np.array([float(v) for v in lines[0].split()[1:]])
            diags = np.array([float(v) for v in lines[1].split()[1:]])
            if np.max(np.abs(sides - d["r"])) >= 1e-9 or np.max(np.abs(diags - d["d"])) >= 1e-9:
                raise CheckFailed("bending changed a side or fan diagonal length")
            with open(self._path(d["out"])) as fh:
                edges = np.array(json.load(fh)["edges"])
            if np.linalg.norm(edges.sum(axis=0)) > 1e-9 * np.max(np.linalg.norm(edges, axis=1)):
                raise CheckFailed("written polygon does not close")
        elif kind == "verify":
            if not lines or any(not line.startswith("PASS ") for line in lines):
                raise CheckFailed(f"verify reported {[l for l in lines if not l.startswith('PASS ')]}")
            facts["checks"] = len(lines)
        if d.get("out"):
            facts["bytes"] = os.path.getsize(self._path(d["out"]))
        return facts

    def _check_flow(self, d, lines):
        match = re.match(r"steps accepted=(\d+) rejected=(\d+)", lines[0] if lines else "")
        if not match:
            raise CheckFailed(f"no step summary in {lines}")
        accepted, rejected = int(match.group(1)), int(match.group(2))
        with open(self._path(d["out"]), newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        B0, m, samples = d["B0"], d["m"], d["samples"]
        n = B0.shape[0]
        nb = float(np.linalg.norm(B0))

        def matrix(row):
            flat = np.array(row[1:1 + 2 * n * n])
            return (flat[0::2] + 1j * flat[1::2]).reshape(n, n)

        want_rows = (samples if samples else accepted + 1) + 1
        if len(rows) != want_rows:
            raise CheckFailed(f"{len(rows)} CSV rows, expected {want_rows}")
        if rows[0][0] != 0.0 or not np.array_equal(matrix(rows[0]), B0):
            raise CheckFailed("first CSV row is not the start")
        dev = float(np.linalg.norm(matrix(rows[-1]) - contraction.contract_closed_form(B0)))
        if not dev < 1e-5 * nb:
            raise CheckFailed(f"terminal row deviates from closed form by {dev:.2e}")
        drift = max(row[-1] for row in rows)
        if not drift < 1e-6 * nb ** 2:
            raise CheckFailed(f"momentum drift {drift:.2e} >= 1e-6 |B0|^2")
        if not samples:
            d0 = float(np.linalg.det(B0).real)
            law_tol = 1e-7 if m == 1 else 1e-6
            law = max(abs(row[-3] - max(d0 ** (1.0 / m) - row[0], 0.0) ** m) for row in rows[:-1])
            if not law < law_tol:
                raise CheckFailed(f"decay-law residual {law:.2e} >= {law_tol:g}")
        return {"accepted": accepted, "rejected": rejected}


WORKLOADS = {w.name: w for w in (FlowOracle, TreeCG, GTSpectral, CLISession)}
