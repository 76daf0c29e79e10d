"""Exact branching combinatorics: Clebsch-Gordan and Pieri rules, polygon and
tree semigroups, root-cone dominance, and interlacing chains.

Everything here is integer arithmetic; these monoids and counts serve as the
exact oracles for the numerical modules (tree lattice counts against
multiplicities, chains against integer patterns).
"""

from __future__ import annotations

import dataclasses
from functools import cached_property, lru_cache

from .errors import InvariantViolation, ParseError

__all__ = [
    "TreeGraph",
    "parse_newick",
    "enumerate_trivalent_trees",
    "weighting_violations",
    "cg_admissible",
    "cg_multiplicity",
    "pieri_admissible",
    "polygon_monoid_member",
    "tree_polytope_count",
    "dominance_cone_member",
    "fiber_chain_member",
]


def _edge(u, v):
    return (u, v) if u <= v else (v, u)


@dataclasses.dataclass(frozen=True)
class TreeGraph:
    """Tree with labeled leaves; internal vertices are expected trivalent.

    Leaves are the degree-1 vertices; leaf_labels maps them bijectively onto
    1..n_leaves.
    """

    n_leaves: int
    edges: tuple
    leaf_labels: dict

    def __post_init__(self):
        edges = tuple(_edge(u, v) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        verts = {v for e in edges for v in e}
        if len(edges) != len(set(edges)) or len(edges) != len(verts) - 1:
            raise InvariantViolation("edge list does not describe a tree")
        adj = self.adjacency()
        # connectivity
        if verts:
            seen = {next(iter(verts))}
            frontier = list(seen)
            while frontier:
                v = frontier.pop()
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            if seen != verts:
                raise InvariantViolation("tree is not connected")
        leaves = {v for v in verts if len(adj[v]) == 1}
        if set(self.leaf_labels) != leaves:
            raise InvariantViolation("leaf_labels must cover exactly the leaves")
        if sorted(self.leaf_labels.values()) != list(range(1, self.n_leaves + 1)):
            raise InvariantViolation("leaf labels must be a bijection onto 1..n")

    def adjacency(self) -> dict:
        adj: dict = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return adj

    def leaves(self) -> list:
        adj = self.adjacency()
        return [v for v in adj if len(adj[v]) == 1]

    def internal_vertices(self) -> list:
        adj = self.adjacency()
        return [v for v in adj if len(adj[v]) > 1]

    def is_trivalent(self) -> bool:
        # leaves have degree 1, so every other vertex must have degree 3
        return all(len(nbrs) in (1, 3) for nbrs in self.adjacency().values())

    def vertex_of_label(self, label: int):
        for v, lab in self.leaf_labels.items():
            if lab == label:
                return v
        raise InvariantViolation(f"no leaf labeled {label}")

    @cached_property
    def fusion_plan(self) -> tuple:
        """Post-order fusion steps of the tree rooted at leaf 1.

        Steps 0..n-2 are the leaves labeled 2..n; every plan entry (i, j) is
        one more step, the fusion of the earlier steps i and j, and the last
        step is the whole tree seen from leaf 1. Compiled once per tree and
        cached on the instance; a tree that is not trivalent raises
        InvariantViolation on every access.
        """
        if not self.is_trivalent():
            raise InvariantViolation("tree must be trivalent")
        adj = self.adjacency()
        root = self.vertex_of_label(1)
        plan = []
        done = []       # step indices of the finished subtrees
        # (parent, child, children pushed); an explicit stack instead of
        # recursion, so depth is limited only by memory
        stack = [(root, adj[root][0], False)]
        while stack:
            parent, child, expanded = stack.pop()
            if child in self.leaf_labels:
                done.append(self.leaf_labels[child] - 2)
            elif expanded:
                right = done.pop()
                plan.append((done.pop(), right))
                done.append(self.n_leaves - 2 + len(plan))
            else:
                first, second = (u for u in adj[child] if u != parent)
                stack += [(parent, child, True), (child, second, False),
                          (child, first, False)]
        return tuple(plan)


def _excerpt(s: str, pos: int, width: int = 40) -> str:
    """At most width characters of s around pos, quoted, with '...' where
    cut, so an error message stays short however long the input is."""
    lo = max(0, min(pos - width // 2, len(s) - width))
    hi = lo + width
    return ("..." if lo else "") + repr(s[lo:hi]) + ("..." if hi < len(s) else "")


def parse_newick(text: str) -> TreeGraph:
    """Parse a nested-parenthesis tree with integer leaf labels.

    Accepts both unrooted style "(1,2,(3,4))" and rooted-binary style
    "((1,2),(3,4))"; a degree-2 root is suppressed.
    """
    s = text.strip().rstrip(";").replace(" ", "")
    if not s:
        raise ParseError("empty tree string")
    pos = 0
    next_internal = -1
    edges = []
    labels = {}
    # Open internal vertices with the children read so far; an explicit stack
    # instead of recursion, so nesting depth is limited only by memory.
    stack = []
    while True:
        if pos < len(s) and s[pos] == "(":
            pos += 1
            stack.append((next_internal, []))
            next_internal -= 1
            continue
        start = pos
        while pos < len(s) and s[pos] in "0123456789":
            pos += 1
        if start == pos:
            raise ParseError(f"expected a leaf label at position {pos} in {_excerpt(s, pos)}")
        digits = s[start:pos].lstrip("0")
        # a valid label is at most the number of leaves, so at most len(s);
        # refusing longer digit runs also keeps int() within its digit limit
        if len(digits) > len(str(len(s))):
            raise ParseError(f"leaf label too large at position {start}")
        label = int(digits or "0")
        if label in labels:
            raise ParseError(f"duplicate leaf label {label}")
        labels[label] = label
        node = label
        # Attach the finished node to its parent and close every vertex that
        # ends here; a comma means a sibling follows.
        while stack:
            me, children = stack[-1]
            children.append(node)
            if pos < len(s) and s[pos] == ",":
                pos += 1
                break
            if pos >= len(s) or s[pos] != ")":
                raise ParseError(f"expected ')' at position {pos} in {_excerpt(s, pos)}")
            pos += 1
            stack.pop()
            edges.extend((me, c) for c in children)
            node = me
        else:
            break
    root = node
    if pos != len(s):
        raise ParseError(f"trailing characters at position {pos} in {_excerpt(s, pos)}")

    degree: dict = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if degree.get(root, 0) == 2:
        nbrs = [v if u == root else u for u, v in edges if root in (u, v)]
        edges = [e for e in edges if root not in e]
        edges.append((nbrs[0], nbrs[1]))

    n = len(labels)
    lo, hi = min(labels), max(labels)
    if lo < 1 or hi > n:
        # distinct labels in 1..n are exactly 1..n
        raise ParseError(f"leaf labels must be 1..{n}, got {lo if lo < 1 else hi}")
    return TreeGraph(n, tuple(edges), labels)


def enumerate_trivalent_trees(n: int):
    """All trivalent trees on n labeled leaves (counts 1, 3, 15, 105, ...).

    Built by inserting leaf k into every edge of every tree on k-1 leaves,
    which produces each labeled tree exactly once.
    """
    if n < 3:
        raise InvariantViolation("need at least 3 leaves")
    base = TreeGraph(3, ((1, -1), (2, -1), (3, -1)), {1: 1, 2: 2, 3: 3})
    trees = [base]
    for k in range(4, n + 1):
        grown = []
        for t in trees:
            fresh = min(v for e in t.edges for v in e) - 1
            for e in t.edges:
                edges = [x for x in t.edges if x != e]
                edges += [(e[0], fresh), (fresh, e[1]), (fresh, k)]
                labels = dict(t.leaf_labels)
                labels[k] = k
                grown.append(TreeGraph(k, tuple(edges), labels))
        trees = grown
    return trees


def cg_admissible(i: int, j: int, k: int) -> bool:
    """Parity and triangle conditions for a nonzero triple coupling."""
    if min(i, j, k) < 0:
        raise InvariantViolation("spin labels must be nonnegative")
    return (i + j + k) % 2 == 0 and abs(i - j) <= k <= i + j


# Largest leaf weight (irrep label) that tree_polytope_count and
# cg_multiplicity accept. Both are dense in the weight values: a leaf of
# weight v is a count vector of length v + 1, and the Clebsch-Gordan state a
# dict over every reachable label, so time and memory grow polynomially with
# the weights. At this bound a four-leaf count and its multiplicity take
# under a second; a 10-digit weight would need gigabytes.
MAX_WEIGHT = 1000


def cg_multiplicity(r) -> int:
    """Multiplicity of the trivial representation in the tensor product of
    rank-2 irreps with labels r, by iterated Clebsch-Gordan decomposition.
    Labels must lie in 0..MAX_WEIGHT."""
    state = {0: 1}
    for ri in r:
        ri = int(ri)
        if not 0 <= ri <= MAX_WEIGHT:
            raise InvariantViolation(f"labels must be in 0..{MAX_WEIGHT}")
        new: dict = {}
        for j, cnt in state.items():
            for jj in range(abs(j - ri), j + ri + 1, 2):
                new[jj] = new.get(jj, 0) + cnt
        state = new
    return state.get(0, 0)


def _check_weakly_decreasing(w, what="weight"):
    t = tuple(int(v) for v in w)
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise InvariantViolation(f"{what} must be weakly decreasing: {t}")
    return t


def pieri_admissible(eta, lam) -> bool:
    """Interlacing test: the restriction multiplicity is 1 when
    lam_1 >= eta_1 >= lam_2 >= ... >= eta_{n-1} >= lam_n, else 0."""
    eta = _check_weakly_decreasing(eta, "eta")
    lam = _check_weakly_decreasing(lam, "lambda")
    if len(lam) != len(eta) + 1:
        raise InvariantViolation(
            f"length mismatch: |eta| = {len(eta)}, |lambda| = {len(lam)}")
    return _interlaces(eta, lam)


def _interlaces(eta: tuple, lam: tuple) -> bool:
    """pieri_admissible of checked tuples, |lam| = |eta| + 1."""
    return all(lam[i] >= eta[i] >= lam[i + 1] for i in range(len(eta)))


def polygon_monoid_member(r, integral: bool = True) -> bool:
    """Membership of r in the polygon side-length monoid (or its real cone).

    Integral mode: nonnegative integers with even sum and every entry at most
    the sum of the others. Cone mode: real entries, triangle conditions only.
    """
    vals = list(r)
    if any(v < 0 for v in vals):
        raise InvariantViolation("entries must be nonnegative")
    total = sum(vals)
    if any(2 * v > total for v in vals):
        return False
    if not integral:
        return True
    ints = [int(v) for v in vals]
    if ints != vals:
        raise InvariantViolation("integral membership needs integer entries")
    return sum(ints) % 2 == 0


# Far above the about 1100 distinct fusions that counting 840 weight vectors
# on every 5- and 6-leaf tree needs, so a long-lived process stays bounded
# without evicting anything a sweep reuses.
_FUSE_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_FUSE_CACHE_SIZE)
def _fuse(c1: tuple, c2: tuple) -> tuple:
    """Counts of edge values above a vertex joining subtrees with counts c1, c2."""
    out = [0] * (len(c1) + len(c2) - 1)
    for w1, m1 in enumerate(c1):
        if m1:
            for w2, m2 in enumerate(c2):
                if m2:
                    for w in range(abs(w1 - w2), w1 + w2 + 1, 2):
                        out[w] += m1 * m2
    return tuple(out)


def tree_polytope_count(tree: TreeGraph, leaf_weights) -> int:
    """Number of integer edge weightings of the tree with the given leaf
    values and every vertex triple satisfying parity and triangle conditions.

    Computed by a bottom-up count of admissible subtree weightings per edge
    value, rooted at leaf 1: one pass of _fuse over the tree's fusion plan.
    Leaf weights must lie in 0..MAX_WEIGHT.
    """
    plan = tree.fusion_plan
    r = [int(v) for v in leaf_weights]
    if len(r) != tree.n_leaves:
        raise InvariantViolation(
            f"need {tree.n_leaves} leaf weights, got {len(r)}")
    if min(r) < 0 or max(r) > MAX_WEIGHT:       # a tree has at least 2 leaves
        raise InvariantViolation(f"leaf weights must be in 0..{MAX_WEIGHT}")

    steps = [(0,) * v + (1,) for v in r[1:]]
    for i, j in plan:
        steps.append(_fuse(steps[i], steps[j]))
    c = steps[-1]
    return c[r[0]] if r[0] < len(c) else 0


def weighting_violations(tree: TreeGraph, weights: dict) -> list:
    """Vertex conditions violated by a full edge weighting.

    weights maps each edge (as an unordered pair) to a nonnegative integer;
    returns the list of internal vertices whose incident triple fails parity
    or a triangle inequality.
    """
    w = {_edge(u, v): int(val) for (u, v), val in weights.items()}
    if set(w) != set(tree.edges):
        raise InvariantViolation("weighting must cover exactly the tree edges")
    if any(val < 0 for val in w.values()):
        raise InvariantViolation("edge weights must be nonnegative")
    bad = []
    for v, nbrs in tree.adjacency().items():
        if len(nbrs) == 1:
            continue
        triple = [w[_edge(v, u)] for u in nbrs]
        if len(triple) != 3 or not cg_admissible(*triple):
            bad.append(v)
    return bad


def dominance_cone_member(lam, mu) -> bool:
    """Whether mu - lam is a nonnegative combination of the simple roots
    e_i - e_{i+1}: all prefix sums of mu - lam nonnegative, total zero."""
    lam = _check_weakly_decreasing(lam, "lambda")
    mu = tuple(int(v) for v in mu)
    if len(mu) != len(lam):
        raise InvariantViolation(
            f"length mismatch: |lambda| = {len(lam)}, |mu| = {len(mu)}")
    prefix = 0
    for a, b in zip(mu, lam):
        prefix += a - b
        if prefix < 0:
            return False
    return prefix == 0


def fiber_chain_member(chain) -> bool:
    """Whether every consecutive pair of the weight chain interlaces.

    The chain must consist of weakly decreasing integer tuples whose lengths
    increase by exactly one; for a full chain of lengths 1..n this is
    membership of the corresponding integer pattern.
    """
    rows = [_check_weakly_decreasing(row, "chain row") for row in chain]
    if len(rows) < 2:
        raise InvariantViolation("chain needs at least two rows")
    for a, b in zip(rows, rows[1:]):
        if len(b) != len(a) + 1:
            raise InvariantViolation(
                f"chain lengths must increase by one: {len(a)} -> {len(b)}")
    return all(_interlaces(a, b) for a, b in zip(rows, rows[1:]))
