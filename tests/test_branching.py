from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mflow import branching
from mflow.branching import (
    TreeGraph,
    cg_admissible,
    cg_multiplicity,
    dominance_cone_member,
    enumerate_trivalent_trees,
    fiber_chain_member,
    parse_newick,
    pieri_admissible,
    polygon_monoid_member,
    tree_polytope_count,
)
from mflow.errors import InvariantViolation, ParseError
from mflow.gelfand_tsetlin import enumerate_gt, iter_gt_patterns, weyl_dim

# Reproducible property tests: the same examples on every run, and no
# example database written next to the tests.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


def caterpillar_newick(n):
    """((((1,2),3),4)...,n): a trivalent tree of depth n - 2."""
    return "(" * (n - 1) + "1,2)" + "".join(f",{k})" for k in range(3, n + 1))


def brute_force_tree_count(tree, r):
    """Independent oracle: enumerate all internal-edge values directly."""
    leaf_edge_value = {}
    internal_edges = []
    adj = tree.adjacency()
    for e in tree.edges:
        leaf_ends = [v for v in e if len(adj[v]) == 1]
        if leaf_ends:
            vals = {r[tree.leaf_labels[v] - 1] for v in leaf_ends}
            if len(vals) > 1:
                return 0
            leaf_edge_value[e] = vals.pop()
        else:
            internal_edges.append(e)
    bound = sum(r)
    count = 0
    for combo in product(range(bound + 1), repeat=len(internal_edges)):
        w = dict(leaf_edge_value)
        w.update(dict(zip(internal_edges, combo)))
        if not weighting_violations(tree, w):
            count += 1
    return count


def weighting_violations(tree, weights):
    """The internal vertices of the tree whose incident triple of edge
    weights fails parity or a triangle inequality; weights maps each edge
    (an unordered pair) to a nonnegative int."""
    w = {tuple(sorted(e)): val for e, val in weights.items()}
    assert set(w) == set(tree.edges)
    bad = []
    for v, nbrs in tree.adjacency().items():
        if len(nbrs) == 1:
            continue
        triple = [w[tuple(sorted((v, u)))] for u in nbrs]
        if len(triple) != 3 or not cg_admissible(*triple):
            bad.append(v)
    return bad


def recursive_fusions(tree, r):
    """Operand pairs of _fuse in the order of a recursive post-order count
    rooted at leaf 1, taking each vertex's children in adjacency order.
    A leaf enters as its weight: the int that encodes its unit count vector."""
    adj = tree.adjacency()
    calls = []

    def vec(parent, child):
        if child in tree.leaf_labels:
            return r[tree.leaf_labels[child] - 1]
        first, second = (u for u in adj[child] if u != parent)
        pair = (vec(child, first), vec(child, second))
        calls.append(pair)
        return branching._fuse(*pair)

    root = tree.vertex_of_label(1)
    vec(root, adj[root][0])
    return calls


def as_tuple(c):
    """A count vector in the tuple form: the int v is (0,)*v + (1,)."""
    return (0,) * c + (1,) if isinstance(c, int) else c


def fuse_by_definition(c1, c2):
    """Counts of the values w admissible with w1 and w2 (parity and triangle
    conditions), summed over every pair of values of c1 and c2."""
    out = [0] * (len(c1) + len(c2) - 1)
    for w1, w2 in product(range(len(c1)), range(len(c2))):
        for w in range(len(out)):
            if cg_admissible(w1, w2, w):
                out[w] += c1[w1] * c2[w2]
    return tuple(out)


@st.composite
def count_vectors(draw):
    """A count vector in its one encoding: the int v for the unit vector at
    v, else a tuple of nonnegative counts with a nonzero last entry."""
    c = tuple(draw(st.lists(st.integers(0, 3), max_size=6))) + (draw(st.integers(1, 3)),)
    return len(c) - 1 if sum(c) == 1 else c


@st.composite
def trivalent_trees(draw, max_leaves=7):
    """Random trivalent tree on 2..max_leaves leaves with shuffled labels
    and edge order."""
    n = draw(st.integers(2, max_leaves))
    if n == 2:
        edges = [(1, 2)]
    else:
        edges = [(1, -1), (2, -1), (3, -1)]
        for k in range(4, n + 1):
            u, v = edges.pop(draw(st.integers(0, len(edges) - 1)))
            edges += [(u, -k), (-k, v), (-k, k)]
    edges = draw(st.permutations(edges))
    labels = draw(st.permutations(range(1, n + 1)))
    return TreeGraph(n, tuple(edges), {v: labels[v - 1] for v in range(1, n + 1)})


class TestClebschGordan:
    def test_admissible_examples(self):
        assert cg_admissible(1, 1, 2)
        assert not cg_admissible(1, 1, 1)  # odd sum
        assert cg_admissible(0, 0, 0)
        assert not cg_admissible(4, 1, 1)  # triangle fails

    def test_multiplicity_by_hand(self):
        assert cg_multiplicity((1, 1)) == 1
        assert cg_multiplicity((1, 1, 1, 1)) == 2
        assert cg_multiplicity((2, 2, 2)) == 1
        assert cg_multiplicity(()) == 1
        assert cg_multiplicity((1,)) == 0

    def test_triple_multiplicity_equals_admissibility(self):
        for i, j, k in product(range(5), repeat=3):
            assert cg_multiplicity((i, j, k)) == int(cg_admissible(i, j, k))

    def test_weights_bounded(self):
        top = branching.MAX_WEIGHT
        t = parse_newick("(1,2,3)")
        assert cg_multiplicity((top, top, 2)) == 1
        assert tree_polytope_count(t, (top, top, 2)) == 1
        for r in [(top + 1, top + 1, 2), (2, 1, -1), (1, 1, 1234567890)]:
            with pytest.raises(InvariantViolation):
                cg_multiplicity(r)
            with pytest.raises(InvariantViolation):
                tree_polytope_count(t, r)


class TestPieri:
    def test_examples(self):
        assert pieri_admissible((3, 1), (3, 2, 1))
        assert not pieri_admissible((3, 3), (3, 2, 1))
        assert pieri_admissible((3, 2), (3, 2, 1))  # degenerate interlacing

    def test_length_mismatch(self):
        with pytest.raises(InvariantViolation):
            pieri_admissible((3, 1), (3, 2, 1, 0))


class TestPolygonMonoid:
    def test_examples(self):
        assert polygon_monoid_member((1, 1, 1, 1))
        assert not polygon_monoid_member((4, 1, 1, 1))
        assert not polygon_monoid_member((1, 1, 1))            # odd sum

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolation):
            polygon_monoid_member((1, -1, 2))

    @pytest.mark.parametrize("r", [(4.5, 1, 1), (1.5, 1.5, 1)])
    def test_non_integer_rejected(self, r):
        # refused whether or not the entries pass the triangle test
        with pytest.raises(InvariantViolation, match="integer entries"):
            polygon_monoid_member(r)

    def test_closed_under_addition(self):
        members = [r for r in product(range(4), repeat=4)
                   if polygon_monoid_member(r)]
        for a in members[::7]:
            for b in members[::11]:
                s = tuple(x + y for x, y in zip(a, b))
                assert polygon_monoid_member(s)


class TestTrees:
    def test_parse_unrooted(self):
        t = parse_newick("(1,2,(3,4))")
        assert t.n_leaves == 4
        assert t.is_trivalent()
        assert len(t.edges) == 5

    def test_parse_rooted_binary_suppresses_root(self):
        t = parse_newick("((1,2),(3,4));")
        assert t.n_leaves == 4
        assert t.is_trivalent()
        assert len(t.edges) == 5

    def test_parse_errors(self):
        long_label = "(1,2," + "9" * 5000 + ")"          # past int()'s digit limit
        gap = "(" + ",".join(map(str, range(2, 3001))) + ")"   # 1 missing
        for bad in ["", "((1,2)", "(1,2,(3,4)))", "(1,1,2)", "(1,2,x)", "(1,2,\u00b2)",
                    "(0,1,2)", long_label, gap]:
            with pytest.raises(ParseError) as err:
                parse_newick(bad)
            assert len(str(err.value)) < 200

    @PROPERTY
    @given(st.text(alphabet="()0123456789,; \t-x\u00b2", max_size=60))
    @example("(" * 3000 + "1,2" + ")" * 3001)
    def test_parse_fuzz_raises_only_documented_errors(self, text):
        try:
            tree = parse_newick(text)
        except (ParseError, InvariantViolation):
            return
        assert isinstance(tree, TreeGraph)
        assert sorted(tree.leaf_labels.values()) == list(range(1, tree.n_leaves + 1))

    @pytest.mark.parametrize("depth", [2000, 100000])
    def test_deep_nesting_refused_cleanly(self, depth):
        # a unary chain leaves an unlabeled degree-1 root: not a valid tree
        with pytest.raises(InvariantViolation):
            parse_newick("(" * depth + "1,2" + ")" * depth)
        with pytest.raises(ParseError):
            parse_newick("(" * depth + "1,2" + ")" * (depth - 1))
        with pytest.raises(ParseError):
            parse_newick("(" * depth + "1,2" + ")" * (depth + 1))

    def test_deep_binary_caterpillar_parses(self):
        # deep but well-formed: (((1,2),3),4)... with 3000 leaves
        n = 3000
        text = "(1,2)"
        for leaf in range(3, n + 1):
            text = f"({text},{leaf})"
        t = parse_newick(text)
        assert t.n_leaves == n
        assert t.is_trivalent()
        assert len(t.edges) == 2 * n - 3

    def test_enumerate_counts(self):
        assert len(enumerate_trivalent_trees(3)) == 1
        assert len(enumerate_trivalent_trees(4)) == 3
        assert len(enumerate_trivalent_trees(5)) == 15
        assert len(enumerate_trivalent_trees(6)) == 105

    def test_enumerate_order_is_the_insertion_order(self):
        # the construction that made a TreeGraph of every smaller tree too
        def one_graph_per_level(n):
            trees = [TreeGraph(3, ((1, -1), (2, -1), (3, -1)), {1: 1, 2: 2, 3: 3})]
            for k in range(4, n + 1):
                grown = []
                for t in trees:
                    fresh = min(v for e in t.edges for v in e) - 1
                    for e in t.edges:
                        edges = [x for x in t.edges if x != e]
                        edges += [(e[0], fresh), (fresh, e[1]), (fresh, k)]
                        grown.append(TreeGraph(k, tuple(edges), {**t.leaf_labels, k: k}))
                trees = grown
            return trees

        for n in range(3, 9):
            got = [(t.n_leaves, t.edges, list(t.leaf_labels.items()))
                   for t in enumerate_trivalent_trees(n)]
            assert got == [(t.n_leaves, t.edges, list(t.leaf_labels.items()))
                           for t in one_graph_per_level(n)]

    def test_enumerate_reads_the_leaf_count_as_an_integer(self):
        assert len(enumerate_trivalent_trees(6.0)) == len(enumerate_trivalent_trees(np.int64(6))) == 105
        for bad in [3.5, float("nan"), float("inf"), "7", None]:
            with pytest.raises(InvariantViolation, match="integer entries"):
                enumerate_trivalent_trees(bad)
        for few in [2, 0, -5]:
            with pytest.raises(InvariantViolation, match="at least 3"):
                enumerate_trivalent_trees(few)

    def test_enumerate_refuses_more_than_max_tree_count(self, monkeypatch):
        # (2n - 5)!! trees: 9 leaves give 135 135, 10 leaves 2 027 025
        for n in [10, 12, 10**9]:
            with pytest.raises(InvariantViolation, match="more than 1000000 trees"):
                enumerate_trivalent_trees(n)
        monkeypatch.setattr(branching, "MAX_TREE_COUNT", 105)
        assert len(enumerate_trivalent_trees(6)) == 105
        with pytest.raises(InvariantViolation, match="more than 105 trees"):
            enumerate_trivalent_trees(7)

    def test_non_trivalent_rejected(self):
        star = TreeGraph(4, ((1, 0), (2, 0), (3, 0), (4, 0)),
                         {1: 1, 2: 2, 3: 3, 4: 4})
        for tree, r in [(star, (1, 1, 1, 1)),
                        (parse_newick("(1,2,(3,4,5))"), (1, 1, 1, 1, 2))]:
            for _ in range(3):     # a failed compile is not cached as a plan
                with pytest.raises(InvariantViolation):
                    tree_polytope_count(tree, r)
            assert "fusion_plan" not in vars(tree)


class TestTreePolytopeCount:
    def test_four_leaf_example(self):
        t = parse_newick("((1,2),(3,4))")
        # internal edge can be 0 or 2
        assert tree_polytope_count(t, (1, 1, 1, 1)) == 2

    def test_zero_weights(self):
        for t in enumerate_trivalent_trees(5):
            assert tree_polytope_count(t, (0, 0, 0, 0, 0)) == 1

    def test_five_leaf_example(self):
        t = parse_newick("(1,2,(3,4,5))")
        # tree has a degree-3 internal pair; caterpillar variant below
        t2 = parse_newick("((1,2),(3,(4,5)))")
        r = (1, 1, 1, 1, 2)
        assert tree_polytope_count(t2, r) == 3
        assert cg_multiplicity(r) == 3
        with pytest.raises(InvariantViolation):
            tree_polytope_count(t, r)  # degree-4 vertex is rejected

    def test_against_brute_force(self):
        rs = [(1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2), (3, 1, 2, 0)]
        for t in enumerate_trivalent_trees(4):
            for r in rs:
                assert tree_polytope_count(t, r) == brute_force_tree_count(t, r)

    def test_tree_independence_and_cg_identity(self):
        for r in [(1, 1, 1, 1, 2), (2, 2, 1, 1, 0), (3, 2, 2, 1, 2)]:
            counts = {tree_polytope_count(t, r)
                      for t in enumerate_trivalent_trees(5)}
            assert counts == {cg_multiplicity(r)}

    def test_two_and_three_leaf_degenerate_trees(self):
        t3 = parse_newick("(1,2,3)")
        assert tree_polytope_count(t3, (1, 1, 2)) == 1
        assert tree_polytope_count(t3, (1, 1, 1)) == 0
        t2 = parse_newick("(1,2)")
        assert t2.edges == ((1, 2),) and t2.fusion_plan == ()
        assert tree_polytope_count(t2, (3, 3)) == 1
        assert tree_polytope_count(t2, (3, 1)) == 0
        assert tree_polytope_count(t2, (0, 0)) == 1

    def test_plan_reused_across_weights(self):
        shared = enumerate_trivalent_trees(5)
        rs = [(1, 1, 1, 1, 2), (2, 2, 1, 1, 0), (0, 0, 0, 0, 0), (3, 2, 2, 1, 2)]
        for r in rs + rs[::-1]:
            fresh = enumerate_trivalent_trees(5)
            got = [tree_polytope_count(t, r) for t in shared]
            assert got == [tree_polytope_count(t, r) for t in fresh]
            assert set(got) == {cg_multiplicity(r)}
        assert all(t.fusion_plan is t.fusion_plan for t in shared)

    def test_fusions_match_recursive_order(self, monkeypatch):
        # same _fuse operands in the same order, so cache counts are unchanged
        calls = []
        fuse = branching._fuse

        def recording(c1, c2):
            calls.append((c1, c2))
            return fuse(c1, c2)

        trees = enumerate_trivalent_trees(6) + [parse_newick("((1,(2,3)),((4,5),6))")]
        r = (2, 1, 3, 2, 1, 3)
        expected = [recursive_fusions(t, r) for t in trees]
        monkeypatch.setattr(branching, "_fuse", recording)
        for t, want in zip(trees, expected):
            calls.clear()
            tree_polytope_count(t, r)
            assert calls == want

    def test_sweep_cache_counts_pinned(self):
        # per sweep: every tree on the given leaf counts and every admissible
        # weight with entries <= top, from a cleared cache. The hits and
        # misses are those of the tuple encoding, so the leaf encoding renames
        # the cache keys without changing them, and reading the weights
        # changes neither.
        sweeps = [((4, 5, 6), 2, (156_153, 114, 105_828)),
                  ((5,), 3, (21_735, 180, 17_580))]
        for leaves, top, pinned in sweeps:
            branching._fuse.cache_clear()
            total = 0
            for n in leaves:
                trees = enumerate_trivalent_trees(n)
                for r in product(range(top + 1), repeat=n):
                    if polygon_monoid_member(r):
                        total += sum(tree_polytope_count(t, r) for t in trees)
            info = branching._fuse.cache_info()
            assert (info.hits, info.misses, total) == pinned, leaves

    @PROPERTY
    @given(count_vectors(), count_vectors())
    @example(0, 0)
    @example(0, (1, 0, 1))
    @example(2, 2)
    def test_fuse_encodes_unit_vectors_as_ints(self, c1, c2):
        got = branching._fuse(c1, c2)
        want = fuse_by_definition(as_tuple(c1), as_tuple(c2))
        assert as_tuple(got) == want
        assert isinstance(got, int) == (sum(want) == 1)
        # an int operand v acts as the tuple (0,)*v + (1,); the uncached
        # body is called so that no tuple-form unit vector enters the cache
        assert branching._fuse.__wrapped__(as_tuple(c1), as_tuple(c2)) == got

    def test_deep_caterpillar_counts(self):
        # depth 1498: far past the interpreter's recursion limit
        n = 1500
        t = parse_newick(caterpillar_newick(n))
        for value in (0, 1):
            r = (value,) * n
            assert tree_polytope_count(t, r) == cg_multiplicity(r)

    @PROPERTY
    @given(trivalent_trees(), st.data())
    def test_random_trees_match_multiplicity(self, tree, data):
        r = data.draw(st.lists(st.integers(0, 3), min_size=tree.n_leaves,
                               max_size=tree.n_leaves))
        count = tree_polytope_count(tree, r)
        assert count == cg_multiplicity(r)
        if (sum(r) + 1) ** max(tree.n_leaves - 3, 0) <= 2000:
            assert count == brute_force_tree_count(tree, r)

    def test_caches_are_bounded(self):
        assert branching._fuse.cache_info().maxsize is not None

    def test_weighting_violations(self):
        t = parse_newick("((1,2),(3,4))")
        internal = [e for e in t.edges
                    if all(len(t.adjacency()[v]) == 3 for v in e)]
        w = {e: 1 for e in t.edges}
        w[internal[0]] = 1  # parity fails at both ends
        assert len(weighting_violations(t, w)) == 2
        w[internal[0]] = 2
        assert weighting_violations(t, w) == []

    def test_tree_semigroup_closed_under_addition(self):
        t = parse_newick("((1,2),(3,(4,5)))")
        members = []
        rng_weights = product(range(3), repeat=len(t.edges))
        for combo in rng_weights:
            w = dict(zip(t.edges, combo))
            if not weighting_violations(t, w):
                members.append(w)
        assert len(members) > 5
        for a in members[::9]:
            for b in members[::13]:
                s = {e: a[e] + b[e] for e in t.edges}
                assert weighting_violations(t, s) == []


class TestDominanceCone:
    def test_examples(self):
        assert dominance_cone_member((1, 1, 0), (1, 1, 0))
        assert dominance_cone_member((1, 1, 0), (2, 0, 0))
        assert not dominance_cone_member((1, 0, 0), (0, 1, 0))

    def test_reflexive_transitive(self):
        weights = [w for w in product(range(4), repeat=3)
                   if w[0] >= w[1] >= w[2]]
        for lam in weights:
            assert dominance_cone_member(lam, lam)
        for a in weights:
            for b in weights:
                if sum(a) != sum(b) or not dominance_cone_member(a, b):
                    continue
                for c in weights:
                    if sum(c) == sum(b) and dominance_cone_member(b, c):
                        assert dominance_cone_member(a, c)

    def test_length_mismatch(self):
        with pytest.raises(InvariantViolation):
            dominance_cone_member((1, 0), (1, 0, 0))


class TestFiberChain:
    def test_examples(self):
        assert fiber_chain_member([(3,), (3, 2), (3, 2, 1)])
        assert not fiber_chain_member([(4,), (3, 2), (3, 2, 1)])

    def test_malformed(self):
        with pytest.raises(InvariantViolation):
            fiber_chain_member([(3,), (3, 2, 1)])
        with pytest.raises(InvariantViolation):
            fiber_chain_member([(3,)])

    def test_each_row_checked_once(self, monkeypatch):
        calls = []
        real = branching._check_weakly_decreasing

        def counted(w, what="weight"):
            calls.append(w)
            return real(w, what)

        monkeypatch.setattr(branching, "_check_weakly_decreasing", counted)
        assert fiber_chain_member([(3,), (3, 2), (3, 2, 1), (4, 2, 1, 0)])
        assert not fiber_chain_member([(4,), (3, 2), (3, 2, 1)])
        assert len(calls) == 7
        assert pieri_admissible((3, 2), (3, 2, 1))
        assert len(calls) == 9

    def test_equivalence_with_patterns(self):
        for lam in [(2, 1, 0), (3, 1), (2, 2, 1)]:
            for p in iter_gt_patterns(lam):
                chain = list(reversed(p.rows))
                assert fiber_chain_member(chain)

    def test_bijection_with_patterns_n3(self):
        lam = (2, 1, 0)
        pats = {tuple(p.rows) for p in iter_gt_patterns(lam)}
        assert len(pats) == enumerate_gt(lam)
        accepted = set()
        rng = range(0, 3)
        for r1 in product(rng, repeat=1):
            for r2 in product(rng, repeat=2):
                if r2[0] < r2[1]:
                    continue
                chain = [r1, r2, lam]
                if fiber_chain_member(chain):
                    accepted.add((lam, r2, r1))
        assert accepted == pats


_FOUR_LEAVES = parse_newick("((1,2),(3,4))")

# Each entry point with one integer input replaced by x.
_INTEGER_READERS = {
    "weyl_dim": lambda x: weyl_dim([x, 0]),
    "enumerate_gt": lambda x: enumerate_gt([x, 0]),
    "iter_gt_patterns": lambda x: list(iter_gt_patterns([x, 0])),
    "pieri_admissible": lambda x: pieri_admissible([x], [2, 1]),
    "fiber_chain_member": lambda x: fiber_chain_member([(1,), (x, 1)]),
    "cg_multiplicity": lambda x: cg_multiplicity([x, 1]),
    "cg_admissible": lambda x: cg_admissible(x, 1, 1),
    "tree_polytope_count": lambda x: tree_polytope_count(_FOUR_LEAVES, [x, 1, 1, 1]),
    "dominance_cone_member-lambda": lambda x: dominance_cone_member([x, 0], [1, 1]),
    "dominance_cone_member-mu": lambda x: dominance_cone_member([2, 0], [x, 1]),
    "polygon_monoid_member": lambda x: polygon_monoid_member([x, 1, 1]),
}


@pytest.mark.parametrize("x", [2.5, float("nan"), float("inf"), "2", None, [1]],
                         ids=["fraction", "nan", "inf", "string", "none", "list"])
@pytest.mark.parametrize("call", _INTEGER_READERS.values(), ids=_INTEGER_READERS.keys())
def test_non_integer_input_refused(call, x):
    with pytest.raises(InvariantViolation, match="integer entries"):
        call(x)


@pytest.mark.parametrize("call", _INTEGER_READERS.values(), ids=_INTEGER_READERS.keys())
def test_integral_floats_and_numpy_ints_accepted(call):
    assert call(2.0) == call(np.int64(2)) == call(2)


# A weight vector of each reader with its first entry replaced by x: the
# reading rule of branching._weights, shared by both.
_WEIGHT_READERS = {
    "cg_multiplicity": lambda x: cg_multiplicity((x, 2, 1, 1)),
    "tree_polytope_count": lambda x: tree_polytope_count(_FOUR_LEAVES, (x, 2, 1, 1)),
}


@pytest.mark.parametrize("call", _WEIGHT_READERS.values(), ids=_WEIGHT_READERS.keys())
def test_weights_equal_to_an_int_read_as_that_int(call):
    assert call(2) == 2 and call(1) == 0
    # 2 + 0j == 2 as well: a complex weight with zero imaginary part is
    # read as its real part, where the unbounded integer readers refuse it
    for two in [2.0, np.int64(2), np.float64(2.0), 2 + 0j]:
        assert call(two) == 2
    with pytest.raises(InvariantViolation, match="integer entries"):
        cg_admissible(2 + 0j, 1, 1)
    assert call(True) == call(1)
    assert branching._weights([2.0, np.int64(2), True, 2 + 0j], "w") == (2, 2, 1, 2)
    assert all(type(v) is int for v in branching._weights(np.array([3.0, 0.0]), "w"))


def test_weight_vector_may_be_any_iterable():
    for r in [(x for x in (2, 2, 1, 1)), np.array([2, 2, 1, 1]), np.array([2.0, 2.0, 1.0, 1.0])]:
        assert tree_polytope_count(_FOUR_LEAVES, r) == 2
    for r in [(x for x in (2, 2, 1, 1)), np.array([2, 2, 1, 1])]:
        assert cg_multiplicity(r) == 2
    # the fallback reads the materialized tuple, not the spent generator
    with pytest.raises(InvariantViolation, match="integer entries"):
        cg_multiplicity(x for x in (2, 2.5))


@pytest.mark.parametrize("x", [-1, branching.MAX_WEIGHT + 1, 10**30], ids=["negative", "above-max", "huge"])
@pytest.mark.parametrize("call", _WEIGHT_READERS.values(), ids=_WEIGHT_READERS.keys())
def test_weights_out_of_range_refused(call, x):
    with pytest.raises(InvariantViolation, match=r"must be in 0\.\.1000$"):
        call(x)


def test_int_weights_never_reach_the_integer_reader(monkeypatch):
    calls = []
    real = branching._integers

    def counted(values, what):
        calls.append(values)
        return real(values, what)

    monkeypatch.setattr(branching, "_integers", counted)
    for t in enumerate_trivalent_trees(5):
        assert tree_polytope_count(t, (1, 1, 1, 1, 2)) == 3
    assert cg_multiplicity((1, 1, 1, 1, 2)) == 3
    assert cg_multiplicity((branching.MAX_WEIGHT, branching.MAX_WEIGHT)) == 1
    assert len(calls) == 1          # enumerate_trivalent_trees reads n
    with pytest.raises(InvariantViolation):
        cg_multiplicity((1, 1.5))
    assert len(calls) == 2


class TestWeightMemo:
    """branching._weights keeps the last weight tuple it accepted, by
    identity, so a run of calls on one tuple reads it once; anything else
    is read on every call."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        seen = []

        class Counted(dict):
            def __getitem__(self, key):
                seen.append(key)
                return dict.__getitem__(self, key)

        monkeypatch.setattr(branching, "_WEIGHT_OF", Counted(branching._WEIGHT_OF))
        monkeypatch.setattr(branching, "_last_weights", (None, None))
        return seen

    def test_one_tuple_over_every_tree_is_read_once(self, lookups):
        r = (1, 2, 1, 2, 1, 1)
        counts = [tree_polytope_count(t, r) for t in enumerate_trivalent_trees(6)]
        assert len(counts) == 105
        assert counts == [cg_multiplicity(r)] * 105 and counts[0] > 0
        assert lookups == list(r)
        # an equal tuple that is another object is read again
        assert cg_multiplicity(tuple(list(r))) == counts[0]
        assert len(lookups) == 2 * len(r)

    @pytest.mark.parametrize("bad, message", [(1001, r"must be in 0\.\.1000$"),
                                              (2.5, "integer entries"),
                                              (float("nan"), "integer entries")],
                             ids=["above-max", "fraction", "nan"])
    def test_mutated_list_is_read_again(self, bad, message):
        r = [2, 2, 1, 1]
        for _ in range(2):
            r[0] = 2
            assert cg_multiplicity(r) == 2 and tree_polytope_count(_FOUR_LEAVES, r) == 2
            r[0] = bad
            with pytest.raises(InvariantViolation, match=message):
                cg_multiplicity(r)
            with pytest.raises(InvariantViolation, match=message):
                tree_polytope_count(_FOUR_LEAVES, r)

    @pytest.mark.parametrize("bad, message", [((2, 2, 1, 1001), r"must be in 0\.\.1000$"),
                                              ((2, 2, 1, 1.5), "integer entries")],
                             ids=["above-max", "fraction"])
    def test_refused_tuple_is_refused_on_every_call(self, bad, message):
        for _ in range(3):
            with pytest.raises(InvariantViolation, match=message):
                cg_multiplicity(bad)
            with pytest.raises(InvariantViolation, match=message):
                tree_polytope_count(_FOUR_LEAVES, bad)
            assert cg_multiplicity((2, 2, 1, 1)) == 2

    def test_memo_holds_one_entry(self, lookups):
        keys = [(k, k) for k in range(1000)]
        assert [cg_multiplicity(r) for r in keys] == [1] * 1000
        assert branching._last_weights == (keys[-1], keys[-1])
        assert branching._last_weights[0] is keys[-1]
        assert len(lookups) == 2000
        cg_multiplicity(list(keys[0]))          # a list is read, and not kept
        assert branching._last_weights[0] is keys[-1]

    def test_entries_equal_to_an_int_read_as_that_int(self, lookups):
        r = (2.0, np.int64(2), True, 2 + 0j)
        for _ in range(2):
            w = branching._weights(r, "w")
            assert w == (2, 2, 1, 2) and all(type(v) is int for v in w)
        assert len(lookups) == 4
