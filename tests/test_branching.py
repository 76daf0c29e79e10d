from itertools import product

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
    weighting_violations,
)
from mflow.errors import InvariantViolation, ParseError
from mflow.gelfand_tsetlin import enumerate_gt, iter_gt_patterns

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


def recursive_fusions(tree, r):
    """Operand pairs of _fuse in the order of a recursive post-order count
    rooted at leaf 1, taking each vertex's children in adjacency order."""
    adj = tree.adjacency()
    calls = []

    def vec(parent, child):
        if child in tree.leaf_labels:
            return (0,) * r[tree.leaf_labels[child] - 1] + (1,)
        first, second = (u for u in adj[child] if u != parent)
        pair = (vec(child, first), vec(child, second))
        calls.append(pair)
        return branching._fuse(*pair)

    root = tree.vertex_of_label(1)
    vec(root, adj[root][0])
    return calls


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
        assert polygon_monoid_member((1.0, 1.0, 1.0), integral=False)

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolation):
            polygon_monoid_member((1, -1, 2))

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
        assert len(t.internal_vertices()) == 2

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
                chain = [p.row(j) for j in range(1, p.n + 1)]
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
