import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combanal import compositions as cp
from enumeration_support import enumerate_compositions_oracle


def compositions(n):
    """The compositions of n as tuples: composition_batches joined."""
    return [c for batch in cp.composition_batches(n) for c in batch]


def height(tree):
    return 1 + max(map(height, tree.children)) if tree.children else 0


# The twenty-six compositions of the bipartite number (2, 2), frozen from
# the published list.
COMPOSITIONS_22 = {
    ((2, 2),),
    ((1, 1), (1, 1)),
    ((2, 1), (0, 1)),
    ((0, 1), (2, 1)),
    ((1, 2), (1, 0)),
    ((1, 0), (1, 2)),
    ((2, 0), (0, 2)),
    ((0, 2), (2, 0)),
    ((2, 0), (0, 1), (0, 1)),
    ((0, 1), (2, 0), (0, 1)),
    ((0, 1), (0, 1), (2, 0)),
    ((1, 1), (0, 1), (1, 0)),
    ((1, 1), (1, 0), (0, 1)),
    ((0, 1), (1, 1), (1, 0)),
    ((1, 0), (1, 1), (0, 1)),
    ((0, 1), (1, 0), (1, 1)),
    ((1, 0), (0, 1), (1, 1)),
    ((0, 2), (1, 0), (1, 0)),
    ((1, 0), (0, 2), (1, 0)),
    ((1, 0), (1, 0), (0, 2)),
    ((0, 1), (1, 0), (0, 1), (1, 0)),
    ((0, 1), (0, 1), (1, 0), (1, 0)),
    ((0, 1), (1, 0), (1, 0), (0, 1)),
    ((1, 0), (1, 0), (0, 1), (0, 1)),
    ((1, 0), (0, 1), (1, 0), (0, 1)),
    ((1, 0), (0, 1), (0, 1), (1, 0)),
}


class TestUnipartite:
    def test_eight_compositions_of_four(self):
        got = compositions(4)
        assert len(got) == 8
        assert set(got) == {
            (1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2),
            (1, 3), (3, 1), (2, 2), (4,),
        }

    def test_one(self):
        assert compositions(1) == [(1,)]

    def test_table_matches_recursive_oracle(self):
        for n in range(1, 15):
            assert compositions(n) == enumerate_compositions_oracle(n)

    def test_string_batches_join_the_oracle(self):
        for n in range(1, 15):
            lines = [line for batch in cp.composition_batches(n, " ") for line in batch]
            assert lines == [" ".join(map(str, c)) for c in enumerate_compositions_oracle(n)]

    def test_counts_are_powers_of_two(self):
        for n in range(1, 17):
            if n <= 10:
                assert len(compositions(n)) == 2 ** (n - 1)
        assert len(compositions(10)) == 512

    def test_conjugate_published_pair(self):
        assert cp.conjugate_composition((2, 1, 4)) == (1, 3, 1, 1, 1)
        assert cp.conjugate_composition((1, 3, 1, 1, 1)) == (2, 1, 4)

    def test_conjugate_single_part(self):
        assert cp.conjugate_composition((5,)) == (1, 1, 1, 1, 1)

    def test_conjugate_involution_and_part_count(self):
        for n in range(1, 9):
            for comp in compositions(n):
                conj = cp.conjugate_composition(comp)
                assert sum(conj) == n
                assert len(conj) == n - len(comp) + 1
                assert cp.conjugate_composition(conj) == comp

    def test_zigzag_published_pair(self):
        assert cp.zigzag_conjugate((3, 3, 2, 1)) == (1, 1, 2, 1, 2, 2)

    def test_zigzag_all_ones(self):
        assert cp.zigzag_conjugate((1,) * 6) == (6,)

    def test_zigzag_involution(self):
        for n in range(1, 9):
            for comp in compositions(n):
                conj = cp.zigzag_conjugate(comp)
                assert sum(conj) == n
                assert len(conj) == n - len(comp) + 1
                assert cp.zigzag_conjugate(conj) == comp

    def test_zigzag_agrees_with_circled_dots(self):
        for n in range(1, 9):
            for comp in compositions(n):
                assert cp.zigzag_conjugate(comp) == cp.conjugate_composition(comp)


class TestMultipartite:
    def test_26_compositions_of_22(self):
        got = cp.enumerate_multipartite_compositions((2, 2))
        assert len(got) == 26
        assert set(got) == COMPOSITIONS_22

    def test_single_unit(self):
        assert cp.enumerate_multipartite_compositions((1,)) == [((1,),)]

    def test_11_has_three(self):
        got = cp.enumerate_multipartite_compositions((1, 1))
        assert set(got) == {(((1, 1)),), ((1, 0), (0, 1)), ((0, 1), (1, 0))}

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            cp.enumerate_multipartite_compositions((8, 8))

    def test_gf_count_published(self):
        assert cp.bipartite_composition_count_gf(2, 2) == 26

    def test_gf_count_unit(self):
        assert cp.bipartite_composition_count_gf(1, 0) == 1

    def test_gf_matches_enumeration(self):
        for p in range(0, 5):
            for q in range(0, 5):
                if p + q == 0 or p + q > 7:
                    continue
                oracle = len(cp.enumerate_multipartite_compositions((p, q)))
                assert cp.bipartite_composition_count_gf(p, q) == oracle

    @settings(max_examples=30)
    @given(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda t: 0 < sum(t) <= 8)
    )
    def test_gf_table_matches_enumeration_on_random_shapes(self, shape):
        oracle = len(cp.enumerate_multipartite_compositions(shape))
        assert cp.bipartite_composition_count_gf(*shape) == oracle


class TestRoutes:
    def test_published_conjugate(self):
        got = cp.route_conjugate(((3, 1), (0, 1), (1, 1)))
        assert got == ((1, 0), (1, 0), (1, 0), (0, 2), (1, 0), (0, 1))

    def test_single_step_self_conjugate(self):
        assert cp.route_conjugate(((1, 0),)) == ((1, 0),)

    def test_empty_composition_is_refused(self):
        with pytest.raises(ValueError, match="parts must be nonzero non-negative pairs"):
            cp.route_conjugate(())

    def test_sums_preserved_on_22(self):
        for comp in cp.enumerate_multipartite_compositions((2, 2)):
            conj = cp.route_conjugate(comp)
            assert tuple(map(sum, zip(*conj))) == (2, 2)

    def test_route_conjugate_is_involution_on_22(self):
        for comp in cp.enumerate_multipartite_compositions((2, 2)):
            assert cp.route_conjugate(cp.route_conjugate(comp)) == comp


class TestEssentialNodes:
    def test_sum_is_total_for_22(self):
        tally = cp.count_by_essential_nodes(2, 2)
        assert sum(tally.values()) == 26

    def test_11_formula_terms(self):
        assert cp.essential_node_formula_term(1, 1, 0) == 2
        assert cp.essential_node_formula_term(1, 1, 1) == 1
        tally = cp.count_by_essential_nodes(1, 1)
        assert tally == {0: 2, 1: 1}

    def test_formula_matches_enumeration(self):
        # every (p, q) the enumeration oracle can reach
        for p in range(1, cp.MULTIPARTITE_CAP):
            for q in range(1, cp.MULTIPARTITE_CAP - p + 1):
                tally = cp.count_by_essential_nodes(p, q)
                for s in range(0, min(p, q) + 1):
                    assert tally.get(s, 0) == cp.essential_node_formula_term(p, q, s), (p, q, s)
                assert sum(tally.values()) == cp.bipartite_composition_count_gf(p, q)
                assert cp.essential_node_tally(p, q) == tally, (p, q)

    def test_closed_form_tally_is_priced_by_table_cells(self):
        assert len(cp.essential_node_tally(999, 99)) == 100
        with pytest.raises(ValueError, match="table cells"):
            cp.essential_node_tally(999, 100)
        with pytest.raises(ValueError, match="at least 1"):
            cp.essential_node_tally(0, 3)


class TestTrees:
    def test_eight_trees_of_four(self):
        trees = {cp.composition_tree(c) for c in compositions(4)}
        assert len(trees) == 8
        for t in trees:
            assert height(t) == 2
            assert t.leaf_count() == 4

    def test_minimal(self):
        t = cp.composition_tree((1,))
        assert height(t) == 2
        assert cp.tree_composition(t) == (1,)

    def test_round_trip(self):
        for p in range(1, 8):
            for comp in compositions(p):
                assert cp.tree_composition(cp.composition_tree(comp)) == comp

    def test_malformed_rejected(self):
        leaf = cp.RootedTree()
        with pytest.raises(ValueError):
            cp.tree_composition(leaf)
        with pytest.raises(ValueError):
            cp.tree_composition(cp.RootedTree((leaf,)))  # branch with no leaves
        deep = cp.RootedTree((cp.RootedTree((cp.RootedTree((leaf,)),)),))
        with pytest.raises(ValueError):
            cp.tree_composition(deep)

    def test_order_k_counts(self):
        assert cp.combinations_order_k_count(4, 2) == 8
        assert cp.combinations_order_k_count(1, 7) == 1
        assert cp.combinations_order_k_count(3, 3) == 9
        # direct gap enumeration oracle
        assert len(list(itertools.product(range(3), repeat=2))) == 9


class TestNewcomb:
    def test_two_cards(self):
        dist = cp.newcomb_distribution([1, 1])
        assert dist.by_composition == {(2,): 1, (1, 1): 1}
        assert dist.by_pack_count == {1: 1, 2: 1}

    def test_single_card(self):
        dist = cp.newcomb_distribution([1])
        assert dist.by_composition == {(1,): 1}

    def test_two_ones_one_two(self):
        dist = cp.newcomb_distribution([2, 1])
        assert dist.total() == 3

    def test_equality_counts_as_descending(self):
        assert cp.deal_packs((2, 2, 1)) == (3,)
        assert cp.deal_packs((1, 2, 2)) == (1, 2)

    def test_ascending_variant(self):
        assert cp.deal_packs((1, 2, 2), ascending=True) == (3,)
        assert cp.deal_packs((2, 1, 1), ascending=True) == (1, 2)

    def test_totals_are_multinomials(self):
        for counts in [(2, 2), (3, 1), (2, 2, 2), (4, 2), (3, 3, 2), (1, 1, 1)]:
            if sum(counts) > 8:
                continue
            dist = cp.newcomb_distribution(list(counts))
            expected = math.factorial(sum(counts))
            for c in counts:
                expected //= math.factorial(c)
            assert dist.total() == expected

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            cp.newcomb_distribution([10])
