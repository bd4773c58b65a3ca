import random
import re
from fractions import Fraction

import pytest

from onlinefair import (
    BipartiteGraph,
    BudgetExceeded,
    Distribution,
    FixedOrder,
    InputError,
    Instance,
    Mechanism,
    QueryContext,
    complete_bipartite,
    complete_minus_even_cycle,
    complete_minus_perfect_matching,
    count_perfect_matchings,
    even_cycle,
    exact_utility,
    graph_from_json_dict,
    graph_to_json_dict,
    make_graph,
    make_subset_instance,
    min_maximal_matching_size,
    outcome_report,
    possible_utility,
    random_instance,
    reduction1_instance,
    reduction2_instance,
    reduction2_manip_instance,
    reduction3_instance,
    reduction3_roles,
    reduction_subset_instance,
    states_after,
    subset_sum_bc,
    validate_instance,
)

from helpers import (
    count_matchings_by_permutations,
    cube_graph,
    full_3x3,
    hexagon_cycle,
    min_maximal_by_subsets,
    pentagon_complement,
    square_cycle,
    subset_sum_by_combinations,
)

F = Fraction
SUBDIVISION_SHAPE = ("need left degrees exactly 2, right degrees <= 3, left side at "
                     "least as large as right, and distinct left neighborhoods")


def random_graph(rng, left, right, p=0.5):
    edges = [(a, b) for a in range(left) for b in range(right)
             if rng.random() < p]
    return make_graph(left, right, edges)


class TestGraphBasics:
    def test_degrees_and_neighbors(self):
        g = make_graph(2, 3, [(0, 2), (0, 0), (1, 1)])
        assert g.left_degrees() == [2, 1]
        assert g.right_degrees() == [1, 1, 1]
        assert g.left_neighbors(0) == (0, 2)

    def test_make_graph_rejects_bad_edges(self):
        with pytest.raises(InputError):
            make_graph(2, 2, [(0, 2)])
        with pytest.raises(InputError):
            make_graph(2, 2, [(0, 0), (0, 0)])
        with pytest.raises(InputError):
            make_graph(-1, 2, [])

    def test_json_round_trip(self):
        g = make_graph(3, 3, [(0, 1), (2, 0), (1, 2)])
        data = graph_to_json_dict(g)
        assert data["edges"] == [[1, 2], [2, 3], [3, 1]]
        assert graph_from_json_dict(data) == g

    def test_json_rejects_garbage(self):
        with pytest.raises(InputError):
            graph_from_json_dict({"left": 2, "edges": []})
        with pytest.raises(InputError):
            graph_from_json_dict([2, 2, []])


class TestNamedGraphs:
    def test_builders_match_explicit_edge_lists(self):
        assert even_cycle(4) == square_cycle()
        assert complete_bipartite(3, 3) == full_3x3()
        assert complete_minus_perfect_matching(4) == cube_graph()
        assert complete_minus_even_cycle(5) == pentagon_complement()

    def test_hexagons_agree_up_to_labels(self):
        # the builder and the hand-listed hexagon walk the cycle in opposite
        # directions; every label-free quantity must still match
        a, b = even_cycle(6), hexagon_cycle()
        assert (a.left, a.right) == (b.left, b.right)
        assert a.is_regular(2) and b.is_regular(2)
        assert count_perfect_matchings(a) == count_perfect_matchings(b) == 2
        assert min_maximal_matching_size(a) == min_maximal_matching_size(b)
        assert a.is_subdivision_shaped() and b.is_subdivision_shaped()

    def test_three_regular_family(self):
        for g in (full_3x3(), cube_graph(), pentagon_complement()):
            assert g.is_regular(3)
        assert not square_cycle().is_regular(3)

    def test_even_cycle_validation(self):
        with pytest.raises(InputError):
            even_cycle(5)
        with pytest.raises(InputError):
            even_cycle(2)

    def test_subdivision_shape(self):
        assert hexagon_cycle().is_subdivision_shaped()
        assert not full_3x3().is_subdivision_shaped()       # left degree 3
        assert not square_cycle().is_subdivision_shaped()   # twin neighborhoods
        lopsided = make_graph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
        assert not lopsided.is_subdivision_shaped()         # more right than left
        star = make_graph(5, 5, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 3),
                                 (3, 0), (3, 4), (4, 1), (4, 2)])
        assert not star.is_subdivision_shaped()             # right degree 4


class TestMatchingCounts:
    def test_known_values(self):
        assert count_perfect_matchings(full_3x3()) == 6
        assert count_perfect_matchings(cube_graph()) == 9
        assert count_perfect_matchings(pentagon_complement()) == 13
        assert count_perfect_matchings(square_cycle()) == 2
        assert count_perfect_matchings(hexagon_cycle()) == 2

    def test_empty_graph_has_one_empty_matching(self):
        assert count_perfect_matchings(make_graph(0, 0, [])) == 1

    def test_oracles_agree(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 5)
            g = random_graph(rng, n, n, p=rng.uniform(0.2, 0.9))
            expected = count_matchings_by_permutations(g)
            assert count_perfect_matchings(g) == expected

    def test_rejects_unequal_sides(self):
        with pytest.raises(InputError,
                           match="perfect matchings need equal sides, got 2 and 3"):
            count_perfect_matchings(make_graph(2, 3, []))


class TestMinMaximalMatching:
    def test_known_values(self):
        assert min_maximal_matching_size(hexagon_cycle()) == 2
        assert min_maximal_matching_size(square_cycle()) == 2
        assert min_maximal_matching_size(make_graph(1, 1, [(0, 0)])) == 1
        # one left vertex with two edges: either single edge is maximal
        assert min_maximal_matching_size(make_graph(1, 2, [(0, 0), (0, 1)])) == 1

    def test_matches_subset_filter(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 3), rng.randint(1, 3),
                             p=rng.uniform(0.3, 1.0))
            if not g.edges:
                continue
            assert min_maximal_matching_size(g) == min_maximal_by_subsets(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError, match="the graph has no edges"):
            min_maximal_matching_size(make_graph(2, 2, []))

    @pytest.mark.parametrize("graph, nodes", [(hexagon_cycle(), 41),
                                              (full_3x3(), 115),
                                              (pentagon_complement(), 1107)])
    def test_nodes_walked(self, graph, nodes):
        # the search takes each edge before skipping it, so a maximal
        # matching found early prunes the rest; the budget counts the nodes
        assert min_maximal_matching_size(graph, budget=nodes) >= 1
        with pytest.raises(BudgetExceeded, match=f"walked {nodes} nodes"):
            min_maximal_matching_size(graph, budget=nodes - 1)


class TestSubsetOracle:
    def test_known_values(self):
        assert subset_sum_bc(make_subset_instance((1, 2, 3), 5, 2))
        assert not subset_sum_bc(make_subset_instance((1, 2, 3), 7, 2))
        assert subset_sum_bc(make_subset_instance((2, 4, 6), 12, 3))
        assert subset_sum_bc(make_subset_instance((2, 2, 3), 4, 2))

    def test_cardinality_validation(self):
        with pytest.raises(InputError):
            make_subset_instance((1, 2), 1, 0)
        with pytest.raises(InputError):
            make_subset_instance((1, 2), 1, 3)

    def test_matches_combination_sweep(self):
        rng = random.Random(10)
        for _ in range(40):
            size = rng.randint(1, 6)
            values = [rng.randint(0, 9) for _ in range(size)]
            b = rng.randint(0, 20)
            c = rng.randint(1, size)
            inst = make_subset_instance(values, b, c)
            assert subset_sum_bc(inst) == subset_sum_by_combinations(values, b, c)


class TestReduction1:
    def test_square_cycle_value(self):
        inst = reduction1_instance(square_cycle())
        assert inst.n == 2 and inst.m == 2
        for column in range(inst.m):
            assert sum(row[column] for row in inst.arrival.matrix) == F(1)
        for mechanism in Mechanism:
            report = outcome_report(QueryContext(inst, mechanism))
            assert report.expected_utility == (F(1, 2), F(1, 2))

    def test_full_3x3_value(self):
        inst = reduction1_instance(full_3x3())
        for mechanism in Mechanism:
            report = outcome_report(QueryContext(inst, mechanism))
            assert report.expected_utility == (F(1, 3), F(1, 3))

    def test_value_tracks_matching_count(self):
        for g in (hexagon_cycle(), cube_graph()):
            m = g.left
            expected = count_perfect_matchings(g) * F(m, 2 * m ** m)
            inst = reduction1_instance(g)
            report = outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE))
            assert report.expected_utility[0] == expected

    def test_isolated_vertex_voids_all_runs(self):
        g = make_graph(2, 2, [(0, 0), (0, 1)])
        inst = reduction1_instance(g)
        ctx = QueryContext(inst, Mechanism.LIKE)
        assert exact_utility(ctx, 0) == F(0)
        assert not possible_utility(ctx, 0)

    def test_unrestricted_variant_counts_all_orderings(self):
        g = hexagon_cycle()
        inst = reduction1_instance(g, edge_restricted=False)
        report = outcome_report(QueryContext(inst, Mechanism.LIKE))
        assert report.expected_utility[0] == F(6, 27) * F(3, 2)

    def test_rejects_unequal_sides(self):
        with pytest.raises(InputError,
                           match="need equal sides, got 2 items and 3 moments"):
            reduction1_instance(make_graph(2, 3, [(0, 0)]))

    def test_rejects_empty_graph(self):
        for edge_restricted in (True, False):
            with pytest.raises(InputError, match="at least one item"):
                reduction1_instance(make_graph(0, 0, []), edge_restricted)


class TestReduction2:
    def test_full_3x3_shape(self):
        inst = reduction2_instance(full_3x3())
        assert inst.n == 10 and inst.m == 11
        assert inst.arrival == FixedOrder(tuple(range(11)))
        collector = 9
        common = 10
        # the collector likes only the solo and common items
        assert [k for k in range(11) if inst.utilities[collector][k] > 0] \
            == [9, 10]
        for agent in range(9):
            assert sum(1 for v in inst.utilities[agent] if v > 0) == 4
        for item in range(10):
            likers = sum(1 for i in range(10) if inst.utilities[i][item] > 0)
            assert likers <= 3
        assert all(inst.utilities[i][common] > 0 for i in range(10))

    def test_collector_value_on_full_3x3(self):
        inst = reduction2_instance(full_3x3())
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        assert exact_utility(ctx, 9) == F(46, 45)

    def test_balanced_history_count_on_full_3x3(self):
        # states where all ten agents hold exactly one of the first ten items
        inst = reduction2_instance(full_3x3())
        ctx = QueryContext(inst, Mechanism.BALANCED_LIKE)
        states = [s for _a, s in states_after(ctx, 10)[0]]
        balanced = [s for s in states if set(s.counts) == {1}]
        assert len(balanced) == 2 ** 3 * count_perfect_matchings(full_3x3())

    def test_rejects_non_three_regular(self):
        with pytest.raises(InputError,
                           match="the graph must be 3-regular with equal sides"):
            reduction2_instance(square_cycle())
        with pytest.raises(InputError,
                           match="the graph must be 3-regular with equal sides"):
            reduction2_instance(make_graph(2, 3, [(0, 0)]))

    def test_manip_variant_shape(self):
        inst = reduction2_manip_instance(full_3x3())
        assert inst.n == 10 and inst.m == 12
        collector = 9
        assert [k for k in range(12) if inst.utilities[collector][k] > 0] \
            == [9, 10, 11]
        # the decoy is the collector's alone
        decoy_likers = [i for i in range(10) if inst.utilities[i][10] > 0]
        assert decoy_likers == [collector]

    @pytest.mark.parametrize("graph", [full_3x3(), cube_graph(), pentagon_complement()])
    def test_manip_variant_minus_decoy_is_plain_gadget(self, graph):
        manip, plain = reduction2_manip_instance(graph), reduction2_instance(graph)
        decoy = 3 * graph.left + 1
        rows = tuple(row[:decoy] + row[decoy + 1:] for row in manip.utilities)
        assert Instance(manip.n, manip.m - 1, rows,
                        FixedOrder(tuple(range(manip.m - 1)))) == plain


class TestReduction3:
    def test_shapes_on_hexagon(self):
        for r, size in ((1, 12), (2, 11), (3, 10)):
            inst = reduction3_instance(hexagon_cycle(), r)
            assert inst.n == size and inst.m == size
            assert inst.arrival == FixedOrder(tuple(range(size)))
            validate_instance(inst)

    def test_roles_partition_everything(self):
        g = hexagon_cycle()
        for r in (1, 2, 3):
            inst = reduction3_instance(g, r)
            roles = reduction3_roles(g, r)
            agents = (list(roles["vertex_agents"]) + list(roles["filler_agents"])
                      + list(roles["claimant_agents"]) + [roles["challenger"]])
            assert sorted(agents) == list(range(inst.n))
            items = (list(roles["opener_items"]) + list(roles["bridge_items"])
                     + list(roles["closer_items"]) + list(roles["token_items"])
                     + [roles["prize_item"]])
            assert sorted(items) == list(range(inst.m))

    def test_row_structure_on_hexagon(self):
        g = hexagon_cycle()
        r = 2
        inst = reduction3_instance(g, r)
        roles = reduction3_roles(g, r)
        prize = roles["prize_item"]
        prize_likers = [i for i in range(inst.n) if inst.utilities[i][prize] > 0]
        assert prize_likers == sorted(list(roles["claimant_agents"])
                                      + [roles["challenger"]])
        challenger = roles["challenger"]
        liked = [k for k in range(inst.m) if inst.utilities[challenger][k] > 0]
        assert liked == [roles["token_items"][-1], prize]
        for agent in roles["claimant_agents"]:
            assert [k for k in range(inst.m)
                    if inst.utilities[agent][k] > 0] == [prize]
        for f in roles["filler_agents"]:
            assert [k for k in range(inst.m) if inst.utilities[f][k] > 0] \
                == list(roles["opener_items"])

    def test_challenger_prize_probability_when_reachable(self):
        g = hexagon_cycle()
        inst = reduction3_instance(g, 3)
        roles = reduction3_roles(g, 3)
        report = outcome_report(QueryContext(inst, Mechanism.BALANCED_LIKE))
        row = report.allocation_probability[roles["challenger"]]
        assert row[roles["prize_item"]] == F(1, 4)

    def test_input_validation(self):
        with pytest.raises(InputError, match=re.escape(SUBDIVISION_SHAPE)):
            reduction3_instance(full_3x3(), 1)
        with pytest.raises(InputError, match=re.escape(SUBDIVISION_SHAPE)):
            reduction3_instance(square_cycle(), 1)
        with pytest.raises(InputError, match=r"r must be within 1\.\.3"):
            reduction3_instance(hexagon_cycle(), 0)
        with pytest.raises(InputError, match=r"r must be within 1\.\.3"):
            reduction3_instance(hexagon_cycle(), 4)


class TestSubsetReduction:
    def test_threshold_values(self):
        _, threshold = reduction_subset_instance(make_subset_instance((1, 2), 3, 2))
        assert threshold == F(3, 8)
        _, threshold = reduction_subset_instance(make_subset_instance((5,), 5, 1))
        assert threshold == F(5, 2)

    def test_instance_layout(self):
        inst, _ = reduction_subset_instance(make_subset_instance((1, 2, 3), 4, 2))
        assert inst.n == 2 and inst.m == 3
        assert inst.utilities[0] == (F(1), F(2), F(3))
        assert inst.utilities[0] == inst.utilities[1]
        assert isinstance(inst.arrival, Distribution)
        for j in range(3):
            assert tuple(row[j] for row in inst.arrival.matrix) == (F(1, 3),) * 3

    def test_full_cardinality_corners_agree_with_subset_oracle(self):
        # with c equal to the set size the utility threshold and the subset
        # question decide together at the extremes
        for values, b in (((1, 2), 3), ((2, 3, 4), 9)):
            c = len(values)
            subset = make_subset_instance(values, b, c)
            inst, threshold = reduction_subset_instance(subset)
            value = exact_utility(QueryContext(inst, Mechanism.LIKE), 0)
            assert subset_sum_bc(subset) and value >= threshold
        for values, b in (((1, 2), 7), ((2, 3), 50)):
            c = len(values)
            subset = make_subset_instance(values, b, c)
            inst, threshold = reduction_subset_instance(subset)
            value = exact_utility(QueryContext(inst, Mechanism.LIKE), 0)
            assert not subset_sum_bc(subset) and value < threshold


class TestRandomInstance:
    def test_reproducible(self):
        a = random_instance(3, 4, seed=7)
        b = random_instance(3, 4, seed=7)
        assert a == b

    def test_binary_rows_have_a_positive_bid(self):
        for seed in range(10):
            inst = random_instance(4, 5, seed=seed)
            for row in inst.utilities:
                assert any(v > 0 for v in row)

    def test_distribution_arrival_validates(self):
        for seed in range(10):
            inst = random_instance(3, 3, seed=seed, arrival="distribution")
            assert isinstance(inst.arrival, Distribution)
            validate_instance(inst)

    def test_rational_values(self):
        inst = random_instance(2, 3, seed=1, values="rational")
        assert all(isinstance(v, Fraction) for row in inst.utilities for v in row)

    def test_rejects_unknown_kinds(self):
        with pytest.raises(InputError):
            random_instance(2, 2, seed=0, arrival="surprise")
        with pytest.raises(InputError):
            random_instance(2, 2, seed=0, values="surprise")
        with pytest.raises(InputError):
            random_instance(0, 2, seed=0)
