import pytest
from fractions import Fraction
from functools import reduce

from cluster_logcc import (
    LaurentPoly,
    TPath,
    a_n_matrix,
    coefficient_free_seed,
    crosses,
    crossing_d_vector,
    diagonals_crossing,
    enumerate_exchange_graph,
    enumerate_t_paths,
    expand_variable,
    fan,
    flip,
    from_diagonals,
    mutate,
    mutate_matrix,
    normalize_denominator,
    tpath_monomial,
    triangulation_from_json,
    triangulation_to_json,
    zigzag,
)
from cluster_logcc.pattern import per_variable
from cluster_logcc.polygon import boundary_to_one, chords
from oracles import (
    assert_valid_t_path,
    boundary_seed,
    free_path_sum,
    geometric_crossing_order,
    intersection_parameter,
    plain_flip_graph,
    rotation_b_matrix,
)


# ---- construction and crossing ----


def test_zigzag_shapes():
    assert zigzag(1).diagonal_pairs() == ((1, 3),)
    assert zigzag(2).diagonal_pairs() == ((1, 4), (2, 4))
    assert zigzag(3).diagonal_pairs() == ((1, 5), (1, 4), (2, 4))
    assert zigzag(4).diagonal_pairs() == ((1, 6), (2, 6), (2, 5), (3, 5))


def test_fan_shape():
    assert fan(3).diagonal_pairs() == ((0, 2), (0, 3), (0, 4))


def test_edge_labels():
    tri = zigzag(3)
    assert tri.size == 6 and tri.num_edges == 9
    assert tri.pair_of(4) == (0, 5)  # first boundary edge closes the cycle
    assert tri.pair_of(5) == (0, 1)
    assert tri.pair_of(9) == (4, 5)
    assert tri.label_of((4, 1)) == 2
    assert tri.pair_of(4) not in tri.diagonal_pairs() and tri.pair_of(3) in tri.diagonal_pairs()
    with pytest.raises(KeyError):
        tri.label_of((0, 3))
    with pytest.raises(IndexError):
        tri.pair_of(10)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_chords_are_the_non_boundary_pairs_in_ascending_order(n):
    size = n + 3
    got = list(chords(size))
    assert len(got) == n * (n + 3) // 2
    assert got == [
        (a, b) for a in range(size) for b in range(a + 1, size)
        if (a, b) not in zigzag(n).edges[n:]
    ]


def test_crosses():
    assert crosses((0, 2), (1, 3))
    assert crosses((1, 4), (0, 3))
    assert not crosses((0, 2), (2, 4))  # shared endpoint
    assert not crosses((0, 2), (3, 5))
    assert not crosses((1, 3), (1, 3))


def test_from_diagonals_validation():
    from_diagonals(2, [(0, 2), (0, 3)])  # fine
    with pytest.raises(ValueError):
        from_diagonals(2, [(0, 2), (1, 3)])  # crossing
    with pytest.raises(ValueError):
        from_diagonals(2, [(0, 2)])  # wrong count
    with pytest.raises(ValueError):
        from_diagonals(2, [(0, 1), (0, 3)])  # boundary pair is not a diagonal
    with pytest.raises(ValueError):
        from_diagonals(2, [(0, 2), (0, 2)])  # duplicate
    with pytest.raises(ValueError):
        from_diagonals(2, [(0, 2), (0, 9)])  # out of range


def test_triangulation_json_roundtrip():
    tri = zigzag(4)
    obj = triangulation_to_json(tri)
    assert obj == {"ngon": 7, "diagonals": [[1, 6], [2, 6], [2, 5], [3, 5]]}
    assert triangulation_from_json(obj) == tri


# ---- exchange matrices from triangulations ----


HEXAGON_B = [
    [0, -1, 0],
    [1, 0, 1],
    [0, -1, 0],
    [1, 0, 0],
    [-1, 0, 0],
    [0, 1, -1],
    [0, 0, 1],
    [0, 0, -1],
    [-1, 1, 0],
]


def test_hexagon_extended_matrix():
    assert rotation_b_matrix(zigzag(3)) == HEXAGON_B


def test_hexagon_boundary_products():
    # read off the frozen parts of each exchange: p+_1 = x4, p-_1 = x5 x9,
    # p+_2 = x6 x9, p-_2 = 1, p+_3 = x7, p-_3 = x6 x8
    B = rotation_b_matrix(zigzag(3))
    col = lambda i: {4 + j: B[3 + j][i] for j in range(6) if B[3 + j][i]}
    assert col(0) == {4: 1, 5: -1, 9: -1}
    assert col(1) == {6: 1, 9: 1}
    assert col(2) == {6: -1, 7: 1, 8: -1}


@pytest.mark.parametrize("n", range(1, 9))
def test_zigzag_matches_standard_matrix(n):
    assert boundary_seed(zigzag(n)).B == a_n_matrix(n)


def test_fan_matrix():
    assert boundary_seed(fan(3)).B == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))


# ---- flips ----


def test_flip_keeps_label_and_column_gives_exchange():
    tri = zigzag(3)
    assert flip(tri, 2).pair_of(2) == (2, 5)
    # x2 x2' = x6 x9 + x1 x3: column 2 is +1 on rows 6, 9 and -1 on rows 1, 3
    column = {lab: row[1] for lab, row in enumerate(rotation_b_matrix(tri), 1) if row[1]}
    assert column == {6: 1, 9: 1, 1: -1, 3: -1}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flip_is_involutive_and_tracks_matrix_mutation(n):
    for tri in plain_flip_graph(zigzag(n)):
        seed = boundary_seed(tri)
        for k in range(1, n + 1):
            out = flip(tri, k)
            assert flip(out, k) == tri
            assert boundary_seed(out).B == mutate_matrix(seed.B, k)
            # the boundary rows move with the flip too
            flipped, mutated = boundary_seed(out), mutate(seed, k)
            assert (flipped.B, flipped.y) == (mutated.B, mutated.y)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 14), (4, 42), (5, 132)])
def test_flip_graph_size(n, count):
    assert len(plain_flip_graph(zigzag(n))) == count


def _swept_triangulations(start, budget=None):
    """start flipped along the history of each class of its coefficient-free sweep."""
    sweep = enumerate_exchange_graph(coefficient_free_seed(boundary_seed(start).B), budget)
    return [reduce(flip, s.history, start) for s in sweep]


@pytest.mark.parametrize(
    "start",
    [build(n) for build in (zigzag, fan) for n in range(1, 7)] + plain_flip_graph(zigzag(3)),
    ids=[f"{build.__name__}{n}" for build in (zigzag, fan) for n in range(1, 7)]
    + [f"hexagon{i}" for i in range(14)],
)
def test_triangulations_read_off_the_seed_sweep_match_the_flip_search(start):
    # flipping diagonal k is mutating in direction k, so start flipped along
    # each class's history must give the same triangulations, with the same
    # labels, in the same order as a search that only flips
    got = _swept_triangulations(start)
    assert [t.edges for t in got] == [t.edges for t in plain_flip_graph(start)]


def test_flip_budget_cut_matches_the_flip_search():
    with pytest.raises(RuntimeError) as got:
        _swept_triangulations(zigzag(4), budget=10)
    with pytest.raises(RuntimeError) as want:
        plain_flip_graph(zigzag(4), budget=10)
    assert str(got.value) == str(want.value) == "exchange graph not closed within budget"


# ---- crossing order along a chord ----


def test_intersection_parameters_increase_along_chord():
    tri = zigzag(3)
    assert diagonals_crossing(tri, 0, 3) == [1, 2, 3]
    params = [intersection_parameter(tri.pair_of(k), 0, 3) for k in (1, 2, 3)]
    assert params == sorted(params)
    assert all(isinstance(t, Fraction) and 0 < t < 1 for t in params)
    # symmetric chord read from the far end reverses the order
    assert diagonals_crossing(tri, 3, 0) == [3, 2, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_label_order_matches_the_geometric_order(n):
    # the package reads the crossing order off vertex labels; the oracle
    # sorts on exact intersection points of a convex embedding
    for tri in plain_flip_graph(zigzag(n)):
        for a, b in chords(tri.size):
            for u, v in ((a, b), (b, a)):
                assert diagonals_crossing(tri, u, v) == geometric_crossing_order(tri, u, v)


# every route that reads a chord rejects it with diagonals_crossing's check
_CHORD_ROUTES = (
    diagonals_crossing,
    enumerate_t_paths,
    lambda tri, a, b: crossing_d_vector(tri, (a, b)),
)


@pytest.mark.parametrize("a,b", [(-1, 3), (3, -1), (0, 6), (0, 7), (6, 2)])
def test_crossing_order_rejects_vertices_off_the_polygon(a, b):
    # label arithmetic is modular, so -1 would otherwise read as vertex 5
    tri = zigzag(3)
    for route in _CHORD_ROUTES:
        with pytest.raises(ValueError, match=r"^vertices must lie in 0\.\.5$"):
            route(tri, a, b)


def test_crossing_order_rejects_pairs_spanning_no_diagonal():
    tri = zigzag(3)
    for a, b in ((2, 2), (2, 3), (0, 5)):
        for route in _CHORD_ROUTES:
            with pytest.raises(ValueError, match="do not span a diagonal"):
                route(tri, a, b)


def test_crossing_d_vector():
    tri = zigzag(3)
    assert crossing_d_vector(tri, (0, 3)) == (1, 1, 1)
    assert crossing_d_vector(tri, (0, 2)) == (1, 1, 0)
    assert crossing_d_vector(tri, (2, 5)) == (0, 1, 0)
    with pytest.raises(ValueError, match="belongs to the triangulation"):
        crossing_d_vector(tri, (1, 4))  # already a diagonal of the triangulation



# ---- admissible paths ----


def test_square_paths():
    tri = zigzag(1)
    paths = enumerate_t_paths(tri, 0, 2)
    assert [(p.vertices, p.edge_labels) for p in paths] == [
        ((0, 3, 1, 2), (2, 1, 4)),
        ((0, 1, 3, 2), (3, 1, 5)),
    ]
    assert boundary_to_one(tri, expand_variable(tri, 0, 2)).terms == {(-1,): 2}


HEXAGON_TABLE = [
    ((0, 1, 4, 3), (5, 2, 8), {(0, -1, 0): 1}),
    ((0, 5, 1, 4, 2, 3), (4, 1, 2, 3, 7), {(-1, 1, -1): 1}),
    ((0, 5, 1, 2, 4, 3), (4, 1, 6, 3, 8), {(-1, 0, -1): 1}),
    ((0, 1, 5, 4, 2, 3), (5, 1, 9, 3, 7), {(-1, 0, -1): 1}),
    ((0, 1, 5, 4, 1, 2, 4, 3), (5, 1, 9, 2, 6, 3, 8), {(-1, -1, -1): 1}),
]


def test_hexagon_long_chord_paths():
    tri = zigzag(3)
    paths = enumerate_t_paths(tri, 0, 3)
    got = [
        (p.vertices, p.edge_labels, dict(boundary_to_one(tri, tpath_monomial(tri, p)).terms))
        for p in paths
    ]
    assert got == HEXAGON_TABLE


def test_hexagon_long_chord_variable():
    tri = zigzag(3)
    var = boundary_to_one(tri, expand_variable(tri, 0, 3))
    assert var.terms == {(0, -1, 0): 1, (-1, 1, -1): 1, (-1, 0, -1): 2, (-1, -1, -1): 1}
    nd = normalize_denominator(var, 3)
    assert nd.d_vector == (1, 1, 1)
    assert nd.numerator.terms == {(1, 0, 1): 1, (0, 2, 0): 1, (0, 1, 0): 2, (0, 0, 0): 1}


def test_hexagon_boundary_kept_expansion():
    tri = zigzag(3)
    kept = expand_variable(tri, 0, 3)
    assert set(kept.coefficients()) == {1}  # boundary variables separate the paths
    assert len(kept.terms) == 5
    # boundary exponents are 0/1, diagonal exponents -1/0/1
    for exp in kept.terms:
        assert all(e in (0, 1) for e in exp[3:])
        assert all(e in (-1, 0, 1) for e in exp[:3])
    # the boundary edges are labels 4..9, variables 3..8
    assert boundary_to_one(tri, kept) == kept.substitute_ones(range(3, 9))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_boundary_to_one_matches_the_free_path_sum(n):
    # the coefficient-free variable is read off the boundary-kept sum; the
    # oracle sums the paths directly, skipping boundary edges
    for tri in plain_flip_graph(zigzag(n)):
        for a in range(tri.size):
            for b in range(a + 2, tri.size):
                if a == 0 and b == tri.size - 1:
                    continue
                for u, v in ((a, b), (b, a)):
                    free = free_path_sum(tri, u, v)
                    assert free and boundary_to_one(tri, expand_variable(tri, u, v)) == free


def test_diagonal_of_triangulation_expands_to_itself():
    tri = zigzag(3)
    paths = enumerate_t_paths(tri, 1, 4)
    assert [(p.vertices, p.edge_labels) for p in paths] == [((1, 4), (2,))]
    # main1 expands the diagonals like every other chord: each is its own variable
    for n in range(1, 13):
        tri = zigzag(n)
        for k in range(1, n + 1):
            a, b = tri.pair_of(k)
            assert expand_variable(tri, a, b) == LaurentPoly.variable(2 * n + 3, k - 1)
            assert expand_variable(tri, b, a) == LaurentPoly.variable(2 * n + 3, k - 1)


def test_path_validation_rejects_bad_paths():
    tri = zigzag(3)
    with pytest.raises(ValueError):
        enumerate_t_paths(tri, 0, 1)  # boundary pair, not a chord
    good = enumerate_t_paths(tri, 0, 3)[1]
    with pytest.raises(ValueError):
        assert_valid_t_path(tri, 0, 3, TPath(good.vertices[::-1], good.edge_labels[::-1]))
    with pytest.raises(ValueError):  # even length
        assert_valid_t_path(tri, 0, 3, TPath((0, 1, 4, 2, 3), (5, 2, 3, 7)))
    with pytest.raises(ValueError):  # repeated label
        assert_valid_t_path(tri, 0, 3, TPath((0, 1, 4, 1, 4, 3), (5, 2, 2, 2, 8)))
    with pytest.raises(ValueError):  # second step must cross the chord
        assert_valid_t_path(tri, 0, 3, TPath((0, 1, 2, 3), (5, 6, 7)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_emitted_paths_pass_independent_validation(n):
    for tri in plain_flip_graph(zigzag(n)):
        size = tri.size
        diag = set(tri.diagonal_pairs())
        for a in range(size):
            for b in range(a + 2, size):
                if a == 0 and b == size - 1 or (a, b) in diag:
                    continue
                paths = enumerate_t_paths(tri, a, b)
                assert paths, f"no admissible paths for chord {(a, b)}"
                for p in paths:
                    assert_valid_t_path(tri, a, b, p)
                assert paths == enumerate_t_paths(tri, a, b)  # deterministic order


# ---- expansion against mutation ----


def test_pentagon_fan_variables_match_mutation():
    tri = fan(2)
    expanded = {boundary_to_one(tri, expand_variable(tri, a, b)).key()
                for a, b in [(1, 3), (1, 4), (2, 4)]}
    expanded |= {LaurentPoly.variable(2, 0).key(), LaurentPoly.variable(2, 1).key()}
    mutated = {}
    for s in enumerate_exchange_graph(coefficient_free_seed(boundary_seed(tri).B)):
        per_variable(s, mutated, LaurentPoly.key)
    assert expanded == set(mutated.values())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_denominators_count_crossings(n):
    for tri in plain_flip_graph(zigzag(n)):
        size = tri.size
        diag = set(tri.diagonal_pairs())
        for a in range(size):
            for b in range(a + 2, size):
                if a == 0 and b == size - 1 or (a, b) in diag:
                    continue
                var = boundary_to_one(tri, expand_variable(tri, a, b))
                nd = normalize_denominator(var, n)
                assert nd.d_vector == crossing_d_vector(tri, (a, b))
