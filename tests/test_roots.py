"""Root systems, reflections, Weyl groups, chambers, lengths."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from rootquilt import InvariantViolation, NotRegular, RestrictedRootSystem, UnknownRoot, get_entry
from rootquilt.lattice import canonical_shift
from rootquilt.linalg import gram_pair, identity, inverse, mat_mul, mat_vec


A2_GRAM = ((F(2), F(-1)), (F(-1), F(2)))
A2_ROOTS = [
    (F(1), F(0)), (F(0), F(1)), (F(1), F(1)),
    (F(-1), F(0)), (F(0), F(-1)), (F(-1), F(-1)),
]


def make_a2(mult=1):
    return RestrictedRootSystem(A2_GRAM, A2_ROOTS, {r: mult for r in A2_ROOTS}, (F(1), F(1)))


def naive_reflect(gram, alpha, v):
    """Independent oracle: v - 2<v,alpha>/<alpha,alpha> alpha, all by hand."""
    def pair(x, y):
        return sum(x[i] * sum(gram[i][j] * y[j] for j in range(len(y))) for i in range(len(x)))

    c = F(2) * pair(v, alpha) / pair(alpha, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


def test_reflect_negates_own_root(group_a1):
    sys_ = group_a1.system
    alpha = (F(1),)
    assert sys_.reflect(alpha, alpha) == (F(-1),)


def test_reflect_fixes_wall():
    sys_ = make_a2()
    alpha = (F(1), F(0))
    # <v, alpha> = 0 for v = alpha + 2 alpha2 in these coordinates
    v = (F(1), F(2))
    assert sys_.pairing(alpha, v) == 0
    assert sys_.reflect(alpha, v) == v


def test_reflect_a2_simple_pair():
    sys_ = make_a2()
    expected = naive_reflect(A2_GRAM, (F(1), F(0)), (F(0), F(1)))
    assert expected == (F(1), F(1))
    assert sys_.reflect((F(1), F(0)), (F(0), F(1))) == expected


def test_reflect_unknown_root(group_a1):
    with pytest.raises(UnknownRoot):
        group_a1.system.reflect((F(3),), (F(1),))


def test_constructor_still_checks_closure():
    # the simple roots of A2 alone: s_(1,0) sends (0,1) to (1,1), which is missing
    roots = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]
    with pytest.raises(InvariantViolation, match=r"reflection of .* across .* leaves the system"):
        RestrictedRootSystem(A2_GRAM, roots, {r: 1 for r in roots}, (F(1), F(1)))


def test_weyl_order_a1(group_a1):
    assert group_a1.system.weyl_group().order == 2


def test_weyl_order_a2():
    W = make_a2().weyl_group()
    assert W.order == 6
    # independent check: the permutation action on the six roots is faithful
    perms = set()
    for w in W:
        perms.add(tuple(A2_ROOTS.index(w(r)) for r in A2_ROOTS))
    assert len(perms) == 6


def test_weyl_closed_under_products():
    W = make_a2().weyl_group()
    for a in W:
        for b in W:
            assert mat_mul(a.matrix, b.matrix) == oracles.multiply(W, a, b).matrix


def test_weyl_matrices_are_gram_orthogonal():
    sys_ = make_a2()
    for w in sys_.weyl_group():
        wt = tuple(zip(*w.matrix))
        assert mat_mul(wt, mat_mul(sys_.gram, w.matrix)) == sys_.gram


def test_weyl_preserves_roots_and_multiplicities(catalog):
    for entry in catalog:
        sys_ = entry.system
        for w in sys_.weyl_group():
            for r in sys_.roots:
                assert sys_.mult[w(r)] == sys_.mult[r]


def test_f4_order_with_parabolic_coset_oracle(f4_system):
    W = f4_system.weyl_group()
    assert W.order == 1152

    # Independent count: |W| = |W_P| * #(left cosets of W_P), with W_P the
    # product of the long A2 (two long simples) and the orthogonal short A2.
    long_pair = [(F(0), F(1), F(-1), F(0)), (F(0), F(0), F(1), F(-1))]
    short_pair = [
        (F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)),
        (F(1, 2), F(1, 2), F(1, 2), F(1, 2)),
    ]
    for a in long_pair:
        for b in short_pair:
            assert f4_system.pairing(a, b) == 0
    gens = [oracles.reflection_matrix(f4_system, r) for r in long_pair + short_pair]
    sub = {identity(4)}
    frontier = [identity(4)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g)
                if prod not in sub:
                    sub.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert len(sub) == 36  # |W(A2)| * |W(A2)|

    u = (F(97), F(31), F(7), F(2))
    base_orbit = frozenset(mat_vec(m, u) for m in sub)
    assert len(base_orbit) == 36
    simple_gens = [oracles.reflection_matrix(f4_system, r) for r in f4_system.simple_roots]
    cosets = {base_orbit}
    frontier = [base_orbit]
    while frontier:
        nxt = []
        for orbit in frontier:
            for g in simple_gens:
                image = frozenset(mat_vec(g, v) for v in orbit)
                if image not in cosets:
                    cosets.add(image)
                    nxt.append(image)
        frontier = nxt
    assert len(sub) * len(cosets) == 1152


def test_positive_system_a1(group_a1):
    sys_ = group_a1.system
    assert sys_.positive_system((F(1),)) == ((F(1),),)
    assert sys_.positive_system((F(-1),)) == ((F(-1),),)


def test_positive_system_a2_dominant():
    sys_ = make_a2()
    pos = set(sys_.positive_system((F(1), F(1))))
    assert pos == {(F(1), F(0)), (F(0), F(1)), (F(1), F(1))}


def test_positive_system_not_regular():
    sys_ = make_a2()
    with pytest.raises(NotRegular) as err:
        sys_.positive_system((F(1), F(-1)))  # on the wall of alpha1 + alpha2
    assert (F(1), F(1)) in err.value.walls


def test_positive_system_is_half(catalog):
    for entry in catalog:
        sys_ = entry.system
        for w in sys_.weyl_group():
            x = w(sys_.base_point)
            assert len(sys_.positive_system(x)) == len(sys_.roots) // 2


def test_chamber_of_base_and_opposite(group_a1):
    sys_ = group_a1.system
    W = sys_.weyl_group()
    assert sys_.chamber_of((F(1),)) == W.identity
    assert sys_.chamber_of((F(-1),)) == W.elements[1]


def test_chamber_of_recovers_applied_element():
    sys_ = make_a2()
    W = sys_.weyl_group()
    rho = (F(1), F(1))
    for w in W:
        assert sys_.chamber_of(w(rho)) == w


def test_chamber_of_equivariance():
    sys_ = make_a2()
    W = sys_.weyl_group()
    v = (F(3), F(1))  # regular, not dominant for every w
    for w in W:
        lhs = sys_.chamber_of(w(v))
        rhs = oracles.multiply(W, w, sys_.chamber_of(v))
        assert lhs == rhs


def test_chamber_of_not_regular():
    sys_ = make_a2()
    with pytest.raises(NotRegular):
        sys_.chamber_of((F(1), F(-1)))


@pytest.mark.parametrize("name", ["group-a2", "eiv-a2"])
def test_chamber_of_memo_matches_fresh_system(name):
    entry = get_entry(name)
    sys_ = entry.system
    shift = canonical_shift(sys_, entry.lattice, radius=F(3))
    for q in shift.window_points():
        v = tuple(x + a for x, a in zip(q, shift.a))
        first = sys_.chamber_of(v)
        hit = sys_.chamber_of(v)
        fresh = RestrictedRootSystem(sys_.gram, sys_.roots, sys_.mult, sys_.base_point)
        expected = fresh.chamber_of(v)
        assert hit is first
        assert (hit.matrix, hit.word) == (expected.matrix, expected.word)


def test_chamber_of_wall_raises_every_time():
    sys_ = make_a2()
    for _ in range(2):
        with pytest.raises(NotRegular):
            sys_.chamber_of((F(1), F(-1)))


def test_length_identity_and_simple(group_a1):
    sys_ = group_a1.system
    W = sys_.weyl_group()
    assert oracles.length(sys_, W.identity) == 0
    assert oracles.length(sys_, W.elements[1]) == 1


def test_length_a2_all_elements():
    sys_ = make_a2()
    W = sys_.weyl_group()
    length = {w: oracles.length(sys_, w) for w in W}
    assert sorted(length.values()) == [0, 1, 1, 2, 2, 3]
    assert length[W.longest] == 3
    for w in W:
        assert length[w] == len(w.word)
        assert length[w] == length[W.inverse(w)]
        assert length[oracles.multiply(W, W.longest, w)] == length[W.longest] - length[w]


def test_non_reduced_bc1_lengths():
    roots = [(F(1),), (F(-1),), (F(2),), (F(-2),)]
    sys_ = RestrictedRootSystem(
        ((F(1),),), roots, {(F(1),): 2, (F(-1),): 2, (F(2),): 1, (F(-2),): 1}, (F(1),)
    )
    W = sys_.weyl_group()
    assert W.order == 2
    assert sys_.simple_roots == ((F(1),),)
    # only the indivisible root counts toward length
    assert oracles.length(sys_, W.elements[1]) == 1


def test_invalid_systems_rejected():
    with pytest.raises(InvariantViolation):
        # missing the negative of a root
        RestrictedRootSystem(((F(2),),), [(F(1),)], {(F(1),): 1}, (F(1),))
    with pytest.raises(InvariantViolation):
        # asymmetric multiplicities
        RestrictedRootSystem(
            ((F(2),),), [(F(1),), (F(-1),)], {(F(1),): 1, (F(-1),): 2}, (F(1),)
        )
    with pytest.raises(InvariantViolation):
        # ratio three is not allowed
        roots = [(F(1),), (F(-1),), (F(3),), (F(-3),)]
        RestrictedRootSystem(((F(2),),), roots, {r: 1 for r in roots}, (F(1),))
    with pytest.raises(InvariantViolation):
        # gram not positive definite
        RestrictedRootSystem(((F(-2),),), [(F(1),), (F(-1),)], {(F(1),): 1, (F(-1),): 1}, (F(1),))
    with pytest.raises(InvariantViolation):
        # base point on a wall
        make_a2_base_on_wall()


def make_a2_base_on_wall():
    return RestrictedRootSystem(A2_GRAM, A2_ROOTS, {r: 1 for r in A2_ROOTS}, (F(1), F(-1)))


@settings(max_examples=60, deadline=None)
@given(
    vx=st.integers(min_value=-9, max_value=9),
    vy=st.integers(min_value=-9, max_value=9),
)
def test_reflection_involution_and_isometry(vx, vy):
    sys_ = make_a2()
    v = (F(vx), F(vy))
    for alpha in sys_.roots:
        image = sys_.reflect(alpha, v)
        assert sys_.reflect(alpha, image) == v
        assert sys_.norm2(image) == sys_.norm2(v)
        assert image == naive_reflect(A2_GRAM, alpha, v)


def test_weyl_budget_cap(f4_system):
    from rootquilt import BudgetExceeded

    fresh = RestrictedRootSystem(
        f4_system.gram, f4_system.roots, f4_system.mult, f4_system.base_point
    )
    with pytest.raises(BudgetExceeded):
        fresh.weyl_group(cap=100)


@settings(max_examples=40, deadline=None)
@given(
    vx=st.integers(min_value=-12, max_value=12),
    vy=st.integers(min_value=-12, max_value=12),
)
def test_chamber_equivariance_random_regular(vx, vy):
    sys_ = make_a2()
    v = (F(vx), F(vy))
    if any(sys_.pairing(a, v) == 0 for a in sys_.roots):
        return  # skip walls; equivariance is about regular vectors
    W = sys_.weyl_group()
    base = sys_.chamber_of(v)
    for w in W:
        assert sys_.chamber_of(w(v)) == oracles.multiply(W, w, base)


def test_pairing_matches_the_gram_pairing(catalog, f4_system):
    vectors = [(F(1, 3), F(-2, 7)), (F(5), F(1, 2)), (F(0), F(0))]
    for sys_ in [e.system for e in catalog] + [f4_system]:
        vs = [tuple(v[i % 2] * (i + 1) for i in range(sys_.rank)) for v in vectors]
        vs.append(sys_.base_point)
        for alpha in sys_.roots:
            for v in vs:
                assert sys_.pairing(alpha, v) == gram_pair(sys_.gram, alpha, v)
        # not a root: the pairing falls back to the Gram matrix
        half = tuple(F(x) / 3 for x in sys_.roots[0])
        assert sys_.pairing(half, vs[0]) == gram_pair(sys_.gram, half, vs[0])


# -- root permutations against the matrix BFS and the descent walk ----------


def matrix_bfs(system):
    """Verbatim copy of the matrix BFS that the permutation BFS replaced.

    Returns the elements as (matrix, word) pairs in discovery order.
    """
    gens = [oracles.reflection_matrix(system, a) for a in system.simple_roots]
    ident = (identity(system.rank), ())
    elements = [ident]
    seen = {ident[0]}
    frontier = [ident]
    while frontier:
        nxt = []
        for w_matrix, w_word in frontier:
            for i, g in enumerate(gens):
                m = mat_mul(w_matrix, g)
                if m not in seen:
                    seen.add(m)
                    el = (m, w_word + (i,))
                    elements.append(el)
                    nxt.append(el)
        frontier = nxt
    return elements


def descent_walk(system, v):
    """Verbatim copy of the descent walk that the sign-mask lookup replaced.

    Returns the word of simple reflections walking v into the base chamber;
    the chamber element is the product of the word.
    """
    walls = [a for a in system.roots if system.pairing(a, v) == 0]
    if walls:
        raise NotRegular(walls)
    simple = system.simple_roots
    x = v
    word = []
    guard = 4 * len(system.roots) + 8
    while True:
        i = next((k for k, a in enumerate(simple) if system.pairing(a, x) < 0), None)
        if i is None:
            break
        x = system.reflect(simple[i], x)
        word.append(i)
        guard -= 1
        if guard < 0:
            raise InvariantViolation("descent walk failed to terminate")
    return word


def walk_element(system, by_matrix, v):
    """(matrix, word) of the element the descent walk finds for v."""
    m = identity(system.rank)
    for i in descent_walk(system, v):
        m = mat_mul(m, oracles.reflection_matrix(system, system.simple_roots[i]))
    return m, by_matrix[m]


def _assert_permutation_bfs_matches(system):
    expected = matrix_bfs(system)
    group = system.weyl_group()
    assert [(w.matrix, w.word) for w in group] == expected
    for w in group:
        assert [system.roots[j] for j in w.perm] == [w(a) for a in system.roots]


def test_permutation_bfs_matches_matrix_bfs(catalog):
    for entry in catalog:
        _assert_permutation_bfs_matches(entry.system)


def test_permutation_bfs_matches_matrix_bfs_f4(f4_system):
    _assert_permutation_bfs_matches(f4_system)


def test_chamber_of_matches_descent_walk_on_every_window(catalog):
    for entry in catalog:
        sys_ = entry.system
        by_matrix = dict(matrix_bfs(sys_))
        shift = canonical_shift(sys_, entry.lattice, radius=F(3))
        for q in shift.window_points():
            v = tuple(x + a for x, a in zip(q, shift.a))
            w = sys_.chamber_of(v)
            assert (w.matrix, w.word) == walk_element(sys_, by_matrix, v)


_A2 = make_a2()
_A2_BY_MATRIX = dict(matrix_bfs(_A2))


@settings(max_examples=80, deadline=None)
@given(
    vx=st.fractions(min_value=-20, max_value=20, max_denominator=12),
    vy=st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
def test_chamber_of_matches_descent_walk_a2(vx, vy):
    v = (vx, vy)
    assume(all(_A2.pairing(a, v) != 0 for a in _A2.roots))
    w = _A2.chamber_of(v)
    assert (w.matrix, w.word) == walk_element(_A2, _A2_BY_MATRIX, v)


def test_from_word_rejects_letters_outside_the_rank():
    W = make_a2().weyl_group()
    assert W.from_word((0, 1)) == oracles.multiply(W, W.simple[0], W.simple[1])
    for letter in (-1, 2):
        with pytest.raises(UnknownRoot, match=r"letters run 1\.\.2"):
            W.from_word((0, letter))


def test_inverse_and_identity_compose():
    W = make_a2().weyl_group()
    for w in W:
        assert oracles.multiply(W, w, W.inverse(w)) == W.identity
        assert W.inverse(w).matrix == inverse(w.matrix)


def test_length_counts_inversions_of_the_permutation(catalog, f4_system):
    """The permutation count against the matrix formula, and against reduced words."""
    for entry in catalog:
        sys_ = entry.system
        for w in sys_.weyl_group():
            by_matrix = sum(
                1 for a in sys_.indivisible_positive_roots
                if sys_.pairing(w(a), sys_.base_point) < 0
            )
            assert oracles.length(sys_, w) == by_matrix == len(w.word)
    assert all(oracles.length(f4_system, w) == len(w.word) for w in f4_system.weyl_group())
