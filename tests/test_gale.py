from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from ncpoly import signvec
from ncpoly.deformed import choose_epsilon
from ncpoly.gale import (
    alpha_is_positive_circuit,
    f_formula,
    facet_vertex_label_sets,
    facet_vertex_masks,
    facets_gale,
    gap_even,
    to_sign_vector,
)
from test_linalg import left_kernel


def test_special_value_n_equals_d():
    for d in range(2, 11):
        assert f_formula(d, d) == 2 * d
        assert len(facets_gale(d, d)) == 2 * d


def test_special_value_n_equals_d_plus_1():
    for d in range(2, 10):
        assert f_formula(d + 1, d) == d * d + d + 2 * (d // 2)


def test_special_values_low_dimensions():
    for n in range(2, 11):
        assert f_formula(n, 2) == 2 ** n
    for n in range(3, 11):
        assert f_formula(n, 3) == 2 ** n - 2
    for n in range(4, 11):
        assert f_formula(n, 4) == (n - 2) * 2 ** (n - 2)
    for n in range(5, 11):
        assert f_formula(n, 5) == (n - 4) * 2 ** (n - 2) + 2


def test_enumeration_matches_formula_everywhere():
    for n in range(2, 11):
        for d in range(2, n + 1):
            assert len(facets_gale(n, d)) == f_formula(n, d)


def test_labels_are_valid_and_distinct():
    for (n, d) in [(6, 4), (7, 3), (8, 6)]:
        out = facets_gale(n, d)
        assert len(set(out)) == len(out)
        for alpha in out:
            assert len(alpha) == n - d + 1
            assert not (alpha & {-a for a in alpha})


def _lex_key(sv):
    # the sign-vector face order: - < 0 < +, lexicographic
    return tuple({-1: 0, 0: 1, 1: 2}[s] for s in sv)


def test_enumeration_order_is_sign_vector_lex():
    out = facets_gale(6, 4)
    keys = [_lex_key(to_sign_vector(a, 6)) for a in out]
    assert keys == sorted(keys)
    for n in range(2, 10):
        for d in range(2, n + 1):
            keys = [_lex_key(to_sign_vector(a, n)) for a in facets_gale(n, d)]
            assert keys == sorted(set(keys)), (n, d)


def test_chain_facet_sign_vectors():
    # the three facets used by the surgery, with their signed labels
    assert to_sign_vector(frozenset({-1, 2, 5}), 6) == signvec.parse("-+00+0")
    assert to_sign_vector(frozenset({-1, 4, 5}), 6) == signvec.parse("-00++0")
    assert to_sign_vector(frozenset({-1, -2, 4}), 6) == signvec.parse("--0+00")
    facets = set(facets_gale(6, 4))
    for alpha in (frozenset({-1, 2, 5}), frozenset({-1, 4, 5}), frozenset({-1, -2, 4})):
        assert alpha in facets


def _reference_sign_vector(alpha, n):
    # to_sign_vector without its label checks
    sv = [0] * n
    for a in alpha:
        sv[abs(a) - 1] = 1 if a > 0 else -1
    return tuple(sv)


def _reference_label_sets(n, d):
    # facet_vertex_label_sets as one sign-vector walk per facet, straight to
    # label tuples
    return {
        frozenset(
            signvec.vertex_tuple_from_bits(b, n)
            for b in signvec.members(signvec.vertex_set(_reference_sign_vector(alpha, n)))
        )
        for alpha in facets_gale(n, d)
    }


def test_sign_vector_refuses_index_zero():
    # unchecked, the 0 wrapped to the last coordinate: (0, 1, -1)
    with pytest.raises(ValueError):
        to_sign_vector(frozenset({0, 2}), 3)


def test_sign_vector_refuses_both_signs_of_one_index():
    # unchecked, the sign the set yielded last won: (0, -1, 0) or (0, 1, 0)
    with pytest.raises(ValueError):
        to_sign_vector(frozenset({2, -2}), 3)


def test_sign_vector_refuses_index_past_n():
    # unchecked, an IndexError
    for alpha in (frozenset({4}), frozenset({-1, -4})):
        with pytest.raises(ValueError):
            to_sign_vector(alpha, 3)


def test_sign_vector_unchanged_on_every_facet_label():
    for n in range(2, 9):
        for d in range(2, n + 1):
            for alpha in facets_gale(n, d):
                assert to_sign_vector(alpha, n) == _reference_sign_vector(alpha, n)


def test_facet_label_sets_are_the_label_view_of_the_masks():
    for n in range(2, 9):
        for d in range(2, n + 1):
            masks = facet_vertex_masks(n, d)
            assert len(masks) == f_formula(n, d)
            assert facet_vertex_label_sets(n, d) == _reference_label_sets(n, d), (n, d)


def _initial_run(alpha):
    # p = min{i >= 0 : neither +(i+1) nor -(i+1) lies in alpha}
    support = {abs(a) for a in alpha}
    p = 0
    while p + 1 in support:
        p += 1
    return p


def test_initial_run():
    assert _initial_run({-1, 2, 5}) == 2
    assert _initial_run({-1, 4, 5}) == 1
    assert _initial_run({3, 5}) == 0
    assert _initial_run({-1, 2, -3}) == 3


def _obeys_the_rule(alpha):
    # the module docstring's rule: the run 1..p, then a gap-even tail (past
    # p+1, as p+1 ends the run); run element a followed in the support by b
    # carries (-1)^(b+1)
    p = _initial_run(alpha)
    support = sorted(abs(a) for a in alpha)
    return gap_even(support[p:]) and all(
        (-1) ** (b + 1) * a in alpha for a, b in zip(support[:p], support[1:])
    )


def test_facet_labels_obey_the_module_docstring_rule():
    # every signed label of size n-d+1 is a facet exactly when it obeys the
    # rule, so the forced sign at p is checked along with the prefix
    for n in range(2, 10):
        for d in range(2, n + 1):
            facets = set(facets_gale(n, d))
            size = n - d + 1
            for support in combinations(range(1, n + 1), size):
                for signs in product((-1, 1), repeat=size):
                    alpha = frozenset(s * k for s, k in zip(signs, support))
                    assert _obeys_the_rule(alpha) == (alpha in facets), (n, d, alpha)


def _two_branch_facets_gale(n, d):
    # the generator facets_gale replaced: p = 0 and p >= 1 as two branches,
    # the parity-forced sign at p, and the empty tail as its own case
    size = n - d + 1
    out = []
    for support in combinations(range(2, n + 1), size):
        if not gap_even(support):
            continue
        for signs in product((-1, 1), repeat=size):
            out.append(frozenset(s * k for s, k in zip(signs, support)))
    for p in range(1, size + 1):
        tail_size = size - p
        prefix = [(-1) ** k * k for k in range(1, p)]
        if tail_size == 0:
            for sigma in (-1, 1):
                out.append(frozenset(prefix + [sigma * p]))
            continue
        for tail in combinations(range(p + 2, n + 1), tail_size):
            if not gap_even(tail):
                continue
            sigma = (-1) ** (p + 1) if (tail[0] - p) % 2 == 0 else (-1) ** p
            for signs in product((-1, 1), repeat=tail_size):
                out.append(
                    frozenset(prefix + [sigma * p] + [s * k for s, k in zip(signs, tail)])
                )
    weight = {s * k: s * 3 ** (n - k) for k in range(1, n + 1) for s in (-1, 1)}
    out.sort(key=lambda a: sum(map(weight.__getitem__, a)))
    return out


def test_facets_gale_is_the_two_branch_generator():
    for n in range(2, 13):
        for d in range(2, n + 1):
            assert facets_gale(n, d) == _two_branch_facets_gale(n, d), (n, d)


@pytest.mark.slow
@pytest.mark.parametrize("n", [13, 14])
def test_facets_gale_is_the_two_branch_generator_past_twelve(n):
    for d in range(2, n + 1):
        assert facets_gale(n, d) == _two_branch_facets_gale(n, d), (n, d)


def test_gap_even():
    assert gap_even((2, 3, 4))
    assert gap_even((2, 5, 6))
    assert not gap_even((2, 4))


def test_full_run_case_accepts_both_signs():
    # when the label is a pure prefix, both signs of the last element work
    out = set(facets_gale(5, 4))
    assert frozenset({-1, 2}) in out
    assert frozenset({-1, -2}) in out


def _sigma_circuit(n, d, sigma, rows, eps):
    # the sigma-mapping form the package once exported, as a signed label
    # listed in the order of ``rows``: sigma maps a row index to its sign,
    # and rows it does not name take +1
    return alpha_is_positive_circuit(n, d, tuple(sigma.get(k, 1) * k for k in rows), eps)


def test_circuit_test_refuses_a_float_epsilon():
    # 0.1 is not 1/10; the string and the Fraction are read exactly
    with pytest.raises(TypeError, match="not float"):
        alpha_is_positive_circuit(5, 2, (-1, 2, -3, 4), 0.1)
    assert alpha_is_positive_circuit(5, 2, (-1, 2, -3, 4), "1/10")
    assert alpha_is_positive_circuit(5, 2, (-1, 2, -3, 4), Fraction(1, 10))
    assert not alpha_is_positive_circuit(5, 2, (-1, 2, -3, 4), Fraction(1, 2))


def test_positive_circuit_vacuous_when_n_equals_d():
    assert _sigma_circuit(3, 3, {1: 1}, (2,), Fraction(1, 2))
    assert alpha_is_positive_circuit(3, 3, frozenset({-2}), Fraction(1, 2))


@pytest.mark.parametrize(
    "n,d,rows",
    [
        (5, 2, (2, 3, 4, 9)),  # index past n
        (5, 2, (0, 3, 4, 5)),  # row 0 would put sigma*eps in the last column
        (5, 2, (3, 4, 5)),  # one row short
        (5, 2, (3, 3, 4, 5)),  # repeated row
        (3, 3, (4,)),  # checked even where the test is vacuous
        (3, 4, ()),  # d > n: n-d+1 = 0 rows would pass the size check
        (3, 1, (1, 2, 3)),  # d < 2
        (1, 1, (1,)),
    ],
)
def test_positive_circuit_rejects_bad_rows(n, d, rows):
    with pytest.raises(ValueError):
        _sigma_circuit(n, d, {}, rows, Fraction(1, 2))


@pytest.mark.parametrize(
    "alpha",
    [
        frozenset({3, -3, 4, 5}),  # meets -alpha
        frozenset({-1, 1, 2, -2}),
        frozenset({2, 3, 4, 9}),
        frozenset({0, 3, 4, 5}),
        frozenset({2, 3, -3, 4, 5}),  # four distinct rows, but 3 is named twice
    ],
)
def test_alpha_circuit_rejects_bad_labels(alpha):
    with pytest.raises(ValueError):
        alpha_is_positive_circuit(5, 2, alpha, Fraction(1, 4))


def test_positive_circuit_is_facet_membership_at_n9():
    # every signed label of every (9, d), at the certified eps: the circuit
    # verdict is membership in facets_gale (test_acceptance's criterion 10
    # covers n <= 8)
    n = 9
    for d in range(2, n + 1):
        eps = choose_epsilon(n, d)
        facets = set(facets_gale(n, d))
        size = n - d + 1
        circuits = set()
        for support in combinations(range(1, n + 1), size):
            for signs in product((-1, 1), repeat=size):
                alpha = frozenset(s * k for s, k in zip(signs, support))
                if alpha_is_positive_circuit(n, d, alpha, eps):
                    circuits.add(alpha)
        assert circuits == facets, (n, d)


@pytest.mark.parametrize(
    "eps", [None, Fraction(1), Fraction(1, 3), Fraction(3, 37), Fraction(2, 9)], ids=str
)
def test_sigma_mapping_agrees_with_signed_label(eps):
    # the mapping form, with its rows named in decreasing order and the
    # plus signs left out of sigma, gives the label form's answer
    for n in range(2, 8):
        for d in range(2, n + 1):
            e = choose_epsilon(n, d) if eps is None else eps
            size = n - d + 1
            for support in combinations(range(1, n + 1), size):
                for signs in product((-1, 1), repeat=size):
                    alpha = frozenset(s * k for s, k in zip(signs, support))
                    sigma = {k: -1 for s, k in zip(signs, support) if s < 0}
                    assert _sigma_circuit(n, d, sigma, support[::-1], e) == (
                        alpha_is_positive_circuit(n, d, alpha, e)
                    ), (n, d, alpha, e)


def _rational_row(n, d, k, sigma, eps):
    # row k of the n x (n-d) deformation matrix over the rationals, written
    # out apart from the library: (-1)^k binom(k-2, j-1) for j < k, then
    # sigma*eps at j = k
    width = n - d
    row = [Fraction(0)] * width
    for j in range(1, min(k, width + 1)):
        row[j - 1] = Fraction((-1) ** k * comb(k - 2, j - 1))
    if k <= width:
        row[k - 1] = sigma * eps
    return row


def _fraction_left_kernel(rows):
    # y with y . rows = 0 from Gauss-Jordan elimination of the transpose
    # over Fractions; None unless the left kernel is one-dimensional
    m = [list(col) for col in zip(*rows)]
    width = len(rows)
    pivots = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    if len(pivots) != width - 1:
        return None
    (free,) = set(range(width)) - set(pivots)
    y = [Fraction(0)] * width
    y[free] = Fraction(1)
    for r, c in enumerate(pivots):
        y[c] = -m[r][free]
    return y


@pytest.mark.parametrize(
    "eps", [Fraction(1), Fraction(1, 3), Fraction(3, 37), Fraction(2, 9)], ids=str
)
def test_positive_circuit_matches_fraction_kernel_off_certified_eps(eps):
    # away from a certified eps facets_gale is no reference, so the circuit
    # test is held to the sign pattern of an exact rational left kernel
    for n in range(3, 8):
        for d in range(2, n):
            size = n - d + 1
            for support in combinations(range(1, n + 1), size):
                for signs in product((-1, 1), repeat=size):
                    alpha = frozenset(s * k for s, k in zip(signs, support))
                    y = _fraction_left_kernel(
                        [_rational_row(n, d, k, s, eps) for s, k in zip(signs, support)]
                    )
                    want = y is not None and (min(y) > 0 or max(y) < 0)
                    assert alpha_is_positive_circuit(n, d, alpha, eps) == want, (n, d, alpha)


def _bbar_rows(n, d):
    # rows ((-1)^k (k-1)^(j-1)) for k = 2..n, j = 1..n-d
    return {
        k: tuple((-1) ** k * (k - 1) ** j for j in range(n - d)) for k in range(2, n + 1)
    }


def _is_alternating(seq):
    return all((a + b) % 2 == 1 for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("n,d", [(5, 3), (6, 4), (6, 3), (7, 5)])
def test_limit_matrix_positive_circuits_are_alternating_subsets(n, d):
    # at eps = 0 the deformation matrix rows become the alternating-signed
    # moment rows; a row subset is a positive circuit exactly when its
    # indices alternate in parity.  Undoing the row signs (back to pure
    # moment rows) must always leave coefficients alternating by position.
    rows = _bbar_rows(n, d)
    size = n - d + 1
    for subset in combinations(range(2, n + 1), size):
        v = left_kernel([rows[k] for k in subset])
        assert v is not None
        positive = all(x > 0 for x in v) or all(x < 0 for x in v)
        assert positive == _is_alternating(subset), subset
        over_moment = [x * (-1) ** k for x, k in zip(v, subset)]
        assert all(a * b < 0 for a, b in zip(over_moment, over_moment[1:]))


def test_three_forms_agree_via_formula_error_guard():
    # f_formula raises internally if its three closed forms ever disagree;
    # sweeping a large range exercises that assertion
    for n in range(2, 16):
        for d in range(2, n + 1):
            f_formula(n, d)


def _tight_label_sets(n):
    # geometric facets of the unprojected cube, via tightness in the
    # defining inequality system (the hull oracle for the n = d case)
    from ncpoly.deformed import build_deformed_cube, cube_vertices_labeled

    eps = choose_epsilon(n, n)
    h = build_deformed_cube(n, eps)
    v = cube_vertices_labeled(h)
    out = set()
    for normal, rhs in h.inequalities:
        tight = frozenset(
            v.labels[i]
            for i, p in enumerate(v.points)
            if sum(a * x for a, x in zip(normal, p)) == rhs
        )
        out.add(tight)
    return out


@pytest.mark.parametrize(
    "n,d",
    [(2, 2), (3, 2), (3, 3), (4, 4), (5, 5), (6, 2), (6, 3), (6, 6)],
)
def test_oracle_equivalence_remaining_small_pairs(n, d):
    from ncpoly.deformed import projected_cube
    from ncpoly.gale import facet_vertex_label_sets
    from ncpoly.polytope import facets_from_vrep, is_cubical

    expected = facet_vertex_label_sets(n, d)
    if n == d:
        assert _tight_label_sets(n) == expected
    else:
        pc = projected_cube(n, d)
        inc = facets_from_vrep(pc.shadow)
        oracle = {frozenset(pc.shadow.labels[i] for i in f) for f in inc.incidence}
        assert oracle == expected
        assert is_cubical(inc)
