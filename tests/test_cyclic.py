from fractions import Fraction
from itertools import combinations

import pytest

from ncpoly.cyclic import (
    CyclicConfiguration,
    classical_gale_even,
    cyclic_configuration,
    cyclic_facet_count,
    gale_evenness_facets,
    positive_cocircuit_facets,
)
from ncpoly.errors import DimensionError
from ncpoly.intops import bareiss_det, clear_denominators, echelon
from ncpoly.polytope import VPolytope, facets_from_vrep

# The chirotope and the dual configuration are oriented-matroid facts about
# the moment curve that only these tests read; the library itself recovers
# the facets from positive cocircuits.


def chirotope(cfg: CyclicConfiguration, subset):
    """Sign of the maximal minor on the given point subset."""
    subset = tuple(subset)
    if len(subset) != cfg.rank:
        raise DimensionError("subset size must equal the rank")
    det = bareiss_det(clear_denominators(cfg.row(i) for i in subset)[0])
    return 0 if det == 0 else (1 if det > 0 else -1)


def dual_configuration(cfg: CyclicConfiguration):
    """Representation of the dual: moment rows of complementary rank with
    every other row negated."""
    dual_rank = cfg.n - cfg.rank
    rows = []
    for i in range(cfg.n):
        t = Fraction(cfg.ts[i])
        sign = 1 if i % 2 == 0 else -1
        rows.append(tuple(sign * t ** j for j in range(dual_rank)))
    return tuple(rows)


def rank_pair(cfg: CyclicConfiguration):
    return (
        len(echelon(clear_denominators(cfg.row(i) for i in range(cfg.n))[0])),
        len(echelon(clear_denominators(dual_configuration(cfg))[0])),
    )


def test_chirotope_always_positive_for_increasing_parameters():
    cfg = cyclic_configuration(6, 3)
    assert all(chirotope(cfg, s) == 1 for s in combinations(range(6), 4))


def test_chirotope_wrong_subset_size():
    cfg = cyclic_configuration(5, 2)
    with pytest.raises(DimensionError):
        chirotope(cfg, (0, 1))


def test_parameters_must_increase():
    with pytest.raises(ValueError):
        cyclic_configuration(3, 2, ts=(1, 1, 2))


def test_one_parameter_per_point():
    # a short ts would otherwise fail later, in positive_cocircuit_facets
    for ts in ((1, 2, 3), tuple(range(1, 8))):
        with pytest.raises(ValueError, match="one parameter per point"):
            cyclic_configuration(6, 3, ts=ts)


def test_parameters_refuse_a_float():
    # 0.1 would become 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="not float"):
        cyclic_configuration(6, 3, ts=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    with pytest.raises(TypeError, match="not float"):
        cyclic_configuration(3, 2, ts=(1, 2.0, 3))


def test_parameters_as_ints():
    cfg = cyclic_configuration(4, 2, ts=[-1, 0, 2, 5])
    assert cfg.ts == (-1, 0, 2, 5)
    assert all(type(t) is Fraction for t in cfg.ts)


def test_parameters_as_fractions():
    ts = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(7, 5))
    assert cyclic_configuration(4, 2, ts=ts).ts == ts


def test_parameters_as_strings():
    cfg = cyclic_configuration(6, 3, ts=["1/10", "1/5", "3/10", "2/5", "1/2", "3/5"])
    assert cfg.ts[0] == Fraction(1, 10)
    assert cfg.row(5) == (1, Fraction(3, 5), Fraction(9, 25), Fraction(27, 125))
    assert len(positive_cocircuit_facets(cfg)) == cyclic_facet_count(6, 3)


def test_dual_minor_signs_follow_reorientation():
    # negating a row flips each maximal minor containing it; with rows
    # 2, 4, ... negated, the dual minor sign is (-1)^(number of even rows)
    cfg = cyclic_configuration(6, 3)
    dual = dual_configuration(cfg)
    dual_rank = cfg.n - cfg.rank
    for subset in combinations(range(6), dual_rank):
        # the rows differ only in sign, so they clear over one denominator
        m = clear_denominators(dual[i] for i in subset)[0]
        plain = clear_denominators(
            tuple(Fraction(cfg.ts[i]) ** j for j in range(dual_rank)) for i in subset
        )[0]
        flips = sum(1 for i in subset if i % 2 == 1)
        assert bareiss_det(m) == (-1) ** flips * bareiss_det(plain)
        assert bareiss_det(plain) > 0


def test_rank_sum_is_n():
    for (n, d) in [(5, 2), (6, 3), (7, 4), (8, 5)]:
        cfg = cyclic_configuration(n, d)
        rp, rd = rank_pair(cfg)
        assert rp == d + 1
        assert rp + rd == n


def test_polygon_facets():
    assert len(gale_evenness_facets(5, 2)) == 5
    assert cyclic_facet_count(5, 2) == 5
    assert set(gale_evenness_facets(4, 2)) == {
        frozenset(s) for s in [(1, 2), (2, 3), (3, 4), (1, 4)]
    }


def test_simplex_case_all_subsets():
    # n = d+1 gives a simplex: every d-subset is a facet
    assert len(gale_evenness_facets(5, 4)) == 5
    assert classical_gale_even((1, 2, 4, 5), 5)


def test_count_formula_agreement():
    for n in range(3, 9):
        for d in range(2, n):
            assert len(gale_evenness_facets(n, d)) == cyclic_facet_count(n, d)


def test_c4_7_has_14_facets():
    assert cyclic_facet_count(7, 4) == 14


@pytest.mark.parametrize("n,d", [(5, 2), (6, 3), (7, 4), (8, 5), (7, 2), (8, 3)])
def test_cocircuits_match_evenness_and_oracle(n, d):
    cfg = cyclic_configuration(n, d)
    even = set(gale_evenness_facets(n, d))
    cocirc = positive_cocircuit_facets(cfg)
    pts = [tuple(Fraction(t) ** j for j in range(1, d + 1)) for t in range(1, n + 1)]
    inc = facets_from_vrep(VPolytope(d, pts))
    geometric = {frozenset(i + 1 for i in f) for f in inc.incidence}
    assert even == cocirc == geometric


def test_deletion_is_alternating():
    cfg = cyclic_configuration(6, 2, ts=(0, 1, 2, 3, 4, 5))
    sub = cyclic_configuration(5, 2, ts=cfg.ts[1:])
    assert all(chirotope(sub, s) == 1 for s in combinations(range(5), 3))


def test_contraction_of_first_element_is_alternating():
    # with t1 = 0 the contraction is the first-row-and-column deletion;
    # rescaling rows by 1/t brings back moment rows, so minors stay positive
    cfg = cyclic_configuration(6, 3, ts=(0, 1, 2, 3, 4, 5))
    contracted = clear_denominators(
        tuple(Fraction(t) ** j for j in range(1, 4)) for t in cfg.ts[1:]
    )[0]
    assert len(echelon(contracted)) == 3
    for subset in combinations(range(5), 3):
        assert bareiss_det([contracted[i] for i in subset]) > 0


def test_rank_cannot_exceed_point_count():
    with pytest.raises(DimensionError):
        cyclic_configuration(4, 5)
