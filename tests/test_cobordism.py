import pytest
from hypothesis import given, strategies as st

from contactcalc.cobordism import (Handle, HomologyProfile,
                                   euler_characteristic,
                                   gysin_sphere_bundle_homology,
                                   hopf_invariant_one_exists,
                                   not_stein_certificate,
                                   self_linking_liouville,
                                   stein_homology_check, sum_cobordism,
                                   twist_square_smoothly_trivial)
from contactcalc.errors import DomainError
from contactcalc.surgery import disk_cotangent_page, disk_page, PageSpec


def test_handle_index_bounds():
    Handle(4, 2)
    with pytest.raises(DomainError):
        Handle(4, 5)


def test_sum_cobordism_shifts_indices():
    page = disk_cotangent_page(1)  # D*S^1: one 0-handle, one 1-handle
    handles = sum_cobordism(page)
    assert sorted(h.index for h in handles) == [1, 2]
    assert all(h.ambient_dim == 4 for h in handles)


def test_sum_cobordism_disk_page():
    handles = sum_cobordism(disk_page(2))
    assert [h.index for h in handles] == [1]
    assert handles[0].ambient_dim == 6


def test_sum_cobordism_genus_one_page():
    page = PageSpec("genus1", 1, ((0, 1), (1, 2)), True, ("a", "b"))
    handles = sum_cobordism(page)
    assert sorted(h.index for h in handles) == [1, 2, 2]


def test_euler_characteristic():
    page = PageSpec("genus1", 1, ((0, 1), (1, 2)), True, ("a", "b"))
    handles = sum_cobordism(page)
    assert euler_characteristic(0, handles) == 1
    assert euler_characteristic(2, []) == 2


@given(st.lists(st.integers(0, 6), max_size=10), st.integers(-3, 3))
def test_euler_characteristic_additive_and_order_free(indices, base):
    handles = [Handle(6, i) for i in indices]
    chi = euler_characteristic(base, handles)
    assert chi == euler_characteristic(base, list(reversed(handles)))
    split = len(handles) // 2
    assert chi == euler_characteristic(
        euler_characteristic(base, handles[:split]), handles[split:])


def test_stein_homology_check():
    ok = stein_homology_check([Handle(4, 1), Handle(4, 2)], 1)
    assert ok.passed and ok.margin == 0.0
    bad = stein_homology_check([Handle(6, 4)], 2)
    assert not bad.passed and bad.margin == -1.0
    with pytest.raises(DomainError):
        stein_homology_check([Handle(4, 1)], 2)


def test_not_stein_certificate():
    rep = not_stein_certificate(5, True)
    assert rep.conclusive and rep.degree == 6 and rep.rank_increase == 1
    assert not not_stein_certificate(5, False).conclusive
    with pytest.raises(DomainError):
        not_stein_certificate(4, True)  # even t_dim


def test_gysin_rp3():
    prof = gysin_sphere_bundle_homology(1)  # S*S^2 = RP^3
    assert prof.rank(0) == 1 and prof.torsion(0) == ()
    assert prof.rank(1) == 0 and prof.torsion(1) == (2,)
    assert prof.rank(2) == 0 and prof.torsion(2) == ()
    assert prof.rank(3) == 1
    assert prof.rank(7) == 0  # out of range degrees are zero


def test_gysin_odd_n_torsion():
    prof = gysin_sphere_bundle_homology(3)  # S*S^4
    assert prof.torsion(3) == (2,)
    assert prof.rank(3) == 0
    assert prof.rank(7) == 1


def test_gysin_even_n_product_ranks():
    prof = gysin_sphere_bundle_homology(2)  # S*S^3 = S^2 x S^3
    assert [prof.rank(d) for d in range(6)] == [1, 0, 1, 1, 0, 1]
    assert all(prof.torsion(d) == () for d in range(6))


def test_homology_profile_canonicalizes():
    prof = HomologyProfile(((1, (4, 2)),))
    assert prof.torsion(0) == (2, 4)
    assert "Z+Z/2+Z/4" in str(prof)
    with pytest.raises(DomainError):
        HomologyProfile(((1, (1,)),))
    with pytest.raises(DomainError):
        HomologyProfile(((-1, ()),))


def test_hopf_invariant_one_table():
    assert [d for d in range(1, 20) if hopf_invariant_one_exists(d)] == [1, 2, 4, 8]
    with pytest.raises(DomainError):
        hopf_invariant_one_exists(0)


def test_twist_square_smoothly_trivial():
    assert [n for n in range(1, 65) if twist_square_smoothly_trivial(n)] == [2, 6]


def test_twist_square_cross_check_reads_the_hopf_table():
    # By Adams, S^(n+1) is parallelizable exactly when n + 2 is a Hopf
    # invariant one dimension, i.e. when n + 1 is 1, 3 or 7.
    for n in range(1, 201):
        assert ((n + 1) in (1, 3, 7)) == hopf_invariant_one_exists(n + 2)
    assert [n for n in range(1, 201) if twist_square_smoothly_trivial(n)] == [2, 6]


def test_self_linking():
    assert self_linking_liouville(-1) == 1
    assert self_linking_liouville(1) == -1
