import pytest

from spincactus.errors import ValidationError
from spincactus.weights import (
    OrthWeight,
    Weight,
    delta_membership,
    is_dominant_d,
    omega_minus,
    omega_plus,
    spinor_weights,
    w0_image,
)


def test_rank_guard():
    with pytest.raises(ValidationError):
        Weight((1,))


@pytest.mark.parametrize(
    "coords2,expected",
    [
        ((3, 1, 1, -1), True),
        ((0, 0), True),
        ((1, 3), False),
        ((2, -2), True),
        ((0, -1), False),
    ],
)
def test_is_dominant(coords2, expected):
    assert is_dominant_d(Weight(coords2)) is expected


def test_spinor_weights_small():
    assert [w.coords2 for w in spinor_weights(2)] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    cube = spinor_weights(3)
    assert len(cube) == 8 == len(set(cube))
    assert Weight((1, 1, -1)) in cube
    assert omega_plus(4) in spinor_weights(4)


def test_spinor_weights_dominant_members():
    # only the two standard extremes are dominant
    for n in (2, 3, 4):
        dominant = [w for w in spinor_weights(n) if is_dominant_d(w)]
        assert dominant == [omega_plus(n), omega_minus(n)]
        assert all(delta_membership(w, 1) == is_dominant_d(w) for w in spinor_weights(n))


@pytest.mark.parametrize(
    "coords2,big_n,expected",
    [
        ((3, 1, 1, -1), 7, True),
        ((2, 2, 2, 0), 4, True),
        ((1, 1), 3, True),
        ((2, 0), 3, False),  # parity
        ((4, 0), 3, False),  # out of range
        ((1, 3), 3, False),  # not dominant
    ],
)
def test_delta_membership(coords2, big_n, expected):
    assert delta_membership(Weight(coords2), big_n) is expected


def test_delta_membership_equals_row_solution():
    # membership must agree with both row vectors being non-negative integers
    for n in (2, 3):
        for big_n in (1, 2, 3, 4):
            grid = range(-big_n - 2, big_n + 3)
            for c1 in grid:
                for c2 in grid:
                    coords = (c1, c2) if n == 2 else (c1, c2, c2 - 1)
                    w = Weight(coords)
                    if not is_dominant_d(w):
                        continue
                    rows_ok = all(
                        (big_n + c) % 2 == 0 and 0 <= (big_n + c) // 2 <= big_n
                        for c in coords
                    )
                    assert delta_membership(w, big_n) == rows_ok


def test_w0_image():
    assert w0_image(Weight((2, 0))).coords2 == (-2, 0)
    assert w0_image(Weight((1, 1, 1))).coords2 == (-1, -1, 1)
    assert w0_image(omega_plus(4)) == -omega_plus(4)
    for coords in [(3, 1, 1, -1), (1, 1, 1), (2, 0)]:
        w = Weight(coords)
        assert w0_image(w0_image(w)) == w


def test_w0_image_is_lowest_weight_of_component():
    # the oracle: exhaust the component of the top spin element with f_i
    from spincactus.crystal import SpinCrystal

    for n in (3, 4):
        crystal = SpinCrystal(n)
        top = crystal.element_of_weight(omega_plus(n))
        low = crystal.to_lowest_weight((top,))
        assert crystal.word_weight(low) == w0_image(omega_plus(n))


def test_orthweight_dominance():
    assert OrthWeight((8, -2), 4).is_dominant()
    assert not OrthWeight((2, -4), 4).is_dominant()
    assert OrthWeight((4, 0), 5).is_dominant()
    assert not OrthWeight((4, -2), 5).is_dominant()
    with pytest.raises(ValidationError):
        OrthWeight((2,), 4)  # wrong coordinate count


def test_weight_json_round_trip():
    w = Weight((3, 1, 1, -1))
    assert Weight.from_json(w.to_json()) == w
    assert str(w) == "(3/2, 1/2, 1/2, -1/2)"
