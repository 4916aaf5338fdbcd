import itertools
import random
from fractions import Fraction

import pytest

from spincactus.celldiag import diagram_of_weight, enumerate_delta
from spincactus.clifford import (
    ExteriorAlgebra,
    ExteriorVector,
    OperatorSpec,
    contract,
    kappa,
    kappa_sigma,
    wedge_insert,
)
from spincactus.errors import ValidationError
from spincactus.suites import contract_reference, wedge_insert_reference
from spincactus.weights import OrthWeight, Weight
from spincactus.youngt import enumerate_gtp, f_map


def random_vector(rng, nbits, terms=5):
    out = {}
    for _ in range(terms):
        mask = rng.getrandbits(nbits)
        out[mask] = out.get(mask, 0) + Fraction(rng.randint(-4, 4))
    return ExteriorVector(out)


def test_wedge_contract_basics():
    one = ExteriorVector.unit()
    w1 = wedge_insert(0, one)
    assert w1.terms == {1: 1}
    assert wedge_insert(0, w1).is_zero()
    # inserting on the left of a smaller index flips the sign
    assert wedge_insert(1, w1).terms == {0b11: -1}
    assert contract(0, w1) == one
    assert contract(0, wedge_insert(1, one)).is_zero()


def test_clifford_relations_random():
    rng = random.Random(20240801)
    nbits = 16
    for _ in range(200):
        v = random_vector(rng, nbits)
        a = rng.randrange(nbits)
        b = rng.randrange(nbits)
        mm = wedge_insert(a, wedge_insert(b, v)) + wedge_insert(b, wedge_insert(a, v))
        assert mm.is_zero()
        dd = contract(a, contract(b, v)) + contract(b, contract(a, v))
        assert dd.is_zero()
        md = wedge_insert(a, contract(b, v)) + contract(b, wedge_insert(a, v))
        if a == b:
            assert md == v
        else:
            assert md.is_zero()


def _assert_fractions(v):
    assert all(type(c) is Fraction and c != 0 for c in v.terms.values())


def test_wedge_and_contract_match_reference_on_every_small_monomial():
    for mask in range(1 << 10):
        v = ExteriorVector.monomial(mask, -3)
        for idx in range(11):
            for fast, slow in ((wedge_insert, wedge_insert_reference),
                               (contract, contract_reference)):
                got = fast(idx, v)
                assert got == slow(idx, v)
                _assert_fractions(got)


def test_wedge_and_contract_match_reference_on_random_vectors():
    rng = random.Random(20240807)
    for trial in range(200):
        nbits = rng.randint(1, 16)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            c = rng.randint(-4, 4)
            # half the vectors carry plain ints, half exact rationals
            terms[rng.getrandbits(nbits)] = c if trial % 2 else Fraction(c, rng.choice((1, 2, 3)))
        v = ExteriorVector(terms)
        idx = rng.randrange(nbits + 1)
        for fast, slow in ((wedge_insert, wedge_insert_reference), (contract, contract_reference)):
            got = fast(idx, v)
            assert got == slow(idx, v)
            _assert_fractions(got)


def test_every_operation_returns_fraction_coefficients():
    ints = ExteriorVector({1: 1, 0b110: -2, 0b1000: 0})
    assert ints.terms == {1: 1, 0b110: -2}
    _assert_fractions(ints)
    alg = ExteriorAlgebra(2, 2)
    spec = alg.oe_operator(("gl", 1, 2)) + alg.oe_operator(("gl", 1, 1))
    results = [
        ExteriorVector({1: 1}) + ExteriorVector(),
        ExteriorVector() + ExteriorVector({1: 1}),
        ExteriorVector() - ints,
        ints - ExteriorVector({1: 1}),
        ints.scaled(3),
        ints.scaled(Fraction(1, 2)),
        alg.neg_id(ints),
        alg.substitute_rows({1: 2, 2: 1}, ints),
        alg.substitute_rows({1: 2}, ExteriorVector({1: 1, 0b100: 1})),
        wedge_insert(3, ints),
        contract(1, ints),
        spec.apply(ints),
        ExteriorVector.monomial(5, 2),
    ]
    for v in results:
        assert not v.is_zero()
        _assert_fractions(v)
    # cancellation drops the monomial
    assert (ints - ints).is_zero() and ints.scaled(0).is_zero()
    assert alg.substitute_rows({1: 2}, ExteriorVector({1: 1, 0b100: -1})).is_zero()


def _oe_operator_reference(alg, label):
    """oe_operator built row by row with one kbar call each, the per-row offsets' reference."""
    kind, i, j = label
    n, i, j = alg.n, i - 1, j - 1
    terms = [(Fraction(-alg.N, 2), ())] if kind == "gl" and i == j else []
    for k in range(1, alg.N + 1):
        row, bar = (k - 1) * n, (alg.kbar(k) - 1) * n
        if kind == "gl":
            terms.append((Fraction(1), (("M", row + i), ("D", row + j))))
        elif kind == "raise":
            terms.append((Fraction(1), (("M", row + i), ("M", bar + j))))
        else:
            terms.append((Fraction(1), (("D", bar + i), ("D", row + j))))
    return OperatorSpec(tuple(terms))


def _ov_operator_reference(alg, mat):
    n, terms = alg.n, []
    for (p, q), c in mat.items():
        if c != 0:
            for s in range(n):
                terms.append((Fraction(c), (("M", (p - 1) * n + s), ("D", (q - 1) * n + s))))
    return OperatorSpec(tuple(terms))


def _assert_same_spec(got, want):
    assert got.terms == want.terms
    assert all(type(c) is Fraction for c, _ in got.terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_operator_tables_match_per_row_reference(n):
    for big_n in range(1, 9):
        alg = ExteriorAlgebra(n, big_n)
        d, cols = alg.d, range(1, n + 1)
        want = {
            "column_raising": {str(label): _oe_operator_reference(alg, label)
                               for label in alg.npos_oE_labels()},
            "row_raising": {name: _ov_operator_reference(alg, mat)
                            for name, mat in alg.npos_oV_matrices()},
            "row_cartan": {f"t_{i}": _ov_operator_reference(alg, {(i, i): 1, (i + d, i + d): -1})
                           for i in range(1, d + 1)},
            "column_cartan": {f"h_{i}": _oe_operator_reference(alg, ("gl", i, i)) for i in cols},
        }
        for name, table in want.items():
            got = getattr(alg, name)
            assert list(got) == list(table)
            for key, spec in table.items():
                _assert_same_spec(got[key], spec)
        labels = [("gl", i, j) for i in cols for j in cols]
        labels += [
            (kind, i, j) for kind in ("raise", "lower") for i in cols for j in cols if i != j
        ]
        for label in labels:
            _assert_same_spec(alg.oe_operator(label), _oe_operator_reference(alg, label))


def test_operator_builders_reject_bad_labels():
    alg = ExteriorAlgebra(3, 4)
    for label, message in [
        (("gl", 0, 1), "column indices out of range"),
        (("raise", 1, 4), "column indices out of range"),
        (("shift", 1, 2), "unknown column-side label"),
        (("raise", 2, 2), "raise operators need i != j"),
        (("lower", 3, 3), "lower operators need i != j"),
    ]:
        with pytest.raises(ValidationError, match=message):
            alg.oe_operator(label)
    with pytest.raises(ValidationError, match=r"row indices \(5, 1\) out of range"):
        alg.ov_operator({(1, 2): 1, (5, 1): 1})
    assert alg.ov_operator({(1, 2): 0}).terms == ()


def test_coefficients_stay_dyadic():
    rng = random.Random(7)
    alg = ExteriorAlgebra(2, 3)
    v = random_vector(rng, 6)
    for label in alg.npos_oE_labels():
        image = alg.oe_operator(label).apply(v)
        for c in image.terms.values():
            assert c.denominator & (c.denominator - 1) == 0  # power of two


def _composed_apply(spec, x):
    """The definition of OperatorSpec.apply: compose wedge_insert and contract
    letter by letter, right to left, and sum the scaled images."""
    out = ExteriorVector()
    for coeff, word in spec.terms:
        cur = x
        for kind, idx in reversed(word):
            cur = wedge_insert(idx, cur) if kind == "M" else contract(idx, cur)
        out = out + cur.scaled(coeff)
    return out


def _operator_pool(alg):
    """Every operator the verifier applies (its four tables), plus the whole gl
    family and the lowering family."""
    n = alg.n
    labels = [("gl", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    labels += [("lower", i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    tables = (alg.column_raising, alg.row_raising, alg.row_cartan, alg.column_cartan)
    return [op for table in tables for op in table.values()] + [
        alg.oe_operator(label) for label in labels
    ]


def _assert_same_image(spec, v):
    got = spec.apply(v)
    assert got == _composed_apply(spec, v)
    assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("n, big_n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_apply_matches_composition_on_every_monomial(n, big_n):
    alg = ExteriorAlgebra(n, big_n)
    for spec in _operator_pool(alg):
        for mask in range(1 << (n * big_n)):
            _assert_same_image(spec, ExteriorVector.monomial(mask))


def test_apply_matches_composition_on_random_vectors():
    rng = random.Random(20240804)
    pools = {dims: _operator_pool(ExteriorAlgebra(*dims)) for dims in [(2, 3), (3, 3), (2, 4)]}
    for trial in range(200):
        (n, big_n), pool = rng.choice(list(pools.items()))
        nbits = n * big_n
        terms = {}
        for _ in range(rng.randint(1, 6)):
            c = rng.randint(-4, 4)
            # half the vectors carry plain ints, half exact rationals
            terms[rng.getrandbits(nbits)] = c if trial % 2 else Fraction(c, rng.choice((1, 2, 3)))
        spec = rng.choice(pool) + rng.choice(pool).scaled(Fraction(rng.randint(-3, 3), 2))
        _assert_same_image(spec, ExteriorVector(terms))
    # an empty spec and the zero vector
    _assert_same_image(OperatorSpec(()), ExteriorVector({1: 1}))
    _assert_same_image(pools[(2, 3)][0], ExteriorVector())


def _per_factor_gl_reference(alg, i, j, v):
    """Independent oracle: apply the one-factor operator inside each factor
    block of the tensor encoding, with block-local signs only."""
    n, big_n = alg.n, alg.N
    out = ExteriorVector()
    for k in range(1, big_n + 1):
        block = [alg.index(k, s) for s in range(1, n + 1)]
        for mask, coeff in v.terms.items():
            a, b = alg.index(k, i), alg.index(k, j)
            if i == j:
                scale = Fraction(1, 2) if mask & (1 << a) else Fraction(-1, 2)
                out = out + ExteriorVector({mask: coeff * scale})
                continue
            if not mask & (1 << b) or mask & (1 << a):
                continue
            between = [
                idx for idx in block if min(a, b) < idx < max(a, b) and mask & (1 << idx)
            ]
            sign = -1 if len(between) % 2 else 1
            out = out + ExteriorVector({(mask & ~(1 << b)) | (1 << a): coeff * sign})
    return out


def test_gl_action_matches_per_factor_reference():
    rng = random.Random(99)
    for n, big_n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        alg = ExteriorAlgebra(n, big_n)
        labels = [("gl", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for label in labels:
            spec = alg.oe_operator(label)
            for mask in range(1 << (n * big_n)):
                v = ExteriorVector.monomial(mask)
                assert spec.apply(v) == _per_factor_gl_reference(alg, *label[1:], v)
        for _ in range(20):
            label = rng.choice(labels)
            v = random_vector(rng, n * big_n)
            assert alg.oe_operator(label).apply(v) == _per_factor_gl_reference(alg, *label[1:], v)


def test_cartan_h_on_monomials():
    alg = ExteriorAlgebra(3, 2)
    vac = ExteriorVector.unit()
    for i in (1, 2, 3):
        assert alg.column_cartan[f"h_{i}"].apply(vac) == vac.scaled(Fraction(-2, 2))
    full = ExteriorVector.monomial((1 << 6) - 1)
    for i in (1, 2, 3):
        assert alg.column_cartan[f"h_{i}"].apply(full) == full.scaled(1)


def _oe_matrix(label, n):
    kind, i, j = label
    m = [[0] * (2 * n) for _ in range(2 * n)]
    if kind == "gl":
        m[i - 1][j - 1] += 1
        m[j - 1 + n][i - 1 + n] -= 1
    elif kind == "raise":
        m[i - 1][j - 1 + n] += 1
        m[j - 1][i - 1 + n] -= 1
    elif kind == "lower":
        m[i - 1 + n][j - 1] += 1
        m[j - 1 + n][i - 1] -= 1
    return m


def _mat_commutator(a, b):
    size = len(a)
    ab = [
        [sum(a[r][k] * b[k][c] for k in range(size)) for c in range(size)]
        for r in range(size)
    ]
    ba = [
        [sum(b[r][k] * a[k][c] for k in range(size)) for c in range(size)]
        for r in range(size)
    ]
    return [[ab[r][c] - ba[r][c] for c in range(size)] for r in range(size)]


def _decompose_oe(m, n):
    """Write an even-orthogonal matrix in the gl/raise/lower operator basis."""
    combo = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if m[i - 1][j - 1]:
                combo.append((("gl", i, j), m[i - 1][j - 1]))
        for j in range(i + 1, n + 1):
            if m[i - 1][j - 1 + n]:
                combo.append((("raise", i, j), m[i - 1][j - 1 + n]))
            if m[i - 1 + n][j - 1]:
                combo.append((("lower", i, j), m[i - 1 + n][j - 1]))
    return combo


def test_representation_property_random():
    # operator commutators realize matrix commutators
    rng = random.Random(20240802)
    for n, big_n in [(2, 2), (3, 2)]:
        alg = ExteriorAlgebra(n, big_n)
        labels = [("gl", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        labels += [
            (kind, i, j)
            for kind in ("raise", "lower")
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
        for _ in range(25):
            x = rng.choice(labels)
            y = rng.choice(labels)
            v = random_vector(rng, n * big_n, terms=4)
            op_x, op_y = alg.oe_operator(x), alg.oe_operator(y)
            got = op_x.apply(op_y.apply(v)) - op_y.apply(op_x.apply(v))
            bracket = _mat_commutator(_oe_matrix(x, n), _oe_matrix(y, n))
            combo = None
            for label, coeff in _decompose_oe(bracket, n):
                spec = alg.oe_operator(label).scaled(coeff)
                combo = spec if combo is None else combo + spec
            want = ExteriorVector() if combo is None else combo.apply(v)
            assert got == want


def test_npos_oV_matrix_names_and_order():
    assert ExteriorAlgebra(2, 4).npos_oV_matrices() == [
        ("E(1,2)-E(4,3)", {(1, 2): 1, (4, 3): -1}),
        ("E(1,4)-E(2,3)", {(1, 4): 1, (2, 3): -1}),
    ]
    assert ExteriorAlgebra(2, 5).npos_oV_matrices() == [
        ("E(1,2)-E(4,3)", {(1, 2): 1, (4, 3): -1}),
        ("E(1,4)-E(2,3)", {(1, 4): 1, (2, 3): -1}),
        ("E(1,5)-E(5,3)", {(1, 5): 1, (5, 3): -1}),
        ("E(2,5)-E(5,4)", {(2, 5): 1, (5, 4): -1}),
    ]


def test_operator_tables_names_and_order():
    for n, big_n in [(2, 4), (3, 5)]:
        alg = ExteriorAlgebra(n, big_n)
        assert list(alg.column_raising) == [str(label) for label in alg.npos_oE_labels()]
        assert list(alg.row_raising) == [name for name, _ in alg.npos_oV_matrices()]
        assert list(alg.row_cartan) == [f"t_{i}" for i in range(1, alg.d + 1)]
        assert list(alg.column_cartan) == [f"h_{i}" for i in range(1, n + 1)]
    assert ExteriorAlgebra(3, 2).npos_oE_labels() == [
        ("gl", 1, 2), ("gl", 1, 3), ("gl", 2, 3),
        ("raise", 1, 2), ("raise", 1, 3), ("raise", 2, 3),
    ]


def test_operator_specs_are_built_once_per_algebra(monkeypatch):
    built = {"oe": 0, "ov": 0}

    def counting(kind, build):
        def wrapper(self, arg):
            built[kind] += 1
            return build(self, arg)

        return wrapper

    for kind in ("oe", "ov"):
        name = f"{kind}_operator"
        monkeypatch.setattr(ExteriorAlgebra, name, counting(kind, getattr(ExteriorAlgebra, name)))
    alg = ExteriorAlgebra(3, 5)
    # the top vector and the group elements need no operator
    vec = alg.xi_lambda(Weight((3, 1, 1)))
    alg.neg_id(vec)
    assert built == {"oe": 0, "ov": 0}
    for v in (vec, vec + ExteriorVector.unit()):
        alg.check_singular(v)
        alg.weight_of_vector(v)
    # weights are read off the bits, so only the raising operators are built
    assert built == {"oe": len(alg.npos_oE_labels()), "ov": len(alg.npos_oV_matrices())}


def _substitute_rows_by_inversions(alg, row_map, v):
    """Oracle: list the relabelled factors in the monomial's order and sign the
    result by the parity of their inversions."""
    out = ExteriorVector()
    for m, c in v.terms.items():
        indices = [
            alg.index(row_map.get(bit // alg.n + 1, bit // alg.n + 1), bit % alg.n + 1)
            for bit in range(m.bit_length())
            if m >> bit & 1
        ]
        if len(set(indices)) != len(indices):
            raise ValidationError("row relabeling is not injective")
        inv = sum(1 for a, x in enumerate(indices) for y in indices[a + 1 :] if x > y)
        out = out + ExteriorVector({sum(1 << i for i in indices): c * (-1) ** inv})
    return out


@pytest.mark.parametrize("n, big_n", [(2, 2), (2, 3), (3, 2)])
def test_substitute_rows_matches_inversion_count_on_every_monomial(n, big_n):
    alg = ExteriorAlgebra(n, big_n)
    for perm in itertools.permutations(range(1, big_n + 1)):
        row_map = dict(zip(range(1, big_n + 1), perm))
        for mask in range(1 << (n * big_n)):
            v = ExteriorVector.monomial(mask)
            assert alg.substitute_rows(row_map, v) == _substitute_rows_by_inversions(alg, row_map, v)


def test_substitute_rows_matches_inversion_count_on_random_vectors():
    rng = random.Random(20240805)
    for _ in range(300):
        n, big_n = rng.randint(2, 4), rng.randint(2, 6)
        alg = ExteriorAlgebra(n, big_n)
        rows = list(range(1, big_n + 1))
        row_map = dict(zip(rows, rng.sample(rows, big_n)))
        v = random_vector(rng, n * big_n)
        assert alg.substitute_rows(row_map, v) == _substitute_rows_by_inversions(alg, row_map, v)
    alg = ExteriorAlgebra(2, 3)
    with pytest.raises(ValidationError, match="not injective"):
        alg.substitute_rows({1: 2}, ExteriorVector.monomial(0b000101))


def test_row_and_column_actions_commute():
    rng = random.Random(20240803)
    for n, big_n in [(2, 2), (2, 3)]:
        alg = ExteriorAlgebra(n, big_n)
        row_mats = [mat for _, mat in alg.npos_oV_matrices()]
        row_mats.append({(1, 1): 1, (1 + alg.d, 1 + alg.d): -1})
        col_labels = alg.npos_oE_labels() + [("gl", i, i) for i in range(1, n + 1)]
        for _ in range(25):
            v = random_vector(rng, n * big_n, terms=4)
            mat = rng.choice(row_mats)
            label = rng.choice(col_labels)
            one = alg.ov_operator(mat).apply(alg.oe_operator(label).apply(v))
            other = alg.oe_operator(label).apply(alg.ov_operator(mat).apply(v))
            assert one == other


def test_row_action_kills_vacuum():
    # the empty monomial dies under every derivation, and under the column-side
    # lowering family; the column-side raising family moves it (it is the
    # bottom of its component, not the top)
    for n, big_n in [(2, 2), (2, 3), (3, 3)]:
        alg = ExteriorAlgebra(n, big_n)
        vac = ExteriorVector.unit()
        for _, mat in alg.npos_oV_matrices():
            assert alg.ov_operator(mat).apply(vac).is_zero()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert alg.oe_operator(("lower", i, j)).apply(vac).is_zero()
                assert not alg.oe_operator(("raise", i, j)).apply(vac).is_zero()


def test_full_monomial_is_singular():
    for n, big_n in [(2, 2), (2, 3), (3, 3)]:
        alg = ExteriorAlgebra(n, big_n)
        full = ExteriorVector.monomial((1 << (n * big_n)) - 1)
        assert alg.check_singular(full).all_zero


def test_cartan_t_counts_rows():
    alg = ExteriorAlgebra(2, 2)
    mono = ExteriorVector.monomial(0)
    v = alg.xi_lambda(Weight((2, 0)))
    # factors: rows 1,2 in column 1 and row 1 in column 2
    assert alg.row_cartan["t_1"].apply(v) == v.scaled(1)
    assert alg.row_cartan["t_1"].apply(mono).is_zero()


def test_xi_lambda_examples():
    alg = ExteriorAlgebra(2, 2)
    v = alg.xi_lambda(Weight((2, 0)))
    (mask,) = v.terms
    assert mask == 0b0111  # cells (1,1), (1,2) wait bits: (k,i)

    full = ExteriorAlgebra(2, 2).xi_lambda(Weight((2, 2)))
    (fmask,) = full.terms
    assert fmask == 0b1111

    big = ExteriorAlgebra(4, 7).xi_lambda(Weight((3, 1, 1, -1)))
    (bmask,) = big.terms
    assert bin(bmask).count("1") == 5 + 4 + 4 + 3


def test_weight_of_vector_worked():
    alg = ExteriorAlgebra(2, 2)
    v = alg.xi_lambda(Weight((2, 0)))
    report = alg.weight_of_vector(v)
    assert report.is_weight
    assert report.right == Weight((2, 0))
    assert report.left == OrthWeight((2,), 2) == kappa(Weight((2, 0)), 2)

    vac_report = alg.weight_of_vector(ExteriorVector.unit())
    assert vac_report.is_weight
    assert vac_report.right == Weight((-2, -2))
    assert vac_report.left == OrthWeight((0,), 2)

    mixed = v + ExteriorVector.unit()
    assert not alg.weight_of_vector(mixed).is_weight


def _weight_by_eigenvalues(alg, v):
    """The operator form of weight_of_vector: v is a weight vector when it is an
    eigenvector of every t_i and h_i, and its weight doubles the eigenvalues."""
    if v.is_zero():
        return False, None, None
    anchor = next(iter(v.terms))
    doubled = []
    for spec in (*alg.row_cartan.values(), *alg.column_cartan.values()):
        image = spec.apply(v)
        c = image.terms.get(anchor, 0) / v.terms[anchor]
        if image != v.scaled(c):
            return False, None, None
        assert (2 * c).denominator == 1
        doubled.append(int(2 * c))
    left, right = tuple(doubled[: alg.d]), tuple(doubled[alg.d :])
    return True, OrthWeight(left, alg.N), Weight(right)


@pytest.mark.parametrize(
    "n, big_n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 3)]
)
def test_every_monomial_is_a_cartan_eigenvector_of_its_bit_weight(n, big_n):
    alg = ExteriorAlgebra(n, big_n)
    specs = (*alg.row_cartan.values(), *alg.column_cartan.values())
    for mask in range(1 << (n * big_n)):
        v = ExteriorVector.monomial(mask)
        report = alg.weight_of_vector(v)
        assert report.is_weight
        doubled = (*report.left.coords2, *report.right.coords2)
        for spec, c2 in zip(specs, doubled, strict=True):
            assert spec.apply(v) == v.scaled(Fraction(c2, 2))


def test_weight_of_vector_matches_eigenvalues_on_random_vectors():
    rng = random.Random(20240806)
    buckets = {}
    for dims in [(2, 3), (3, 3), (2, 4)]:
        alg = ExteriorAlgebra(*dims)
        by_weight = {}
        for mask in range(1 << (dims[0] * dims[1])):
            weight = _weight_by_eigenvalues(alg, ExteriorVector.monomial(mask))
            by_weight.setdefault(weight, []).append(mask)
        buckets[dims] = (alg, list(by_weight.values()))
    seen = set()
    for trial in range(300):
        alg, groups = buckets[rng.choice(list(buckets))]
        # a third of the vectors share one weight; the rest draw any monomials
        pool = rng.choice(groups) if trial % 3 == 0 else range(1 << (alg.n * alg.N))
        terms = {rng.choice(pool): Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
                 for _ in range(rng.randint(1, 5))}
        v = ExteriorVector(terms)
        report = alg.weight_of_vector(v)
        assert (report.is_weight, report.left, report.right) == _weight_by_eigenvalues(alg, v)
        seen.add((report.is_weight, len(v.terms) > 1))
    assert seen == {(True, False), (True, True), (False, True)}
    assert not ExteriorAlgebra(2, 3).weight_of_vector(ExteriorVector()).is_weight


def test_check_singular_and_corruption():
    alg = ExteriorAlgebra(2, 3)
    for lam in enumerate_delta(2, 3):
        assert alg.check_singular(alg.xi_lambda(lam)).all_zero

    # corrupt one factor of a top vector: replace (row 1, col 1) by (row 2, col 2)
    lam = Weight((3, 1))
    v = alg.xi_lambda(lam)
    (mask,) = v.terms
    a = alg.index(1, 1)
    b = alg.index(2, 2)
    assert mask & (1 << a) and not mask & (1 << b)
    corrupted = ExteriorVector.monomial((mask & ~(1 << a)) | (1 << b))
    assert not alg.check_singular(corrupted).all_zero


def test_kappa_values():
    assert kappa(Weight((3, 1, 1, -1)), 7).coords2 == (8, 8, 6)
    assert kappa(Weight((2, 0)), 2).coords2 == (2,)
    assert kappa(Weight((2, 0, 0)), 2).coords2 == (4,)
    assert kappa_sigma(Weight((2, 0, 0)), 2).coords2 == (-4,)


def test_kappa_is_a_top_row_of_the_patterns():
    count = 0
    for n in range(2, 5):
        for big_n in range(3, 8):
            for lam in enumerate_delta(n, big_n):
                tops = {p.betas[0] for p in enumerate_gtp(f_map(diagram_of_weight(lam, big_n)))}
                assert kappa(lam, big_n) in tops
                assert tops <= {kappa(lam, big_n), kappa_sigma(lam, big_n)}
                count += 1
    assert count == 355


def test_group_elements():
    alg = ExteriorAlgebra(2, 2)
    vac = ExteriorVector.unit()
    assert alg.neg_id(vac) == vac
    v = alg.xi_lambda(Weight((2, 2)))
    assert alg.neg_id(v) == v  # degree 4
    swapped = alg.gd_swap(v)
    assert swapped == v  # swap hits two disjoint pairs: sign (+1)^2

    odd = ExteriorAlgebra(2, 3)
    with pytest.raises(ValidationError):
        odd.gd_swap(vac)


def test_gd_sign_branches():
    # even rank n=2: +1 for positive last coordinate, -1 for negative
    alg = ExteriorAlgebra(2, 2)
    plus = alg.xi_lambda(Weight((2, 2)))
    assert alg.gd_swap(plus) == plus
    minus = alg.xi_lambda(Weight((2, -2)))
    assert alg.gd_swap(minus) == minus.scaled(-1)
    # odd rank n=3
    alg3 = ExteriorAlgebra(3, 2)
    plus3 = alg3.xi_lambda(Weight((2, 2, 2)))
    assert alg3.gd_swap(plus3) == plus3.scaled(-1)
    minus3 = alg3.xi_lambda(Weight((2, 2, -2)))
    assert alg3.gd_swap(minus3) == minus3


def test_neg_id_sign_matches_partition_size():
    for n, big_n in [(2, 3), (3, 3), (2, 1)]:
        alg = ExteriorAlgebra(n, big_n)
        for lam in enumerate_delta(n, big_n):
            v = alg.xi_lambda(lam)
            nu = f_map(diagram_of_weight(lam, big_n))
            assert alg.neg_id(v) == v.scaled((-1) ** nu.size())


def test_top_vector_report_format():
    from spincactus.clifford import top_vector_report

    alg = ExteriorAlgebra(2, 2)
    report = top_vector_report(alg, Weight((2, -2)))
    assert report == {
        "lambda2": [2, -2],
        "singular": True,
        "left_weight": [0],
        "right_weight": [2, -2],
        "gd_sign": -1,
        "negid_sign": None,
    }
    odd = top_vector_report(ExteriorAlgebra(2, 3), Weight((1, 1)))
    assert odd["negid_sign"] == 1 and odd["gd_sign"] is None
