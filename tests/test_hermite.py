"""Real/complex root counting through trace forms on the quotient algebra."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    exponent_terms,
    from_exponent_terms,
    lines_to_multipoly,
    random_line_arrangement,
    random_multipoly,
    reference_hermite_matrix,
    reference_signature_and_rank,
    reference_trace_monomial,
    seeded,
    squarefree_distinct_complex_roots,
    sturm_distinct_real_roots,
)
from vortexre import _kernels, hermite
from vortexre.cli import main
from vortexre.groebner import buchberger
from vortexre.halfangle import build_equal_weight_system
from vortexre.hermite import (
    InfiniteVarietyError,
    count_real_roots,
    hermite_matrix,
    quotient_basis,
    signature_and_rank,
)
from vortexre.polynomials import PolynomialRing


def univariate(coeffs, ring):
    """The polynomial sum_k coeffs[k] * x^k in a one-variable ring."""
    return from_exponent_terms(ring, {(k,): c for k, c in enumerate(coeffs)})


@pytest.fixture
def xy_ring():
    return PolynomialRing(("x", "y"))


def test_quotient_basis_staircases(xy_ring):
    def staircase(gens):
        gb = buchberger(gens)
        return tuple(map(gb.ring.packing.exponents, quotient_basis(gb)))

    assert staircase([xy_ring.parse("x"), xy_ring.parse("y")]) == ((0, 0),)
    assert staircase([xy_ring.parse("1")]) == ()
    R1 = PolynomialRing(("x",))
    assert staircase([R1.parse("x^2 - 2")]) == ((0,), (1,))
    # ascending under degrevlex: the degree first, then y before x
    gb = buchberger([xy_ring.parse(g) for g in ("x^2 - y", "y^3 - 1")])
    assert staircase(gb.polys) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2))


def test_quotient_basis_matches_bezout_bound(xy_ring):
    gb = buchberger([xy_ring.parse("y - x^2"), xy_ring.parse("x^2 + y^2 - 1")])
    assert len(quotient_basis(gb)) == 4


def test_positive_dimensional_ideal_rejected(xy_ring):
    with pytest.raises(InfiniteVarietyError):
        quotient_basis(buchberger([xy_ring.parse("x - y")]))


def test_multiplication_traces_on_sqrt_two():
    R = PolynomialRing(("x",))
    gb = buchberger([R.parse("x^2 - 2")])
    traces, x = hermite._Traces(gb, quotient_basis(gb)), R.packing.pack((1,))
    assert traces.trace_monomial(0) == 2  # identity trace = dimension
    assert traces.trace_monomial(x) == 0  # roots +-sqrt(2) sum to zero
    assert traces.trace_monomial(2 * x) == 4  # squares sum to 4
    # beyond the products b_i*b_j: odd powers cancel, and x^6 gives 8 + 8
    assert traces.trace_monomial(5 * x) == 0
    assert traces.trace_monomial(6 * x) == 16


def test_traces_of_high_powers_walk_the_parent_chain():
    # x^k reaches its normal form through x^(k-1), ..., x^2: a walk of k
    # steps, longer than the interpreter's recursion limit
    R = PolynomialRing(("x",))
    traces = hermite._Traces(buchberger([R.parse("x^2 - 2")]), (0, R.packing.pack((1,))))
    assert traces.trace_monomial(R.packing.pack((1100,))) == 2**551
    assert traces.trace_monomial(R.packing.pack((3000,))) == 2**1501
    assert traces.trace_monomial(R.packing.pack((3001,))) == 0


def test_hermite_matrix_of_sqrt_two():
    R = PolynomialRing(("x",))
    gb = buchberger([R.parse("x^2 - 2")])
    H = hermite_matrix(gb, quotient_basis(gb))
    assert H == ((2, 0), (0, 4))
    rc = signature_and_rank(H)
    assert (rc.real_distinct, rc.complex_distinct) == (2, 2)


def test_signature_hand_values():
    cases = [
        ([[2, 0], [0, 4]], (2, 2)),
        ([[2, 0], [0, -2]], (0, 2)),  # opposite-sign pair
        ([[0, 1], [1, 0]], (0, 2)),  # hyperbolic plane, zero diagonal
        ([[0, 0], [0, 0]], (0, 0)),
        ([[1, 2], [2, 4]], (1, 1)),  # rank one
    ]
    for entries, expected in cases:
        rc = signature_and_rank(entries)
        assert (rc.real_distinct, rc.complex_distinct) == expected


def test_signature_invariant_under_congruence():
    # Sylvester: A^T D A has the inertia of D for any invertible A
    rng = seeded(31)
    for _ in range(25):
        n = rng.randint(2, 5)
        diag = [rng.choice([-1, 0, 1, 2, -3]) for _ in range(n)]
        while True:
            A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if np.linalg.matrix_rank(np.array(A, dtype=float)) == n:
                break
        M = [
            [
                sum(A[k][i] * diag[k] * A[k][j] for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        pos = sum(1 for d in diag if d > 0)
        neg = sum(1 for d in diag if d < 0)
        rc = signature_and_rank(M)
        assert rc.real_distinct == pos - neg
        assert rc.complex_distinct == pos + neg


def test_signature_matches_float_eigenvalues():
    rng = seeded(32)
    for _ in range(20):
        n = rng.randint(2, 6)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-5, 5)
        eigs = np.linalg.eigvalsh(np.array(M, dtype=float))
        pos = int(np.sum(eigs > 1e-9))
        neg = int(np.sum(eigs < -1e-9))
        if pos + neg != np.linalg.matrix_rank(np.array(M, dtype=float), tol=1e-9):
            continue  # numerically ambiguous, skip
        rc = signature_and_rank(M)
        assert (rc.real_distinct, rc.complex_distinct) == (pos - neg, pos + neg)


def test_hermite_matrix_is_exactly_symmetric(xy_ring):
    gb = buchberger([xy_ring.parse("y - x^2"), xy_ring.parse("x^2 + y^2 - 7")])
    H = hermite_matrix(gb, quotient_basis(gb))
    assert H == tuple(zip(*H))
    assert H[0][0] == len(H)


def test_univariate_counts_match_sturm_oracle():
    R = PolynomialRing(("x",))
    rng = seeded(33)
    checked = 0
    while checked < 60:
        deg = rng.randint(1, 7)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        rc = count_real_roots([univariate(coeffs, R)])
        assert rc.real_distinct == sturm_distinct_real_roots(coeffs)
        assert rc.complex_distinct == squarefree_distinct_complex_roots(coeffs)
        checked += 1


def test_line_arrangement_counts_are_combinatorial(xy_ring):
    for seed in range(10):
        rng = seeded(400 + seed)
        f, g, expected = random_line_arrangement(rng, rng.randint(1, 3), rng.randint(1, 3))
        rc = count_real_roots(
            [lines_to_multipoly(xy_ring, f), lines_to_multipoly(xy_ring, g)]
        )
        assert rc.real_distinct == expected
        # real lines only ever meet in real points
        assert rc.complex_distinct == expected


def test_separated_product_systems_multiply_counts(xy_ring):
    rng = seeded(34)
    for _ in range(8):
        fc = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 6)]
        gc = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 6)]
        fx = univariate(fc, PolynomialRing(("x",)))
        gy = univariate(gc, PolynomialRing(("y",)))
        f2 = xy_ring.parse(str(fx))
        g2 = xy_ring.parse(str(gy))
        rc = count_real_roots([f2, g2])
        assert rc.real_distinct == sturm_distinct_real_roots(fc) * sturm_distinct_real_roots(gc)
        assert rc.complex_distinct == (
            squarefree_distinct_complex_roots(fc) * squarefree_distinct_complex_roots(gc)
        )


def test_parabola_circle_intersection(xy_ring):
    rc = count_real_roots([xy_ring.parse("y - x^2"), xy_ring.parse("x^2 + y^2 - 1")])
    assert (rc.real_distinct, rc.complex_distinct) == (2, 4)


def test_inconsistent_system_counts_zero(xy_ring):
    rc = count_real_roots([xy_ring.parse("1")])
    assert (rc.real_distinct, rc.complex_distinct) == (0, 0)


def test_real_and_complex_counts_share_parity(xy_ring):
    # non-real roots come in conjugate pairs
    rng = seeded(35)
    done = 0
    while done < 10:
        gens = [random_multipoly(xy_ring, rng, max_terms=3, max_deg=3) for _ in range(2)]
        try:
            rc = count_real_roots(gens)
        except InfiniteVarietyError:
            continue
        assert (rc.complex_distinct - rc.real_distinct) % 2 == 0
        assert 0 <= rc.real_distinct <= rc.complex_distinct
        done += 1


# -- the trace matrix and the signature against the reference engine ----------

# sha256 of `certify --mu=<mu> --show-basis --show-matrix` stdout, recorded
# from the engine that reduced every triple product b_i*b_j*b_c on its own.
CERTIFY_GOLDENS = {
    ("1,1,1", "json"): "61505924f5b4372bee43ddf76bfbcf3e5b2504e3eb1f1b5c4a60b924356e438c",
    ("1,1,1", "table"): "c43506213a9e84b07b81bb96150b4fd7fef91dd0bac14e842d5e251fe8f96cc7",
    ("2,1,9", "json"): "a8cf70e27753cfa89f4dbbfb35e300d957c7eff4d6b7403bc43c845579e5ce21",
    ("2,1,9", "table"): "fc9bebc67b1e7f3d5ca9f9155059cc183593c1d94e517cf5fd91f3d8edb74ba0",
    ("2,-1,3", "json"): "f51e16a2e65c6e7d1c6e7d99247694ac968db9c639b82e9ad3cbfc4718fd85a9",
    ("2,-1,3", "table"): "7fb9f9b98787c3fcb2476914aaccd1077285cf295c9f7a4c4a72a17f760c2218",
    ("-1,-3,10", "json"): "229cc06ac892fbf58ac582102e1dd0fe4124c349fa2b211fa9d4267516eb46e2",
    ("-1,-3,10", "table"): "63e75caffef9d904e6bf50e4544c06497c4c2d7f9361abbd2d1779691e6cbd56",
}


# The same, in json, for mixed-sign benchmark-pool vectors with the largest
# |mu|, recorded from the engine that reduced over Fraction coefficients.
CERTIFY_POOL_GOLDENS = {
    "-5,2,12": "c50ea8d32f5ecd1a40feb4289f704ca788b3119c353971213395d4d836f3c335",
    "11,5,-12": "a982c6e03b9399bb13e80953b18d6a564777b480a9a574e591dbb179aa5cf79e",
    "12,-10,-7": "0263861a9f6e1fc59fa27183cb625d710b83e2f31b283d0cfab6b886ce687c1d",
    "-5,-12,2": "d20c40333cf5efcdf9eb55d3b3a18689b3ff04f47775c773dc68f799183ec7f5",
    "2,-12,-9": "58d76bb7303b14b937898fd5b08b6ac00ace8bed8dbf93cbe2abe4bf824c3f5d",
    "3,-11,12": "8ff0592b62de9a95657dda409b69ba6e6cba11539a871bbc4f4d5660e9593fd3",
    "-7,12,-12": "5ddbb1744bc21a487bccf0350a4a313d0673e8d14a71bef0abc41f0b05a412a7",
    "-12,-11,9": "c4e3d639bdf90db1bf68bc2590081b9e4d854bd5cc631218eb6a026ac47810fe",
}


@pytest.mark.parametrize("mu,fmt", sorted(CERTIFY_GOLDENS))
def test_certify_basis_and_matrix_match_goldens(capsys, mu, fmt):
    code = main(["certify", f"--mu={mu}", "--format", fmt, "--show-basis", "--show-matrix"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_GOLDENS[mu, fmt]


@pytest.mark.parametrize("mu", sorted(CERTIFY_POOL_GOLDENS))
def test_certify_pool_vectors_match_goldens(capsys, mu):
    code = main(["certify", f"--mu={mu}", "--format", "json", "--show-basis", "--show-matrix"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_POOL_GOLDENS[mu]


def _small_ideals():
    xy = PolynomialRing(("x", "y"))
    R1 = PolynomialRing(("x",))
    yield [R1.parse("x^2 - 2")]
    # (x - 1)(x - 2)(x - 3)(x^2 + 1)
    yield [R1.parse("x^5 - 6*x^4 + 12*x^3 - 12*x^2 + 11*x - 6")]
    yield [xy.parse("y - x^2"), xy.parse("x^2 + y^2 - 1")]
    yield [xy.parse("y - x^2"), xy.parse("x^2 + y^2 - 7")]
    yield [xy.parse("x^3 - x"), xy.parse("x*y^2 - y - x")]
    for seed in range(4):
        rng = seeded(400 + seed)
        f, g, _ = random_line_arrangement(rng, rng.randint(1, 3), rng.randint(1, 3))
        yield [lines_to_multipoly(xy, f), lines_to_multipoly(xy, g)]
    xyz = PolynomialRing(("x", "y", "z"))
    yield [xyz.parse(g) for g in ("x^2 - y - z", "y^2 - 2*z", "z^3 - x - 1")]
    rng = seeded(35)
    found = 0
    while found < 6:
        gens = [random_multipoly(xy, rng, max_terms=3, max_deg=3) for _ in range(2)]
        try:
            quotient_basis(buchberger(gens))
        except (InfiniteVarietyError, ValueError):
            continue
        found += 1
        yield gens


@pytest.mark.parametrize("mu", [(10, -3, 2), (-4, -5, -3), (-11, 8, 6),
                                (-9, 7, 9), (-9, -5, 11), (-4, -6, -5),
                                # every staircase the N=3 pool meets: quotient
                                # dimension 24, 20 and 22; then one variable
                                (1, 1, 1), (2, 1, 9), (2, -1, 3), (-4, -7, 9),
                                (-1, 1, 1), (2, 2, -1), (-1, 1, 2), (1, -2)])
def test_hermite_matrix_matches_reference_on_vortex_systems(mu):
    gb = buchberger(build_equal_weight_system(mu).polys)
    basis = quotient_basis(gb)
    assert hermite_matrix(gb, basis) == tuple(
        map(tuple, reference_hermite_matrix(gb, basis)))


def test_hermite_matrix_and_traces_match_reference_on_small_ideals():
    rng = seeded(36)
    checked = 0
    for gens in _small_ideals():
        gb = buchberger(gens)
        basis = quotient_basis(gb)
        H = hermite_matrix(gb, basis)
        assert H == tuple(map(tuple, reference_hermite_matrix(gb, basis)))
        traces = hermite._Traces(gb, basis)
        for m in exponent_terms(random_multipoly(gb.ring, rng, max_terms=4, max_deg=5)):
            assert traces.trace_monomial(gb.ring.packing.pack(m)) == \
                reference_trace_monomial(m, gb, basis, {})
        checked += 1
    assert checked >= 16


@pytest.mark.parametrize("generators,dimension,inner_border", [
    (("x^2 + y + z - 3", "y^2 + x*z - 1", "z^2 - x - y + 2"), 8, 9),
    (("x^3 - y*z - 1", "y^2 - x + z", "z^2 + x*y - 2"), 12, 10),
])
def test_traces_match_reference_through_border_monomials_without_parity(
        generators, dimension, inner_border):
    xyz = PolynomialRing(("x", "y", "z"))
    gb = buchberger([xyz.parse(g) for g in generators])
    basis = quotient_basis(gb)
    exponents = [xyz.packing.exponents(b) for b in basis]
    # x_k*b outside the basis and not a leading monomial: its normal form
    # is combined from lower ones, not read off a basis tail
    border = {b[:k] + (b[k] + 1,) + b[k + 1:] for b in exponents for k in range(3)}
    assert len(basis) == dimension
    leading = {xyz.packing.exponents(lm) for lm, _ in gb.elements}
    assert len(border - set(exponents) - leading) == inner_border
    assert hermite_matrix(gb, basis) == tuple(
        map(tuple, reference_hermite_matrix(gb, basis)))
    traces, cache = hermite._Traces(gb, basis), {}
    for m in sorted(border):
        assert traces.trace_monomial(xyz.packing.pack(m)) == \
            reference_trace_monomial(m, gb, basis, cache)


def test_hermite_matrix_divides_no_polynomial(monkeypatch):
    gb = buchberger(build_equal_weight_system((2, -1, 3)).polys)
    basis = quotient_basis(gb)
    want = hermite_matrix(gb, basis)

    def refuse(*args):
        raise AssertionError("reduce_integer was called")

    monkeypatch.setattr(_kernels, "reduce_integer", refuse)
    assert hermite_matrix(gb, basis) == want
    assert signature_and_rank(want) == hermite.RootCount(10, 16)


def _random_symmetric(rng, n):
    """A symmetric rational matrix: dense, zero-diagonal, low rank or sparse."""
    kind = rng.choice(["dense", "zero_diagonal", "low_rank", "sparse"])
    if kind == "low_rank" and n:
        r = rng.randint(0, n - 1)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        d = [Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 5])) for _ in range(r)]
        return [[sum((A[k][i] * d[k] * A[k][j] for k in range(r)), Fraction(0))
                 for j in range(n)] for i in range(n)]
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "zero_diagonal" and i == j:
                continue
            if kind == "sparse" and rng.random() < 0.7:
                continue
            M[i][j] = M[j][i] = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 7]))
    return M


def test_signature_matches_fraction_reference(monkeypatch):
    pivots = []
    congruence = hermite._congruence

    def spy(A, i, j, t):
        pivots.append(t)
        return congruence(A, i, j, t)

    monkeypatch.setattr(hermite, "_congruence", spy)
    rng = seeded(37)
    for trial in range(600):
        M = _random_symmetric(rng, trial % 9)
        rc = signature_and_rank(M)
        assert (rc.real_distinct, rc.complex_distinct) == reference_signature_and_rank(M)
    # both zero-diagonal pivot rules ran: the swap and the (i+j, j-i) congruence
    assert pivots.count((0, 1, 1, 0)) >= 50
    assert pivots.count((1, 1, -1, 1)) >= 50


# -- the signature block by block ---------------------------------------------

def _direct_sum(blocks, order):
    """The direct sum of the blocks, its indices placed by the permutation
    `order`: index k of the sum goes to position order[k]."""
    n = len(order)
    M = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for B in blocks:
        for i, row in enumerate(B):
            for j, c in enumerate(row):
                M[order[offset + i]][order[offset + j]] = c
        offset += len(B)
    return M


def test_signature_of_interleaved_direct_sums_adds_over_the_blocks():
    rng = seeded(38)
    for _ in range(120):
        blocks = [_random_symmetric(rng, rng.randint(1, 5)) for _ in range(rng.randint(2, 4))]
        order = list(range(sum(map(len, blocks))))
        rng.shuffle(order)
        M = _direct_sum(blocks, order)
        rc = signature_and_rank(M)
        want = [reference_signature_and_rank(B) for B in blocks]
        assert (rc.real_distinct, rc.complex_distinct) == reference_signature_and_rank(M) == (
            sum(s for s, _ in want), sum(r for _, r in want))
        # no component reaches across two blocks
        block_of = [k for k, B in enumerate(blocks) for _ in B]
        position = {p: k for k, p in enumerate(order)}
        for component in hermite._components(M):
            assert len({block_of[position[p]] for p in component}) == 1


def test_signature_with_a_zero_row_and_column():
    M = [[Fraction(2), Fraction(0), Fraction(1, 3)],
         [Fraction(0), Fraction(0), Fraction(0)],
         [Fraction(1, 3), Fraction(0), Fraction(-1)]]
    assert list(hermite._components(M)) == [[0, 2], [1]]
    rc = signature_and_rank(M)
    assert (rc.real_distinct, rc.complex_distinct) == reference_signature_and_rank(M) == (0, 2)


def test_signature_of_zero_and_empty_matrices():
    zero = [[Fraction(0)] * 4 for _ in range(4)]
    assert list(hermite._components(zero)) == [[0], [1], [2], [3]]
    assert signature_and_rank(zero) == hermite.RootCount(0, 0)
    assert list(hermite._components([])) == []
    assert signature_and_rank([]) == hermite.RootCount(0, 0)


def test_equal_weight_trace_form_splits_into_two_parity_blocks():
    gb = buchberger(build_equal_weight_system((1, 1, 1)).polys)
    basis = quotient_basis(gb)
    H = hermite_matrix(gb, basis)
    components = list(hermite._components(H))
    assert sorted(map(len, components)) == [12, 12]
    # the blocks are the even and the odd basis monomials
    exponents = gb.ring.packing.exponents
    assert sorted({sum(exponents(basis[i])) % 2 for i in c} for c in components) == [{0}, {1}]
    counts = [signature_and_rank([[H[i][j] for j in c] for i in c]) for c in components]
    assert sum(c.real_distinct for c in counts) == 14
    assert sum(c.complex_distinct for c in counts) == 16
    assert signature_and_rank(H) == hermite.RootCount(14, 16)
