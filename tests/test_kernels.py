"""Backend parity: the compiled kernels must match the pure-Python ones."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from vortexre._kernels import BACKEND_NAME, pure

speedups = pytest.importorskip(
    "vortexre._kernels._speedups", reason="compiled kernels not built"
)


def random_monomial(rng, n=4, span=6):
    return tuple(rng.randint(0, span) for _ in range(n))


def random_terms(rng, n=4, terms=8):
    out = {}
    for _ in range(terms):
        c = rng.randint(-9, 9)
        if c:
            out[random_monomial(rng, n)] = Fraction(c, rng.randint(1, 5))
    return out


ORDER_SPECS = [
    ("lex", 0, None),
    ("degrevlex", 0, None),
    ("elim", 2, None),
    ("lex", 0, (2, 0, 1, 3)),
    ("degrevlex", 0, (3, 1, 0, 2)),
]


def test_monomial_ops_agree():
    import random

    rng = random.Random(20240501)
    for _ in range(200):
        a, b = random_monomial(rng), random_monomial(rng)
        assert speedups.monomial_mul(a, b) == pure.monomial_mul(a, b)
        assert speedups.monomial_divides(a, b) == pure.monomial_divides(a, b)
        assert speedups.monomial_div(b, a) == pure.monomial_div(b, a)
        assert speedups.monomial_lcm(a, b) == pure.monomial_lcm(a, b)
        assert speedups.monomial_degree(a) == pure.monomial_degree(a)


def test_order_functions_agree():
    import random

    rng = random.Random(20240502)
    for spec in ORDER_SPECS:
        for _ in range(100):
            a, b = random_monomial(rng), random_monomial(rng)
            assert speedups.order_key(spec, a) == pure.order_key(spec, a)
            assert speedups.compare(spec, a, b) == pure.compare(spec, a, b)
        t = random_terms(rng)
        assert speedups.leading_monomial(t, spec) == pure.leading_monomial(t, spec)
    assert speedups.leading_monomial({}, ORDER_SPECS[0]) is None


def test_term_arithmetic_agrees():
    import random

    rng = random.Random(20240503)
    for _ in range(60):
        t1, t2 = random_terms(rng), random_terms(rng)
        assert speedups.terms_add(t1, t2) == pure.terms_add(t1, t2)
        assert speedups.terms_neg(t1) == pure.terms_neg(t1)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert speedups.terms_scale(t1, c) == pure.terms_scale(t1, c)
        assert speedups.terms_mul(t1, t2) == pure.terms_mul(t1, t2)


def test_iadd_scaled_agrees_and_mutates_in_place():
    import random

    rng = random.Random(20240504)
    for shift in (None, (1, 0, 2, 0)):
        acc_a = random_terms(rng)
        acc_b = dict(acc_a)
        src = random_terms(rng)
        c = Fraction(3, 2)
        speedups.terms_iadd_scaled(acc_a, src, c, shift)
        pure.terms_iadd_scaled(acc_b, src, c, shift)
        assert acc_a == acc_b


def test_cancellation_removes_zero_entries():
    t = {(1, 0, 0, 0): Fraction(2)}
    for impl in (pure, speedups):
        out = impl.terms_add(t, {(1, 0, 0, 0): Fraction(-2)})
        assert out == {}
        acc = dict(t)
        impl.terms_iadd_scaled(acc, t, Fraction(-1), None)
        assert acc == {}


def test_coefficients_stay_exact():
    # kernels must treat coefficients as opaque objects, not floats
    big = Fraction(10**30, 7)
    t = {(0, 0, 0, 0): big}
    for impl in (pure, speedups):
        sq = impl.terms_mul(t, t)
        assert sq[(0, 0, 0, 0)] == big * big


def test_backend_names():
    assert pure.BACKEND_NAME == "pure"
    assert speedups.BACKEND_NAME == "cython"
    assert BACKEND_NAME in ("pure", "cython")


def test_env_var_forces_pure_backend():
    code = "from vortexre._kernels import BACKEND_NAME; print(BACKEND_NAME)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "VORTEXRE_PURE_KERNELS": "1",
             "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "pure"


def test_backend_info_reports_selected_names():
    import vortexre

    info = vortexre.backend_info()
    assert set(info) == {"kernels", "rationals"}
    assert info["kernels"] == BACKEND_NAME
    assert info["rationals"] in ("gmpy2", "fractions")
