"""Byte pins for the text and LaTeX emitters.

The digests and strings were captured from the emitters before their sign
joining was shared between coeff_str, scalar_op_str and poly_str; any
change to the rendered bytes fails here.
"""

import hashlib
from fractions import Fraction

import pytest

from matrixweyl import K, NU, Coeff, Polynomial, PolySpinor, ScalarDiffOp
from matrixweyl.cli import main
from matrixweyl.render import coeff_str, poly_str, scalar_op_str


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--output", "text", "gens", "--d", "3"],
            "0cccfb209ac1d83386f964e3c612ac3d315da434374ca4f1c14c3c50d923683b",
        ),
        (
            ["--output", "latex", "gens", "--d", "3"],
            "b7fde28e82e77fdf613a379a72f7cd527003844fb57828b835b0ee11b59bb3c7",
        ),
        (
            ["--output", "text", "model", "--model", "sutherland", "--form", "matrix", "--d", "3"],
            "a844afd1cabd0d0c91edd5090a5b4a718f6f01b68e0d5bcd5f671a3558273d8b",
        ),
    ],
)
def test_cli_text_and_latex_bytes(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _spinor():
    return PolySpinor(
        [
            Polynomial(
                2,
                {
                    (0, 0): Coeff.rational(Fraction(-3, 2)),
                    (1, 0): Coeff.rational(0, -1),
                    (0, 2): Coeff.rational(Fraction(1, 3), Fraction(-2, 5)),
                    (2, 1): K * Fraction(-1, 2) + 1,
                },
            ),
            Polynomial(
                2,
                {
                    (1, 1): Coeff.rational(-1),
                    (0, 1): Coeff.rational(1, 1) * NU * NU - K,
                },
            ),
        ],
        2,
    )


def test_spinor_repr():
    assert repr(_spinor()) == (
        "(-3/2+(1/3-2/5*sqrt2)*x2^2-sqrt2*x1+(1-1/2*k)*x1^2*x2, "
        "((1+sqrt2)*nu^2-k)*x2-x1*x2)^T"
    )


def test_poly_latex():
    first, second = _spinor().components
    assert poly_str(first, latex=True) == (
        "-\\frac{3}{2}+(\\frac{1}{3}-\\frac{2}{5}\\sqrt{2}) x_{2}^{2}"
        "-\\sqrt{2} x_{1}+(1-\\frac{1}{2} k) x_{1}^{2} x_{2}"
    )
    assert poly_str(second, latex=True) == "((1+\\sqrt{2}) \\nu^{2}-k) x_{2}-x_{1} x_{2}"


def test_coeff_latex():
    c = Coeff.rational(Fraction(-1, 4), Fraction(3, 7)) * K**2 + Coeff.sqrt2() * NU
    assert coeff_str(c, latex=True) == (
        "\\sqrt{2} \\nu+(-\\frac{1}{4}+\\frac{3}{7}\\sqrt{2}) k^{2}"
    )


def test_scalar_op_constant_term_is_parenthesised():
    op = (
        ScalarDiffOp.constant(K - 1, 2)
        + ScalarDiffOp.d(0, 2) ** 2 * Fraction(-1, 3)
        + ScalarDiffOp.x(1, 2) * ScalarDiffOp.d(1, 2) * K
    )
    assert repr(op) == "(-1+k)-1/3*d_x1^2+k*x2*d_x2"
    assert scalar_op_str(op, latex=True) == (
        "(-1+k)-\\frac{1}{3} \\partial_{x_{1}}^{2}+k x_{2} \\partial_{x_{2}}"
    )
