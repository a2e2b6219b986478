"""The paper's claim, audited against the Numerov oracle.

The weight phi from the dominantly orbital state (DOS) method sharpens
the envelope estimate, and most of all for dominantly orbital (high-l)
states.  For N = 2 power-law pairs V = sgn(b) r^b at m = a = 1, so a
reduced mass of 1/2, radial_eigenvalue gives each level independently of
the envelope machinery; improved_energy gives the estimate with the DOS
weight and with the plain weight phi = 2.  b = 2 is left out: both
weights are exact there.
"""

import math

import pytest

from etkit import (
    PowerLaw2Params,
    QuantumNumbers,
    improved_energy,
    powerlaw2_system,
    radial_eigenvalue,
)

EXPONENTS = (0.1, 0.5, 1.0, 1.5, 3.0, 4.0, -0.5)


def _relative_errors(b: float, n_r: int, l: int) -> tuple[float, float]:
    """Relative errors of the DOS and the phi = 2 estimates of level (n_r, l)."""
    spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=b), 2)
    qn = QuantumNumbers(n_sum=n_r, l_sum=l)
    exact = radial_eigenvalue(0.5, spec.pairwise, l=l, n_r=n_r)
    dos = improved_energy(spec, qn)[0].E
    plain = improved_energy(spec, qn, phi=2.0)[0].E
    return abs(dos - exact) / abs(exact), abs(plain - exact) / abs(exact)


@pytest.mark.parametrize("b", EXPONENTS)
def test_dos_weight_beats_the_plain_weight_on_every_level(b):
    # 16 levels per exponent; the worst ratio of the two errors over all
    # 112 is 0.84 (b = -0.5)
    for n_r in range(4):
        for l in range(4):
            dos, plain = _relative_errors(b, n_r, l)
            assert dos < plain, f"n_r={n_r}, l={l}: DOS {dos:.3g}, phi = 2 {plain:.3g}"


@pytest.mark.parametrize("n_r", [0, 2])
def test_dos_error_falls_faster_than_l_to_the_minus_one_and_a_half(n_r):
    # the linear pair: the DOS error falls as about l^-1.87 (n_r = 0) and
    # l^-1.65 (n_r = 2) from l = 10 to l = 40, the phi = 2 error as l^-1
    low, high = (_relative_errors(1.0, n_r, l)[0] for l in (10, 40))
    assert math.log(high / low) / math.log(40.0 / 10.0) <= -1.5
