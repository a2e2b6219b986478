"""Reference levels for potentials whose radial solution is an entire function.

For V(r) = sum_m v_m r^m the regular solution of

    u'' = [l(l+1)/r^2 + 2 mu (V(r) - E)] u

is u = r^(l+1) sum_j a_j r^j with a_0 = 1, a_1 = 0 and

    a_j j (j + 2l + 1) = 2 mu (sum_m v_m a_(j-2-m) - E a_(j-2)).

Summing that series at 120 digits and solving u(rmax) = 0 for E gives a
level free of any mesh error; its remaining uncertainty is the cut at
rmax and the truncation of the series, so each level is found at two
rmax and two term counts and the spread of the four is printed.  Run by
hand (it needs mpmath and takes about a minute):

    python tests/data/series_levels.py
"""

import mpmath as mp

mp.mp.dps = 120


def edge(e, mu, l, v, rmax, terms):
    a = [mp.mpf(1), mp.mpf(0)]
    for j in range(2, terms):
        s = sum(v[m] * a[j - 2 - m] for m in range(min(len(v), j - 1)))
        a.append(2 * mu * (s - e * a[j - 2]) / (j * (j + 2 * l + 1)))
    return mp.polyval(a[::-1], rmax)


def level(guess, mu, l, v, rmax, terms):
    return mp.findroot(lambda e: edge(e, mu, l, v, rmax, terms), mp.mpf(guess),
                       tol=mp.mpf(10) ** -60)


SEXTIC = [0] * 6 + [1]
COSH_MINUS_ONE = [0] + [mp.mpf(1) / mp.factorial(k) if k % 2 == 0 else 0 for k in range(1, 160)]

# (label, potential coefficients, mu, l, a guess near the level, two rmax)
CASES = [
    ("r^6", SEXTIC, 2, 0, 1.534, (2.8, 3.0)),
    ("r^6", SEXTIC, 2, 0, 10.36, (2.8, 3.0)),
    ("r^6", SEXTIC, 2, 1, 7.520, (2.8, 3.0)),
    ("r^6", SEXTIC, 2, 2, 16.11, (2.8, 3.0)),
    ("r^6", SEXTIC, 0.5, 0, 4.339, (3.3, 3.5)),
    ("r^6", SEXTIC, 0.5, 0, 46.60, (3.3, 3.5)),
    ("r^6", SEXTIC, 0.5, 5, 96.11, (3.3, 3.5)),
    ("cosh r - 1", COSH_MINUS_ONE, 0.5, 0, 2.398, (7.0, 8.0)),
]

if __name__ == "__main__":
    for label, v, mu, l, guess, radii in CASES:
        found = [level(guess, mp.mpf(mu), l, [mp.mpf(c) for c in v], mp.mpf(rmax), terms)
                 for rmax in radii for terms in (1500, 2000)]
        print(f"{label:10s} mu={mu:<4g} l={l}  E={mp.nstr(found[-1], 20)}  "
              f"spread={mp.nstr(max(found) - min(found), 3)}")
