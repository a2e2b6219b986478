"""Correctness checks for every benchmark operation.

Each check compares an output of the program with a value computed
here, outside the program, or with a property the method must have.
Nothing is compared with a stored copy of earlier output.  A check
returns a list of problems; an empty list means the output passed.

The closed forms of the power-law, ultrarelativistic power-law and
baryon families are written out below from the envelope equations.
The Gaussian and confined closed forms are taken from etkit.systems,
a separate code path from the generic solver they are compared with.
"""

from __future__ import annotations

import csv
import io
import math

# |generic - closed form| for an energy, as a share of the sum of the
# magnitudes of its three terms N T + N U + C V
ENERGY_RTOL = 1e-9
PHI_RTOL = 1e-8
# the three envelope equations evaluated from the spec's own triples
EQUATION_RTOL = 1e-9
# levels of the Numerov oracle against exact spectra; the levels the
# oracle workload asks for are reached to better than 1e-10
ORACLE_RTOL = 1e-8
# printed values carry 12 significant digits
PRINTED_RTOL = 1e-9

# first four zeros of Ai, |a_1| .. |a_4| (Abramowitz & Stegun, table 10.13)
AIRY_ZEROS = (2.338107410459767, 4.087949444130970, 5.520559828095551, 6.786708090071759)


def _close(x: float, y: float, rtol: float, scale: float | None = None) -> bool:
    ref = abs(y) if scale is None else scale
    return math.isfinite(x) and abs(x - y) <= rtol * ref


# ------------------------------------------------------- closed forms


def powerlaw2_radius(m: float, a: float, b: float, n_body: int, q: float) -> float:
    """T = p^2/2m, V = sgn(b) a r^b: the optimum radius x = r0.

    The stationarity condition reads N Q^2/(m x^2) = |a b| C^(1-b/2) x^b.
    """
    pairs = n_body * (n_body - 1) / 2.0
    return (n_body * q * q / (m * abs(a * b) * pairs ** (1.0 - b / 2.0))) ** (1.0 / (b + 2.0))


def powerlaw2_energy(m: float, a: float, b: float, n_body: int, q: float) -> float:
    """E = (b+2)/(2b) N Q^2/(m x^2) at the optimum radius x."""
    x = powerlaw2_radius(m, a, b, n_body, q)
    return (b + 2.0) / (2.0 * b) * n_body * q * q / (m * x * x)


def powerlaw1_energy(a: float, b: float, n_body: int, q: float) -> float:
    """T = |p|, U = a s^b: x^(b+1) = Q N^b / (a b) and E = (1 + 1/b) N Q / x."""
    x = (q * n_body ** b / (a * b)) ** (1.0 / (b + 1.0))
    return (1.0 + 1.0 / b) * n_body * q / x


def baryon_energy(k: float, g: float, n_body: int, q: float) -> float:
    """T = |p|, U = k s, V = -g/r: x^2 = (N Q - C^1.5 g)/k and E = 2 k x."""
    pairs = n_body * (n_body - 1) / 2.0
    return 2.0 * k * math.sqrt((n_body * q - pairs ** 1.5 * g) / k)


def baryon_phi(g: float, n_body: int, lam: float) -> float:
    return math.sqrt(2.0 - math.sqrt(n_body * (n_body - 1.0) ** 3) * g / (math.sqrt(2.0) * lam))


def closed_form(case) -> tuple:
    """(energy(q), phi(lambda)) callables for an EnvelopeCase's family."""
    p, n_body = case.params, case.N
    if case.family == "powerlaw2":
        return (lambda q: powerlaw2_energy(p.m, p.a, p.b, n_body, q),
                lambda lam: math.sqrt(p.b + 2.0))
    if case.family == "powerlaw1":
        return (lambda q: powerlaw1_energy(p.a, p.b, n_body, q),
                lambda lam: math.sqrt(p.b + 1.0))
    if case.family == "baryon":
        return (lambda q: baryon_energy(p.tension_k, p.g, n_body, q),
                lambda lam: baryon_phi(p.g, n_body, lam))
    from etkit import systems as sy

    if case.family == "gaussian":
        return (lambda q: sy.gaussian_energy(p, n_body, q),
                lambda lam: sy.gaussian_phi(p, n_body, lam))
    return (lambda q: sy.confined_energy(p, n_body, q),
            lambda lam: sy.confined_phi(p, n_body, lam))


def catalogue_bound(case) -> str:
    """Variational tag each family's closed form guarantees at phi = 2."""
    if case.family == "powerlaw2":
        return "upper" if case.params.b <= 2.0 else "lower"
    if case.family == "powerlaw1":
        return "upper" if case.params.b <= 2.0 else "none"
    return "lower" if case.family == "confined" else "upper"


# ---------------------------------------------------------- envelope


def _terms(spec, sol) -> tuple[float, float, float]:
    pairs = spec.N * (spec.N - 1) / 2.0
    return (
        spec.N * spec.kinetic.value(sol.p0),
        spec.N * spec.onebody.value(sol.r0 / spec.N),
        pairs * spec.pairwise.value(sol.r0 / math.sqrt(pairs)),
    )


def check_solution(spec, sol, q: float, q_rtol: float, e_ref: float, bound: str,
                   what: str) -> list[str]:
    """One EtSolution against its closed form and the three envelope equations."""
    problems = []
    terms = _terms(spec, sol)
    scale = sum(abs(t) for t in terms)
    if not _close(sol.E, e_ref, ENERGY_RTOL, scale):
        problems.append(f"{what}: E = {sol.E!r}, closed form {e_ref!r}")
    if not _close(sol.q_used, q, q_rtol):
        problems.append(f"{what}: q_used = {sol.q_used!r}, expected {q!r}")
    if not _close(sol.r0 * sol.p0, sol.q_used, 1e-12):
        problems.append(f"{what}: r0 p0 = {sol.r0 * sol.p0!r} != q_used {sol.q_used!r}")
    if not _close(sol.E, sum(terms), EQUATION_RTOL, scale):
        problems.append(f"{what}: E = {sol.E!r} but N T + N U + C V = {sum(terms)!r}")
    root_c = math.sqrt(spec.N * (spec.N - 1) / 2.0)
    lhs = spec.N * sol.p0 * spec.kinetic.d1(sol.p0)
    rhs = (sol.r0 * spec.onebody.d1(sol.r0 / spec.N)
           + root_c * sol.r0 * spec.pairwise.d1(sol.r0 / root_c))
    if not _close(lhs, rhs, EQUATION_RTOL, max(abs(lhs), abs(rhs))):
        problems.append(f"{what}: stationarity N p T'(p) = {lhs!r} vs {rhs!r}")
    if sol.bound.name.lower() != bound:
        problems.append(f"{what}: bound {sol.bound.name.lower()}, expected {bound}")
    return problems


def check_envelope(case, sol, improved, diag) -> list[str]:
    """Plain solve at Q and improved solve at Q_phi = phi nu + lambda."""
    energy_cf, phi_cf = closed_form(case)
    nu, lam = case.nu_lam
    problems = check_solution(case.spec, sol, case.q, 1e-15, energy_cf(case.q),
                              catalogue_bound(case), "plain")
    phi = phi_cf(lam)
    if diag is None or not _close(diag.phi, phi, PHI_RTOL):
        got = None if diag is None else diag.phi
        problems.append(f"phi = {got!r}, closed form {phi!r}")
        return problems
    q_phi = phi * nu + lam
    bound = catalogue_bound(case) if phi == 2.0 else "none"
    # the generic phi is accurate to PHI_RTOL, and Q_phi with it
    problems += check_solution(case.spec, improved, q_phi, PHI_RTOL, energy_cf(q_phi), bound,
                               "improved")
    return problems


# ------------------------------------------------------------ oracle


def oracle_exact(b: float, a: float, mu: float, n_r: int, l: int) -> float | None:
    """Exact two-body level for V = sgn(b) a r^b where one is known."""
    if b == 2.0:
        return math.sqrt(2.0 * a / mu) * (2 * n_r + l + 1.5)
    if b == -1.0:
        return -mu * a * a / (2.0 * (n_r + l + 1) ** 2)
    if b == 1.0 and l == 0:
        return (a * a / (2.0 * mu)) ** (1.0 / 3.0) * AIRY_ZEROS[n_r]
    return None


def check_level(case, level: float) -> list[str]:
    """Exact spectrum where known; otherwise the envelope bound at N = 2.

    For V = a r^b the envelope energy at Q = 2 n_r + l + 3/2 lies above
    the true level for b < 2 and below it for b > 2.
    """
    exact = oracle_exact(case.b, case.a, case.mu, case.n_r, case.l)
    where = f"b={case.b:g} a={case.a!r} n_r={case.n_r} l={case.l}"
    if exact is not None:
        if not _close(level, exact, ORACLE_RTOL):
            return [f"{where}: level {level!r}, exact {exact!r}"]
        return []
    et = powerlaw2_energy(2.0 * case.mu, case.a, case.b, 2, 2 * case.n_r + case.l + 1.5)
    side = 1.0 if case.b < 2.0 else -1.0
    if not (math.isfinite(level) and side * (et - level) > 1e-9 * abs(level)):
        rel = "above" if side > 0 else "below"
        return [f"{where}: envelope bound {et!r} is not {rel} level {level!r}"]
    return []


# --------------------------------------------------------------- cli


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _num(report: dict[str, str], key: str) -> float:
    try:
        return float(report[key])
    except (KeyError, ValueError):
        return math.nan


def _check_printed(report, key: str, expected: float, where: str) -> list[str]:
    got = _num(report, key)
    if not _close(got, expected, PRINTED_RTOL):
        return [f"{where}: {key} = {report.get(key)!r}, expected {expected!r}"]
    return []


def check_solve_baryon(stdout: str) -> list[str]:
    """solve baryon N=3, k=0.2, alpha_s=0.4, nu=1, lambda=1, phi=dos."""
    rep = parse_report(stdout)
    k, g, n_body, nu, lam = 0.2, 2.0 * 0.4 / 3.0, 3, 1.0, 1.0
    phi = baryon_phi(g, n_body, lam)
    q = phi * nu + lam
    problems = _check_printed(rep, "phi", phi, "solve baryon")
    problems += _check_printed(rep, "Q", q, "solve baryon")
    problems += _check_printed(rep, "E", baryon_energy(k, g, n_body, q), "solve baryon")
    if not _close(_num(rep, "r0") * _num(rep, "p0"), q, PRINTED_RTOL):
        problems.append(f"solve baryon: r0 p0 != Q in {rep!r}")
    if rep.get("bound") != "none":
        problems.append(f"solve baryon: bound {rep.get('bound')!r}, expected 'none'")
    return problems


TABLE1_MODES = {"2": 2.0, "dos": None, "1.35": 1.35, "1.23": 1.23}
# the embedded table holds every N = 3 state with 2 n_sum + l_sum <= 6
TABLE1_STATES = [(n, l) for n in range(4) for l in range(7) if 2 * n + l <= 6]


def check_table1_csv(text: str) -> list[str]:
    """table1 --phi all: baryon N=3, k=0.2, alpha_s=0.4, every state and mode."""
    k, g, n_body = 0.2, 2.0 * 0.4 / 3.0, 3
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    seen = set()
    for row in rows:
        try:
            mode, n_sum, l_sum = row["mode"], int(row["n_sum"]), int(row["l_sum"])
            energy, phi_used = float(row["energy"]), float(row["phi_used"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"table1: malformed row {row!r}")
            continue
        if mode not in TABLE1_MODES:
            problems.append(f"table1: unknown mode {mode!r}")
            continue
        seen.add((mode, n_sum, l_sum))
        nu, lam = n_sum + 1.0, l_sum + 1.0
        phi = TABLE1_MODES[mode] or baryon_phi(g, n_body, lam)
        where = f"table1 {mode} ({n_sum},{l_sum})"
        if not _close(phi_used, phi, PRINTED_RTOL):
            problems.append(f"{where}: phi {phi_used!r}, expected {phi!r}")
        e = baryon_energy(k, g, n_body, phi * nu + lam)
        if not _close(energy, e, PRINTED_RTOL):
            problems.append(f"{where}: E {energy!r}, expected {e!r}")
    expected = {(mode, n, l) for mode in TABLE1_MODES for n, l in TABLE1_STATES}
    if len(rows) != len(expected) or seen != expected:
        problems.append(f"table1: {len(rows)} rows, states {sorted(seen ^ expected)} differ")
    return problems


def check_scan(stdout: str) -> list[str]:
    """scan powerlaw2 m=a=b=1, n_sum=0, l_sum=1 over N = 2..40 (D = 3)."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    problems = []
    if [r.get("N") for r in rows] != [str(n) for n in range(2, 41)]:
        return [f"scan: N column {[r.get('N') for r in rows]!r}"]
    phi = math.sqrt(3.0)
    for row in rows:
        n_body = int(row["N"])
        nu, lam = (n_body - 1) / 2.0, 1.0 + (n_body - 1) / 2.0
        try:
            got = {key: float(row[key]) for key in ("E_phi2", "E_dos", "phi_dos")}
        except (TypeError, ValueError):
            problems.append(f"scan N={n_body}: malformed row {row!r}")
            continue
        expected = {
            "E_phi2": powerlaw2_energy(1.0, 1.0, 1.0, n_body, 2.0 * nu + lam),
            "E_dos": powerlaw2_energy(1.0, 1.0, 1.0, n_body, phi * nu + lam),
            "phi_dos": phi,
        }
        for key, value in expected.items():
            if not _close(got[key], value, PRINTED_RTOL):
                problems.append(f"scan N={n_body}: {key} {got[key]!r}, expected {value!r}")
    return problems


GROUND_SHIFT_DEFECT = 1.25


def check_ground_shift(stdout: str) -> list[str]:
    """confined D=2, N=2, m=1, omega=0.5, g=0, ground state, ground shift on.

    Q = (N-1) D / 2 = 1 and E = omega Q + D omega / 2 = 1.0, the
    centre-of-mass zero-point energy being D omega / 2.
    """
    rep = parse_report(stdout)
    omega, dim = 0.5, 2
    problems = _check_printed(rep, "Q", 1.0, "ground shift")
    problems += _check_printed(rep, "E", omega * 1.0 + dim * omega / 2.0, "ground shift")
    if rep.get("bound") != "lower":
        problems.append(f"ground shift: bound {rep.get('bound')!r}, expected 'lower'")
    return problems


def is_ground_shift_defect(stdout: str) -> bool:
    """The output the known 1.5 omega offset produces: E = 1.25, all else right."""
    rep = parse_report(stdout)
    return _num(rep, "E") == GROUND_SHIFT_DEFECT and _close(_num(rep, "Q"), 1.0, PRINTED_RTOL)
