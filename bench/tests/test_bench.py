"""Tests of the benchmark itself: its checks reject wrong answers, its
inputs are reproducible, and a short run of each workload completes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from etkit import energy, improved_energy, radial_eigenvalue  # noqa: E402


def _perturbed(sol, rel=1e-6):
    return dataclasses.replace(sol, E=sol.E * (1.0 + rel))


@pytest.fixture(scope="module")
def solved_cases():
    """One regular case per family, solved by the program."""
    rng = random.Random(7)
    out = []
    for family in inputs.FAMILIES:
        case = inputs._draw_case(rng, family)
        sol = energy(case.spec, case.q)
        improved, diag = improved_energy(case.spec, case.qn)
        out.append((case, sol, improved, diag))
    return out


def test_envelope_check_accepts_program_output(solved_cases):
    for case, sol, improved, diag in solved_cases:
        assert checks.check_envelope(case, sol, improved, diag) == [], case.family


def test_envelope_check_rejects_perturbed_energies(solved_cases):
    for case, sol, improved, diag in solved_cases:
        assert checks.check_envelope(case, _perturbed(sol), improved, diag), case.family
        assert checks.check_envelope(case, sol, _perturbed(improved), diag), case.family


def test_envelope_check_rejects_phi_two(solved_cases):
    for case, sol, improved, diag in solved_cases:
        wrong = dataclasses.replace(diag, phi=2.0)
        assert checks.check_envelope(case, sol, improved, wrong), case.family


def test_envelope_check_rejects_wrong_bound_and_radius(solved_cases):
    case, sol, improved, diag = solved_cases[0]
    assert checks.check_envelope(case, dataclasses.replace(sol, bound=improved.bound),
                                 improved, diag)
    assert checks.check_envelope(case, dataclasses.replace(sol, r0=sol.r0 * (1 + 1e-6)),
                                 improved, diag)


def test_written_out_closed_forms_match_the_library():
    from etkit import systems as sy

    p2 = sy.PowerLaw2Params(m=0.7, a=2.3, b=-0.6)
    p1 = sy.PowerLaw1Params(a=1.7, b=1.4)
    pb = sy.BaryonParams(tension_k=0.4, g=0.3)
    for n_body, q in ((2, 1.5), (5, 9.0), (12, 30.5)):
        assert math.isclose(checks.powerlaw2_energy(p2.m, p2.a, p2.b, n_body, q),
                            sy.powerlaw2_energy(p2, n_body, q), rel_tol=1e-12)
        assert math.isclose(checks.powerlaw1_energy(p1.a, p1.b, n_body, q),
                            sy.powerlaw1_energy(p1, n_body, q), rel_tol=1e-12)
        assert math.isclose(checks.baryon_energy(pb.tension_k, pb.g, n_body, q),
                            sy.baryon_energy(pb, n_body, q), rel_tol=1e-12)
    assert math.isclose(checks.baryon_phi(pb.g, 3, 2.0), sy.baryon_phi(pb, 3, 2.0),
                        rel_tol=1e-12)


@pytest.mark.parametrize("b, n_r, l", [(2.0, 1, 1), (-1.0, 0, 0), (1.0, 1, 0), (1.5, 0, 0),
                                       (3.0, 0, 0)])
def test_level_check(b, n_r, l):
    case = inputs.oracle_case(b, 1.03, n_r, l)
    level = radial_eigenvalue(case.mu, case.potential, case.l, case.n_r)
    assert checks.check_level(case, level) == []
    if checks.oracle_exact(b, case.a, case.mu, n_r, l) is not None:
        assert checks.check_level(case, level * (1.0 + 1e-6))
    else:
        # a level on the wrong side of the envelope bound
        et = checks.powerlaw2_energy(1.0, case.a, b, 2, 2 * n_r + l + 1.5)
        assert checks.check_level(case, 2.0 * et - level)


def _report(**values):
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def test_cli_checks_reject_wrong_output():
    k, g = 0.2, 0.8 / 3.0
    phi = checks.baryon_phi(g, 3, 1.0)
    e = checks.baryon_energy(k, g, 3, phi + 1.0)
    r0 = 4.0

    def solve(energy_value, phi_value):
        return _report(system="baryon", N=3, D=3, phi=f"{phi_value:.12g}",
                       Q=f"{phi_value + 1.0:.12g}", E=f"{energy_value:.12g}",
                       r0=f"{r0:.12g}", p0=f"{(phi_value + 1.0) / r0:.12g}", bound="none")

    assert checks.check_solve_baryon(solve(e, phi)) == []
    assert checks.check_solve_baryon(solve(e * (1 + 1e-6), phi))
    assert checks.check_solve_baryon(solve(e, 2.0))

    right = _report(Q="1", E="1", bound="lower")
    shifted = _report(Q="1", E="1.25", bound="lower")
    assert checks.check_ground_shift(right) == []
    assert checks.check_ground_shift(shifted)
    assert checks.is_ground_shift_defect(shifted)
    assert not checks.is_ground_shift_defect(_report(Q="1", E="1.3", bound="lower"))


def test_table_and_scan_checks_reject_wrong_rows():
    k, g = 0.2, 0.8 / 3.0
    lines = ["mode,n_sum,l_sum,exact,energy,phi_used"]
    for mode, fixed in checks.TABLE1_MODES.items():
        for n, l in checks.TABLE1_STATES:
            phi = fixed or checks.baryon_phi(g, 3, l + 1.0)
            e = checks.baryon_energy(k, g, 3, phi * (n + 1.0) + l + 1.0)
            lines.append(f"{mode},{n},{l},1.000,{e:.12g},{phi:.12g}")
    table = "\n".join(lines) + "\n"
    assert checks.check_table1_csv(table) == []
    first = lines[1].split(",")
    bad = first[:4] + [f"{float(first[4]) * (1 + 1e-6):.12g}", first[5]]
    assert checks.check_table1_csv(table.replace(lines[1], ",".join(bad)))
    assert checks.check_table1_csv("\n".join(lines[:-1]) + "\n")

    rows = ["N,E_phi2,E_dos,phi_dos"]
    for n_body in range(2, 41):
        nu, lam = (n_body - 1) / 2.0, 1.0 + (n_body - 1) / 2.0
        rows.append(",".join([
            str(n_body),
            f"{checks.powerlaw2_energy(1, 1, 1, n_body, 2 * nu + lam):.12g}",
            f"{checks.powerlaw2_energy(1, 1, 1, n_body, math.sqrt(3) * nu + lam):.12g}",
            f"{math.sqrt(3):.12g}",
        ]))
    scan = "\n".join(rows) + "\n"
    assert checks.check_scan(scan) == []
    assert checks.check_scan(scan.replace(f"{math.sqrt(3):.12g}", "2"))


def test_rounds_are_reproducible_and_keep_their_make_up():
    defects = inputs.defect_cases()
    first = inputs.envelope_round(random.Random(3), defects)
    again = inputs.envelope_round(random.Random(3), defects)
    assert [(c.family, c.params, c.N, c.q) for c in first] == \
           [(c.family, c.params, c.N, c.q) for c in again]
    other = inputs.envelope_round(random.Random(4), defects)
    for cases in (first, other):
        assert len(cases) == len(inputs.FAMILIES) * inputs.ENVELOPE_PER_FAMILY + len(defects)
        assert sum(c.defect is not None for c in cases) == len(defects)
    levels = inputs.oracle_round(random.Random(3))
    assert sorted((c.b, c.n_r, c.l) for c in levels) == \
        sorted(inputs.CONFINING_LEVELS + inputs.COULOMB_LEVELS)


def test_defect_points_still_fail():
    from etkit import EtkitError

    for case in inputs.defect_cases():
        with pytest.raises(EtkitError):
            energy(case.spec, case.q)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload, trace", [("envelope", "0"), ("oracle", "0"), ("cli", "0"),
                                             ("envelope", "1")])
def test_short_run_completes(workload, trace):
    proc = _run("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected_failed = {"envelope": Fraction(5, 100), "oracle": 0, "cli": Fraction(1, 4)}[workload]
    assert Fraction(result["failed"], result["attempted"]) == expected_failed
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    # a per-layer import figure may fall to 0 once etkit stops importing scipy
    assert all(m["value"] > 0 if trace == "0" else m["value"] >= 0
               for m in result["metrics"].values())


def test_refuses_to_run_without_the_program_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "envelope",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
