"""The three workloads: how each sets up, runs one operation and checks it.

A workload object is built by ``setup`` (cold import of etkit where the
workload calls it in-process, generation of the first round, one untimed
warm-up operation).  ``run_op`` times only the call into the program and
returns ``(seconds, status, problems)`` with status "ok", "failed" (the
program raised, or printed the known ground-shift defect) or "wrong"
(the output failed a check).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CLI_TIMEOUT_S = 120


def child_env() -> dict[str, str]:
    """Environment for child interpreters: etkit from this checkout only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Envelope:
    """Warm energy(spec, Q) + improved_energy(spec, qn) on unique inputs."""

    name = "envelope"
    host_factor = staticmethod(hostspeed.factor)

    def __init__(self, seed: int):
        import etkit

        self.etkit = etkit
        self.rng = random.Random(seed)
        self.defects = inputs.defect_cases()

    def new_round(self):
        return inputs.envelope_round(self.rng, self.defects)

    def warm_up(self) -> None:
        from etkit import systems as sy

        spec = sy.baryon_system(sy.TABLE1_PARAMS, sy.TABLE1_N)
        self.etkit.energy(spec, 4.0)
        self.etkit.improved_energy(spec, self.etkit.QuantumNumbers.from_sums(1, 1))

    def run_op(self, case, tracer=None, parent=None):
        etkit = self.etkit
        t0 = perf_counter()
        try:
            if tracer is None:
                sol = etkit.energy(case.spec, case.q)
                improved, diag = etkit.improved_energy(case.spec, case.qn)
            else:
                span = tracer.start("et_core.energy", parent)
                sol = etkit.energy(case.spec, case.q)
                tracer.end(span)
                span = tracer.start("dos.improved_energy", parent)
                improved, diag = etkit.improved_energy(case.spec, case.qn)
                tracer.end(span)
        except etkit.EtkitError as exc:
            return perf_counter() - t0, "failed", [f"{case.defect or case.family}: {exc!r}"]
        elapsed = perf_counter() - t0
        problems = checks.check_envelope(case, sol, improved, diag)
        return elapsed, ("wrong" if problems else "ok"), problems

    def close(self) -> None:
        pass


class Oracle:
    """radial_eigenvalue for fixed-box confining levels and Coulomb levels."""

    name = "oracle"
    host_factor = staticmethod(hostspeed.factor)

    def __init__(self, seed: int):
        import etkit

        self.etkit = etkit
        self.rng = random.Random(seed)

    def new_round(self):
        return inputs.oracle_round(self.rng)

    def warm_up(self) -> None:
        case = inputs.oracle_case(2.0, 1.0, 0, 0)
        self.etkit.radial_eigenvalue(case.mu, case.potential, case.l, case.n_r)

    def run_op(self, case, tracer=None, parent=None):
        span = None if tracer is None else tracer.start(f"oracle.{case.group}_level", parent)
        t0 = perf_counter()
        try:
            level = self.etkit.radial_eigenvalue(case.mu, case.potential, case.l, case.n_r)
        except self.etkit.EtkitError as exc:
            level, error = None, exc
        elapsed = perf_counter() - t0
        if span is not None:
            tracer.end(span)
        if level is None:
            return elapsed, "failed", [f"b={case.b:g} n_r={case.n_r} l={case.l}: {error!r}"]
        problems = checks.check_level(case, level)
        return elapsed, ("wrong" if problems else "ok"), problems

    def close(self) -> None:
        pass


class Cli:
    """One fresh ``python -m etkit.cli`` process per operation, one at a time."""

    name = "cli"
    host_factor = staticmethod(hostspeed.spawn_factor)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        OUT.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=OUT, prefix="cli-")
        self.csv = Path(self.tmp.name) / "table1.csv"

    def new_round(self):
        return inputs.cli_round(self.rng)

    def argv(self, name: str) -> list[str]:
        return [arg.replace("{csv}", str(self.csv)) for arg in inputs.CLI_ARGV[name]]

    def warm_up(self) -> None:
        self._spawn("solve_baryon")

    def _spawn(self, name: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "etkit.cli", *self.argv(name)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def run_op(self, name, tracer=None, parent=None):
        self.csv.unlink(missing_ok=True)
        span = None if tracer is None else tracer.start(f"cli.process.{name}", parent)
        t0 = perf_counter()
        proc = self._spawn(name)
        elapsed = perf_counter() - t0
        if span is not None:
            tracer.end(span)
        if proc.returncode != 0:
            return elapsed, "failed", [f"{name}: exit {proc.returncode}: {proc.stderr.strip()}"]
        if name == "solve_baryon":
            problems = checks.check_solve_baryon(proc.stdout)
        elif name == "table1_all":
            text = self.csv.read_text() if self.csv.is_file() else ""
            problems = checks.check_table1_csv(text)
        elif name == "scan_powerlaw2":
            problems = checks.check_scan(proc.stdout)
        else:
            problems = checks.check_ground_shift(proc.stdout)
            if problems and checks.is_ground_shift_defect(proc.stdout):
                return elapsed, "failed", [f"{name}: known defect, E = 1.25"]
        return elapsed, ("wrong" if problems else "ok"), problems

    def close(self) -> None:
        self.tmp.cleanup()


WORKLOADS = {cls.name: cls for cls in (Envelope, Oracle, Cli)}


def setup(name: str, seed: int):
    """Build the workload and its first round; returns (workload, first round, seconds)."""
    t0 = perf_counter()
    workload = WORKLOADS[name](seed)
    first = workload.new_round()
    workload.warm_up()
    return workload, first, perf_counter() - t0
