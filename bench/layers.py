"""Traced mode: the benchmark's own spans and the per-layer metrics.

Spans are recorded by the benchmark around its calls into each layer of
etkit (nothing inside the program is instrumented) and are kept in
memory until the run ends.  A per-layer timing is the median duration
of the spans of one name.  Layers the workload under test calls are
timed on its own traced operations; the others are timed on a small
fixed probe set, the same for every seed.  The two counts are taken on
fixed inputs too, through counting wrappers around the interaction
callables, so they repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import subprocess
import sys
from time import perf_counter

import inputs
from workloads import ROOT, child_env

IMPORT_REPEATS = 3
PROBE_REPEATS = 3
TABLE1_REPEATS = 20

PER_LAYER_UNITS = {
    "import.etkit_s": "s",
    "import.scipy_optimize_s": "s",
    "cli.main_ms": "ms",
    "et_core.energy_us": "us",
    "et_core.triple_calls": "count",
    "dos.compute_phi_us": "us",
    "dos.improved_energy_us": "us",
    "systems.table1_us": "us",
    "oracle.confining_level_ms": "ms",
    "oracle.coulomb_level_ms": "ms",
    "oracle.potential_calls": "count",
}


class Tracer:
    """Spans as [name, start, end, parent index] in perf_counter seconds."""

    def __init__(self):
        self.spans: list[list] = []

    def start(self, name: str, parent: int | None = None) -> int:
        self.spans.append([name, perf_counter(), None, parent])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        index = self.start(name, parent)
        try:
            yield index
        finally:
            self.end(index)

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name and end is not None]

    def write(self, path, extra: dict) -> None:
        spans = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.write_text(json.dumps({**extra, "spans": spans}, indent=1) + "\n")


# ------------------------------------------------------------ fixed probes


def _table1_cases():
    """The 16 N = 3 baryon states of the embedded table, as (spec, Q, lambda, qn)."""
    from etkit import QuantumNumbers, global_q, nu_lambda, systems as sy

    spec = sy.baryon_system(sy.TABLE1_PARAMS, sy.TABLE1_N, sy.TABLE1_D)
    out = []
    for n_sum, l_sum, _ in sy.TABLE1_EXACT:
        qn = QuantumNumbers.from_sums(n_sum, l_sum)
        out.append((spec, float(global_q(qn, spec)), float(nu_lambda(qn, spec)[1]), qn))
    return out


def probe_imports(tracer: Tracer, parent: int) -> dict[str, float]:
    for _ in range(IMPORT_REPEATS):
        with tracer.span("import.etkit", parent):
            subprocess.run([sys.executable, "-c", "import etkit"], cwd=ROOT, env=child_env(),
                           check=True)
    scipy_s = []
    for _ in range(IMPORT_REPEATS):
        with tracer.span("import.importtime", parent):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import etkit"],
                                  cwd=ROOT, env=child_env(), check=True, capture_output=True,
                                  text=True)
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "scipy.optimize":
                scipy_s.append(int(fields[1]) * 1e-6)
    return {
        "import.etkit_s": statistics.median(tracer.durations("import.etkit")),
        # 0 if etkit no longer imports scipy.optimize at all
        "import.scipy_optimize_s": statistics.median(scipy_s) if scipy_s else 0.0,
    }


def probe_cli_main(tracer: Tracer, parent: int, workdir) -> float:
    """Warm in-process etkit.cli.main per argv; the sum of the per-argv medians."""
    from etkit import cli

    total = 0.0
    for name, argv in inputs.CLI_ARGV.items():
        argv = [arg.replace("{csv}", str(workdir / "probe-table1.csv")) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
            for _ in range(PROBE_REPEATS):
                with tracer.span(f"cli.main.{name}", parent):
                    cli.main(argv)
        total += statistics.median(tracer.durations(f"cli.main.{name}"))
    return total


def probe_table1(tracer: Tracer, parent: int) -> float:
    from etkit import table1

    for mode in (2.0, "dos", 1.35, 1.23):
        for _ in range(TABLE1_REPEATS):
            with tracer.span("systems.table1", parent):
                table1(mode)
    return statistics.median(tracer.durations("systems.table1"))


def probe_envelope_calls(tracer: Tracer, parent: int) -> None:
    from etkit import energy, improved_energy

    for _ in range(PROBE_REPEATS):
        for spec, q, _, qn in _table1_cases():
            with tracer.span("et_core.energy", parent):
                energy(spec, q)
            with tracer.span("dos.improved_energy", parent):
                improved_energy(spec, qn)


def time_compute_phi(tracer: Tracer, parent: int, cases) -> None:
    from etkit import compute_phi

    for spec, lam in cases:
        with tracer.span("dos.compute_phi", parent):
            compute_phi(spec, lam)


def probe_oracle_levels(tracer: Tracer, parent: int) -> None:
    from etkit import radial_eigenvalue

    for b, repeats in ((2.0, PROBE_REPEATS), (-1.0, 1)):
        case = inputs.oracle_case(b, 1.0, 0, 0)
        for _ in range(repeats):
            with tracer.span(f"oracle.{case.group}_level", parent):
                radial_eigenvalue(case.mu, case.potential, case.l, case.n_r)


# ----------------------------------------------------------------- counts


def _counting(triple, counter: list[int]):
    def wrap(f):
        def counted(x):
            counter[0] += 1
            return f(x)
        return counted

    return dataclasses.replace(triple, value=wrap(triple.value), d1=wrap(triple.d1),
                               d2=wrap(triple.d2))


def count_triple_calls() -> float:
    """Mean calls into T/U/V per energy() over the 16 table states."""
    from etkit import energy

    counter = [0]
    cases = _table1_cases()
    spec = cases[0][0]
    spec = dataclasses.replace(spec, kinetic=_counting(spec.kinetic, counter),
                               onebody=_counting(spec.onebody, counter),
                               pairwise=_counting(spec.pairwise, counter))
    for _, q, _, _ in cases:
        energy(spec, q)
    return counter[0] / len(cases)


def count_potential_calls() -> float:
    """Mean potential evaluations per level over one oracle round at a = 1."""
    from etkit import radial_eigenvalue

    counter = [0]
    levels = inputs.CONFINING_LEVELS + inputs.COULOMB_LEVELS
    for b, n_r, l in levels:
        case = inputs.oracle_case(b, 1.0, n_r, l)
        radial_eigenvalue(case.mu, _counting(case.potential, counter), l, n_r)
    return counter[0] / len(levels)


# --------------------------------------------------------------- assembly


def per_layer_metrics(workload, tracer: Tracer, traced_cases, workdir) -> dict[str, float]:
    """Every per-layer metric; probes fill in the layers the workload skips.

    ``traced_cases`` are the inputs of the workload's traced operations;
    ``workdir`` is a temporary directory for the CSV table1 writes.
    """
    root = tracer.start("probes")
    values: dict[str, float] = {}
    values.update(probe_imports(tracer, root))
    values["cli.main_ms"] = 1e3 * probe_cli_main(tracer, root, workdir)
    values["systems.table1_us"] = 1e6 * probe_table1(tracer, root)

    if workload.name == "envelope":
        phi_cases = [(c.spec, c.nu_lam[1]) for c in traced_cases if c.defect is None]
    else:
        probe_envelope_calls(tracer, root)
        phi_cases = [(spec, lam) for spec, _, lam, _ in _table1_cases()] * PROBE_REPEATS
    time_compute_phi(tracer, root, phi_cases)
    if workload.name != "oracle":
        probe_oracle_levels(tracer, root)

    def median_of(name: str) -> float:
        return statistics.median(tracer.durations(name))

    values["et_core.energy_us"] = 1e6 * median_of("et_core.energy")
    values["dos.improved_energy_us"] = 1e6 * median_of("dos.improved_energy")
    values["dos.compute_phi_us"] = 1e6 * median_of("dos.compute_phi")
    values["oracle.confining_level_ms"] = 1e3 * median_of("oracle.confining_level")
    values["oracle.coulomb_level_ms"] = 1e3 * median_of("oracle.coulomb_level")
    values["et_core.triple_calls"] = count_triple_calls()
    values["oracle.potential_calls"] = count_potential_calls()
    tracer.end(root)
    return values

