"""Command-line front end.

Four subcommands: ``solve`` reports one level of one system, ``phi``
reports the quantum-number weight and its ingredients, ``table1``
prints the embedded baryon comparison table, and ``scan`` sweeps one
parameter axis and emits CSV.

Exit codes: 0 on success, 2 for configuration or usage problems, 3
when the requested numbers do not exist (no bound state, no stationary
point, weight undefined, and so on).  A scan still writes a row for
every grid point, with empty cells where a solve failed, and exits 3 if
any did.

The generic solver (dos, et_core, and numpy with them) is imported
inside the commands that run it, so that table1 and --help start
without it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

from .errors import DomainError, EtkitError
from .model import QuantumNumbers, SystemSpec, nu_lambda
from .systems import FAMILIES, BaryonParams, bsq_ratio_coeffs, confined_ground_shift, table1


class ConfigError(Exception):
    """Bad key=value input, from a file or from flags, or an unwritable output path."""


_SHARED_KEYS = ("system", "N", "D", "nu", "lambda", "n_sum", "l_sum", "phi", "q")

# the command line names BaryonParams.tension_k "k"
_KEY_OF_FIELD = {"tension_k": "k"}

# keys that are not fields of the parameter record: alpha_s gives the
# baryon g as 2 alpha_s / 3, ground_shift adds D omega / 2 to the energy
_EXTRA_KEYS = {"baryon": ("alpha_s",), "confined": ("ground_shift",)}


def _family_keys(name: str) -> tuple[str, ...]:
    params_cls, _ = FAMILIES[name]
    own = tuple(_KEY_OF_FIELD.get(f.name, f.name) for f in fields(params_cls))
    return own + _EXTRA_KEYS.get(name, ())


# every key a config file or a flag may set, each once; each is the flag
# --KEY, with "_" written "-"
_CONFIG_KEYS = tuple(dict.fromkeys(
    _SHARED_KEYS + tuple(key for name in FAMILIES for key in _family_keys(name))
))

# the help text of each key's flag; the flags come from _CONFIG_KEYS, and
# this dict orders them in --help
_KEY_HELP = {
    "system": "one of " + ", ".join(sorted(FAMILIES)),
    "N": "number of particles",
    "D": "space dimension (default 3)",
    "m": "particle mass",
    "a": "interaction strength",
    "b": "power-law exponent",
    "V0": "gaussian well depth",
    "R": "gaussian well range",
    "omega": "oscillator frequency",
    "g": "pair Coulomb strength",
    "k": "linear confinement tension",
    "alpha_s": "strong coupling, g = 2 alpha_s / 3",
    "nu": "collective radial number",
    "lambda": "collective orbital number",
    "n_sum": "sum of radial quantum numbers",
    "l_sum": "sum of orbital quantum numbers",
    "phi": "weight: a positive number, or 'dos' to derive it",
    "q": "collective number used directly with phi=2",
    "ground_shift": "true/false: add the D omega / 2 centre-of-mass offset (confined only)",
}

# canonical comparison columns: plain weight, recomputed weight, and the
# two fitted constants quoted alongside the embedded table
_TABLE_MODES = (("2", 2.0), ("dos", "dos"), ("1.35", 1.35), ("1.23", 1.23))


def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        entries[key] = value
    return entries


def _collect_settings(args: argparse.Namespace, own: tuple[str, ...] = ()) -> dict[str, str]:
    """The config file's keys, overridden by the flags given.

    own names the keys the command sets itself; giving one is refused.
    """
    settings = _read_config(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    for key in own:
        if key in settings:
            raise ConfigError(f"{args.command} sets {key!r} itself; do not give it")
    return settings


def _to_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _to_int(key: str, text: str) -> int:
    value = _to_float(key, text)
    if value != int(value):
        raise ConfigError(f"{key} must be an integer, got {text!r}")
    return int(value)


def _to_bool(key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key} must be true or false, got {text!r}")


def _need(settings: dict[str, str], key: str, system: str) -> str:
    value = settings.get(key)
    if value is None:
        raise ConfigError(f"system {system!r} needs parameter {key!r}")
    return value


def _params(name: str, settings: dict[str, str]):
    """The family's parameter record, one key per field."""
    params_cls, _ = FAMILIES[name]
    if name == "baryon":
        if "g" in settings and "alpha_s" in settings:
            raise ConfigError("give either g or alpha_s for the baryon system, not both")
        if "alpha_s" in settings:
            return BaryonParams.from_alpha_s(
                tension_k=_to_float("k", _need(settings, "k", name)),
                alpha_s=_to_float("alpha_s", settings["alpha_s"]),
            )
        if "g" not in settings:
            raise ConfigError("the baryon system needs g or alpha_s")
    values = {}
    for field in fields(params_cls):
        key = _KEY_OF_FIELD.get(field.name, field.name)
        values[field.name] = _to_float(key, _need(settings, key, name))
    return params_cls(**values)


def _build_system(settings: dict[str, str]) -> tuple[SystemSpec, float]:
    """The system and the ground shift to add to its energies."""
    name = settings.get("system")
    if name is None:
        raise ConfigError("no system chosen; set system=<name>")
    if name not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigError(f"unknown system {name!r}; choose one of {known}")
    own_keys = _family_keys(name)
    for key in settings:
        if key not in _SHARED_KEYS and key not in own_keys:
            raise ConfigError(f"parameter {key!r} does not apply to system {name!r}")

    n_body = _to_int("N", _need(settings, "N", name))
    dim = _to_int("D", settings.get("D", "3"))
    # the library checks every value; here a bad one is a configuration error
    try:
        params = _params(name, settings)
        spec = FAMILIES[name][1](params, n_body, dim)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    shift = 0.0
    if _to_bool("ground_shift", settings.get("ground_shift", "false")):
        shift = confined_ground_shift(params, dim)
    return spec, shift


def _quantum_input(settings: dict[str, str], spec: SystemSpec, q_refusal: str | None = None):
    """Returns ("q", q) or ("nl", (nu, lam)) from exactly one input form.

    With q_refusal, a valid q is refused with that message.
    """
    has_q = "q" in settings
    has_nl = "nu" in settings or "lambda" in settings
    has_sums = "n_sum" in settings or "l_sum" in settings
    if has_q + has_nl + has_sums != 1:
        raise ConfigError(
            "give exactly one of: q, (nu and lambda), or (n_sum and l_sum)"
        )
    if has_q:
        q = _to_float("q", settings["q"])
        if q <= 0.0:
            raise ConfigError(f"q must be positive, got {q}")
        if q_refusal:
            raise ConfigError(q_refusal)
        return "q", q
    if has_nl:
        if "nu" not in settings or "lambda" not in settings:
            raise ConfigError("nu and lambda must be given together")
        nu = _to_float("nu", settings["nu"])
        lam = _to_float("lambda", settings["lambda"])
        if nu <= 0.0:
            raise ConfigError(f"nu must be positive, got {nu}")
        if lam < 0.0:
            raise ConfigError(f"lambda must be non-negative, got {lam}")
        return "nl", (nu, lam)
    if "n_sum" not in settings or "l_sum" not in settings:
        raise ConfigError("n_sum and l_sum must be given together")
    n_sum = _to_int("n_sum", settings["n_sum"])
    l_sum = _to_int("l_sum", settings["l_sum"])
    try:
        qn = QuantumNumbers.from_sums(n_sum, l_sum)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return "nl", nu_lambda(qn, spec)


def _parse_phi(text: str):
    if text == "dos":
        return "dos"
    value = _to_float("phi", text)
    if value <= 0.0:
        raise ConfigError(f"phi must be positive, got {value}")
    return value


def _report(spec: SystemSpec, **values) -> str:
    """The solve and phi report: the system, then one "key = value" line each."""
    lines = [f"system = {spec.label}", f"N = {spec.N}", f"D = {spec.D}"]
    for key, value in values.items():
        lines.append(f"{key} = {value}" if isinstance(value, str) else f"{key} = {value:.12g}")
    return "\n".join(lines) + "\n"


def _solve_report(settings: dict[str, str]) -> str:
    from .dos import improved_energy_at
    from .et_core import energy

    spec, shift = _build_system(settings)
    mode = _parse_phi(settings.get("phi", "2"))
    form, data = _quantum_input(
        settings, spec,
        None if mode == 2.0 else "phi weighting needs nu/lambda or n_sum/l_sum input, not q",
    )
    if form == "q":
        sol = energy(spec, data)
        phi_used = 2.0
    else:
        nu, lam = data
        sol, pres = improved_energy_at(spec, nu, lam, None if mode == "dos" else mode)
        phi_used = mode if pres is None else pres.phi
    return _report(spec, phi=phi_used, Q=sol.q_used, E=sol.E + shift, r0=sol.r0, p0=sol.p0,
                   bound=sol.bound.name.lower())


def _phi_report(settings: dict[str, str]) -> str:
    from .dos import compute_phi

    spec, _ = _build_system(settings)
    _, (nu, lam) = _quantum_input(
        settings, spec, "the weight needs nu/lambda or n_sum/l_sum input, not q")
    pres = compute_phi(spec, float(lam))
    return _report(spec, nu=float(nu), **{"lambda": float(lam)}, phi=pres.phi,
                   a_sq=pres.a_sq, b_n=pres.b_n, b_d=pres.b_d, r0_at_lambda=pres.r0_at_lam)


def _table_csv(results) -> str:
    lines = ["mode,n_sum,l_sum,exact,energy,phi_used"]
    for mode_id, result in results:
        for row in result.rows:
            lines.append(
                f"{mode_id},{row.n_sum},{row.l_sum},{row.exact:.3f},"
                f"{row.E:.12g},{row.phi:.12g}"
            )
    return "\n".join(lines) + "\n"


def _table_pretty(results) -> str:
    labels = [f"phi={mode_id}" for mode_id, _ in results]
    head = f"{'n_sum':>5}{'l_sum':>7}{'exact':>9}" + "".join(
        f"{label:>10}" for label in labels
    )
    lines = [head]
    first = results[0][1]
    for idx, row in enumerate(first.rows):
        cells = "".join(f"{res.rows[idx].E:>10.3f}" for _, res in results)
        lines.append(f"{row.n_sum:>5d}{row.l_sum:>7d}{row.exact:>9.3f}" + cells)
    for label, field in (
        ("mean rel err (%)", "delta"),
        ("  l_sum=0 rows (%)", "delta_l0"),
        ("  l_sum>0 rows (%)", "delta_rest"),
    ):
        cells = "".join(
            f"{100.0 * getattr(res, field):>10.1f}" for _, res in results
        )
        lines.append(f"{label:<21}" + cells)
    return "\n".join(lines) + "\n"


def _csv_target(path: str | None) -> Path | None:
    """The --csv path, checked before any work is done: its directory must exist."""
    if not path:
        return None
    target = Path(path)
    if not target.parent.is_dir():
        raise ConfigError(f"{path}: cannot write CSV: no directory {str(target.parent)!r}")
    return target


def _emit(target: Path | None, text: str) -> None:
    """text into the checked --csv target, or to stdout without one."""
    if target is None:
        sys.stdout.write(text)
        return
    try:
        target.write_text(text)
    except OSError as exc:
        raise ConfigError(f"{target}: cannot write CSV: {exc}") from exc


def _run_table1(args: argparse.Namespace) -> None:
    modes = _TABLE_MODES if args.phi == "all" else [(args.phi, _parse_phi(args.phi))]
    target = _csv_target(args.csv)
    results = [(mode_id, table1(phi_mode=mode)) for mode_id, mode in modes]
    _emit(target, _table_csv(results) if target else _table_pretty(results))


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be START:STOP:COUNT, got {text!r}")
    start = _to_float("grid start", parts[0])
    stop = _to_float("grid stop", parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"grid count must be an integer, got {parts[2]!r}") from None
    if count < 1:
        raise ConfigError(f"grid count must be at least 1, got {count}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _scan_rows(args: argparse.Namespace, settings: dict[str, str]):
    from .dos import improved_energy_at

    axis = args.axis
    grid = _parse_grid(args.grid)
    if axis == "N" and ("n_sum" not in settings or "l_sum" not in settings):
        raise ConfigError("axis N needs n_sum and l_sum so the collective "
                          "numbers can follow the particle count")
    if axis == "lambda" and ("n_sum" in settings or "l_sum" in settings):
        raise ConfigError("axis lambda needs nu, not n_sum/l_sum")
    if axis == "lambda" and "nu" not in settings:
        raise ConfigError("axis lambda needs nu")
    # each grid point is a solve input, built and so checked before the first solve
    points = []
    for x in grid:
        point = {**settings, axis: repr(x)}
        spec, shift = _build_system(point)
        _, (nu, lam) = _quantum_input(
            point, spec, "scan needs nu/lambda or n_sum/l_sum input, not q")
        points.append((x, spec, shift, nu, lam))

    with_ratio = axis == "b" and settings["system"] == "powerlaw2" and all(x > 0.0 for x in grid)
    header = [axis, "E_phi2", "E_dos", "phi_dos"]
    if with_ratio:
        header += ["c1", "c2", "delta"]

    # a solve that fails leaves its own cells empty and says why on stderr
    rows, failed = [], False
    for x, spec, shift, nu, lam in points:
        cells = [f"{x:.12g}"]
        for phi in (2.0, None):
            try:
                sol, pres = improved_energy_at(spec, nu, lam, phi)
            except EtkitError as exc:
                print(f"{axis}={x:.12g}: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed = True
                cells += [""] if phi else ["", ""]
                continue
            cells.append(f"{sol.E + shift:.12g}")
            if pres is not None:
                cells.append(f"{pres.phi:.12g}")
        if with_ratio:
            c1, c2, delta = bsq_ratio_coeffs(x)
            cells += [f"{c1:.12g}", f"{c2:.12g}", f"{delta:.12g}"]
        rows.append(cells)
    return header, rows, failed


def _run_scan(args: argparse.Namespace) -> int:
    settings = _collect_settings(args, ("phi", args.axis))
    target = _csv_target(args.csv)
    header, rows, failed = _scan_rows(args, settings)
    text = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
    _emit(target, text)
    return 3 if failed else 0


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value parameter file")
    for key in sorted(_CONFIG_KEYS, key=list(_KEY_HELP).index):
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=_KEY_HELP[key])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etkit",
        description="Eigenvalue estimates for N-body Hamiltonians with "
                    "identical particles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="energy of one level of one system")
    _add_param_flags(p_solve)

    p_phi = sub.add_parser("phi", help="quantum-number weight and its ingredients")
    _add_param_flags(p_phi)

    p_table = sub.add_parser("table1", help="embedded baryon comparison table")
    p_table.add_argument("--phi", default="all",
                         help="'all', 'dos', or a positive number (default all)")
    p_table.add_argument("--csv", metavar="PATH", help="write CSV instead of a table")

    p_scan = sub.add_parser("scan", help="sweep one axis, emit CSV")
    _add_param_flags(p_scan)
    p_scan.add_argument("--axis", required=True, choices=("N", "b", "lambda"),
                        help="swept parameter")
    p_scan.add_argument("--grid", required=True, metavar="START:STOP:COUNT",
                        help="evenly spaced sweep values; write --grid=START:... "
                             "when START is negative")
    p_scan.add_argument("--csv", metavar="PATH", help="write CSV here instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            _emit(None, _solve_report(_collect_settings(args)))
        elif args.command == "phi":
            _emit(None, _phi_report(_collect_settings(args, ("phi",))))
        elif args.command == "table1":
            _run_table1(args)
        else:
            return _run_scan(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EtkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
