"""Import structure: each entry point loads only the modules it runs.

What a process loads is checked in a fresh interpreter, since this test
process has long since imported everything.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import etkit
from etkit import cli, et_core

GOLDEN = Path(__file__).parent / "data" / "table1_all.csv"


def run_fresh(code: str) -> tuple[list[str], set[str]]:
    """The lines code prints in a fresh interpreter, and the top-level and
    etkit module names in sys.modules after it runs."""
    probe = (
        f"{code}\n"
        "import sys\n"
        "print(' '.join(sorted(m for m in sys.modules if '.' not in m or m.startswith('etkit.'))))"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    *lines, loaded = res.stdout.splitlines()
    return lines, set(loaded.split())


def loaded_after(code: str) -> set[str]:
    """Top-level and etkit module names in sys.modules after code runs."""
    return run_fresh(code)[1]


def test_import_loads_no_numpy():
    loaded = loaded_after("import etkit")
    assert "numpy" not in loaded
    assert not {m for m in loaded if m.startswith("etkit.")}


def test_table1_loads_no_numpy_and_writes_the_golden_table(tmp_path):
    out = tmp_path / "table1.csv"
    loaded = loaded_after(
        "from etkit import cli\n"
        f"assert cli.main(['table1', '--phi', 'all', '--csv', {str(out)!r}]) == 0"
    )
    assert "numpy" not in loaded
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_help_loads_no_numpy():
    loaded = loaded_after(
        "import contextlib, io\n"
        "from etkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
    )
    assert "numpy" not in loaded


@pytest.mark.parametrize("command", ["solve", "scan"])
def test_command_help_loads_no_numpy(command):
    # these pages list the flags built from the family parameter records
    loaded = loaded_after(
        "import contextlib, io\n"
        "from etkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        cli.main([{command!r}, '--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
    )
    assert "numpy" not in loaded


def test_solve_loads_no_oracle():
    loaded = loaded_after(
        "import contextlib, io\n"
        "from etkit import cli\n"
        "argv = ['solve', '--system', 'baryon', '--N', '3', '--k', '0.2', '--alpha-s', '0.4',\n"
        "        '--nu', '1', '--lambda', '1', '--phi', 'dos']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(argv) == 0\n"
    )
    assert "etkit.et_core" in loaded
    assert "etkit.oracle" not in loaded


BARYON_SOLVE = ["solve", "--system", "baryon", "--N", "3", "--k", "0.2", "--alpha-s", "0.4",
                "--nu", "1", "--lambda", "1", "--phi", "dos"]
GROUND_SHIFT_SOLVE = ["solve", "--system", "confined", "--D", "2", "--N", "2", "--m", "1",
                      "--omega", "0.5", "--g", "0", "--n-sum", "0", "--l-sum", "0",
                      "--ground-shift", "true"]
POWERLAW2 = ["--system", "powerlaw2", "--m", "1", "--a", "1", "--b", "1"]
SCAN_39 = ["scan", *POWERLAW2, "--n-sum", "0", "--l-sum", "1", "--axis", "N", "--grid", "2:40:39"]
# one argv per command for each family the scan evaluates without numpy
FAMILY_ARGS = {
    "powerlaw2": [*POWERLAW2, "--N", "3"],
    "powerlaw1": ["--system", "powerlaw1", "--a", "0.7", "--b", "0.5", "--N", "4"],
    "confined": ["--system", "confined", "--N", "3", "--m", "1", "--omega", "1.5", "--g", "0.3"],
    "baryon": ["--system", "baryon", "--N", "3", "--k", "0.2", "--alpha-s", "0.4"],
}


def cli_runs(argvs: list[list[str]]) -> tuple[list[str], set[str], int]:
    """stdout of each argv through cli.main in one fresh interpreter, the
    modules loaded after all of them, and the grid points its scans
    evaluated point by point."""
    [result], loaded = run_fresh(
        "import contextlib, io, json\n"
        "from etkit import cli, et_core\n"
        "outs = []\n"
        f"for argv in {argvs!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        assert cli.main(argv) == 0\n"
        "    outs.append(buf.getvalue())\n"
        "print(json.dumps([outs, et_core._points_evaluated]))"
    )
    outs, evaluated = json.loads(result)
    return outs, loaded, evaluated


def in_process(argv: list[str]) -> str:
    """stdout of argv through cli.main in this process, on the array path."""
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(buf):
        mp.setattr(et_core, "_scans_point_by_point", lambda: False)
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("argv", [
    BARYON_SOLVE,
    GROUND_SHIFT_SOLVE,
    ["phi", *POWERLAW2, "--N", "2", "--n-sum", "1", "--l-sum", "2"],
    SCAN_39,
], ids=["solve-dos-baryon", "solve-ground-shift", "phi", "scan-39"])
def test_solve_phi_and_scan_load_no_numpy(argv):
    [out], loaded, evaluated = cli_runs([argv])
    assert "numpy" not in loaded
    assert 0 < evaluated < et_core._POINT_BUDGET
    assert out == in_process(argv)


@pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
def test_every_non_gaussian_family_solves_without_numpy(family):
    args = FAMILY_ARGS[family]
    argvs = [
        ["solve", *args, "--n-sum", "1", "--l-sum", "1", "--phi", "dos"],
        ["phi", *args, "--n-sum", "1", "--l-sum", "1"],
        ["scan", *args, "--nu", "1", "--axis", "lambda", "--grid", "1:5:5"],
    ]
    outs, loaded, _ = cli_runs(argvs)
    assert "numpy" not in loaded
    assert outs == [in_process(argv) for argv in argvs]


def test_long_scan_loads_numpy_once_the_budget_is_spent():
    # 399 grid points, four grid passes each: the per-point scans stop at
    # the first scan after the budget, which imports numpy
    argv = [*SCAN_39[:-1], "2:400:399"]
    [out], loaded, evaluated = cli_runs([argv])
    assert "numpy" in loaded
    assert et_core._POINT_BUDGET <= evaluated < et_core._POINT_BUDGET + 2 * len(et_core._POINTS)
    assert out == in_process(argv)


def test_public_names_resolve_and_are_listed():
    # dir() is read before any name is resolved, then every name once
    loaded = loaded_after(
        "import etkit\n"
        "listed = dir(etkit)\n"
        "assert not [n for n in etkit.__all__ if n not in listed]\n"
        "assert all(getattr(etkit, n) is not None for n in etkit.__all__)\n"
        "assert sorted(etkit.__all__) == etkit.__all__\n"
    )
    assert "etkit.oracle" in loaded


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        etkit.no_such_name  # noqa: B018
    # a module-level name the root does not export stays unreachable from it
    assert not hasattr(etkit, "FAMILIES")
