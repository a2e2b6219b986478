"""Import structure: each entry point loads only the modules it runs.

What a process loads is checked in a fresh interpreter, since this test
process has long since imported everything.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import etkit

GOLDEN = Path(__file__).parent / "data" / "table1_all.csv"


def loaded_after(code: str) -> set[str]:
    """Top-level and etkit module names in sys.modules after code runs."""
    probe = (
        f"{code}\n"
        "import sys\n"
        "print(' '.join(sorted(m for m in sys.modules if '.' not in m or m.startswith('etkit.'))))"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


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
