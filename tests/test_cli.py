"""End-to-end checks of the command line front end.

Most run in-process through ``cli.main``, with stdout and stderr captured
and a SystemExit read as the exit code.  A few start ``python -m
etkit.cli`` in a child interpreter: the module entry with its exit codes
0, 2 and 3, one ``--help`` and one config-file run.
"""

import argparse
import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path

import pytest

from etkit import cli

GOLDEN = Path(__file__).parent / "data" / "table1_all.csv"


def run_cli(*args):
    """cli.main(args) in this process, as the console would run it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(["etkit", *args], code, out.getvalue(), err.getvalue())


def run_module(*args):
    """``python -m etkit.cli`` with args, in a child interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "etkit.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def stdout_fields(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestSolve:
    def test_baryon_ground_state(self):
        # through the module entry: exit code 0
        res = run_module(
            "solve",
            "--system", "baryon",
            "--N", "3",
            "--k", "0.2",
            "--alpha-s", "0.4",
            "--nu", "1",
            "--lambda", "1",
            "--phi", "dos",
        )
        assert res.returncode == 0
        fields = stdout_fields(res.stdout)
        assert float(fields["E"]) == pytest.approx(1.94455513894, rel=1e-9)
        assert float(fields["phi"]) == pytest.approx(1.03741966884, rel=1e-9)
        assert fields["bound"] == "none"

    def test_zero_lambda_given_directly_names_no_dimension(self):
        # lambda = 0 from nu and lambda says nothing of D: this system is in
        # D = 3, and the refusal claimed an s-wave in D = 2
        res = run_cli(
            "solve",
            "--system", "powerlaw2",
            "--m", "1",
            "--a", "1",
            "--b", "1",
            "--N", "2",
            "--nu", "1",
            "--lambda", "0",
            "--phi", "dos",
        )
        assert res.returncode == 3
        assert "PhiUndefined" in res.stderr and "lambda = 0" in res.stderr
        assert "D = 2" not in res.stderr

    def test_default_weight_keeps_the_bound_tag(self):
        res = run_cli(
            "solve",
            "--system", "powerlaw2",
            "--m", "1",
            "--a", "1",
            "--b", "2",
            "--N", "2",
            "--q", "1.5",
        )
        assert res.returncode == 0
        fields = stdout_fields(res.stdout)
        assert float(fields["E"]) == pytest.approx(3.0, rel=1e-10)
        assert fields["bound"] == "upper"

    def test_unbound_well_reports_failure(self):
        # through the module entry: exit code 3
        res = run_module(
            "solve",
            "--system", "gaussian",
            "--m", "1",
            "--V0", "0.01",
            "--R", "1",
            "--N", "2",
            "--q", "1.5",
        )
        assert res.returncode == 3
        assert "NoBoundState" in res.stderr

    def test_dos_weight_needs_split_quantum_numbers(self):
        res = run_cli(
            "solve",
            "--system", "powerlaw2",
            "--m", "1",
            "--a", "1",
            "--b", "1",
            "--N", "2",
            "--q", "1.5",
            "--phi", "dos",
        )
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_quantum_number_forms_are_exclusive(self):
        res = run_cli(
            "solve",
            "--system", "powerlaw2",
            "--m", "1",
            "--a", "1",
            "--b", "1",
            "--N", "2",
            "--q", "1.5",
            "--nu", "0.5",
        )
        assert res.returncode == 2

    def test_ground_shift_is_d_omega_over_two(self):
        # planar pair: Q = 1 gives omega Q = 0.5, and the centre of mass
        # adds D omega / 2 = 0.5 more
        res = run_cli(
            "solve",
            "--system", "confined",
            "--D", "2",
            "--N", "2",
            "--m", "1",
            "--omega", "0.5",
            "--g", "0",
            "--n-sum", "0",
            "--l-sum", "0",
            "--ground-shift", "true",
        )
        assert res.returncode == 0
        assert float(stdout_fields(res.stdout)["E"]) == pytest.approx(1.0, rel=1e-10)

    def test_missing_parameter_is_a_config_error(self):
        # through the module entry: exit code 2
        res = run_module(
            "solve", "--system", "gaussian", "--m", "1", "--V0", "5", "--q", "1.5"
        )
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_help_through_the_module_entry(self):
        res = run_module("--help")
        assert res.returncode == 0
        assert res.stdout.startswith("usage:") and not res.stderr


class TestConfigErrors:
    # in-process, so each case costs no interpreter start-up
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--system", "gaussian", "--m", "1", "--V0", "1", "--R", "1", "--b", "2",
              "--N", "2", "--q", "1"],
             "parameter 'b' does not apply to system 'gaussian'"),
            (["--system", "baryon", "--N", "3", "--k", "0.2", "--g", "0.1",
              "--alpha-s", "0.4", "--q", "3"],
             "give either g or alpha_s for the baryon system, not both"),
            (["--system", "baryon", "--N", "3", "--k", "0.2", "--q", "3"],
             "the baryon system needs g or alpha_s"),
            (["--system", "powerlaw2", "--m", "1", "--a", "1", "--b", "1", "--N", "2",
              "--q", "1", "--ground-shift", "true"],
             "parameter 'ground_shift' does not apply to system 'powerlaw2'"),
            (["--system", "quark", "--N", "3", "--q", "3"],
             "unknown system 'quark'; choose one of baryon, confined, gaussian, "
             "powerlaw1, powerlaw2"),
            (["--system", "powerlaw2", "--m", "1", "--a", "1", "--b", "1", "--q", "1"],
             "system 'powerlaw2' needs parameter 'N'"),
            # a value the library refuses; the parameter records' own
            # checks used to exit 3 as a domain failure
            (["--system", "powerlaw2", "--m", "-1", "--a", "1", "--b", "1", "--N", "2",
              "--q", "1.5"],
             "m must be positive and finite, got -1.0"),
            (["--system", "powerlaw1", "--a", "1", "--b", "0", "--N", "3", "--q", "3"],
             "b must be positive and finite, got 0.0"),
            (["--system", "gaussian", "--m", "1", "--V0", "1", "--R", "0", "--N", "3",
              "--q", "3"],
             "R must be positive and finite, got 0.0"),
            (["--system", "confined", "--m", "1", "--omega", "0.5", "--g", "-0.1",
              "--N", "3", "--q", "3"],
             "coupling must be non-negative and finite, got -0.1"),
            (["--system", "baryon", "--k", "0.2", "--alpha-s", "-0.4", "--N", "3",
              "--q", "3"],
             "coupling must be non-negative and finite"),
            (["--system", "powerlaw2", "--m", "1", "--a", "1", "--b", "1", "--N", "1",
              "--q", "1"],
             "need at least two particles, got N=1"),
            (["--system", "powerlaw2", "--m", "1", "--a", "1", "--b", "1", "--N", "2",
              "--D", "1", "--q", "1"],
             "need dimension D >= 2, got D=1"),
            (["--system", "powerlaw2", "--m", "1", "--a", "1", "--b", "1", "--N", "2",
              "--n-sum", "-1", "--l-sum", "0"],
             "n_sum must be a non-negative integer, got -1"),
        ],
        ids=["foreign-key", "g-and-alpha-s", "no-coupling", "ground-shift",
             "unknown-system", "missing-N", "powerlaw2-m", "powerlaw1-b", "gaussian-R",
             "confined-g", "baryon-alpha-s", "one-particle", "one-dimension",
             "negative-n-sum"],
    )
    def test_exit_code_and_message(self, capsys, argv, message):
        assert cli.main(["solve", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err

    SCAN = ["scan", "--system", "confined", "--m", "1", "--omega", "0.5", "--g", "0.1",
            "--n-sum", "0", "--l-sum", "0", "--axis", "N", "--grid", "2:8:7"]

    @pytest.mark.parametrize("command", ["table1", "scan"])
    def test_csv_into_a_missing_directory(self, capsys, monkeypatch, tmp_path, command):
        # both ended in a FileNotFoundError traceback, and scan only after
        # computing every row
        def no_rows(*args):
            raise AssertionError("rows computed for an unwritable CSV path")

        monkeypatch.setattr(cli, "_scan_rows", no_rows)
        monkeypatch.setattr(cli, "table1", no_rows)
        argv = self.SCAN if command == "scan" else ["table1"]
        target = tmp_path / "missing" / "x.csv"
        assert cli.main([*argv, "--csv", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {target}: cannot write CSV")
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", ["table1", "scan"])
    def test_csv_onto_a_directory(self, capsys, tmp_path, command):
        argv = self.SCAN if command == "scan" else ["table1"]
        assert cli.main([*argv, "--csv", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {tmp_path}: cannot write CSV")

    def test_unbound_baryon_is_a_domain_failure(self, capsys):
        argv = ["solve", "--system", "baryon", "--N", "1000", "--k", "1",
                "--g", "0.01", "--q", "1498.5"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("UnboundRegime: ")


class TestConfigFile:
    CONFIG = (
        "# three quarks with a linear confinement\n"
        "system = baryon\n"
        "N = 3\n"
        "k = 0.2\n"
        "alpha_s = 0.4\n"
        "nu = 1\n"
        "lambda = 1\n"
        "phi = dos\n"
    )

    def test_config_matches_flags(self, tmp_path):
        # through the module entry
        cfg = tmp_path / "baryon.cfg"
        cfg.write_text(self.CONFIG)
        res = run_module("solve", "--config", str(cfg))
        assert res.returncode == 0
        assert float(stdout_fields(res.stdout)["E"]) == pytest.approx(
            1.94455513894, rel=1e-9
        )

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "baryon.cfg"
        cfg.write_text(self.CONFIG)
        res = run_cli("solve", "--config", str(cfg), "--alpha-s", "0")
        assert res.returncode == 0
        fields = stdout_fields(res.stdout)
        assert float(fields["E"]) > 1.945
        assert float(fields["phi"]) == pytest.approx(math.sqrt(2.0), rel=1e-9)

    @pytest.mark.parametrize(
        "body,lineno",
        [
            ("system = powerlaw2\ncolour = red\n", 2),
            ("system = powerlaw2\nm = 1\nm = 2\n", 3),
            ("system = powerlaw2\njust words\n", 2),
            ("system =\n", 1),
        ],
    )
    def test_bad_config_reports_file_and_line(self, tmp_path, body, lineno):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        res = run_cli("solve", "--config", str(cfg))
        assert res.returncode == 2
        assert f"{cfg}:{lineno}:" in res.stderr

    def test_missing_config_file(self, tmp_path):
        res = run_cli("solve", "--config", str(tmp_path / "nope.cfg"))
        assert res.returncode == 2

    # one case per family, the config keys given once as a file and once
    # as the matching --KEY flags
    FAMILY_CASES = {
        "powerlaw2": {"system": "powerlaw2", "N": "2", "m": "1", "a": "1", "b": "1",
                      "n_sum": "1", "l_sum": "2", "phi": "dos"},
        "powerlaw1": {"system": "powerlaw1", "N": "3", "a": "1", "b": "1.5", "nu": "1",
                      "lambda": "2"},
        "gaussian": {"system": "gaussian", "N": "2", "m": "1", "V0": "5", "R": "2",
                     "n_sum": "0", "l_sum": "1", "phi": "1.5"},
        "confined": {"system": "confined", "D": "2", "N": "3", "m": "1", "omega": "0.5",
                     "g": "0.1", "n_sum": "0", "l_sum": "1", "ground_shift": "yes"},
        "baryon": {"system": "baryon", "N": "3", "k": "0.2", "g": "0.1", "q": "3"},
    }

    @pytest.mark.parametrize("family", list(FAMILY_CASES))
    def test_config_matches_flags_for_every_family(self, capsys, tmp_path, family):
        case = self.FAMILY_CASES[family]
        cfg = tmp_path / f"{family}.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in case.items()))
        assert cli.main(["solve", "--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        flags = [arg for key, value in case.items()
                 for arg in ("--" + key.replace("_", "-"), value)]
        assert cli.main(["solve", *flags]) == 0
        from_flags = capsys.readouterr().out
        assert from_file == from_flags
        assert stdout_fields(from_file)["system"] == family


class TestKeyTable:
    @staticmethod
    def subparser(command):
        parser = cli._build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        return sub.choices[command]

    @pytest.mark.parametrize("command", ["solve", "phi", "scan"])
    def test_one_flag_per_config_key(self, command):
        own = {"-h", "--help", "--config", "--axis", "--grid", "--csv"}
        flags = {option: action.dest for action in self.subparser(command)._actions
                 for option in action.option_strings if option not in own}
        assert flags == {"--" + key.replace("_", "-"): key for key in cli._CONFIG_KEYS}

    def test_every_flag_reaches_the_settings(self):
        values = {key: f"value{i}" for i, key in enumerate(cli._CONFIG_KEYS)}
        argv = [arg for key, value in values.items()
                for arg in ("--" + key.replace("_", "-"), value)]
        args = cli._build_parser().parse_args(["solve", *argv])
        assert cli._collect_settings(args) == values


class TestTable:
    def test_pretty_output_carries_the_error_summary(self):
        res = run_cli("table1", "--phi", "dos")
        assert res.returncode == 0
        assert "mean rel err (%)" in res.stdout
        assert "4.7" in res.stdout

    def test_csv_matches_golden_file(self, tmp_path):
        out = tmp_path / "table.csv"
        res = run_cli("table1", "--phi", "all", "--csv", str(out))
        assert res.returncode == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_csv_is_reproducible(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli("table1", "--phi", "all", "--csv", str(first)).returncode == 0
        assert run_cli("table1", "--phi", "all", "--csv", str(second)).returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_single_mode_csv_has_sixteen_rows(self, tmp_path):
        out = tmp_path / "one.csv"
        res = run_cli("table1", "--phi", "1.35", "--csv", str(out))
        assert res.returncode == 0
        header, rows = csv_rows(out.read_text())
        assert header == ["mode", "n_sum", "l_sum", "exact", "energy", "phi_used"]
        assert len(rows) == 16
        assert {row["mode"] for row in rows} == {"1.35"}

    def test_unknown_mode_is_rejected(self):
        res = run_cli("table1", "--phi", "median")
        assert res.returncode == 2


class TestScan:
    def test_particle_number_scan(self):
        res = run_cli(
            "scan",
            "--system", "confined",
            "--m", "1",
            "--omega", "0.5",
            "--g", "0.1",
            "--n-sum", "0",
            "--l-sum", "0",
            "--axis", "N",
            "--grid", "2:8:7",
        )
        assert res.returncode == 0
        header, rows = csv_rows(res.stdout)
        assert header == ["N", "E_phi2", "E_dos", "phi_dos"]
        assert len(rows) == 7
        phis = [float(r["phi_dos"]) for r in rows]
        assert phis == sorted(phis)
        assert all(float(r["E_dos"]) > float(r["E_phi2"]) for r in rows)

    def test_ground_shift_follows_the_dimension(self):
        # D = 4, g = 0: E = omega Q + 2 omega with Q = 2 (N - 1)
        res = run_cli(
            "scan",
            "--system", "confined",
            "--D", "4",
            "--m", "1",
            "--omega", "0.5",
            "--g", "0",
            "--n-sum", "0",
            "--l-sum", "0",
            "--ground-shift", "true",
            "--axis", "N",
            "--grid", "2:3:2",
        )
        assert res.returncode == 0
        _, rows = csv_rows(res.stdout)
        for row, expected in zip(rows, [2.0, 3.0]):
            assert float(row["E_phi2"]) == pytest.approx(expected, rel=1e-10)
            assert float(row["E_dos"]) == pytest.approx(expected, rel=1e-10)

    def test_powerlaw_scan_carries_band_ratio_columns(self):
        res = run_cli(
            "scan",
            "--system", "powerlaw2",
            "--m", "1",
            "--a", "1",
            "--N", "2",
            "--n-sum", "0",
            "--l-sum", "0",
            "--axis", "b",
            "--grid", "0.5:2.5:5",
        )
        assert res.returncode == 0
        header, rows = csv_rows(res.stdout)
        assert header[-3:] == ["c1", "c2", "delta"]
        deltas = [float(r["delta"]) for r in rows]
        assert max(deltas) <= 0.016
        at_two = next(r for r in rows if float(r["b"]) == pytest.approx(2.0))
        assert float(at_two["delta"]) == pytest.approx(0.0, abs=1e-9)
        assert float(at_two["c1"]) == pytest.approx(2.0, rel=1e-9)

    def test_grid_below_zero_is_given_with_an_equals_sign(self):
        # after "--grid " a value starting with "-" reads as an option
        res = run_cli(
            "scan",
            "--system", "powerlaw2",
            "--m", "1",
            "--a", "1",
            "--N", "2",
            "--n-sum", "0",
            "--l-sum", "1",
            "--axis", "b",
            "--grid=-1:-1:1",
        )
        assert res.returncode == 0
        header, rows = csv_rows(res.stdout)
        assert header == ["b", "E_phi2", "E_dos", "phi_dos"]
        # the Coulomb weight is 1, which gives the exact 2p level
        assert float(rows[0]["E_dos"]) == pytest.approx(-0.0625, rel=1e-12)
        assert float(rows[0]["phi_dos"]) == pytest.approx(1.0, rel=1e-12)

    def test_pair_strength_scan_approaches_the_pure_linear_weight(self):
        res = run_cli(
            "scan",
            "--system", "baryon",
            "--k", "0.2",
            "--g", "0.1",
            "--N", "3",
            "--nu", "0.5",
            "--axis", "lambda",
            "--grid", "1:10:5",
        )
        assert res.returncode == 0
        _, rows = csv_rows(res.stdout)
        phis = [float(r["phi_dos"]) for r in rows]
        assert phis == sorted(phis)
        assert phis[-1] < math.sqrt(2.0)
        assert phis[-1] > phis[0]

    def test_axis_requires_matching_inputs(self):
        res = run_cli(
            "scan",
            "--system", "baryon",
            "--k", "0.2",
            "--g", "0.1",
            "--N", "3",
            "--q", "2",
            "--axis", "lambda",
            "--grid", "1:10:5",
        )
        # the swept lambda joined the given q, and the refusal named three
        # input forms where only one was given
        assert res.returncode == 2
        assert res.stderr == "config error: axis lambda needs nu\n"

    def test_unknown_axis_is_rejected_by_the_parser(self):
        res = run_cli(
            "scan",
            "--system", "baryon",
            "--k", "0.2",
            "--g", "0.1",
            "--N", "3",
            "--nu", "0.5",
            "--axis", "mass",
            "--grid", "1:10:5",
        )
        assert res.returncode == 2

    def test_bad_grid_spec(self):
        res = run_cli(
            "scan",
            "--system", "baryon",
            "--k", "0.2",
            "--g", "0.1",
            "--N", "3",
            "--nu", "0.5",
            "--axis", "lambda",
            "--grid", "1..10",
        )
        assert res.returncode == 2


class TestScanAcrossAThreshold:
    # the two-body Gaussian well stops binding between lambda = 1 and 1.5
    GAUSSIAN = ["scan", "--system", "gaussian", "--m", "1", "--V0", "5", "--R", "2",
                "--N", "2", "--nu", "1", "--axis", "lambda"]
    UNBOUND = "NoBoundState: gaussian system does not bind at q={}: scaled number {} lies below -1/e"

    def test_unbound_points_leave_their_cells_empty(self, capsys):
        # the first unbound solve ended the scan with exit 3 and no CSV
        assert cli.main([*self.GAUSSIAN, "--grid", "0.5:2:4"]) == 3
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "lambda,E_phi2,E_dos,phi_dos"
        assert lines[3:] == ["1.5,,0.669455123693,1.78203717872", "2,,,"]
        assert err.splitlines() == [
            "lambda=1.5: " + self.UNBOUND.format("3.5", "-0.391312"),
            "lambda=2: " + self.UNBOUND.format("4", "-0.447214"),
            "lambda=2: " + self.UNBOUND.format("3.67017", "-0.410337"),
        ]
        # the rows that solve are those of a scan over them alone
        assert cli.main([*self.GAUSSIAN, "--grid", "0.5:1:2"]) == 0
        assert capsys.readouterr().out.splitlines() == lines[:3]

    def test_zero_lambda_keeps_the_plain_energy(self, capsys):
        # the weight is undefined at lambda = 0; that ended the scan too
        assert cli.main([*self.GAUSSIAN, "--grid", "0:1:3"]) == 3
        out, err = capsys.readouterr()
        header, rows = csv_rows(out)
        assert len(rows) == 3
        assert rows[0]["E_phi2"] != ""
        assert (rows[0]["E_dos"], rows[0]["phi_dos"]) == ("", "")
        assert all(row[key] != "" for row in rows[1:] for key in header)
        assert len(err.splitlines()) == 1
        assert err.startswith("lambda=0: PhiUndefined: ")


class TestKeysACommandSets:
    # a valid sweep of each axis; scan sets the swept key and phi itself
    SCANS = {
        "N": ["--system", "confined", "--m", "1", "--omega", "0.5", "--g", "0.1",
              "--n-sum", "0", "--l-sum", "0", "--axis", "N", "--grid", "2:3:2"],
        "b": ["--system", "powerlaw2", "--m", "1", "--a", "1", "--N", "2",
              "--n-sum", "0", "--l-sum", "1", "--axis", "b", "--grid", "1:2:2"],
        "lambda": ["--system", "baryon", "--k", "0.2", "--g", "0.1", "--N", "3",
                   "--nu", "0.5", "--axis", "lambda", "--grid", "1:2:2"],
    }
    PHI = ["--system", "powerlaw2", "--m", "1", "--a", "1", "--b", "1", "--N", "2",
           "--n-sum", "1", "--l-sum", "2"]

    @pytest.mark.parametrize("axis", list(SCANS))
    def test_swept_key_is_refused(self, capsys, axis):
        # a given N or b was overwritten by the grid without a word (exit 0)
        assert cli.main(["scan", *self.SCANS[axis], "--" + axis, "3"]) == 2
        assert capsys.readouterr().err == (
            f"config error: scan sets {axis!r} itself; do not give it\n")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["phi", "scan"])
    def test_phi_is_refused(self, capsys, tmp_path, command, source):
        # both commands dropped a given phi without a word (exit 0)
        argv = [command, *(self.PHI if command == "phi" else self.SCANS["N"])]
        if source == "flag":
            argv += ["--phi", "7"]
        else:
            cfg = tmp_path / "phi.cfg"
            cfg.write_text("phi = 7\n")
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {command} sets 'phi' itself; do not give it\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--system", "baryon", "--k", "0.2", "--g", "0.1", "--n-sum", "0",
              "--l-sum", "1", "--axis", "N", "--grid", "3:4:3"],
             "N must be an integer, got '3.5'"),
            (["--system", "baryon", "--k", "0.2", "--g", "0.1", "--N", "3", "--nu", "0.5",
              "--axis", "lambda", "--grid=2:-1:4"],
             "lambda must be non-negative, got -1.0"),
            # each point then held lambda and the sums, and the refusal
            # named three input forms where only one was given
            (["--system", "powerlaw2", "--m", "1", "--a", "1", "--b", "1", "--N", "2",
              "--n-sum", "0", "--l-sum", "1", "--axis", "lambda", "--grid", "0.5:2:4"],
             "axis lambda needs nu, not n_sum/l_sum"),
            # q with the swept lambda read as two input forms, and lambda
            # alone as "nu and lambda must be given together"
            (["--system", "baryon", "--k", "0.2", "--g", "0.1", "--N", "3", "--q", "2",
              "--axis", "lambda", "--grid", "1:10:5"],
             "axis lambda needs nu"),
            (["--system", "baryon", "--k", "0.2", "--g", "0.1", "--N", "3",
              "--axis", "lambda", "--grid", "1:10:5"],
             "axis lambda needs nu"),
        ],
        ids=["half-particle", "negative-lambda", "sums-on-lambda-axis", "q-on-lambda-axis",
             "no-nu-on-lambda-axis"],
    )
    def test_bad_grid_point_is_refused_before_any_solve(self, capsys, monkeypatch, argv,
                                                         message):
        # N = 3.5 was refused after both solves of N = 3, and lambda = -1
        # never: the scan ended at lambda = 0 in PhiUndefined (exit 3)
        from etkit import dos

        calls = []
        solve = dos.improved_energy_at

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(dos, "improved_energy_at", counted)
        assert cli.main(["scan", *argv]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert calls == []


class TestPhiReport:
    def test_reports_the_slope_breakdown(self):
        res = run_cli(
            "phi",
            "--system", "baryon",
            "--N", "3",
            "--k", "0.2",
            "--alpha-s", "0.4",
            "--nu", "1",
            "--lambda", "1",
        )
        assert res.returncode == 0
        fields = stdout_fields(res.stdout)
        assert float(fields["phi"]) == pytest.approx(1.0374196688, rel=1e-9)
        assert float(fields["a_sq"]) == pytest.approx(1.2, rel=1e-12)
        assert float(fields["b_n"]) == pytest.approx(0.422372988642, rel=1e-9)
        assert float(fields["b_d"]) == pytest.approx(0.4, rel=1e-9)
        assert float(fields["r0_at_lambda"]) == pytest.approx(2.84109077112, rel=1e-9)

    def test_zero_orbital_sum_cannot_define_the_weight(self):
        res = run_cli(
            "phi",
            "--system", "powerlaw2",
            "--m", "1",
            "--a", "1",
            "--b", "1",
            "--N", "2",
            "--nu", "1.5",
            "--lambda", "0",
        )
        assert res.returncode == 3
        assert "PhiUndefined" in res.stderr
