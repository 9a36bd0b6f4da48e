import csv
import json
import math
import pathlib
import subprocess
import sys
import time

import pytest

from gordonlab import cli
from gordonlab.arithmetic import GOLDEN, SQRT2_MINUS_1
from gordonlab.cli import main, parse_alpha
from gordonlab.dynamics import (
    Iet,
    Permutation,
    Shift,
    SkewProduct,
    SkewShift,
    TorusPoint,
    UnsupportedSystemError,
    orbit,
)
from gordonlab.spectral import ConvergenceFailureError

ORBIT = ["orbit", "--nmin", "0", "--nmax", "1"]
GORDON = ["gordon", "--alpha", "golden", "--q-list", "3"]
HALVES = ["--system", "iet", "--lengths", "0.5,0.5", "--perm", "2,1"]
RECIPES = sorted((pathlib.Path(__file__).parent.parent / "recipes").glob("*.json"))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    header = [line for line in text.splitlines() if line.startswith("#")]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(body))
    return header, rows[0], rows[1:]


class TestHeaders:
    def test_header_block_shape(self, capsys):
        code, out, err = run_cli(
            ["cf", "--alpha", "golden", "--depth", "6"], capsys
        )
        assert code == 0 and err == ""
        header, columns, rows = parse_csv(out)
        assert header[0] == "# schema: cf/v1"
        assert header[1].startswith("# version: gordonlab ")
        assert header[2].startswith("# config: ")
        config = json.loads(header[2][len("# config: ") :])
        assert config["alpha"] == "golden"
        assert config["depth"] == 6

    def test_seed_line_present_only_for_seeded_commands(self, capsys):
        _, out, _ = run_cli(
            [
                "prp-measure", "--system", "skewshift", "--alpha", "golden",
                "--eps", "0.05", "--qmax", "100", "--samples", "10", "--seed", "7",
            ],
            capsys,
        )
        assert "# seed: 7\n" in out
        _, out, _ = run_cli(["cf", "--alpha", "golden", "--depth", "4"], capsys)
        assert "# seed:" not in out

    @pytest.mark.parametrize(
        "command", [["transfer", "--q", "5", "--energy", "0.3"], ["spectrum", "--sites", "20"]]
    )
    def test_iet_lengths_and_perm_are_echoed(self, command, capsys):
        configs = []
        for lengths in ("0.2,0.5,0.3", "0.3,0.4,0.3"):
            _, out, _ = run_cli(
                command + ["--system", "iet", "--lengths", lengths, "--perm", "3,1,2"], capsys
            )
            header, _, _ = parse_csv(out)
            configs.append(json.loads(header[2][len("# config: ") :]))
        assert [c["lengths"] for c in configs] == ["0.2,0.5,0.3", "0.3,0.4,0.3"]
        assert configs[0]["perm"] == "3,1,2"

    def test_every_unechoed_name_is_a_live_option(self):
        """A flag removed from the parser cannot leave a stale entry behind."""
        parser = cli.build_parser()
        subparsers = parser._subparsers._group_actions[0].choices.values()
        dests = {action.dest for p in subparsers for action in p._actions}
        assert cli._NOT_ECHOED - {"command", "handler"} <= dests

    @pytest.mark.parametrize(
        "argv",
        [
            ["cf", "--alpha", "golden", "--depth", "4"],
            ["classify", "--alpha", "golden", "--c", "0.2", "--qmax", "50"],
            ["orbit", "--system", "skewshift", "--alpha", "golden", "--nmin", "0", "--nmax", "2"],
            ["repeat", "--alpha", "golden", "--eps", "0.1", "--qmax", "20"],
            ["construct-q", "--alpha", "liouville10", "--eps", "0.3", "--max-base-q", "1000"],
            [
                "prp-measure", "--system", "skewshift", "--alpha", "golden", "--eps", "0.05",
                "--qmax", "50", "--samples", "5", "--seed", "3",
            ],
            ["veech", "--system", "iet", "--lengths", "1,1", "--perm", "2,1", "--eps", "0.3", "--qmax", "5"],
            ["gordon", "--alpha", "golden", "--q-list", "3,5"],
            ["transfer", "--alpha", "golden", "--q", "3", "--energy", "0.2"],
            ["spectrum", "--alpha", "golden", "--sites", "6", "--vectors"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_echo_is_every_option_but_the_run_only_ones(self, argv, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, err = run_cli(argv + ["--format", "json", "--output", str(target)], capsys)
        assert (code, out, err) == (0, "", "")
        config = json.loads(target.read_text())["config"]
        assert not set(config) & {"format", "output", "seed", "command", "handler"}
        given = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
        assert given - {"seed"} <= set(config)


class TestRows:
    def test_cf_convergent_denominators(self, capsys):
        _, out, _ = run_cli(["cf", "--alpha", "golden", "--depth", "6"], capsys)
        _, columns, rows = parse_csv(out)
        assert columns == ["k", "a_k", "p_k", "q_k"]
        assert [r[1] for r in rows] == ["1"] * 6
        assert [r[3] for r in rows] == ["1", "2", "3", "5", "8", "13"]

    def test_repeat_frozen_example_row(self, capsys):
        _, out, _ = run_cli(
            [
                "repeat", "--system", "shift", "--alpha", "golden",
                "--eps", "0.06", "--r", "3", "--qmax", "100",
            ],
            capsys,
        )
        _, columns, rows = parse_csv(out)
        assert columns == ["status", "q", "k_max", "best_q", "max_dist"]
        assert rows == [["found", "8", "24", "8", "0.05572809000084122"]]

    def test_repeat_not_found_row(self, capsys):
        _, out, _ = run_cli(
            [
                "repeat", "--system", "skewshift", "--alpha", "golden",
                "--eps", "0.05", "--qmax", "500",
            ],
            capsys,
        )
        _, _, rows = parse_csv(out)
        assert rows[0][:3] == ["not_found", "", ""]

    def test_an_empty_cell_is_empty_in_both_formats(self, capsys):
        argv = ["classify", "--alpha", "golden", "--c", "0.2", "--qmax", "50"]
        _, out, _ = run_cli(argv, capsys)
        assert parse_csv(out)[2] == [["BADLY_APPROXIMABLE_UP_TO_BOUND", "", ""]]
        _, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert json.loads(out)["rows"] == [["BADLY_APPROXIMABLE_UP_TO_BOUND", "", ""]]

    def test_orbit_columns_match_dimension(self, capsys):
        _, out, _ = run_cli(
            [
                "orbit", "--system", "skewshift", "--alpha", "1/4",
                "--nmin", "0", "--nmax", "3",
            ],
            capsys,
        )
        _, columns, rows = parse_csv(out)
        assert columns == ["n", "w1", "w2"]
        assert rows[0] == ["0", "0.0", "0.0"]
        assert rows[2] == ["2", "0.0", "0.5"]  # w1 = 4*(1/4) = 0 mod 1

    @pytest.mark.parametrize(
        "system_argv, system, omega",
        [
            (["--system", "shift", "--alpha", "golden"], Shift((GOLDEN,)), ("0.3",)),
            (["--system", "skewshift", "--alpha", "sqrt2"], SkewShift(SQRT2_MINUS_1), ("0.3", "0.7")),
            (
                ["--system", "skewproduct", "--dim", "3", "--alpha", "golden"],
                SkewProduct(3, GOLDEN),
                ("0.1", "0.2", "0.3"),
            ),
            (
                ["--system", "iet", "--lengths", "0.2,0.5,0.3", "--perm", "3,1,2"],
                Iet((0.2, 0.5, 0.3), Permutation((3, 1, 2))),
                ("0.15",),
            ),
        ],
        ids=["shift", "skewshift", "skewproduct", "iet"],
    )
    def test_orbit_rows_are_the_api_orbit(self, system_argv, system, omega, capsys):
        argv = ["orbit", *system_argv, "--omega", ",".join(omega), "--nmin", "-4", "--nmax", "5"]
        _, out, _ = run_cli(argv, capsys)
        _, _, rows = parse_csv(out)
        if isinstance(system, Iet):
            start = float(omega[0])
            expected = [[repr(x)] for x in orbit(system, start, -4, 5)]
        else:
            start = TorusPoint(tuple(parse_alpha(w) for w in omega))
            expected = [[repr(c.to_float()) for c in p.coords] for p in orbit(system, start, -4, 5)]
        assert [row[0] for row in rows] == [str(n) for n in range(-4, 6)]
        assert [row[1:] for row in rows] == expected

    def test_classify_row(self, capsys):
        _, out, _ = run_cli(
            ["classify", "--alpha", "golden", "--c", "0.2", "--qmax", "1000"],
            capsys,
        )
        _, columns, rows = parse_csv(out)
        assert columns == ["verdict", "witness_q", "witness_dist"]
        assert rows[0][0] == "BADLY_APPROXIMABLE_UP_TO_BOUND"

    def test_construct_q_verified_row(self, capsys):
        _, out, _ = run_cli(
            [
                "construct-q", "--alpha", "liouville10", "--eps", "0.3",
                "--max-base-q", "1000",
            ],
            capsys,
        )
        _, columns, rows = parse_csv(out)
        assert columns == ["status", "q", "m", "base_q", "epsilon_rep", "verified"]
        assert rows[0][0] == "found"
        assert rows[0][1] == "100"
        assert rows[0][5] == "1"

    def test_veech_found_row(self, capsys):
        _, out, _ = run_cli(
            [
                "veech", "--system", "iet", "--lengths", "0.5,0.5",
                "--perm", "2,1", "--eps", "0.3", "--qmax", "50",
            ],
            capsys,
        )
        _, _, rows = parse_csv(out)
        assert rows == [["found", "2", "0.0", "0.5", "1.0", "0.5"]]

    def test_veech_not_found_row(self, capsys):
        code, out, err = run_cli(
            [
                "veech", "--system", "iet", "--lengths", "0.381966011250105,0.618033988749895",
                "--perm", "2,1", "--eps", "0.3", "--qmax", "50",
            ],
            capsys,
        )
        assert (code, err) == (0, "")
        _, _, rows = parse_csv(out)
        assert rows == [["not_found", "", "", "", "0.7232789287213387", "0.38196601125024454"]]

    def test_iet_orbit_steps_back_from_just_below_the_total(self, capsys):
        # one ulp below the exact total; the image partition summed in
        # permuted order rounds one ulp below the total, past this point.
        # The step back is exact: 0.5926409106271656 - 2^-52
        code, out, err = run_cli(
            [
                "orbit", "--system", "iet",
                "--lengths", "0.5926409106271656,0.13042279608514273,0.9159448117309811",
                "--perm", "3,1,2", "--omega", "1.6390085184432892", "--nmin", "-1", "--nmax", "0",
            ],
            capsys,
        )
        assert (code, err) == (0, "")
        _, _, rows = parse_csv(out)
        assert rows == [["-1", "0.5926409106271654"], ["0", "1.6390085184432892"]]

    def test_gordon_verdict_lands_in_config_echo(self, capsys):
        _, out, _ = run_cli(
            [
                "gordon", "--system", "shift", "--alpha", "liouville10",
                "--q-list", "9,100", "--c-list", "1.01,1.05,2.0",
            ],
            capsys,
        )
        header, columns, rows = parse_csv(out)
        config = json.loads(header[2][len("# config: ") :])
        assert config["verdict"] == "DECAY_CONSISTENT"
        assert config["c_max"] == "1.05"
        assert columns == ["q", "gamma"]
        assert rows[0] == ["9", "0.06248601712479675"]

    def test_gordon_coupling_homogeneity_through_the_cli(self, capsys):
        base_args = [
            "gordon", "--system", "shift", "--alpha", "golden",
            "--q-list", "1,2,3,5,8",
        ]
        _, out1, _ = run_cli(base_args + ["--lambda", "1.0"], capsys)
        _, out2, _ = run_cli(base_args + ["--lambda", "2.0"], capsys)
        _, _, rows1 = parse_csv(out1)
        _, _, rows2 = parse_csv(out2)
        for r1, r2 in zip(rows1, rows2):
            assert float(r2[1]) == 2.0 * float(r1[1])  # exact doubling

    def test_transfer_row_has_all_norms(self, capsys):
        _, out, _ = run_cli(
            [
                "transfer", "--system", "shift", "--alpha", "golden",
                "--q", "8", "--energy", "0.1",
            ],
            capsys,
        )
        _, columns, rows = parse_csv(out)
        assert columns == [
            "q", "energy", "norm_plus", "norm_plus2", "norm_minus",
            "min_ratio", "gamma", "det_drift",
        ]
        assert rows[0][6] == "0.34703002961845153"

    def test_spectrum_with_vectors(self, capsys):
        _, out, _ = run_cli(
            [
                "spectrum", "--system", "shift", "--alpha", "golden",
                "--lambda", "0.0", "--sites", "20", "--vectors",
            ],
            capsys,
        )
        header, columns, rows = parse_csv(out)
        assert columns == ["k", "energy", "ipr", "edge_mass"]
        assert len(rows) == 20
        config = json.loads(header[2][len("# config: ") :])
        assert float(config["median_ipr"]) == pytest.approx(1.5 / 21, rel=1e-10)


class TestDeterminism:
    def test_json_mirrors_csv_rows_exactly(self, capsys):
        argv = [
            "repeat", "--system", "shift", "--alpha", "sqrt2",
            "--eps", "0.05", "--qmax", "200",
        ]
        _, out_csv, _ = run_cli(argv + ["--format", "csv"], capsys)
        _, out_json, _ = run_cli(argv + ["--format", "json"], capsys)
        _, columns, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert payload["columns"] == columns
        assert payload["rows"] == rows
        assert payload["schema"] == "repeat/v1"

    def test_there_is_no_threads_flag(self, capsys):
        argv = [
            "prp-measure", "--system", "skewshift", "--alpha", "golden",
            "--eps", "0.05", "--qmax", "200", "--samples", "20", "--seed", "42",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err

    def test_config_file_run_is_byte_identical_to_flags(self, capsys, tmp_path):
        cfg = {
            "subcommand": "gordon",
            "system": "shift",
            "alpha": "liouville10",
            "q_list": "9,100",
            "c_list": "1.01,1.05",
            "lambda": 1.0,
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        _, out_cfg, _ = run_cli(["run", str(path)], capsys)
        _, out_flags, _ = run_cli(
            [
                "gordon", "--system", "shift", "--alpha", "liouville10",
                "--q-list", "9,100", "--c-list", "1.01,1.05", "--lambda", "1.0",
            ],
            capsys,
        )
        assert out_cfg == out_flags

    def test_repeated_runs_are_byte_identical(self, capsys):
        argv = [
            "spectrum", "--system", "shift", "--alpha", "golden",
            "--sites", "30", "--vectors",
        ]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_output_flag_writes_the_same_bytes_to_a_file(self, capsys, tmp_path):
        argv = ["cf", "--alpha", "sqrt2", "--depth", "5"]
        _, stdout_text, _ = run_cli(argv, capsys)
        target = tmp_path / "out.csv"
        code, silent, _ = run_cli(argv + ["--output", str(target)], capsys)
        assert code == 0
        assert silent == ""
        assert target.read_text() == stdout_text


class TestExitCodes:
    def test_bad_alpha_is_a_config_error(self, capsys):
        code, out, err = run_cli(["cf", "--alpha", "not-a-number"], capsys)
        assert code == 2
        assert out == ""
        assert "config error" in err

    def test_bad_sites_is_a_config_error(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--system", "shift", "--alpha", "golden", "--sites", "0"],
            capsys,
        )
        assert code == 2
        assert "sites" in err

    def test_veech_requires_an_iet(self, capsys):
        code, _, err = run_cli(
            ["veech", "--system", "shift", "--alpha", "golden", "--eps", "0.3", "--qmax", "10"],
            capsys,
        )
        assert code == 2

    def test_runtime_error_exits_one(self, capsys):
        # uncapped, the depth-64 base q of liouville10 is about 1.05e30, far
        # past the states construct-q may step to verify
        code, out, err = run_cli(
            ["construct-q", "--alpha", "liouville10", "--eps", "0.1"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.rstrip().endswith("pass --max-base-q")

    def test_uncapped_construct_q_stops_at_the_step_budget(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run_cli(
            ["construct-q", "--alpha", "liouville10", "--eps", "0.05"], capsys
        )
        assert time.perf_counter() - t0 < 2.0
        assert code == 1
        assert out == ""
        assert "over the budget of 1000000; pass --max-base-q" in err

    def test_uncapped_golden_construct_q_at_eps_half_is_not_available(self, capsys):
        # the base q is about 1.7e13 and its term-sum bound above 1/2
        t0 = time.perf_counter()
        code, out, err = run_cli(["construct-q", "--alpha", "golden", "--eps", "0.5"], capsys)
        assert time.perf_counter() - t0 < 2.0
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "not_available,,,,,0"
        config = json.loads(out.split("# config: ", 1)[1].split("\n", 1)[0])
        assert "not below 1/2" in config["reason"]

    @pytest.mark.parametrize("q", ["0", "-3"])
    def test_transfer_q_below_one_is_a_config_error(self, q, capsys):
        code, out, err = run_cli(
            ["transfer", "--alpha", "golden", "--q", q, "--energy", "0.3"], capsys
        )
        assert (code, out, err) == (2, "", "config error: q: must be >= 1\n")

    @pytest.mark.parametrize("name", ["run", "nope"])
    def test_config_subcommand_must_be_a_runnable_one(self, name, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"subcommand": name, "config": "x"}))
        code, out, err = run_cli(["run", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: config: subcommand {name!r} unknown\n"

    def test_gordon_dimension_mismatch_is_a_domain_error(self, capsys):
        # the q/c lists are fine; the 2-D function cannot sample a 1-D shift
        code, out, err = run_cli(
            [
                "gordon", "--system", "shift", "--alpha", "golden",
                "--function", "bourgain", "--q-list", "5,8",
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "q-list" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_output_is_a_domain_error(self, capsys, tmp_path, fmt):
        # the lam=5 transfer product at q=2000 overflows to nan
        target = tmp_path / "out.txt"
        argv = [
            "transfer", "--system", "shift", "--alpha", "golden", "--lambda", "5",
            "--q", "2000", "--energy", "0.3", "--format", fmt,
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: non-finite norm_plus ")
        assert "nan" in err
        code, out, _ = run_cli(argv + ["--output", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert not target.exists()

    def test_threads_environment_is_not_read(self, capsys, monkeypatch):
        argv = [
            "prp-measure", "--system", "skewshift", "--alpha", "golden", "--eps", "0.1",
            "--qmax", "50", "--samples", "5", "--seed", "3",
        ]
        runs = []
        for value in (None, "4", "abc"):
            if value is None:
                monkeypatch.delenv("GORDONLAB_THREADS", raising=False)
            else:
                monkeypatch.setenv("GORDONLAB_THREADS", value)
            runs.append(run_cli(argv, capsys))
        assert runs[0][0] == 0
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["repeat", "--alpha", "golden", "--eps", "nan", "--qmax", "10"], "--eps"),
            (["repeat", "--alpha", "golden", "--eps", "0.1", "--r", "inf", "--qmax", "10"], "--r"),
            (["spectrum", "--alpha", "golden", "--lambda", "nan", "--sites", "5"], "--lambda"),
            (["transfer", "--alpha", "golden", "--q", "3", "--energy=-inf"], "--energy"),
            (["gordon", "--alpha", "golden", "--q-list", "3", "--phase", "nan"], "--phase"),
            (["construct-q", "--alpha", "golden", "--eps", "1e999"], "--eps"),
        ],
    )
    def test_non_finite_float_flag_is_a_config_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err
        assert "is not a finite number" in captured.err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["transfer", "--alpha", "golden", "--q", "3"], "--energy", "-1e-3"),
            (["transfer", "--alpha", "golden", "--q", "3", "--energy", "0.2"], "--lambda", "-2.5E0"),
            (["gordon", "--alpha", "golden", "--q-list", "3,5"], "--phase", "-2.5e-1"),
            (["repeat", "--alpha", "golden", "--qmax", "10"], "--eps", "-1e-2"),
            (["repeat", "--alpha", "golden", "--eps", "0.1", "--qmax", "10"], "--r", "-5e-1"),
        ],
    )
    def test_negative_exponent_value_may_follow_its_flag(self, argv, flag, value, capsys):
        # argparse alone reads "-1e-3" as an option: "expected one argument", exit 2
        separate = run_cli(argv + [flag, value], capsys)
        joined = run_cli(argv + [f"{flag}={value}"], capsys)
        assert separate == joined
        assert "expected one argument" not in separate[2]

    def test_negative_infinity_after_its_flag_is_not_finite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--alpha", "golden", "--q", "3", "--energy", "-inf"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --energy: '-inf' is not a finite number" in err

    def test_negative_exponent_value_in_a_config_file(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"subcommand": "transfer", "alpha": "golden", "q": 3, "energy": -1e-10}')
        code, out, _ = run_cli(["run", str(path)], capsys)
        assert code == 0
        assert '"energy": -1e-10' in out

    @pytest.mark.parametrize(
        "config, flag",
        [
            ('{"subcommand": "repeat", "alpha": "golden", "qmax": 10, "eps": NaN}', "--eps"),
            ('{"subcommand": "transfer", "alpha": "golden", "q": 5, "energy": 0.3, '
             '"lambda": Infinity}', "--lambda"),
        ],
    )
    def test_non_finite_float_in_a_config_file_is_a_config_error(self, config, flag, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(config)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (ORBIT + ["--alpha", ","], "alpha: empty list"),
            (ORBIT + ["--system", "iet", "--lengths", "0.5,x", "--perm", "2,1"],
             "lengths: '0.5,x' is not a comma-separated number list"),
            (ORBIT + ["--system", "skewshift", "--alpha", "golden,sqrt2"],
             "alpha: skewshift takes a single frequency"),
            (ORBIT + ["--system", "skewproduct", "--alpha", "golden,sqrt2", "--dim", "3"],
             "alpha: skewproduct takes a single frequency"),
            (ORBIT + ["--system", "skewproduct", "--alpha", "golden"],
             "dim: required for skewproduct"),
            (ORBIT + ["--system", "iet", "--perm", "2,1"], "lengths/perm: required for iet"),
            (ORBIT + ["--system", "iet", "--lengths", "0.5,0.5"], "lengths/perm: required for iet"),
            (ORBIT + ["--system", "iet", "--lengths", "0.5,0.5", "--perm", "1,1"],
             "iet: not a permutation of 1..2: (1, 1)"),
            (ORBIT + HALVES + ["--omega", "1"], "omega: outside the interval"),
            (ORBIT + HALVES + ["--omega", "-0.1"], "omega: outside the interval"),
            (ORBIT + ["--system", "skewshift", "--alpha", "golden", "--omega", "0.1"],
             "omega: expected 2 coordinates, got 1"),
            (GORDON + ["--function", "coding"], "breakpoints/levels: required for coding"),
            (GORDON + ["--function", "coding", "--breakpoints", "0,0.5"],
             "breakpoints/levels: required for coding"),
            (GORDON + ["--function", "coding", "--breakpoints", "0.5,0.2", "--levels", "1,2"],
             "coding: breakpoints must be ascending"),
            (["classify", "--alpha", "golden", "--c", "abc", "--qmax", "10"],
             "c: 'abc' is not a number"),
            (["orbit", "--alpha", "golden", "--nmin", "3", "--nmax", "2"], "nmin: must be <= nmax"),
            (["gordon", "--alpha", "golden", "--q-list", "5,3"],
             "q-list/c-list: q_list must be strictly increasing"),
            (["transfer", "--alpha", "golden", "--q", "3", "--energy", "0.3", "--u0", "1,0,0"],
             "u0: expected two components"),
            (ORBIT, "alpha: required for shift"),
            (ORBIT + ["--system", "skewshift"], "alpha: required for skewshift"),
            (ORBIT + ["--system", "skewproduct", "--dim", "3"], "alpha: required for skewproduct"),
        ],
    )
    def test_config_error_names_its_field(self, argv, message, capsys):
        assert run_cli(argv, capsys) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (ORBIT + ["--system", "iet", "--lengths", "1e400,1", "--perm", "2,1"],
             "lengths: '1e400,1' is not a comma-separated number list"),
            (["gordon", "--system", "shift", "--alpha", "golden", "--q-list", "1,2",
              "--c-list", "1e400"], "c-list: '1e400' is not a comma-separated number list"),
            (ORBIT + HALVES + ["--omega", "1e400"], "omega: '1e400' is not a number"),
            (GORDON + ["--function", "coding", "--breakpoints", "0,1e400", "--levels", "1,2"],
             "breakpoints: '0,1e400' is not a comma-separated number list"),
            (GORDON + ["--function", "coding", "--breakpoints", "0,0.5", "--levels", "1,-1e400"],
             "levels: '1,-1e400' is not a comma-separated number list"),
            (["transfer", "--alpha", "golden", "--q", "3", "--energy", "0.3", "--u0", "1e400,0"],
             "u0: '1e400,0' is not a comma-separated number list"),
        ],
        ids=["lengths", "c-list", "omega", "breakpoints", "levels", "u0"],
    )
    def test_a_number_past_the_float_range_is_a_config_error(self, argv, message, capsys):
        # a literal too large for a float is bad input, not an OverflowError
        assert run_cli(argv, capsys) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (["classify", "--alpha", "golden", "--c", "0.2"], "--qmax", "qmax: must be >= 1"),
            (["repeat", "--alpha", "golden", "--eps", "0.1"], "--qmax", "qmax: must be >= 1"),
            (["prp-measure", "--alpha", "golden", "--eps", "0.1", "--samples", "5", "--seed", "1"],
             "--qmax", "qmax: must be >= 1"),
            (["veech", "--system", "iet", "--lengths", "0.5,0.5", "--perm", "2,1", "--eps", "0.3"],
             "--qmax", "qmax: must be >= 1"),
            (["prp-measure", "--alpha", "golden", "--eps", "0.1", "--qmax", "5", "--seed", "1"],
             "--samples", "samples: must be >= 1"),
            (["construct-q", "--alpha", "golden", "--eps", "0.3"],
             "--max-base-q", "max-base-q: must be >= 1"),
            (ORBIT + ["--system", "skewproduct", "--alpha", "golden"], "--dim", "dim: must be >= 1"),
            (["spectrum", "--alpha", "golden"], "--sites", "sites: must be >= 1"),
        ],
        ids=["classify", "repeat", "prp-measure", "veech", "samples", "max-base-q", "dim", "sites"],
    )
    def test_a_count_below_its_least_is_a_config_error(self, argv, flag, message, value, capsys,
                                                      tmp_path):
        # repeat --qmax 0 exited 1; construct-q --max-base-q -5 exited 0 with a
        # not_available row
        assert run_cli(argv + [flag, value], capsys) == (2, "", f"config error: {message}\n")
        config = dict(zip(argv[1::2], argv[2::2]), **{flag: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"subcommand": argv[0],
                                    **{k[2:].replace("-", "_"): v for k, v in config.items()}}))
        assert run_cli(["run", str(path)], capsys) == (2, "", f"config error: {message}\n")

    def test_a_negative_depth_is_a_config_error_and_zero_is_an_empty_table(self, capsys):
        assert run_cli(["cf", "--alpha", "golden", "--depth", "-1"], capsys) == (
            2, "", "config error: depth: must be >= 0\n")
        code, out, err = run_cli(["cf", "--alpha", "golden", "--depth", "0"], capsys)
        assert (code, err, out.splitlines()[-1]) == (0, "", "k,a_k,p_k,q_k")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"subcommand": "cf",\n "alpha": "golden",,\n}',
             "config: line 2: Expecting property name enclosed in double quotes"),
            ('{"alpha": "golden"}', "config: top-level object with a 'subcommand' field required"),
        ],
    )
    def test_bad_config_file_is_a_config_error(self, text, message, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert run_cli(["run", str(path)], capsys) == (2, "", f"config error: {message}\n")

    def test_non_numeric_float_flag_is_a_config_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["repeat", "--alpha", "golden", "--eps", "abc", "--qmax", "10"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --eps: 'abc' is not a number\n")

    def test_classify_has_no_method_option(self, capsys, tmp_path):
        # the exhaustive scan is the library's oracle, not a CLI choice
        argv = ["classify", "--alpha", "golden", "--c", "0.2", "--qmax", "10", "--method", "scan"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --method scan\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"subcommand": "classify", "alpha": "golden", "c": 0.2,
                                    "qmax": 10, "method": "scan"}))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method scan" in capsys.readouterr().err

    def test_missing_required_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "prp-measure", "--system", "skewshift", "--alpha", "golden",
                    "--eps", "0.05", "--qmax", "100", "--samples", "10",
                ]
            )
        assert exc.value.code == 2

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(["run", str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert "config" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("gordonlab ")

    @pytest.mark.parametrize("error", [UnsupportedSystemError, ConvergenceFailureError])
    def test_domain_error_exits_one(self, error, monkeypatch, capsys):
        def handler(args):
            raise error("not defined here")

        monkeypatch.setattr(cli, "cmd_cf", handler)
        code, out, err = run_cli(["cf", "--alpha", "golden"], capsys)
        assert (code, out, err) == (1, "", "error: not defined here\n")

    @pytest.mark.parametrize("error", [TypeError, RuntimeError])
    def test_other_type_and_runtime_errors_propagate(self, error, monkeypatch, capsys):
        def handler(args):
            raise error("a bug, not a domain error")

        monkeypatch.setattr(cli, "cmd_cf", handler)
        with pytest.raises(error, match="a bug"):
            main(["cf", "--alpha", "golden"])
        assert capsys.readouterr().err == ""


class TestBundledRecipes:
    @pytest.mark.parametrize("recipe", RECIPES, ids=lambda p: p.stem)
    def test_recipe_runs_clean(self, recipe, capsys):
        code, out, err = run_cli(["run", str(recipe)], capsys)
        assert code == 0
        assert err == ""
        header, columns, rows = parse_csv(out)
        assert header[0].startswith("# schema: ")
        assert rows  # every bundled recipe produces at least one data row

    def test_recipes_exist(self):
        assert len(RECIPES) >= 8


class TestImportPolicy:
    """Only ``spectrum`` loads numpy; every other subcommand, ``gordon`` and
    ``transfer`` included, computes on plain floats and loads neither numpy
    nor scipy.  ``spectrum`` calls LAPACK from scipy's extension file and
    imports neither the ``scipy`` package nor ``scipy.linalg``."""

    LIGHT = {
        "cf": "cf --alpha golden --depth 8",
        "classify": "classify --alpha golden --c 0.3 --qmax 100",
        "orbit": "orbit --system iet --lengths 0.3,0.7 --perm 2,1 --nmin -3 --nmax 3",
        "repeat": "repeat --system skewshift --alpha golden --eps 0.2 --qmax 50",
        "construct-q": "construct-q --alpha liouville10 --eps 0.3 --max-base-q 1000",
        "prp-measure": "prp-measure --system skewshift --alpha golden --eps 0.1 --qmax 50 "
        "--samples 5 --seed 1",
        "veech": "veech --system iet --lengths 0.5,0.5 --perm 2,1 --eps 0.3 --qmax 10",
        "gordon": "gordon --system shift --alpha golden --q-list 3,5",
        "transfer": "transfer --system shift --alpha golden --q 5 --energy 0.3",
    }
    FREE_CHAIN = "spectrum --system shift --alpha golden --lambda 0 --sites 30"
    CHILD = """
import contextlib, io, json, sys
import gordonlab, gordonlab.cli
from gordonlab.cli import main

def loaded():
    return [m for m in ("numpy", "scipy", "scipy.linalg") if m in sys.modules]

runs = json.loads(sys.argv[1])
report = {"import": [loaded(), ""]}
for name, argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (name, code)
    report[name] = [loaded(), out.getvalue()]
print(json.dumps(report))
"""

    def test_heavy_packages_load_only_where_they_compute(self, capsys, src_env):
        runs = [
            (name, command.split())
            for name, command in [*self.LIGHT.items(), ("spectrum", self.FREE_CHAIN)]
        ]
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(runs)],
            capture_output=True, text=True, env=src_env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["import"][0] == []
        for name in self.LIGHT:
            assert report[name][0] == [], name
        assert all("scipy.linalg" not in modules for modules, _ in report.values())
        assert report["spectrum"][0] == ["numpy"]
        # the lazily loaded solver gives the bits of an in-process run
        for name, argv in runs:
            _, out, _ = run_cli(argv, capsys)
            assert report[name][1] == out, name
        _, _, rows = parse_csv(report["spectrum"][1])
        n = len(rows)
        expected = sorted(2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))
        assert [float(e) for _, e in rows] == pytest.approx(expected, abs=1e-12)


class TestLayerLoading:
    """A fresh process loads only the layers its subcommand calls: the package
    loads none, the CLI ``arithmetic``, and each handler the rest it needs."""

    CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv[0] == "import":
    __import__(argv[1])
else:
    from gordonlab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
layers = ("arithmetic", "dynamics", "repetition", "potentials", "spectral")
print(json.dumps([m for m in layers if "gordonlab." + m in sys.modules]))
"""
    COMMANDS = {**TestImportPolicy.LIGHT, "spectrum": TestImportPolicy.FREE_CHAIN}
    LAYERS = {
        "import gordonlab": [],
        "import gordonlab.cli": ["arithmetic"],
        "cf": ["arithmetic"],
        "classify": ["arithmetic"],
        "orbit": ["arithmetic", "dynamics"],
        "repeat": ["arithmetic", "dynamics", "repetition"],
        "construct-q": ["arithmetic", "dynamics", "repetition"],
        "prp-measure": ["arithmetic", "dynamics", "repetition"],
        "veech": ["arithmetic", "dynamics", "repetition"],
        "gordon": ["arithmetic", "dynamics", "potentials"],
        "transfer": ["arithmetic", "dynamics", "potentials", "spectral"],
        "spectrum": ["arithmetic", "dynamics", "potentials", "spectral"],
    }

    @pytest.mark.parametrize("case", LAYERS)
    def test_process_loads_only_the_layers_it_calls(self, case, src_env):
        # one interpreter per case: modules loaded by one run stay for the next
        command = case if case.startswith("import ") else self.COMMANDS[case]
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(command.split())],
            capture_output=True, text=True, env=src_env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == self.LAYERS[case]
