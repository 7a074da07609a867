"""Command-line front end: flags, exit codes, file handling."""

import argparse
import json

import numpy as np
import pytest

import infoenergy as ie
from infoenergy import cli
from infoenergy.cli import run
from conftest import binary_entropy, negative_entry_doc


def write_adder_file(path):
    doc = {
        "input_alphabets": [[0.0, 1.0], [0.0, 1.0]],
        "output_alphabet": [0.0, 1.0, 2.0],
        "transition": [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]],
        "cost": [[0.0, 0.0], [0.0, 0.0]],
        "energy": [0.0, 1.0, 2.0],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def write_bsc_file(path, crossover=0.11, energy=(0.0, 1.0), cost=(0.0, 0.0)):
    doc = {
        "input_alphabets": [[0.0, 1.0]],
        "output_alphabet": [0.0, 1.0],
        "transition": [[1 - crossover, crossover], [crossover, 1 - crossover]],
        "cost": [list(cost)],
        "energy": list(energy),
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestGaussianMacCommand:
    def test_endpoint_values(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = run(["gaussian-mac", "--P", "1", "--b-min", "0", "--b-max", "5",
                  "--steps", "51", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "P,B,R_timeshare,lambda,P_prime,P_dprime,R_no_ts,feasible"
        assert len(lines) == 52
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[2]) == pytest.approx(0.792481, abs=1e-6)
        assert float(last[2]) == pytest.approx(0.0, abs=1e-9)

    def test_stdout_default(self, capsys):
        rc = run(["gaussian-mac", "--P", "0.5", "--b-min", "0", "--b-max", "2",
                  "--steps", "3"])
        assert rc == 0
        outp = capsys.readouterr().out
        assert outp.startswith("P,B,")

    def test_non_finite_power_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run(["gaussian-mac", "--P", "nan", "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_steps_above_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run(["gaussian-mac", "--steps", "10001", "--out", str(out)])
        assert rc == 2
        assert "--steps" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_range(self, tmp_path, capsys):
        # A descending range, and finite ends whose width overflows a float.
        adder = write_adder_file(tmp_path / "adder.json")
        for argv, lo, hi in [
                (["gaussian-mac", "--P", "1", "--b-min", "5", "--b-max", "0"], 5.0, 0.0),
                (["gaussian-mac", "--b-min=-1.7e308", "--b-max", "1.7e308"], -1.7e308, 1.7e308),
                (["mhc-example", "--snr-min=-1.7e308", "--snr-max", "1.7e308"], -1.7e308, 1.7e308),
                (["mac-region", "--channel", adder, "--b-min=-1.7e308", "--b-max", "1.7e308"],
                 -1.7e308, 1.7e308)]:
            out = tmp_path / "x.csv"
            rc = run(argv + ["--steps", "3", "--out", str(out)])
            assert rc == 2, argv
            assert capsys.readouterr().err == (
                f"error: range {lo} to {hi} must ascend, with a width a float can hold\n")
            assert not out.exists()


class TestMacRegionCommand:
    def test_adder_sweep(self, tmp_path):
        ch_path = write_adder_file(tmp_path / "adder.json")
        out = tmp_path / "region.csv"
        rc = run(["mac-region", "--channel", ch_path, "--P1", "0", "--P2", "0",
                  "--b-min", "0", "--b-max", "2", "--steps", "3",
                  "--q-size", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "B,w1,w2,R1,R2,EbY,feasible"
        assert len(lines) == 1 + 3 * 3
        sum_rows = [l.split(",") for l in lines[1:] if l.split(",")[1] == "1"
                    and l.split(",")[2] == "1"]
        rates = [float(r[3]) + float(r[4]) for r in sum_rows]
        assert rates[0] == pytest.approx(1.5, abs=1e-5)
        assert rates[-1] == pytest.approx(0.0, abs=1e-9)

    def test_nan_energy_file_exits_4(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        write_adder_file(path)
        doc = json.loads(path.read_text())
        doc["energy"][1] = float("nan")
        path.write_text(json.dumps(doc))  # written as the JSON token NaN
        out = tmp_path / "region.csv"
        rc = run(["mac-region", "--channel", str(path), "--b-min", "0",
                  "--b-max", "1", "--steps", "2", "--out", str(out)])
        assert rc == 4
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, where", [
        ("transition", "transition row 2"), ("cost", "cost table 1"), ("energy", "energy")])
    def test_negative_entry_file_exits_4(self, tmp_path, capsys, field, where):
        path = tmp_path / "neg.json"
        write_adder_file(path)
        doc = negative_entry_doc(json.loads(path.read_text()), field)
        path.write_text(json.dumps(doc))
        out = tmp_path / "region.csv"
        rc = run(["mac-region", "--channel", str(path), "--b-min", "0",
                  "--b-max", "1", "--steps", "2", "--out", str(out)])
        assert rc == 4
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_p2p_file_rejected(self, tmp_path):
        ch_path = write_bsc_file(tmp_path / "bsc.json")
        rc = run(["mac-region", "--channel", ch_path, "--b-min", "0",
                  "--b-max", "1", "--steps", "2"])
        assert rc == 4


class TestMhcCommand:
    def test_two_hop_solve(self, tmp_path):
        hop1 = write_bsc_file(tmp_path / "hop1.json", crossover=0.05,
                              energy=(0.5, 0.5))
        hop2 = write_bsc_file(tmp_path / "hop2.json", crossover=0.11)
        out = tmp_path / "mhc.json"
        rc = run(["mhc", "--channel", hop1, "--channel", hop2,
                  "--P1", "1", "--P2", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        prob = ie.MhcProblem(
            *[ie.load_channel_file(p)[0] for p in (hop1, hop2)],
            ie.CostFn([0, 0]), ie.CostFn([0, 0]), ie.EnergyFn([0.5, 0.5]), 1.0, 1.0)
        want = ie.mhc_capacity(prob).capacity_bits
        assert doc["capacity_bits"] == pytest.approx(want, abs=1e-9)
        assert len(doc["input_pmf"]) == 2

    def test_relay_budget_starves_a_costly_symbol(self, tmp_path):
        # Hop-2 symbol 2 costs 1000; its relay mass underflows to 0 while
        # it alone reaches its output, which Blahut-Arimoto must survive.
        hop1 = write_bsc_file(tmp_path / "hop1.json", crossover=0.1, cost=(0.0, 1.0))
        hop2 = tmp_path / "hop2.json"
        hop2.write_text(json.dumps({
            "input_alphabets": [[0.0, 1.0, 2.0]],
            "output_alphabet": [0.0, 1.0, 2.0],
            "transition": np.eye(3).tolist(),
            "cost": [[0.0, 1.0, 1000.0]],
            "energy": [0.0, 0.0, 0.0],
        }))
        out = tmp_path / "mhc.json"
        assert run(["mhc", "--channel", hop1, "--channel", str(hop2),
                    "--P1", "0.5", "--P2", "0.2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert 0.0 < doc["capacity_bits"] <= 1.0 - binary_entropy(0.1) + 1e-9

    @pytest.mark.parametrize("transition", [[[0, 0, 1], [1, 5e-324, 0]],
                                            [[0, 0, 1], [0, 5e-324, 1]]])
    def test_subnormal_transition_entries(self, tmp_path, transition):
        hop1 = tmp_path / "hop1.json"
        hop1.write_text(json.dumps({
            "input_alphabets": [[0.0, 1.0]], "output_alphabet": [0.0, 1.0, 2.0],
            "transition": transition, "cost": [[0.0, 0.0]], "energy": [0.0, 1.0, 2.0]}))
        hop2 = write_bsc_file(tmp_path / "hop2.json", crossover=0.11)
        out = tmp_path / "mhc.json"
        assert run(["mhc", "--channel", str(hop1), "--channel", hop2,
                    "--P1", "0", "--P2", "1", "--out", str(out)]) == 0
        assert 0.0 <= json.loads(out.read_text())["capacity_bits"] <= 1.0

    @pytest.mark.parametrize("p1, code", [("0.9999999995", 3), ("0.999999999998", 3),
                                          ("0.9999999999995", 0)])
    def test_hop1_budget_under_the_cheapest_cost(self, tmp_path, capsys, p1, code):
        # A budget more than 1e-12 under the cheapest cost is infeasible.
        hop1 = write_bsc_file(tmp_path / "hop1.json", cost=(1.0, 2.0))
        hop2 = write_bsc_file(tmp_path / "hop2.json")
        assert run(["mhc", "--channel", hop1, "--channel", hop2, "--P1", p1,
                    "--P2", "1", "--out", str(tmp_path / "mhc.json")]) == code
        assert ("below the cheapest symbol cost" in capsys.readouterr().err) == (code == 3)

    def test_single_channel_invalid(self, tmp_path):
        hop1 = write_bsc_file(tmp_path / "hop1.json")
        assert run(["mhc", "--channel", hop1]) == 2

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        hop2 = write_bsc_file(tmp_path / "hop2.json")
        assert run(["mhc", "--channel", str(bad), "--channel", hop2]) == 4


class TestMhcExampleCommand:
    def test_transition_endpoints(self, tmp_path):
        out = tmp_path / "ex.csv"
        rc = run(["mhc-example", "--P1", "4", "--P2", "0", "--snr-min", "-20",
                  "--snr-max", "60", "--steps", "81", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "snr,N0,capacity_bits,p_star"
        ps = [float(l.split(",")[3]) for l in lines[1:]]
        assert ps[0] == pytest.approx(0.5, abs=1e-9)
        assert ps[-1] == pytest.approx(0.25, abs=1e-3)

    def test_infeasible_budget(self, tmp_path):
        rc = run(["mhc-example", "--P1", "0.5", "--snr-min", "0",
                  "--snr-max", "10", "--steps", "3"])
        assert rc == 3

    @pytest.mark.parametrize("flags", [["--snr-min", "-4000", "--snr-log10"],
                                       ["--snr-min", "-11000"]])
    def test_noise_power_past_the_float_range_exits_2(self, flags, capsys):
        rc = run(["mhc-example", *flags, "--snr-max", "0", "--steps", "3"])
        assert rc == 2
        assert "noise variance must be positive and finite" in capsys.readouterr().err


class TestSimulateCommands:
    def test_zero_trials_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        rc = run(["simulate-mac", "--P", "1", "--trials", "0", "--out", str(out)])
        assert rc == 2
        assert "--trials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate-mac", "simulate-mhc"])
    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys, command):
        out = tmp_path / "sim.csv"
        rc = run([command, "--seed", "-1", "--n", "16", "--trials", "3", "--out", str(out)])
        assert rc == 2
        assert "argument --seed: expected an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_mac_gaussian(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = run(["simulate-mac", "--P", "1", "--n", "500", "--trials", "50",
                  "--seed", "5", "--b-min", "4.5", "--eps", "0.1",
                  "--out", str(out)])
        assert rc == 0
        header, row = out.read_text().strip().split("\n")
        assert header == "n,trials,seed,mean_bn,viol_freq,err_rate,relay_viol_freq"
        mean_bn = float(row.split(",")[3])
        assert mean_bn == pytest.approx(5.0, abs=0.3)

    def test_simulate_mac_discrete(self, tmp_path):
        ch_path = write_adder_file(tmp_path / "adder.json")
        out = tmp_path / "sim.csv"
        rc = run(["simulate-mac", "--channel", ch_path, "--n", "400",
                  "--trials", "60", "--seed", "2", "--b-min", "0.9",
                  "--out", str(out)])
        assert rc == 0
        mean_bn = float(out.read_text().strip().split("\n")[1].split(",")[3])
        assert mean_bn == pytest.approx(1.0, abs=0.1)

    def test_simulate_mhc_default(self, tmp_path):
        out = tmp_path / "relay.csv"
        rc = run(["simulate-mhc", "--P1", "4", "--P2", "0", "--n", "512",
                  "--trials", "400", "--seed", "4", "--out", str(out)])
        assert rc == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(2.5, abs=0.1)
        assert float(row[6]) == 0.0

    def test_hopeless_codebook_budget_exits_3(self, tmp_path, capsys):
        hop = write_bsc_file(tmp_path / "hop.json", cost=(0.0, 1.0))
        out = tmp_path / "never.csv"
        for argv in (["simulate-mhc", "--P1", "0.5"],
                     ["simulate-mhc", "--channel", hop, "--P1", "0.1"]):
            assert run(argv + ["--n", "64", "--trials", "5", "--out", str(out)]) == 3, argv
            err = capsys.readouterr().err
            assert err.startswith("infeasible: ") and "incompatible with the policy" in err
            assert not out.exists()

    def test_negative_codebook_budget_exits_2(self, tmp_path, capsys):
        # Costs are nonnegative, so no codeword can meet a negative budget.
        hop = write_bsc_file(tmp_path / "hop.json", cost=(0.0, 1.0))
        out = tmp_path / "never.csv"
        for argv in (["simulate-mhc", "--P1", "-1"],
                     ["simulate-mhc", "--channel", hop, "--P1", "-1"]):
            assert run(argv + ["--n", "64", "--trials", "5", "--out", str(out)]) == 2, argv
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()

    def test_negative_relay_supply_exits_2(self, tmp_path, capsys):
        hop = write_bsc_file(tmp_path / "hop.json", cost=(0.0, 1.0))
        out = tmp_path / "never.csv"
        assert run(["simulate-mhc", "--channel", hop, "--P1", "0.6", "--P2", "-1", "--n", "64",
                    "--trials", "5", "--out", str(out)]) == 2
        assert "relay supplies" in capsys.readouterr().err
        assert not out.exists()

    def test_unmeasured_columns_read_nan(self, tmp_path):
        # Neither command decodes; simulate-mhc sets no energy floor and
        # simulate-mac has no relay.  The README documents these as nan.
        cases = [
            (["simulate-mac", "--P", "1", "--n", "200", "--trials", "10",
              "--b-min", "4.5"], {"err_rate", "relay_viol_freq"}),
            (["simulate-mhc", "--P1", "4", "--P2", "0", "--n", "64",
              "--trials", "10"], {"viol_freq", "err_rate"}),
        ]
        for argv, unmeasured in cases:
            out = tmp_path / "sim.csv"
            assert run(argv + ["--out", str(out)]) == 0
            header, row = out.read_text().strip().split("\n")
            for name, value in zip(header.split(","), row.split(",")):
                assert (value == "nan") == (name in unmeasured), name


def every_subcommand(tmp_path):
    """One small channel-file or default run of each of the six subcommands."""
    adder = write_adder_file(tmp_path / "adder.json")
    hop1 = write_bsc_file(tmp_path / "hop1.json", crossover=0.05, energy=(0.5, 1.0),
                          cost=(0.0, 1.0))
    hop2 = write_bsc_file(tmp_path / "hop2.json")
    return [
        ["gaussian-mac", "--P", "0.5", "--steps", "4"],
        ["mac-region", "--channel", adder, "--b-max", "2", "--steps", "2", "--q-size", "1"],
        ["mhc", "--channel", hop1, "--channel", hop2, "--P1", "0.7", "--P2", "0.3"],
        ["mhc-example", "--P1", "3", "--snr-log10", "--steps", "5"],
        ["simulate-mac", "--channel", adder, "--n", "64", "--trials", "8", "--b-min", "0.9"],
        ["simulate-mhc", "--channel", hop1, "--P1", "0.6", "--n", "64", "--trials", "8"],
    ]


class TestEverySubcommand:
    def test_stdout_and_out_file_hold_the_same_bytes(self, tmp_path, capsys):
        argvs = every_subcommand(tmp_path)
        assert sorted(a[0] for a in argvs) == sorted(cli._COMMANDS)
        for argv in argvs:
            out = tmp_path / "out.txt"
            assert run(argv + ["--out", str(out)]) == 0, argv
            assert capsys.readouterr().out == ""
            assert run(argv) == 0, argv
            assert capsys.readouterr().out.encode("utf-8") == out.read_bytes(), argv

    @pytest.mark.parametrize("argv, files, code", [
        (["mhc"], ["hop1"], 2),
        (["mac-region", "--steps", "2"], ["hop1"], 4),
        (["simulate-mac", "--n", "8", "--trials", "2"], ["hop1"], 4),
        (["simulate-mhc", "--n", "8", "--trials", "2"], ["adder"], 4),
    ])
    def test_channel_count_and_kind_errors(self, tmp_path, capsys, argv, files, code):
        paths = {"hop1": write_bsc_file(tmp_path / "hop1.json"),
                 "adder": write_adder_file(tmp_path / "adder.json")}
        out = tmp_path / "never.txt"
        flags = [f for name in files for f in ("--channel", paths[name])]
        assert run(argv + flags + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 4:
            assert paths[files[0]] in err  # the message names the file
        assert not out.exists()


def float_flags(command):
    """The option strings of a subcommand's float flags, checking that each
    one parses through cli._finite."""
    parser = cli._build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = []
    for action in subparsers.choices[command]._actions:
        if action.type is cli._finite:
            flags.append(action.option_strings[0])
        else:
            assert action.type is not float and not isinstance(action.default, float), action
    return flags


class TestNonFiniteFlags:
    def test_every_float_flag_rejects_non_finite_values(self, tmp_path, capsys):
        """Each subcommand exits 2 on nan, inf or -inf in any float flag; the
        simulators both with and without --channel."""
        argvs = every_subcommand(tmp_path)
        argvs += [[a for a in argv if a != "--channel" and not a.endswith(".json")]
                  for argv in argvs if argv[0].startswith("simulate-")]
        assert sum("--channel" not in argv for argv in argvs) == 4
        out = tmp_path / "never.txt"
        for argv in argvs:
            flags = float_flags(argv[0])
            assert flags, argv
            for flag in flags:
                for value in ("nan", "inf", "-inf"):  # "=" keeps -inf from reading as a flag
                    assert run(argv + [f"{flag}={value}", "--out", str(out)]) == 2, (argv, flag)
                    assert "expected a finite number" in capsys.readouterr().err
        assert not out.exists()


class TestCliContract:
    def test_help_lists_subcommands(self, capsys):
        rc = run(["--help"])
        assert rc == 0
        text = capsys.readouterr().out
        for sub in ("mac-region", "gaussian-mac", "mhc", "mhc-example",
                    "simulate-mac", "simulate-mhc"):
            assert sub in text

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        assert run(["mhc-example", "--steps", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""

    def test_unknown_flag_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = run(["gaussian-mac", "--nope", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        spec = [
            ["gaussian-mac", "--P", "1", "--b-min", "0", "--b-max", "5",
             "--steps", "21"],
            ["mhc-example", "--P1", "4", "--P2", "0", "--snr-min", "-20",
             "--snr-max", "60", "--steps", "17"],
            ["simulate-mac", "--P", "1", "--n", "300", "--trials", "40",
             "--seed", "7", "--b-min", "4.5", "--eps", "0.1"],
        ]
        for k, argv in enumerate(spec):
            a = tmp_path / f"a{k}.csv"
            b = tmp_path / f"b{k}.csv"
            assert run(argv + ["--out", str(a)]) == 0
            assert run(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
