import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import memloss
from memloss import cli, csvio
from memloss.cli import run_cli


def _hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _strict_json(text):
    """The parsed summary; NaN or Infinity in it fails."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


_FAMILY_ARGS = [["--family", "lsv"], ["--family", "cui", "--beta", "2"],
                ["--family", "pikovsky", "--gamma", "2"], ["--family", "gh"]]


class TestTails:
    def test_pikovsky_lebesgue(self, tmp_path):
        code = run_cli(
            [
                "tails", "--family", "pikovsky", "--gamma", "2.0", "--base", "lebesgue",
                "--n-max", "2000", "--expect-slope", "-1", "--tol", "0.15",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        kind, cols = csvio.read_csv(str(tmp_path / "tails_k1_lebesgue.csv"))
        assert kind == "tails"
        assert cols["value"][1] == 1.0
        summary = json.loads((tmp_path / "tails_summary.json").read_text())
        assert summary["pass"] is True

    def test_multi_k_files(self, tmp_path):
        code = run_cli(
            ["tails", "--family", "lsv", "--gamma", "0.5", "--k", "1,3",
             "--n-max", "50", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "tails_k1_mk.csv").exists()
        assert (tmp_path / "tails_k3_mk.csv").exists()

    def test_gate_failure_exits_1(self, tmp_path):
        code = run_cli(
            ["tails", "--family", "lsv", "--gamma", "0.5", "--n-max", "400",
             "--expect-slope", "-7", "--tol", "0.1", "--out", str(tmp_path)]
        )
        assert code == 1

    @pytest.mark.parametrize("k", ["1,1", "a", "", "0", "2,-1", "1,,2"])
    def test_bad_k_list_exits_2(self, tmp_path, capsys, k):
        out = tmp_path / "out"
        code = run_cli(["tails", "--family", "lsv", "--n-max", "20", "--k", k, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "argument --k" in err and "Traceback" not in err
        assert not out.exists()

    def test_k_list_keeps_its_order_in_the_summary(self, tmp_path):
        code = run_cli(["tails", "--family", "lsv", "--n-max", "20", "--k", "3,1", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "tails_summary.json").read_text())
        assert summary["k"] == [3, 1]
        assert summary["artifacts"] == ["tails_k3_mk.csv", "tails_k1_mk.csv"]

    def test_mc_tables_are_listed_after_their_exact_tables(self, tmp_path):
        code = run_cli(["tails", "--family", "lsv", "--n-max", "50", "--mc-samples", "1000", "--k", "2,1",
                        "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "tails_summary.json").read_text())
        listed = ["tails_k2_mk.csv", "tails_k2_mk_mc.csv", "tails_k1_mk.csv", "tails_k1_mk_mc.csv"]
        assert summary["artifacts"] == listed
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(listed)


class TestMemloss:
    def test_small_run(self, tmp_path):
        code = run_cli(
            ["memloss", "--family", "lsv", "--gamma", "0.5", "--n-max", "60",
             "--grid", "4096", "--fit-lo", "10", "--fit-hi", "60",
             "--expect-slope", "-2", "--tol", "0.5", "--out", str(tmp_path)]
        )
        assert code == 0
        kind, cols = csvio.read_csv(str(tmp_path / "memloss.csv"))
        assert kind == "memloss" and len(cols["tv"]) == 61

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "seq.json"
        bad.write_text("{not json")
        code = run_cli(
            ["memloss", "--config", str(bad), "--n-max", "10", "--grid", "1024",
             "--out", str(tmp_path)]
        )
        assert code == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "seq.json"
        bad.write_text(json.dumps({"kind": "periodic", "family": "lsv", "cycle": [0.5], "zzz": 1}))
        code = run_cli(
            ["memloss", "--config", str(bad), "--n-max", "10", "--grid", "1024",
             "--out", str(tmp_path)]
        )
        assert code == 2

    def test_usage_error_exits_2(self, tmp_path, monkeypatch, capsys):
        # a bad choice, and flags that are gone: the model JSON sets theta and n0,
        # and summarize prints its JSON for the shell to redirect
        monkeypatch.chdir(tmp_path)
        for argv in (["memloss", "--pair", "bogus", "--out", "out"], ["coupling", "--theta", "0.3", "--out", "out"],
                     ["coupling", "--n0", "2", "--out", "out"], ["summarize", "x.csv", "--out-json", "y"]):
            assert run_cli(argv) == 2, argv
            assert os.listdir(tmp_path) == [] and "Traceback" not in capsys.readouterr().err, argv
        # every float flag is finite, so a gate can fail and the summary stays strict JSON
        lsv_tails = ["tails", "--family", "lsv", "--n-max", "100"]
        lsv_mixing = ["mixing", "--family", "lsv", "--n-max", "5", "--grid", "1024"]
        for argv in ([*lsv_tails, "--expect-slope", "-2", "--tol", "nan"],
                     [*lsv_tails, "--expect-slope", "-9", "--tol", "inf"],
                     [*lsv_tails, "--expect-slope=-inf"], ["tails", "--family", "lsv", "--gamma", "nan"],
                     ["tails", "--family", "cui", "--beta", "inf"], [*lsv_mixing, "--expect-floor", "nan"],
                     ["frequency", "--family", "lsv", "--threshold", "nan"],
                     ["frequency", "--family", "lsv", "--threshold", "0.6", "--expect-a", "0.5", "--tol", "inf"],
                     ["frequency", "--family", "lsv", "--threshold", "0.6", "--expect-a=-inf"],
                     ["memloss", "--family", "lsv", "--pair", "holder-cone", "--cone-beta", "nan"],
                     ["evolve", "--family", "lsv", "--density", "cone", "--cone-beta", "inf"]):
            assert run_cli([*argv, "--out", "out"]) == 2, argv
            err = capsys.readouterr().err
            assert os.listdir(tmp_path) == [] and "Traceback" not in err, argv
            flag, value = argv[-1].split("=") if argv[-1].startswith("--") else argv[-2:]
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"memloss {argv[0]}: error: argument {flag}: expected a finite number, got {value!r}"], argv


class TestMixing:
    def test_floor_gate(self, tmp_path):
        code = run_cli(
            ["mixing", "--family", "lsv", "--gamma", "0.5", "--n-max", "50",
             "--grid", "4096", "--expect-floor", "0.05", "--out", str(tmp_path)]
        )
        assert code == 0
        kind, cols = csvio.read_csv(str(tmp_path / "mixing.csv"))
        assert kind == "mixing"
        assert cols["mass"][0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_not_a_power_of_two_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["mixing", "--family", "lsv", "--n-max", "5", "--grid", "1000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: cell count must be a power of two in [2**10, 2**20], got 1000\n"
        assert os.listdir(out) == []

    def test_bounded_by_one_reads_the_unclipped_maximum(self, tmp_path, monkeypatch):
        # mixing_mass clips its values at 1 + 1e-9, so only notes["raw_max"] can exceed the gate's 1 + 1e-8
        real = cli.mixing_mass
        monkeypatch.setattr(cli, "mixing_mass", lambda *args, **kwargs: dataclasses.replace(
            table := real(*args, **kwargs), notes={**table.notes, "raw_max": 1.1}))
        assert run_cli(["mixing", "--family", "lsv", "--n-max", "5", "--grid", "1024", "--out", str(tmp_path)]) == 1
        summary = json.loads((tmp_path / "mixing_summary.json").read_text())
        assert summary["gates"] == [{"name": "bounded_by_one", "pass": False, "actual": 1.1}]
        assert summary["metrics"]["max"] <= 1.0 + 1e-9

    def test_short_table_floor_is_null_and_fails_its_gate(self, tmp_path):
        code = run_cli(["mixing", "--family", "lsv", "--n-max", "1", "--grid", "1024",
                        "--expect-floor", "0.0", "--out", str(tmp_path)])
        assert code == 1
        text = (tmp_path / "mixing_summary.json").read_text()
        summary = json.loads(text, parse_constant=lambda name: pytest.fail(f"not strict JSON: {name}"))
        assert summary["metrics"]["floor_from_2"] is None
        assert summary["gates"][0] == {"name": "floor", "pass": False, "expected": 0.0, "actual": None}


class TestEvolve:
    def test_writes_density(self, tmp_path):
        code = run_cli(
            ["evolve", "--family", "pikovsky", "--gamma", "1.5", "--steps", "5",
             "--grid", "1024", "--density", "uniform", "--out", str(tmp_path)]
        )
        assert code == 0
        kind, cols = csvio.read_csv(str(tmp_path / "density.csv"))
        assert kind == "density"
        assert np.allclose(cols["value"], 0.5, atol=1e-9)

    @pytest.mark.parametrize("profile", ["0", "-1"])
    def test_holder_profile_below_one_exits_2_with_one_line(self, tmp_path, capsys, profile):
        out = tmp_path / "out"
        code = run_cli(["evolve", "--family", "lsv", "--steps", "2", "--grid", "1024",
                        "--profile", profile, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: holder profile must be >= 1, got {profile}\n"
        assert os.listdir(out) == []


class TestFrequency:
    def test_iid_estimate(self, tmp_path):
        cfg = tmp_path / "seq.json"
        cfg.write_text(
            json.dumps(
                {"kind": "iid", "family": "lsv", "support": [0.5, 0.8],
                 "probs": [0.3, 0.7], "seed": 42}
            )
        )
        code = run_cli(
            ["frequency", "--config", str(cfg), "--threshold", "0.6",
             "--n-max", "20000", "--expect-a", "0.3", "--tol", "0.02",
             "--out", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "frequency_summary.json").read_text())
        assert 0.28 <= summary["metrics"]["a"] <= 0.32


class TestCoupling:
    def test_synthetic_model(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"theta": 0.25, "n0": 1, "beta": 2.0,
                                   "tails": "synthetic:poly:2.0"}))
        code = run_cli(
            ["coupling", "--model", str(cfg), "--n-max", "120", "--samples", "20000",
             "--seed", "7", "--out", str(tmp_path)]
        )
        assert code == 0
        kind, cols = csvio.read_csv(str(tmp_path / "coupling.csv"))
        assert kind == "coupling"
        assert cols["p_dp"][0] == 1.0

    @pytest.mark.parametrize("config,key", [
        pytest.param({"k": 0, "Theta": 0.5}, "'k'", id="k0"),
        pytest.param({"k": -2}, "'k'", id="k-2"),
        pytest.param({"k": 0, "tails": "file:"}, "'k'", id="k0-file"),
        pytest.param({"Theta": 0.5}, "'Theta'", id="Theta"),
        pytest.param({"C_beta": 2.0}, "'C_beta'", id="C_beta"),
        pytest.param({"C_beta_prime": 0.5}, "'C_beta_prime'", id="C_beta_prime"),
        pytest.param({"K": -3}, "K must be", id="K-negative"),
    ])
    def test_model_key_that_cannot_act_exits_2(self, tmp_path, capsys, config, key):
        # synthetic:poly: tails have Theta 0 and C_beta = C_beta' = 1 of their own
        if config.get("tails") == "file:":
            tails = str(tmp_path / "tails.csv")
            values = np.concatenate([[1.0], np.arange(1.0, 60.0) ** -2.0])
            csvio.write_columns(tails, "tails", [np.arange(60.0), values, None])
            config = {**config, "tails": "file:" + tails}
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = ["coupling", "--model", str(cfg), "--n-max", "20", "--samples", "10000", "--out", str(out)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err
        assert os.listdir(out) == []

    def test_synthetic_model_with_the_family_constants_runs(self, tmp_path):
        # the bench's model.json spells out the synthetic family's own constants
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"k": 1, "Theta": 0.0, "C_beta": 1.0, "C_beta_prime": 1.0, "beta": 2.0,
                                   "tails": "synthetic:poly:2.0"}))
        code = run_cli(["coupling", "--model", str(cfg), "--n-max", "20", "--samples", "10000",
                        "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "coupling_summary.json").read_text())["pass"]

    def test_unknown_model_key(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"thetaa": 0.25}))
        assert run_cli(["coupling", "--model", str(cfg), "--out", str(tmp_path)]) == 2

    def test_file_tails_model_runs_and_summarize_matches_it_bit_for_bit(self, tmp_path, capsys):
        assert run_cli(["tails", "--family", "lsv", "--gamma", "0.3", "--n-max", "700",
                        "--out", str(tmp_path / "t")]) == 0
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"tails": f"file:{tmp_path / 't' / 'tails_k1_mk.csv'}", "beta": 2,
                                   "beta_prime": 2, "C_beta": 5, "C_beta_prime": 5, "horizon": 650}))
        out = tmp_path / "c"
        assert run_cli(["coupling", "--model", str(cfg), "--n-max", "600", "--samples", "20000",
                        "--seed", "3", "--out", str(out)]) == 0
        metrics = _strict_json((out / "coupling_summary.json").read_text())["metrics"]
        assert metrics["argmax_n"] == 125 and metrics["max_mc_z"] <= 4.0
        assert metrics["sup_ratio"] == pytest.approx(1695.7946647954354, rel=1e-9)
        capsys.readouterr()
        assert run_cli(["summarize", str(out / "coupling.csv")]) == 0
        entry = json.loads(capsys.readouterr().out)[str(out / "coupling.csv")]
        assert entry == {"kind": "coupling", "max_ratio": metrics["sup_ratio"], "argmax_n": metrics["argmax_n"]}

    @pytest.mark.parametrize("config, needle", [
        pytest.param({"tails": "file:{mixing}"}, "expected a tails CSV", id="file-not-tails"),
        pytest.param({"tails": "poly"}, "unknown tails spec 'poly'", id="unknown-spec"),
        pytest.param({"horizon": 19}, "horizon 19 below n_max 20", id="horizon-below-n-max"),
    ])
    def test_model_that_cannot_run_exits_2_with_one_line(self, tmp_path, capsys, config, needle):
        mixing = tmp_path / "mixing.csv"
        csvio.write_columns(str(mixing), "mixing", [np.arange(3.0), np.array([1.0, 0.5, 0.25])])
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({key: value.format(mixing=mixing) if isinstance(value, str) else value
                                   for key, value in config.items()}))
        out = tmp_path / "out"
        argv = ["coupling", "--model", str(cfg), "--n-max", "20", "--samples", "10000", "--out", str(out)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err, err
        assert os.listdir(out) == []


class TestNoComparableMcRow:
    """When every exact value lies outside mc_zscores' band, max_mc_z is
    null in strict JSON, with no warning, and a z gate fails on it."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,code,section", [
        (["coupling", "--n-max", "1", "--samples", "10000"], 1, "metrics"),
        (["tails", "--family", "gh", "--n-max", "2", "--fit-lo", "1", "--fit-hi", "2",
          "--mc-samples", "1000"], 0, "k1"),
    ], ids=["coupling", "tails"])
    def test_max_mc_z_is_null(self, tmp_path, argv, code, section):
        assert run_cli([*argv, "--out", str(tmp_path)]) == code
        summary = _strict_json((tmp_path / f"{argv[0]}_summary.json").read_text())
        assert summary[section]["max_mc_z"] is None
        if argv[0] == "coupling":
            assert summary["gates"] == [{"name": "dp_mc_agree", "pass": False, "actual": None}]


class TestDeterminism:
    def test_rerun_hash_equal(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        argv = ["tails", "--family", "lsv", "--gamma", "0.5", "--n-max", "80",
                "--mc-samples", "5000", "--seed", "3"]
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert _hash_dir(a) == _hash_dir(b)

    def test_each_k_table_equals_its_one_index_run(self, tmp_path):
        cfg = tmp_path / "iid.json"
        cfg.write_text(json.dumps({"kind": "iid", "family": "lsv", "support": [0.5, 0.8],
                                   "probs": [0.3, 0.7], "seed": 5}))
        argv = ["tails", "--config", str(cfg), "--n-max", "60", "--mc-samples", "2000", "--seed", "9"]
        assert run_cli([*argv, "--k", "1,2,3,4", "--out", str(tmp_path / "all")]) == 0
        for k in (1, 2, 3, 4):
            alone = tmp_path / f"k{k}"
            assert run_cli([*argv, "--k", str(k), "--out", str(alone)]) == 0
            for name in (f"tails_k{k}_mk.csv", f"tails_k{k}_mk_mc.csv"):
                assert (tmp_path / "all" / name).read_bytes() == (alone / name).read_bytes(), name


class TestSummarize:
    def test_matches_run_summary_bit_for_bit(self, tmp_path, capsys):
        assert run_cli(
            ["memloss", "--family", "lsv", "--gamma", "0.5", "--n-max", "40",
             "--grid", "1024", "--out", str(tmp_path)]
        ) == 0
        run_summary = json.loads((tmp_path / "memloss_summary.json").read_text())
        assert run_cli(["summarize", str(tmp_path / "memloss.csv")]) == 0
        recomputed = json.loads(capsys.readouterr().out)
        entry = recomputed[str(tmp_path / "memloss.csv")]
        for key in ("slope", "intercept", "r_squared", "fit_lo", "fit_hi"):
            assert entry[key] == run_summary["metrics"][key]

    @pytest.mark.parametrize("argv, csv_section", [
        (["tails", "--family", "lsv", "--gamma", "0.5", "--n-max", "150", "--k", "1,2"],
         {"tails_k1_mk.csv": "k1", "tails_k2_mk.csv": "k2"}),
        (["tails", "--family", "pikovsky", "--gamma", "2.0", "--n-max", "120", "--base", "lebesgue",
          "--fit-lo", "5", "--fit-hi", "100"], {"tails_k1_lebesgue.csv": "k1"}),
        (["memloss", "--family", "gh", "--n-max", "30", "--grid", "1024"], {"memloss.csv": "metrics"}),
        (["memloss", "--family", "lsv", "--n-max", "40", "--grid", "1024", "--pair", "holder-cone",
          "--fit-lo", "5", "--fit-hi", "40"], {"memloss.csv": "metrics"}),
        (["mixing", "--family", "lsv", "--n-max", "30", "--grid", "1024"], {"mixing.csv": "metrics"}),
        (["mixing", "--family", "lsv", "--n-max", "1", "--grid", "1024"], {"mixing.csv": "metrics"}),
    ], ids=["tails-k1-k2", "tails-fit-window", "memloss", "memloss-fit-window", "mixing", "mixing-short"])
    def test_summarize_equals_the_run_summary(self, tmp_path, capsys, argv, csv_section):
        assert run_cli([*argv, "--out", str(tmp_path)]) == 0
        command = argv[0]
        run_summary = json.loads((tmp_path / f"{command}_summary.json").read_text())
        fit = argv[argv.index("--fit-lo"):argv.index("--fit-lo") + 4] if "--fit-lo" in argv else []
        paths = [str(tmp_path / name) for name in csv_section]
        capsys.readouterr()
        assert run_cli(["summarize", *paths, *fit]) == 0
        recomputed = json.loads(capsys.readouterr().out)
        for path, section in zip(paths, csv_section.values()):
            entry = recomputed[path]
            assert entry.pop("kind") == command
            expected = {key: run_summary[section][key] for key in entry}
            # dumped, so that a NaN floor compares equal to itself
            assert json.dumps(entry, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_short_mixing_csv_summarizes_to_a_nan_floor(self, tmp_path, capsys):
        assert run_cli(["mixing", "--family", "lsv", "--n-max", "1", "--grid", "1024",
                        "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert run_cli(["summarize", str(tmp_path / "mixing.csv")]) == 0
        captured = capsys.readouterr()
        # strict JSON: a bare NaN would be rejected here
        out = json.loads(captured.out, parse_constant=lambda name: pytest.fail(f"not strict JSON: {name}"))
        entry = out[str(tmp_path / "mixing.csv")]
        assert entry["floor_from_2"] is None and entry["max"] == pytest.approx(1.0)
        assert captured.err == ""

    @pytest.mark.parametrize("text,needle", [
        ("n,p_dp,p_mc,stderr,ratio\n0,1,1,0,\n1,0.5,0.5,0.01,\n", "{path}: every ratio cell is empty"),
        ("n,mass\n0,1\n1,\n2,0.5\n", "{path}: a mass cell is empty or not finite"),
        ("n,value\n1,1\n2,\n", "{path}: a value cell is empty or not finite"),
        # the fit window of this tails table holds an empty cell
        ("n,value,stderr\n" + "".join(f"{n},{'' if n == 59 else (n + 1) ** -0.5},\n" for n in range(301)),
         "fit window contains values that are not > 0"),
        # present but infinite cells, which the package never writes
        ("n,p_dp,p_mc,stderr,ratio\n0,1,1,0,\n1,0.5,0.5,0.01,inf\n2,0.25,0.25,0.01,1\n",
         "{path}: a ratio cell is not finite"),
        ("n,value,stderr\n" + "".join(f"{n},{'inf' if n == 59 else (n + 1) ** -0.5},\n" for n in range(301)),
         "{path}: fit window contains values that are not > 0 or not finite"),
    ], ids=["coupling", "mixing", "frequency", "tails", "coupling-inf", "tails-inf"])
    def test_summarize_of_a_csv_with_empty_cells_exits_2(self, tmp_path, capsys, text, needle):
        path = tmp_path / "run.csv"
        path.write_text(text)
        assert run_cli(["summarize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert needle.format(path=path) in captured.err

    def test_empty_csv_is_format_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli(["summarize", str(empty)]) == 2

    def test_foreign_csv_is_format_error(self, tmp_path):
        foreign = tmp_path / "foreign.csv"
        foreign.write_text("a,b,c\n1,2,3\n")
        assert run_cli(["summarize", str(foreign)]) == 2

    def test_two_seeds_compatible_fits(self, tmp_path, capsys):
        for seed, sub in ((1, "s1"), (2, "s2")):
            d = tmp_path / sub
            d.mkdir()
            assert run_cli(
                ["tails", "--family", "lsv", "--gamma", "0.5", "--n-max", "300",
                 "--mc-samples", "30000", "--seed", str(seed), "--out", str(d)]
            ) == 0
        fits = []
        for sub in ("s1", "s2"):
            assert run_cli(
                ["summarize", str(tmp_path / sub / "tails_k1_mk_mc.csv"),
                 "--fit-lo", "5", "--fit-hi", "60"]
            ) == 0
            out = json.loads(capsys.readouterr().out)
            fits.append(next(iter(out.values()))["slope"])
        assert abs(fits[0] - fits[1]) <= 0.3


_IID = {"kind": "iid", "family": "lsv", "support": [0.5, 0.8], "probs": [0.5, 0.5], "seed": 1}


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["tails", "--n-max", "50"],
        ["memloss", "--n-max", "10", "--grid", "1024"],
        ["evolve", "--steps", "10", "--grid", "1024"],
        ["mixing", "--n-max", "10", "--grid", "1024"],
    ], ids=lambda argv: argv[0])
    def test_explicit_sequence_past_its_end_exits_2(self, tmp_path, capsys, argv):
        cfg = tmp_path / "seq.json"
        cfg.write_text(json.dumps({"kind": "explicit", "family": "lsv", "cycle": [0.5, 0.6, 0.7]}))
        out = tmp_path / "out"
        assert run_cli([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: explicit sequence has 3 entries") and err.count("\n") == 1
        assert os.listdir(out) == []

    def test_explicit_sequence_runs_tails_with_mc_to_its_last_entry(self, tmp_path, capsys):
        cfg = tmp_path / "seq.json"
        cfg.write_text(json.dumps({"kind": "explicit", "family": "lsv", "cycle": [0.5, 0.8] * 10}))
        argv = ["tails", "--config", str(cfg), "--mc-samples", "1000"]
        assert run_cli([*argv, "--n-max", "20", "--out", str(tmp_path / "a")]) == 0
        assert run_cli([*argv, "--n-max", "21", "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == "error: explicit sequence has 20 entries, asked for 21\n"

    def test_explicit_gh_sequence_past_its_end_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "seq.json"
        cfg.write_text(json.dumps({"kind": "explicit", "family": "gh", "cycle": [2.0, 2.0, 2.0]}))
        out = tmp_path / "out"
        assert run_cli(["tails", "--n-max", "50", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: explicit sequence has 3 entries, asked for 50\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("mc", [[], ["--mc-samples", "1000"]], ids=["exact", "mc"])
    def test_explicit_gh_sequence_runs_tails_to_its_last_entry(self, tmp_path, capsys, mc):
        cfg = tmp_path / "seq.json"
        cfg.write_text(json.dumps({"kind": "explicit", "family": "gh", "cycle": [2.0] * 10}))
        argv = ["tails", "--config", str(cfg), *mc]
        assert run_cli([*argv, "--n-max", "10", "--out", str(tmp_path / "a")]) == 0
        assert run_cli([*argv, "--n-max", "11", "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == "error: explicit sequence has 10 entries, asked for 11\n"

    @pytest.mark.parametrize("argv,n_max", [
        (["tails", "--family", "lsv", "--n-max", "2"], 2),
        (["tails", "--family", "lsv", "--n-max", "50", "--fit-lo", "10", "--fit-hi", "60"], 50),
        (["tails", "--family", "lsv", "--n-max", "50", "--k", "1,2", "--mc-samples", "1000",
          "--fit-hi", "51"], 50),
        (["memloss", "--family", "lsv", "--n-max", "10", "--grid", "1024", "--fit-lo", "0"], 10),
    ], ids=["tails-short", "tails-fit-hi", "tails-k-mc", "memloss-fit-lo"])
    def test_fit_window_outside_the_table_exits_2_and_writes_nothing(self, tmp_path, capsys, argv, n_max):
        out = tmp_path / "out"
        assert run_cli([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: need 1 <= n_min < n_max <= {n_max}\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("argv", [
        *(pytest.param([command, *family], id=f"{command}-{family[1]}")
          for command in ("tails", "memloss", "mixing") for family in _FAMILY_ARGS),
        pytest.param(["coupling"], id="coupling"),
    ])
    @pytest.mark.parametrize("n_max", ["-5", "-1", "0"])
    def test_n_max_below_one_exits_2_with_one_line(self, tmp_path, capsys, argv, n_max):
        out = tmp_path / "out"
        grid = ["--grid", "1024"] if argv[0] in ("memloss", "mixing") else []
        assert run_cli([*argv, "--n-max", n_max, *grid, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: n_max must be >= 1, got {n_max}\n"
        assert os.listdir(out) == []

    def test_missing_out_directory_is_created(self, tmp_path):
        out = tmp_path / "results" / "run1"
        code = run_cli(["evolve", "--family", "lsv", "--steps", "2", "--grid", "1024",
                        "--out", str(out)])
        assert code == 0
        assert (out / "density.csv").exists()

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = run_cli(["evolve", "--family", "lsv", "--steps", "2", "--grid", "1024",
                        "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot create --out directory")

    @pytest.mark.parametrize("flag,config,needle", [
        pytest.param("--model", {"tails": 5}, "'tails'", id="tails-int"),
        pytest.param("--model", {"theta": "abc"}, "'theta'", id="theta-str"),
        pytest.param("--model", {"horizon": "x"}, "'horizon'", id="horizon-str"),
        pytest.param("--model", {"beta": "2"}, "'beta'", id="beta-str"),
        pytest.param("--model", {"k": "a"}, "'k'", id="k-str"),
        pytest.param("--model", {"n0": 1.5}, "'n0'", id="n0-float"),
        pytest.param("--model", {"k": True}, "'k'", id="k-bool"),
        pytest.param("--model", {"horizon": 30.0}, "'horizon'", id="horizon-float"),
        pytest.param("--model", {"tails": "synthetic:poly:abc"}, "'synthetic:poly:abc'", id="tails-spec"),
        pytest.param("--model", {"tails": "synthetic:poly:2.0:junk", "horizon": 40}, "'synthetic:poly:2.0:junk'",
                     id="tails-spec-junk"),
        pytest.param("--config", {"kind": "periodic", "family": "gh", "cycle": [0.7]}, "gh map has gamma 2",
                     id="gh-gamma"),
        pytest.param("--config", {**_IID, "seed": "abc"}, "'seed'", id="seed-str"),
        pytest.param("--config", {**_IID, "seed": 1.7}, "'seed'", id="seed-float"),
        pytest.param("--config", {**_IID, "seed": False}, "'seed'", id="seed-bool"),
        pytest.param("--config", {**_IID, "probs": "x"}, "'probs'", id="probs-str"),
        pytest.param("--config", {"kind": "periodic", "family": "lsv", "cycle": 5}, "'cycle'", id="cycle-int"),
        pytest.param("--config", {"kind": "periodic", "family": ["lsv"], "cycle": [0.5]}, "'family'",
                     id="family-list"),
        pytest.param("--config", {"kind": "periodic", "family": "lsv", "cycle": [{"gamma": "a"}]}, "'gamma'",
                     id="entry-str"),
        pytest.param("--config", {"kind": "markov", "family": "lsv", "support": [0.5, 0.8],
                                  "transition": [[0.5, "a"], [0.5, 0.5]], "seed": 1}, "'transition'",
                     id="transition-str"),
        # Python's json reads NaN and Infinity; a number must be finite
        pytest.param("--config", {"kind": "markov", "family": "lsv", "support": [0.5, 0.8],
                                  "transition": [[0.5, math.nan], [0.5, 0.5]], "seed": 1}, "'transition'",
                     id="transition-nan"),
        pytest.param("--config", {**_IID, "probs": [math.nan, 1.0]}, "'probs'", id="probs-nan"),
        pytest.param("--config", {"kind": "markov", "family": "lsv", "support": [0.5, 0.8], "init": [0.2, 0.3, 0.5],
                                  "transition": [[0.5, 0.5], [0.5, 0.5]], "seed": 1},
                     "initial law must match the support length", id="init-length"),
        pytest.param("--model", {"K": math.nan}, "'K'", id="K-nan"),
        pytest.param("--model", {"diam": math.nan}, "'diam'", id="diam-nan"),
        pytest.param("--model", {"diam": math.inf}, "'diam'", id="diam-inf"),
        pytest.param("--model", {"Theta": math.nan, "tails": "file:tails.csv"}, "'Theta'", id="Theta-nan-file"),
        # finite numbers whose C_h = 2 exp(K2 diam) or n**beta' overflows
        pytest.param("--model", {"beta": 1e300}, "(theta* k + 1)**beta' overflows", id="beta-overflow"),
        pytest.param("--model", {"diam": 1e300}, "C_h = 2 exp(K2 diam_x) overflows", id="diam-overflow"),
        pytest.param("--model", {"K": 1e300}, "C_h = 2 exp(K2 diam_x) overflows", id="K-overflow"),
    ])
    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, flag, config, needle):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = (["coupling", "--n-max", "20", "--samples", "10000"] if flag == "--model"
                else ["tails", "--n-max", "50"])
        assert run_cli([*argv, flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
        assert os.listdir(out) == []

    def test_gh_gamma_other_than_2_exits_2_and_2_keeps_the_artifacts(self, tmp_path, capsys):
        argv = ["tails", "--family", "gh", "--n-max", "50"]
        assert run_cli([*argv, "--gamma", "2.7", "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "gh map has gamma 2, got 2.7" in err
        assert os.listdir(tmp_path / "bad") == []
        assert run_cli([*argv, "--out", str(tmp_path / "a")]) == 0
        assert run_cli([*argv, "--gamma", "2", "--out", str(tmp_path / "b")]) == 0
        assert _hash_dir(tmp_path / "a") == _hash_dir(tmp_path / "b")

    def test_no_config_and_no_family_exits_2_with_one_line(self, tmp_path, capsys):
        assert run_cli(["tails", "--n-max", "20", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: either --config or --family is required\n"
        assert os.listdir(tmp_path) == []

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = run_cli(["memloss", "--config", str(tmp_path / "nope.json"), "--n-max", "10",
                        "--grid", "1024", "--out", str(tmp_path)])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_missing_model_exits_2(self, tmp_path, capsys):
        code = run_cli(["coupling", "--model", str(tmp_path / "nope.json"), "--n-max", "20",
                        "--samples", "100", "--out", str(tmp_path)])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["memloss", "memloss.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    src = os.path.dirname(os.path.dirname(memloss.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "evolve", "--family", "lsv", "--steps", "2",
         "--grid", "1024", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "density.csv").exists()


_FINISH_RUNS = {
    "tails": ["tails", "--family", "lsv", "--gamma", "0.5", "--n-max", "60"],
    "memloss": ["memloss", "--family", "lsv", "--gamma", "0.5", "--n-max", "30", "--grid", "1024"],
    "mixing": ["mixing", "--family", "lsv", "--gamma", "0.5", "--n-max", "20", "--grid", "1024"],
    "evolve": ["evolve", "--family", "lsv", "--gamma", "0.5", "--steps", "2", "--grid", "1024"],
    "frequency": ["frequency", "--family", "lsv", "--gamma", "0.5", "--threshold", "0.6",
                  "--n-max", "200"],
    "coupling": ["coupling", "--n-max", "40", "--samples", "10000", "--seed", "3"],
}
_FIRST_CSV = {"tails": "tails_k1_mk.csv", "memloss": "memloss.csv", "mixing": "mixing.csv",
              "evolve": "density.csv", "frequency": "frequency.csv", "coupling": "coupling.csv"}
_FAILING_GATES = {
    "tails": ["--expect-slope", "99"],
    "memloss": ["--expect-slope", "99"],
    "mixing": ["--expect-floor", "2"],
    "frequency": ["--expect-a", "0.99", "--tol", "0"],
}


def test_the_package_main_module_exits_with_run_cli_status(tmp_path, monkeypatch):
    # in process, as ``python -m memloss`` runs it; the test above runs it in a child process
    argv = ["evolve", "--family", "lsv", "--steps", "2", "--grid", "1024"]
    for status, out in ((0, tmp_path), (2, tmp_path / "density.csv")):  # a file as --out: exit 2
        monkeypatch.setattr(sys, "argv", ["memloss", *argv, "--out", str(out)])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("memloss", run_name="__main__")
        assert info.value.code == status
    assert sorted(os.listdir(tmp_path)) == ["density.csv", "evolve_summary.json"]


class TestFinishPath:
    """Every computing subcommand ends the same way: one summary file whose
    ``pass`` is the conjunction of its gates, and exit 0 exactly when it passes."""

    @pytest.mark.parametrize("argv, failing", [
        *[(argv, False) for argv in _FINISH_RUNS.values()],
        *[(_FINISH_RUNS[cmd] + extra, True) for cmd, extra in _FAILING_GATES.items()],
    ], ids=[*_FINISH_RUNS, *(f"{cmd}-failing-gate" for cmd in _FAILING_GATES)])
    def test_one_summary_whose_pass_sets_the_exit_code(self, tmp_path, argv, failing):
        code = run_cli([*argv, "--out", str(tmp_path)])
        command = argv[0]
        assert sorted(p.name for p in tmp_path.glob("*summary*")) == [f"{command}_summary.json"]
        summary = json.loads((tmp_path / f"{command}_summary.json").read_text())
        assert summary["command"] == command
        assert summary["pass"] is all(g["pass"] for g in summary.get("gates", []))
        assert code == (0 if summary["pass"] else 1)
        if failing:
            assert summary["pass"] is False

    @pytest.mark.parametrize("command", sorted(_FINISH_RUNS))
    def test_an_artifact_that_cannot_be_written_exits_2_without_a_summary(self, tmp_path, capsys, command):
        (tmp_path / _FIRST_CSV[command]).mkdir()
        assert run_cli([*_FINISH_RUNS[command], "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {tmp_path / _FIRST_CSV[command]}: Is a directory\n"
        assert os.listdir(tmp_path) == [_FIRST_CSV[command]]

    @pytest.mark.parametrize("earlier, blocked", [
        (["tails", "--family", "lsv", "--n-max", "40"], "tails_k2_mk.csv"),  # a table after one it rewrites
        (_FINISH_RUNS["evolve"], "tails_summary.json"),  # the summary, moved into place last
    ], ids=["later-table", "summary"])
    def test_a_failed_run_leaves_out_as_it_found_it(self, tmp_path, capsys, earlier, blocked):
        assert run_cli([*earlier, "--out", str(tmp_path)]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        (tmp_path / blocked).mkdir()
        argv = ["tails", "--family", "lsv", "--n-max", "50", "--k", "2,1", "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write {tmp_path / blocked}: Is a directory\n"
        assert sorted(os.listdir(tmp_path)) == sorted([*before, blocked])
        assert {name: (tmp_path / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("stage", ["write", "move"])
    def test_a_failure_midway_removes_what_the_run_wrote(self, tmp_path, capsys, monkeypatch, stage):
        write_columns, replace = csvio.write_columns, os.replace

        def write_part_of_k2(path, kind, columns):
            if "_k2_" not in path:
                return write_columns(path, kind, columns)
            with open(path, "w") as fh:  # part of the table
                fh.write("n,value,stderr\n0,")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def refuse_the_summary(src, dst):
            if dst.endswith("_summary.json"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            replace(src, dst)

        if stage == "write":
            monkeypatch.setattr(csvio, "write_columns", write_part_of_k2)
        else:
            monkeypatch.setattr(os, "replace", refuse_the_summary)
        argv = ["tails", "--family", "lsv", "--n-max", "50", "--k", "2,1", "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        name, code = ("tails_k2_mk.csv", errno.ENOSPC) if stage == "write" else ("tails_summary.json", errno.EACCES)
        assert capsys.readouterr().err == f"error: cannot write {tmp_path / name}: {os.strerror(code)}\n"
        assert os.listdir(tmp_path) == []

    def test_a_memory_error_midway_exits_2_and_removes_what_the_run_wrote(self, tmp_path, capsys, monkeypatch):
        write_columns = csvio.write_columns

        def run_out_of_memory_in_k2(path, kind, columns):
            if "_k2_" not in path:
                return write_columns(path, kind, columns)
            with open(path, "w") as fh:  # part of the table
                fh.write("n,value,stderr\n0,")
            raise MemoryError

        monkeypatch.setattr(csvio, "write_columns", run_out_of_memory_in_k2)
        argv = ["tails", "--family", "lsv", "--n-max", "50", "--k", "1,2", "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert os.listdir(tmp_path) == []

    def test_artifacts_follow_the_umask(self, tmp_path):
        umask = os.umask(0o022)
        try:
            assert run_cli([*_FINISH_RUNS["tails"], "--out", str(tmp_path)]) == 0
        finally:
            os.umask(umask)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == {"tails_k1_mk.csv": 0o644, "tails_summary.json": 0o644}


@pytest.mark.parametrize("argv", [
    ["coupling", "--model", "m.json", "--n-max", "10", "--samples", "10000"],  # a 74.5 GiB prefix table
    ["tails", "--family", "lsv", "--gamma", "0.5", "--n-max", "1000000000"],  # 7.45 GiB of indices
], ids=["coupling-horizon", "tails-n-max"])
def test_a_size_the_machine_cannot_hold_exits_2_with_one_line(tmp_path, argv):
    resource = pytest.importorskip("resource")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2 * 10**9 if hard == resource.RLIM_INFINITY else min(2 * 10**9, hard)

    def limit_address_space():  # the child's own limit: without it these sizes can fill the host
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    (tmp_path / "m.json").write_text(json.dumps({"horizon": 100000}))
    src = os.path.dirname(os.path.dirname(memloss.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "memloss", *argv, "--out", "out"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300, preexec_fn=limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert os.listdir(tmp_path / "out") == []


_GAMMAS = {"lsv": st.floats(0.2, 0.9), "pikovsky": st.floats(1.2, 2.8)}


@st.composite
def _fitted_runs(draw):
    """(argv, fit window flags, CSV name, summary section) of a small tails or memloss run."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(sorted(_GAMMAS)))
        base = draw(st.sampled_from(["mk", "lebesgue"]))
        n_max = draw(st.integers(30, 200))
        argv = ["tails", "--family", family, "--gamma", repr(draw(_GAMMAS[family])),
                "--base", base, "--n-max", str(n_max)]
        csv, section = f"tails_k1_{base}.csv", "k1"
    else:
        n_max = draw(st.integers(20, 60))
        argv = ["memloss", "--family", "lsv", "--gamma", repr(draw(_GAMMAS["lsv"])),
                "--pair", draw(st.sampled_from(["holder-holder", "holder-cone"])),
                "--n-max", str(n_max), "--grid", "1024"]
        csv, section = "memloss.csv", "metrics"
    fit = []
    if draw(st.booleans()):
        lo = draw(st.integers(2, n_max // 2))
        fit = ["--fit-lo", str(lo), "--fit-hi", str(draw(st.integers(lo + 1, n_max)))]
    return argv, fit, csv, section


_SIZE_FLAGS = {
    "tails": ["--n-max", "--k", "--mc-samples"],
    "memloss": ["--n-max", "--grid"],
    "mixing": ["--n-max", "--grid", "--k"],
    "evolve": ["--steps", "--grid"],
    "frequency": ["--n-max"],
    "coupling": ["--n-max"],
}


@st.composite
def _tiny_size_runs(draw):
    """argv of a computing subcommand with every size flag drawn from [-3, 3]."""
    command = draw(st.sampled_from(sorted(_SIZE_FLAGS)))
    argv = [command] if command == "coupling" else [command, *draw(st.sampled_from(_FAMILY_ARGS))]
    argv += {
        "memloss": ["--pair", draw(st.sampled_from(["holder-holder", "holder-cone"]))],
        "evolve": ["--density", draw(st.sampled_from(["uniform", "holder", "cone"]))],
        "frequency": ["--threshold", "0.6"],
        "coupling": ["--samples", "10000"],
    }.get(command, [])
    for flag in _SIZE_FLAGS[command]:
        argv += [flag, str(draw(st.integers(-3, 3)))]
    return argv


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.3, 0.5, 0.99, 1.0, 1.5, 2.0, 3.0, 1e300, -1.0,
                                math.nan, math.inf, -math.inf])
_HUGE_INTS = st.sampled_from([0, 1, -1, 2**31, 2**63, 2**64 + 5, -(2**70)])
_MODEL_FUZZ = {
    **dict.fromkeys(["theta", "K", "lambda", "diam", "delta0", "beta", "beta_prime", "C_beta", "C_beta_prime",
                     "Theta"], _EDGE_FLOATS),
    "n0": st.integers(-2, 3), "k": st.integers(-1, 3), "horizon": st.integers(-1, 40),
    "tails": st.sampled_from(["synthetic:poly:2.0", "synthetic:poly:1.5", "synthetic:poly:", "synthetic:poly:2:3",
                              "synthetic:poly:nan", "synthetic:poly:1e400", "file:missing.csv", "poly"]),
}


_VALID_ENTRIES = {"lsv": st.floats(0.05, 0.95), "pikovsky": st.floats(1.05, 2.95), "gh": st.just(2.0),
                  "cui": st.fixed_dictionaries({"gamma": st.floats(0.05, 0.95), "beta": st.floats(1.0, 3.0)})}


def _mostly(draw, valid, edge):
    """A draw from valid seven times in eight, else from edge."""
    return draw(valid if draw(st.integers(0, 7)) else edge)


@st.composite
def _sequence_configs(draw):
    """A sequence config of at most three entries; an eighth of its values are drawn from edge cases."""
    size = draw(st.integers(1, 3))
    family = _mostly(draw, st.sampled_from(sorted(_VALID_ENTRIES)), st.just("tent"))
    kind = _mostly(draw, st.sampled_from(["periodic", "explicit", "iid", "markov"]), st.just("other"))
    entry = st.one_of(_EDGE_FLOATS, st.fixed_dictionaries({"gamma": _EDGE_FLOATS}, optional={"beta": _EDGE_FLOATS}))
    weights = st.lists(_EDGE_FLOATS, min_size=size, max_size=size)
    uniform = st.just([1.0 / size] * size)
    config = {"kind": kind, "family": family,
              "cycle" if kind in ("periodic", "explicit") else "support":
                  [_mostly(draw, _VALID_ENTRIES.get(family, entry), entry) for _ in range(size)],
              "probs": _mostly(draw, uniform, weights),
              "transition": [_mostly(draw, uniform, weights) for _ in range(size)],
              "seed": draw(_HUGE_INTS)}
    if not draw(st.integers(0, 7)):
        del config[draw(st.sampled_from(sorted(config)))]
    return config


@st.composite
def _fuzzed_runs(draw):
    """(argv, config flag, config) of a small run on a drawn sequence or model config (None: no flag)."""
    command = draw(st.sampled_from(sorted(_SIZE_FLAGS)))
    if command == "coupling":
        argv = ["coupling", "--n-max", str(draw(st.integers(1, 20))), "--samples", "10000",
                "--seed", str(draw(_HUGE_INTS))]
        keys = draw(st.none() | st.sets(st.sampled_from(sorted(_MODEL_FUZZ)), max_size=3))
        return argv, "--model", None if keys is None else {key: draw(_MODEL_FUZZ[key]) for key in keys}
    argv = [command]
    argv += {
        "tails": ["--n-max", str(draw(st.integers(1, 30))), "--mc-samples", draw(st.sampled_from(["0", "1000"])),
                  "--seed", str(draw(_HUGE_INTS)), "--k", draw(st.sampled_from(["1", "2,1"]))],
        "memloss": ["--n-max", str(draw(st.integers(1, 8))), "--grid", "1024"],
        "mixing": ["--n-max", str(draw(st.integers(1, 8))), "--grid", "1024"],
        "evolve": ["--steps", str(draw(st.integers(1, 3))), "--grid", "1024"],
        "frequency": ["--n-max", str(draw(st.integers(1, 60))), f"--threshold={draw(_EDGE_FLOATS)!r}"],
    }[command]
    return argv, "--config", draw(_sequence_configs())


def _assert_exit_contract(argv, out):
    """The run exits 0/1 with a strict JSON summary, or 2 with no summary and one
    ``error:`` line (argparse's usage errors print the usage too)."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli([*argv, "--out", out])
    assert code in (0, 1, 2)
    path = os.path.join(out, f"{argv[0]}_summary.json")
    if code == 2:
        assert not os.path.exists(path)
        if not err.getvalue().startswith("usage:"):
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        with open(path) as fh:
            _strict_json(fh.read())


class TestCliProperties:
    @settings(max_examples=30, deadline=None)
    @given(run=_fitted_runs())
    def test_summarize_reproduces_the_run_summary_fit(self, run):
        argv, fit, csv, section = run
        with tempfile.TemporaryDirectory() as out:
            assert run_cli([*argv, *fit, "--out", out]) == 0
            with open(os.path.join(out, f"{argv[0]}_summary.json")) as fh:
                run_fit = json.load(fh)[section]
            path = os.path.join(out, csv)
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                assert run_cli(["summarize", path, *fit]) == 0
        entry = json.loads(printed.getvalue())[path]
        for key in ("fit_lo", "fit_hi", "slope", "intercept", "r_squared"):
            assert entry[key] == run_fit[key], key

    @settings(max_examples=100, deadline=None)
    @given(argv=_tiny_size_runs())
    def test_tiny_and_negative_sizes_exit_0_1_or_2(self, argv):
        with tempfile.TemporaryDirectory() as out:
            _assert_exit_contract(argv, out)

    @settings(max_examples=200, deadline=None)
    @given(run=_fuzzed_runs())
    def test_random_configs_exit_0_1_or_2_with_strict_json_or_no_summary(self, run):
        argv, flag, config = run
        with tempfile.TemporaryDirectory() as out:
            if config is not None:
                argv = [*argv, flag, os.path.join(out, "config.json")]
                with open(argv[-1], "w") as fh:
                    json.dump(config, fh)  # NaN and Infinity as Python's json writes them
            _assert_exit_contract(argv, out)
