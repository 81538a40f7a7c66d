import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import memloss
from memloss import csvio
from memloss.cli import run_cli


def _hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


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

    def test_usage_error_exits_2(self, tmp_path):
        assert run_cli(["memloss", "--pair", "bogus", "--out", str(tmp_path)]) == 2


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

    def test_unknown_model_key(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"thetaa": 0.25}))
        assert run_cli(["coupling", "--model", str(cfg), "--out", str(tmp_path)]) == 2


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

    def test_thread_count_invariant(self, tmp_path, monkeypatch):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        argv = ["tails", "--family", "lsv", "--gamma", "0.5", "--k", "1,2,3",
                "--n-max", "60"]
        monkeypatch.setenv("MEMLOSS_THREADS", "1")
        assert run_cli(argv + ["--out", str(a)]) == 0
        monkeypatch.setenv("MEMLOSS_THREADS", "3")
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert _hash_dir(a) == _hash_dir(b)


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
        entry = json.loads(captured.out)[str(tmp_path / "mixing.csv")]
        assert np.isnan(entry["floor_from_2"]) and entry["max"] == pytest.approx(1.0)
        assert captured.err == ""

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
