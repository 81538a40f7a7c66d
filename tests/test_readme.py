"""The README's library example runs and its comments hold."""

import pathlib
import re
import shlex

import numpy as np

import memloss as ml
from memloss.cli import run_cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_library_example_runs_and_its_comments_hold():
    (code,) = _python_blocks()
    names = {}
    exec(compile(code, str(README), "exec"), names)
    # "slope close to -2" on the tail's fit, "-1" on the curve's
    claims = re.findall(r"^(\w+) = .*# slope close to (-?\d+)$", code, re.M)
    assert [name for name, _ in claims] == ["fit", "curve"]
    targets = {name: float(value) for name, value in claims}

    assert abs(names["fit"].slope - targets["fit"]) <= 0.15

    tv = names["curve"].values
    assert len(tv) == 201
    assert np.all((tv >= 0.0) & (tv <= 1.0))
    assert np.all(np.diff(tv) <= 0.0)
    assert abs(ml.fit_power_law(names["curve"], 10, 200).slope - targets["curve"]) <= 0.3


def _section(heading):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    return text[start : text.find("\n#", start + len(heading) + 2)]


def test_command_line_examples_exit_0(tmp_path, monkeypatch):
    # every command of the "Command line" block, with the sequence and model
    # examples of the config sections as seq.json and model.json
    (commands,) = re.findall(r"```sh\n(.*?)```", _section("## Command line"), re.S)
    for name, heading in (("seq.json", "### Sequence config (JSON)"), ("model.json", "### Coupling model config (JSON)")):
        (example,) = re.findall(r"```json\n(.*?)```", _section(heading), re.S)
        (tmp_path / name).write_text(example, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = commands.replace("\\\n", " ").splitlines()
    assert len(lines) == 6 and all(line.startswith("memloss ") for line in lines)
    for line in lines:
        assert run_cli(shlex.split(line)[1:]) == 0, line
