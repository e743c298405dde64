"""The README's command-line and config tables, its CLI sessions and
library quick start, and demo 05's CLI session agree with the code.

A flag, subcommand or config key that the README lists and the code does
not have, or the other way round, fails here, and so does a documented
command line that fails or a quick start that no longer runs.
"""

import argparse
import dataclasses
import glob
import json
import os
import re
import runpy
import shlex
import typing

from stockalloc import ForestParams, RunConfig, TwoClassScenario, WeightConfig
from stockalloc.cli import build_parser, main

from test_cli import write_ledger

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
DEMO_05 = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "05_ledger_to_report.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "stockalloc")

# The config table's rows that read one section dataclass each.
SECTION_OF_ROW = {"synth": TwoClassScenario, "train": ForestParams, "weights": WeightConfig}
# RunConfig fields that a `compare` file may not set: the command gives them.
RUN_GIVEN = {"csv_path", "seed"}


def _readme():
    return _read(README)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _command_lines(text):
    """The `stockalloc ...` commands of `text`, each continuation line joined on."""
    joined = re.sub(r"\\+\n", " ", text)
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("stockalloc ")]


def _table(heading):
    """{subcommand: [cells after the first]} of the first table after `heading`;
    a row whose first cell names two subcommands is listed under both."""
    text = _readme()
    rows = {}
    for line in text[text.index(heading):].splitlines():
        if line.startswith("|"):
            first, *rest = [cell.strip() for cell in line.strip("|").split("|")]
            for name in re.findall(r"`(\w+)`", first):
                rows[name] = rest
        elif rows:
            break
    return rows


def _words(cell):
    """The words of the first code span in `cell`."""
    return set(re.search(r"`([^`]*)`", cell).group(1).split())


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def _subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_flags_table_lists_every_flag_of_each_subcommand():
    rows = _table("Each subcommand accepts only the flags it reads")
    commands = _subcommands()
    assert set(rows) == set(commands)
    for name, parser in commands.items():
        flags = {flag for action in parser._actions for flag in action.option_strings
                 if flag != "--help" and flag.startswith("--")}
        assert set(re.findall(r"--[a-z][a-z-]*", rows[name][0])) == flags, name


def test_module_table_lists_the_subcommands():
    listed = re.search(r"\| `stockalloc\.cli` \|[^`]*`([^`]*)`", _readme()).group(1).split()
    assert listed == list(_subcommands())


def test_module_table_names_every_public_module():
    """Each public module (`src/stockalloc/[!_]*.py`) has exactly one row in
    the README's module table, and each row names a module that exists."""
    text = _readme()
    rows = []
    for line in text[text.index("## What's inside"):].splitlines():
        if line.startswith("|"):
            rows += re.findall(r"^\| `stockalloc\.(\w+)` \|", line)
        elif rows:
            break
    modules = [os.path.basename(path)[:-3] for path in glob.glob(os.path.join(SRC, "[!_]*.py"))]
    assert len(rows) == len(set(rows))
    assert sorted(rows) == sorted(modules)


def _unmet(report, policy="decision_aware"):
    return {product: {"unmet_demand_pct": entry["policies"][policy]["unmet_demand_pct"]}
            for product, entry in report["products"].items()}


def test_documented_sessions_run(tmp_path, monkeypatch, capsys):
    """Every line of the README's and of demo 05's session exits 0, each run
    on its `ledger.csv` (and demo 05's on its `run.json`). Each `evaluate`
    prints the `decision_aware` unmet demand of its session's `compare`, and
    demo 05's also that of the demo's own library run.

    On demo 05's ledger every policy scores 30%, so the README's session runs
    on a ledger where `decision_aware` scores apart from `oracle`: there a
    `train` that also fitted the evaluation period would not match `compare`."""
    monkeypatch.chdir(tmp_path)
    demo = runpy.run_path(DEMO_05)
    sessions = [
        ("README", re.search(r"## Command line\s+```bash\n(.*?)```", _readme(), re.S).group(1),
         lambda path: write_ledger(path, months=12, facilities=6)),
        ("demo_05", capsys.readouterr().out.split("equivalent CLI session:\n")[1],
         lambda path: path.write_text(demo["ledger_text"])),
    ]
    for where, text, write in sessions:
        work = tmp_path / where
        work.mkdir()
        monkeypatch.chdir(work)
        write(work / "ledger.csv")
        for settings in re.findall(r"echo '(.*)' > run\.json", text):
            (work / "run.json").write_text(settings)
        lines = _command_lines(text)
        assert len(lines) >= 7, where
        for line in lines:
            argv = shlex.split(line)[1:]
            assert main(argv) == 0, f"{where}: {line!r} failed"
            printed = capsys.readouterr().out
            if argv[0] == "evaluate":
                scored = json.loads(printed)
            elif argv[:2] == ["compare", "--csv"]:
                out = argv[argv.index("--out") + 1]
                report = json.loads((work / out / "report.json").read_text())
        assert scored == _unmet(report), where
        if where == "README":
            assert _unmet(report) != _unmet(report, "oracle")
    assert scored == _unmet(demo["report"])


def test_config_table_lists_the_keys_of_each_section():
    rows = _table("## Config files")
    for name, cls in SECTION_OF_ROW.items():
        assert _words(rows[name][1]) == _fields(cls), name
    compare_keys = rows["compare"][1]
    sections = {key: SECTION_OF_ROW[row]
                for key, row in re.findall(r"`(\w+)` \(the `(\w+)` keys\)", compare_keys)}
    assert sections == {
        f.name: kind for f in dataclasses.fields(RunConfig)
        for kind in typing.get_args(f.type) or (f.type,) if dataclasses.is_dataclass(kind)}
    assert _words(compare_keys) | set(sections) == _fields(RunConfig) - RUN_GIVEN


def test_compare_file_top_level_keys_match_run_config():
    listed = re.search(r"the top\s+level may hold only `([^`]*)`", _readme()).group(1).split()
    assert set(listed) == _fields(RunConfig) - RUN_GIVEN


def test_library_quick_start_runs(capsys):
    text = _readme()
    (block,) = re.findall(r"## Library quick start\s+```python\n(.*?)```", text, re.S)
    exec(compile(block, "README.md (Library quick start)", "exec"), {})
    allocation, means = capsys.readouterr().out.splitlines()
    assert allocation.startswith("[") and len(means.split()) == 2
