"""The README's command-line and config tables agree with the code.

A flag or config key that the README lists and the code does not have,
or the other way round, fails here.
"""

import argparse
import dataclasses
import os
import re
import typing

from stockalloc import ForestParams, RunConfig, TwoClassScenario, WeightConfig
from stockalloc.cli import build_parser

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# The config table's rows that read one section dataclass each.
SECTION_OF_ROW = {"synth": TwoClassScenario, "train": ForestParams, "retrain": ForestParams,
                  "weights": WeightConfig}
# RunConfig fields that a `compare` file may not set: the command gives them.
RUN_GIVEN = {"csv_path", "budgets", "seed"}


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


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
