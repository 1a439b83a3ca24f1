"""The README's module table and command-line block describe the code."""

import argparse
import importlib
import re
from pathlib import Path

from mcifc.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def test_module_table_names_resolve():
    rows = re.findall(r"^\| `(mcifc\.\w+)` \| (.*) \|$", section("Modules"), re.M)
    assert len(rows) == 6
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", contents):
            if not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_command_line_block_matches_parser():
    block = re.search(r"```sh\n(.*?)```", section("Command line"), re.S).group(1)
    documented = {}
    for command in re.split(r"^mcifc ", block.replace("\\\n", " "), flags=re.M)[1:]:
        name, _, rest = command.partition(" ")
        documented[name] = set(re.findall(r"--[a-z-]+", rest))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = {
        name: {opt for action in parser._actions for opt in action.option_strings
               if opt != "--help" and opt.startswith("--")}
        for name, parser in sub.choices.items()
    }
    assert documented == registered
