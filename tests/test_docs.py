import argparse
import json
import re
import types
from pathlib import Path

import mapdeg
from mapdeg.cli import _build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_is_documented_under_library_use():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    exported = [
        name
        for name, value in vars(mapdeg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(exported) > 40
    missing = [name for name in exported if not re.search(rf"`{name}[`(]", section)]
    assert missing == []


def test_every_name_the_library_list_gives_is_exported():
    # the other direction: a removed name cannot linger in the list
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    listing = section.split("exports exactly these names:", 1)[1].strip().split("\n\n", 1)[0]
    named = set(re.findall(r"`([A-Za-z_]\w*)[`(]", listing))
    assert len(named) > 40
    assert sorted(named - set(vars(mapdeg))) == []


def test_every_cli_option_is_documented():
    text = README.read_text(encoding="utf-8")
    (subparsers,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    missing = []
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if not any(
                re.search(rf"(?<![\w-]){re.escape(s)}(?![\w-])", text)
                for s in action.option_strings
            ):
                missing.append((command, action.option_strings))
    assert len(subparsers.choices) == 5
    assert missing == []


def test_the_certificate_example_is_what_certify_prints(capsys):
    # the residual is rounding noise; every other field, the degree's
    # resolution included, is what the code gives
    text = README.read_text(encoding="utf-8")
    section = text.split("Certificate (from `certify` and `experiment`):", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert main(["certify", "-e", "(pow 2)"]) == 0
    printed = json.loads(capsys.readouterr().out)["payload"]
    for payload in (example, printed):
        payload["degree"]["residual"] = None
    assert printed == example


def test_the_summary_example_is_what_certify_prints(capsys, tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI", 1)[1]
    lines = re.search(r"file of the three lines\s+`(.+?)`, `(.+?)` and `(.+?)`", section)
    code = re.search(r"prints this summary and exits (\d)", section)
    summary = section.split("```text\n", 1)[1].split("```", 1)[0]
    f = tmp_path / "maps.txt"
    f.write_text("\n".join(lines.groups()) + "\n")
    assert main(["certify", "-f", str(f)]) == int(code.group(1))
    assert capsys.readouterr().err == summary
