"""Docs ↔ CLI drift gate: every documented flag and env var is real.

The docs show `ripple ...` command lines; a renamed or removed flag
must fail CI here rather than rot on the page. Symmetrically, every
``REPRO_*`` environment variable the docs mention must still be read
somewhere in the source or test tree.
"""

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(REPO.glob("docs/*.md")) + [REPO / "README.md"]

_FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")
_ENV = re.compile(r"\bREPRO_[A-Z_]+\b")


def _parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    flags: set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
        else:
            flags.update(
                opt for opt in action.option_strings
                if opt.startswith("--")
            )
    return flags


def _documented_flags() -> dict[str, list[str]]:
    """flag -> ["file:line", ...] for every flag on a `ripple` line.

    A command that wraps (a trailing backslash, or a usage synopsis
    continued on indented ``[--flag ...]`` lines) counts as one line.
    """
    sightings: dict[str, list[str]] = {}
    for path in DOC_FILES:
        previous = ""
        in_command = False
        for number, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            continued = in_command and (
                previous.endswith("\\")
                or (
                    line[:1].isspace()
                    and line.lstrip().startswith(("[", "-"))
                )
            )
            in_command = continued or "ripple" in line or "-m repro" in line
            previous = line.rstrip()
            if not in_command:
                continue
            for flag in _FLAG.findall(line):
                sightings.setdefault(flag, []).append(
                    f"{path.relative_to(REPO)}:{number}"
                )
    return sightings


def test_every_documented_flag_exists_in_the_cli():
    known = _parser_flags(build_parser())
    documented = _documented_flags()
    assert len(documented) >= 15  # the grep found real content
    unknown = {
        flag: where
        for flag, where in documented.items()
        if flag not in known
    }
    assert not unknown, (
        f"docs mention flags the CLI does not define: {unknown}"
    )


def test_every_documented_env_var_is_read_somewhere():
    documented: dict[str, list[str]] = {}
    for path in DOC_FILES:
        for number, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            for var in _ENV.findall(line):
                documented.setdefault(var, []).append(
                    f"{path.relative_to(REPO)}:{number}"
                )
    assert documented  # the docs do document the env surface
    haystack = ""
    for source in list(REPO.glob("src/**/*.py")) + list(
        REPO.glob("tests/**/*.py")
    ):
        haystack += source.read_text()
    missing = {
        var: where
        for var, where in documented.items()
        if var not in haystack
    }
    assert not missing, (
        f"docs mention env vars nothing reads: {missing}"
    )
