"""README's library and command-line examples must run as written: a renamed
or removed public name, command or flag fails here instead of only in a
reader's terminal."""

import re
import shlex
from pathlib import Path

import pytest

from bitpath import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
# every `bitpath ...` line outside the python blocks
COMMAND_LINES = [
    ln for lang, block in BLOCKS if lang != "python" for ln in block.splitlines() if ln.startswith("bitpath ")
]
# the verify and route examples that need no file: their exit code is 1 where
# README marks it, else 0
RUNNABLE = [ln for ln in COMMAND_LINES if ln.split()[1] in ("verify", "route") and "--graph" not in ln]


def argv(line: str) -> list[str]:
    """The arguments after `bitpath`, without the trailing comment."""
    return shlex.split(line, comments=True)[1:]


def test_python_examples_run_in_order(capsys):
    blocks = [block for lang, block in BLOCKS if lang == "python"]
    assert blocks, "README has no python examples"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "(45,)"


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_parses(line, capsys):
    try:
        cli.build_parser().parse_args(argv(line))
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}\n{capsys.readouterr().err}")


@pytest.mark.parametrize("line", RUNNABLE)
def test_command_line_exits_as_documented(line, capsys):
    expected = 1 if line.endswith("# exits 1") else 0
    assert cli.main(argv(line)) == expected


def test_command_examples_are_found():
    assert len(RUNNABLE) < len(COMMAND_LINES)
    assert any(ln.endswith("# exits 1") for ln in RUNNABLE)


def test_install_comment_names_every_test_extra():
    # pyproject.toml read with a regex: tomllib needs Python 3.11
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[(.*?)\]", pyproject, re.M | re.S)
    assert extra, "pyproject.toml has no test extra"
    packages = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in re.findall(r'"([^"]+)"', extra.group(1))]
    install = [ln for ln in README.read_text(encoding="utf-8").splitlines() if "pip install -e '.[test]'" in ln]
    assert len(install) == 1
    comment = install[0].partition("#")[2]
    assert packages and all(re.search(rf"\b{re.escape(name)}\b", comment) for name in packages), (packages, comment)
