"""The README's CLI examples run as written, and its qualified names resolve.

Every `sievelab ...` line of the README's fenced blocks (with `\\`
continuations joined and `#` comments dropped) goes through cli.main in
process, from a scratch directory, with any --out moved into it; so the
golden-table regeneration command never writes tests/data/.  Every
backticked `<module>.<name>` or `sievelab.<module>`, for a module of
sievelab, must be an attribute of that module or package.
"""

import importlib
import os
import pkgutil
import re
import shlex

import pytest

import sievelab
from sievelab import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
MODULES = {m.name: importlib.import_module("sievelab." + m.name)
           for m in pkgutil.iter_modules(sievelab.__path__)}


def readme_commands():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", fh.read(), re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["sievelab"]:
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_has_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {
        "farey", "verify-classical", "theorem2-sweep", "counterexample", "dls-check", "lemma4"}


@pytest.mark.parametrize("argv", COMMANDS, ids=["%d-%s" % (i, a[0]) for i, a in enumerate(COMMANDS)])
def test_readme_command_runs(argv, monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = list(argv)
    outs = []
    for i, arg in enumerate(argv[:-1]):
        if arg == "--out":
            argv[i + 1] = str(tmp_path / os.path.basename(argv[i + 1]))
            outs.append(os.path.basename(argv[i + 1]))
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == sorted(outs)
    assert all(os.path.getsize(tmp_path / name) > 0 for name in outs)


def readme_names():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    owners = "|".join(["sievelab", *MODULES])
    return sorted(set(re.findall(r"`((?:%s)\.\w+)" % owners, text)))


NAMES = readme_names()


def test_readme_names_are_found():
    assert {"sievelab.cli", "sweeps.N_MAX", "sweeps.DLS_CHUNK_CELLS", "bounds.RHS"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_readme_name_resolves(name):
    owner, attr = name.split(".")
    assert hasattr(MODULES.get(owner, sievelab), attr), name
