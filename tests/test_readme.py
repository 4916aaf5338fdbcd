import pathlib
import re
import shlex

from spincactus.cli import EXIT_OK, main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_executes():
    text = README.read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    exec(compile(block.group(1), "README-quickstart", "exec"), {})


def test_command_line_examples_exit_zero(capsys, monkeypatch):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    text = README.read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S)
    assert block is not None
    commands = [
        shlex.split(line)[1:]
        for line in block.group(1).replace("\\\n", " ").splitlines()
        if line.startswith("spincactus ")
    ]
    assert len(commands) == 11
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        capsys.readouterr()
