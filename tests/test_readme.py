import json
import pathlib
import re
import shlex

from spincactus.cli import EXIT_OK, OPTIONS, READS, main

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


def test_option_table_matches_the_cli():
    """The README's option table is cli.READS: options read, required (bold), formats."""
    option_of = {flag: option for option, (flag, _) in OPTIONS.items()}
    table = {}
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("| `") or len(cells) != 4:
            continue
        command, kinds, options, formats = cells
        reads = re.findall(r"(\*\*)?`(--[\w-]+)`", options)
        row = (
            {option_of[flag] for _, flag in reads},
            {option_of[flag] for bold, flag in reads if bold},
            tuple(re.findall(r"`(\w+)`", formats)),
        )
        for kind in re.findall(r"`([\w-]+)`", kinds) or [""]:
            table.setdefault(command.strip("`"), {})[kind] = row
    assert table == {
        command: {kind: (set(reads), set(required), formats)
                  for kind, (reads, required, formats) in rows.items()}
        for command, rows in READS.items()
    }


def test_answer_corpus_count_is_the_corpus_size():
    text = " ".join(README.read_text().split())
    stated = re.search(r"`tests/answers\.json` holds .*? of (\d+) commands", text)
    assert stated is not None
    corpus = json.loads((README.parent / "tests" / "answers.json").read_text())
    assert int(stated.group(1)) == len(corpus)
