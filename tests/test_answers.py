"""The answer corpus (tests/answers.json) replayed: every command's exit code and stdout
digest are those recorded. tests/answers.py replays the same list without pytest."""

import answers

import spincactus.cli


def test_every_answer_matches_the_corpus():
    assert answers.mismatches() == []


def test_one_changed_byte_is_a_changed_answer(monkeypatch):
    argv = ["enumerate", "delta", "--n", "2", "--N", "3"]
    assert argv in answers.COMMANDS
    assert answers.mismatches([argv]) == []
    monkeypatch.setattr(spincactus.cli, "SCHEMA", "cactus-crystal/2")
    assert answers.mismatches([argv]) == [answers.key(argv)]
