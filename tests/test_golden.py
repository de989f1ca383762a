"""Replay the frozen CLI golden corpus and compare byte for byte.

``tests/golden/cli.json`` holds argv lists with the exit code and stdout
they produced (stderr too for exit code 2); see
``tests/golden/make_corpus.py`` for what it covers and how it was made.
"""

import json
from pathlib import Path

import pytest

from stackbrauer.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def test_corpus_covers_every_exit_code():
    assert {e["exit"] for e in CORPUS} == {0, 1, 2}


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_corpus(entry, capsys):
    try:
        code = main(list(entry["argv"]))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == entry["exit"]
    assert out == entry["stdout"]
    if code == 2:
        assert err == entry["stderr"]
