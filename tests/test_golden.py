"""The default report of every corpus file, byte for byte, in both formats.

`tests/golden/` holds the `ringdsl check --seed 0` stdout of each corpus
file that produces a report, as `<name>.json` (`--format json`) and
`<name>.txt` (`--format text`), plus every file's exit code. A refactor
that changes any byte of a report, or an exit code, fails here.
"""

import json
import os

import pytest

from amalgam import cli

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "..", "corpus")
GOLDEN = os.path.join(HERE, "golden")

with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
    EXIT_CODES = json.load(fh)


def _check_against_golden(capsys, name, fmt, golden_name):
    code = cli.main(["check", os.path.join(CORPUS, f"{name}.ring"),
                     "--format", fmt, "--seed", "0"])
    out = capsys.readouterr().out
    golden = os.path.join(GOLDEN, golden_name)
    expected = ""
    if os.path.exists(golden):
        with open(golden, encoding="utf-8") as fh:
            expected = fh.read()
    assert code == EXIT_CODES[name]
    assert out == expected


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_corpus_report_matches_golden(capsys, name):
    _check_against_golden(capsys, name, "json", f"{name}.json")


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_corpus_text_report_matches_golden(capsys, name):
    _check_against_golden(capsys, name, "text", f"{name}.txt")
