"""The default JSON report of every corpus file, byte for byte.

`tests/golden/` holds the `ringdsl check --format json --seed 0` stdout of
each corpus file that produces a report, plus every file's exit code. A
refactor that changes any byte of a report, or an exit code, fails here.
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


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_corpus_report_matches_golden(capsys, name):
    code = cli.main(["check", os.path.join(CORPUS, f"{name}.ring"),
                     "--format", "json", "--seed", "0"])
    out = capsys.readouterr().out
    golden = os.path.join(GOLDEN, f"{name}.json")
    expected = ""
    if os.path.exists(golden):
        with open(golden, encoding="utf-8") as fh:
            expected = fh.read()
    assert code == EXIT_CODES[name]
    assert out == expected
