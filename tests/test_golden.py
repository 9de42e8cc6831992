"""The default report of every corpus file, byte for byte, in both formats.

`tests/golden/` holds the `ringdsl check --seed 0` stdout of each corpus
file that produces a report, as `<name>.json` (`--format json`) and
`<name>.txt` (`--format text`), plus every file's exit code.
`tests/golden/seed7/` holds the same for `--seed 7`, for all six files
(an input error prints nothing to stdout); at that seed
`kernel_transfer(AM, 1, 2)` in `idealization_tower.ring` draws a
different random instance.  A refactor that changes any byte of a
report, or an exit code, fails here.
"""

import json
import os

import pytest

from amalgam import cli

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "..", "corpus")
GOLDEN = os.path.join(HERE, "golden")

GOLDEN_SEED7 = os.path.join(GOLDEN, "seed7")


def _exit_codes(golden_dir):
    with open(os.path.join(golden_dir, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


EXIT_CODES = _exit_codes(GOLDEN)
EXIT_CODES_SEED7 = _exit_codes(GOLDEN_SEED7)


def _check_against_golden(capsys, name, fmt, golden_name, seed=0,
                          golden_dir=GOLDEN, exit_codes=EXIT_CODES):
    code = cli.main(["check", os.path.join(CORPUS, f"{name}.ring"),
                     "--format", fmt, "--seed", str(seed)])
    out = capsys.readouterr().out
    golden = os.path.join(golden_dir, golden_name)
    expected = ""
    if os.path.exists(golden):
        with open(golden, encoding="utf-8") as fh:
            expected = fh.read()
    assert code == exit_codes[name]
    assert out == expected


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_corpus_report_matches_golden(capsys, name):
    _check_against_golden(capsys, name, "json", f"{name}.json")


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_corpus_text_report_matches_golden(capsys, name):
    _check_against_golden(capsys, name, "text", f"{name}.txt")


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", sorted(EXIT_CODES_SEED7))
def test_corpus_report_at_seed_7_matches_golden(capsys, name, fmt, ext):
    assert os.path.exists(os.path.join(GOLDEN_SEED7, f"{name}.{ext}"))
    _check_against_golden(capsys, name, fmt, f"{name}.{ext}", seed=7,
                          golden_dir=GOLDEN_SEED7,
                          exit_codes=EXIT_CODES_SEED7)
