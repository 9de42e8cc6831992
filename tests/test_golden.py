"""The default report of every corpus file, byte for byte, in both formats.

`tests/golden/` holds the `ringdsl check --seed 0` stdout of each corpus
file that produces a report, as `<name>.json` (`--format json`) and
`<name>.txt` (`--format text`), plus every file's exit code.
`tests/golden/seed7/` holds the same for `--seed 7`, for every corpus file
(an input error prints nothing to stdout); at that seed
`kernel_transfer(AM, 1, 2)` in `idealization_tower.ring` draws a
different random instance.  `tests/golden/commands/` holds the
`--format json --seed 0` stdout of `resolve --module X` for every ideal
and of `spectrum --ring X` for every declaration of the three valid
corpus files, as `<file>.<command>.<X>.json` (empty for an input error),
plus every exit code.  A refactor that changes any byte of a report, or
an exit code, fails here.
"""

import json
import os

import pytest

from amalgam import cli

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "..", "corpus")
GOLDEN = os.path.join(HERE, "golden")

GOLDEN_SEED7 = os.path.join(GOLDEN, "seed7")
GOLDEN_COMMANDS = os.path.join(GOLDEN, "commands")


def _exit_codes(golden_dir):
    with open(os.path.join(golden_dir, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


EXIT_CODES = _exit_codes(GOLDEN)
EXIT_CODES_SEED7 = _exit_codes(GOLDEN_SEED7)
EXIT_CODES_COMMANDS = _exit_codes(GOLDEN_COMMANDS)


def _check_against_golden(capsys, argv, golden, code):
    """cli.main on argv exits with code and prints the text of the golden
    file, or nothing when there is none."""
    assert cli.main(argv) == code
    expected = ""
    if os.path.exists(golden):
        with open(golden, encoding="utf-8") as fh:
            expected = fh.read()
    assert capsys.readouterr().out == expected


def _check(name, fmt, seed=0):
    return ["check", os.path.join(CORPUS, f"{name}.ring"), "--format", fmt,
            "--seed", str(seed)]


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_corpus_report_matches_golden(capsys, name):
    _check_against_golden(capsys, _check(name, "json"),
                          os.path.join(GOLDEN, f"{name}.json"),
                          EXIT_CODES[name])


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_corpus_text_report_matches_golden(capsys, name):
    _check_against_golden(capsys, _check(name, "text"),
                          os.path.join(GOLDEN, f"{name}.txt"),
                          EXIT_CODES[name])


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name", sorted(EXIT_CODES_SEED7))
def test_corpus_report_at_seed_7_matches_golden(capsys, name, fmt, ext):
    golden = os.path.join(GOLDEN_SEED7, f"{name}.{ext}")
    assert os.path.exists(golden)
    _check_against_golden(capsys, _check(name, fmt, seed=7), golden,
                          EXIT_CODES_SEED7[name])


@pytest.mark.parametrize("key", sorted(EXIT_CODES_COMMANDS))
def test_resolve_and_spectrum_reports_match_golden(capsys, key):
    name, command, target = key.split(".")
    option = {"resolve": "--module", "spectrum": "--ring"}[command]
    golden = os.path.join(GOLDEN_COMMANDS, f"{key}.json")
    assert os.path.exists(golden)
    _check_against_golden(
        capsys, [command, os.path.join(CORPUS, f"{name}.ring"), option,
                 target, "--format", "json", "--seed", "0"],
        golden, EXIT_CODES_COMMANDS[key])
