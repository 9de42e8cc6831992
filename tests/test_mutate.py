"""The mutation tool's selection of what it mutates."""

import mutate


def test_an_unmatched_function_name_exits_2_and_is_named(capsys):
    argv = ["--path", "src/amalgam/modules.py", "--function", "additive_ideal",
            "--function", "no_such_fn", "--list"]
    assert mutate.main(argv) == 2
    captured = capsys.readouterr()
    assert "no_such_fn" in captured.err and "additive_ideal" not in captured.err
    assert captured.out == ""


def test_a_matched_function_lists_only_its_own_mutants(capsys):
    argv = ["--path", "src/amalgam/modules.py", "--function", "ideal_sum",
            "--list"]
    assert mutate.main(argv) == 0
    listed = capsys.readouterr().out.splitlines()
    assert listed and all("src/amalgam/modules.py:" in line for line in listed)
    source = (mutate.ROOT / "src/amalgam/modules.py").read_text()
    ((first, last),) = mutate.function_lines(source, ["ideal_sum"])
    assert all(first <= int(line.split(":")[1]) <= last for line in listed)
