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


def test_truth_constants_and_identity_tests_are_swapped():
    source = "x = a is not None\ny = b is None or True\nz = False\n"
    found = mutate.mutants(source)
    assert found == [(1, 6, "is not", "is"), (2, 6, "is", "is not"),
                     (2, 14, "or", "and"), (2, 17, "True", "False"),
                     (3, 4, "False", "True")]
    assert mutate.apply(source, found[0]).splitlines()[0] == "x = a is None"
    assert mutate.apply(source, found[1]).splitlines()[1] == "y = b is not None or True"


def test_the_span_memo_helper_has_a_mutant(capsys):
    # built from calls, a dict and an `is None` test, whose swap is its
    # only mutant
    argv = ["--path", "src/amalgam/modules.py", "--function", "_span_basis",
            "--list"]
    assert mutate.main(argv) == 0
    listed = capsys.readouterr().out.splitlines()
    assert len(listed) == 1 and " is -> is not | if basis is None:" in listed[0]
