"""Parser, serializer, CLI exit codes, report determinism and schema."""

import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys

import pytest

from amalgam import checks, cli, dsl, spectrum
from amalgam.dsl import DslSemanticError, DslSyntaxError, parse, serialize
from amalgam.report import Report, input_digest
from amalgam.rings import (BudgetExceededError, FiniteRing, trunc_poly,
                           verify_ring, zmod)

from oracles import structurally_equal

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def corpus_path(name):
    return os.path.join(CORPUS, name)


def corpus_text(name):
    with open(corpus_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_parse_basic_file():
    spec = parse("A = zmod(4)\nI = ideal(A, [[2]])\nD = duplication(A, I)\n"
                 "job remark21(D)\n")
    assert len(spec.statements) == 4
    assert len(spec.decls()) == 3
    assert len(spec.jobs()) == 1


def test_forward_reference_rejected():
    with pytest.raises(DslSemanticError) as err:
        parse("D = duplication(A, I)\nA = zmod(4)\n")
    assert err.value.line == 1


def test_comments_and_blank_lines_do_not_change_ast():
    bare = "A = zmod(4)\njob remark21(A)\n"
    decorated = "# header\n\nA = zmod(4)   # trailing\n\n# more\njob remark21(A)\n"
    assert parse(bare) == parse(decorated)


def test_syntax_error_position():
    with pytest.raises(DslSyntaxError) as err:
        parse("A = zmod(4\n")
    assert err.value.line == 1
    with pytest.raises(DslSyntaxError):
        parse("A @ zmod(4)\n")


def test_unknown_constructor_and_job():
    with pytest.raises(DslSemanticError):
        parse("A = mystery(4)\n")
    with pytest.raises(DslSemanticError):
        parse("A = zmod(4)\njob dance(A)\n")


def test_duplicate_name_rejected():
    with pytest.raises(DslSemanticError):
        parse("A = zmod(4)\nA = zmod(2)\n")


def test_arity_checked():
    spec = parse("A = zmod(4, 5)\n")
    with pytest.raises(DslSemanticError):
        cli.check_arity(spec)


def test_round_trip_on_corpus():
    for name in ("duplication_z4.ring", "idealization_tower.ring",
                 "truncation_t3.ring"):
        text = corpus_text(name)
        spec = parse(text)
        canonical = serialize(spec)
        assert parse(canonical) == spec
        assert serialize(parse(canonical)) == canonical


def test_nested_constructor_calls():
    spec = parse("D = duplication(zmod(4), ideal(zmod(4), [[2]]))\n")
    opts = cli.build_argparser().parse_args(["check", "x"])
    builder = cli.Builder(opts.max_order)
    obj = builder.eval_expr(spec.decls()[0].expr)
    # nested calls construct anonymous intermediates
    assert obj.ring.order() == 8


def test_ring_table_round_trip():
    for ring in (zmod(4), trunc_poly(2, 3)):
        text = dsl.ring_to_declaration(ring, "R")
        spec = parse(text)
        opts = cli.build_argparser().parse_args(["check", "x"])
        builder = cli.Builder(opts.max_order)
        rebuilt = builder.eval_expr(spec.decls()[0].expr)
        assert structurally_equal(rebuilt, ring)
        assert verify_ring(rebuilt).ok


def run_cli(args):
    return cli.main(args)


def test_cli_exit_codes(capsys):
    assert run_cli(["check", corpus_path("duplication_z4.ring"),
                    "--seed", "42"]) == 0
    capsys.readouterr()
    assert run_cli(["check", corpus_path("bad_syntax.ring")]) == 2
    assert run_cli(["check", corpus_path("bad_forward_ref.ring")]) == 2
    assert run_cli(["check", corpus_path("bad_improper_ideal.ring")]) == 1
    capsys.readouterr()


def test_cli_reports_are_byte_deterministic(capsys):
    args = ["check", corpus_path("idealization_tower.ring"),
            "--format", "json", "--seed", "42"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    second = capsys.readouterr().out
    assert first == second
    # a different seed changes only seeded content, never validity
    assert run_cli(["check", corpus_path("idealization_tower.ring"),
                    "--format", "json", "--seed", "43"]) == 0
    capsys.readouterr()


def test_report_schema_validation(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    with open(corpus_path("report.schema.json")) as fh:
        schema = json.load(fh)
    assert run_cli(["check", corpus_path("duplication_z4.ring"),
                    "--format", "json", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    assert payload["digest"] == input_digest(corpus_text("duplication_z4.ring"))
    for check in payload["checks"]:
        if check["status"] == "fail":
            assert check["witnesses"]


def test_cli_verify_single_job(capsys):
    assert run_cli(["verify", corpus_path("duplication_z4.ring"),
                    "--job", "remark21", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in payload["checks"]] == ["remark21"]


def test_cli_resolve_and_spectrum(capsys, tmp_path):
    path = tmp_path / "resolve_me.ring"
    path.write_text("A = zmod(4)\nI = ideal(A, [[2]])\n")
    assert run_cli(["resolve", str(path), "--module", "I",
                    "--depth", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["witnesses"]["betti"] == [1] * 6
    assert run_cli(["spectrum", str(path), "--ring", "A",
                    "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    w = payload["checks"][0]["witnesses"]
    assert w["local"] and w["nilradical_size"] == 2


def test_failure_reports_carry_witnesses(capsys):
    assert run_cli(["check", corpus_path("bad_improper_ideal.ring"),
                    "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    failing = [c for c in payload["checks"] if c["status"] == "fail"]
    assert failing and all(c["reason"] for c in failing)


@pytest.mark.parametrize("text, args", [
    ("A = zmod(4)\nI = ideal(A, [[2]])\nD = duplication(A, I)\n"
     "job betti(D, -3)\n", []),
    ("A = zmod(4)\njob gldim(A, -1)\n", []),
    ("A = zmod(4)\njob gldim(A)\n", ["--depth", "-2"]),
], ids=["betti", "gldim", "--depth"])
def test_negative_depth_is_an_input_error(capsys, tmp_path, text, args):
    path = tmp_path / "negative.ring"
    path.write_text(text)
    assert run_cli(["check", str(path), "--format", "json"] + args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "input error" in out.err and "depth" in out.err


_DUP = "A = zmod(4)\nI = ideal(A, [[2]])\nD = duplication(A, I)\n"


@pytest.mark.parametrize("text, message", [
    ("A = mystery(4)\n", "line 1, col 5: unknown constructor 'mystery'"),
    ("A = zmod(4)\njob dance(A)\n", "line 2, col 5: unknown job 'dance'"),
    ("A = zmod(4, 5)\n", "line 1, col 5: 'zmod' takes 1 arguments, got 2"),
    ("R = zmod(4)\nM = module(R)\n",
     "line 2, col 5: 'module' takes 2+ arguments, got 1"),
    (_DUP + "job betti(D, 1, 2)\n",
     "line 4, col 1: job 'betti' takes 1..2 arguments, got 3"),
    (_DUP + "job hypotheses(D, D)\n",
     "line 4, col 1: job 'hypotheses' takes 1 arguments, got 2"),
    (_DUP + "job thm34(D, [2], 5)\n",
     "line 4, col 1: job 'thm34' takes 2 arguments, got 3"),
    # arity is checked after the whole file parses, so a later unknown
    # name wins over an earlier arity error
    ("A = zmod(4, 5)\nB = mystery(1)\n",
     "line 2, col 5: unknown constructor 'mystery'"),
], ids=["constructor", "job", "zmod-arity", "module-arity", "betti-arity",
        "hypotheses-arity", "thm34-arity", "parse-before-arity"])
def test_input_error_messages_and_positions(capsys, tmp_path, text, message):
    path = tmp_path / "bad.ring"
    path.write_text(text)
    assert run_cli(["check", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"input error: {message}\n"


def test_resolve_of_a_ring_is_an_input_error(capsys, tmp_path):
    # the diagnostic names the option and the declaration; neither has a
    # position in the file
    path = tmp_path / "ring_only.ring"
    path.write_text("A = zmod(4)\n")
    for args, message in [
        (["resolve", "--module", "A"], "--module 'A': job 'resolve': "
         "argument 1: expected an ideal or submodule"),
        (["resolve", "--module", "Z"],
         "--module 'Z': no declaration of that name"),
        (["spectrum", "--ring", "Z"], "--ring 'Z': no declaration of that name"),
    ]:
        assert run_cli([args[0], str(path)] + args[1:]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"input error: {message}\n"


def test_budget_error_in_a_job_is_a_skipped_record(capsys, tmp_path,
                                                  monkeypatch):
    # no shipped job lets a budget error out any more, so the maximal
    # ideals remark21 enumerates are made to refuse
    def refuse(ring, budget):
        raise BudgetExceededError(
            f"ring of order {ring.order()} exceeds enumeration budget {budget}")

    monkeypatch.setattr(spectrum, "maximal_ideals", refuse)
    path = tmp_path / "too_big.ring"
    path.write_text("A = zmod(4)\nI = ideal(A, [[2]])\nD = duplication(A, I)\n"
                    "job remark21(D)\n")
    assert run_cli(["check", str(path), "--format", "json",
                    "--max-order", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    [record] = payload["checks"]
    assert record["name"] == "remark21" and record["status"] == "skipped"
    assert record["reason"] == "ring of order 8 exceeds enumeration budget 4"


@pytest.mark.parametrize("max_order, witness", [("4", False), ("8", True)])
def test_hypotheses_over_a_non_local_base_fail_within_or_past_the_budget(
        capsys, tmp_path, max_order, witness):
    # A is not local; the idempotent witness needs A (order 8) enumerated,
    # and past the budget it is left out, but the record fails either way
    path = tmp_path / "non_local.ring"
    path.write_text("A = product(zmod(2), zmod(4))\n"
                    "I = ideal(A, [[0, 2]])\n"
                    "D = duplication(A, I)\n"
                    "job hypotheses(D)\n")
    assert run_cli(["check", str(path), "--format", "json",
                    "--max-order", max_order]) == 1
    payload = json.loads(capsys.readouterr().out)
    [record] = payload["checks"]
    assert record["name"] == "hypotheses" and record["status"] == "fail"
    assert record["reason"] == "hypothesis set violated"
    assert record["witnesses"]["a_local"] is False
    assert ("a_nontrivial_idempotent" in record["witnesses"]["detail"]) == witness


def test_gldim_of_a_ring_past_the_budget_needs_no_enumeration(capsys,
                                                               tmp_path):
    # order 2^17 > the default budget; locality enumerates only R/Nil(R)
    path = tmp_path / "big.ring"
    path.write_text("A = trunc_poly(2, 17)\njob gldim(A, 3)\n")
    assert run_cli(["check", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    [record] = payload["checks"]
    assert record["name"] == "gldim" and record["status"] == "pass"
    assert record["witnesses"]["betti"] == [1, 1, 1, 1]


_TWO_FIELDS = "A = product(zmod(2), zmod(2))\nI = ideal(A, [[1, 0]])\n"


# locality enumerates nothing, so resolve's precondition finds F_2 x F_2
# not local under any budget, as gldim's does; listing its maximal ideals
# still enumerates it
@pytest.mark.parametrize("args, reason", [
    (["resolve", "--module", "I"], "ring is not local"),
    (["spectrum", "--ring", "A"], "exceeds the enumeration budget"),
], ids=["resolve", "spectrum"])
def test_budget_error_in_resolve_and_spectrum_is_a_skipped_record(
        capsys, tmp_path, args, reason):
    path = tmp_path / "two_fields.ring"
    path.write_text(_TWO_FIELDS)
    assert run_cli([args[0], str(path)] + args[1:] +
                   ["--format", "json", "--max-order", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    [record] = payload["checks"]
    assert record["name"] == args[0] and record["status"] == "skipped"
    assert reason in record["reason"]
    assert record["claim"] == checks.CLAIMS[args[0]]


@pytest.mark.parametrize("command, args, job", [
    ("resolve", ["--module", "I", "--depth", "5"], "resolve(I, 5)"),
    ("spectrum", ["--ring", "A"], "spectrum(A)"),
], ids=["resolve", "spectrum"])
def test_a_job_in_the_file_gives_the_subcommands_report(
        capsys, tmp_path, command, args, job):
    # the subcommand runs its own job in place of the file's
    path = tmp_path / "jobs.ring"
    path.write_text(f"A = zmod(4)\nI = ideal(A, [[2]])\njob {job}\n")
    assert run_cli(["check", str(path), "--format", "json"]) == 0
    from_file = capsys.readouterr().out
    [record] = json.loads(from_file)["checks"]
    assert (record["name"], record["status"]) == (command, "pass")
    assert run_cli([command, str(path), *args, "--format", "json"]) == 0
    assert capsys.readouterr().out == from_file


@pytest.mark.parametrize("args, status", [
    (["resolve", "--module", "I"], "pass"),
    (["spectrum", "--ring", "D"], "skipped"),
], ids=["unrelated", "target"])
def test_resolve_and_spectrum_report_a_declaration_that_fails_to_build(
        capsys, tmp_path, args, status):
    path = tmp_path / "failed.ring"
    path.write_text("A = zmod(4)\nI = ideal(A, [[2]])\n"
                    "D = duplication(A, ideal(A, [[1]]))\n")
    assert run_cli([args[0], str(path)] + args[1:] + ["--format", "json"]) == 1
    construct, record = json.loads(capsys.readouterr().out)["checks"]
    assert (construct["name"], construct["status"]) == ("construct:D", "fail")
    assert (record["name"], record["status"]) == (args[0], status)


def test_text_summary_counts_skipped_records_apart(capsys, tmp_path):
    path = tmp_path / "two_fields.ring"
    path.write_text(_TWO_FIELDS)
    assert run_cli(["spectrum", str(path), "--ring", "A",
                    "--max-order", "2"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "0/1 checks passed, 1 skipped"
    assert run_cli(["spectrum", str(path), "--ring", "A"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "1/1 checks passed"
    # the corpus's one skipped record: remark21 on a declaration that
    # failed to build
    assert run_cli(["check", corpus_path("bad_improper_ideal.ring")]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "0/2 checks passed, 1 skipped"


def test_degenerate_random_kernel_transfer_draws_again(capsys):
    # seed 29 draws a first instance that degenerates after minimality
    # pruning; the check draws again from the same generator
    path = corpus_path("idealization_tower.ring")
    assert run_cli(["check", path, "--format", "json", "--seed", "29"]) == 0
    records = json.loads(capsys.readouterr().out)["checks"]
    [record] = [c for c in records if c["name"] == "kernel_transfer"]
    assert record["status"] == "pass", record["reason"]
    assert record["witnesses"]["draws"] > 1
    # a seed whose first draw is usable reports no draws witness
    assert run_cli(["check", path, "--format", "json", "--seed", "0"]) == 0
    records = json.loads(capsys.readouterr().out)["checks"]
    [record] = [c for c in records if c["name"] == "kernel_transfer"]
    assert record["status"] == "pass" and "draws" not in record["witnesses"]


def test_main_builds_its_argument_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_argparser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_argparser", counting)
    cli._argparser.cache_clear()
    try:
        for name in ("duplication_z4.ring", "idealization_tower.ring"):
            assert run_cli(["check", corpus_path(name), "--format", "json"]) == 0
        assert run_cli(["check", corpus_path("bad_syntax.ring")]) == 2
    finally:
        cli._argparser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1
    # the public builder still gives a fresh parser
    assert real() is not real()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-str digit limit")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_betti_numbers_past_the_int_str_limit_give_a_skipped_record(tmp_path, fmt):
    path = tmp_path / "deep.ring"
    path.write_text("A = zmod(4)\nI = ideal(A, [[2]])\nD = duplication(A, I)\n"
                    "job betti(D, 2300)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "amalgam.cli",
         "check", str(path), "--format", fmt],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if fmt == "json":
        [record] = json.loads(proc.stdout)["checks"]
        assert record["name"] == "betti" and record["status"] == "skipped"
        assert "640-digit" in record["reason"]
        assert "betti_mj" not in record["witnesses"]
        assert record["witnesses"]["depth"] == 2300
    else:
        assert "640-digit" in proc.stdout
        assert proc.stdout.endswith("0/1 checks passed, 1 skipped\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-str digit limit")
def test_a_failed_record_past_the_digit_limit_stays_failed():
    records = [{"name": name, "claim": "c", "status": status, "reason": reason,
                "witnesses": {"betti": [1, 10 ** 700], "depth": 3},
                "wall_ms": 0, "sort_key": (name, 0)}
               for name, status, reason in (("a", "pass", None),
                                            ("b", "fail", "vanished"))]
    records.append({"name": "c", "claim": "c", "status": "pass", "reason": None,
                    "witnesses": {"betti": [1, 10 ** 640 - 1]}, "wall_ms": 0,
                    "sort_key": ("c", 0)})
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        report = Report("sha256:0", 0, records)
        text = report.to_json() + report.to_text()
    finally:
        sys.set_int_max_str_digits(old)
    a, b, c = report.checks
    assert a["status"] == "skipped" and a["witnesses"] == {"depth": 3}
    assert a["reason"].startswith("betti dropped") and "640-digit" in a["reason"]
    assert b["status"] == "fail" and b["reason"].startswith("vanished; betti")
    assert c["status"] == "pass" and c["witnesses"]["betti"][1] == 10 ** 640 - 1
    assert report.exit_code() == 1 and "640-digit" in text


def test_the_cli_digests_its_input_without_openssl():
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = ("import sys, amalgam.cli\n"
             "from amalgam.report import input_digest\n"
             "print('_hashlib' in sys.modules)\n"
             "print(input_digest('A = zmod(4)\\n'))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, digest = proc.stdout.split()
    assert loaded == "False"
    assert digest == "sha256:" + hashlib.sha256(b"A = zmod(4)\n").hexdigest()
    assert input_digest("A = zmod(4)\n") == digest


def test_deep_nesting_is_an_input_error_not_a_traceback(tmp_path):
    path = tmp_path / "deep.ring"
    path.write_text("A = zmod(" + "[" * 600 + "]" * 600 + ")\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "amalgam", "check",
                           str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: line 1, col ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("depth, error", [(dsl.MAX_NESTING, False),
                                          (dsl.MAX_NESTING + 1, True)])
def test_nesting_past_the_limit_is_reported_at_the_bracket(depth, error):
    # zmod's round bracket counts too; the error names the first bracket
    # past the limit
    text = "A = zmod(" + "[" * (depth - 1) + "]" * (depth - 1) + ")\n"
    if not error:
        assert len(parse(text).decls()) == 1
        return
    with pytest.raises(DslSyntaxError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (1, 9 + depth - 1)
    assert str(info.value).endswith(
        f"brackets nested more than {dsl.MAX_NESTING} deep")


_HEAVY_MODULES = ("hashlib", "_hashlib", "inspect", "dataclasses", "typing",
                  "ast", "decimal", "fractions")


def test_importing_the_cli_loads_no_heavy_module():
    # setup_s times the import in fresh interpreters and peak_rss_mb reads
    # the resident size, so the CLI keeps to light standard modules
    probe = ("import sys\n"
             f"sys.path.insert(0, {SRC!r})\n"
             "import amalgam.cli\n"
             f"print(sorted(set({_HEAVY_MODULES!r}) & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_m_amalgam_runs_the_cli_from_a_checkout(capsys):
    path = corpus_path("duplication_z4.ring")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "amalgam", "check", path,
                           "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert run_cli(["check", path, "--format", "json"]) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("args, wrong", [
    (["verify", "--job", "remark21"], ["verify", "--job", "dance"]),
    (["resolve", "--module", "I"], ["resolve", "--module", "A"]),
    (["spectrum", "--ring", "D"], ["spectrum", "--ring", "I"]),
], ids=["verify", "resolve", "spectrum"])
def test_python_m_amalgam_runs_every_subcommand(capsys, args, wrong):
    path = corpus_path("duplication_z4.ring")
    env = dict(os.environ, PYTHONPATH=SRC)

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "amalgam", argv[0], path, *argv[1:],
             "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120)

    proc = run(args)
    assert proc.returncode == 0, proc.stderr
    assert run_cli([args[0], path, *args[1:], "--format", "json"]) == 0
    assert proc.stdout == capsys.readouterr().out
    proc = run(wrong)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("input error: ") and "line 0" not in proc.stderr
    assert "Traceback" not in proc.stderr


# f(M)J holds x * x^2 != 0 here, so the hypothesis set fails and the
# transfer identity's proof does not apply
_OUTSIDE = ("A = trunc_poly(2, 4)\n"
            "D = duplication(A, ideal(A, [[0, 0, 1, 0]]))\n")


@pytest.mark.parametrize("job, seed", [
    ("kernel_transfer(D, 1, 1)", 0),
    ("kernel_transfer(D, 1, 1)", 2),
    ("lemma24(D, 1, [[0, 1, 0, 0]], [[0, 0, 1, 0]])", 0),
], ids=["kernel_transfer-seed0", "kernel_transfer-seed2", "lemma24"])
def test_kernel_transfer_and_lemma24_need_the_hypothesis_set(
        capsys, tmp_path, job, seed):
    path = tmp_path / "outside.ring"
    path.write_text(_OUTSIDE + f"job {job}\n")
    assert run_cli(["check", str(path), "--format", "json",
                    "--seed", str(seed)]) == 0
    [record] = json.loads(capsys.readouterr().out)["checks"]
    assert record["status"] == "skipped"
    assert record["reason"] == "hypothesis set not met"


@pytest.mark.parametrize("job", [
    "gldim(zmod(4, 5))",
    "gldim(mystery(3))",
    "gldim(I)",
    "betti(A)",
    "thm34(D, [])",
    "thm31(D, [2, 0, 0])",
    "kernel_transfer(D, 1, [[2]])",
    "kernel_transfer(D, 1, 2, [[0]])",
    "kernel_transfer(D, 1, [[2]], [[0], [0]])",
    "kernel_transfer(D, 1, [], [])",
    "lemma24(D, 2, [[2]], [[0]])",
    "kernel_transfer(D, 0, 1)",
    "kernel_transfer(D, 1, 0)",
    "lemma24(D, 0, [[2]], [[0]])",
    "power_iso(D, 0)",
])
def test_malformed_job_arguments_are_input_errors(capsys, tmp_path, job):
    path = tmp_path / "malformed.ring"
    path.write_text(_DUP + f"job {job}\n")
    assert run_cli(["check", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("input error: line 4, col ")


# one call per constructor with one argument of the wrong kind or shape,
# after A = zmod(4) and I = ideal(A, [[2]])
_BAD_CALLS = {
    "zmod": "zmod([4])",
    "trunc_poly": "trunc_poly(2, [3])",
    "product": "product(A, I)",
    "quotient": "quotient(A, A)",
    "trivial_ext": "trivial_ext(A, I)",
    "subring_image_plus": "subring_image_plus(A, I)",
    "amalgamation": "amalgamation(A, A, I, I)",
    "duplication": "duplication(A, [[2]])",
    "table": "table(4, [4], [1], [[1], [0]])",
    "ideal": "ideal(A, [[2, 0]])",
    "hom": "hom(A, A, [[1], [0]])",
    "module": "module(A, [2], [[1]], [[1]])",
    "submod": "submod(A, 1, [[2, 0]])",
}


def _construct_record(capsys, tmp_path, text):
    """The exit code and the construct:X record of checking text."""
    path = tmp_path / "construct.ring"
    path.write_text(text)
    code = run_cli(["check", str(path), "--format", "json"])
    out = capsys.readouterr()
    assert out.err == ""
    [record] = [c for c in json.loads(out.out)["checks"]
                if c["name"] == "construct:X"]
    return code, record


@pytest.mark.parametrize("name", sorted(dsl.CONSTRUCTORS))
def test_a_bad_constructor_argument_is_a_failed_construct_record(
        capsys, tmp_path, name):
    call = _BAD_CALLS[name]
    assert call.startswith(name + "(")
    code, record = _construct_record(
        capsys, tmp_path, f"A = zmod(4)\nI = ideal(A, [[2]])\nX = {call}\n")
    assert code == 1
    assert record["status"] == "fail" and record["reason"]
    assert record["witnesses"] == {"line": 3}


def test_the_parser_and_the_builder_know_the_same_constructors():
    assert set(dsl.CONSTRUCTORS) == set(cli.CONSTRUCTORS)
    for name, kinds in dsl.CONSTRUCTORS.items():
        # every constructor kind gives one value of the library call
        inspect.signature(cli.CONSTRUCTORS[name]).bind(*kinds)


@pytest.mark.parametrize("call, reason", [
    ("hom(trunc_poly(2, 3), trunc_poly(2, 2), "
     "[[1, 0, 1], [0, 1, 1], [0, 0, 1]])",
     "matrix must have 3 rows of 2 coordinates"),
    ("table(4, [4], [1, 3], [[1]])", "unit must have 1 coordinates"),
    ("table(2, [2, 2], [1, 0], [[1], [0, 1], [0, 1], [0, 0]])",
     "tensor must be 2 x 2 vectors of 2 coordinates"),
    ("module(zmod(4), [2], [[1, 1]])",
     "need one 1 x 1 action matrix per ring basis element (1)"),
], ids=["hom-row", "table-unit", "table-tensor", "module-row"])
def test_a_coordinate_row_of_the_wrong_length_fails_to_build(
        capsys, tmp_path, call, reason):
    code, record = _construct_record(capsys, tmp_path,
                                     f"X = {call}\njob ringcheck(X)\n")
    assert code == 1
    assert (record["status"], record["reason"]) == ("fail", reason)


def _rank3(products):
    """The table of a rank-3 ring from its products b_i b_j, row by row."""
    basis = {"b0": [1, 0, 0], "b1": [0, 1, 0], "b2": [0, 0, 1], "0": [0, 0, 0]}
    return [basis[p] for p in products.split()]


# Each table breaks one axiom only.
# F2 b0 + F2 b1 + F2 b2, commutative with unit b0, b1^2 = b2, b1 b2 = 0 and
# b2^2 = b1: (b1 b1) b2 = b1 but b1 (b1 b2) = 0.  The upper-triangular
# 2 x 2 matrices over F2, b0, b1, b2 = e11, e12, e22: associative with unit
# e11 + e22, but e11 e12 = e12 and e12 e11 = 0.  (Z/4) b0 + (Z/2) b1 with
# b1^2 = b0: 2 b1 = 0 but 2 b1^2 = 2 b0 is not.
@pytest.mark.parametrize("kind, char, orders, unit, tensor", [
    ("associativity", 2, [2, 2, 2], [1, 0, 0],
     _rank3("b0 b1 b2  b1 b2 0  b2 0 b1")),
    ("commutativity", 2, [2, 2, 2], [1, 0, 1],
     _rank3("b0 b1 0  0 0 b1  0 0 b2")),
    ("order", 4, [4, 2], [1, 0], [[1, 0], [0, 1], [0, 1], [1, 0]]),
])
def test_a_table_that_breaks_one_axiom_fails_to_build(
        capsys, tmp_path, kind, char, orders, unit, tensor):
    d = len(orders)
    ring = FiniteRing(char, orders, [tensor[i:i + d] for i in range(0, d * d, d)],
                      unit)
    assert {k for k, _, _ in verify_ring(ring).failures} == {kind}
    code, record = _construct_record(
        capsys, tmp_path, f"X = table({char}, {orders}, {unit}, {tensor})\n"
                          "job ringcheck(X)\n")
    assert code == 1 and record["status"] == "fail"
    assert record["reason"].startswith(
        f"structure constants are not a ring: ('{kind}', ")


def test_verify_of_an_unknown_job_is_an_input_error(capsys):
    assert run_cli(["verify", corpus_path("duplication_z4.ring"),
                    "--job", "dance"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "input error: unknown job 'dance'\n"


def test_spectrum_of_a_non_ring_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "ideal_only.ring"
    path.write_text("A = zmod(4)\nI = ideal(A, [[2]])\n")
    assert run_cli(["spectrum", str(path), "--ring", "I"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("input error: --ring 'I': job 'spectrum': "
                       "argument 1: expected a ring\n")


def test_a_submodule_needs_an_ambient_rank_of_at_least_1(capsys, tmp_path):
    code, record = _construct_record(capsys, tmp_path,
                                     "A = zmod(4)\nX = submod(A, -1, [])\n")
    assert code == 1
    assert record["reason"] == (
        "argument 2: expected a count of at least 1, got -1")


_NUMBER = re.compile(r"-?\d+")


def _mutant(text, rng):
    """text with one seeded edit: a number changed or bracketed, or a
    character or line dropped or inserted."""
    numbers = list(_NUMBER.finditer(text))
    lines = text.split("\n")
    op = rng.choice(["number", "bracket", "drop_char", "insert_char",
                     "drop_line", "insert_line"])
    if op in ("number", "bracket"):
        m = rng.choice(numbers)
        new = (str(rng.choice([-1, 0, 1, 2, 3, 5, 8, 64])) if op == "number"
               else f"[{m.group()}]")
        return text[:m.start()] + new + text[m.end():]
    if op == "drop_char":
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    if op == "insert_char":
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice("()[],=-#x0123456789 \n") + text[i:]
    if op == "drop_line":
        del lines[rng.randrange(len(lines))]
    else:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    return "\n".join(lines)


def test_mutated_corpus_files_give_an_exit_code_and_no_exception(
        capsys, tmp_path):
    # bad input gives exit 2 with a diagnostic, never a traceback
    rng = random.Random(0)
    names = ("duplication_z4", "idealization_tower", "truncation_t3",
             "duplication_mixed_orders")
    texts = [corpus_text(f"{name}.ring") for name in names]
    path = tmp_path / "mutant.ring"
    codes = set()
    for n in range(60):
        path.write_text(_mutant(texts[n % len(texts)], rng))
        codes.add(run_cli(["check", str(path), "--depth", "2",
                           "--max-order", "256"]))
        capsys.readouterr()
    assert codes == {0, 1, 2}
