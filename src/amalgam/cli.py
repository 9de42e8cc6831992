"""Command-line front end: parse DSL files, build objects, run checks.

Subcommands:
  check FILE                 run every job in the file
  verify FILE --job NAME     run only the named job(s)
  resolve FILE --module M    resolve a declared ideal/submodule
  spectrum FILE --ring R     nilradical and maximal ideals of a ring

Each job is declared once: the kinds of its arguments in dsl.JOBS, its
precondition and check in checks.JOBS.  run_job coerces the arguments by
kind, skips the job when its precondition fails and times its check.

Exit codes: 0 all checks passed, 1 at least one failed record, 2 input
error (syntax, unknown names, bad arity, a job argument of the wrong kind
or shape, a count below 1, a negative depth, a non-module given to
resolve).  A job whose precondition fails, or that names a declaration
that failed to build, gives a skipped record.
"""

import argparse
import functools
import sys
import time

from . import checks as checklib
from . import dsl, spectrum
from .amalgam import AmalgamObjects, amalgamation, duplication, image_plus_J
from .modules import (Ideal, Submodule, ideal_span, minimal_resolution,
                      submodule_span, vector_from_coords)
from .report import Report, input_digest
from .rings import (BudgetExceededError, FiniteRing, ModuleSpec, RingHom,
                    product, trivial_extension, trunc_poly, verify_ring, zmod)


class BuildError(ValueError):
    """Construction-level failure; becomes a failed record, not a crash."""


def check_arity(spec):
    """Check every job and every constructor call, in a declaration or in
    a job's arguments, against the argument counts of dsl.JOBS and
    dsl.CONSTRUCTORS; the first mismatch raises."""
    for stmt in spec.statements:
        _check_arity(stmt.expr if isinstance(stmt, dsl.Decl) else stmt)


def _check_arity(node):
    if isinstance(node, dsl.ListExpr):
        for a in node.items:
            _check_arity(a)
        return
    job = isinstance(node, dsl.Job)
    if not (job or isinstance(node, dsl.Call)):
        return
    if job:
        lo, hi = map(sum, zip(*[dsl.KIND_ARGS.get(kind, (1, 1))
                                for kind in dsl.JOBS[node.name]]))
    else:
        lo, hi = dsl.CONSTRUCTORS[node.name]
    n = len(node.args)
    if n < lo or (hi is not None and n > hi):
        bound = "+" if hi is None else ("" if hi == lo else f"..{hi}")
        where = (node.line,) if job else (node.line, node.col)
        raise dsl.DslSemanticError(
            f"{'job ' if job else ''}{node.name!r} takes {lo}{bound} "
            f"arguments, got {n}", *where)
    for a in node.args:
        _check_arity(a)


# -- evaluation -----------------------------------------------------------------

def _as_int(value, what):
    if not isinstance(value, int):
        raise BuildError(f"{what} must be an integer")
    return value


def _as_int_list(value, what):
    if not isinstance(value, list) or not all(isinstance(x, int) for x in value):
        raise BuildError(f"{what} must be a flat integer list")
    return value


def _as_matrix(value, what):
    if (not isinstance(value, list)
            or not all(isinstance(r, list) for r in value)):
        raise BuildError(f"{what} must be a list of integer lists")
    for r in value:
        _as_int_list(r, what)
    return value


def _as_ring(value, what):
    if isinstance(value, AmalgamObjects):
        return value.ring
    if isinstance(value, FiniteRing):
        return value
    raise BuildError(f"{what} must be a ring")


class Builder:
    """Evaluates declarations into live objects.

    Structurally identical constructor calls are hash-consed within one
    evaluation, so `zmod(4)` written twice (or nested) denotes the same
    ring object; rings compare by identity throughout the package.
    """

    def __init__(self, budget):
        self.env = {}
        self.budget = budget
        self._memo = {}

    def eval_expr(self, expr):
        if isinstance(expr, dsl.Num):
            return expr.value
        if isinstance(expr, dsl.Ref):
            value = self.env[expr.name]
            if value is None:
                raise BuildError(f"{expr.name!r} failed to build earlier")
            return value
        if isinstance(expr, dsl.ListExpr):
            return [self.eval_expr(i) for i in expr.items]
        if isinstance(expr, dsl.Call):
            key = expr.render()
            if key in self._memo:
                return self._memo[key]
            args = [self.eval_expr(a) for a in expr.args]
            value = self.construct(expr.name, args)
            self._memo[key] = value
            return value
        raise BuildError(f"cannot evaluate {expr!r}")

    def construct(self, name, args):
        try:
            return getattr(self, f"_build_{name}")(args)
        except BuildError:
            raise
        except Exception as exc:
            raise BuildError(str(exc)) from exc

    def _build_zmod(self, args):
        return zmod(_as_int(args[0], "modulus"))

    def _build_trunc_poly(self, args):
        return trunc_poly(_as_int(args[0], "modulus"),
                          _as_int(args[1], "degree"))

    def _build_product(self, args):
        return product(_as_ring(args[0], "left factor"),
                       _as_ring(args[1], "right factor"))

    def _build_quotient(self, args):
        ring = _as_ring(args[0], "ring")
        ideal = args[1]
        if not isinstance(ideal, Ideal):
            raise BuildError("second argument of quotient must be an ideal")
        quo, _pi = spectrum.quotient_ring(ring, ideal)
        return quo

    def _build_trivial_ext(self, args):
        ring = _as_ring(args[0], "ring")
        spec = args[1]
        if not isinstance(spec, ModuleSpec):
            raise BuildError("second argument of trivial_ext must be a module")
        return trivial_extension(ring, spec)

    def _build_subring_image_plus(self, args):
        hom, ideal = args
        if not isinstance(hom, RingHom) or not isinstance(ideal, Ideal):
            raise BuildError("subring_image_plus takes a hom and an ideal")
        sub, _incl = image_plus_J(hom, ideal)
        return sub

    def _build_amalgamation(self, args):
        a = _as_ring(args[0], "A")
        b = _as_ring(args[1], "B")
        hom, ideal = args[2], args[3]
        if not isinstance(hom, RingHom) or not isinstance(ideal, Ideal):
            raise BuildError("amalgamation takes (A, B, hom, ideal)")
        return amalgamation(a, b, hom, ideal, budget=self.budget)

    def _build_duplication(self, args):
        a = _as_ring(args[0], "A")
        ideal = args[1]
        if not isinstance(ideal, Ideal):
            raise BuildError("duplication takes (A, ideal)")
        return duplication(a, ideal, budget=self.budget)

    def _build_table(self, args):
        char = _as_int(args[0], "characteristic")
        orders = _as_int_list(args[1], "orders")
        unit = _as_int_list(args[2], "unit")
        tensor_flat = _as_matrix(args[3], "tensor")
        d = len(orders)
        if len(tensor_flat) != d * d:
            raise BuildError(f"tensor must list {d * d} coordinate vectors")
        tensor = [[tuple(tensor_flat[i * d + j]) for j in range(d)]
                  for i in range(d)]
        ring = FiniteRing(char, tuple(orders), tensor, tuple(unit))
        rep = verify_ring(ring)
        if not rep.ok:
            raise BuildError(f"structure constants are not a ring: {rep.failures[0]}")
        return ring

    def _build_ideal(self, args):
        ring = _as_ring(args[0], "ring")
        gens_mat = _as_matrix(args[1], "generators")
        elems = []
        for row in gens_mat:
            if len(row) != ring.rank:
                raise BuildError(
                    f"ideal generator needs {ring.rank} coordinates")
            elems.append(ring.element(tuple(row)))
        return ideal_span(ring, elems)

    def _build_hom(self, args):
        src = _as_ring(args[0], "source")
        tgt = _as_ring(args[1], "target")
        rows = _as_matrix(args[2], "matrix")
        if len(rows) != src.rank:
            raise BuildError(f"hom matrix needs {src.rank} rows")
        return RingHom(src, tgt, [tuple(r) for r in rows])

    def _build_module(self, args):
        ring = _as_ring(args[0], "ring")
        orders = _as_int_list(args[1], "orders")
        matrices = [_as_matrix(m, "action matrix") for m in args[2:]]
        if len(matrices) != ring.rank:
            raise BuildError(
                f"module needs one action matrix per ring basis element "
                f"({ring.rank})")
        return ModuleSpec(ring, orders, matrices)

    def _build_submod(self, args):
        ring = _as_ring(args[0], "ring")
        p = _as_int(args[1], "ambient rank")
        gens_mat = _as_matrix(args[2], "generators")
        gens = [vector_from_coords(ring, p, tuple(row)) for row in gens_mat]
        return submodule_span(ring, p, gens)


# -- job dispatch -----------------------------------------------------------------

def run_job(builder, job, options):
    """The record of one job: its check run on its arguments, coerced by
    their kinds in dsl.JOBS, or skipped when its precondition fails; the
    record carries the wall time of both."""
    values = _job_values(builder, job, options)
    precondition, check = checklib.JOBS[job.name]
    holds, reason = checklib.PRECONDITIONS.get(precondition, (None, None))
    start = time.perf_counter()
    if holds is None or holds(values[0]):
        result = check(*values)
    else:
        result = checklib.skipped(job.name, reason)
    result.wall_ms = int((time.perf_counter() - start) * 1000)
    return result


def _job_values(builder, job, options):
    """The arguments of the job's check, by the kinds in dsl.JOBS.

    A reference to a declaration that failed to build raises BuildError,
    which skips the job; an argument of the wrong kind is an input error.
    """
    args = [builder.eval_expr(a) for a in job.args]
    values = []
    try:
        for kind in dsl.JOBS[job.name]:
            values += _coerce(kind, args, values, options)
    except ValueError as exc:
        raise dsl.DslSemanticError(f"job {job.name!r}: {exc}",
                                   job.line) from None
    return values


def _coerce(kind, args, values, options):
    """The check arguments one kind gives (see dsl.KIND_ARGS), taken off
    the front of args; a ValueError says what is wrong with them."""
    if kind in ("seed", "budget"):
        return [options.seed if kind == "seed" else options.max_order]
    if kind in ("depth", "short_depth"):
        depth = _as_int(args.pop(0), "depth") if args else (
            options.depth if kind == "depth" else min(options.depth, 4))
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        return [depth]
    value = args.pop(0)
    if kind == "amalgam":
        if not isinstance(value, AmalgamObjects):
            raise ValueError("needs an amalgamation or duplication")
        return [value]
    if kind == "ring":
        return [_as_ring(value, "the argument")]
    if kind == "count" or (kind == "draws_or_vectors"
                           and isinstance(value, int)):
        if _as_int(value, "a count") < 1:
            raise ValueError(f"a count must be at least 1, got {value}")
        if kind == "draws_or_vectors" and args:
            raise ValueError("a count of random vectors takes no k vectors")
        return [value] if kind == "count" else [value, None]
    am = values[0]
    if kind in ("a_element", "b_element"):
        ring = am.a if kind == "a_element" else am.b
        return [ring.element(tuple(_as_int_list(value, "an element")))]
    if not args:
        raise ValueError("u vectors need k vectors after them")
    u_rows = _as_matrix(value, "u vectors")
    k_rows = _as_matrix(args.pop(0), "k vectors")
    if not u_rows or len(u_rows) != len(k_rows):
        raise ValueError("needs as many k vectors as u vectors, at least one")
    p = values[-1]
    return [[vector_from_coords(am.a, p, tuple(r)) for r in u_rows],
            [vector_from_coords(am.b, p, tuple(r)) for r in k_rows]]


# -- file execution ----------------------------------------------------------------

def run_file(text, options, job_filter=None):
    """Build all declarations, run jobs, return a Report."""
    spec = dsl.parse(text)
    check_arity(spec)
    builder = Builder(options.max_order)
    records = []
    order = 0
    poisoned = False
    for stmt in spec.statements:
        order += 1
        if isinstance(stmt, dsl.Decl):
            try:
                builder.env[stmt.name] = builder.eval_expr(stmt.expr)
            except BuildError as exc:
                builder.env[stmt.name] = None
                rec = checklib.CheckResult(
                    f"construct:{stmt.name}",
                    "declaration builds successfully",
                    "fail", reason=str(exc),
                    witnesses={"line": stmt.line}).to_dict()
                rec["sort_key"] = (f"construct:{stmt.name}", order)
                records.append(rec)
                poisoned = True
            continue
        if job_filter is not None and stmt.name not in job_filter:
            continue
        try:
            result = run_job(builder, stmt, options)
            rec = result.to_dict()
        except (BuildError, BudgetExceededError) as exc:
            rec = checklib.CheckResult(
                stmt.name, "job executes on well-built objects",
                "skipped", reason=str(exc),
                witnesses={"line": stmt.line}).to_dict()
        rec["sort_key"] = (rec["name"], order)
        records.append(rec)
    report = Report(input_digest(text), options.seed, records,
                    with_timings=options.timings)
    return report


# -- argparse ------------------------------------------------------------------------

def _common(parser):
    parser.add_argument("file", help="DSL input file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--max-order", type=int, default=65536,
                        dest="max_order")
    parser.add_argument("--timings", action="store_true",
                        help="include wall times and a timestamp "
                             "(breaks byte determinism)")


def build_argparser():
    ap = argparse.ArgumentParser(
        prog="ringdsl",
        description="exact verification workbench for finite ring amalgamations")
    sub = ap.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="run every job in the file")
    _common(p_check)
    p_verify = sub.add_parser("verify", help="run a single named job")
    _common(p_verify)
    p_verify.add_argument("--job", required=True)
    p_resolve = sub.add_parser("resolve", help="resolve a declared module")
    _common(p_resolve)
    p_resolve.add_argument("--module", required=True)
    p_spectrum = sub.add_parser("spectrum", help="spectrum of a declared ring")
    _common(p_spectrum)
    p_spectrum.add_argument("--ring", required=True)
    return ap


@functools.lru_cache(maxsize=1)
def _argparser():
    """build_argparser(), built once per process: parse_args leaves the
    parser unchanged, and main runs once per input file."""
    return build_argparser()


def _emit(report, options):
    if options.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())


def main(argv=None):
    options = _argparser().parse_args(argv)
    if options.depth < 0:
        print(f"input error: --depth must be non-negative, got {options.depth}",
              file=sys.stderr)
        return 2
    try:
        with open(options.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        if options.command == "check":
            report = run_file(text, options)
        elif options.command == "verify":
            report = run_file(text, options, job_filter={options.job})
        elif options.command == "resolve":
            report = _run_resolve(text, options)
        else:
            report = _run_spectrum(text, options)
    except (dsl.DslSyntaxError, dsl.DslSemanticError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BuildError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    _emit(report, options)
    return report.exit_code()


def _build_env(text, options):
    spec = dsl.parse(text)
    check_arity(spec)
    builder = Builder(options.max_order)
    for stmt in spec.decls():
        builder.env[stmt.name] = builder.eval_expr(stmt.expr)
    return builder


def _single_record_report(text, options, name, claim, run):
    """Report of the one record run() returns; a budget error skips it."""
    try:
        result = run()
    except BudgetExceededError as exc:
        result = checklib.CheckResult(name, claim, "skipped", reason=str(exc))
    rec = result.to_dict()
    rec["sort_key"] = (rec["name"], 0)
    return Report(input_digest(text), options.seed, [rec],
                  with_timings=options.timings)


def _run_resolve(text, options):
    builder = _build_env(text, options)
    target = builder.env.get(options.module)
    if target is None:
        raise dsl.DslSemanticError(f"unknown module {options.module!r}", 0)
    if not isinstance(target, Submodule):
        raise dsl.DslSemanticError(
            f"{options.module!r} is not an ideal or submodule", 0)
    ring = target.ring
    claim = f"minimal resolution of {options.module}"

    def run():
        local, mx = spectrum.is_local(ring)
        if not local:
            return checklib.CheckResult(
                "resolve", "minimal resolutions need a local ring", "fail",
                reason="ring is not local")
        res = minimal_resolution(ring, target, mx, depth=options.depth)
        kind, value = res.verdict
        return checklib.CheckResult(
            "resolve", claim, "pass",
            witnesses={"betti": list(res.betti),
                       "verdict": f"{kind}:{value}",
                       "periodic": res.periodic,
                       "resolution_issues": res.validate()})
    return _single_record_report(text, options, "resolve", claim, run)


def _run_spectrum(text, options):
    builder = _build_env(text, options)
    value = builder.env.get(options.ring)
    if value is None:
        raise dsl.DslSemanticError(f"unknown ring {options.ring!r}", 0)
    ring = _as_ring(value, "ring")
    claim = f"nilradical and maximal ideals of {options.ring}"

    def run():
        nil = spectrum.nilradical(ring)
        mx = spectrum.maximal_ideals(ring, options.max_order)
        return checklib.CheckResult(
            "spectrum", claim, "pass",
            witnesses={
                "order": ring.order(),
                "nilradical_size": nil.size(),
                "maximal_ideal_count": len(mx),
                "maximal_ideal_sizes": [m.size() for m in mx],
                "local": len(mx) == 1,
            })
    return _single_record_report(text, options, "spectrum", claim, run)


if __name__ == "__main__":
    sys.exit(main())
