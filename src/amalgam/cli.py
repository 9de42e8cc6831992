"""Command-line front end: parse DSL files, build objects, run checks.

Subcommands:
  check FILE                 run every job in the file
  verify FILE --job NAME     run only the named job(s)
  resolve FILE --module M    resolve a declared ideal/submodule
  spectrum FILE --ring R     nilradical and maximal ideals of a ring

Exit codes: 0 all checks passed, 1 at least one failed record, 2 input
error (syntax, unknown names, bad arity, negative depth, a non-module given
to resolve).
"""

import argparse
import functools
import random
import sys

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
    """Check every job, and every constructor call in a declaration,
    against the argument counts in dsl.JOBS and dsl.CONSTRUCTORS; the
    first mismatch raises."""
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
    lo, hi = (dsl.JOBS if job else dsl.CONSTRUCTORS)[node.name]
    n = len(node.args)
    if n < lo or (hi is not None and n > hi):
        bound = "+" if hi is None else ("" if hi == lo else f"..{hi}")
        where = (node.line,) if job else (node.line, node.col)
        raise dsl.DslSemanticError(
            f"{'job ' if job else ''}{node.name!r} takes {lo}{bound} "
            f"arguments, got {n}", *where)
    # a job's arguments are not walked: the parser leaves the constructor
    # names in them unchecked too
    if not job:
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

def _as_amalgam(value):
    if not isinstance(value, AmalgamObjects):
        raise BuildError("this job needs an amalgamation or duplication")
    return value


def _as_depth(job, args, index, default):
    """The job's optional depth argument; a negative depth is an input error."""
    if len(args) <= index:
        return default
    d = _as_int(args[index], "depth")
    if d < 0:
        raise dsl.DslSemanticError(
            f"job {job.name!r}: depth must be non-negative, got {d}", job.line)
    return d


def run_job(builder, job, options):
    args = [builder.eval_expr(a) for a in job.args]
    name = job.name
    depth = options.depth
    if name == "hypotheses":
        am = _as_amalgam(args[0])
        _, result = checklib.hypotheses_of(am)
        return result
    if name == "remark21":
        return checklib.verify_remark_2_1(_as_amalgam(args[0]))
    if name == "power_iso":
        return checklib.power_iso(_as_amalgam(args[0]),
                                  _as_int(args[1], "n"),
                                  seed=options.seed,
                                  budget=options.max_order)
    if name == "idempotent":
        return checklib.verify_idempotent_claim(_as_amalgam(args[0]))
    if name == "betti":
        d = _as_depth(job, args, 1, depth)
        return checklib.betti_experiment(_as_amalgam(args[0]), depth=d)
    if name == "thm31":
        am = _as_amalgam(args[0])
        kvec = _as_int_list(args[1], "k")
        d = _as_depth(job, args, 2, depth)
        return checklib.verify_thm_3_1_objects(
            am, am.b.element(tuple(kvec)), depth=d)
    if name == "thm34":
        am = _as_amalgam(args[0])
        mvec = _as_int_list(args[1], "m")
        d = _as_depth(job, args, 2, depth)
        return checklib.verify_thm_3_4_bookkeeping(
            am, am.a.element(tuple(mvec)), depth=d)
    if name == "gldim":
        ring = _as_ring(args[0], "ring")
        d = _as_depth(job, args, 1, depth)
        return checklib.gldim_signature(ring, depth=d)
    if name == "pd_profile":
        ring = _as_ring(args[0], "ring")
        d = _as_depth(job, args, 1, depth)
        return checklib.pd_profile(ring, depth=d, budget=options.max_order)
    if name == "ringcheck":
        ring = _as_ring(args[0], "ring")
        rep = verify_ring(ring)
        return checklib.CheckResult(
            "ringcheck", "structure constants satisfy the ring axioms",
            "pass" if rep.ok else "fail",
            reason=None if rep.ok else "axiom failure",
            witnesses={"failures": [list(map(str, f)) for f in rep.failures],
                       "order": ring.order()})
    if name in ("kernel_transfer", "lemma24"):
        am = _as_amalgam(args[0])
        p = _as_int(args[1], "p")
        if name == "kernel_transfer" and len(args) == 3 and isinstance(args[2], int):
            rng = random.Random(options.seed)
            return checklib.random_kernel_transfer_check(am, p, args[2], rng)
        u_mat = _as_matrix(args[2], "u vectors")
        k_mat = _as_matrix(args[3], "k vectors")
        u_vecs = [vector_from_coords(am.a, p, tuple(r)) for r in u_mat]
        k_vecs = [vector_from_coords(am.b, p, tuple(r)) for r in k_mat]
        if name == "kernel_transfer":
            return checklib.verify_kernel_transfer(am, p, u_vecs, k_vecs)
        d = _as_depth(job, args, 4, min(depth, 4))
        return checklib.verify_lemma_2_4(am, p, u_vecs, k_vecs, depth=d)
    raise BuildError(f"job {name!r} is not implemented")


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
