"""Command-line front end: parse DSL files, build objects, run checks.

Subcommands:
  check FILE                 run every job in the file
  verify FILE --job NAME     run only the file's jobs of that name
  resolve FILE --module M    run job resolve(M) in place of the file's jobs
  spectrum FILE --ring R     run job spectrum(R) in place of the file's jobs

Every subcommand builds every declaration and runs its jobs through
run_file and run_job, so all four give the same records for the same
mistakes.  Each constructor is declared once: the kinds of its arguments
in dsl.CONSTRUCTORS, its library call in CONSTRUCTORS.  Each job is too:
the kinds in dsl.JOBS, its precondition and check in checks.JOBS.  One
routine, _coerce, turns an argument of either into a value by its kind;
Builder.construct then calls the library, and run_job skips the job when
its precondition fails or it would enumerate past --max-order, and times
its check.

Exit codes: 0 all checks passed, 1 at least one failed record, 2 input
error (syntax, unknown names, bad arity, a job argument of the wrong kind
or shape, a count below 1, a negative depth, an unknown --job, a --module
or --ring naming no declaration or one of the wrong kind).  A declaration
whose arguments have the wrong kind or shape, or that the library
refuses, gives a failed construct:NAME record; a job whose precondition
fails, or that names a declaration that failed to build, gives a skipped
record.
"""

import argparse
import functools
import sys
import time

from . import checks as checklib
from . import dsl, spectrum
from .amalgam import AmalgamObjects, amalgamation, duplication, image_plus_J
from .modules import (Ideal, Submodule, TypeTable, ideal_span,
                      submodule_span, vector_from_coords)
from .report import Report, input_digest
from .rings import (BudgetExceededError, FiniteRing, ModuleSpec, RingHom,
                    product, trivial_extension, trunc_poly, verify_ring, zmod)


class BuildError(ValueError):
    """Construction-level failure; becomes a failed record, not a crash."""


# The subcommands that run a job of their own name on the declaration an
# option names, and that option.
TARGETS = {"resolve": "module", "spectrum": "ring"}


def check_arity(spec):
    """Check every job and every constructor call, in a declaration or in
    a job's arguments, against the argument counts its kinds in dsl.JOBS
    or dsl.CONSTRUCTORS allow; the first mismatch raises."""
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
    kinds = (dsl.JOBS if job else dsl.CONSTRUCTORS)[node.name]
    lows, highs = zip(*[dsl.KIND_ARGS.get(kind, (1, 1)) for kind in kinds])
    lo, hi = sum(lows), None if None in highs else sum(highs)
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

def _table(char, orders, unit, tensor):
    """The ring of table(): tensor lists the rank^2 products b_i * b_j row
    by row; the structure constants must make a ring."""
    d = max(len(orders), 1)
    ring = FiniteRing(char, orders,
                      [tensor[i:i + d] for i in range(0, len(tensor), d)],
                      unit)
    rep = verify_ring(ring)
    if not rep.ok:
        raise ValueError(f"structure constants are not a ring: {rep.failures[0]}")
    return ring


# What each constructor builds from the values its kinds in dsl.CONSTRUCTORS
# give; the library calls check the shapes.
CONSTRUCTORS = {
    "zmod": zmod, "trunc_poly": trunc_poly, "product": product,
    "quotient": lambda ring, ideal: spectrum.quotient_ring(ring, ideal)[0],
    "trivial_ext": trivial_extension,
    "subring_image_plus": lambda hom, ideal: image_plus_J(hom, ideal)[0],
    "amalgamation": amalgamation, "duplication": duplication,
    "table": _table,
    "ideal": lambda ring, rows: ideal_span(ring, [ring.element(r)
                                                  for r in rows]),
    "hom": RingHom, "module": ModuleSpec,
    "submod": lambda ring, p, rows: submodule_span(
        ring, p, [vector_from_coords(ring, p, r) for r in rows]),
}


class Builder:
    """Evaluates declarations into live objects.

    Structurally identical constructor calls are hash-consed within one
    evaluation, so `zmod(4)` written twice (or nested) denotes the same
    ring object; rings compare by identity throughout the package.
    """

    def __init__(self, budget):
        self.env = {}
        self.max_order = budget
        self._memo = {}
        self._tables = {}  # id(ring) -> (ring, its TypeTable or None)

    def type_table(self, subject):
        """The run's TypeTable of subject's ring (subject a ring, or an
        amalgamation or module over it), shared by every job of the run;
        None if the ring is not local."""
        ring = subject if isinstance(subject, FiniteRing) else subject.ring
        entry = self._tables.get(id(ring))
        if entry is None:
            local, mx = spectrum.is_local(ring)
            entry = self._tables[id(ring)] = (
                ring, TypeTable(ring, mx) if local else None)
        return entry[1]

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
        """CONSTRUCTORS[name] on args coerced by their kinds; the only
        option a constructor kind reads, --max-order, is the builder's."""
        try:
            return CONSTRUCTORS[name](
                *_coerce_all(dsl.CONSTRUCTORS[name], args, self))
        except Exception as exc:
            raise BuildError(str(exc)) from exc


# -- job dispatch -----------------------------------------------------------------

def run_job(builder, job, options):
    """The record of one job: its check run on its arguments, coerced by
    their kinds in dsl.JOBS, or skipped when its precondition fails or it
    would enumerate past the budget; the record carries the wall time of
    its check alone, timed once the precondition holds."""
    values = _job_values(builder, job, options)
    precondition, check = checklib.JOBS[job.name]
    holds, reason = checklib.PRECONDITIONS.get(precondition, (None, None))
    start = time.perf_counter()
    try:
        if holds is None or holds(values[0]):
            start = time.perf_counter()
            result = check(*values)
        else:
            result = checklib.skipped(job.name, reason)
    except BudgetExceededError as exc:
        result = checklib.skipped(job.name, str(exc))
    result.wall_ms = int((time.perf_counter() - start) * 1000)
    return result


def _job_values(builder, job, options):
    """The arguments of the job's check, by the kinds in dsl.JOBS.

    A reference to a declaration that failed to build raises BuildError,
    which skips the job; an argument of the wrong kind is an input error.
    """
    args = [builder.eval_expr(a) for a in job.args]
    try:
        return _coerce_all(dsl.JOBS[job.name], args, options, builder)
    except ValueError as exc:
        message = f"job {job.name!r}: {exc}"
    if options.command not in TARGETS:
        raise dsl.DslSemanticError(message, job.line)
    # resolve's or spectrum's job stands on no line of the file
    raise dsl.DslSemanticError(
        f"--{TARGETS[options.command]} {options.target!r}: {message}")


def _coerce_all(kinds, args, options, builder=None):
    """The values the kinds give for args, in order; a ValueError names
    the argument at fault."""
    total = len(args)
    values = []
    for kind in kinds:
        try:
            values += _coerce(kind, args, values, options, builder)
        except ValueError as exc:
            raise ValueError(f"argument {total - len(args)}: {exc}") from None
    return values


def _ints(value, depth):
    """value, if it is an integer (depth 0), a flat integer list (depth 1)
    or a list of integer lists (depth 2)."""
    def fits(v, d):
        return isinstance(v, int) if d == 0 else (
            isinstance(v, list) and all(fits(x, d - 1) for x in v))
    if not fits(value, depth):
        raise ValueError("expected " + ("an integer", "a flat integer list",
                                        "a list of integer lists")[depth])
    return value


def _coerce(kind, args, values, options, builder):
    """The values one kind gives (see dsl.KIND_ARGS), taken off the front
    of args; a ValueError says what is wrong with the last one taken."""
    if kind in ("seed", "budget"):
        return [options.seed if kind == "seed" else options.max_order]
    if kind == "types":
        return [builder.type_table(values[0])]
    if kind in ("depth", "short_depth"):
        if not args:
            return [options.depth if kind == "depth" else min(options.depth, 4)]
        depth = _ints(args.pop(0), 0)
        if depth < 0:
            raise ValueError(f"expected a non-negative depth, got {depth}")
        return [depth]
    if kind == "matrices":
        return [[_ints(args.pop(0), 2) for _ in range(len(args))]]
    value = args.pop(0)
    if kind in ("int", "ints", "matrix"):
        return [_ints(value, ("int", "ints", "matrix").index(kind))]
    if kind == "ring" and isinstance(value, AmalgamObjects):
        return [value.ring]
    objects = {"ring": (FiniteRing, "a ring"),
               "amalgam": (AmalgamObjects, "an amalgamation or duplication"),
               "ideal": (Ideal, "an ideal"),
               "submodule": (Submodule, "an ideal or submodule"),
               "hom": (RingHom, "a hom"), "module": (ModuleSpec, "a module")}
    if kind in objects:
        if not isinstance(value, objects[kind][0]):
            raise ValueError(f"expected {objects[kind][1]}")
        return [value]
    if kind == "count" or (kind == "draws_or_vectors"
                           and isinstance(value, int)):
        if _ints(value, 0) < 1:
            raise ValueError(f"expected a count of at least 1, got {value}")
        if kind == "draws_or_vectors" and args:
            raise ValueError("a count of random vectors takes no k vectors")
        return [value] if kind == "count" else [value, None]
    am = values[0]
    if kind in ("a_element", "b_element"):
        ring = am.a if kind == "a_element" else am.b
        return [ring.element(_ints(value, 1))]
    p = values[-1]
    u = [vector_from_coords(am.a, p, r) for r in _ints(value, 2)]
    if not args:
        raise ValueError("u vectors need k vectors after them")
    k = [vector_from_coords(am.b, p, r) for r in _ints(args.pop(0), 2)]
    if not u or len(u) != len(k):
        raise ValueError("expected as many k vectors as u vectors, "
                         "at least one")
    return [u, k]


# -- file execution ----------------------------------------------------------------

def run_file(text, options):
    """Build every declaration and run the subcommand's jobs: every job of
    the file (check), those --job names (verify), or, in place of the
    file's jobs, its own job on the declaration --module or --ring names
    (resolve, spectrum); return the Report."""
    spec = dsl.parse(text)
    check_arity(spec)
    statements = spec.statements
    if options.command in TARGETS:
        statements = spec.decls() + [_target_job(spec, options)]
    builder = Builder(options.max_order)
    records = []
    for order, stmt in enumerate(statements, 1):
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
            continue
        if options.command == "verify" and stmt.name != options.job:
            continue
        try:
            rec = run_job(builder, stmt, options).to_dict()
        except BuildError as exc:
            rec = checklib.CheckResult(
                stmt.name, "job executes on well-built objects",
                "skipped", reason=str(exc),
                witnesses={"line": stmt.line}).to_dict()
        rec["sort_key"] = (rec["name"], order)
        records.append(rec)
    return Report(input_digest(text), options.seed, records,
                  with_timings=options.timings)


def _target_job(spec, options):
    """Job resolve(M) or spectrum(R) for the declaration --module or
    --ring names, at the line of that declaration."""
    for decl in spec.decls():
        if decl.name == options.target:
            return dsl.Job(options.command, [dsl.Ref(decl.name)], decl.line)
    raise dsl.DslSemanticError(
        f"--{TARGETS[options.command]} {options.target!r}: "
        "no declaration of that name")


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
    p_verify = sub.add_parser("verify", help="run the file's jobs of one name")
    _common(p_verify)
    p_verify.add_argument("--job", required=True)
    for command, option in TARGETS.items():
        p_target = sub.add_parser(
            command, help=f"run job {command}(NAME) in place of the file's")
        _common(p_target)
        p_target.add_argument(f"--{option}", required=True, dest="target",
                              metavar="NAME")
    return ap


@functools.lru_cache(maxsize=1)
def _argparser():
    """build_argparser(), built once per process: parse_args leaves the
    parser unchanged, and main runs once per input file."""
    return build_argparser()


def main(argv=None):
    options = _argparser().parse_args(argv)
    if options.depth < 0:
        print(f"input error: --depth must be non-negative, got {options.depth}",
              file=sys.stderr)
        return 2
    if options.command == "verify" and options.job not in dsl.JOBS:
        print(f"input error: unknown job {options.job!r}", file=sys.stderr)
        return 2
    try:
        with open(options.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_file(text, options)
    except (dsl.DslSyntaxError, dsl.DslSemanticError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json() if options.format == "json"
                     else report.to_text())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
