"""Line-oriented text format for rings, ideals, homs, modules and jobs.

Grammar (one declaration per line, `#` starts a comment):

    decl  := NAME "=" call
    job   := "job" NAME "(" args ")"
    call  := NAME "(" args ")"
    arg   := INT | NAME | call | list
    list  := "[" (arg ("," arg)*)? "]"

Brackets, round or square, nest at most MAX_NESTING (64) deep; a
"matrices" argument needs 3.  Names must be declared before use (no
forward references).  The parser produces a plain AST; evaluation lives
in the CLI layer.  Serialization pretty-prints the canonical form, so
parse -> serialize -> parse is the identity on ASTs.
"""

# The vocabulary.  CONSTRUCTORS and JOBS map a name to the kinds of its
# arguments; cli.CONSTRUCTORS and checks.JOBS say what each name does.
# The parser rejects a name missing here; the CLI checks the argument
# counts the kinds allow once the whole file has parsed, and coerces each
# argument by its kind.
CONSTRUCTORS = {
    "zmod": ("int",), "trunc_poly": ("int", "int"),
    "product": ("ring", "ring"), "quotient": ("ring", "ideal"),
    "trivial_ext": ("ring", "module"), "subring_image_plus": ("hom", "ideal"),
    "amalgamation": ("ring", "ring", "hom", "ideal", "budget"),
    "duplication": ("ring", "ideal", "budget"),
    "table": ("int", "ints", "ints", "matrix"),
    "ideal": ("ring", "matrix"), "hom": ("ring", "ring", "matrix"),
    "module": ("ring", "ints", "matrices"), "submod": ("ring", "count", "matrix"),
}
JOBS = {
    "hypotheses": ("amalgam",), "remark21": ("amalgam",),
    "kernel_transfer": ("amalgam", "count", "draws_or_vectors", "seed"),
    "lemma24": ("amalgam", "count", "vectors", "short_depth", "types"),
    "power_iso": ("amalgam", "count", "seed"),
    "idempotent": ("amalgam",), "betti": ("amalgam", "depth", "types"),
    "thm31": ("amalgam", "b_element", "depth", "types"),
    "thm34": ("amalgam", "a_element"),
    "gldim": ("ring", "depth", "types"),
    "pd_profile": ("ring", "depth", "budget"),
    "ringcheck": ("ring",), "resolve": ("submodule", "depth", "types"),
    "spectrum": ("ring", "budget"),
}
# A kind takes one argument: an "int", a flat list of "ints", a "matrix"
# (a list of integer lists), a "ring" (or an amalgamation's ring), an
# "amalgam", "ideal", "submodule" (or ideal), "hom" or "module", a
# "count" >= 1, an "a_element" or "b_element" in A's or B's coordinates;
# or the (least, most) given here, most None for no bound.  "matrices"
# are the remaining arguments, each a matrix.  "vectors" are u vectors
# over A, then as many k vectors over B, each of p * rank coordinates for
# p the count before; "draws_or_vectors" may be a count of random ones
# instead.  "depth" (>= 0) defaults to --depth, and "short_depth" to at
# most 4.  "seed" and "budget" are --seed, --max-order; "types" is the
# run's TypeTable for the first argument's ring (None if it is not local),
# shared by every job of the run.
KIND_ARGS = {
    "matrices": (0, None), "vectors": (2, 2), "draws_or_vectors": (1, 2),
    "depth": (0, 1), "short_depth": (0, 1), "seed": (0, 0), "budget": (0, 0),
    "types": (0, 0),
}


# The parser recurses once per bracket; this bound keeps deep input far
# from the interpreter's recursion limit.
MAX_NESTING = 64


class DslSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DslSemanticError(ValueError):
    """line None for an error in a command-line option, which has no
    position in the file."""

    def __init__(self, message, line=None, col=1):
        super().__init__(message if line is None
                         else f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# -- AST ----------------------------------------------------------------------

class Num:
    __slots__ = ("value", "line", "col")

    def __init__(self, value, line=0, col=0):
        self.value = value
        self.line = line
        self.col = col

    def __eq__(self, other):
        return isinstance(other, Num) and self.value == other.value

    def render(self):
        return str(self.value)


class Ref:
    __slots__ = ("name", "line", "col")

    def __init__(self, name, line=0, col=0):
        self.name = name
        self.line = line
        self.col = col

    def __eq__(self, other):
        return isinstance(other, Ref) and self.name == other.name

    def render(self):
        return self.name


class ListExpr:
    __slots__ = ("items", "line", "col")

    def __init__(self, items, line=0, col=0):
        self.items = tuple(items)
        self.line = line
        self.col = col

    def __eq__(self, other):
        return isinstance(other, ListExpr) and self.items == other.items

    def render(self):
        return "[" + ", ".join(i.render() for i in self.items) + "]"


class Call:
    __slots__ = ("name", "args", "line", "col")

    def __init__(self, name, args, line=0, col=0):
        self.name = name
        self.args = tuple(args)
        self.line = line
        self.col = col

    def __eq__(self, other):
        return (isinstance(other, Call) and self.name == other.name
                and self.args == other.args)

    def render(self):
        return f"{self.name}(" + ", ".join(a.render() for a in self.args) + ")"


class Decl:
    __slots__ = ("name", "expr", "line")

    def __init__(self, name, expr, line=0):
        self.name = name
        self.expr = expr
        self.line = line

    def __eq__(self, other):
        return (isinstance(other, Decl) and self.name == other.name
                and self.expr == other.expr)

    def render(self):
        return f"{self.name} = {self.expr.render()}"


class Job:
    __slots__ = ("name", "args", "line")

    def __init__(self, name, args, line=0):
        self.name = name
        self.args = tuple(args)
        self.line = line

    def __eq__(self, other):
        return (isinstance(other, Job) and self.name == other.name
                and self.args == other.args)

    def render(self):
        return f"job {self.name}(" + ", ".join(a.render() for a in self.args) + ")"


class RingSpecFile:
    """Ordered declarations and jobs; equality is structural."""

    __slots__ = ("statements",)

    def __init__(self, statements):
        self.statements = tuple(statements)

    def __eq__(self, other):
        return (isinstance(other, RingSpecFile)
                and self.statements == other.statements)

    def decls(self):
        return [s for s in self.statements if isinstance(s, Decl)]

    def jobs(self):
        return [s for s in self.statements if isinstance(s, Job)]

    def render(self):
        return "\n".join(s.render() for s in self.statements) + "\n"


# -- tokenizer -----------------------------------------------------------------

_PUNCT = "=(),[]"


def _tokenize_line(text, lineno):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            break
        if c in " \t\r":
            i += 1
            continue
        col = i + 1
        if c in _PUNCT:
            tokens.append((c, c, lineno, col))
            i += 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), lineno, col))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], lineno, col))
            i = j
            continue
        raise DslSyntaxError(f"unexpected character {c!r}", lineno, col)
    return tokens


class _LineParser:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect_kind=None, expect_value=None):
        tok = self.peek()
        if tok is None:
            wanted = expect_value or expect_kind or "',' or a closing bracket"
            last = self.tokens[-1] if self.tokens else (None, "", self.lineno, 0)
            raise DslSyntaxError(
                f"unexpected end of line, expected {wanted}",
                self.lineno, last[3] + len(str(last[1])))
        kind, value, line, col = tok
        if expect_kind and kind != expect_kind:
            raise DslSyntaxError(
                f"expected {expect_value or expect_kind}, found {value!r}",
                line, col)
        if expect_value and value != expect_value:
            raise DslSyntaxError(
                f"expected {expect_value!r}, found {value!r}", line, col)
        self.pos += 1
        return tok

    def parse_expr(self):
        tok = self.peek()
        if tok is None:
            raise DslSyntaxError("expected an expression", self.lineno, 1)
        kind, value, line, col = tok
        if kind == "int":
            self.next()
            return Num(value, line, col)
        if kind == "[":
            return self.parse_list()
        if kind == "name":
            self.next()
            nxt = self.peek()
            if nxt and nxt[0] == "(":
                return self.parse_call_tail(value, line, col)
            return Ref(value, line, col)
        raise DslSyntaxError(f"unexpected token {value!r}", line, col)

    def parse_list(self):
        _, _, line, col = self.peek()
        return ListExpr(self.parse_items("[", "]"), line, col)

    def parse_call_tail(self, name, line, col):
        return Call(name, self.parse_items("(", ")"), line, col)

    def parse_items(self, opener, closer):
        """The comma-separated expressions from an opening bracket to its
        closer, at most MAX_NESTING brackets deep."""
        _, _, line, col = self.next(expect_kind=opener)
        if self.depth == MAX_NESTING:
            raise DslSyntaxError(
                f"brackets nested more than {MAX_NESTING} deep", line, col)
        self.depth += 1
        items = []
        nxt = self.peek()
        if nxt and nxt[0] == closer:
            self.next()
        else:
            while True:
                items.append(self.parse_expr())
                tok = self.next()
                if tok[0] == closer:
                    break
                if tok[0] != ",":
                    raise DslSyntaxError(
                        f"expected ',' or {closer!r}, found {tok[1]!r}",
                        tok[2], tok[3])
        self.depth -= 1
        return items

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise DslSyntaxError(f"trailing input {tok[1]!r}", tok[2], tok[3])


def parse(text):
    """Parse DSL text into a RingSpecFile; raises Dsl*Error with positions."""
    statements = []
    known = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        p = _LineParser(tokens, lineno)
        kind, value, line, col = p.peek()
        if kind == "name" and value == "job":
            p.next()
            name_tok = p.next(expect_kind="name")
            job_call = p.parse_call_tail(name_tok[1], name_tok[2], name_tok[3])
            p.expect_end()
            if job_call.name not in JOBS:
                raise DslSemanticError(
                    f"unknown job {job_call.name!r}", name_tok[2], name_tok[3])
            for a in job_call.args:
                _check_constructors(a)
            _check_refs(job_call.args, known)
            statements.append(Job(job_call.name, job_call.args, lineno))
            continue
        name_tok = p.next(expect_kind="name")
        p.next(expect_value="=")
        expr = p.parse_expr()
        p.expect_end()
        if not isinstance(expr, Call):
            raise DslSemanticError(
                "right-hand side must be a constructor call",
                name_tok[2], name_tok[3])
        _check_constructors(expr)
        _check_refs([expr], known)
        if name_tok[1] in known:
            raise DslSemanticError(
                f"name {name_tok[1]!r} is declared twice", name_tok[2], name_tok[3])
        known.add(name_tok[1])
        statements.append(Decl(name_tok[1], expr, lineno))
    return RingSpecFile(statements)


def _check_constructors(expr):
    if isinstance(expr, Call):
        if expr.name not in CONSTRUCTORS:
            raise DslSemanticError(
                f"unknown constructor {expr.name!r}", expr.line, expr.col)
        for a in expr.args:
            _check_constructors(a)
    elif isinstance(expr, ListExpr):
        for a in expr.items:
            _check_constructors(a)


def _check_refs(exprs, known):
    for e in exprs:
        if isinstance(e, Ref):
            if e.name not in known:
                raise DslSemanticError(
                    f"reference to undeclared name {e.name!r}", e.line, e.col)
        elif isinstance(e, Call):
            _check_refs(e.args, known)
        elif isinstance(e, ListExpr):
            _check_refs(e.items, known)


def serialize(spec):
    """Canonical text of a RingSpecFile (comments and blank lines dropped)."""
    return spec.render()


def ring_to_declaration(ring, name="R"):
    """An explicit structure-constant declaration that rebuilds the ring.

    The basis labels are emitted as a comment for readability; they are not
    part of the round-tripped structure.
    """
    tensor_items = []
    for i in range(ring.rank):
        for j in range(ring.rank):
            tensor_items.append(ListExpr([Num(c) for c in ring.tensor[i][j]]))
    expr = Call("table", [
        Num(ring.char),
        ListExpr([Num(o) for o in ring.orders]),
        ListExpr([Num(u) for u in ring.unit]),
        ListExpr(tensor_items),
    ])
    comment = "# basis: " + ", ".join(ring.labels)
    return comment + "\n" + Decl(name, expr).render() + "\n"
