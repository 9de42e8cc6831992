"""The benchmark's workloads: seeded inputs, the op list of one pass, and
the correctness gate every op output goes through.

An op is one timed unit and a pass is the workload's fixed op list.  The
seed only reorders generators and appends redundant ones (resolve
workloads) or is handed to ``ringdsl check --seed`` (corpus_check), so the
references in references.json hold for every seed.

The program is imported from ``src/`` of the checkout this file sits in;
an ``amalgam`` found anywhere else is refused, so a directory without the
sources fails instead of measuring some other copy.
"""

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
REFERENCES = HERE / "references.json"

WORKLOADS = ("corpus_check", "resolve_block", "resolve_gf2", "resolve_zn")

# Seeded random R-combinations appended to every generator list; they are
# always redundant, so Nakayama selection rejects them.
EXTRA_GENERATORS = 2

# Op order of corpus_check; expected exit codes live in references.json.
CORPUS_FILES = ("duplication_z4.ring", "idealization_tower.ring",
                "truncation_t3.ring", "bad_syntax.ring",
                "bad_forward_ref.ring", "bad_improper_ideal.ring")

# (label, instance, target, depth); target "mj" is M |><| J, "zj" is
# {0} x J and "k" is the residue field.
RESOLVE_OPS = {
    "resolve_block": (("dup_z4/mj", "dup_z4", "mj", 14),
                      ("tower_dim1/mj", "tower_dim1", "mj", 9),
                      ("tower_dim2/mj", "tower_dim2", "mj", 7),
                      ("tower_dim2/zj", "tower_dim2", "zj", 7)),
    "resolve_gf2": (("trunc_t3/mj", "trunc_t3", "mj", 7),
                    ("trunc_t4/mj", "trunc_t4", "mj", 7),
                    ("trunc_t4/zj", "trunc_t4", "zj", 7),
                    ("trunc_t3/k", "trunc_t3", "k", 7)),
    "resolve_zn": (("dup_z8/mj", "dup_z8", "mj", 7),
                   ("dup_z27/mj", "dup_z27", "mj", 7),
                   ("trunc3_t4/mj", "trunc3_t4", "mj", 7),
                   ("dup_z8/k", "dup_z8", "k", 7)),
}


class ProgramMissing(RuntimeError):
    """The checkout holds no usable ``src/amalgam``."""


def load_program():
    """Import ``amalgam`` from this checkout's ``src/`` and return it."""
    if not (SRC / "amalgam" / "__init__.py").is_file():
        raise ProgramMissing(f"no amalgam sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import amalgam
    if Path(amalgam.__file__).resolve().parent != SRC / "amalgam":
        raise ProgramMissing(f"amalgam imported from {amalgam.__file__}")
    return amalgam


def load_references(path=REFERENCES):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- seeded inputs --------------------------------------------------------------

def _instances(am_lib):
    """Every amalgamation the resolve workloads use, from public constructors."""
    def dup(n, g):
        ring = am_lib.zmod(n)
        return am_lib.duplication(ring, am_lib.ideal_span(ring, [ring.from_int(g)]))

    def trunc(p, t):
        a, b = am_lib.trunc_poly(p, t), am_lib.trunc_poly(p, 2)
        rows = [tuple(1 if (k == i and i < 2) else 0 for k in range(2))
                for i in range(t)]
        f = am_lib.RingHom(a, b, rows)
        return am_lib.amalgamation(a, b, f, am_lib.ideal_span(b, [b.basis_element(1)]))

    return {
        "dup_z4": am_lib.standard_duplication,
        "tower_dim1": lambda: am_lib.standard_idealization_tower(1),
        "tower_dim2": lambda: am_lib.standard_idealization_tower(2),
        "trunc_t3": lambda: am_lib.standard_truncation(3),
        "trunc_t4": lambda: am_lib.standard_truncation(4),
        "dup_z8": lambda: dup(8, 2),
        "dup_z27": lambda: dup(27, 3),
        "trunc3_t4": lambda: trunc(3, 4),
    }


def _random_element(ring, rng):
    return ring.element(tuple(rng.randrange(o) for o in ring.orders))


def _seeded_generators(ring, elems, rng):
    """Shuffled generators followed by seeded redundant R-combinations."""
    elems = list(elems)
    rng.shuffle(elems)
    extras = []
    for _ in range(EXTRA_GENERATORS):
        acc = ring.zero()
        for e in elems:
            acc = acc + _random_element(ring, rng) * e
        extras.append(acc)
    return elems + extras


def _seeded_target(am_lib, am, mx, kind, rng):
    ring = am.ring
    if kind == "k":
        num = am_lib.submodule_span(
            ring, 1, [(g,) for g in _seeded_generators(ring, [ring.one()], rng)])
        return am_lib.CokernelSpec(num, mx)
    ideal = am.mj if kind == "mj" else am.zero_j
    return am_lib.ideal_span(
        ring, _seeded_generators(ring, ideal.generator_elements(), rng))


class ResolveOp:
    """minimal_resolution of a seeded target, then Resolution.validate()."""

    def __init__(self, label, ring, target, max_ideal, depth, modules):
        self.label = label
        self.ring = ring
        self.target = target
        self.max_ideal = max_ideal
        self.depth = depth
        self._modules = modules

    def run(self):
        # Looked up at call time so the tracer's wrappers are seen.
        res = self._modules.minimal_resolution(
            self.ring, self.target, self.max_ideal, self.depth)
        kind, value = res.verdict
        return {"betti": list(res.betti), "verdict": f"{kind}:{value}",
                "issues": res.validate()}

    def problems(self, out, refs):
        ref = refs["resolve"][self.label]
        bad = [f"validate(): {msg}" for msg in out["issues"]]
        if out["betti"] != ref["betti"]:
            bad.append(f"betti {out['betti']} != reference {ref['betti']}")
        if out["verdict"] != ref["verdict"]:
            bad.append(f"verdict {out['verdict']} != reference {ref['verdict']}")
        return bad


class CorpusOp:
    """``ringdsl check FILE --format json --seed S``, in process."""

    def __init__(self, name, seed, cli, schema):
        self.label = name
        self.argv = ["check", str(CORPUS / name), "--format", "json",
                     "--seed", str(seed)]
        self._cli = cli
        self._schema = schema

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.main(self.argv)
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def problems(self, out, refs):
        ref = refs["corpus"][self.label]
        bad = []
        if out["exit"] != ref["exit"]:
            bad.append(f"exit code {out['exit']} != reference {ref['exit']}")
        if out["exit"] == 2:
            if out["stdout"] or "input error" not in out["stderr"]:
                bad.append("input error without a diagnostic, or with a report")
            return bad
        try:
            report = json.loads(out["stdout"])
        except ValueError as exc:
            return bad + [f"report is not JSON: {exc}"]
        bad += [f"schema: {msg}" for msg in schema_errors(report, self._schema)]
        if ref["exit"] == 0:
            bad += [f"record {c.get('name')} is {c.get('status')}"
                    for c in report.get("checks", []) if c.get("status") != "pass"]
        if betti_witnesses(report) != ref.get("betti", {}):
            bad.append("Betti witnesses differ from the references")
        return bad


def betti_witnesses(report):
    """{record name: {witness: value}} for Betti rows and verdicts."""
    out = {}
    for c in report.get("checks", []):
        w = {k: v for k, v in c.get("witnesses", {}).items()
             if k.startswith("betti") or k == "verdict"}
        if w:
            out[c["name"]] = w
    return out


def setup(name, seed):
    """Import the program and build one seed's op list for the workload."""
    am_lib = load_program()
    if name == "corpus_check":
        from amalgam import cli
        with open(CORPUS / "report.schema.json", encoding="utf-8") as fh:
            schema = json.load(fh)
        return [CorpusOp(f, seed, cli, schema) for f in CORPUS_FILES]
    from amalgam import modules
    rng = random.Random(f"{name}:{seed}")
    builders = _instances(am_lib)
    built = {}
    ops = []
    for label, inst, kind, depth in RESOLVE_OPS[name]:
        if inst not in built:
            am = builders[inst]()
            local, mx = am.ring_local()
            if not local:
                raise RuntimeError(f"{inst} is not local")
            built[inst] = (am, am_lib.ideal_span(
                am.ring, _seeded_generators(am.ring, mx.generator_elements(), rng)))
        am, mx = built[inst]
        target = _seeded_target(am_lib, am, mx, kind, rng)
        ops.append(ResolveOp(label, am.ring, target, mx, depth, modules))
    return ops


def timed_setup(name, seed):
    """Seconds to import the program and build the inputs, in this process."""
    start = time.perf_counter()
    setup(name, seed)
    return time.perf_counter() - start


# -- report schema --------------------------------------------------------------

_TYPES = {"object": dict, "array": list, "string": str, "null": type(None),
          "boolean": bool}
_KNOWN_KEYWORDS = {"$schema", "title", "type", "required", "properties",
                   "additionalProperties", "items", "enum", "pattern"}


def schema_errors(value, schema, where="$"):
    """Check value against the JSON-schema subset report.schema.json uses.

    A keyword outside that subset is reported as an error, so a schema that
    grows past what this checker understands fails the gate loudly.
    """
    import re
    errors = [f"{where}: unsupported schema keyword {k!r}"
              for k in schema if k not in _KNOWN_KEYWORDS]
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(_is_type(value, t) for t in types):
            return errors + [f"{where}: expected {types}"]
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{where}: {value!r} not in {schema['enum']}")
    if "pattern" in schema and isinstance(value, str) \
            and not re.search(schema["pattern"], value):
        errors.append(f"{where}: {value!r} does not match {schema['pattern']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        errors += [f"{where}: missing {k!r}" for k in schema.get("required", [])
                   if k not in value]
        for k, v in value.items():
            if k in props:
                errors += schema_errors(v, props[k], f"{where}.{k}")
            elif schema.get("additionalProperties", True) is False:
                errors.append(f"{where}: unexpected {k!r}")
    if isinstance(value, list) and "items" in schema:
        for i, v in enumerate(value):
            errors += schema_errors(v, schema["items"], f"{where}[{i}]")
    return errors


def _is_type(value, name):
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])
