"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact (zero tolerance) except where a criterion is
explicitly a depth-bounded signature.
"""

import os
import random
from itertools import product as iproduct

from oracles import brute_left_kernel, brute_maximal_ideals, brute_span, ideal_elements

from amalgam import checks as checklib
from amalgam import cli
from amalgam.amalgam import image_plus_J
from amalgam.checks import (
    betti_experiment,
    gldim_signature,
    power_iso,
    verify_idempotent_claim,
    verify_remark_2_1,
    verify_thm_3_1_objects,
)
from amalgam.dsl import parse, serialize
from amalgam.instances import standard_truncation
from amalgam.modules import flat_scaled, minimal_generators
from amalgam.rings import product, verify_ring, zmod
from amalgam.spectrum import is_local, quotient_ring
from amalgam.znlinalg import Solver, ZnMatrix, howell_from_rows, kernel

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def announce(num, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d}: {flag} {detail}")
    assert ok, detail


def test_criterion_01_ring_axioms(instances):
    """Every constructor's output passes verify_ring; order law holds."""
    built = [zmod(4), zmod(6), product(zmod(4), zmod(2))]
    order_law = True
    for name, am in instances.items():
        built += [am.a, am.b, am.ring, am.subring]
        field, _ = quotient_ring(am.ring, is_local(am.ring)[1])
        built.append(field)
        sub = image_plus_J(am.f, am.j)[0]
        built.append(sub)
        if am.ring.order() != am.a.order() * am.j.size():
            order_law = False
    all_ok = all(verify_ring(r).ok for r in built)
    announce(1, all_ok and order_law,
             f"{len(built)} constructed rings verified, order law on "
             f"{len(instances)} amalgamations")


def test_criterion_02_remark_2_1(instances):
    """One maximal ideal, equal to M |><| J; brute-force oracle agrees."""
    ok = True
    for name, am in instances.items():
        result = verify_remark_2_1(am)
        if not result.passed:
            ok = False
            break
        if am.ring.order() <= 4096:
            from amalgam.spectrum import maximal_ideals
            mine = {frozenset(ideal_elements(m))
                    for m in maximal_ideals(am.ring)}
            brute = brute_maximal_ideals(am.ring)
            if mine != brute:
                ok = False
                break
    announce(2, ok, f"{len(instances)} instances, oracle cross-checked")


def _confirm_syzygy_by_enumeration(ring, gens, syz):
    """Exhaustively compare the engine syzygy with direct evaluation."""
    elems = list(ring.elements())
    p = len(gens[0])
    for combo in iproduct(elems, repeat=len(gens)):
        acc = [ring.zero()] * p
        for alpha, g in zip(combo, gens):
            if not alpha.is_zero():
                acc = [a + alpha * e for a, e in zip(acc, g)]
        is_syz = all(e.is_zero() for e in acc)
        if is_syz != syz.basis.contains(flat_scaled(ring, combo)):
            return False
    return True


def test_criterion_03_kernel_transfer(instances):
    """100 seeded random instances across 3 amalgamations, p <= 2, r <= 3;
    span equality everywhere, and on rings within the enumeration budget
    the engine syzygies are confirmed tuple by tuple."""
    rng = random.Random(20260810)
    names = ("dup_z4", "tower_dim1", "trunc_t3")
    passes = 0
    attempts = 0
    confirmed = 0
    while passes < 100:
        attempts += 1
        if attempts > 400:
            break
        name = names[attempts % 3]
        am = instances[name]
        p = rng.randint(1, 2)
        r = rng.randint(1, 3)
        u_vectors = [tuple(am.a_max.random_ring_element(rng) for _ in range(p))
                     for _ in range(r)]
        k_vectors = [tuple(am.j.random_ring_element(rng) for _ in range(p))
                     for _ in range(r)]
        status, reason, data = checklib._kernel_transfer_data(
            am, u_vectors, k_vectors)
        if status != "ok":
            continue
        if data["keru"].basis != data["predicted"]:
            announce(3, False, f"instance on {name} failed span equality")
        passes += 1
        survivors = len(data["u_vectors"])
        if am.ring.order() ** survivors <= 4096:
            if not _confirm_syzygy_by_enumeration(
                    am.ring, data["w_gens"], data["keru"]):
                announce(3, False, f"enumeration contradicts the engine on {name}")
            base = am.a
            if base.order() ** survivors <= 4096:
                if not _confirm_syzygy_by_enumeration(
                        base, data["u_vectors"], data["kerv"]):
                    announce(3, False, f"base enumeration contradicts kerv on {name}")
            confirmed += 1
    announce(3, passes == 100,
             f"{passes} random instances passed, {confirmed} confirmed by "
             "exhaustive tuple enumeration")


def test_criterion_04_lemma_3_5_signature(instances):
    """Betti positivity to depth 6 for M |><| J and {0} x J; idempotent claim."""
    ok = True
    for name, am in instances.items():
        result = betti_experiment(am, depth=6)
        if not result.passed:
            ok = False
            break
        idem = verify_idempotent_claim(am)
        if not idem.passed:
            ok = False
            break
    announce(4, ok, f"betti positivity and idempotent claim on {len(instances)} instances")


def test_criterion_05_thm_3_1_objects(instances):
    """Annihilator identity, self-annihilation, non-projectivity, deep quotient."""
    ok = True
    for name, am in instances.items():
        k = am.j_group_basis[0]
        result = verify_thm_3_1_objects(am, k, depth=6)
        if not result.passed:
            ok = False
            announce(5, False, f"{name}: {result.reason}")
    announce(5, ok, f"proof objects verified on {len(instances)} instances at depth 6")


def test_criterion_06_gldim_signature():
    """Truncations resist to depth 8; prime fields give exactly 0."""
    ok = True
    details = []
    for t in (3, 4):
        am = standard_truncation(t)
        res = gldim_signature(am.ring, depth=8)
        kind, value = res.witnesses["verdict"].split(":")
        details.append(f"t={t}:{kind}:{value}")
        if not (res.passed and kind == "at_least" and int(value) >= 8):
            ok = False
    for p in (2, 3, 5, 7):
        res = gldim_signature(zmod(p), depth=8)
        if res.witnesses["verdict"] != "exact:0":
            ok = False
        details.append(f"z{p}:0")
    announce(6, ok, " ".join(details))


def test_criterion_07_power_iso(instances):
    """All 4096 products checked for n = 2 on the order-8 duplication."""
    result = power_iso(instances["dup_z4"], 2)
    ok = (result.passed
          and result.witnesses["mode"] == "exhaustive"
          and result.witnesses["pairs_checked"] == 4096
          and result.witnesses["bijective"])
    announce(7, ok, f"order-64 rings, {result.witnesses['pairs_checked']} products")


def test_criterion_08_resolution_validity(instances):
    """Complex/exactness/minimality/cardinality plus Nakayama determinism."""
    from amalgam.modules import minimal_resolution
    rng = random.Random(99)
    ok = True
    checked_resolutions = 0
    checked_modules = 0
    for name, am in instances.items():
        local, mx = am.ring_local()
        for target in (am.mj, am.zero_j):
            res = minimal_resolution(am.ring, target, mx, depth=6)
            issues = res.validate()
            if issues:
                ok = False
                announce(8, False, f"{name}: {issues}")
            checked_resolutions += 1
            # Nakayama determinism on the target and on every summand
            # type's module and syzygy (all small, whatever the Betti size)
            touched = [(target.p, list(target.generators))]
            for t in res.types:
                for sub in (t.module, t.syz):
                    if sub is not None:
                        touched.append((sub.p, sub.rows_as_vectors()))
            for p, gens in touched:
                if not gens:
                    continue
                from amalgam.modules import submodule_span
                sub = submodule_span(am.ring, p, gens)
                counts = {len(minimal_generators(sub, mx, gens=gens))}
                for _ in range(10):
                    shuffled = list(gens)
                    rng.shuffle(shuffled)
                    counts.add(len(minimal_generators(sub, mx, gens=shuffled)))
                if len(counts) != 1:
                    ok = False
                    announce(8, False, f"{name}: pruning order changed the count")
                checked_modules += 1
    announce(8, ok, f"{checked_resolutions} resolutions valid, "
                    f"{checked_modules} modules pruning-stable")


def test_criterion_09_howell_substrate():
    """1000 seeded random matrices vs brute-force enumeration."""
    rng = random.Random(31337)
    moduli = [2, 3, 4, 6, 8, 9]
    count = 0
    while count < 1000:
        n = moduli[count % len(moduli)]
        rows_n, cols_n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randrange(n) for _ in range(cols_n)] for _ in range(rows_n)]
        m = ZnMatrix.from_rows(n, rows)
        h = howell_from_rows(n, rows, cols_n)
        rows2 = [[rng.randrange(n) for _ in range(cols_n)] for _ in range(rows_n)]
        h2 = howell_from_rows(n, rows2, cols_n)
        same_brute = brute_span(n, rows) == brute_span(n, rows2)
        assert same_brute == (h == h2), "canonicity violated"
        k = kernel(m)
        assert brute_left_kernel(m) == set(
            tuple(v) for v in _span_vectors(k)), "kernel mismatch"
        assert k.span_size() * h.span_size() == n ** rows_n
        b = [rng.randrange(n) for _ in range(cols_n)]
        x = Solver(m).solve(b)
        assert (x is not None) == h.contains(b)
        if x is not None:
            acc = [0] * cols_n
            for i, xi in enumerate(x):
                for j, e in enumerate(m.row(i)):
                    acc[j] = (acc[j] + xi * e) % n
            assert acc == [e % n for e in b]
        count += 1
    announce(9, True, f"{count} matrices, moduli {moduli}")


def _span_vectors(h):
    from oracles import enumerate_span
    return enumerate_span(h)


def test_criterion_10_cli_corpus(capsys):
    """Exit codes, byte determinism, and round trips on the corpus."""
    valid = ["duplication_z4.ring", "idealization_tower.ring",
             "truncation_t3.ring"]
    invalid = {"bad_syntax.ring": 2, "bad_forward_ref.ring": 2,
               "bad_improper_ideal.ring": 1}
    ok = True
    for name in valid:
        code = cli.main(["check", os.path.join(CORPUS, name),
                         "--seed", "42", "--format", "json"])
        capsys.readouterr()
        if code != 0:
            ok = False
    for name, expected in invalid.items():
        code = cli.main(["check", os.path.join(CORPUS, name)])
        capsys.readouterr()
        if code != expected:
            ok = False
    # determinism
    args = ["check", os.path.join(CORPUS, "duplication_z4.ring"),
            "--format", "json", "--seed", "42"]
    cli.main(args)
    first = capsys.readouterr().out
    cli.main(args)
    second = capsys.readouterr().out
    if first != second:
        ok = False
    # round trip
    for name in valid:
        with open(os.path.join(CORPUS, name)) as fh:
            text = fh.read()
        spec = parse(text)
        if parse(serialize(spec)) != spec:
            ok = False
    announce(10, ok, f"{len(valid)} valid + {len(invalid)} invalid files, "
                     "byte-identical reports, round trips")
