"""Verification harness on the standard instance set."""

import os
import random

import pytest

from amalgam import checks, cli, dsl
from amalgam.instances import standard_instances
from amalgam.checks import (
    betti_experiment,
    check_hypotheses,
    gldim_signature,
    hypotheses_of,
    kernel_transfer,
    pd_profile,
    power_iso,
    random_kernel_transfer_check,
    verify_idempotent_claim,
    verify_lemma_2_4,
    verify_remark_2_1,
    verify_thm_3_1_objects,
    verify_thm_3_4_bookkeeping,
)
from amalgam.amalgam import duplication
from amalgam.modules import (CokernelSpec, TypeTable, ideal_span,
                             minimal_resolution, submodule_span, syzygy)
from amalgam.rings import (FiniteRing, ModuleSpec, product, trivial_extension,
                           trunc_poly, zmod)
from amalgam.spectrum import idempotents, is_local, quotient_ring

from oracles import brute_ideals, second_component, structurally_equal


INSTANCES = standard_instances()


def dispatch(name, *args):
    """The record cli.run_job gives for job name on the given objects,
    under the default options."""
    builder = cli.Builder(65536)
    builder.env.update((f"x{i}", a) for i, a in enumerate(args))
    options = cli.build_argparser().parse_args(["check", "-"])
    return cli.run_job(builder, dsl.Job(name, [dsl.Ref(f"x{i}")
                                               for i in range(len(args))]),
                       options)


def test_a_job_is_timed_from_its_precondition_and_owns_its_record(monkeypatch):
    # a fake clock that only evaluating the hypothesis set moves, by 1 s
    clock = [0.0]
    real = checks.check_hypotheses

    def slow(am):
        clock[0] += 1.0
        return real(am)

    monkeypatch.setattr(checks, "check_hypotheses", slow)
    monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])

    def bundle():
        a = trunc_poly(2, 12)
        return duplication(a, ideal_span(a, [a.basis_element(11)]))

    # remark21's precondition evaluates the set; its check took no time
    assert dispatch("remark21", bundle()).wall_ms == 0
    d = bundle()
    first, second = dispatch("hypotheses", d), dispatch("hypotheses", d)
    assert (first.wall_ms, second.wall_ms) == (1000, 0)
    assert first is not second
    assert first.to_dict() == dict(second.to_dict(), wall_ms=1000)


def test_instances_sanity():
    for name, am in INSTANCES.items():
        assert am.ring.order() == am.a.order() * am.j.size(), name
        from amalgam.rings import verify_ring
        assert verify_ring(am.ring).ok, name
        assert verify_ring(am.subring).ok, name


def test_order_law_examples():
    dup = INSTANCES["dup_z4"]
    assert dup.ring.order() == 8
    t3 = INSTANCES["trunc_t3"]
    assert t3.ring.order() == 16
    assert t3.a.order() * t3.j.size() == 16


def test_duplication_with_zero_ideal_is_base():
    z4 = zmod(4)
    from amalgam.amalgam import duplication
    zero = ideal_span(z4, [])
    obj = duplication(z4, zero)
    assert obj.ring.order() == 4
    # isomorphic copy of A: same spectrum shape
    local, mx = is_local(obj.ring)
    assert local and mx.size() == 2


def test_hypotheses_pass_on_standard_instances():
    for name, am in INSTANCES.items():
        result = hypotheses_of(am)
        assert result.passed, name
        assert result.witnesses["j_min_generator_count"] >= 1


def test_hypotheses_flag_square_nonzero():
    a = trunc_poly(2, 3)
    x = a.basis_element(1)
    am = duplication(a, ideal_span(a, [x]))  # (x)^2 = (x^2) != 0
    result = check_hypotheses(am)
    assert result.witnesses["j_square_zero"] is False
    assert result.witnesses["detail"]["j_square_witness"] == [
        [0, 1, 0], [0, 1, 0], [0, 0, 1]]
    assert result.status == "fail"


def test_remark_2_1_on_standard_instances():
    for name, am in INSTANCES.items():
        result = verify_remark_2_1(am)
        assert result.passed, (name, result.reason, result.witnesses)
        assert result.witnesses["maximal_ideal_count"] == 1


def test_remark_2_1_trivial_j():
    z4 = zmod(4)
    from amalgam.amalgam import duplication
    obj = duplication(z4, ideal_span(z4, []))
    result = verify_remark_2_1(obj)
    assert result.passed


def test_power_iso_n1_and_n2():
    dup = INSTANCES["dup_z4"]
    r1 = power_iso(dup, 1)
    assert r1.passed and r1.witnesses["mode"] == "exhaustive"
    r2 = power_iso(dup, 2)
    assert r2.passed
    assert r2.witnesses["order"] == 64
    assert r2.witnesses["pairs_checked"] == 4096
    assert r2.witnesses["mode"] == "exhaustive"


def test_power_iso_n3_sampled():
    dup = INSTANCES["dup_z4"]
    r3 = power_iso(dup, 3, seed=7)
    assert r3.passed
    assert r3.witnesses["mode"] == "sampled"
    assert r3.witnesses["seed"] == 7


def test_kernel_transfer_spec_example():
    dup = INSTANCES["dup_z4"]
    a = dup.a
    u = [(a.from_int(2),)]
    k = [(dup.b.zero(),)]
    result = kernel_transfer(dup, 1, u, k)
    assert result.passed
    assert result.witnesses["kerv_size"] == 2
    assert result.witnesses["keru_size"] == 4
    assert not result.witnesses["pruned"]


def test_kernel_transfer_trivial_zero_instance():
    dup = INSTANCES["dup_z4"]
    a, b = dup.a, dup.b
    u = [(a.zero(),), (a.zero(),)]
    k = [(b.zero(),), (b.zero(),)]
    result = kernel_transfer(dup, 1, u, k)
    assert result.passed
    assert result.witnesses["keru_size"] == dup.ring.order() ** 2


def test_kernel_transfer_prunes_non_minimal_instance():
    # Non-minimal u-parts with nonzero k genuinely break the raw identity:
    # u = (2, 2), k = (2, 0) over the duplication gives Keru = M^2 |><| J^2
    # of order 16 while Kerv |><| J^2 has order 32.  The harness must prune.
    dup = INSTANCES["dup_z4"]
    a, b = dup.a, dup.b
    u = [(a.from_int(2),), (a.from_int(2),)]
    k = [(b.from_int(2),), (b.zero(),)]
    # raw engine computation shows the mismatch
    kerv = syzygy(a, u)
    keru = syzygy(dup.ring, [dup.embed_vector(uv, kv) for uv, kv in zip(u, k)])
    predicted_raw = dup.product_set_basis([(kerv, 2)])
    assert keru.basis != predicted_raw
    # the check prunes to an A-minimal u-part and then passes
    result = kernel_transfer(dup, 1, u, k)
    assert result.passed
    assert result.witnesses["pruned"]
    assert result.witnesses["surviving_indices"] == [0]


def test_kernel_transfer_rejects_bad_input():
    dup = INSTANCES["dup_z4"]
    a = dup.a
    result = kernel_transfer(dup, 1, [(a.one(),)], [(dup.b.zero(),)])
    assert result.status == "skipped"  # u not in M


def test_random_kernel_transfer_instances():
    rng = random.Random(12345)
    total = 0
    for name in ("dup_z4", "tower_dim1", "trunc_t3"):
        am = INSTANCES[name]
        for _ in range(12):
            p = rng.randint(1, 2)
            r = rng.randint(1, 3)
            result = random_kernel_transfer_check(am, p, r, rng)
            assert result.status in ("pass", "skipped"), (name, result.reason)
            if result.status == "pass":
                total += 1
    assert total >= 30


def test_lemma_2_4_reports_tables():
    dup = INSTANCES["dup_z4"]
    a = dup.a
    u = [(a.from_int(2),)]
    k = [(dup.b.zero(),)]
    result = verify_lemma_2_4(dup, 1, u, k, depth=4)
    assert result.passed
    assert "betti_w" in result.witnesses and "betti_u" in result.witnesses
    assert result.witnesses["betti_u"][0] >= 1


def test_lemma_2_4_two_slot_instance():
    dup = INSTANCES["dup_z4"]
    a = dup.a
    u = [(a.from_int(2), a.zero()), (a.zero(), a.from_int(2))]
    k = [(dup.b.zero(), dup.b.zero()), (dup.b.zero(), dup.b.zero())]
    result = verify_lemma_2_4(dup, 2, u, k, depth=3)
    assert result.passed


def test_idempotent_claim():
    dup = INSTANCES["dup_z4"]
    result = verify_idempotent_claim(dup)
    assert result.passed
    coords = {tuple(c) for c in result.witnesses["idempotents"]}
    assert coords == {(0, 0), (1, 0)}  # 0 and 1 in (a, j) coordinates
    t3 = INSTANCES["trunc_t3"]
    assert verify_idempotent_claim(t3).passed


def test_idempotent_witness_lists_every_idempotent():
    # the hypothesis set makes the amalgamation local, so 0 and 1 are all
    for name, am in INSTANCES.items():
        result = verify_idempotent_claim(am)
        assert result.passed, name
        assert (result.witnesses["idempotents"] ==
                [list(e.coords) for e in idempotents(am.ring)]), name


def test_idempotent_past_the_enumeration_budget():
    # order 2^17 > 65536: the claim needs no enumeration
    a = trunc_poly(2, 16)
    am = duplication(a, ideal_span(a, [a.basis_element(15)]))
    result = dispatch("idempotent", am)
    assert result.passed, result.reason
    assert result.witnesses["idempotents"] == [[0] * 17, [1] + [0] * 16]


def test_betti_experiment_standard_instances():
    for name in ("dup_z4", "tower_dim1", "trunc_t3"):
        am = INSTANCES[name]
        result = betti_experiment(am, depth=4)
        assert result.passed, (name, result.reason, result.witnesses)
        assert all(b >= 1 for b in result.witnesses["betti_mj"][:5])
        assert all(b >= 1 for b in result.witnesses["betti_zero_j"][:5])
        assert result.witnesses["resolution_issues"] == []


def test_betti_experiment_refuses_zero_j():
    z4 = zmod(4)
    obj = duplication(z4, ideal_span(z4, []))
    result = dispatch("betti", obj, 4)
    assert result.status == "skipped"
    assert result.reason == "requires the hypothesis set and J != 0"


def test_thm_3_1_objects():
    dup = INSTANCES["dup_z4"]
    k = dup.b.from_int(2)
    result = verify_thm_3_1_objects(dup, k, depth=6)
    assert result.passed, result.witnesses
    assert result.witnesses["annihilator_is_mj"]
    assert result.witnesses["k_times_ideal_zero"]
    assert not result.witnesses["ideal_projective"]
    assert result.witnesses["quotient_verdict"] == "at_least:6"
    # zero k is rejected
    assert verify_thm_3_1_objects(dup, dup.b.zero()).status == "skipped"


def test_thm_3_4_bookkeeping():
    dup = INSTANCES["dup_z4"]
    m = dup.a.from_int(2)
    result = verify_thm_3_4_bookkeeping(dup, m, levels=3)
    assert result.passed, result.witnesses
    assert result.witnesses["contains_zero_j"]
    assert not result.witnesses["equals_zero_j"]  # m is a zero divisor here
    assert all(step["match"] for step in result.witnesses["cascade"])
    # m = 0: syzygy is the whole ring, still reported
    r0 = verify_thm_3_4_bookkeeping(dup, dup.a.zero(), levels=1)
    assert r0.witnesses["syzygy_size"] == dup.ring.order()


def test_gldim_signature():
    z5 = zmod(5)
    res = gldim_signature(z5, depth=8)
    assert res.passed and res.witnesses["verdict"] == "exact:0"
    z4 = zmod(4)
    res = gldim_signature(z4, depth=8)
    assert res.passed and res.witnesses["verdict"] == "at_least:8"
    t3 = INSTANCES["trunc_t3"]
    res = gldim_signature(t3.ring, depth=6)
    assert res.passed and res.witnesses["verdict"] == "at_least:6"


def test_pd_profile():
    res = pd_profile(zmod(2), depth=6)
    assert res.passed
    assert res.witnesses["max_finite_pd"] == 0
    assert res.witnesses["deep_verdicts"] == 0
    res = pd_profile(zmod(4), depth=6)
    assert res.passed
    assert res.witnesses["deep_verdicts"] >= 1
    dup = INSTANCES["dup_z4"]
    res = pd_profile(dup.ring, depth=6)
    assert res.passed
    assert res.witnesses["deep_verdicts"] >= 2
    res = dispatch("pd_profile", zmod(6), 6)
    assert res.status == "skipped" and res.reason == "ring is not local"


def test_pd_profile_lists_principal_ideals_past_the_exhaustive_cap():
    # order 512 > PD_EXHAUSTIVE_CAP: the principal ideals (x^k), 1 <= k <= 9
    res = pd_profile(trunc_poly(2, 9), 3)
    assert res.passed
    assert res.witnesses["mode"] == "principal_only"
    assert [row["ideal_size"] for row in res.witnesses["ideals"]] == [
        2 ** k for k in range(9)]
    assert res.witnesses["deep_verdicts"] == 8


def test_pd_profile_skips_an_ideal_lattice_past_the_budget():
    # F2 |x F2^6 has order 128, and its 2825 ideals exceed PD_IDEAL_BUDGET
    f2 = zmod(2)
    ring = trivial_extension(f2, ModuleSpec(f2, [2] * 6, [
        [[int(i == j) for j in range(6)] for i in range(6)]]))
    assert ring.order() == 128
    res = pd_profile(ring, 3)
    assert (res.status, res.reason) == ("skipped",
                                        "ideal lattice exceeds the budget")


def _small_local_rings():
    """Each local ring of order <= 64 among the standard instances and the
    valid corpus files' declarations, once per structure."""
    rings = {}

    def add(r):
        if isinstance(r, FiniteRing) and r.order() <= 64 and is_local(r)[0]:
            rings.setdefault((r.char, r.orders, r.tensor, r.unit), r)

    for am in INSTANCES.values():
        for r in (am.a, am.b, am.ring):
            add(r)
    for name in ("duplication_z4", "idealization_tower", "truncation_t3",
                 "duplication_mixed_orders"):
        path = os.path.join(os.path.dirname(__file__), "..", "corpus",
                            f"{name}.ring")
        with open(path, encoding="utf-8") as fh:
            spec = dsl.parse(fh.read())
        builder = cli.Builder(65536)
        for decl in spec.decls():
            value = builder.env[decl.name] = builder.eval_expr(decl.expr)
            add(value if isinstance(value, FiniteRing)
                else getattr(value, "ring", None))
    return list(rings.values())


@pytest.mark.parametrize("depth", [0, 1, 4])
def test_pd_profile_gives_the_engines_verdict_on_every_quotient(depth):
    # pd_profile answers from Auslander-Buchsbaum; here the engine resolves
    # R/I for every proper ideal I, the ideals found by brute force
    rings = _small_local_rings()
    assert len(rings) >= 10
    for ring in rings:
        _, mx = is_local(ring)
        whole = submodule_span(ring, 1, [(ring.one(),)])
        table = TypeTable(ring, mx)
        ideals = sorted((ideal_span(ring, [ring.element(x) for x in elems])
                         for elems in brute_ideals(ring)),
                        key=lambda i: i.basis.rows)
        proper = [i for i in ideals if i.is_proper()]
        verdicts = [minimal_resolution(ring, CokernelSpec(whole, i), mx,
                                       depth, table=table).verdict
                    for i in proper]
        res = pd_profile(ring, depth)
        assert res.passed, ring.name
        assert res.witnesses == {
            "mode": "exhaustive",
            "ideals": [{"ideal_size": i.size(), "verdict": f"{kind}:{value}"}
                       for i, (kind, value) in zip(proper, verdicts)],
            "max_finite_pd": max([v for k, v in verdicts if k == "exact"],
                                 default=0),
            "deep_verdicts": sum(k == "at_least" for k, _ in verdicts),
            "depth": depth}, ring.name


def test_amalgamation_closure_against_pair_arithmetic():
    # coordinates encode pairs (a, f(a)+j); ring arithmetic must agree with
    # the literal subring arithmetic of A x B, exhaustively on small orders
    for name in ("dup_z4", "tower_dim1", "trunc_t3"):
        am = INSTANCES[name]
        elems = list(am.ring.elements())
        for x in elems:
            ax, bx = am.decompose(x)
            sx = second_component(am, x)
            for y in elems:
                ay, by = am.decompose(y)
                sy = second_component(am, y)
                z = x * y
                az, _ = am.decompose(z)
                assert az == ax * ay
                assert second_component(am, z) == sx * sy
                w = x + y
                aw, _ = am.decompose(w)
                assert aw == ax + ay
                assert second_component(am, w) == sx + sy


def test_image_plus_j_examples():
    from amalgam.amalgam import image_plus_J
    from amalgam.rings import RingHom, zmod, trunc_poly
    from amalgam.modules import ideal_span, zero_ideal
    # identity hom with any J gives back the whole ring
    z4 = zmod(4)
    ideal2 = ideal_span(z4, [z4.from_int(2)])
    sub, incl, _ = image_plus_J(RingHom.identity(z4), ideal2)
    assert sub.order() == 4
    # f: Z/4 -> Z/2 canonical with J = 0 gives a subring of order 2
    z2 = zmod(2)
    f = RingHom(z4, z2, [(1,)])
    sub, incl, _ = image_plus_J(f, zero_ideal(z2))
    assert sub.order() == 2
    # truncation instance: f(A) + J is all of B
    t3 = INSTANCES["trunc_t3"]
    assert t3.subring.order() == t3.b.order()


def test_duplication_equals_amalgamation_along_identity():
    from amalgam.amalgam import amalgamation, duplication
    from amalgam.rings import RingHom, zmod
    z4 = zmod(4)
    i2 = ideal_span(z4, [z4.from_int(2)])
    dup = duplication(z4, i2)
    amal = amalgamation(z4, z4, RingHom.identity(z4), i2)
    assert structurally_equal(dup.ring, amal.ring)
    assert dup.mj.basis == amal.mj.basis
    assert dup.zero_j.basis == amal.zero_j.basis


def test_non_local_duplication():
    from amalgam.amalgam import duplication
    from amalgam.rings import product, zmod
    from amalgam.spectrum import idempotents
    a = product(zmod(2), zmod(2))
    # I = 0 x Z/2 inside Z/2 x Z/2
    i = ideal_span(a, [a.basis_element(1)])
    obj = duplication(a, i)
    assert obj.ring.order() == 8
    assert not obj.a_local and obj.mj is None
    local, _ = is_local(obj.ring)
    assert not local
    nontrivial = [e for e in idempotents(obj.ring)
                  if not e.is_zero() and e != obj.ring.one()]
    assert nontrivial


def test_hypotheses_over_a_non_local_subring_count_greedily():
    # f(A) + J = Z/2 x Z/4 is not local, so the generator count of J is the
    # size of a greedy irredundant subset, flagged as an upper bound
    from amalgam.amalgam import duplication
    from amalgam.rings import product
    a = product(zmod(2), zmod(4))
    am = duplication(a, ideal_span(a, [a.element((0, 2))]))
    result = hypotheses_of(am)
    assert result.witnesses["subring_local"] is False
    assert result.witnesses["j_min_generator_count"] == 1
    assert result.witnesses["detail"]["j_count_is_upper_bound"] is True
    assert [g.coords for g in am.j_subring_generators()] == [(0, 2)]


@pytest.mark.parametrize("budget, witness", [(7, None), (8, [0, 1])])
def test_hypotheses_name_an_idempotent_of_a_non_local_base_within_the_budget(
        budget, witness):
    # the first idempotent of Z/2 x Z/4 other than 0 and 1, when A's 8
    # elements fit the budget the bundle was built with
    a = product(zmod(2), zmod(4))
    am = duplication(a, ideal_span(a, [a.element((0, 2))]), budget=budget)
    result = hypotheses_of(am)
    assert result.status == "fail"
    assert result.witnesses["detail"].get("a_nontrivial_idempotent") == witness


def test_hypotheses_enumerate_nothing_over_a_local_base():
    z4 = zmod(4)
    assert hypotheses_of(duplication(z4, ideal_span(z4, [z4.from_int(2)]),
                                     budget=2)).passed


def test_select_generators_is_nakayama_when_local_and_greedy_otherwise():
    from amalgam.modules import minimal_generators, select_generators
    from amalgam.rings import product
    a = product(zmod(2), zmod(4))
    # (1, 0) and (0, 2) lie in the ideal (1, 2) generates
    ideal = ideal_span(a, [a.element((1, 2)), a.element((1, 0)),
                           a.element((0, 2))])
    assert [g[0].coords for g in select_generators(ideal, False, None)] == [(1, 2)]
    for name, am in INSTANCES.items():
        mj = am.mj
        local, mx = am.ring_local()
        assert select_generators(mj, local, mx) == minimal_generators(mj, mx), name


def test_residue_field_of_duplication():
    dup = INSTANCES["dup_z4"]
    field, pi = quotient_ring(dup.ring, dup.ring_local()[1])
    assert field.order() == 2
    assert pi(dup.ring.one()) == field.one()


def test_nilradical_agreement_on_instance_rings():
    from amalgam.spectrum import nilradical
    from oracles import enumerate_span, is_nilpotent
    for name in ("dup_z4", "tower_dim1", "trunc_t3"):
        ring = INSTANCES[name].ring
        nil = nilradical(ring)
        brute = {x.coords for x in ring.elements() if is_nilpotent(x)}
        mine = {ring.unscaled(row) for row in enumerate_span(nil.basis)}
        assert mine == brute, name


def test_power_iso_exhaustive_on_small_instances():
    for name in ("tower_dim1", "trunc_t3"):
        result = power_iso(INSTANCES[name], 2)
        assert result.passed, name
        assert result.witnesses["mode"] == "exhaustive"


def test_random_kernel_transfer_keeps_the_skip_when_every_draw_degenerates():
    # over a field A the u-parts are 0; with k != 0 no u-part survives the
    # minimality pruning, however often the instance is drawn again
    from amalgam.amalgam import amalgamation
    from amalgam.rings import RingHom, trunc_poly

    a, b = zmod(2), trunc_poly(2, 2)
    f = RingHom(a, b, [(1, 0)])
    am = amalgamation(a, b, f, ideal_span(b, [b.element((0, 1))]))

    class Ones:
        calls = 0

        def randrange(self, n):
            Ones.calls += 1
            return 1

    result = random_kernel_transfer_check(am, 1, 2, Ones())
    assert result.status == "skipped"
    assert result.reason == "instance degenerates after minimality pruning"
    assert "draws" not in result.witnesses
    assert Ones.calls == 16 * 2  # 16 draws of one J-coordinate per k-vector


def test_thm34_cascade_decides_the_subring_locality_once(monkeypatch):
    from amalgam import spectrum

    am = standard_instances()["trunc_t3"]
    calls = []
    real = spectrum._is_local

    def counting(ring):
        calls.append(ring)
        return real(ring)

    # the Frobenius rank runs once per ring; is_local caches its flag
    monkeypatch.setattr(spectrum, "_is_local", counting)
    m = am.a.element((0, 1, 0))
    for _ in range(2):
        result = verify_thm_3_4_bookkeeping(am, m, levels=3)
        assert result.passed and len(result.witnesses["cascade"]) == 3
    assert sum(ring is am.subring for ring in calls) == 1
    assert am.j_subring_generators() is am.j_subring_generators()


# the generator count of J over f(A) + J on each standard instance
J_SUBRING_COUNTS = {"dup_z4": 1, "tower_dim1": 1, "tower_dim2": 2,
                    "trunc_t3": 1, "trunc_t4": 1}


def test_hypotheses_of_uses_the_bundles_own_subring(monkeypatch):
    from amalgam import spectrum

    calls, asked = [], []
    real, real_is_local = spectrum._is_local, spectrum.is_local

    def counting(ring):
        calls.append(ring)
        return real(ring)

    def asking(ring):
        asked.append(ring)
        return real_is_local(ring)

    fresh = standard_instances()
    assert set(fresh) == set(J_SUBRING_COUNTS)
    for name, am in fresh.items():
        monkeypatch.setattr(spectrum, "_is_local", counting)
        monkeypatch.setattr(spectrum, "is_local", asking)
        result = hypotheses_of(am)
        # the subring's locality is decided once per bundle, shared with
        # the thm34 cascade
        am.j_subring_generators()
        monkeypatch.undo()
        assert result.to_dict() == {
            "name": "hypotheses", "claim": checks.CLAIMS["hypotheses"],
            "status": "pass", "reason": None, "wall_ms": 0,
            "witnesses": {
                "a_local": True, "j_proper": True, "j_square_zero": True,
                "fmj_zero": True,
                "j_min_generator_count": J_SUBRING_COUNTS[name],
                "subring_local": True, "witnesses": {}, "detail": {}}}, name
        assert list(result.witnesses) == [
            "a_local", "j_proper", "j_square_zero", "fmj_zero",
            "j_min_generator_count", "subring_local", "witnesses", "detail"]
    assert sum(ring is am.subring for am in fresh.values() for ring in calls) == len(fresh)
    # the base's locality is read off the bundle, not asked again
    assert not any(ring is am.a for am in fresh.values() for ring in asked)


@pytest.mark.parametrize("error, caught", [(ValueError, True),
                                          (TypeError, False)])
def test_only_a_value_error_from_the_subring_becomes_a_witness(
        monkeypatch, error, caught):
    # f(A) + J and J inside it raise ValueError (RingConstructionError is
    # one) on bad input; any other exception is a defect and propagates
    from amalgam.amalgam import AmalgamObjects

    def broken(self):
        raise error("no generators")

    am = standard_instances()["dup_z4"]
    monkeypatch.setattr(AmalgamObjects, "j_subring_generators", broken)
    if not caught:
        with pytest.raises(error):
            hypotheses_of(am)
        return
    result = hypotheses_of(am)
    assert result.witnesses["detail"]["subring_error"] == "no generators"
    assert result.witnesses["j_min_generator_count"] is None
    assert result.passed


def _outside_the_hypothesis_set():
    # A local, J = (x^2) proper with J^2 = 0, but f(M)J holds x * x^2 != 0
    a = trunc_poly(2, 4)
    return duplication(a, ideal_span(a, [a.basis_element(2)]))


def _non_local_base():
    a = product(zmod(2), zmod(4))
    return duplication(a, ideal_span(a, [a.element((0, 2))]))


def _zero_j():
    z4 = zmod(4)
    return duplication(z4, ideal_span(z4, []))


# an instance failing each precondition, and only that one where it can
FAILS = {
    "local": lambda: zmod(6),
    "over_local_ring": lambda: ideal_span(zmod(6), []),
    "hypotheses": _outside_the_hypothesis_set,
    "hypotheses_and_j": _zero_j,
    "local_base_square_zero_j": _non_local_base,
}


def _arguments(name, subject):
    """Job arguments of the right kinds on subject, zero where they can be."""
    args = []
    for kind in dsl.JOBS[name]:
        if kind in ("amalgam", "ring", "submodule"):
            args.append(subject)
        elif kind in ("count", "draws_or_vectors", "depth", "short_depth"):
            args.append(1)
        elif kind in ("a_element", "b_element"):
            ring = subject.a if kind == "a_element" else subject.b
            args.append([0] * ring.rank)
        elif kind == "vectors":
            args += [[[0] * subject.a.rank], [[0] * subject.b.rank]]
    return args


@pytest.mark.parametrize("name", sorted(n for n, (pre, _) in checks.JOBS.items()
                                        if pre is not None))
def test_every_job_is_skipped_when_its_precondition_fails(name):
    precondition, _ = checks.JOBS[name]
    subject = FAILS[precondition]()
    holds, reason = checks.PRECONDITIONS[precondition]
    assert not holds(subject)
    result = dispatch(name, *_arguments(name, subject))
    assert result.status == "skipped"
    assert (result.name, result.reason) == (name, reason)
    assert result.claim == checks.CLAIMS[name]


def test_the_parser_and_the_dispatcher_know_the_same_jobs():
    assert set(dsl.JOBS) == set(checks.JOBS) == set(checks.CLAIMS)
    assert {pre for pre, _ in checks.JOBS.values()} - {None} == set(
        checks.PRECONDITIONS)


@pytest.mark.parametrize("name", ["duplication_z4", "idealization_tower",
                                  "truncation_t3", "duplication_mixed_orders"])
def test_a_resolving_check_gives_the_same_record_without_the_runs_table(name):
    # each job runs on the table the earlier jobs filled, then again with
    # no table, which resolves on a fresh one
    path = os.path.join(os.path.dirname(__file__), "..", "corpus", f"{name}.ring")
    with open(path, encoding="utf-8") as fh:
        spec = dsl.parse(fh.read())
    options = cli.build_argparser().parse_args(["check", path])
    builder = cli.Builder(options.max_order)
    compared = 0
    for stmt in spec.statements:
        if isinstance(stmt, dsl.Decl):
            builder.env[stmt.name] = builder.eval_expr(stmt.expr)
            continue
        shared = cli.run_job(builder, stmt, options).to_dict()
        if "types" not in dsl.JOBS[stmt.name]:
            continue
        assert dsl.JOBS[stmt.name][-1] == "types"
        values = cli._job_values(builder, stmt, options)
        assert values[-1] is builder.type_table(values[0]) is not None
        fresh = checks.JOBS[stmt.name][1](*values[:-1]).to_dict()
        assert shared["status"] == "pass", stmt.name
        del shared["wall_ms"], fresh["wall_ms"]
        assert fresh == shared, stmt.name
        compared += 1
    assert compared
