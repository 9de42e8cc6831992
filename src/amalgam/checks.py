"""Executable verification harness for the amalgamation constructions.

Each check evaluates one structural claim about A |><|^f J on a concrete
finite instance and returns a CheckResult carrying pass/fail/skipped plus
witnesses.  Checks never raise on mathematical failure; they raise only on
malformed inputs.  A check holds only under its job's precondition (JOBS,
PRECONDITIONS), which cli.run_job applies; a direct call assumes it.

The hypothesis set is evaluated on the AmalgamObjects bundle alone, once
per bundle (hypotheses_of); the preconditions read that record.

The kernel-transfer checks assume the generating tuple is compatible with
the transfer identity: the identity Keru = Kerv |><| J^r requires that the
linear functional sum f(a_i) k_i vanish on Kerv, which holds automatically
when the u-parts form a minimal generating set over the (local) base ring.
The harness verifies the vanishing directly and, failing that, prunes the
instance to an A-minimal u-subset before re-checking; the pruning is
recorded in the result.
"""

import random

from .znlinalg import span_builder
from .rings import DEFAULT_MAX_ORDER, HomomorphismError, RingHom, verify_ring
from .modules import (CokernelSpec, TypeTable, global_dimension_signature,
                      ideal_span, ideal_sum, is_projective,
                      minimal_generators, minimal_resolution,
                      submodule_span, syzygy)
from . import spectrum
from .amalgam import (AmalgamObjects, hom_power, ideal_power,
                      power_slot_element, ring_power)

DEFAULT_DEPTH = 6
# power_iso past the exhaustive budget checks this many random pairs
POWER_ISO_SAMPLES = 10000
# pd_profile lists every ideal of a ring up to this order, and at most
# this many ideals
PD_EXHAUSTIVE_CAP = 256
PD_IDEAL_BUDGET = 512

# the claim each job's record states
CLAIMS = {
    "hypotheses": "the base is local and J is proper with J^2 = 0 and f(M)J = 0",
    "remark21": ("an amalgamation of a local base along a proper square-zero "
                 "ideal is local with maximal ideal M |><| J"),
    "power_iso": ("coordinate shuffling is a ring isomorphism onto the power "
                  "amalgamation"),
    "kernel_transfer": ("the syzygies of (u_i, f(u_i)+k_i) over the "
                        "amalgamation are exactly Kerv |><| J^r for Kerv the "
                        "base syzygies of (u_i)"),
    "lemma24": ("the first syzygy of W transfers to the base and the Betti "
                "tables of W and U are recorded"),
    "idempotent": ("the maximal ideal of the amalgamation is not generated by "
                   "an idempotent"),
    "betti": ("the maximal ideal and {0} x J have strictly positive Betti "
              "numbers to the cut-off, the finite-scale signature of infinite "
              "projective dimension"),
    "thm31": ("the annihilator of (0,k) is M |><| J, I = R(0,k) is "
              "self-annihilating and not projective, and R/I resists finite "
              "resolution to the cut-off"),
    "thm34": ("the syzygies of (m, f(m)) contain {0} x J, and the kernel "
              "cascade of the depth-3 argument matches the predicted product "
              "shapes"),
    "pd_profile": ("tabulated projective-dimension verdicts of quotients by "
                   "ideals; the honest finite-scale proxy for uniform bounds"),
    "gldim": ("the residue field's resolution terminates exactly for fields "
              "and resists to the cut-off otherwise"),
    "ringcheck": "structure constants satisfy the ring axioms",
    "resolve": ("the minimal resolution of the ideal or submodule over its "
                "local ring validates to the cut-off"),
    "spectrum": "the nilradical and the maximal ideals of the ring",
}


class CheckResult:
    """Outcome record of one verification check."""

    __slots__ = ("name", "claim", "status", "reason", "witnesses", "wall_ms")

    def __init__(self, name, claim, status, reason=None, witnesses=None,
                 wall_ms=0):
        self.name = name
        self.claim = claim
        self.status = status
        self.reason = reason
        self.witnesses = witnesses or {}
        self.wall_ms = wall_ms

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return {
            "name": self.name,
            "claim": self.claim,
            "status": self.status,
            "reason": self.reason,
            "witnesses": self.witnesses,
            "wall_ms": self.wall_ms,
        }

    def __repr__(self):
        return f"CheckResult({self.name}: {self.status})"


def record(name, ok, fail_reason, witnesses=None):
    """The pass or fail record of job name."""
    return CheckResult(name, CLAIMS[name], "pass" if ok else "fail",
                       reason=None if ok else fail_reason, witnesses=witnesses)


def skipped(name, reason):
    """The skipped record of job name."""
    return CheckResult(name, CLAIMS[name], "skipped", reason=reason)


def _coords_list(elem):
    return list(elem.coords)


def check_hypotheses(am):
    """Evaluate the hypothesis set on the bundle; never raises on failure."""
    witnesses = {}
    a_local, m_a = am.a_local, am.a_max
    # the idempotent is only a witness: past the budget it is left out
    if not a_local and am.a.order() <= am.budget:
        nontrivial = [e for e in spectrum.idempotents(am.a, am.budget)
                      if not e.is_zero() and e != am.a.one()]
        if nontrivial:
            witnesses["a_nontrivial_idempotent"] = _coords_list(nontrivial[0])
    # AmalgamObjects refuses an improper J, so this is always True
    j_proper = am.j.is_proper()
    j_rows = am.j.element_rows()
    square = next(((x, y) for x in j_rows for y in j_rows
                   if not (x * y).is_zero()), None)
    j_square_zero = square is None
    if square:
        x, y = square
        witnesses["j_square_witness"] = [
            _coords_list(x), _coords_list(y), _coords_list(x * y)]
    fmj_zero = None
    if a_local:
        images = ((m, am.f(m)) for m in m_a.element_rows())
        fmj = next(((m, g) for m, fm in images for g in j_rows
                    if not (fm * g).is_zero()), None)
        fmj_zero = fmj is None
        if fmj:
            witnesses["fmj_witness"] = [_coords_list(e) for e in fmj]
    # generator count of J over the subring f(A) + J: the minimal count
    # over a local subring, otherwise only an upper bound
    count = None
    subring_local = None
    try:
        subring_local, _ = spectrum.is_local(am.subring)
        count = len(am.j_subring_generators())
        if not subring_local:
            witnesses["j_count_is_upper_bound"] = True
    except ValueError as exc:  # construction-level failure becomes a witness
        witnesses["subring_error"] = str(exc)
    return record("hypotheses",
                  bool(a_local and j_proper and j_square_zero and fmj_zero),
                  "hypothesis set violated",
                  {"a_local": a_local, "j_proper": j_proper,
                   "j_square_zero": j_square_zero, "fmj_zero": fmj_zero,
                   "j_min_generator_count": count,
                   "subring_local": subring_local, "witnesses": witnesses,
                   "detail": witnesses})


def hypotheses_of(am):
    """check_hypotheses(am), cached on the bundle; each caller gets its own
    copy of the record, so each job's record keeps its own wall time."""
    if am._hypotheses is None:
        am._hypotheses = check_hypotheses(am)
    r = am._hypotheses
    return CheckResult(r.name, r.claim, r.status, r.reason, r.witnesses)


def _local_base_square_zero_j(am):
    w = hypotheses_of(am).witnesses
    return w["a_local"] and w["j_proper"] and w["j_square_zero"]


# A job's precondition: a test on the job's first argument, and the reason
# its record is skipped when the test fails.
PRECONDITIONS = {
    "local": (lambda ring: spectrum.is_local(ring)[0], "ring is not local"),
    "over_local_ring": (lambda module: spectrum.is_local(module.ring)[0],
                        "ring is not local"),
    "hypotheses": (lambda am: hypotheses_of(am).passed,
                   "hypothesis set not met"),
    "hypotheses_and_j": (
        lambda am: hypotheses_of(am).passed and am.j.size() > 1,
        "requires the hypothesis set and J != 0"),
    "local_base_square_zero_j": (
        _local_base_square_zero_j,
        "hypotheses (local base, proper J, J^2=0) not met"),
}


def verify_remark_2_1(am):
    """Locality of the amalgamation and identification of its maximal ideal."""
    mx = spectrum.maximal_ideals(am.ring, am.budget)
    nil_b = spectrum.nilradical(am.b)
    j_in_radical = all(nil_b.contains_element(x)
                       for x in am.j.element_rows())
    ok = (len(mx) == 1 and mx[0].basis == am.mj.basis and j_in_radical)
    witnesses = {
        "maximal_ideal_count": len(mx),
        "maximal_ideal_sizes": [m.size() for m in mx],
        "expected_mj_size": am.mj.size(),
        "j_inside_radical_of_b": j_in_radical,
    }
    return record("remark21", ok, "maximal ideal mismatch", witnesses)


def power_iso(am, n, seed=0):
    """Verified ring isomorphism between (A |><| J)^n and A^n |><| J^n,
    exhaustive while |R^n|^2 fits the bundle's budget."""
    r_n, a_n, b_n = (ring_power(x, n) for x in (am.ring, am.a, am.b))
    f_n = hom_power(am.f, n, a_n, b_n)
    j_n = ideal_power(am.j, n, b_n)
    target = AmalgamObjects(a_n, b_n, f_n, j_n, budget=am.budget)
    s = target.ring
    da, k = am.a.rank, len(am.j_orders)
    rows = []
    for slot in range(n):
        for i in range(da):
            a_slot = power_slot_element(a_n, am.a, n, slot,
                                        am.a.basis_element(i))
            rows.append(target.embed(a_slot, b_n.zero()).coords)
        for l in range(k):
            j_slot = power_slot_element(b_n, am.b, n, slot,
                                        am.j_group_basis[l])
            rows.append(target.embed(a_n.zero(), j_slot).coords)
    try:
        phi = RingHom(r_n, s, rows)
    except HomomorphismError as exc:
        return record("power_iso", False, str(exc))
    # bijective: orders agree and the additive image has full size
    image = span_builder(s.char, s.rank)
    for i in range(r_n.rank):
        image.insert(list(s.scaled(phi.apply_coords(
            r_n.basis_element(i).coords))))
    bijective = (r_n.order() == s.order() == image.basis().span_size())
    total = r_n.order()
    exhaustive = total * total <= am.budget
    # phi(x*y) == phi(x)*phi(y) on coordinate tuples, pair by pair; in
    # exhaustive mode R^n is enumerated and mapped by phi once
    if exhaustive:
        xs = [e.coords for e in r_n.elements(am.budget)]
        images = [phi.apply_coords(x) for x in xs]
        pairs = ((x, px, y, py) for x, px in zip(xs, images)
                 for y, py in zip(xs, images))
    else:
        rng = random.Random(seed)

        def sampled():
            for _ in range(POWER_ISO_SAMPLES):
                x = tuple(rng.randrange(o) for o in r_n.orders)
                y = tuple(rng.randrange(o) for o in r_n.orders)
                yield x, phi.apply_coords(x), y, phi.apply_coords(y)
        pairs = sampled()
    pairs_checked = 0
    multiplicative = True
    for x, px, y, py in pairs:
        if phi.apply_coords(r_n.mul_coords(x, y)) != s.mul_coords(px, py):
            multiplicative = False
            break
        pairs_checked += 1
    return record(
        "power_iso", bijective and multiplicative,
        "isomorphism verification failed",
        {"n": n, "order": total, "bijective": bijective,
         "pairs_checked": pairs_checked,
         "mode": "exhaustive" if exhaustive else "sampled",
         "seed": None if exhaustive else seed})


# -- kernel transfer ----------------------------------------------------------

def _kappa_vanishes(am, kerv, k_vectors):
    """Does sum_i f(a_i) k_i vanish for every a in the given kernel span?"""
    b = am.b
    p = len(k_vectors[0]) if k_vectors else 1
    for row in kerv.rows_as_vectors():
        acc = [b.zero()] * p
        for alpha, kvec in zip(row, k_vectors):
            fa = am.f(alpha)
            if fa.is_zero():
                continue
            for s in range(p):
                acc[s] = acc[s] + fa * kvec[s]
        if not all(e.is_zero() for e in acc):
            return False
    return True


def _prune_to_a_minimal(am, u_vectors):
    """Keep index subset with u-parts an A-minimal generating family."""
    u_span = submodule_span(am.a, len(u_vectors[0]), u_vectors)
    chosen = minimal_generators(u_span, am.a_max, gens=u_vectors)
    kept_idx = []
    for idx, g in enumerate(u_vectors):
        if len(kept_idx) < len(chosen) and tuple(g) == chosen[len(kept_idx)]:
            kept_idx.append(idx)
    return kept_idx


_DEGENERATE = "instance degenerates after minimality pruning"
_MAX_DRAWS = 16


def _kernel_transfer_data(am, u_vectors, k_vectors):
    """Shared computation for the kernel-transfer checks, on equally many
    (at least one) u vectors over A and k vectors over B of one rank.

    Returns (status, reason, data) where data holds kerv, keru, the
    predicted product basis and the surviving indices.
    """
    a = am.a
    for u in u_vectors:
        for x in u:
            if not am.a_max.contains_element(x):
                return "skipped", "a u-part coordinate lies outside the maximal ideal", None
    for kv in k_vectors:
        for y in kv:
            if not am.j.contains_element(y):
                return "skipped", "a k-part coordinate lies outside J", None
    idx = list(range(len(u_vectors)))
    kerv = syzygy(a, u_vectors)
    pruned = False
    if not _kappa_vanishes(am, kerv, k_vectors):
        keep = _prune_to_a_minimal(am, u_vectors)
        if not keep:
            return "skipped", _DEGENERATE, None
        pruned = True
        idx = keep
        u_vectors = [u_vectors[i] for i in keep]
        k_vectors = [k_vectors[i] for i in keep]
        kerv = syzygy(a, u_vectors)
        if not _kappa_vanishes(am, kerv, k_vectors):
            return "skipped", "transfer precondition fails even after pruning", None
    w_gens = [am.embed_vector(u, kv) for u, kv in zip(u_vectors, k_vectors)]
    keru = syzygy(am.ring, w_gens)
    predicted = am.product_set_basis([(kerv, len(u_vectors))])
    data = {
        "indices": idx,
        "pruned": pruned,
        "u_vectors": u_vectors,
        "k_vectors": k_vectors,
        "w_gens": w_gens,
        "kerv": kerv,
        "keru": keru,
        "predicted": predicted,
    }
    return "ok", None, data


def kernel_transfer(am, p, u_vectors, k_vectors, seed=0):
    """The kernel transfer identity for a given generating tuple; with
    u_vectors a count r and k_vectors None, random_kernel_transfer_check
    on r random vectors drawn from the seed."""
    if k_vectors is None:
        return random_kernel_transfer_check(am, p, u_vectors,
                                            random.Random(seed))
    status, reason, data = _kernel_transfer_data(am, u_vectors, k_vectors)
    if status != "ok":
        return skipped("kernel_transfer", reason)
    witnesses = {
        "kerv_size": data["kerv"].size(),
        "keru_size": data["keru"].size(),
        "predicted_size": data["predicted"].span_size(),
        "pruned": data["pruned"],
        "surviving_indices": data["indices"],
    }
    return record("kernel_transfer", data["keru"].basis == data["predicted"],
                  "span mismatch", witnesses)


def verify_lemma_2_4(am, p, u_vectors, k_vectors, depth=4, table=None):
    """Kernel transfer for W plus Betti tables of W and U, under the
    hypothesis set (so the amalgamation is local); U resolves on a fresh
    table."""
    status, reason, data = _kernel_transfer_data(am, u_vectors, k_vectors)
    if status != "ok":
        return skipped("lemma24", reason)
    _, mx = am.ring_local()
    w_sub = submodule_span(am.ring, p, data["w_gens"])
    res_w = minimal_resolution(am.ring, w_sub, mx, depth, table=table)
    u_sub = submodule_span(am.a, p, data["u_vectors"])
    res_u = minimal_resolution(am.a, u_sub, am.a_max, depth)
    witnesses = {
        "pruned": data["pruned"],
        "surviving_indices": data["indices"],
        "keru_size": data["keru"].size(),
        "betti_w": list(res_w.betti),
        "betti_u": list(res_u.betti),
    }
    return record("lemma24", data["keru"].basis == data["predicted"],
                  "span mismatch", witnesses)


def verify_idempotent_claim(am):
    """No idempotent generates M |><| J.  Under the hypothesis set the
    amalgamation is local (remark21), so its idempotents are 0 and 1."""
    idems = (am.ring.zero(), am.ring.one())
    offenders = [_coords_list(e) for e in idems
                 if ideal_span(am.ring, [e]).basis == am.mj.basis]
    return record("idempotent", not offenders,
                  "an idempotent generates the maximal ideal",
                  {"idempotents": [_coords_list(e) for e in idems],
                   "offenders": offenders})


def _summary(res):
    """(Betti list, "kind:value" verdict, validation issues) of res."""
    kind, value = res.verdict
    return list(res.betti), f"{kind}:{value}", res.validate()


def betti_experiment(am, depth=DEFAULT_DEPTH, table=None):
    """Betti positivity of M |><| J and {0} x J to the given depth, under
    the hypothesis set (so the amalgamation is local)."""
    _, mx = am.ring_local()
    table = table or TypeTable(am.ring, mx)
    res_mj = minimal_resolution(am.ring, am.mj, mx, depth, table=table)
    res_zj = minimal_resolution(am.ring, am.zero_j, mx, depth, table=table)
    betti_mj, _, issues_mj = _summary(res_mj)
    betti_zj, _, issues_zj = _summary(res_zj)
    issues = issues_mj + issues_zj
    positive = (all(b >= 1 for b in betti_mj[:depth + 1]) and
                all(b >= 1 for b in betti_zj[:depth + 1]))
    witnesses = {
        "betti_mj": betti_mj,
        "betti_zero_j": betti_zj,
        "periodic_mj": res_mj.periodic,
        "periodic_zero_j": res_zj.periodic,
        "resolution_issues": issues,
        "depth": depth,
    }
    return record("betti", positive and not issues,
                  "a Betti number vanished or a resolution was invalid",
                  witnesses)


def verify_thm_3_1_objects(am, k_elem, depth=DEFAULT_DEPTH, table=None):
    """Proof objects for the principal ideal I = R(0, k), k nonzero in J."""
    if k_elem.is_zero() or not am.j.contains_element(k_elem):
        return skipped("thm31", "k must be a nonzero element of J")
    gen = am.embed(am.a.zero(), k_elem)
    ideal_i = ideal_span(am.ring, [gen])
    syz = syzygy(am.ring, [(gen,)])
    ann_is_mj = syz.basis == am.mj.basis
    self_ann = all((gen * x).is_zero() for x in ideal_i.element_rows())
    _, mx = am.ring_local()
    projective = is_projective(am.ring, ideal_i, mx)
    whole = submodule_span(am.ring, 1, [(am.ring.one(),)])
    res = minimal_resolution(am.ring, CokernelSpec(whole, ideal_i), mx,
                             depth, table=table)
    betti, verdict, issues = _summary(res)
    kind, value = res.verdict
    deep = kind == "at_least" and value >= depth
    witnesses = {
        "k": _coords_list(k_elem),
        "annihilator_size": syz.size(),
        "mj_size": am.mj.size(),
        "annihilator_is_mj": ann_is_mj,
        "k_times_ideal_zero": self_ann,
        "ideal_projective": projective,
        "quotient_betti": betti,
        "quotient_verdict": verdict,
        "resolution_issues": issues,
    }
    return record("thm31", ann_is_mj and self_ann and not projective and deep,
                  "a proof object failed", witnesses)


# -- the (3,0) kernel cascade --------------------------------------------------

def _block_generators(am, blocks):
    """Generators of a direct sum of product modules U_b |><| J^{p_b}.

    Each block contributes pair generators (u, f(u)) for an A-minimal
    generating family of U_b and slot copies of the subring-minimal
    generators of J.  Returns (gens, next_blocks) where next_blocks is the
    predicted block decomposition of the syzygy module.
    """
    ring = am.ring
    total_rank = sum(p for (_, p) in blocks)
    j_mingens = am.j_subring_generators()
    gens = []
    next_blocks = []
    offset = 0
    for u_sub, p in blocks:
        u_mingens = minimal_generators(u_sub, am.a_max)
        for u in u_mingens:
            vec = [ring.zero()] * total_rank
            emb = am.embed_vector(u)
            for s in range(p):
                vec[offset + s] = emb[s]
            gens.append(tuple(vec))
        for s in range(p):
            for g in j_mingens:
                vec = [ring.zero()] * total_rank
                vec[offset + s] = am.embed(am.a.zero(), g)
                gens.append(tuple(vec))
        s_b = len(u_mingens)
        t_b = p * len(j_mingens)
        next_blocks.append((syzygy(am.a, u_mingens), s_b))
        next_blocks.extend([(am.a_max, 1)] * t_b)
        offset += p
    return gens, next_blocks


def verify_thm_3_4_bookkeeping(am, m_elem, levels=3):
    """Kernel bookkeeping for K = R(m, f(m)) plus the three-step cascade."""
    if not am.a_max.contains_element(m_elem):
        return skipped("thm34", "m must lie in the maximal ideal of A")
    gen = am.embed(m_elem, am.b.zero())
    syz = syzygy(am.ring, [(gen,)])
    contains = syz.contains_submodule(am.zero_j)
    witnesses = {
        "m": _coords_list(m_elem),
        "syzygy_size": syz.size(),
        "contains_zero_j": contains,
        "equals_zero_j": syz.basis == am.zero_j.basis,
        "m_is_zero": m_elem.is_zero(),
    }
    # the cascade: start from M |><| J and walk predicted syzygy shapes
    blocks = [(am.a_max, 1)]
    cascade_ok = True
    cascade_log = []
    for level in range(levels):
        gens, next_blocks = _block_generators(am, blocks)
        actual = syzygy(am.ring, gens)
        predicted = am.product_set_basis(next_blocks)
        match = actual.basis == predicted
        cascade_log.append({
            "level": level,
            "generators": len(gens),
            "kernel_size": actual.size(),
            "match": match,
        })
        if not match:
            cascade_ok = False
            break
        blocks = next_blocks
    witnesses["cascade"] = cascade_log
    return record("thm34", contains and cascade_ok, "bookkeeping mismatch",
                  witnesses)


def pd_profile(ring, depth=8, budget=DEFAULT_MAX_ORDER):
    """Projective-dimension survey of cyclic quotients R/I of a local ring.

    No resolution runs.  A finite local ring has depth 0, so by
    Auslander-Buchsbaum R/I (I proper) has finite pd iff it is free, iff
    I = 0; minimal_resolution to this depth gives exact:0 for I = 0 once a
    step runs and at_least:depth otherwise (the tests check it does).
    """
    order = ring.order()
    ideals = {}
    if order <= PD_EXHAUSTIVE_CAP:
        for x in ring.elements(budget):
            ideal = ideal_span(ring, [x])
            ideals.setdefault(ideal.basis, ideal)
        frontier = list(ideals.values())
        while frontier:
            new = []
            current = list(ideals.values())
            for i1 in frontier:
                for i2 in current:
                    joined = ideal_sum(i1, i2)
                    if joined.basis not in ideals:
                        if len(ideals) >= PD_IDEAL_BUDGET:
                            return skipped("pd_profile",
                                           "ideal lattice exceeds the budget")
                        ideals[joined.basis] = joined
                        new.append(joined)
            frontier = new
        mode = "exhaustive"
    elif order <= budget:
        # too many elements for the full lattice: principal ideals only
        for x in ring.elements(budget):
            ideal = ideal_span(ring, [x])
            ideals.setdefault(ideal.basis, ideal)
            if len(ideals) >= PD_IDEAL_BUDGET:
                break
        mode = "principal_only"
    else:
        return skipped("pd_profile", "ring exceeds the enumeration budget")
    rows = [{"ideal_size": ideal.size(), "verdict": "exact:0"
             if depth >= 1 and ideal.is_zero() else f"at_least:{depth}"}
            for ideal in sorted(ideals.values(), key=lambda i: i.basis.rows)
            if ideal.is_proper()]
    deep = sum(row["verdict"] != "exact:0" for row in rows)
    return record("pd_profile", True, None,
                  {"mode": mode, "ideals": rows, "max_finite_pd": 0,
                   "deep_verdicts": deep, "depth": depth})


def gldim_signature(ring, depth=8, table=None):
    """Global-dimension signature of a local ring: pd verdict of the
    residue field."""
    _, mx = spectrum.is_local(ring)
    res = global_dimension_signature(ring, mx, depth, table)
    betti, verdict, issues = _summary(res)
    witnesses = {"betti": betti, "verdict": verdict,
                 "periodic": res.periodic, "resolution_issues": issues,
                 "depth": depth}
    return record("gldim", not issues, "resolution invalid", witnesses)


def resolve(module, depth=8, table=None):
    """Minimal resolution of an ideal or submodule over a local ring."""
    _, mx = spectrum.is_local(module.ring)
    res = minimal_resolution(module.ring, module, mx, depth, table=table)
    betti, verdict, issues = _summary(res)
    witnesses = {"betti": betti, "verdict": verdict,
                 "periodic": res.periodic, "resolution_issues": issues}
    return record("resolve", not issues, "resolution invalid", witnesses)


def ring_spectrum(ring, budget=DEFAULT_MAX_ORDER):
    """The nilradical and the maximal ideals of a ring."""
    mx = spectrum.maximal_ideals(ring, budget)
    return record("spectrum", True, None, {
        "order": ring.order(),
        "nilradical_size": spectrum.nilradical(ring).size(),
        "maximal_ideal_count": len(mx),
        "maximal_ideal_sizes": [m.size() for m in mx],
        "local": len(mx) == 1,
    })


def ringcheck(ring):
    """The structure constants satisfy the ring axioms."""
    rep = verify_ring(ring)
    return record("ringcheck", rep.ok, "axiom failure",
                  {"failures": [list(map(str, f)) for f in rep.failures],
                   "order": ring.order()})


# -- randomized instance generation -------------------------------------------

def random_kernel_transfer_check(am, p, r, rng):
    """One seeded random kernel-transfer instance (u in M^p, k in J^p).

    A draw that degenerates after minimality pruning (no u-part survives)
    tests nothing, so the same generator draws again, up to _MAX_DRAWS
    times; a draws witness records how many it took when that was more
    than one.
    """
    for draws in range(1, _MAX_DRAWS + 1):
        u_vectors = []
        k_vectors = []
        for _ in range(r):
            u_vectors.append(tuple(am.a_max.random_ring_element(rng)
                                   for _ in range(p)))
            k_vectors.append(tuple(am.j.random_ring_element(rng)
                                   for _ in range(p)))
        result = kernel_transfer(am, p, u_vectors, k_vectors)
        if result.reason != _DEGENERATE:
            if draws > 1:
                result.witnesses["draws"] = draws
            break
    return result


# Each ringdsl job: its precondition (a key of PRECONDITIONS, or None) and
# its check.  dsl.JOBS holds the kinds of the check's arguments, and
# cli.run_job coerces them, applies the precondition and times the check.
# A check that resolves takes table, the run's TypeTable of its ring;
# called without one, its resolutions share one fresh table.
JOBS = {
    "hypotheses": (None, hypotheses_of),
    "remark21": ("local_base_square_zero_j", verify_remark_2_1),
    "kernel_transfer": ("hypotheses", kernel_transfer),
    "lemma24": ("hypotheses", verify_lemma_2_4),
    "power_iso": (None, power_iso),
    "idempotent": ("hypotheses_and_j", verify_idempotent_claim),
    "betti": ("hypotheses_and_j", betti_experiment),
    "thm31": ("hypotheses", verify_thm_3_1_objects),
    "thm34": ("hypotheses", verify_thm_3_4_bookkeeping),
    "gldim": ("local", gldim_signature),
    "pd_profile": ("local", pd_profile),
    "ringcheck": (None, ringcheck),
    "resolve": ("over_local_ring", resolve),
    "spectrum": (None, ring_spectrum),
}
