"""Fibration families, factorization, Puppe data, left triangles, K_0.

The infinite objects in this part (mapping-path rings, loop stages) are
intensional pair rings; identities are verified exactly on homomorphism
generators where a stage is finite and on deterministic probe elements
otherwise.  A parallel finite reduction truncates every polynomial
variable by the ideal of (x^2-x)^m, through which both endpoint
evaluations factor, turning a Puppe tower over finite rings into a tower
of honest finite pullbacks that can be checked exhaustively.  Powers of
x reduce by division by (x^2-x)^m, and kernel exactness compares |im j|
with |stage| / |im rho|, both read off Smith forms: no kernel ring is built.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .errors import (DepthExceeded, HotringError, IndexOutOfRange,
                     MalformedInput, NotSurjective, VerificationFailure)
from .homotopy import (HomotopyCertificate, carrier_ring, eval_endpoint,
                       verify_certificate)
from .poly import (LoopRing, PathRing, Poly, PolyRing, coefficient_map,
                   fresh_var, iconst, imul, isub, ivar, lift, one_minus,
                   scalar_base_of, shift_poly, sigma_hom, substitute)
from .rings import (FiniteRing, FuncHom, QuotientPresentation, RingHom,
                    compose, identity_hom, is_surjective, kernel_subring,
                    pullback, validate_ring, zero_hom)
from .virtual import PairRing, mapping_path_ring


# ---------------------------------------------------------------------------
# fibration families and their axioms


class FibrationFamily:
    """A finite diagram of rings with a marked class of fibrations.

    With all_surjective=True the family is "every surjective map between
    diagram objects"; otherwise exactly the named homs.  Marked maps must
    be surjective, checked at ingestion.
    """

    def __init__(self, rings, homs, fibration_names=None, all_surjective=False):
        self.rings = dict(rings)
        self.homs = dict(homs)
        self.all_surjective = all_surjective
        if all_surjective:
            self.fibration_names = sorted(
                name for name, h in self.homs.items() if is_surjective(h))
        else:
            self.fibration_names = sorted(fibration_names or [])
            for name in self.fibration_names:
                if not is_surjective(self.homs[name]):
                    raise NotSurjective(f"marked map {name} is not surjective")

    def fibrations(self):
        return [(name, self.homs[name]) for name in self.fibration_names]


def check_axioms(family, probes=25, rng=None):
    """Check Ax1-Ax4 on the family's diagram; report per axiom."""
    import random
    rng = rng or random.Random(0)
    report = {}

    # Ax1: R -> 0 is a fibration for every object
    violations = []
    if not family.all_surjective:
        for label, ring in sorted(family.rings.items()):
            hit = any(h.source is ring and h.target.size() == 1
                      for _, h in family.fibrations())
            if not hit:
                violations.append(f"missing {label} -> 0")
    report["Ax1"] = {"ok": not violations, "violations": violations}

    # Ax2: closed under composition; isomorphisms are fibrations
    violations = []
    fibs = family.fibrations()
    for name_g, g in fibs:
        for name_f, f in fibs:
            if f.source is not g.target:
                continue
            comp = compose(f, g)
            if family.all_surjective:
                if not is_surjective(comp):
                    violations.append(f"{name_f} o {name_g} not surjective")
            else:
                if not any(comp == h for _, h in fibs):
                    violations.append(f"{name_f} o {name_g} not marked")
    if not family.all_surjective:
        for name, h in sorted(family.homs.items()):
            if is_surjective(h) and h.source.size() == h.target.size():
                # bijective homomorphism: an isomorphism in the diagram
                if name not in family.fibration_names:
                    violations.append(f"isomorphism {name} not marked")
    report["Ax2"] = {"ok": not violations, "violations": violations}

    # Ax3: base extension of a fibration is a fibration, element-wise
    violations = []
    squares = 0
    for name_g, g in fibs:
        for name_f, f in sorted(family.homs.items()):
            if f.target is not g.target:
                continue
            _, rho, _, _ = pullback(f, g)
            squares += 1
            if not is_surjective(rho):
                violations.append(f"pullback of {name_g} along {name_f}")
    report["Ax3"] = {"ok": not violations, "violations": violations,
                     "squares": squares}

    # Ax4: factor every map and verify the factorization contract
    violations = []
    for name, h in sorted(family.homs.items()):
        fac = factorize(h)
        result = fac.verify(probes=probes, rng=rng)
        if not result["ok"]:
            violations.append((name, result))
    report["Ax4"] = {"ok": not violations, "violations": violations}
    report["ok"] = all(report[ax]["ok"] for ax in ("Ax1", "Ax2", "Ax3", "Ax4"))
    return report


# ---------------------------------------------------------------------------
# the Ax4 factorization


class Factorization:
    """u = p o i through A' = A x_B B[x].

    i(a) = (a, u(a)) is split by the first projection and elementary
    homotopic to the identity of A' through (a, q(x)) -> (a, q(xy));
    p(a, q) = q(1) is surjective with explicit preimages b -> (0, bx).
    """

    def __init__(self, u):
        self.u = u
        a_ring, b_ring = u.source, u.target
        if isinstance(b_ring, PairRing):
            raise HotringError(f"factorize {u.label or 'a hom'}: its target "
                               f"{b_ring.label} is a pair ring, which the "
                               "factorization does not support")
        self.var = var = fresh_var("x", b_ring)
        right = carrier_ring(b_ring, var)
        self.right = right

        def predicate(pair):
            a, q = pair
            from .homotopy import slicewise_member
            if not slicewise_member(b_ring, q, var):
                return False
            return eval_endpoint(b_ring, q, var, 0) == u.apply(a)

        def sampler(rng):
            a = a_ring.sample(rng)
            tail = PathRing(b_ring, var).sample(rng)
            return (a, right.add(lift(b_ring, u.apply(a)), tail))

        self.middle = PairRing(a_ring, right, predicate=predicate,
                               sampler=sampler, label=f"{a_ring.label}'")
        self.i = FuncHom(a_ring, self.middle,
                         lambda a: (a, lift(b_ring, u.apply(a))), label="i")
        self.iota2 = self.middle.first()
        self.p = FuncHom(self.middle, b_ring,
                         lambda pair: eval_endpoint(b_ring, pair[1], var, 1),
                         label="p")
        self.section = FuncHom(
            b_ring, self.middle,
            lambda b: (a_ring.zero(), shift_poly(right.scalar_base,
                                                 lift(b_ring, b), var, 1)),
            label="b->(0,bx)")

        hvar = fresh_var("y", self.middle)
        hcarrier = carrier_ring(self.middle, hvar)
        sb = right.scalar_base

        def homotopy(pair):
            a, q = pair
            moved = substitute(sb, q, {var: imul(ivar(var), ivar(hvar))})
            return (lift(a_ring, a), moved)

        self.certificate = HomotopyCertificate(
            FuncHom(self.middle, hcarrier, homotopy, label="(a,q)->(a,q(xy))"),
            compose(self.i, self.iota2, label="i*pr1"),
            identity_hom(self.middle), hvar)

    def verify(self, probes=50, rng=None):
        import random
        rng = rng or random.Random(0)
        a_ring, b_ring = self.u.source, self.u.target
        failures = []

        def gens_or_probes(ring):
            if isinstance(ring, FiniteRing):
                return [ring.gen(i) for i in range(ring.ngens)] or [ring.zero()]
            return [ring.sample(rng) for _ in range(probes)]

        for a in gens_or_probes(a_ring):
            if self.p.apply(self.i.apply(a)) != self.u.apply(a):
                failures.append(("p o i != u", a))
            if self.iota2.apply(self.i.apply(a)) != a:
                failures.append(("pr1 o i != id", a))
        for b in gens_or_probes(b_ring):
            w = self.section.apply(b)
            if not self.middle.contains(w):
                failures.append(("witness not in A'", b))
            if self.p.apply(w) != b:
                failures.append(("p(0, bx) != b", b))
        cert_report = verify_certificate(self.certificate, probes=probes,
                                         rng=rng)
        if not cert_report.valid:
            failures.append(("splitting homotopy", cert_report.failure))
        return {"ok": not failures, "failures": failures,
                "certificate": cert_report}


def factorize(u):
    return Factorization(u)


# ---------------------------------------------------------------------------
# mapping path rings and the Puppe tower


class MappingPath:
    """P(g) = B x_C EC with its three structure maps."""

    def __init__(self, g):
        self.g = g
        b_ring, c_ring = g.source, g.target
        self.var = var = fresh_var("x1", b_ring, c_ring)
        self.ring = mapping_path_ring(g, var)
        self.g1 = self.ring.first()
        self.g1.label = "g1"
        self.loops = LoopRing(c_ring, var)
        zero_b = b_ring.zero()
        self.j = FuncHom(self.loops, self.ring, lambda c: (zero_b, c),
                         label="j")

    def null_homotopy(self):
        """The composite g o g1 : P(g) -> C is null through (b, p) -> p(s)."""
        c_ring = self.g.target
        svar = fresh_var("s", c_ring)
        # polynomials in svar over C, pair-ring targets included
        carrier = PolyRing(c_ring, (svar,), label=f"{c_ring.label}[{svar}]")
        sb = carrier.scalar_base

        def h(pair):
            return substitute(sb, pair[1], {self.var: ivar(svar)})

        return HomotopyCertificate(
            FuncHom(self.ring, carrier, h, label="(b,p)->p(s)"),
            zero_hom(self.ring, c_ring),
            compose(self.g, self.g1, label="g*g1"), svar, carrier=carrier)


def mapping_path(g):
    return MappingPath(g)


class PuppeSequence:
    """Iterated mapping paths P(g_n) -> ... -> P(g) -> B -> C."""

    def __init__(self, g, length, depth_cap=8):
        if length > depth_cap:
            raise DepthExceeded(f"length {length} exceeds cap {depth_cap}")
        self.g = g
        self.stages = []
        current = g
        for _ in range(length):
            mp = MappingPath(current)
            self.stages.append(mp)
            current = mp.g1

    def verify(self, probes=25, rng=None):
        """j-composites vanish exactly, null homotopies for the projection
        composites re-verify, j lands in the kernel of the projection."""
        import random
        rng = rng or random.Random(0)
        failures = []
        for idx, mp in enumerate(self.stages):
            for _ in range(probes):
                c = mp.loops.sample(rng)
                val = mp.j.apply(c)
                if not mp.ring.contains(val):
                    failures.append((idx, "j image escapes P(g)", c))
                if not _is_zero_of(mp.g1.target, mp.g1.apply(val)):
                    failures.append((idx, "g1 o j != 0", c))
            cert = mp.null_homotopy()
            rep = verify_certificate(cert, probes=probes, rng=rng)
            if not rep.valid:
                failures.append((idx, "null homotopy", rep.failure))
        return {"ok": not failures, "failures": failures}


def _is_zero_of(ring, x):
    return x == ring.zero()


def puppe(g, length, depth_cap=8):
    return PuppeSequence(g, length, depth_cap=depth_cap)


# ---------------------------------------------------------------------------
# finite reduction: truncate each path variable by ((x^2-x)^m)


def truncated_path_ring(c_ring, m, label=None):
    """EC / ((x^2-x)^m): a finite model of the path ring through which both
    endpoint evaluations factor.  Generators are c_i x^e, 1 <= e < 2m.

    Returns (ring, eval1, include) with eval1 the evaluation at 1 onto C
    and include mapping (generator index, exponent) to the ring element.
    """
    top = 2 * m
    # x^e is replaced by its remainder on division by the monic
    # (x^2-x)^m = sum_{k<=m} binom(m,k)(-1)^{m-k} x^{m+k}, unique of
    # degree < 2m; modulus[d] is the coefficient of x^d
    modulus = [0] * m + [comb(m, k) * (-1) ** (m - k) for k in range(m + 1)]

    def remainder(e):
        r = [0] * e + [1]
        for d in range(e, top - 1, -1):
            c = r[d]
            for k, a in enumerate(modulus):
                r[d - top + k] -= c * a
        return r[:top]

    kc = c_ring.ngens
    gens = [(i, e) for e in range(1, top) for i in range(kc)]
    idx = {ge: t for t, ge in enumerate(gens)}
    orders = tuple(c_ring.orders[i] for i, _ in gens)

    def vector_of(pairs):
        # pairs: iterable of ((i, e), integer coefficient) with 1 <= e
        v = [0] * len(gens)
        for (i, e), c in pairs:
            for b, cb in enumerate(remainder(e)):
                if cb:
                    if b == 0:
                        raise VerificationFailure("reduction hit degree 0")
                    v[idx[(i, b)]] += c * cb
        return tuple(x % d for x, d in zip(v, orders))

    table = []
    for (i, e) in gens:
        row = []
        for (j, f) in gens:
            prod = c_ring.table[i][j]
            row.append(vector_of(((l, e + f), c)
                                 for l, c in enumerate(prod) if c))
        table.append(tuple(row))
    ring = validate_ring(orders, table,
                         label=label or f"E({c_ring.label})/m{m}")
    eval1 = RingHom(ring, c_ring, [c_ring.gen(i) for i, _ in gens],
                    label="eval1")
    eval1.validate()

    def include(i, e):
        if i not in range(kc) or e < 1:
            raise IndexOutOfRange(f"generator {i}, exponent {e}")
        return ring.element(vector_of([((i, e), 1)]))

    return ring, eval1, include


class TruncatedPuppe:
    """The Puppe tower after the finite reduction: honest finite pullbacks."""

    def __init__(self, g, length, m=2):
        self.g = g
        self.m = m
        self.stages = []       # (ring, proj_to_prev, j_hom, loop_ring)
        current = g
        for _ in range(length):
            c_ring = current.target
            _, eval1, _ = truncated_path_ring(c_ring, m)
            stage, rho, _, embed = pullback(current, eval1)
            # loops inside the truncated path ring: the kernel of eval1
            loops, lincl, _ = kernel_subring(
                eval1, label=f"Omega({c_ring.label})/m{m}")
            j_images = []
            for t in range(loops.ngens):
                elem = lincl.apply(loops.gen(t))
                d = embed(current.source.zero(), elem)
                if d is None:
                    raise VerificationFailure("j image not in the pullback",
                                              witness=elem)
                j_images.append(d)
            j = RingHom(loops, stage, j_images, label="j")
            j.validate()
            self.stages.append((stage, rho, j, loops))
            current = rho

    def rings(self):
        """C, B, P(g), P(g_1), ... outermost last."""
        out = [self.g.target, self.g.source]
        out.extend(stage for stage, _, _, _ in self.stages)
        return out

    def maps(self):
        """Maps pointing toward C: [g, g_1, g_2, ...]."""
        out = [self.g]
        out.extend(rho for _, rho, _, _ in self.stages)
        return out

    def pointed_set_exactness(self, test_ring, degree=1, budget=200_000):
        """Exactness of [T, P(g_n)] -> ... -> [T, B] -> [T, C] as pointed
        sets, with [T, -] the homotopy classes of homomorphisms out of a
        finite test ring and basepoint the class of the zero map.

        The partition is computed only for the middle and outgoing rings
        of each spot; incoming data enters through plain composition, so
        the largest stage is never partitioned.
        """
        from .homotopy import homotopy_classes
        from .rings import enumerate_homs

        chain = self.rings()       # [C, B, P1, P2, ...]
        maps_chain = self.maps()   # maps_chain[i]: chain[i+1] -> chain[i]

        @cache
        def homs_into(idx):
            return enumerate_homs(test_ring, chain[idx], budget=budget)

        @cache
        def partition(idx):
            return homotopy_classes(homs_into(idx), degree, budget=budget)

        spots = []
        for i in range(len(maps_chain) - 1):
            mid = partition(i + 1)
            out = partition(i)
            zero_idx = out.index_of(zero_hom(test_ring, chain[i]))
            out_zero = out.find(zero_idx)
            kernel = set()
            for idx, hom in enumerate(mid.homs):
                comp = compose(maps_chain[i], hom)
                if out.find(out.index_of(comp)) == out_zero:
                    kernel.add(mid.find(idx))
            image = set()
            for hom in homs_into(i + 2):
                comp = compose(maps_chain[i + 1], hom)
                image.add(mid.find(mid.index_of(comp)))
            spots.append({"spot": chain[i + 1].label,
                          "exact": image == kernel,
                          "image_classes": len(image),
                          "kernel_classes": len(kernel)})
        return {"ok": all(s["exact"] for s in spots), "spots": spots}

    def verify_kernel_exactness(self):
        """im(j) = ker(projection) at every stage.

        The image is the additive span of the j generator images; once
        rho o j kills every generator, image = kernel follows from equal
        subgroup orders, so the check is exhaustive without enumerating
        the (large) ambient stages.  By the first isomorphism theorem
        |ker rho| = |stage| / |im rho|, so both orders are read off Smith
        forms of generator images and no kernel ring is built.
        """
        from .rings import SubgroupPresentation

        failures = []
        for idx, (stage, rho, j, loops) in enumerate(self.stages):
            zero = rho.target.zero()
            for t in range(loops.ngens):
                if rho.apply(j.apply(loops.gen(t))) != zero:
                    failures.append((idx, "rho o j != 0", t))
            image_order = SubgroupPresentation(stage.orders,
                                               list(j.images)).size()
            kernel_order = stage.size() // SubgroupPresentation(
                rho.target.orders, list(rho.images)).size()
            if image_order != kernel_order:
                failures.append((idx, image_order, kernel_order))
        return {"ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# left triangles


class LeftTriangle:
    """Omega C -> A -> B -> C with provenance."""

    def __init__(self, objects, maps, provenance, witness=None):
        self.objects = objects      # (Omega C, A, B, C)
        self.maps = maps            # (f, g, h)
        self.provenance = provenance
        self.witness = witness      # rotation certificate, when constructed


def standard_triangle(g):
    mp = MappingPath(g)
    return LeftTriangle((mp.loops, mp.ring, g.source, g.target),
                        (mp.j, mp.g1, g), "standard", witness=None), mp


def omega_hom(g, source_loop, target_loop):
    """Omega g : functorial action on loop rings of the same variable.

    g maps the coefficient rings (source_loop.base -> target_loop.base)
    and acts on coefficients, so a nested loop ring recurses through g.
    """
    return coefficient_map(g, source_loop, target_loop,
                           label=f"Omega({g.label})")


def minus_omega_hom(g, source_loop, target_loop):
    """-Omega g = sigma o Omega g = Omega g o sigma."""
    og = omega_hom(g, source_loop, target_loop)
    sig = sigma_hom(target_loop)
    return FuncHom(source_loop, target_loop,
                   lambda p: sig.apply(og.apply(p)),
                   label=f"-Omega({g.label})")


def rotate(triangle):
    """Rotation: from Omega C -> A -> B -> C produce
    Omega B -> Omega C -> A -> B with connecting map -Omega h."""
    oc, a, b, c = triangle.objects
    f, g, h = triangle.maps
    source_loop = LoopRing(b, oc.var)
    neg = minus_omega_hom(h, source_loop, oc)
    return LeftTriangle((source_loop, oc, a, b), (neg, f, g),
                        ("rotated", triangle.provenance),
                        witness=triangle.witness)


def rotation_witness(g):
    """The elementary homotopy behind triangle rotation for a standard
    triangle of g.

    With P(g_1) = P(g) x_B EB, the maps kappa : Omega B -> P(g_1),
    b(x) -> ((0, 0), b(x2)), and nu o Omega g o sigma,
    b(x) -> ((0, g(b(1-x1))), 0), are connected by

        b(x) -> ((b(1-y), g(b(1-x1 y))), b(x2 (1-y)))

    whose evaluation at y=0 is kappa and at y=1 is nu o Omega g o sigma
    (the names fresh_var picks when neither B nor C is polynomial).
    """
    b_ring, c_ring = g.source, g.target
    mp = MappingPath(g)
    mp1 = MappingPath(mp.g1)
    var_c, var_b = mp.var, mp1.var
    hvar = fresh_var("y", mp1.ring)
    x = fresh_var("x", b_ring, c_ring)
    loops_b = LoopRing(b_ring, x)
    p_carrier = carrier_ring(mp1.ring, hvar)
    sb_b = loops_b.scalar_base
    sb_c = scalar_base_of(c_ring)
    gen_map = omega_hom(g, loops_b, LoopRing(c_ring, x))

    def kappa(bp):
        return ((b_ring.zero(), Poly()),
                substitute(sb_b, bp, {x: ivar(var_b)}))

    def nu_og_sigma(bp):
        moved = substitute(sb_c, gen_map.apply(bp), {x: one_minus(var_c)})
        return ((b_ring.zero(), moved), Poly())

    def homotopy(bp):
        first = substitute(sb_b, bp, {x: one_minus(hvar)})
        second = substitute(sb_c, gen_map.apply(bp),
                            {x: isub(iconst(1),
                                     imul(ivar(var_c), ivar(hvar)))})
        third = substitute(sb_b, bp,
                           {x: imul(ivar(var_b), one_minus(hvar))})
        return ((first, second), third)

    h = FuncHom(loops_b, p_carrier, homotopy, label="rotation homotopy")
    f0 = FuncHom(loops_b, mp1.ring, kappa, label="kappa")
    f1 = FuncHom(loops_b, mp1.ring, nu_og_sigma, label="nu*Og*sigma")
    return HomotopyCertificate(h, f0, f1, hvar), mp, mp1


# ---------------------------------------------------------------------------
# the octahedron witness


class OctahedronReport:
    def __init__(self, data):
        self.data = data

    @property
    def ok(self):
        return self.data["ok"]


def octahedron(h, k, probes=40, rng=None):
    """Element-level octahedral comparison for surjections h: B -> C,
    k: C -> D.

    Builds the kernels A = ker h, F = ker kh, E = ker k, the connecting
    maps alpha, beta, the mapping paths P(beta), P(h), and the comparison
    psi(f, e(x)) = (m(f), l(e(x))); verifies exactness of A -> F -> E,
    surjectivity of beta, and the identities psi gamma = j Omega l,
    psi delta = i.
    """
    import random
    rng = rng or random.Random(0)
    b_ring, c_ring, d_ring = h.source, h.target, k.target
    if k.source is not c_ring:
        raise HotringError("k must start where h ends")
    if not is_surjective(h):
        raise NotSurjective("h is not surjective")
    if not is_surjective(k):
        raise NotSurjective("k is not surjective")

    kh = compose(k, h, label="kh")
    a_ring, a_incl, a_coords = kernel_subring(h, label="A")
    f_ring, f_incl, f_coords = kernel_subring(kh, label="F")
    e_ring, e_incl, e_coords = kernel_subring(k, label="E")

    alpha = RingHom(a_ring, f_ring,
                    [f_coords(a_incl.apply(a_ring.gen(i)))
                     for i in range(a_ring.ngens)], label="alpha")
    alpha.validate()
    beta = RingHom(f_ring, e_ring,
                   [e_coords(h.apply(f_incl.apply(f_ring.gen(i))))
                    for i in range(f_ring.ngens)], label="beta")
    beta.validate()

    failures = []
    if not is_surjective(beta):
        failures.append("beta not surjective")
    image = {alpha.apply(x) for x in a_ring.elements()}
    kernel = {x for x in f_ring.elements() if e_ring.is_zero(beta.apply(x))}
    if image != kernel:
        failures.append("A -> F -> E not exact")

    # both mapping paths are over finite rings, so both adjoin x1
    mp_beta = MappingPath(beta)
    mp_h = MappingPath(h)
    ell_map = coefficient_map(e_incl, mp_beta.ring.right, mp_h.ring.right,
                              label="l[..]")

    def psi(pair):
        f, e_poly = pair
        return (f_incl.apply(f), ell_map.apply(e_poly))

    psi_hom = FuncHom(mp_beta.ring, mp_h.ring, psi, label="psi")

    gamma = mp_beta.j
    delta = FuncHom(a_ring, mp_beta.ring,
                    lambda a: (alpha.apply(a), Poly()), label="delta")
    i_hom = FuncHom(a_ring, mp_h.ring,
                    lambda a: (a_incl.apply(a), Poly()), label="i")
    omega_l = omega_hom(e_incl, mp_beta.loops, mp_h.loops)

    # psi is a homomorphism landing in P(h), on probes
    for _ in range(probes):
        u = mp_beta.ring.sample(rng)
        v = mp_beta.ring.sample(rng)
        pu, pv = psi_hom.apply(u), psi_hom.apply(v)
        if not mp_h.ring.contains(pu):
            failures.append(("psi image escapes P(h)", u))
            break
        if psi_hom.apply(mp_beta.ring.add(u, v)) != mp_h.ring.add(pu, pv):
            failures.append(("psi not additive", (u, v)))
            break
        if psi_hom.apply(mp_beta.ring.mul(u, v)) != mp_h.ring.mul(pu, pv):
            failures.append(("psi not multiplicative", (u, v)))
            break

    # psi gamma = j o Omega l on loop probes; psi delta = i exhaustively
    for _ in range(probes):
        e_loop = mp_beta.loops.sample(rng)
        lhs = psi_hom.apply(gamma.apply(e_loop))
        rhs = mp_h.j.apply(omega_l.apply(e_loop))
        if lhs != rhs:
            failures.append(("psi gamma != j Omega l", e_loop))
            break
    for a in a_ring.elements():
        if psi_hom.apply(delta.apply(a)) != i_hom.apply(a):
            failures.append(("psi delta != i", a))
            break

    return OctahedronReport({
        "ok": not failures,
        "failures": failures,
        "orders": {
            "A": a_ring.size(), "F": f_ring.size(), "E": e_ring.size(),
            "B": b_ring.size(), "C": c_ring.size(), "D": d_ring.size(),
        },
    })


# ---------------------------------------------------------------------------
# K_0 presentations


class K0Diagram:
    def __init__(self, objects, weq=(), fib_seq=()):
        self.objects = list(objects)
        index = {label: i for i, label in enumerate(self.objects)}
        for kind, edges, arity in (("weq edge", weq, 2),
                                   ("fibre sequence", fib_seq, 3)):
            for edge in edges:
                if len(edge) != arity:
                    raise MalformedInput(f"{kind} {list(edge)} has "
                                         f"{len(edge)} objects, not {arity}")
                unknown = [x for x in edge if x not in index]
                if unknown:
                    raise MalformedInput(f"{kind} {list(edge)} references "
                                         f"unknown object {unknown[0]!r}")
        self.weq = [tuple(edge) for edge in weq]
        self.fib_seq = [tuple(t) for t in fib_seq]
        self.index = index

    def relation_rows(self):
        rows = []
        k = len(self.objects)
        for a, b in self.weq:
            row = [0] * k
            row[self.index[a]] += 1
            row[self.index[b]] -= 1
            rows.append(row)
        for f, e, b in self.fib_seq:
            row = [0] * k
            row[self.index[e]] += 1
            row[self.index[f]] -= 1
            row[self.index[b]] -= 1
            rows.append(row)
        return rows


class K0Result:
    def __init__(self, rank, torsion, moduli, classes):
        self.rank = rank
        self.torsion = torsion
        self.moduli = moduli          # per retained coordinate; 0 means Z
        self.classes = classes        # label -> coordinate tuple

    def summary(self):
        return {"rank": self.rank, "invariant_factors": self.torsion,
                "classes": {k: list(v) for k, v in self.classes.items()}}


def k0_presentation(diagram):
    """Free abelian group on the objects modulo the diagram relations."""
    pres = QuotientPresentation((0,) * len(diagram.objects),
                                diagram.relation_rows())
    moduli = list(pres.orders)
    classes = {label: pres.project_gen(col)
               for label, col in diagram.index.items()}
    rank = sum(1 for m in moduli if m == 0)
    torsion = sorted(m for m in moduli if m not in (0, 1))
    return K0Result(rank, torsion, moduli, classes)


# ---------------------------------------------------------------------------
# GL-fibration flag (bounded best effort; see module docstring)


def gl_fibration_flag(g):
    """Verified / Counterexample / Unknown for "g is a GL-fibration".

    Surjectivity failures are genuine counterexamples.  Over nilpotent
    coefficient rings every matrix is quasi-invertible, so GL(E^n g) is
    onto whenever g is; that argument yields Verified at every level.
    Anything else is Unknown: the E^n stages are infinite and a bounded
    miss proves nothing.
    """
    if not is_surjective(g):
        return {"flag": "Counterexample", "reason": "g is not surjective"}
    b_ring, c_ring = g.source, g.target
    if isinstance(b_ring, FiniteRing) and isinstance(c_ring, FiniteRing):
        eb = b_ring.nilpotency_class()
        ec = c_ring.nilpotency_class()
        if eb is not None and ec is not None:
            return {"flag": "Verified",
                    "reason": "nilpotent coefficients: GL = all matrices and "
                              "E^n g stays coefficientwise surjective"}
    return {"flag": "Unknown", "reason": "no bounded argument applies"}
