"""Elementary homotopies between ring maps, with machine-checkable witnesses.

A certificate for f0 ~ f1 (both S -> R) is a homomorphism h into R with a
fresh central variable adjoined whose evaluations at 0 and 1 are f0 and
f1.  Soundness is unconditional: every certificate re-verifies, exactly
on generators when S is finite and on sampled probes otherwise.  The
search procedure is a semi-decision: a miss at a degree bound says
nothing about homotopy in general, and the library never claims a
negative beyond "not found at this bound".
"""

from __future__ import annotations

from .errors import HotringError, MembershipViolation, VerificationFailure
from .poly import (Poly, PolyRing, coefficient_map, evaluate, fresh_var, imul,
                   ivar, lift, lower, one_minus, scalar_base_of, slices,
                   substitute, substitution_hom)
from .rings import (FiniteRing, FuncHom, RingHom, _UnionFind, _annihilator,
                    _codes, _first_nonmultiplicative, _multiplicative_images,
                    compose, enumerate_homs, identity_hom, zero_hom)
from .virtual import PairRing


# ---------------------------------------------------------------------------
# carriers: the ring R with one homotopy variable adjoined


def carrier_ring(ring, var):
    """Arithmetic carrier for R[var]; membership is handled separately."""
    if isinstance(ring, PairRing):
        return PairRing(carrier_ring(ring.left, var),
                        carrier_ring(ring.right, var),
                        label=f"{ring.label}[{var}]")
    # a polynomial ring flattens into its scalar base and variables
    return PolyRing(ring, (var,), label=f"{ring.label}[{var}]")


def eval_endpoint(ring, value, var, bit):
    """Evaluate an element of R[var] at var = bit, landing back in R.

    Supports both carrier shapes for a pair ring R: a pair of carriers
    (component-wise construction) and a polynomial with R coefficients.
    """
    if isinstance(ring, PairRing) and isinstance(value, tuple):
        return (eval_endpoint(ring.left, value[0], var, bit),
                eval_endpoint(ring.right, value[1], var, bit))
    return lower(ring, evaluate(scalar_base_of(ring), value, var, bit))


def element_slices(ring, value, var):
    """Decompose an element of the carrier R[var] into {exp: element of R};
    None when some slice fails to be an element of R at all.  For a
    FiniteRing R the terms are read in one pass, coefficients as they are."""
    if isinstance(ring, PairRing) and isinstance(value, tuple):
        ls = element_slices(ring.left, value[0], var)
        rs = element_slices(ring.right, value[1], var)
        if ls is None or rs is None:
            return None
        return {e: (ls.get(e, ring.left.zero()), rs.get(e, ring.right.zero()))
                for e in set(ls) | set(rs)}
    if isinstance(ring, FiniteRing):
        out = {}
        for mono, c in value.terms:
            e = (mono[0][1] if len(mono) == 1 and mono[0][0] == var
                 else None if mono else 0)
            if e is None or e in out:
                return None
            out[e] = c
        return out
    try:
        return {e: lower(ring, q) for e, q in slices(value, var).items()}
    except MembershipViolation:
        return None


def slicewise_member(ring, value, var):
    """Is this element of the carrier a genuine element of R[var], i.e.
    does every var-slice lie in R?"""
    sl = element_slices(ring, value, var)
    if sl is None:
        return False
    return all(ring.contains(x) for x in sl.values())


# ---------------------------------------------------------------------------
# certificates


class CertificateReport:
    def __init__(self, valid, mode, checked, failure=None):
        self.valid = valid
        self.mode = mode
        self.checked = checked
        self.failure = failure

    def __bool__(self):
        return self.valid

    def __repr__(self):
        verdict = "valid" if self.valid else f"INVALID ({self.failure})"
        return f"<certificate {verdict}, {self.mode}, {self.checked} checks>"


class HomotopyCertificate:
    """h : S -> R[var] with evaluations f0 and f1.

    ``carrier`` fixes the arithmetic model of R[var] (needed when R is a
    pair ring, which has two equivalent carrier shapes)."""

    def __init__(self, hom, f0, f1, var, carrier=None):
        self.hom = hom
        self.f0 = f0
        self.f1 = f1
        self.var = var
        self.carrier = carrier

    @property
    def source(self):
        return self.f0.source

    @property
    def target(self):
        return self.f0.target

    def endpoint(self, bit):
        ring = self.target
        evaluate_at = FuncHom(self.hom.target, ring,
                              lambda v: eval_endpoint(ring, v, self.var, bit))
        return compose(evaluate_at, self.hom, label=f"d{bit}(h)")

    def __repr__(self):
        return (f"<homotopy {self.f0.label or 'f0'} ~ {self.f1.label or 'f1'}"
                f" via {self.var}>")


def verify_certificate(cert, probes=50, rng=None):
    """Check the certificate: h is a homomorphism into R[var] and its
    endpoints are f0 and f1.  Exact on generators for a finite source,
    probe-based otherwise.

    Exact mode reads the var-slices of each generator image once.  The
    slices give membership (every slice in R), the order check (each slice
    killed by the generator order), endpoint 0 (slice 0) and endpoint 1
    (the sum of the slices).  An endpoint stored as a RingHom is compared
    through its stored image reduced in its target, which is what
    ``apply`` would return on the generator.  Multiplicativity is checked
    last, on every generator pair, by convolving the same slices (see
    rings._first_nonmultiplicative).  For a FiniteRing R the order check,
    endpoint 1 and the convolution sum raw coordinates and reduce once,
    reading none of the coefficient checks or element codes the search
    runs on.  The failure reported is the first one in the order
    membership, order, endpoint0, endpoint1 (generator by generator),
    then multiplicative.
    """
    ring = cert.target
    h = cert.hom

    if isinstance(h, RingHom):
        src = h.source
        zero = ring.zero()
        orders = ring.orders if isinstance(ring, FiniteRing) else None
        checked = 0
        slices_of = []
        for i, img in enumerate(h.images):
            checked += 1
            sl = element_slices(ring, img, cert.var)
            slices_of.append(sl)
            if sl is None or not all(ring.contains(x) for x in sl.values()):
                return CertificateReport(False, "exact", checked,
                                         ("membership", i))
            d = src.orders[i]
            if (any(d * c % o for x in sl.values() for c, o in zip(x, orders))
                    if orders else not all(ring.is_zero(ring.scalar(d, x))
                                           for x in sl.values())):
                return CertificateReport(False, "exact", checked,
                                         ("order", i))
            if not _is_image(sl.get(0, zero), cert.f0, src, i):
                return CertificateReport(False, "exact", checked,
                                         ("endpoint0", i))
            end1 = (tuple(map(int.__mod__, map(sum, zip(zero, *sl.values())),
                              orders))
                    if orders else ring.sum(sl.values()))
            if not _is_image(end1, cert.f1, src, i):
                return CertificateReport(False, "exact", checked,
                                         ("endpoint1", i))
        bad = _first_nonmultiplicative(src, ring, slices_of)
        if bad is not None:
            # one check per generator pair, up to and including the bad one
            checked += bad[0] * src.ngens + bad[1] + 1
            return CertificateReport(False, "exact", checked,
                                     ("multiplicative", bad))
        return CertificateReport(True, "exact", checked + src.ngens ** 2)

    import random
    rng = rng or random.Random(0)
    carrier = cert.carrier or carrier_ring(ring, cert.var)
    src = h.source
    checked = 0
    for _ in range(probes):
        a = src.sample(rng)
        b = src.sample(rng)
        ha, hb = h.apply(a), h.apply(b)
        checked += 1
        if not slicewise_member(ring, ha, cert.var):
            return CertificateReport(False, "probes", checked,
                                     ("membership", a))
        if h.apply(src.add(a, b)) != carrier.add(ha, hb):
            return CertificateReport(False, "probes", checked,
                                     ("additive", (a, b)))
        if h.apply(src.mul(a, b)) != carrier.mul(ha, hb):
            return CertificateReport(False, "probes", checked,
                                     ("multiplicative", (a, b)))
        if eval_endpoint(ring, ha, cert.var, 0) != cert.f0.apply(a):
            return CertificateReport(False, "probes", checked,
                                     ("endpoint0", a))
        if eval_endpoint(ring, ha, cert.var, 1) != cert.f1.apply(a):
            return CertificateReport(False, "probes", checked,
                                     ("endpoint1", a))
    return CertificateReport(True, "probes", checked)


def _is_image(x, f, src, i):
    """Is x, an element of f's target, f of generator i of src?  A RingHom
    is read through its stored image, reduced in its target as ``apply``
    reduces it; an image already equal to x needs no reduction."""
    if isinstance(f, RingHom) and i < len(f.images):
        img = f.images[i]
        return x == img or x == f.target.scalar(1, img)
    return x == f.apply(src.gen(i))


def flip_certificate(cert):
    """Reverse orientation through var -> 1 - var (the sigma substitution)."""
    ring = cert.target
    if isinstance(ring, PairRing):
        raise HotringError(f"flip_certificate into {ring.label}: the flip "
                           "does not support a pair ring target")
    sub = {cert.var: one_minus(cert.var)}
    flip = FuncHom(cert.hom.target, cert.hom.target,
                   lambda v: substitute(scalar_base_of(ring), v, sub))
    h = compose(flip, cert.hom, label=f"flip({cert.hom.label})")
    return HomotopyCertificate(h, cert.f1, cert.f0, cert.var)


def precompose_certificate(cert, f):
    """From g ~ g' obtain g f ~ g' f; constructed, not searched."""
    return HomotopyCertificate(compose(cert.hom, f),
                               compose(cert.f0, f), compose(cert.f1, f),
                               cert.var)


def postcompose_certificate(h, cert):
    """From g ~ g' obtain h g ~ h g' by applying h to coefficients."""
    lifted = coefficient_map(h, carrier_ring(cert.target, cert.var),
                             carrier_ring(h.target, cert.var),
                             label=f"{h.label}[{cert.var}]")
    return HomotopyCertificate(compose(lifted, cert.hom),
                               compose(h, cert.f0), compose(h, cert.f1),
                               cert.var)


def constant_certificate(f):
    ring = f.target
    if isinstance(ring, PairRing):
        raise HotringError(f"constant_certificate of {f.label or 'a hom'}: "
                           f"its target {ring.label} is a pair ring, which "
                           "the constant homotopy does not support")
    var = fresh_var("t", ring)
    h = compose(FuncHom(ring, carrier_ring(ring, var),
                        lambda v: lift(ring, v)), f, label="const")
    return HomotopyCertificate(h, f, f, var)


class HomotopyChain:
    """A composable list of certificates realizing the transitive closure."""

    def __init__(self, start, certs):
        self.start = start
        self.certs = list(certs)

    def validate(self, probes=20, rng=None):
        current = self.start
        for cert in self.certs:
            if _hom_key(cert.f0) != _hom_key(current):
                return False
            if not verify_certificate(cert, probes=probes, rng=rng):
                return False
            current = cert.f1
        return True

    def __len__(self):
        return len(self.certs)


def _hom_key(f):
    if isinstance(f, RingHom):
        return f.images
    raise HotringError("chain endpoints must be finite-source homs")


# ---------------------------------------------------------------------------
# bounded search


class NotFoundAtBound:
    """Explicit verdict: nothing of degree <= degree exists; says nothing
    about higher degrees."""

    def __init__(self, degree, searched):
        self.degree = degree
        self.searched = searched

    def __bool__(self):
        return False

    def __repr__(self):
        return f"<not found at degree {self.degree}; {self.searched} candidates>"


def search_elementary(f0, f1, degree, budget=200_000):
    """Search for a certificate f0 ~ f1 with images of degree <= degree in
    the variable x.

    The image of generator i is searched as its coefficient slots
    (lo, m_1, ..., m_{degree-1}, top): the endpoint constraints pin the
    constant coefficient lo = f0(g_i) and the top one, top = f1(g_i) - lo -
    sum m, so only the middle coefficients are searched, each drawn from
    the annihilator of the generator order.  Multiplicativity in R[x] is
    checked coefficient by coefficient on the integer codes of R's
    elements and R's code tables, as soon as the slots it reads are
    assigned, and a failing prefix of slots skips every completion (see
    rings._multiplicative_images); only the hit is decoded, straight into
    canonical polynomials.  ``searched`` counts whole options, one per
    choice of all middle coefficients of a generator, pruned ones
    included, so it is the count of trying every option in turn.  The
    check tables, the code tables and the annihilators are kept in the
    source's and the target's ``derived``, so every search between two
    rings shares them.  The hit is re-verified by verify_certificate on
    R's tuple arithmetic, which uses none of those tables.  Returns a
    verified certificate or a NotFoundAtBound verdict.
    """
    src, ring = f0.source, f0.target
    if f1.source is not src or f1.target is not ring:
        raise HotringError("f0 and f1 must share source and target")
    carrier = carrier_ring(ring, "x")
    codes = _codes(ring)

    if degree == 0:
        slots = [[[codes.code[lo]] if lo == hi else []]
                 for lo, hi in zip(f0.images, f1.images)]
        sums = None
    else:
        slots = [[[codes.code[lo]]] + [_annihilator(ring, d)] * (degree - 1)
                 for lo, d in zip(f0.images, src.orders)]
        sums = [codes.code[hi] for hi in f1.images]

    searched = [0]
    found = next(_multiplicative_images(src, ring, slots, budget, sums=sums,
                                        tried=searched), None)
    if found is None:
        return NotFoundAtBound(degree, searched[0])
    monos = [()] + [(("x", e),) for e in range(1, degree + 1)]
    images = [Poly(tuple((monos[e], codes.element[c])
                         for e, c in enumerate(coeffs) if c))
              for coeffs in found]
    cert = HomotopyCertificate(RingHom(src, carrier, images, label="h"),
                               f0, f1, "x")
    report = verify_certificate(cert)
    if not report.valid:
        raise VerificationFailure(
            f"search produced an invalid certificate: {report}",
            witness=report.failure)
    return cert


def search_up_to(f0, f1, degree, budget=200_000):
    """Try degrees 0..degree in order; first hit wins (deterministic)."""
    searched = 0
    for d in range(degree + 1):
        outcome = search_elementary(f0, f1, d, budget=budget)
        if isinstance(outcome, HomotopyCertificate):
            return outcome
        searched += outcome.searched
    return NotFoundAtBound(degree, searched)


# ---------------------------------------------------------------------------
# homotopy classes


class ClassesResult:
    def __init__(self, homs, uf, edges, degree):
        self.homs = homs
        self.uf = uf                # _UnionFind over hom indices
        self.edges = edges          # (i, j) with i < j -> certificate
        self.degree = degree

    def find(self, i):
        return self.uf.find(i)

    def classes(self):
        return self.uf.classes()

    def same_class(self, i, j):
        return self.find(i) == self.find(j)

    def chain_between(self, i, j):
        """Shortest chain of certificates linking hom i to hom j."""
        if i == j:
            return HomotopyChain(self.homs[i], [])
        adj = {}
        for (a, b), cert in self.edges.items():
            adj.setdefault(a, []).append((b, cert, False))
            adj.setdefault(b, []).append((a, cert, True))
        frontier = [(i, [])]
        seen = {i}
        while frontier:
            node, path = frontier.pop(0)
            for (nxt, cert, reverse) in sorted(adj.get(node, []),
                                               key=lambda t: t[0]):
                if nxt in seen:
                    continue
                step = flip_certificate(cert) if reverse else cert
                if nxt == j:
                    return HomotopyChain(self.homs[i], path + [step])
                seen.add(nxt)
                frontier.append((nxt, path + [step]))
        return None

    def index_of(self, hom):
        if not hasattr(self, "_index"):
            self._index = {h.images: i for i, h in enumerate(self.homs)}
        return self._index.get(hom.images)


def homotopy_classes(homs, degree, budget=200_000):
    """Union-find closure over elementary homotopies of degree <= degree.

    Every merge carries a verified certificate; the partition refines the
    true homotopy relation (only genuine identifications are made).  Degree
    0 is searched only between equal maps: its one certificate is the
    constant one.  The searches read the check tables and annihilators
    that search_elementary keeps on the source and target, so a later
    call between the same rings builds none of them again."""
    homs = sorted(homs, key=lambda h: h.images)
    uf = _UnionFind(len(homs))
    edges = {}

    remaining = len(homs)
    for i in range(len(homs)):
        if remaining <= 1:
            break
        for j in range(i + 1, len(homs)):
            if uf.find(i) == uf.find(j):
                continue
            for d in range(0 if homs[i].images == homs[j].images else 1,
                           degree + 1):
                cert = search_elementary(homs[i], homs[j], d, budget=budget)
                if isinstance(cert, HomotopyCertificate):
                    edges[(i, j)] = cert
                    uf.union(i, j)
                    remaining -= 1
                    break
    return ClassesResult(homs, uf, edges, degree)


def search_homotopy_equivalence(f, candidates, degree, budget=200_000):
    """Find g with f g ~ id and g f ~ id among the candidate homs S -> R.

    Uses the class closure on both endomorphism sets; chains longer than
    4 certificates are rejected.  Returns (g, chain_fg, chain_gf) or
    NotFoundAtBound."""
    r_ring, s_ring = f.source, f.target
    end_s = homotopy_classes(enumerate_homs(s_ring, s_ring), degree,
                             budget=budget)
    end_r = homotopy_classes(enumerate_homs(r_ring, r_ring), degree,
                             budget=budget)
    id_s = end_s.index_of(identity_hom(s_ring))
    id_r = end_r.index_of(identity_hom(r_ring))
    candidates = sorted(candidates, key=lambda h: h.images)
    for g in candidates:
        fg = end_s.index_of(compose(f, g))
        gf = end_r.index_of(compose(g, f))
        if fg is None or gf is None:
            continue
        if end_s.same_class(fg, id_s) and end_r.same_class(gf, id_r):
            chain_fg = end_s.chain_between(fg, id_s)
            chain_gf = end_r.chain_between(gf, id_r)
            if len(chain_fg) <= 4 and len(chain_gf) <= 4:
                return g, chain_fg, chain_gf
    return NotFoundAtBound(degree, len(candidates))


# ---------------------------------------------------------------------------
# stock certificates


def path_contraction_certificate(paths):
    """id ~ 0 on ER via p(x) -> p(xy); witnesses contractibility of ER."""
    var = paths.var
    yvar = fresh_var("y", paths)
    h = substitution_hom(paths, carrier_ring(paths, yvar),
                         {var: imul(ivar(var), ivar(yvar))},
                         label="E-contraction")
    return HomotopyCertificate(h, zero_hom(paths, paths),
                               identity_hom(paths), yvar)


def graded_certificate(ring, degrees):
    """For an N-graded finite ring: homogeneous a_n -> a_n t^n connects
    the projection onto degree 0 with the identity."""
    carrier = carrier_ring(ring, "t")
    images = []
    f0_images = []
    for i in range(ring.ngens):
        n = degrees[i]
        g = ring.gen(i)
        images.append(carrier.monomial(g, (("t", n),)) if n
                      else carrier.const(g))
        f0_images.append(g if n == 0 else ring.zero())
    h = RingHom(ring, carrier, images, label="graded")
    f0 = RingHom(ring, ring, f0_images, label="proj0")
    return HomotopyCertificate(h, f0, identity_hom(ring), "t")
