"""Intensional rings: pairs cut out by a predicate, and unitalization.

These rings are usually infinite, so they carry a membership predicate
and a sampler instead of an element list.  Fibre products of the form
P(g) = B x_C EC and the paired loop ring are built here as pair rings
whose components are other ring objects.  ``PairRing`` itself lives in
``rings`` and is re-exported here as the same class.
"""

from __future__ import annotations

from .rings import FiniteRing, FuncHom, PairRing, Ring, RingHom, ZZ
from .poly import (LoopRing, PathRing, PolyRing, eval_endpoint, evaluate,
                   lift, poly_add, poly_sub, shift_poly)


class Unitalization(Ring):
    """A^+ = Z (+) A with (n,a)(m,b) = (nm, nb + ma + ab)."""

    def __init__(self, base, label=None):
        self.base = base
        self.label = label or f"{base.label}+"

    def zero(self):
        return (0, self.base.zero())

    def one(self):
        return (1, self.base.zero())

    def add(self, a, b):
        return (a[0] + b[0], self.base.add(a[1], b[1]))

    def neg(self, a):
        return (-a[0], self.base.neg(a[1]))

    def mul(self, a, b):
        n, x = a
        m, y = b
        part = self.base.add(self.base.scalar(n, y), self.base.scalar(m, x))
        return (n * m, self.base.add(part, self.base.mul(x, y)))

    def scalar(self, n, a):
        return (n * a[0], self.base.scalar(n, a[1]))

    def contains(self, a):
        return (isinstance(a, tuple) and len(a) == 2
                and isinstance(a[0], int) and self.base.contains(a[1]))

    def sample(self, rng):
        return (rng.randrange(-4, 5), self.base.sample(rng))

    def augmentation(self):
        return FuncHom(self, ZZ, lambda a: a[0], label="eps")

    def inclusion(self):
        if isinstance(self.base, FiniteRing):
            return RingHom(self.base, self,
                           [(0, self.base.gen(i)) for i in range(self.base.ngens)],
                           label="incl")
        return FuncHom(self.base, self, lambda a: (0, a), label="incl")


def unitalization(base, label=None):
    return Unitalization(base, label=label)


class OmegaTildeRing(PairRing):
    """Pairs (f, g) of one-variable polynomials with f(1)=g(0), f(0)=0, g(1)=0.

    This is the kernel of (f, g) -> (f(0), g(1)) on the fibre product
    {(f, g) : f(1) = g(0)}; concatenation-of-paths presentation of loops.
    """

    def __init__(self, base, var="x", label=None):
        self.base_ring = base
        self.var = var
        fring = PolyRing(base, (var,))
        sb = fring.scalar_base

        def predicate(pair):
            f, g = pair
            if not evaluate(sb, f, var, 0).is_zero_poly():
                return False
            if not evaluate(sb, g, var, 1).is_zero_poly():
                return False
            return evaluate(sb, f, var, 1) == evaluate(sb, g, var, 0)

        def sampler(rng):
            f = PathRing(base, var).sample(rng)
            f1 = evaluate(sb, f, var, 1)
            g = poly_sub(sb, f1, shift_poly(sb, f1, var, 1))
            return (f, poly_add(sb, g, LoopRing(base, var).sample(rng)))

        super().__init__(fring, fring, predicate=predicate, sampler=sampler,
                         label=label or f"OmegaTilde({base.label})")


def omega_tilde(base, var="x"):
    return OmegaTildeRing(base, var)


def alpha_hom(loop, tilde):
    """Omega B -> OmegaTilde B, f -> (f, 0)."""
    zero = tilde.right.zero()
    return FuncHom(loop, tilde, lambda f: (f, zero), label="alpha")


def beta_hom(loop, tilde):
    """Omega B -> OmegaTilde B, f -> (0, f)."""
    zero = tilde.left.zero()
    return FuncHom(loop, tilde, lambda f: (zero, f), label="beta")


def omega_pair_hom(loop, tilde):
    """Omega B x Omega B -> OmegaTilde B, the concatenation pairing."""
    source = PairRing(loop, loop, label=f"({loop.label})^2")
    return FuncHom(source, tilde, lambda fg: (fg[0], fg[1]), label="omega")


def mapping_path_ring(g, var, label=None):
    """P(g) = {(b, p) : p(0) = 0, p(1) = g(b)} for g : B -> C."""
    b_ring, c_ring = g.source, g.target
    paths = PathRing(c_ring, var)
    sb = paths.scalar_base

    def predicate(pair):
        b, p = pair
        return eval_endpoint(c_ring, p, var, 1) == g.apply(b)

    def sampler(rng):
        b = b_ring.sample(rng)
        p = shift_poly(sb, lift(c_ring, g.apply(b)), var, 1)
        loop_part = LoopRing(c_ring, var).sample(rng)
        return (b, paths.add(p, loop_part))

    return PairRing(b_ring, paths, predicate=predicate, sampler=sampler,
                    label=label or f"P({g.label or g.source.label + '->' + g.target.label})")
