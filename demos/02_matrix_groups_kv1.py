"""Quasi-invertible matrices and the truncated first K-group.

Over a nonunital ring the invertible matrices I + M are encoded by their
M parts under the circle product M o N = M + N + MN.  Identifying the
endpoints of polynomial paths in GL_n(A[t]) computes a truncation of
pi_0 GL(A[Delta]), the first Karoubi-Villamayor group.
"""

from hotring import (circle_determinant, corpus, determinant_certificate,
                     gl_group, kv1_approx, quasi_inverse)

rings = corpus()

# Over a finite ring the circle powers M, M o M, ... decide: M is
# quasi-invertible exactly when they reach 0, and the last power before 0
# is its quasi-inverse.  Over a square-zero ring that is N = -M.
sq0 = rings["sq0_z2"]
m = ((sq0.gen(0), sq0.zero()), (sq0.gen(0), sq0.gen(0)))
print("square-zero witness:", quasi_inverse(sq0, m).witness)

# Over the field F_3 a constant a is quasi-invertible iff 1 + a is a
# unit; the circle powers of a = 2 repeat (2 o 2 = 2 + 2 + 4 = 2) without
# reaching 0.
f3 = rings["z3_unital"]
print("F3, a=1:", quasi_inverse(f3, (((1,),),)).status)
print("F3, a=2:", quasi_inverse(f3, (((2,),),)).status, "(1 + 2 = 0)")

# The finite circle groups, with all group axioms checked on the table.
g1 = gl_group(sq0, 1)
print("GL_1(sq0_z2) order:", g1.order(), "(the additive group of the ring)")
g2 = gl_group(f3, 2)
print("GL_2(F_3) order:", g2.order())

# KV_1 at level (n, d): quotient GL_n(A) by ends of degree-d paths that
# start at the identity.  Square-zero rings collapse completely at d = 1;
# F_3 keeps exactly the determinant obstruction, matching K_1(F_3) = Z/2.
for label in ("sq0_z2", "sq0_z3", "z2_unital", "z3_unital"):
    pres = kv1_approx(rings[label], 2, 1)
    print(f"KV1({label}) at (n=2, d=1): order {pres.order},"
          f" invariant factors {pres.invariant_factors}")

# The determinant certificate rules out over-collapse for F_3: every
# identified generator has det(I + P(1)) = 1, so the quotient can never
# drop below the size of the determinant image.
pres = kv1_approx(f3, 2, 1)
print("determinant certificate:", determinant_certificate(pres))
print("dets of class reps:",
      sorted(circle_determinant(f3, rep) for rep in pres.reps))

# Monotonicity: enlarging the degree bound can only merge classes.
orders = [kv1_approx(rings["sq0_z3"], 2, d).order for d in (1, 2)]
print("sq0_z3 class counts at d=1,2:", orders)
