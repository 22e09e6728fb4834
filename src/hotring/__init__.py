"""Finitary homotopy theory of associative rings, at desk scale.

Finite nonunital rings with structure constants, exact polynomial
algebra with central variables, elementary homotopies with verifiable
certificates, the simplicial ring R[Delta], quasi-invertible matrix
groups with truncated KV_1, fibration axioms, Puppe sequences, left
triangles and K_0 presentations.
"""

from .errors import (BadUnit, BudgetExceeded, DepthExceeded, HotringError,
                     IllDefined, IndexOutOfRange, MalformedInput,
                     MembershipViolation, NotAssociative, NotSurjective,
                     UnknownVariable, VerificationFailure)
from .rings import (FiniteRing, FuncHom, Hom, IntegerRing, Ring, RingHom, ZZ,
                    additive_closure, canonicalize, compose, enumerate_homs,
                    ideal_closure, identity_hom, is_surjective,
                    kernel_subring, product_ring, pullback, quotient,
                    validate_ring, zero_hom, zero_ring)
from .poly import (LoopRing, PathRing, Poly, PolyLike, PolyRing,
                   coefficient_map, constant_of, double_loop_ring, evaluate,
                   iconst, ivar, monomial, one_minus, sigma_hom, slices,
                   substitute, substitution_hom, swap_homotopy, tau_hom)
from .virtual import (OmegaTildeRing, PairRing, Unitalization, alpha_hom,
                      beta_hom, mapping_path_ring, omega_pair_hom,
                      omega_tilde, unitalization)
from .simplicial import (SimplexRing, check_contraction_compatibility,
                         check_simplicial_identities, contraction_map)
from .homotopy import (HomotopyCertificate, HomotopyChain, NotFoundAtBound,
                       flip_certificate, graded_certificate, homotopy_classes,
                       path_contraction_certificate, postcompose_certificate,
                       precompose_certificate, search_elementary,
                       search_homotopy_equivalence, search_up_to,
                       verify_certificate)
from .glk import (CircleGroup, Pi0Presentation, circle_determinant,
                  determinant_certificate, gl_group, kv1_approx,
                  quasi_inverse, stabilize, strict_pi0)
from .triangle import (FibrationFamily, K0Diagram, K0Result, LeftTriangle,
                       MappingPath, PuppeSequence, TruncatedPuppe,
                       check_axioms, factorize, gl_fibration_flag,
                       k0_presentation, mapping_path, octahedron, puppe,
                       rotate, rotation_witness, standard_triangle,
                       truncated_path_ring)
from .corpus import corpus, tower_homs, GRADING

__version__ = "0.1.0"
