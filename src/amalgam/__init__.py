"""Exact workbench for finite commutative rings and their amalgamations.

Layers, bottom up:

* znlinalg  -- canonical linear algebra over Z/N (Howell normal form);
* abgroups  -- cyclic decompositions of finite abelian groups;
* rings     -- structure-constant rings, homs, basic constructors;
* modules   -- submodules, syzygies, minimal free resolutions;
* spectrum  -- nilradical, idempotents, locality, maximal ideals;
* amalgam   -- f(A)+J subrings, amalgamations A |><|^f J, duplications;
* checks    -- the executable verification harness;
* instances -- the shipped standard instance set;
* dsl / cli -- the declarative text format and command line front end.
"""

__version__ = "0.1.0"

from .znlinalg import HowellBasis, Solver, ZnMatrix, kernel
from .rings import (FiniteRing, ModuleSpec, RingElement, RingHom, product,
                    trivial_extension, trunc_poly, verify_ring, zmod)
from .modules import (CokernelSpec, Ideal, Resolution, Submodule,
                      global_dimension_signature, ideal_span, ideal_sum,
                      is_projective, minimal_generators, minimal_resolution,
                      submodule_span, syzygy)
from .spectrum import (idempotents, is_local, maximal_ideals, nilradical,
                       quotient_ring)
from .amalgam import AmalgamObjects, amalgamation, duplication, image_plus_J
from .instances import (standard_duplication, standard_idealization_tower,
                        standard_instances, standard_truncation)

__all__ = [
    "HowellBasis", "Solver", "ZnMatrix", "kernel",
    "FiniteRing", "ModuleSpec", "RingElement", "RingHom", "product",
    "trivial_extension", "trunc_poly", "verify_ring", "zmod",
    "CokernelSpec", "Ideal", "Resolution", "Submodule",
    "global_dimension_signature", "ideal_span", "ideal_sum", "is_projective",
    "minimal_generators", "minimal_resolution", "submodule_span", "syzygy",
    "idempotents", "is_local", "maximal_ideals", "nilradical", "quotient_ring",
    "AmalgamObjects", "amalgamation", "duplication", "image_plus_J",
    "standard_duplication", "standard_idealization_tower",
    "standard_instances", "standard_truncation",
]
