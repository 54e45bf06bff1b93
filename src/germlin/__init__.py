"""Exact computer algebra for groups of germs of complex diffeomorphisms.

Subpackages by layer:

* :mod:`germlin.cyclotomic`   exact rationals and cyclotomic fields,
* :mod:`germlin.jets`          truncated power series (jets),
* :mod:`germlin.germs`         the composition group of germs, words and the
                               reduced-word search,
* :mod:`germlin.group_cert`    irreducibility certification and witness search,
* :mod:`germlin.linearizer`    the order-by-order linearization algorithm,
* :mod:`germlin.affine`        the affine group and the conjugacy-rigidity test,
* :mod:`germlin.pforms`        polynomial differential forms and foliation checks,
* :mod:`germlin.registry`      bundled worked examples,
* :mod:`germlin.cli`           the ``germlin`` command.
"""

from .affine import AffineMap, lemma_predicate
from .cyclotomic import (
    CycloElem,
    cyclo_embed,
    cyclotomic_polynomial,
    format_scalar,
    parse_scalar,
    prime_power_order,
    root_of_unity_order,
    solve_root_constraints,
    zeta,
)
from .germs import (
    Germ,
    Word,
    conjugate,
    evaluate_word,
    identity_germ,
    iterate,
    tangency_data,
)
from .group_cert import (
    GroupPresentation,
    IrreducibilityReport,
    certify,
    certify_roots,
    check_conjugacy_witness,
    check_product_identity,
    load_presentation_file,
    search_conjugator,
)
from .jets import (
    DEFAULT_ORDER,
    Jet,
    jet_comp_inverse,
    jet_compose,
    jet_derivative,
    jet_mul_inverse,
    jet_rational_power,
)
from .linearizer import (
    LinearizationResult,
    StepRecord,
    flat_case_check,
    group_order,
    linearize,
    linearize_step,
    phi_morphism,
    psi_morphism,
)
from .pforms import (
    MultiPoly,
    PForm1,
    PForm2,
    PForm3,
    blowup_chart_pullback,
    exterior_d,
    first_integral_check,
    integrability_check,
    kupka_test,
    lowest_jet,
    meromorphic_first_integral_check,
    radial_contraction,
    tangent_cone,
    wedge,
)

__version__ = "0.1.0"
