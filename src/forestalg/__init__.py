"""Finite forest algebras, temporal-logic definability, wreath decompositions."""

from .algebra import (FiniteMonoid, ForestAlgebra, check_axioms,
                      quotient_by_ideal, u1, u2)
from .decide import (confusion_witness, decide, is_ef_algebra, nonconfusion)
from .decompose import (Cascade, decompose_ef, decompose_efex,
                        decompose_kdefinite, tensor_cascade, wreath_compose)
from .defk import (alpha1, definiteness_degree, definiteness_oracle,
                   free_kdefinite, simk_equiv, simk_key)
from .hom import (Homomorphism, Recognizer, factors_through, image_restrict,
                  reachable_pairs, realize, recognizers_isomorphic, relabeled,
                  syntactic)
from .logic import models, models_tree, parse_formula, print_formula, to_recognizer
from .oracle import brute_confused_pairs, enumerate_forests
from .reach import (ideal_below, ideal_not_above, quotient_hom, reachability,
                    subminimal_factorization)
from .terms import (apply, compose, depth, ic_normalize, parse_context,
                    parse_forest, print_context, print_forest, relabel,
                    truncate)

__version__ = "0.1.0"
