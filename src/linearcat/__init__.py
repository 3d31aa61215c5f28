"""Symbolic word calculus and finite model checking for categories carrying
a monoidal sum structure and a monoidal product structure linked by a
transformer family."""

from .centrality import (CentralMonoid, CoverWitness, add_central,
                         central_hom, central_monoid, check_distributivity,
                         check_linearity_theorem, covers_prod, covers_sum,
                         is_central, is_central_matrix)
from .checks import (CheckReport, check_prelinear, check_structure,
                     check_transformer, is_lineariser)
from .errors import (ArityMismatch, BoundaryMismatch, IntegrityError,
                     LinearcatError, LineariserRequired, ModelFileError,
                     NonInvertibleGenerator, NotCentralMorphism,
                     NotInvertibleInModel, ParseError)
from .evaluate import (eval_canon, eval_morphism, eval_object, inclusion,
                       projection, zero_morphism)
from .matrices import (MatrixPresentation, coherence_identity_check,
                       identity_matrix, identity_matrix_sweep, matrix_of,
                       realize)
from .models import (CMonObj, FinCMon, FinPtSet, Model, Mor, PtObj,
                     all_commutative_monoids, load_model, model_from_dict)
from .search import canonical_between, pure_bracketings, words_with
from .sweeps import (PairCorpus, coherence_sweep, equal_length_pairs,
                     normalized_cancellation, unit_square_sweep)
from .terms import (PARTIALLY_LINEAR, PRELINEAR, CanonTerm, ElementaryTerm,
                    Generator, GenTerm, Par, VComp, collapse_to_one,
                    collapse_to_zero, elementary_factorization, identity_term,
                    invert, parse_term, point_morphism, prod_par, render_term,
                    sum_par, unit_cancel, vcompose)
from .words import (Attachment, CoreSplit, Prod, Sum, Word,
                    attachment_sequence, core_split, is_unit_free, length,
                    parse_word, render_word, unit_count)

__version__ = "0.1.0"
