"""Iterated strategy elimination on the restriction lattice of a strategic
game, epistemic model checking of common knowledge and belief of
rationality, and transfinite symbolic iteration, all in exact rational
arithmetic."""

from .dominance import (
    Distribution,
    exists_supporting_belief,
    is_best_response,
    mixed_dominance_witness,
    pearce_equivalence_check,
    strictly_dominates_pure,
)
from .epistemic import (
    EpistemicModel,
    common_belief_event,
    common_knowledge_event,
    enumerate_ck_cb,
    event_restriction,
    is_evident,
    rational_states,
    witness_model_thm1,
    witness_model_thm2,
)
from .errors import (
    BudgetError,
    ClassificationError,
    GameFormatError,
    GameLatticeError,
    InternalError,
    PreconditionError,
    ShapeError,
    UnsupportedBeliefError,
    ValidationError,
)
from .games import (
    Game,
    Restriction,
    lattice_join,
    lattice_leq,
    lattice_meet,
    make_game,
    parse_game,
    parse_game_file,
    restriction_from_names,
    restriction_top,
)
from .iteration import (
    IterationTrace,
    is_fixpoint,
    is_post_fixpoint,
    iterate_operator,
    verify_contracting_outcome,
    verify_inclusion_lemma,
    verify_tarski,
)
from .ordinals import Ordinal, parse_ordinal
from .properties import (
    Evaluator,
    PropertyProfile,
    PropertySpec,
    apply_operator,
    check_property_monotone,
    check_singleton_condition,
    outcome,
    parse_property_spec,
    passing_mask,
    pearce_equivalence_suite,
    property_is_monotone,
    property_operator,
    verify_theorem_just,
    verify_theorem_just1,
)
from .symbolic import SymbolicGame, SymbolicSet, iterate_symbolic, validate_witness
from .witnesses import lift_finite_game, load_witness, transfinite_witness

__version__ = "0.1.0"
