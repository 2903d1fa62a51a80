from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelattice import fixtures
from gamelattice.errors import ValidationError
from gamelattice.ordinals import Ordinal, parse_ordinal
from gamelattice.properties import PropertyProfile, parse_property_spec, outcome
from gamelattice.symbolic import (
    INF,
    NEG_INF,
    Piece,
    SymbolicGame,
    SymbolicSet,
    iterate_symbolic,
    validate_witness,
)
from gamelattice.witnesses import (
    lift_finite_game,
    load_witness,
    transfinite_witness,
)

# -- symbolic set algebra ------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)


@st.composite
def symbolic_sets(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(rationals)
        b = draw(rationals)
        lo, hi = min(a, b), max(a, b)
        lo_closed = draw(st.booleans())
        hi_closed = draw(st.booleans())
        if lo == hi:
            lo_closed = hi_closed = True
        if draw(st.booleans()):
            pieces.append(Piece(lo, hi, lo_closed, hi_closed))
        else:
            pieces.append(Piece(lo, lo, True, True))
    if draw(st.booleans()):
        tail = draw(rationals)
        pieces.append(Piece(tail, INF, draw(st.booleans()), False))
    return SymbolicSet.from_pieces(pieces)


probe_points = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=16
)


@given(a=symbolic_sets(), b=symbolic_sets(), q=probe_points)
@settings(max_examples=400, deadline=None)
def test_set_algebra_matches_membership_oracle(a, b, q):
    assert a.union(b).contains(q) == (a.contains(q) or b.contains(q))
    assert a.intersection(b).contains(q) == (a.contains(q) and b.contains(q))
    assert a.difference(b).contains(q) == (a.contains(q) and not b.contains(q))
    assert a.complement().contains(q) == (not a.contains(q))


@given(a=symbolic_sets(), b=symbolic_sets())
@settings(max_examples=200, deadline=None)
def test_canonical_form_laws(a, b):
    # canonical form is stable and operations are exact on it
    assert SymbolicSet.from_pieces(a.pieces) == a
    assert a.union(a) == a
    assert a.intersection(a) == a
    assert a.difference(a).is_empty
    assert a.complement().complement() == a
    assert a.union(b) == b.union(a)
    assert a.intersection(b) == b.intersection(a)
    assert a.issubset(a.union(b))
    assert a.intersection(b).issubset(a)


@given(a=symbolic_sets())
@settings(max_examples=200, deadline=None)
def test_sample_points_are_members(a):
    for q in a.sample_points(3):
        assert a.contains(q)


def test_canonical_merging():
    merged = SymbolicSet.interval(0, 1, hi_closed=False).union(SymbolicSet.point(1))
    assert merged == SymbolicSet.interval(0, 1)
    assert len(merged.pieces) == 1
    apart = SymbolicSet.interval(0, 1, hi_closed=False).union(
        SymbolicSet.interval(1, 2, lo_closed=False)
    )
    assert len(apart.pieces) == 2
    assert not apart.contains(1)


def test_infimum_attainment():
    s = SymbolicSet.interval(Fraction(1, 2), 1, lo_closed=False)
    assert s.infimum() == (Fraction(1, 2), False)
    s = SymbolicSet.interval(Fraction(1, 2), 1)
    assert s.infimum() == (Fraction(1, 2), True)


def test_set_json_round_trip():
    s = SymbolicSet.interval(Fraction(1, 3), 2, hi_closed=False).union(
        SymbolicSet.point(5)
    ).union(SymbolicSet.interval(7, INF, lo_closed=False))
    assert SymbolicSet.from_json_dict(s.to_json_dict()) == s


# -- the bundled transfinite witness -------------------------------------------


def test_witness_trace_shape():
    w = transfinite_witness()
    trace = iterate_symbolic(w, parse_ordinal("2w+5"))
    assert trace.status == "fixpoint"
    assert trace.closure_ordinal == Ordinal(1, 1)
    by_label = {str(o): sets for o, sets in trace.steps}
    two = SymbolicSet.point(2)
    assert by_label["1"][0] == SymbolicSet.interval(Fraction(1, 2), 1).union(two)
    assert by_label["2"][0] == SymbolicSet.interval(Fraction(3, 4), 1).union(two)
    assert by_label["1w+0"][0] == SymbolicSet.point(1).union(two)
    assert by_label["1w+1"][0] == two
    # the chain strictly shrinks at every successor step before the closure
    prev = None
    for o, sets in trace.steps:
        if prev is not None and not o.is_limit:
            for new, old in zip(sets, prev):
                assert new.issubset(old) and new != old
        prev = sets


def test_witness_not_stable_at_first_limit():
    w = transfinite_witness()
    trace = iterate_symbolic(w, parse_ordinal("2w+5"))
    by_label = {str(o): sets for o, sets in trace.steps}
    assert by_label["1w+0"] != by_label["1w+1"]
    assert trace.closure_ordinal > Ordinal(1, 0)


def test_witness_unresolved_below_closure():
    w = transfinite_witness()
    trace = iterate_symbolic(w, parse_ordinal("0w+3"))
    assert trace.status == "unresolved"
    assert trace.closure_ordinal is None


def test_witness_validation_passes():
    report = validate_witness(transfinite_witness())
    assert report.passed, report.entries
    assert report.details["transfinite_required"] is True
    assert report.details["closure_ordinal"] == "1w+1"


def test_validate_identity_game():
    ident = SymbolicGame(
        name="identity",
        players=2,
        initial=(SymbolicSet.interval(0, 1), SymbolicSet.interval(0, 1)),
        step=lambda sets: sets,
        limit=lambda block: block[-1],
    )
    trace = iterate_symbolic(ident, parse_ordinal("1w+0"))
    assert trace.status == "fixpoint" and trace.closure_ordinal == Ordinal(0, 0)
    report = validate_witness(ident)
    assert report.passed
    assert report.details["transfinite_required"] is None  # no limit step exercised


def test_validate_broken_limit_rule():
    base = transfinite_witness()
    broken = SymbolicGame(
        name="broken-limit",
        players=2,
        initial=base.initial,
        step=base.step,
        # grows the set at the limit: invalid
        limit=lambda block: tuple(
            s.union(SymbolicSet.point(Fraction(-7))) for s in block[-1]
        ),
        encodes=base.encodes,
    )
    report = validate_witness(broken)
    assert not report.passed
    entry = report.entries[0]
    assert entry["kind"] == "limit-containment-failure"
    assert entry["probe"] == "-7"


def test_validate_limit_stuck_at_block_start():
    base = transfinite_witness()
    stuck = SymbolicGame(
        name="stuck-limit",
        players=2,
        initial=base.initial,
        step=base.step,
        # returns the first iterate of the block: above the later ones
        limit=lambda block: block[0],
        encodes=base.encodes,
    )
    report = validate_witness(stuck, probe_depth=6)
    assert not report.passed
    assert report.entries[0]["kind"] == "limit-containment-failure"
    assert "probe" in report.entries[0]


def test_step_contraction_violation_raises_with_witness():
    from gamelattice.errors import ValidationError

    grower = SymbolicGame(
        name="grower",
        players=1,
        initial=(SymbolicSet.interval(0, 1),),
        step=lambda sets: (sets[0].union(SymbolicSet.point(9)),),
        limit=lambda block: block[-1],
    )
    with pytest.raises(ValidationError) as exc:
        iterate_symbolic(grower, parse_ordinal("0w+5"))
    assert exc.value.witness == 9


def _grows_at(stage):
    """The transfinite witness with a step, or a limit rule, that adds -7."""
    base = transfinite_witness()

    def grow(sets):
        return tuple(s.union(SymbolicSet.point(-7)) for s in sets)

    if stage == "step":
        return replace(base, name="growing-step", step=lambda sets: grow(base.step(sets)))
    return replace(base, name="growing-limit", limit=lambda block: grow(block[-1]))


@pytest.mark.parametrize(
    "stage,kind",
    [("step", "step-contraction-failure"), ("limit", "limit-containment-failure")],
)
def test_descent_failure_is_reported_with_its_stage(stage, kind):
    game = _grows_at(stage)
    with pytest.raises(ValidationError) as exc:
        iterate_symbolic(game, parse_ordinal("2w+8"))
    assert exc.value.stage == stage
    assert exc.value.witness == -7
    report = validate_witness(game)
    assert not report.passed
    assert report.entries == [{"kind": kind, "message": str(exc.value), "probe": "-7"}]


# -- embedding finite games ----------------------------------------------------


@pytest.mark.parametrize(
    "game,prop",
    [
        (fixtures.PD, "sd:l"),
        (fixtures.CHAIN, "sd:l"),
        (fixtures.MIX, "msd:l"),
        (fixtures.MP, "br:g:pure"),
    ],
)
def test_embedding_consistency(game, prop):
    profile = PropertyProfile.uniform(
        parse_property_spec(prop), game.num_players
    )
    lifted = lift_finite_game(game, profile)
    sym = iterate_symbolic(lifted, parse_ordinal("1w+0"))
    fin = outcome(profile, game)
    assert sym.status == "fixpoint"
    assert str(sym.closure_ordinal) == str(fin.closure_ordinal)
    assert len(sym.steps) == len(fin.steps)
    for (o1, sets), (o2, r) in zip(sym.steps, fin.steps):
        assert str(o1) == str(o2)
        for i in game.players():
            members = {s for s in game.strategies(i) if sets[i].contains(s)}
            assert members == set(r.sets[i])


def test_registry_round_trip():
    assert load_witness("witness-tg").name == "witness-tg"
    assert load_witness("embedded-finite-pd").encodes == "sd:l"
    with pytest.raises(ValueError):
        load_witness("no-such-witness")


def test_trace_json_shape():
    w = load_witness("embedded-finite-pd")
    trace = iterate_symbolic(w, parse_ordinal("1w+0"))
    payload = trace.to_json_dict()
    assert payload["status"] == "fixpoint"
    assert payload["closure_ordinal"] == "1"
    assert payload["steps"][0]["ordinal"] == "0"
