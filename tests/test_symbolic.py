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
    _witness_limit,
    _witness_step,
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
def test_probe_is_a_member(a):
    if a.is_empty:
        with pytest.raises(ValueError):
            a.probe()
    else:
        assert a.contains(a.probe())


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
    # every depth closes at 1w+1: the engine tests for a fixpoint before it
    # applies a block's depth, so a one-step block already reaches omega
    for depth in range(1, 17):
        report = validate_witness(transfinite_witness(), probe_depth=depth)
        assert report.passed, (depth, report.entries)
        assert report.details["transfinite_required"] is True
        assert report.details["closure_ordinal"] == "1w+1"


def test_validate_identity_game():
    ident = SymbolicGame(
        name="identity",
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
        initial=(SymbolicSet.interval(0, 1),),
        step=lambda sets: (sets[0].union(SymbolicSet.point(9)),),
        limit=lambda block: block[-1],
    )
    with pytest.raises(ValidationError) as exc:
        iterate_symbolic(grower, parse_ordinal("0w+5"))
    assert exc.value.witness == 9


# -- the witness step against its payoffs --------------------------------------


def _psi(y):
    return (1 + min(y, 1)) / 2


def _payoff(x, y):
    """u(x, y): min(x, psi(y)) on [0,1]; the outside option 2 pays 2 against
    y in {1, 2} and -1 otherwise."""
    if x == 2:
        return 2 if y in (1, 2) else -1
    return min(x, _psi(y))


FULL = SymbolicSet.interval(0, 1).union(SymbolicSet.point(2))


def _dominated(x, opponents):
    """Does some z in [0,1] u {2} pay strictly more than x against every y?
    Against y the better z form {z in [0,1] : z > u(x,y)} when psi(y) exceeds
    u(x,y), plus 2 when u(2,y) does; no opponents leave every z."""
    better = FULL
    for y in opponents:
        c = _payoff(x, y)
        against_y = SymbolicSet.empty()
        if _psi(y) > c:
            against_y = SymbolicSet.interval(c, 1, lo_closed=False)
        if _payoff(2, y) > c:
            against_y = against_y.union(SymbolicSet.point(2))
        better = better.intersection(against_y)
    return not better.is_empty


def _breakpoints():
    eps = Fraction(1, 1024)
    out = {Fraction(1), Fraction(2), 1 - eps}
    for k in range(5):
        b = 1 - Fraction(1, 2**k)
        out.update(q for q in (b - eps, b, b + eps) if 0 <= q <= 1)
    return sorted(out)


point_sets = st.lists(st.sampled_from(_breakpoints()), max_size=5).map(set)


@given(xs=point_sets, ys=point_sets)
@settings(max_examples=400, deadline=None)
def test_witness_step_matches_its_payoffs(xs, ys):
    new_x, new_y = _witness_step((SymbolicSet.points(xs), SymbolicSet.points(ys)))
    assert new_x == SymbolicSet.points(x for x in xs if not _dominated(x, ys))
    assert new_y == SymbolicSet.points(y for y in ys if not _dominated(y, xs))


# -- limit rules that refuse ----------------------------------------------------


def _tail(lo, closed=True):
    return SymbolicSet.interval(lo, 1, lo_closed=closed).union(SymbolicSet.point(2))


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "block,probe",
    [
        ([(_tail(0), _tail(0))], None),  # no recorded step
        ([(_tail(0), _tail(0)), (_tail(HALF), _tail(Fraction(1, 3)))], Fraction(1, 3)),
        ([(_tail(0), _tail(0)), (_tail(HALF), SymbolicSet.interval(HALF, 1))], HALF),
        ([(_tail(0), _tail(0)), (_tail(HALF), _tail(HALF, closed=False))], HALF),
        ([(_tail(0), _tail(0)), (_tail(HALF), SymbolicSet.empty())], None),
        ([(_tail(0), _tail(0)), (_tail(1), _tail(1))], 1),
        (
            [
                (SymbolicSet.interval(NEG_INF, 1).union(SymbolicSet.point(2)),) * 2,
                (_tail(HALF), _tail(HALF)),
            ],
            NEG_INF,
        ),
    ],
)
def test_witness_limit_refuses_blocks_it_cannot_check(block, probe):
    with pytest.raises(ValidationError) as exc:
        _witness_limit(block)
    assert exc.value.stage == "limit"
    assert exc.value.witness == probe


def _lifted_chain():
    profile = PropertyProfile.uniform(parse_property_spec("sd:l"), 2)
    return lift_finite_game(fixtures.CHAIN, profile)


@pytest.mark.parametrize("depth", [1, 2])
def test_lifted_limit_refuses_a_game_still_moving(depth):
    game = _lifted_chain()
    with pytest.raises(ValidationError) as exc:
        iterate_symbolic(game, parse_ordinal("2w+0"), probe_depth=depth)
    assert exc.value.stage == "limit"
    trace = iterate_symbolic(game, parse_ordinal(f"0w+{depth}"))
    (_, before), (_, after) = trace.steps[-2:]
    removed = [a.difference(b) for a, b in zip(before, after)]
    assert any(r.contains(exc.value.witness) for r in removed)
    report = validate_witness(game, probe_depth=depth)
    assert not report.passed
    assert report.entries[0]["kind"] == "limit-containment-failure"


@pytest.mark.parametrize("depth", [3, 4, 16, 32])
def test_lifted_chain_closes_at_three_from_depth_three(depth):
    trace = iterate_symbolic(_lifted_chain(), parse_ordinal("2w+0"), probe_depth=depth)
    assert trace.status == "fixpoint"
    assert trace.closure_ordinal == Ordinal(0, 3)
    assert validate_witness(_lifted_chain(), probe_depth=depth).passed


def test_a_fixpoint_at_the_bound_is_found():
    pd = load_witness("embedded-finite-pd")
    trace = iterate_symbolic(pd, parse_ordinal("1"))
    assert trace.status == "fixpoint"
    assert trace.closure_ordinal == Ordinal(0, 1)
    chain = iterate_symbolic(_lifted_chain(), parse_ordinal("3"))
    assert chain.closure_ordinal == Ordinal(0, 3)
    assert iterate_symbolic(_lifted_chain(), parse_ordinal("2")).status == "unresolved"


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
