import contextlib
import io
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamelattice import cli, fixtures, properties, symbolic, witnesses
from gamelattice.errors import ValidationError
from gamelattice.games import mask_members
from gamelattice.ordinals import Ordinal, parse_ordinal
from gamelattice.properties import PropertyProfile, parse_property_spec, outcome
from gamelattice.symbolic import (
    INF,
    NEG_INF,
    Piece,
    SymbolicGame,
    SymbolicSet,
    _cmp,
    iterate_symbolic,
    validate_witness,
)
from gamelattice.witnesses import (
    _lower_end,
    _witness_limit,
    _witness_step,
    lift_finite_game,
    load_witness,
    transfinite_witness,
)
from oracles import (
    eliminate_one_side_by_sets,
    sweep_complement,
    sweep_difference,
    sweep_from_pieces,
    sweep_intersection,
    sweep_union,
)

# -- symbolic set algebra ------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)


# five values, each given as an int or as a Fraction: sets drawn with these
# ends share endpoints, so their cuts touch, coincide or put a point on an
# open end
shared_ends = st.sampled_from([-1, 0, 1, 2, 3]).flatmap(
    lambda v: st.sampled_from([v, Fraction(v)])
)


@st.composite
def piece_lists(draw, head=False, ends=rationals):
    """Up to three bounded pieces or points, which may overlap or touch, an
    optional tail up to +inf and, when head is set, an optional head from
    -inf, every finite end drawn from ends."""
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(ends)
        b = draw(ends)
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
        tail = draw(ends)
        pieces.append(Piece(tail, INF, draw(st.booleans()), False))
    if head and draw(st.booleans()):
        pieces.append(Piece(NEG_INF, draw(ends), False, draw(st.booleans())))
    return pieces


def symbolic_sets(head=False):
    return piece_lists(head).map(SymbolicSet.from_pieces)


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


@given(raw=piece_lists(head=True), b=symbolic_sets(head=True), q=probe_points)
@settings(max_examples=200, deadline=None)
def test_every_operation_returns_its_canonical_form(raw, b, q):
    # the membership oracle cannot tell a canonical form from an unsorted or
    # unmerged one; this pins the one form the JSON prints
    a = SymbolicSet.from_pieces(raw)
    assert a.contains(q) == any(p.contains(q) for p in raw)
    for s in (
        a,
        a.union(b),
        a.intersection(b),
        a.difference(b),
        b.difference(a),
        a.complement(),
        b.complement(),
    ):
        for left, right in zip(s.pieces, s.pieces[1:]):
            assert left.hi < right.lo or (
                left.hi == right.lo and not left.hi_closed and not right.lo_closed
            )


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


piece_list_pairs = st.one_of(
    st.tuples(piece_lists(head=True), piece_lists(head=True)),
    st.tuples(
        piece_lists(head=True, ends=shared_ends), piece_lists(head=True, ends=shared_ends)
    ),
)


@given(pair=piece_list_pairs)
@settings(max_examples=400, deadline=None)
def test_the_merge_walk_returns_the_sorted_sweeps_pieces(pair):
    raw_a, raw_b = pair
    a, b = SymbolicSet.from_pieces(raw_a), SymbolicSet.from_pieces(raw_b)
    for got, expected in [
        (a, sweep_from_pieces(raw_a)),
        (b, sweep_from_pieces(raw_b)),
        (a.union(b), sweep_union(a, b)),
        (a.intersection(b), sweep_intersection(a, b)),
        (a.difference(b), sweep_difference(a, b)),
        (b.difference(a), sweep_difference(b, a)),
        (a.complement(), sweep_complement(a)),
        (b.complement(), sweep_complement(b)),
    ]:
        assert got.pieces == expected
        assert str(got) == str(SymbolicSet(expected))


ENDPOINTS = [
    NEG_INF,
    float("-inf"),
    Fraction(-7, 2),
    -3,
    Fraction(-1, 3),
    0,
    Fraction(0),
    Fraction(1, 2),
    2,
    Fraction(2),
    Fraction(10**30 + 1, 10**30),
    Fraction(10**30, 3),
    INF,
    float("inf"),
]


def test_cmp_is_pythons_own_order():
    for a in ENDPOINTS:
        assert _cmp(a, a) == 0
        for b in ENDPOINTS:
            assert _cmp(a, b) == (a > b) - (a < b), (a, b)


def test_a_finite_float_endpoint_keeps_its_order_and_printing():
    p = Piece(0.5, 1, True, False)
    assert str(p) == "[0.5,1)"
    assert p.to_json_dict()["lo"] == "0.5"
    assert p.contains(Fraction(1, 2)) and p.contains(Fraction(3, 4))
    assert not p.contains(Fraction(1, 4)) and not p.contains(1)
    assert str(Piece(-0.5, -0.5, True, True)) == "{-0.5}"
    assert str(Piece(NEG_INF, -0.5, False, True)) == "(-inf,-0.5]"
    with pytest.raises(ValueError, match="empty piece"):
        Piece(1.5, 1, True, True)
    with pytest.raises(ValueError, match="degenerate"):
        Piece(0.5, Fraction(1, 2), True, False)
    s = SymbolicSet.from_pieces([p, Piece(Fraction(3, 4), 2, True, True)])
    assert str(s) == "[0.5,2]"


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


@pytest.mark.parametrize("witness", ["witness-tg", "embedded-finite-pd"])
@pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "text"])
def test_a_transfinite_run_compares_no_fraction_with_a_float(monkeypatch, witness, json_flag):
    floats = []
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):

        def compare(a, b, original=getattr(Fraction, name), name=name):
            if isinstance(b, float):
                floats.append((name, a, b))
            return original(a, b)

        monkeypatch.setattr(Fraction, name, compare)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["transfinite", "run", *json_flag, witness]) == 0
    assert floats == []


def test_a_witness_run_pins_its_walks_and_hashes_no_fraction(monkeypatch):
    # one merge walk per side of each step, and those of the descent checks;
    # the step memo is keyed by its input's identity, so no Fraction is hashed
    walks, hashes = [], []
    walk, fraction_hash = symbolic._walk, Fraction.__hash__
    monkeypatch.setattr(symbolic, "_walk", lambda *args: walks.append(args) or walk(*args))
    monkeypatch.setattr(Fraction, "__hash__", lambda q: hashes.append(q) or fraction_hash(q))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["transfinite", "run", "--json", "witness-tg"]) == 0
    assert (len(walks), len(hashes)) == (182, 0)


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


# lower ends 0, 1 and 1 - 2^-k for k <= 6: psi's threshold (1 + c)/2 of one
# is the next, so a set's ends meet its opponent's threshold, open or closed
WITNESS_ENDS = sorted({1 - Fraction(1, 2**k) for k in range(7)} | {Fraction(1)})


@st.composite
def witness_sets(draw):
    """A subset of [0,1] u {2}, the witness's strategy space: up to three
    points or intervals with open or closed ends on WITNESS_ENDS, and {2}
    or not."""
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted((draw(st.sampled_from(WITNESS_ENDS)), draw(st.sampled_from(WITNESS_ENDS))))
        if a == b or draw(st.booleans()):
            pieces.append(Piece(a, a, True, True))
        else:
            pieces.append(Piece(a, b, draw(st.booleans()), draw(st.booleans())))
    if draw(st.booleans()):
        pieces.append(Piece(Fraction(2), Fraction(2), True, True))
    return SymbolicSet.from_pieces(pieces)


@given(x=witness_sets(), y=witness_sets())
@settings(max_examples=400, deadline=None)
def test_witness_step_matches_its_set_algebra_decision(x, y):
    assert _witness_step((x, y)) == (
        eliminate_one_side_by_sets(x, y),
        eliminate_one_side_by_sets(y, x),
    )


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


def _lower_end_by_its_set(s):
    """`_lower_end` by its definition: s compared with [l,1] u {2} built
    through the set algebra."""
    low, closed = s.infimum() if s.pieces else (None, False)
    if not (closed and low < 1 and s == SymbolicSet.interval(low, 1).union(SymbolicSet.point(2))):
        raise ValidationError(
            f"limit: {s} is not [l,1] u {{2}} with l < 1", "limit", witness=low
        )
    return low


def _lower_end_or_refusal(lower_end, s):
    try:
        return lower_end(s)
    except ValidationError as exc:
        return exc.stage, exc.witness, str(exc)


@pytest.mark.parametrize("low", [Fraction(-3), Fraction(0), HALF, Fraction(7, 8)])
@pytest.mark.parametrize(
    "shape",
    [
        lambda low: _tail(low),
        lambda low: SymbolicSet.points([1, 2]),  # l = 1
        lambda low: SymbolicSet.interval(low, 1, hi_closed=False).union(SymbolicSet.point(2)),
        lambda low: _tail(low, closed=False),
        lambda low: SymbolicSet.interval(low, 1),
        lambda low: _tail(low).union(SymbolicSet.point(3)),
        lambda low: SymbolicSet.interval(NEG_INF, 1).union(SymbolicSet.point(2)),
        lambda low: SymbolicSet.empty(),
    ],
)
def test_lower_end_matches_the_rebuilt_set_on_edge_shapes(shape, low):
    s = shape(low)
    assert _lower_end_or_refusal(_lower_end, s) == _lower_end_or_refusal(_lower_end_by_its_set, s)


@given(
    s=st.one_of(
        symbolic_sets(head=True),
        rationals.map(_tail),
        st.tuples(rationals, piece_lists()).map(
            lambda t: _tail(t[0]).union(SymbolicSet.from_pieces(t[1]))
        ),
    )
)
@settings(max_examples=400, deadline=None)
def test_lower_end_matches_the_rebuilt_set(s):
    assert _lower_end_or_refusal(_lower_end, s) == _lower_end_or_refusal(_lower_end_by_its_set, s)


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
            assert members == set(mask_members(r.masks[i]))


def test_a_lifted_run_builds_one_evaluator(monkeypatch):
    # every step of the lifted game asks its operator on one Evaluator, and
    # the run applies the operator once per step of each of its two passes
    built, applied = [], []
    init, apply = properties.Evaluator.__init__, witnesses.apply_operator
    monkeypatch.setattr(
        properties.Evaluator, "__init__", lambda self, game: built.append(game) or init(self, game)
    )
    monkeypatch.setattr(
        witnesses, "apply_operator", lambda *args: applied.append(args) or apply(*args)
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["transfinite", "run", "--json", "embedded-finite-pd"]) == 0
    assert (len(built), len(applied)) == (1, 4)


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
