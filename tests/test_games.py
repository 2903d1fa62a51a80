import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gamelattice import fixtures
from gamelattice.errors import GameFormatError, ShapeError
from gamelattice.games import (
    Game,
    Restriction,
    all_restrictions,
    count_restrictions,
    format_game,
    lattice_join,
    lattice_leq,
    lattice_meet,
    make_game,
    parse_game,
    parse_rational,
    restriction_bottom,
    restriction_from_names,
    restriction_top,
)
from gamelattice.iteration import exhaustive_lattice_laws


def rset(game, *components):
    return restriction_from_names(game, components)


def test_top_is_full_strategy_sets():
    top = restriction_top(fixtures.PD)
    assert top.names() == [["C", "D"], ["C", "D"]]
    top = restriction_top(fixtures.CHAIN)
    assert top.names() == [["T", "M", "B"], ["L", "C", "R"]]


def test_top_degenerate_single_strategy_game():
    g = make_game("tiny", [("x",), ("y",)], {("x", "y"): (0, 0)})
    assert restriction_top(g).names() == [["x"], ["y"]]


def test_leq_examples():
    pd = fixtures.PD
    assert lattice_leq(rset(pd, ["D"], ["D"]), restriction_top(pd))
    assert not lattice_leq(rset(pd, ["C"], ["D"]), rset(pd, ["D"], ["D"]))
    g = rset(pd, ["C"], ["C", "D"])
    assert lattice_leq(g, g)


def test_leq_shape_error():
    with pytest.raises(ShapeError):
        lattice_leq(restriction_top(fixtures.PD), restriction_top(fixtures.MP))


def test_meet_join_examples():
    pd = fixtures.PD
    meet = lattice_meet([rset(pd, ["C", "D"], ["D"]), rset(pd, ["D"], ["C", "D"])])
    assert meet == rset(pd, ["D"], ["D"])
    join = lattice_join([rset(pd, ["C"], ["D"]), rset(pd, ["D"], ["C"])])
    assert join == restriction_top(pd)
    g = rset(pd, ["C"], [])
    assert lattice_meet([g]) == g


def test_meet_join_empty_list_is_an_error():
    with pytest.raises(ValueError):
        lattice_meet([])
    with pytest.raises(ValueError):
        lattice_join([])


def test_empty_components_are_permitted():
    pd = fixtures.PD
    bottom = restriction_bottom(pd)
    assert bottom.has_empty_component()
    assert lattice_leq(bottom, restriction_top(pd))


def test_all_restrictions_count():
    assert count_restrictions(fixtures.PD) == 16
    assert count_restrictions(fixtures.CHAIN) == 64
    assert len(list(all_restrictions(fixtures.PD))) == 16


def test_restriction_masks_and_sets_agree():
    chain = fixtures.CHAIN
    g = rset(chain, ["T", "B"], [])
    assert g.masks == (0b101, 0)
    assert g.sets == (frozenset({0, 2}), frozenset())
    assert Restriction.from_masks(chain, g.masks) == g
    assert hash(Restriction.from_masks(chain, g.masks)) == hash(g)
    for bad in ((0b1000, 0), (-1, 0)):
        with pytest.raises(ValueError):
            Restriction.from_masks(chain, bad)
    with pytest.raises(ShapeError):
        Restriction.from_masks(chain, (1,))


def test_all_restrictions_in_ascending_mask_order():
    masks = [r.masks for r in all_restrictions(fixtures.CHAIN)]
    assert masks == sorted(set(masks))
    assert len(masks) == count_restrictions(fixtures.CHAIN)


def test_lattice_laws_exhaustive():
    for game in (fixtures.PD, fixtures.CHAIN):
        report = exhaustive_lattice_laws(game)
        assert report.passed, report.entries


@given(
    masks=st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
)
@settings(max_examples=200, deadline=None)
def test_meet_join_match_set_algebra(masks):
    pd = fixtures.PD
    def build(m1, m2):
        return Restriction(
            pd,
            (
                frozenset(i for i in range(2) if m1 >> i & 1),
                frozenset(i for i in range(2) if m2 >> i & 1),
            ),
        )
    a, b = build(masks[0], masks[1]), build(masks[2], masks[3])
    meet, join = lattice_meet([a, b]), lattice_join([a, b])
    for i in range(2):
        assert meet.sets[i] == a.sets[i] & b.sets[i]
        assert join.sets[i] == a.sets[i] | b.sets[i]
    assert lattice_leq(a, b) == all(a.sets[i] <= b.sets[i] for i in range(2))


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-4") == -4
    assert parse_rational("3/4") == Fraction(3, 4)
    with pytest.raises(ValueError):
        parse_rational("3.5")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1/-2")


def test_format_parse_round_trip():
    for game in fixtures.FIXTURES.values():
        assert parse_game(format_game(game)) == game


# a token of the text format: no whitespace, no '#' comment start and no
# ':' separator; the format's own keywords are fair strategy names
tokens = st.one_of(
    st.sampled_from(["end", "game", "players", "strategies", "payoffs"]),
    st.text(
        st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="#:"),
        min_size=1,
        max_size=4,
    ),
)


@st.composite
def games(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    names = tuple(
        tuple(draw(st.lists(tokens, min_size=k, max_size=k, unique=True))) for k in sizes
    )
    cells = 1
    for k in sizes:
        cells *= k
    values = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    payoffs = tuple(
        tuple(draw(values) for _ in sizes) for _ in range(cells)
    )
    return Game(draw(tokens), names, payoffs)


@given(game=games())
@settings(max_examples=300, deadline=None)
def test_format_parse_round_trip_on_any_game(game):
    assert parse_game(format_game(game)) == game


def test_parse_comments_and_whitespace():
    text = """
# a comment line
game pd   # trailing comment
players 2
strategies 1 : C D
strategies 2 : C D
payoffs
C C : 2 2
C D : 0 3
D C : 3 0
D D : 1 1
end
"""
    assert parse_game(text) == fixtures.PD


def expect_format_error(text, lineno, fragment):
    with pytest.raises(GameFormatError) as exc:
        parse_game(text)
    assert exc.value.line == lineno
    assert fragment in str(exc.value)


BASE = """game g
players 2
strategies 1 : A B
strategies 2 : X Y
payoffs
A X : 1 1
A Y : 1 1
B X : 1 1
B Y : 1 1
end
"""


def test_parse_duplicate_cell():
    text = BASE.replace("B X : 1 1", "A X : 2 2")
    expect_format_error(text, 8, "duplicate payoff cell")


def test_parse_missing_cell():
    text = BASE.replace("B X : 1 1\n", "")
    expect_format_error(text, 9, "missing")


def test_parse_unknown_strategy():
    text = BASE.replace("B X : 1 1", "B Z : 1 1")
    expect_format_error(text, 8, "unknown strategy name 'Z'")


def test_parse_malformed_rational():
    text = BASE.replace("B X : 1 1", "B X : 1 1/0")
    expect_format_error(text, 8, "malformed rational")
    text = BASE.replace("B X : 1 1", "B X : 0.5 1")
    expect_format_error(text, 8, "malformed rational")


def test_parse_duplicate_strategies_line():
    text = BASE.replace("strategies 2 : X Y", "strategies 1 : X Y")
    expect_format_error(text, 4, "duplicate strategies line")


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        # 10^30 payoff cells declared; only the file's own lines are counted
        ("game big\nplayers 30\n"
         + "".join(f"strategies {i} : " + " ".join(f"s{k}" for k in range(10)) + "\n"
                   for i in range(1, 31))
         + "payoffs\n" + " ".join(["s0"] * 30) + " : " + " ".join(["1"] * 30) + "\nend\n",
         33, "payoff cells declared"),
        ("game g\nplayers 1000000000000\nstrategies 1 : A\nstrategies 2 : X\n",
         2, "needs 1000000000000 strategies lines, found 2"),
    ],
    ids=["cells", "players"],
)
def test_parse_header_counts_bounded_by_the_file(text, lineno, fragment):
    expect_format_error(text, lineno, fragment)


def test_parse_trailing_content():
    expect_format_error(BASE + "junk\n", 11, "trailing content")


def test_game_needs_two_players():
    with pytest.raises(ValueError):
        Game("solo", (("a",),), ((Fraction(0),),))


def test_make_game_requires_total_table():
    with pytest.raises(ValueError):
        make_game("partial", [("a", "b"), ("x",)], {("a", "x"): (0, 0)})


def test_unknown_strategy_index_rejected():
    with pytest.raises(ValueError):
        Restriction(fixtures.PD, (frozenset([5]), frozenset()))
