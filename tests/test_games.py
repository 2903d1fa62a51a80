import itertools
import pathlib
import re
import sys

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
    mask_members,
    pack_masks,
    parse_game,
    parse_game_file,
    parse_rational,
    restriction_at,
    restriction_bottom,
    restriction_from_names,
    restriction_top,
    unpack_index,
)


def rset(game, *components):
    return restriction_from_names(game, components)


FIXTURE_FILES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_bundled_games_match_their_files():
    # each bundled game is written twice, in `fixtures.py` and as a file
    assert sorted(fixtures.FIXTURES) == sorted(p.stem for p in FIXTURE_FILES.glob("*.game"))
    for name, game in fixtures.FIXTURES.items():
        assert game == parse_game_file(FIXTURE_FILES / f"{name}.game"), name


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


def test_restriction_from_names_checks_the_component_count():
    # a later component naming a strategy must not reach the name lookup
    for components in ([["C"], ["C"], ["C"]], [["C"]], [["C"], [], []]):
        with pytest.raises(ShapeError, match="wrong number of components"):
            restriction_from_names(fixtures.PD, components)


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
    assert not all(bottom.masks)
    assert lattice_leq(bottom, restriction_top(pd))


def test_all_restrictions_count():
    assert count_restrictions(fixtures.PD) == 16
    assert count_restrictions(fixtures.CHAIN) == 64
    assert len(list(all_restrictions(fixtures.PD))) == 16


def test_restriction_masks_and_sets_agree():
    chain = fixtures.CHAIN
    g = rset(chain, ["T", "B"], [])
    assert g.masks == (0b101, 0)
    assert [mask_members(m) for m in g.masks] == [[0, 2], []]
    assert Restriction(chain, g.masks) == g
    assert hash(Restriction(chain, list(g.masks))) == hash(g)
    for bad in ((0b1000, 0), (-1, 0)):
        with pytest.raises(ValueError):
            Restriction(chain, bad)
    with pytest.raises(ShapeError):
        Restriction(chain, (1,))


def test_all_restrictions_in_ascending_mask_order():
    masks = [r.masks for r in all_restrictions(fixtures.CHAIN)]
    assert masks == sorted(set(masks))
    assert len(masks) == count_restrictions(fixtures.CHAIN)


def _zero_game(sizes):
    names = [tuple(f"s{s}" for s in range(k)) for k in sizes]
    joints = itertools.product(*names)
    return make_game("zero", names, {joint: (0,) * len(sizes) for joint in joints})


def _masks_leq(a, b):
    return all(x & ~y == 0 for x, y in zip(a, b))


def _bit_walk_covers(idx):
    """The indices one strategy below `idx`: `idx` with one set bit cleared,
    walked from the lowest bit up."""
    covers = []
    rest = idx
    while rest:
        low = rest & -rest
        covers.append(idx ^ low)
        rest ^= low
    return covers


@pytest.mark.parametrize(
    "sizes", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (2, 2, 2), (1, 2, 3)]
)
def test_lattice_index_agrees_with_the_mask_tuples(sizes):
    game = _zero_game(sizes)
    restrictions = list(all_restrictions(game))
    assert len(restrictions) == 1 << sum(sizes)
    for idx, a in enumerate(restrictions):
        # ascending indices are the order of all_restrictions
        assert a.index == idx
        assert restriction_at(game, idx) == a
        assert hash(restriction_at(game, idx)) == hash(a) == hash(Restriction(game, a.masks))
        assert pack_masks(sizes, a.masks) == idx
        assert unpack_index(sizes, idx) == a.masks
        tuple_covers = {
            a.masks[:i] + (m ^ (1 << s),) + a.masks[i + 1:]
            for i, m in enumerate(a.masks)
            for s in mask_members(m)
        }
        walked = [unpack_index(sizes, c) for c in _bit_walk_covers(idx)]
        assert len(walked) == len(tuple_covers)
        assert set(walked) == tuple_covers
        for jdx, b in enumerate(restrictions):
            assert (idx & ~jdx == 0) == _masks_leq(a.masks, b.masks) == lattice_leq(a, b)
            assert unpack_index(sizes, idx & jdx) == lattice_meet([a, b]).masks
            assert unpack_index(sizes, idx | jdx) == lattice_join([a, b]).masks


@pytest.mark.parametrize("game", [fixtures.PD, fixtures.THREE], ids=lambda g: g.name)
def test_restriction_at_rejects_an_index_outside_the_lattice(game):
    count = 1 << sum(game.sizes)
    assert restriction_at(game, count - 1) == restriction_top(game)
    for idx in (-1, count):
        with pytest.raises(ValueError, match="out of range"):
            restriction_at(game, idx)


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
    def sets(r):
        return [set(mask_members(m)) for m in r.masks]

    a, b = Restriction(pd, masks[:2]), Restriction(pd, masks[2:])
    meet, join = lattice_meet([a, b]), lattice_join([a, b])
    for i in range(2):
        assert sets(meet)[i] == sets(a)[i] & sets(b)[i]
        assert sets(join)[i] == sets(a)[i] | sets(b)[i]
    assert lattice_leq(a, b) == all(sets(a)[i] <= sets(b)[i] for i in range(2))


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-4") == -4
    assert parse_rational("3/4") == Fraction(3, 4)
    for token in ("0", "-0", "+3", "007", "-12", "6/4", "-6/4", "+0/9", "10/5"):
        value = parse_rational(token)
        assert value == Fraction(token) and type(value) is Fraction, token
    for token, message in (
        ("3.5", "malformed rational '3.5'"),
        ("1/0", "malformed rational '1/0': zero denominator"),
        ("1/-2", "malformed rational '1/-2'"),
        ("\u0663", "malformed rational '\u0663'"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_rational(token)
        assert str(exc.value) == message


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
    # a Unicode \d would read these Arabic-Indic digits as 1 and 1/2
    for token in ("\u0661", "1/\u0662"):
        expect_format_error(BASE.replace("B X : 1 1", f"B X : {token} 1"), 8, "malformed rational")


def test_parse_game_reads_each_token_once_per_game():
    text = BASE.replace("A X : 1 1", "A X : 6/4 -0").replace("A Y : 1 1", "A Y : 6/4 +3")
    text = text.replace("B X : 1 1", "B X : 3 6/4").replace("B Y : 1 1", "B Y : 007 -0")
    game = parse_game(text)
    half = Fraction(3, 2)
    assert game.payoffs == ((half, 0), (half, 3), (3, half), (7, 0))
    assert all(type(q) is Fraction for cell in game.payoffs for q in cell)
    # one Fraction per distinct token, shared by every cell that repeats it
    assert game.payoffs[0][0] is game.payoffs[1][0] is game.payoffs[2][1]
    assert game.payoffs[0][1] is game.payoffs[3][1]
    assert game.payoffs[1][1] is not game.payoffs[2][0]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits")
    or not 0 < sys.get_int_max_str_digits() < 5000,
    reason="no int-string digit limit below 5,000 digits",
)
@pytest.mark.parametrize("value", ["9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000])
def test_a_payoff_beyond_the_digit_limit_is_a_format_error(value):
    with pytest.raises(ValueError) as limit:
        int("9" * 5000)
    expect_format_error(BASE.replace("B X : 1 1", f"B X : 1 {value}"), 8, str(limit.value))


def test_games_are_equal_and_hash_alike_exactly_when_their_parts_are():
    first, second = parse_game(BASE), parse_game(BASE)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    others = [
        parse_game(BASE.replace("B Y : 1 1", "B Y : 1 2")),
        parse_game(BASE.replace("game g", "game h")),
        parse_game(BASE.replace("strategies 2 : X Y", "strategies 2 : X Z").replace("Y :", "Z :")),
    ]
    for other in others:
        assert first != other and other != first
    table = {first: "g", **{other: k for k, other in enumerate(others)}}
    assert table[second] == "g" and len(table) == 4
    assert second in {first} and others[0] not in {first, *others[1:]}


@pytest.mark.parametrize(
    "old,new,lineno,fragment",
    [
        ("players 2", "players \u00b2", 2, "expected 'players <n>'"),
        ("players 2", "players \u0662", 2, "expected 'players <n>'"),
        ("strategies 2 :", "strategies \u00b2 :", 4, "player index '\u00b2' out of range"),
        ("strategies 2 :", "strategies \u0662 :", 4, "player index '\u0662' out of range"),
    ],
    ids=["players-superscript", "players-arabic", "index-superscript", "index-arabic"],
)
def test_parse_header_counts_are_ascii_digits(old, new, lineno, fragment):
    # str.isdigit passes these, and int() reads the Arabic-Indic digit as 2
    # but refuses the superscript
    expect_format_error(BASE.replace(old, new), lineno, fragment)


@pytest.mark.parametrize(
    "name,strategies,bad",
    [
        ("g", ("a b", "c"), "a b"),
        ("g", ("", "c"), ""),
        ("g", ("a", "b#"), "b#"),
        ("g", ("a", ":"), ":"),
        ("g", ("a", "b:c"), "b:c"),
        ("a\tgame", ("a b", "c"), "a\tgame"),
    ],
)
def test_format_game_refuses_names_the_format_cannot_hold(name, strategies, bad):
    # a name is one token without '#' or ':'; all but "b:c" would render as
    # text that parse_game rejects, and the first bad name is reported
    game = make_game(name, [strategies, ("x",)], {(s, "x"): (0, 0) for s in strategies})
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        format_game(game)


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
        Restriction(fixtures.PD, (1 << 5, 0))
