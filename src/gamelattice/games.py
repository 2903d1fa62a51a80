"""Strategic games in exact rational arithmetic and the complete lattice of
their restrictions.

A game fixes per-player strategy lists and a total payoff tensor with
Fraction entries.  A restriction picks a subset of each player's strategies;
restrictions ordered by componentwise inclusion form the complete lattice
every elimination operator acts on.  Empty components are allowed so the
lattice stays complete.  A restriction is stored as one int, its lattice
index, so the order, meet and join are int bit operations.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, GameFormatError, ShapeError

_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def parse_rational(token: str) -> Fraction:
    """Parse an integer or p/q token with q > 0.  The value is built from the
    integers the match holds, so the token is read once; an integer beyond
    the interpreter's int-string digit limit raises int()'s ValueError."""
    m = _RATIONAL_RE.match(token)
    if not m:
        raise ValueError(f"malformed rational {token!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    q = int(den)
    if q == 0:
        raise ValueError(f"malformed rational {token!r}: zero denominator")
    return Fraction(int(num), q)


@dataclass(frozen=True, eq=False)
class Game:
    """An n-player strategic game (n > 1) with named strategies.

    payoffs[j][i] is player i's payoff at the joint strategy with row-major
    index j over the per-player strategy indices.  Computed once: sizes[i],
    the number of player i's strategies; strides[i], the step of j per
    strategy of player i; and shifts[i], the lowest bit of player i's mask
    in a lattice index.  The hash over the name, strategy names and payoffs
    is computed on first use and kept; equality compares the hashes first.
    """

    name: str
    strategy_names: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[Fraction, ...], ...]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.name == other.name
            and self.strategy_names == other.strategy_names
            and self.payoffs == other.payoffs
        )

    def __post_init__(self):
        n = len(self.strategy_names)
        if n < 2:
            raise ValueError("a game needs more than one player")
        for i, names in enumerate(self.strategy_names):
            if not names:
                raise ValueError(f"player {i + 1} has an empty strategy set")
            if len(set(names)) != len(names):
                raise ValueError(f"player {i + 1} has duplicate strategy names")
        sizes = tuple(len(names) for names in self.strategy_names)
        strides, cells = joint_layout(sizes)
        if len(self.payoffs) != cells:
            raise ValueError(
                f"expected {cells} payoff cells, got {len(self.payoffs)}"
            )
        for vec in self.payoffs:
            if len(vec) != n:
                raise ValueError("each payoff cell needs one value per player")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "shifts", tuple(sum(sizes[i + 1:]) for i in range(n)))
        object.__setattr__(self, "strides", strides)

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.strategy_names, self.payoffs))

    def __hash__(self):
        return self._hash

    @property
    def num_players(self) -> int:
        return len(self.strategy_names)

    def players(self) -> range:
        return range(self.num_players)

    def strategies(self, player: int) -> range:
        return range(len(self.strategy_names[player]))

    def strategy_index(self, player: int, name: str) -> int:
        try:
            return self.strategy_names[player].index(name)
        except ValueError:
            raise ValueError(
                f"player {player + 1} has no strategy named {name!r}"
            ) from None

    def joint_index(self, joint: Sequence[int]) -> int:
        strides = self.strides
        idx = 0
        for i, s in enumerate(joint):
            idx += strides[i] * s
        return idx

    def payoff(self, player: int, joint: Sequence[int]) -> Fraction:
        return self.payoffs[self.joint_index(joint)][player]

    def joint_strategies(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(self.strategies(i) for i in self.players()))

    def joint_names(self, joint: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.strategy_names[i][s] for i, s in enumerate(joint))


def joint_layout(sizes: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Row-major strides of the joint-strategy index over the given
    strategy-set sizes, and the number of joint strategies (cells)."""
    strides = []
    cells = 1
    for k in reversed(sizes):
        strides.append(cells)
        cells *= k
    return tuple(reversed(strides)), cells


def make_game(name, strategy_names, payoff_table) -> Game:
    """Build a Game from a {joint-name-tuple: payoff-vector} mapping.

    Payoff entries may be ints, strings, or Fractions.
    """
    strategy_names = tuple(tuple(names) for names in strategy_names)
    strides, cells = joint_layout([len(names) for names in strategy_names])
    payoffs: list = [None] * cells
    for joint_names, vec in payoff_table.items():
        joint = tuple(
            strategy_names[i].index(s) for i, s in enumerate(joint_names)
        )
        idx = sum(strides[i] * s for i, s in enumerate(joint))
        payoffs[idx] = tuple(Fraction(v) for v in vec)
    if any(p is None for p in payoffs):
        raise ValueError("payoff table does not cover every joint strategy")
    return Game(name, strategy_names, tuple(payoffs))


def mask_members(mask: int) -> list[int]:
    """The indices of the bits set in mask, ascending, from one scan of its
    binary digits, so a mask over the whole lattice is listed as cheaply."""
    return [s for s, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


@dataclass(frozen=True, slots=True, init=False)
class Restriction:
    """A per-player strategy subset; an element of the restriction lattice.

    A restriction is stored as its lattice index: one int holding every
    player's strategy bitmask, bit s of a mask set iff strategy s is kept.
    `Restriction(game, masks)` checks and packs the masks, `restriction_at`
    wraps an index, `masks` unpacks the per-player tuple, and
    `mask_members` lists a component's strategy indices.
    """

    game: Game
    index: int

    def __init__(self, game: Game, masks: Sequence[int]):
        if len(masks) != game.num_players:
            raise ShapeError("restriction has wrong number of components")
        for i, mask in enumerate(masks):
            if mask >> len(game.strategy_names[i]):
                raise ValueError(f"player {i + 1}: strategy mask {mask} out of range")
        object.__setattr__(self, "game", game)
        object.__setattr__(self, "index", pack_masks(game.sizes, masks))

    @property
    def masks(self) -> tuple[int, ...]:
        return unpack_index(self.game.sizes, self.index)

    def names(self) -> list[list[str]]:
        return [
            [names[s] for s in mask_members(m)]
            for names, m in zip(self.game.strategy_names, self.masks)
        ]

    def opponent_profiles(self, player: int) -> Iterator[tuple[int, ...]]:
        """Joint strategies of everyone but `player`, in player order."""
        return itertools.product(
            *(mask_members(m) for j, m in enumerate(self.masks) if j != player)
        )

    def __str__(self) -> str:
        parts = ["{" + ",".join(names) + "}" for names in self.names()]
        return "(" + ", ".join(parts) + ")"


def restriction_top(game: Game) -> Restriction:
    """The largest lattice element: every player keeps every strategy."""
    return Restriction(game, tuple((1 << k) - 1 for k in game.sizes))


def restriction_bottom(game: Game) -> Restriction:
    return Restriction(game, tuple(0 for _ in game.players()))


def restriction_from_names(game: Game, components: Sequence[Iterable[str]]) -> Restriction:
    if len(components) != game.num_players:
        raise ShapeError("restriction has wrong number of components")
    # a set of bits, so that a name listed twice is counted once
    masks = tuple(
        sum({1 << game.strategy_index(i, name) for name in names})
        for i, names in enumerate(components)
    )
    return Restriction(game, masks)


def check_same_game(game: Game, other: Game, what: str):
    """A ShapeError unless `other` is `game`; `what` names the thing that
    belongs to `other`."""
    if other is not game and other != game:
        raise ShapeError(f"{what} belongs to a different game")


def lattice_leq(g1: Restriction, g2: Restriction) -> bool:
    """Componentwise inclusion."""
    check_same_game(g1.game, g2.game, "restriction")
    return not g1.index & ~g2.index


def lattice_meet(gs: Sequence[Restriction]) -> Restriction:
    """Componentwise intersection of a non-empty list."""
    if not gs:
        raise ValueError("meet of an empty list; pass the top element explicitly")
    idx = gs[0].index
    for other in gs[1:]:
        check_same_game(gs[0].game, other.game, "restriction")
        idx &= other.index
    return restriction_at(gs[0].game, idx)


def lattice_join(gs: Sequence[Restriction]) -> Restriction:
    """Componentwise union of a non-empty list."""
    if not gs:
        raise ValueError("join of an empty list; pass the bottom element explicitly")
    idx = gs[0].index
    for other in gs[1:]:
        check_same_game(gs[0].game, other.game, "restriction")
        idx |= other.index
    return restriction_at(gs[0].game, idx)


def check_budget(count: int, budget: int | None, what: str) -> int:
    """count, or a BudgetError naming `what` when it exceeds the budget (None
    means unlimited)."""
    if budget is not None and count > budget:
        raise BudgetError(f"{what} exceeds the budget of {budget}", attempted=count)
    return count


def count_restrictions(game: Game, max_count: int | None = None) -> int:
    """The lattice size, 2^(sum of strategy-set sizes), within max_count."""
    total = 1 << sum(game.sizes)
    return check_budget(total, max_count, f"lattice of {total} restrictions")


def all_restrictions(game: Game, max_count: int | None = None) -> Iterator[Restriction]:
    """Every restriction of the game in lattice order: ascending lattice
    indices, which is the sorted order of the mask tuples."""
    for idx in range(count_restrictions(game, max_count)):
        yield restriction_at(game, idx)


# A restriction's lattice index is its masks packed into one int, the last
# player's mask in the lowest bits, so player i's mask starts at bit
# game.shifts[i].  Ascending indices are the order of all_restrictions, so
# the k-th restriction it yields has index k.  On indices, inclusion is
# `a & ~b == 0`, meet is `&`, join is `|`, and the restrictions with one
# strategy fewer than `idx` (the covers below it) are `idx ^ bit` for each
# bit set in it.


def pack_masks(sizes: Sequence[int], masks: Sequence[int]) -> int:
    """The lattice index of the restriction with `masks`, each within its
    strategy set of the given size."""
    idx = 0
    for k, mask in zip(sizes, masks):
        idx = idx << k | mask
    return idx


def unpack_index(sizes: Sequence[int], idx: int) -> tuple[int, ...]:
    """The masks of the restriction with lattice index `idx`."""
    masks = []
    for k in reversed(sizes):
        masks.append(idx & ((1 << k) - 1))
        idx >>= k
    return tuple(reversed(masks))


def restriction_at(game: Game, idx: int) -> Restriction:
    """The restriction of `game` with lattice index `idx`; a ValueError
    unless 0 <= idx < 2^(sum of strategy-set sizes)."""
    if idx < 0 or idx >> sum(game.sizes):
        raise ValueError(f"lattice index {idx} out of range")
    r = object.__new__(Restriction)
    object.__setattr__(r, "game", game)
    object.__setattr__(r, "index", idx)
    return r


# -- game text format ---------------------------------------------------------


def is_count(token: str) -> bool:
    """Is `token` a run of ASCII digits, a count the game format and the
    command line accept?  str.isdigit alone also passes other scripts'
    digits and superscripts, and int() takes those digits, underscores,
    a sign and surrounding blanks."""
    return token.isascii() and token.isdigit()


def parse_game(text: str) -> Game:
    """Parse the plain-text game format.

    '#' starts a comment to end of line; tokens are whitespace-separated.
    All structural problems are fatal GameFormatErrors with line numbers.
    """
    lines = []  # (lineno, tokens)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        tokens = stripped.split()
        if tokens:
            lines.append((lineno, tokens))
    pos = 0

    def take(expected: str | None = None):
        nonlocal pos
        if pos >= len(lines):
            raise GameFormatError("unexpected end of file", line=lines[-1][0] if lines else 1)
        lineno, tokens = lines[pos]
        pos += 1
        if expected is not None and tokens[0] != expected:
            raise GameFormatError(f"expected {expected!r}, found {tokens[0]!r}", line=lineno)
        return lineno, tokens

    lineno, tokens = take("game")
    if len(tokens) != 2:
        raise GameFormatError("expected 'game <name>'", line=lineno)
    name = tokens[1]

    lineno, tokens = take("players")
    if len(tokens) != 2 or not is_count(tokens[1]):
        raise GameFormatError("expected 'players <n>'", line=lineno)
    n = int(tokens[1])
    if n < 2:
        raise GameFormatError("a game needs at least 2 players", line=lineno)
    following = sum(1 for _, t in lines[pos:pos + n] if t[0] == "strategies")
    if following < n:
        raise GameFormatError(
            f"'players {n}' needs {n} strategies lines, found {following}", line=lineno
        )

    strategy_names: list[tuple[str, ...] | None] = [None] * n
    for _ in range(n):
        lineno, tokens = take("strategies")
        if len(tokens) < 4 or tokens[2] != ":":
            raise GameFormatError("expected 'strategies <i> : <name>+'", line=lineno)
        if not is_count(tokens[1]) or not 1 <= int(tokens[1]) <= n:
            raise GameFormatError(f"player index {tokens[1]!r} out of range 1..{n}", line=lineno)
        i = int(tokens[1]) - 1
        if strategy_names[i] is not None:
            raise GameFormatError(f"duplicate strategies line for player {i + 1}", line=lineno)
        names = tuple(tokens[3:])
        if len(set(names)) != len(names):
            raise GameFormatError(f"duplicate strategy name for player {i + 1}", line=lineno)
        strategy_names[i] = names

    lineno, tokens = take("payoffs")
    if len(tokens) != 1:
        raise GameFormatError("expected bare 'payoffs' line", line=lineno)

    strides, cells = joint_layout([len(names) for names in strategy_names])  # type: ignore[arg-type]
    if cells > len(lines) - pos:
        raise GameFormatError(
            f"{cells} payoff cells declared but only {len(lines) - pos} lines follow",
            line=lineno,
        )
    payoffs: list = [None] * cells
    seen_lines: dict[int, int] = {}
    # one Fraction per distinct token, which cells share: payoffs repeat
    values: dict[str, Fraction] = {}
    while True:
        lineno, tokens = take()
        if tokens == ["end"]:
            break
        if tokens[0] == "end" and ":" not in tokens:
            raise GameFormatError("expected bare 'end' line", line=lineno)
        if ":" not in tokens:
            raise GameFormatError("expected '<s1> ... <sn> : <q1> ... <qn>'", line=lineno)
        colon = tokens.index(":")
        strat_tokens, value_tokens = tokens[:colon], tokens[colon + 1:]
        if len(strat_tokens) != n:
            raise GameFormatError(f"expected {n} strategy names before ':'", line=lineno)
        if len(value_tokens) != n:
            raise GameFormatError(f"expected {n} payoffs after ':'", line=lineno)
        joint = []
        for i, s in enumerate(strat_tokens):
            try:
                joint.append(strategy_names[i].index(s))  # type: ignore[union-attr]
            except ValueError:
                raise GameFormatError(
                    f"unknown strategy name {s!r} for player {i + 1}", line=lineno
                ) from None
        idx = sum(strides[i] * s for i, s in enumerate(joint))
        if payoffs[idx] is not None:
            raise GameFormatError(
                f"duplicate payoff cell (first given on line {seen_lines[idx]})", line=lineno
            )
        vec = []
        for tok in value_tokens:
            q = values.get(tok)
            if q is None:
                try:
                    q = values[tok] = parse_rational(tok)
                except ValueError as exc:
                    raise GameFormatError(str(exc), line=lineno) from None
            vec.append(q)
        payoffs[idx] = tuple(vec)
        seen_lines[idx] = lineno

    if pos != len(lines):
        raise GameFormatError("trailing content after 'end'", line=lines[pos][0])
    missing = payoffs.count(None)
    if missing:
        raise GameFormatError(
            f"{missing} payoff cell(s) missing before 'end'", line=lineno
        )
    return Game(name, tuple(strategy_names), tuple(payoffs))  # type: ignore[arg-type]


def parse_game_file(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())


def format_game(game: Game) -> str:
    """Render a game in the text format; parse_game inverts this.  A
    ValueError names the first game or strategy name that is no token of the
    format: one that is empty or holds whitespace, '#' or ':'."""
    for name in (game.name, *(s for names in game.strategy_names for s in names)):
        if name.split() != [name] or "#" in name or ":" in name:
            raise ValueError(f"name {name!r} cannot be written in the game format")
    out = [f"game {game.name}", f"players {game.num_players}"]
    for i in game.players():
        out.append(f"strategies {i + 1} : " + " ".join(game.strategy_names[i]))
    out.append("payoffs")
    for joint in game.joint_strategies():
        cell = game.payoffs[game.joint_index(joint)]
        out.append(
            " ".join(game.joint_names(joint))
            + " : "
            + " ".join(str(q) for q in cell)
        )
    out.append("end")
    return "\n".join(out) + "\n"
