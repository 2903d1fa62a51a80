"""Strategic games in exact rational arithmetic and the complete lattice of
their restrictions.

A game fixes per-player strategy lists and a total payoff tensor with
Fraction entries.  A restriction picks a subset of each player's strategies;
restrictions ordered by componentwise inclusion form the complete lattice
every elimination operator acts on.  Empty components are allowed so the
lattice stays complete.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, GameFormatError, ShapeError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/(\d+))?$")


def parse_rational(token: str) -> Fraction:
    """Parse an integer or p/q token with q > 0."""
    m = _RATIONAL_RE.match(token)
    if not m:
        raise ValueError(f"malformed rational {token!r}")
    if m.group(1) is not None and int(m.group(1)) == 0:
        raise ValueError(f"malformed rational {token!r}: zero denominator")
    return Fraction(token)


@dataclass(frozen=True, eq=False)
class Game:
    """An n-player strategic game (n > 1) with named strategies.

    payoffs[j][i] is player i's payoff at the joint strategy with row-major
    index j over the per-player strategy indices.
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
        strides, cells = joint_layout(self.sizes)
        if len(self.payoffs) != cells:
            raise ValueError(
                f"expected {cells} payoff cells, got {len(self.payoffs)}"
            )
        for vec in self.payoffs:
            if len(vec) != n:
                raise ValueError("each payoff cell needs one value per player")
        object.__setattr__(self, "_strides", strides)
        object.__setattr__(self, "_hash", hash((self.name, self.strategy_names, self.payoffs)))

    def __hash__(self):
        return self._hash

    @property
    def num_players(self) -> int:
        return len(self.strategy_names)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(names) for names in self.strategy_names)

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
        strides = self._strides
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
    """The indices of the bits set in mask, ascending."""
    return [s for s in range(mask.bit_length()) if mask >> s & 1]


@dataclass(frozen=True, slots=True, init=False)
class Restriction:
    """A per-player strategy subset; an element of the restriction lattice.

    Each component is one int bitmask, bit s set iff strategy s is kept.
    `Restriction(game, sets)` takes the components as collections of
    strategy indices, `Restriction.from_masks(game, masks)` the masks.
    """

    game: Game
    masks: tuple[int, ...]

    def __init__(self, game: Game, sets: Sequence[Iterable[int]]):
        if len(sets) != game.num_players:
            raise ShapeError("restriction has wrong number of components")
        masks = []
        for i, component in enumerate(sets):
            mask = 0
            for idx in component:
                if not 0 <= idx < len(game.strategy_names[i]):
                    raise ValueError(f"player {i + 1}: strategy index {idx} out of range")
                mask |= 1 << idx
            masks.append(mask)
        object.__setattr__(self, "game", game)
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def from_masks(cls, game: Game, masks: tuple[int, ...]) -> "Restriction":
        if len(masks) != game.num_players:
            raise ShapeError("restriction has wrong number of components")
        for i, mask in enumerate(masks):
            if mask >> len(game.strategy_names[i]):
                raise ValueError(f"player {i + 1}: strategy mask {mask} out of range")
        r = object.__new__(cls)
        object.__setattr__(r, "game", game)
        object.__setattr__(r, "masks", tuple(masks))
        return r

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        """The components as frozensets of strategy indices."""
        return tuple(frozenset(mask_members(m)) for m in self.masks)

    def names(self) -> list[list[str]]:
        return [
            [names[s] for s in mask_members(m)]
            for names, m in zip(self.game.strategy_names, self.masks)
        ]

    def is_top(self) -> bool:
        return all(
            m == (1 << len(names)) - 1
            for names, m in zip(self.game.strategy_names, self.masks)
        )

    def has_empty_component(self) -> bool:
        return not all(self.masks)

    def opponent_profiles(self, player: int) -> Iterator[tuple[int, ...]]:
        """Joint strategies of everyone but `player`, in player order."""
        return itertools.product(
            *(mask_members(m) for j, m in enumerate(self.masks) if j != player)
        )

    def joint_with(self, player: int, strategy: int, opp_profile: Sequence[int]) -> tuple[int, ...]:
        joint = list(opp_profile)
        joint.insert(player, strategy)
        return tuple(joint)

    def __str__(self) -> str:
        parts = ["{" + ",".join(names) + "}" for names in self.names()]
        return "(" + ", ".join(parts) + ")"


def restriction_top(game: Game) -> Restriction:
    """The largest lattice element: every player keeps every strategy."""
    return Restriction.from_masks(game, tuple((1 << k) - 1 for k in game.sizes))


def restriction_bottom(game: Game) -> Restriction:
    return Restriction.from_masks(game, tuple(0 for _ in game.players()))


def restriction_from_names(game: Game, components: Sequence[Iterable[str]]) -> Restriction:
    sets = tuple(
        frozenset(game.strategy_index(i, name) for name in names)
        for i, names in enumerate(components)
    )
    return Restriction(game, sets)


def _same_game(a: Restriction, b: Restriction):
    if a.game is not b.game and a.game != b.game:
        raise ShapeError("restrictions belong to different games")


def masks_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Componentwise inclusion of two mask tuples."""
    return all(x & ~y == 0 for x, y in zip(a, b))


def lattice_leq(g1: Restriction, g2: Restriction) -> bool:
    """Componentwise inclusion."""
    _same_game(g1, g2)
    return masks_leq(g1.masks, g2.masks)


def lattice_meet(gs: Sequence[Restriction]) -> Restriction:
    """Componentwise intersection of a non-empty list."""
    if not gs:
        raise ValueError("meet of an empty list; pass the top element explicitly")
    masks = gs[0].masks
    for other in gs[1:]:
        _same_game(gs[0], other)
        masks = tuple(x & y for x, y in zip(masks, other.masks))
    return Restriction.from_masks(gs[0].game, masks)


def lattice_join(gs: Sequence[Restriction]) -> Restriction:
    """Componentwise union of a non-empty list."""
    if not gs:
        raise ValueError("join of an empty list; pass the bottom element explicitly")
    masks = gs[0].masks
    for other in gs[1:]:
        _same_game(gs[0], other)
        masks = tuple(x | y for x, y in zip(masks, other.masks))
    return Restriction.from_masks(gs[0].game, masks)


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


def count_comparable_pairs(game: Game, max_count: int | None = None) -> int:
    """The number of pairs G <= G' in the lattice, 3^(sum of strategy-set
    sizes), within max_count."""
    pairs = 3 ** sum(game.sizes)
    return check_budget(pairs, max_count, f"comparable-pair count {pairs}")


def all_restrictions(game: Game, max_count: int | None = None) -> Iterator[Restriction]:
    """Every restriction of the game in lattice order: ascending mask tuples,
    the last player's mask varying fastest (the sorted order of the masks)."""
    count_restrictions(game, max_count)
    for masks in itertools.product(*(range(1 << k) for k in game.sizes)):
        yield Restriction.from_masks(game, masks)


# -- game text format ---------------------------------------------------------


def parse_game(text: str, name_hint: str = "game") -> Game:
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
    if len(tokens) != 2 or not tokens[1].isdigit():
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
        if not tokens[1].isdigit() or not 1 <= int(tokens[1]) <= n:
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
        try:
            payoffs[idx] = tuple(parse_rational(tok) for tok in value_tokens)
        except ValueError as exc:
            raise GameFormatError(str(exc), line=lineno) from None
        seen_lines[idx] = lineno

    if pos != len(lines):
        raise GameFormatError("trailing content after 'end'", line=lines[pos][0])
    missing = payoffs.count(None)
    if missing:
        raise GameFormatError(
            f"{missing} payoff cell(s) missing before 'end'", line=lineno
        )
    return Game(name or name_hint, tuple(strategy_names), tuple(payoffs))  # type: ignore[arg-type]


def parse_game_file(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())


def format_game(game: Game) -> str:
    """Render a game in the text format; parse_game inverts this."""
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
