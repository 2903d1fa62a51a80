"""Bundled desk-scale games used throughout the test and verification suites,
plus the seeded random-game generator."""

from __future__ import annotations

import random

from .games import Game, Restriction, make_game

PD = make_game(
    "pd",
    [("C", "D"), ("C", "D")],
    {
        ("C", "C"): (2, 2),
        ("C", "D"): (0, 3),
        ("D", "C"): (3, 0),
        ("D", "D"): (1, 1),
    },
)

MP = make_game(
    "mp",
    [("H", "T"), ("H", "T")],
    {
        ("H", "H"): (1, -1),
        ("H", "T"): (-1, 1),
        ("T", "H"): (-1, 1),
        ("T", "T"): (1, -1),
    },
)

MIX = make_game(
    "mix",
    [("T", "M", "B"), ("L", "R")],
    {
        ("T", "L"): (3, 0),
        ("T", "R"): (0, 0),
        ("M", "L"): (0, 0),
        ("M", "R"): (3, 0),
        ("B", "L"): (1, 0),
        ("B", "R"): (1, 0),
    },
)

CHAIN = make_game(
    "chain",
    [("T", "M", "B"), ("L", "C", "R")],
    {
        ("T", "L"): (4, 3),
        ("T", "C"): (5, 1),
        ("T", "R"): (6, 2),
        ("M", "L"): (2, 1),
        ("M", "C"): (8, 4),
        ("M", "R"): (3, 6),
        ("B", "L"): (3, 0),
        ("B", "C"): (9, 6),
        ("B", "R"): (2, 8),
    },
)

# Small three-player game; exercises n > 2 code paths and the documented
# rejection of independent mixed beliefs there.
THREE = make_game(
    "three",
    [("a", "b"), ("x", "y"), ("p", "q")],
    {
        ("a", "x", "p"): (2, 1, 1),
        ("a", "x", "q"): (1, 0, 2),
        ("a", "y", "p"): (0, 2, 0),
        ("a", "y", "q"): (3, 1, 1),
        ("b", "x", "p"): (1, 2, 2),
        ("b", "x", "q"): (0, 1, 0),
        ("b", "y", "p"): (2, 0, 1),
        ("b", "y", "q"): (1, 3, 2),
    },
)

FIXTURES: dict[str, Game] = {
    "pd": PD,
    "mp": MP,
    "mix": MIX,
    "chain": CHAIN,
    "three": THREE,
}


def random_game(rng: random.Random, rows: int, cols: int, bound: int = 5) -> Game:
    """Two-player game with integer payoffs uniform in [-bound, bound]."""
    names = [
        tuple(f"a{i + 1}" for i in range(rows)),
        tuple(f"b{j + 1}" for j in range(cols)),
    ]
    table = {}
    for r in names[0]:
        for c in names[1]:
            table[(r, c)] = (rng.randint(-bound, bound), rng.randint(-bound, bound))
    return make_game(f"rand{rows}x{cols}", names, table)


def random_games(seed: int, count: int, max_rows: int, max_cols: int) -> list[Game]:
    """A reproducible batch of random games with shapes up to max_rows x max_cols."""
    rng = random.Random(seed)
    games = []
    for k in range(count):
        rows = rng.randint(2, max_rows)
        cols = rng.randint(2, max_cols)
        g = random_game(rng, rows, cols)
        games.append(
            Game(f"{g.name}-s{seed}-{k}", g.strategy_names, g.payoffs)
        )
    return games


def random_restriction(rng: random.Random, game: Game) -> Restriction:
    """A uniformly random restriction (empty components permitted)."""
    masks = tuple(
        sum(1 << s for s in game.strategies(i) if rng.random() < 0.5)
        for i in game.players()
    )
    return Restriction(game, masks)
