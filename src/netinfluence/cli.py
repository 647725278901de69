"""Command-line interface: simulate, centrality, best-response, nash, generate.

Reports are line-delimited text with a stable field order (see
``docs/report_schema.md``): every command echoes its effective parameters,
writes its payload line by line as it is formatted, and ends with a timing
line.  ``--structured`` picks the machine layout over the human one; both are
deterministic apart from the timing line, with real numbers to 12 significant
digits.  Diagnostics go to stderr; exit status 0 means the report is complete.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .dynamics import (
    _columns,
    consensus_reached,
    diffusion_centrality_matrix,
    eigenvector_weights,
    evolve,
    influence_matrix,
    initialize,
)
from .game import GameConfig, StrategyProfile, _chunk_items, _mixing_matrix, _shares, check_profile
from .graph import (
    Graph,
    GraphFormatError,
    _LineError,
    _tolerance,
    build_counterexample,
    dump_graph,
    load_graph,
    random_graph,
)
from .solver import (
    best_response_dynamics,
    exact_best_response,
    exhaustive_nash_check,
    greedy_best_response,
)


class ProfileFormatError(_LineError):
    """Raised when a strategy-profile document cannot be parsed."""


def fmt(x) -> str:
    """Render a real number with 12 significant digits."""
    return format(float(x), "#.12g")


def _ids(nodes) -> str:
    return ",".join(str(v) for v in sorted(nodes))


class Report:
    """One command's report, timed from creation; header and ``param`` lines wait for the first payload line."""

    def __init__(self, command: str, structured: bool):
        self.started = time.perf_counter()
        self.structured = structured
        self.held = f"command {command}\n" if structured else f"netinfluence {command}\n"

    def param(self, key: str, value):
        self.held += f"param {key} {value}\n" if self.structured else f"  {key}: {value}\n"

    def line(self, text: str):
        _write(self.held + text + "\n")
        self.held = ""

    def emit(self) -> int:
        elapsed_ms = fmt((time.perf_counter() - self.started) * 1000.0)
        timing = f"time_ms {elapsed_ms}" if self.structured else f"elapsed {elapsed_ms} ms"
        _write(self.held + timing + "\n", flush=True)
        return 0


def _write(*texts: str, flush: bool = False):
    """Write the texts to stdout, then flush if asked; a failed write, such as to a full disk, is a one-line error."""
    try:
        sys.stdout.writelines(texts)
        if flush:
            sys.stdout.flush()
    except OSError as exc:
        # The unwritten text stays buffered; send it to /dev/null so the exit flush cannot fail too.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ValueError(f"cannot write report: {exc.strerror}") from None


def _read(path: str, kind: str, parse, error: type[ValueError]):
    """``parse`` of the open UTF-8 file; every failure is one ``error`` that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle)
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {kind} file {path}: {exc}") from None
    except error as exc:
        raise error(f"{path}: {exc}") from None


def _read_graph(path: str, normalize: bool) -> Graph:
    return _read(path, "graph", lambda handle: load_graph(handle, normalize=normalize), GraphFormatError)


def _parse_seed_lines(text: str) -> dict[int, list[int]]:
    """Parse ``player <i> seeds <id> <id> ...`` lines into an index-to-seeds map."""
    found: dict[int, list[int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) < 4 or tokens[0] != "player" or tokens[2] != "seeds":
            raise ProfileFormatError("expected 'player <i> seeds <id> <id> ...'", line_no)
        try:
            index = int(tokens[1])
            seeds = [int(t) for t in tokens[3:]]
        except ValueError:
            raise ProfileFormatError(f"bad integer token in {stripped!r}", line_no) from None
        if index < 0:
            raise ProfileFormatError(f"negative player index {index}", line_no)
        if index in found:
            raise ProfileFormatError(f"duplicate line for player {index}", line_no)
        if len(set(seeds)) != len(seeds):
            raise ProfileFormatError(f"player {index} lists a seed node more than once", line_no)
        found[index] = seeds
    if not found:
        raise ProfileFormatError("empty document: no 'player' lines")
    return found


def _read_players(path: str, skip: int | None = None) -> list[list[int]]:
    """Seed sets in player order from a strategy file listing players 0..m-1 once each, bar ``skip``."""
    found = _read(path, "strategy", lambda handle: _parse_seed_lines(handle.read()), ProfileFormatError)
    m = len(found) + (skip is not None)
    expected = [i for i in range(m) if i != skip]
    if sorted(found) != expected:
        minus = "" if skip is None else f" minus player {skip}"
        raise ProfileFormatError(f"{path}: player indices {sorted(found)} do not form 0..{m - 1}{minus}")
    return [found[i] for i in expected]


def _budgets_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad budget list {text!r}; expected e.g. 2,2") from None


def _resolve_regime(args, report: Report) -> tuple[str, int]:
    """Payoff regime and horizon from ``--consensus``/``--horizon``, echoed to the report."""
    regime = "consensus" if args.consensus else "horizon"
    if regime == "horizon" and args.horizon is None:
        raise ValueError("pass --horizon for finite-horizon payoffs or --consensus")
    report.param("regime", regime)
    if regime == "horizon":
        report.param("horizon", args.horizon)
    return regime, args.horizon if args.horizon is not None else 1


def cmd_simulate(args) -> int:
    report = Report("simulate", args.structured)
    _tolerance(args.consensus_tol, "--consensus-tol")
    g = _read_graph(args.graph, args.normalize)
    profile = StrategyProfile(_read_players(args.strategies))
    budgets = args.budgets or tuple(max(1, len(s)) for s in profile)
    cfg = GameConfig(g, budgets, horizon=args.horizon, alpha=args.alpha, epsilon=args.epsilon)

    report.param("graph", args.graph)
    report.param("strategies", args.strategies)
    report.param("nodes", g.node_count)
    report.param("players", cfg.m)
    report.param("budgets", ",".join(str(b) for b in cfg.budgets))
    report.param("alpha", fmt(cfg.alpha))
    report.param("epsilon", fmt(cfg.epsilon))
    report.param("horizon", cfg.horizon)
    report.param("normalize", str(args.normalize).lower())
    report.param("consensus_tol", fmt(args.consensus_tol))

    # The same products as ``utility``, stepped one at a time so the trace can print.
    check_profile(cfg, profile)
    gamma = _mixing_matrix(cfg.graph, cfg.alpha)
    final = initialize(cfg.graph, profile, cfg.epsilon)
    for t in range(cfg.horizon + 1):
        if t:
            final = evolve(final, gamma, 1)
        if args.trace:
            report.line(f"trace {t} " + " ".join(fmt(x) for x in final.opinions.ravel()))
    if args.state:
        for v in range(g.node_count):
            report.line(f"state {v} " + " ".join(fmt(x) for x in final.opinions[v]))
        verdict = consensus_reached(final, args.consensus_tol)
        report.line(f"consensus {str(verdict).lower()}")

    payoffs = _shares(final.opinions)
    for i, p in enumerate(payoffs):
        report.line(f"payoff {i} {fmt(p)}")
    report.line(f"payoff_sum {fmt(payoffs.sum())}")
    return report.emit()


def cmd_centrality(args) -> int:
    report = Report("centrality", args.structured)
    g = _read_graph(args.graph, args.normalize)
    gamma = influence_matrix(g, args.alpha)

    report.param("graph", args.graph)
    report.param("nodes", g.node_count)
    report.param("alpha", fmt(args.alpha))
    report.param("mode", "eigen" if args.eigen else "horizon")
    if not args.eigen:
        report.param("horizon", args.horizon)
    report.param("normalize", str(args.normalize).lower())

    if args.eigen:
        weights = eigenvector_weights(gamma).weights
        for v, weight in enumerate(weights.tolist()):
            report.line(f"weight {v} {fmt(weight)}")
        report.line(f"weight_sum {fmt(weights.sum())}")
    else:
        table = diffusion_centrality_matrix(gamma, args.horizon)
        step = _chunk_items(g.node_count)  # columns gathered at a time
        for nodes in np.split(np.arange(g.node_count), range(step, g.node_count, step)):
            for v, column in zip(nodes.tolist(), _columns(table, nodes).tolist()):
                report.line(f"influence {v} " + " ".join(map(fmt, column)))
    return report.emit()


def cmd_best_response(args) -> int:
    report = Report("best-response", args.structured)
    if not args.exact and not args.greedy:
        raise ValueError("nothing to do: pass --exact, --greedy, or both")
    g = _read_graph(args.graph, args.normalize)
    others = _read_players(args.opponents, skip=args.player)
    budgets = [max(1, len(s)) for s in others]
    budgets.insert(args.player, args.budget)

    report.param("graph", args.graph)
    report.param("opponents", args.opponents)
    report.param("player", args.player)
    report.param("budget", args.budget)
    regime, horizon = _resolve_regime(args, report)
    cfg = GameConfig(g, tuple(budgets), horizon=horizon, alpha=args.alpha, epsilon=args.epsilon)
    report.param("alpha", fmt(cfg.alpha))
    report.param("epsilon", fmt(cfg.epsilon))

    results = {}
    if args.exact:
        results["exact"] = exact_best_response(cfg, args.player, others, regime=regime)
    if args.greedy:
        results["greedy"] = greedy_best_response(cfg, args.player, others, regime=regime)
    for method, br in results.items():
        report.line(f"method {method}")
        report.line(f"strategy {_ids(br.strategy)}")
        report.line(f"payoff {fmt(br.payoff)}")
        report.line(f"evaluations {br.evaluations}")
    if len(results) == 2:
        report.line(f"ratio {fmt(results['greedy'].payoff / results['exact'].payoff)}")
    return report.emit()


def cmd_nash(args) -> int:
    report = Report("nash", args.structured)
    g = _read_graph(args.graph, args.normalize)

    report.param("graph", args.graph)
    report.param("nodes", g.node_count)
    report.param("budgets", ",".join(str(b) for b in args.budgets))
    regime, horizon = _resolve_regime(args, report)
    cfg = GameConfig(g, args.budgets, horizon=horizon, alpha=args.alpha, epsilon=args.epsilon)
    report.param("alpha", fmt(cfg.alpha))
    report.param("epsilon", fmt(cfg.epsilon))
    report.param("mode", "dynamics" if args.dynamics else "exhaustive")

    if args.dynamics:
        profile = StrategyProfile(_read_players(args.initial)) if args.initial else _default_profile(cfg)
        report.param("max_rounds", args.max_rounds)
        report.param("responder", "greedy" if args.greedy else "exact")
        outcome = best_response_dynamics(
            cfg,
            profile,
            max_rounds=args.max_rounds,
            use_exact=not args.greedy,
            regime=regime,
        )
        report.line(f"kind {outcome.kind}")
        for i, s in enumerate(outcome.profile):
            report.line(f"profile {i} {_ids(s)}")
        report.line(f"moves {len(outcome.trace)}")
        for k, mv in enumerate(outcome.trace):
            report.line(f"move {k} {mv.player} {_ids(mv.old)} {_ids(mv.new)} {fmt(mv.delta)}")
    else:
        equilibria = exhaustive_nash_check(cfg, regime=regime)
        report.line(f"equilibria {len(equilibria)}")
        for k, profile in enumerate(equilibria):
            for i, s in enumerate(profile):
                report.line(f"equilibrium {k} {i} {_ids(s)}")
    return report.emit()


def _default_profile(cfg: GameConfig) -> StrategyProfile:
    """Deterministic starting profile: consecutive id blocks, wrapping modulo n."""
    sets = []
    offset = 0
    for b in cfg.budgets:
        take = min(b, cfg.n)
        sets.append([(offset + k) % cfg.n for k in range(take)])
        offset += take
    return StrategyProfile(sets)


def cmd_generate(args) -> int:
    report = Report("generate", args.structured)
    if args.counterexample:
        m, b = args.counterexample
        g = build_counterexample(m, b)
        header = {"mode": "counterexample", "players": m, "budget": b}
    else:
        n, d, seed = args.random
        g = random_graph(n, d, seed)
        header = {"mode": "random", "nodes": n, "out_degree": d, "seed": seed}
    parts = ["# generated by netinfluence\n", *(f"# {key} {value}\n" for key, value in header.items()), dump_graph(g)]
    if not args.output:
        _write(*parts, flush=True)  # one part after another: the document is never copied whole
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(parts)
    except OSError as exc:
        raise ValueError(f"cannot write graph file {args.output}: {exc.strerror}") from None
    header.pop("nodes", None)  # the report echoes the node count after the generator's parameters
    for key, value in {**header, "nodes": g.node_count, "edges": g.src.size}.items():
        report.param(key, value)
    report.line(f"written {args.output}")
    return report.emit()


# Subcommand name -> (help line, handler, last tier of shared flags it takes), in help order.
_SUBCOMMANDS = {
    "simulate": ("seed opinions, run the averaging dynamic, report payoffs", cmd_simulate, "game"),
    "centrality": ("influence table at a horizon, or stationary weights", cmd_centrality, "graph"),
    "best-response": ("one player's best seed set against fixed opponents", cmd_best_response, "regime"),
    "nash": ("equilibrium search: improvement dynamics or exhaustive check", cmd_nash, "regime"),
    "generate": ("write a graph in the edge-list format", cmd_generate, "layout"),
}


def _shared_flags(p: argparse.ArgumentParser, last: str):
    """Add the flags shared by several subcommands, each declared once, tier by tier up to ``last``."""
    depth = ("layout", "graph", "game", "regime").index(last)
    p.add_argument("--structured", action="store_true", help="machine-oriented report layout")
    if depth >= 1:
        p.add_argument("--graph", required=True, help="edge-list graph file")
        p.add_argument("--alpha", type=float, default=0.5, help="neighbor blending weight (default 0.5)")
        p.add_argument("--normalize", action="store_true", help="rescale incoming weights to sum to one on load")
    if depth >= 2:
        p.add_argument("--epsilon", type=float, default=1e-6, help="background opinion for unseeded nodes")
    if depth >= 3:
        p.add_argument("--horizon", type=int, default=None, help="number of averaging steps")
        p.add_argument("--consensus", action="store_true", help="stationary-regime payoffs instead of a horizon")


def _add_subcommand(sub, name: str):
    """Add subcommand ``name``'s parser: its shared flags, then its own, in the order its help lists them."""
    help_text, func, last = _SUBCOMMANDS[name]
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func)
    _shared_flags(p, last)
    if name == "simulate":
        p.add_argument("--strategies", required=True, help="strategy profile file")
        p.add_argument("--horizon", type=int, required=True, help="number of averaging steps")
        p.add_argument("--budgets", type=_budgets_arg, default=None, help="declared budgets, e.g. 2,2")
        p.add_argument("--state", action="store_true", help="also print the final opinion matrix and consensus verdict")
        p.add_argument("--trace", action="store_true", help="also print one opinion snapshot per step")
        p.add_argument("--consensus-tol", type=float, default=1e-8, help="spread tolerance for the consensus verdict")
    elif name == "centrality":
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--horizon", type=int, help="emit the influence table after this many steps")
        group.add_argument("--eigen", action="store_true", help="emit the stationary weights instead")
    elif name == "best-response":
        p.add_argument("--player", type=int, required=True, help="responding player index")
        p.add_argument("--opponents", required=True, help="seed file for the other players")
        p.add_argument("--budget", type=int, required=True, help="responding player's budget")
        p.add_argument("--exact", action="store_true", help="exhaustive search over full-budget sets")
        p.add_argument("--greedy", action="store_true", help="greedy marginal-gain search")
    elif name == "nash":
        p.add_argument("--budgets", type=_budgets_arg, required=True, help="per-player budgets, e.g. 2,2")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--dynamics", action="store_true", help="round-robin best-response play")
        group.add_argument("--exhaustive", action="store_true", help="enumerate all full-budget profiles")
        p.add_argument("--initial", default=None, help="starting profile file for --dynamics")
        p.add_argument("--max-rounds", type=int, default=100)
        p.add_argument("--greedy", action="store_true", help="greedy responders in --dynamics")
    else:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--counterexample",
            nargs=2,
            type=int,
            metavar=("M", "B"),
            help="ring-with-petals family sized for M players of budget B",
        )
        group.add_argument(
            "--random",
            nargs=3,
            type=int,
            metavar=("N", "D", "SEED"),
            help="random strongly connected graph: N nodes, out-degree D",
        )
        p.add_argument("--output", default=None, help="write to this file instead of stdout")


def _build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, holding only subcommand ``name``'s parser when ``name`` is one, else all of them.

    A one-subcommand parser reads that subcommand's argv as the full one
    does, and its top-level usage still lists every subcommand.  The errors
    that name the subcommand argument itself (none given, an unknown one)
    only arise when the first argument is not a subcommand: the full build.
    """
    parser = argparse.ArgumentParser(
        prog="netinfluence",
        description="Competitive opinion seeding on weighted digraphs",
    )
    parser.add_argument("--version", action="version", version=f"netinfluence {__version__}")
    one = name in _SUBCOMMANDS
    choices = "{" + ",".join(_SUBCOMMANDS) + "}" if one else None  # as the full build's usage shows them
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=choices)
    for key in [name] if one else _SUBCOMMANDS:
        _add_subcommand(sub, key)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
