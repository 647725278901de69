"""Command-line interface: simulate, centrality, best-response, nash, generate.

Reports are line-delimited text with a stable field order (see
``docs/report_schema.md``): every command echoes its effective parameters,
emits its payload, and ends with a timing line.  ``--structured`` switches
from the human layout to the machine layout; both are deterministic for fixed
inputs apart from the timing line.  All real numbers are printed with 12
significant digits.  Diagnostics go to stderr; the exit status is zero
exactly when a payload was produced.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from .dynamics import (
    consensus_reached,
    diffusion_centrality_matrix,
    eigenvector_weights,
    evolve,
    influence_matrix,
    initialize,
)
from .game import GameConfig, StrategyProfile, _mixing_matrix, _shares, check_profile
from .graph import Graph, GraphFormatError, build_counterexample, dump_graph, load_graph, random_graph
from .solver import (
    best_response_dynamics,
    exact_best_response,
    exhaustive_nash_check,
    greedy_best_response,
)


class ProfileFormatError(ValueError):
    """Raised when a strategy-profile document cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def fmt(x) -> str:
    """Render a real number with 12 significant digits."""
    return format(float(x), "#.12g")


def _ids(nodes) -> str:
    return ",".join(str(v) for v in sorted(nodes))


class Report:
    """Collects parameter echoes and payload lines for one command run."""

    def __init__(self, command: str):
        self.command = command
        self.params: list[tuple[str, str]] = []
        self.payload: list[str] = []

    def param(self, key: str, value):
        self.params.append((key, str(value)))

    def line(self, text: str):
        self.payload.append(text)

    def render(self, structured: bool, elapsed_ms: float) -> str:
        out: list[str] = []
        if structured:
            out.append(f"command {self.command}")
            out.extend(f"param {k} {v}" for k, v in self.params)
            out.extend(self.payload)
            out.append(f"time_ms {fmt(elapsed_ms)}")
        else:
            out.append(f"netinfluence {self.command}")
            out.extend(f"  {k}: {v}" for k, v in self.params)
            out.extend(self.payload)
            out.append(f"elapsed {fmt(elapsed_ms)} ms")
        return "\n".join(out) + "\n"


def _read_graph(path: str, normalize: bool) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load_graph(handle, normalize=normalize)
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"cannot read graph file {path}: {exc}") from None
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


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


def _read_profile(path: str) -> StrategyProfile:
    """Read a full profile: players 0..m-1 must each appear exactly once."""
    lines = _read_seed_file(path)
    expected = list(range(len(lines)))
    if sorted(lines) != expected:
        raise ProfileFormatError(
            f"{path}: player indices {sorted(lines)} do not form 0..{len(lines) - 1}"
        )
    return StrategyProfile(lines[i] for i in expected)


def _read_seed_file(path: str) -> dict[int, list[int]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProfileFormatError(f"cannot read strategy file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ProfileFormatError(f"cannot read strategy file {path}: {exc}") from None
    try:
        return _parse_seed_lines(text)
    except ProfileFormatError as exc:
        raise ProfileFormatError(f"{path}: {exc}") from None


def _budgets_arg(text: str) -> tuple[int, ...]:
    try:
        budgets = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad budget list {text!r}; expected e.g. 2,2") from None
    if not budgets:
        raise argparse.ArgumentTypeError("budget list is empty")
    return budgets


def _resolve_regime(args, report: Report) -> tuple[str, int]:
    """Payoff regime and horizon from ``--consensus``/``--horizon``, echoed to the report."""
    regime = "consensus" if args.consensus else "horizon"
    if regime == "horizon" and args.horizon is None:
        raise ValueError("pass --horizon for finite-horizon payoffs or --consensus")
    report.param("regime", regime)
    if regime == "horizon":
        report.param("horizon", args.horizon)
    return regime, args.horizon if args.horizon is not None else 1


def _emit(report: Report, args, started: float) -> int:
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    sys.stdout.write(report.render(args.structured, elapsed_ms))
    return 0


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    g = _read_graph(args.graph, args.normalize)
    profile = _read_profile(args.strategies)
    budgets = args.budgets or tuple(max(1, len(s)) for s in profile)
    cfg = GameConfig(g, budgets, horizon=args.horizon, alpha=args.alpha, epsilon=args.epsilon)

    report = Report("simulate")
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
    return _emit(report, args, started)


def cmd_centrality(args) -> int:
    started = time.perf_counter()
    g = _read_graph(args.graph, args.normalize)
    gamma = influence_matrix(g, args.alpha)

    report = Report("centrality")
    report.param("graph", args.graph)
    report.param("nodes", g.node_count)
    report.param("alpha", fmt(args.alpha))
    report.param("mode", "eigen" if args.eigen else "horizon")
    if not args.eigen:
        report.param("horizon", args.horizon)
    report.param("normalize", str(args.normalize).lower())

    if args.eigen:
        weights = eigenvector_weights(gamma).weights
        for v in range(g.node_count):
            report.line(f"weight {v} {fmt(weights[v])}")
        report.line(f"weight_sum {fmt(weights.sum())}")
    else:
        table = diffusion_centrality_matrix(gamma, args.horizon)
        for v in range(g.node_count):
            column = table[:, v] if isinstance(table, np.ndarray) else table[:, [v]].toarray().ravel()
            report.line(f"influence {v} " + " ".join(fmt(x) for x in column))
    return _emit(report, args, started)


def cmd_best_response(args) -> int:
    started = time.perf_counter()
    if not args.exact and not args.greedy:
        raise ValueError("nothing to do: pass --exact, --greedy, or both")
    g = _read_graph(args.graph, args.normalize)
    opponents = _read_seed_file(args.opponents)
    m = len(opponents) + 1
    expected = [j for j in range(m) if j != args.player]
    if sorted(opponents) != expected:
        raise ProfileFormatError(
            f"{args.opponents}: opponent indices {sorted(opponents)} do not cover "
            f"players 0..{m - 1} minus player {args.player}"
        )
    others = [opponents[j] for j in expected]
    budgets = [0] * m
    budgets[args.player] = args.budget
    for j, s in zip(expected, others):
        budgets[j] = max(1, len(s))

    report = Report("best-response")
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
    for method in ("exact", "greedy"):
        if method in results:
            br = results[method]
            report.line(f"method {method}")
            report.line(f"strategy {_ids(br.strategy)}")
            report.line(f"payoff {fmt(br.payoff)}")
            report.line(f"evaluations {br.evaluations}")
    if "exact" in results and "greedy" in results:
        report.line(f"ratio {fmt(results['greedy'].payoff / results['exact'].payoff)}")
    return _emit(report, args, started)


def cmd_nash(args) -> int:
    started = time.perf_counter()
    g = _read_graph(args.graph, args.normalize)

    report = Report("nash")
    report.param("graph", args.graph)
    report.param("nodes", g.node_count)
    report.param("budgets", ",".join(str(b) for b in args.budgets))
    regime, horizon = _resolve_regime(args, report)
    cfg = GameConfig(g, args.budgets, horizon=horizon, alpha=args.alpha, epsilon=args.epsilon)
    report.param("alpha", fmt(cfg.alpha))
    report.param("epsilon", fmt(cfg.epsilon))
    report.param("mode", "dynamics" if args.dynamics else "exhaustive")

    if args.dynamics:
        if args.initial:
            profile = _read_profile(args.initial)
        else:
            profile = _default_profile(cfg)
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
    return _emit(report, args, started)


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
    started = time.perf_counter()
    report = Report("generate")
    if args.counterexample:
        m, b = args.counterexample
        g = build_counterexample(m, b)
        header = [
            "# generated by netinfluence",
            "# mode counterexample",
            f"# players {m}",
            f"# budget {b}",
        ]
        report.param("mode", "counterexample")
        report.param("players", m)
        report.param("budget", b)
    else:
        n, d, seed = args.random
        g = random_graph(n, d, seed)
        header = [
            "# generated by netinfluence",
            "# mode random",
            f"# nodes {n}",
            f"# out_degree {d}",
            f"# seed {seed}",
        ]
        report.param("mode", "random")
        report.param("out_degree", d)
        report.param("seed", seed)
    document = "\n".join(header) + "\n" + dump_graph(g)

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            raise ValueError(f"cannot write graph file {args.output}: {exc.strerror}") from None
        report.param("nodes", g.node_count)
        report.param("edges", g.src.size)
        report.line(f"written {args.output}")
        return _emit(report, args, started)
    sys.stdout.write(document)
    return 0


def _add_common(parser, graph_input: bool = True):
    parser.add_argument("--structured", action="store_true", help="machine-oriented report layout")
    if graph_input:
        parser.add_argument("--normalize", action="store_true", help="rescale incoming weights to sum to one on load")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netinfluence",
        description="Competitive opinion seeding on weighted digraphs",
    )
    parser.add_argument("--version", action="version", version=f"netinfluence {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="seed opinions, run the averaging dynamic, report payoffs")
    p.add_argument("--graph", required=True, help="edge-list graph file")
    p.add_argument("--strategies", required=True, help="strategy profile file")
    p.add_argument("--horizon", type=int, required=True, help="number of averaging steps")
    p.add_argument("--alpha", type=float, default=0.5, help="neighbor blending weight (default 0.5)")
    p.add_argument("--epsilon", type=float, default=1e-6, help="background opinion for unseeded nodes")
    p.add_argument("--budgets", type=_budgets_arg, default=None, help="declared budgets, e.g. 2,2")
    p.add_argument("--state", action="store_true", help="also print the final opinion matrix and consensus verdict")
    p.add_argument("--trace", action="store_true", help="also print one opinion snapshot per step")
    p.add_argument("--consensus-tol", type=float, default=1e-8, help="spread tolerance for the consensus verdict")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("centrality", help="influence table at a horizon, or stationary weights")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--horizon", type=int, help="emit the influence table after this many steps")
    group.add_argument("--eigen", action="store_true", help="emit the stationary weights instead")
    _add_common(p)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("best-response", help="one player's best seed set against fixed opponents")
    p.add_argument("--graph", required=True)
    p.add_argument("--player", type=int, required=True, help="responding player index")
    p.add_argument("--opponents", required=True, help="seed file for the other players")
    p.add_argument("--budget", type=int, required=True, help="responding player's budget")
    p.add_argument("--exact", action="store_true", help="exhaustive search over full-budget sets")
    p.add_argument("--greedy", action="store_true", help="greedy marginal-gain search")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--consensus", action="store_true", help="stationary-regime payoffs instead of a horizon")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_best_response)

    p = sub.add_parser("nash", help="equilibrium search: improvement dynamics or exhaustive check")
    p.add_argument("--graph", required=True)
    p.add_argument("--budgets", type=_budgets_arg, required=True, help="per-player budgets, e.g. 2,2")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dynamics", action="store_true", help="round-robin best-response play")
    group.add_argument("--exhaustive", action="store_true", help="enumerate all full-budget profiles")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--consensus", action="store_true", help="stationary-regime payoffs instead of a horizon")
    p.add_argument("--initial", default=None, help="starting profile file for --dynamics")
    p.add_argument("--max-rounds", type=int, default=100)
    p.add_argument("--greedy", action="store_true", help="greedy responders in --dynamics")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_nash)

    p = sub.add_parser("generate", help="write a graph in the edge-list format")
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
    _add_common(p, graph_input=False)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ProfileFormatError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
