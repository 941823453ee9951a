"""Command-line front end.

Subcommands: ``analyze`` one instance (text report, or the JSON
certificate, which ``certificate_json`` writes from the report with no
dict in between), ``table`` the two-setting survey over a range of
outcome counts, ``game`` the induced nonlocal game, ``verify`` the
structural cross-check sweep. Exit codes: 0 success, 1 verification
failure, 2 usage error (including an ``--out`` file that cannot be
written), 3 instance beyond what verify can cross-check (the memory
ceiling), 4 internal consistency check failed (a RuntimeError such as
the root table's column check, the quantum-bound route agreement or
the chained-Bell term check, or a ValueError such as a certificate
value that is not a finite float).

``main`` builds its parser once per process, on its first call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from .certificate import certificate_json
from .games import AnalysisReport, analyze
from .orbit import InstanceTooLarge, ProblemSpec, _check_size, _sizes
from .verify import run_verification

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitbell",
        description=(
            "Bell inequalities, quantum/classical bounds, and nonlocal "
            "games generated by cyclic orbits of two-party product states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one instance")
    p.add_argument("--outcomes", type=int, required=True, help="outcomes per setting (>= 2)")
    p.add_argument("--settings", type=int, required=True, help="settings per party (>= 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write the report to this file instead of stdout")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("table", help="two-setting survey over a range of outcome counts")
    p.add_argument("--outcomes-from", type=int, required=True)
    p.add_argument("--outcomes-to", type=int, required=True)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("game", help="print the induced nonlocal game")
    p.add_argument("--outcomes", type=int, required=True)
    p.add_argument("--settings", type=int, required=True)
    p.set_defaults(handler=cmd_game)

    p = sub.add_parser("verify", help="run the structural cross-check sweep")
    p.add_argument("--outcomes-max", type=int, default=6)
    p.add_argument("--settings-max", type=int, default=6)
    p.set_defaults(handler=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every call of :func:`main` shares, built on the first.

    Sharing is safe: ``parse_args`` returns a new Namespace per call and
    leaves the parser unchanged, and the help formatter reads the
    terminal width when it formats, not when the parser is built.
    """
    return build_parser()


def _or_usage(parser: argparse.ArgumentParser, check: Callable[..., Any], *args: Any) -> Any:
    """``check(*args)``, with its ValueError reported as a usage error."""
    try:
        return check(*args)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def render_text_report(report: AnalysisReport) -> str:
    ineq = report.inequality
    spec = report.spec
    lines = [
        "Bell inequality from the cyclic step orbit",
        f"  outcomes per setting: {spec.outcomes}",
        f"  settings per party:   {spec.settings}",
        f"  orbit length:         {spec.orbit_length}",
        "",
        "bounds",
        f"  quantum bound  Q_s = {_fmt(ineq.quantum_bound)}",
        f"  classical bound C_s = {ineq.classical_bound}",
        f"  per-term probability at the optimum = "
        f"{_fmt(ineq.quantum_bound / spec.orbit_length)}",
        "",
        f"nonlocal game (uniform over {len(report.game.questions)} questions)",
        f"  quantum win   = {_fmt(report.quantum_win)}",
        f"  classical win = {_fmt(report.classical_win)}",
    ]
    if report.prediction_prob is not None:
        lines += [
            "",
            "two-setting statistics",
            f"  prediction probability p = {_fmt(report.prediction_prob)}",
            f"  mutual information = {_fmt(report.mutual_info_bits)} bits",
        ]
    lines += ["", "terms (alice setting,outcome | bob setting,outcome | probability)"]
    lines += [
        f"  ({a_s},{a_o} | {b_s},{b_o})  {_fmt(prob)}"
        for (a_s, a_o, b_s, b_o), prob in zip(ineq.labels.tolist(), ineq.per_term_probs)
    ]
    lines += [
        "",
        "classical witness",
        f"  alice outcomes by setting: {list(ineq.witness.alice_map)}",
        f"  bob outcomes by setting:   {list(ineq.witness.bob_map)}",
        "",
    ]
    return "\n".join(lines)


def render_game(report: AnalysisReport) -> str:
    lines = ["questions (alice_setting, bob_setting) and winning outcome pairs"]
    for (s, t), win in zip(report.game.questions, report.game.winning):
        answers = " ".join(f"({a},{b})" for a, b in sorted(win))
        lines.append(f"  ({s}, {t}): {answers}")
    lines += [
        f"classical_win = {_fmt(report.classical_win)}",
        f"quantum_win = {_fmt(report.quantum_win)}",
        "",
    ]
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> int:
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _or_usage(parser, ProblemSpec, args.outcomes, args.settings)
    report = analyze(spec)
    if args.format == "json":
        text = certificate_json(report) + "\n"
    else:
        text = render_text_report(report)
    return _emit(text, args.out)


def cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Print the M = 2 survey and a footnote with the d -> inf limit of
    Q_s. Every row is checked against analyze's size rule before the
    first runs, so the first row over it fails with analyze's own error
    and no row prints; d > 64 always fails."""
    lo, hi = args.outcomes_from, args.outcomes_to
    if lo < 2:
        parser.error("--outcomes-from must be at least 2")
    if hi < lo:
        parser.error("--outcomes-to must not be smaller than --outcomes-from")
    for d in range(lo, hi + 1):
        _check_size(d, 2)
    rows = ["   d     Q_s  C_s       p    I_ab"]
    for d in range(lo, hi + 1):
        report = analyze(ProblemSpec(d, 2))
        rows.append(
            f"{d:4d}  {report.quantum_bound:.4f}  {report.classical_bound:3d}"
            f"  {report.prediction_prob:.4f}  {report.mutual_info_bits:.4f}"
        )
    # d sin(pi/(dM)) -> pi/M in the closed form of Q_s; 2 + 4/pi at M = 2
    m = 2
    limit = m * (1 + (m / math.pi) * math.sin(math.pi / m))
    rows.append(f"d -> inf: Q_s -> M (1 + (M/pi) sin(pi/M)) = {limit:.4f} at M = {m}")
    sys.stdout.write("\n".join(rows) + "\n")
    return 0


def cmd_game(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _or_usage(parser, ProblemSpec, args.outcomes, args.settings)
    sys.stdout.write(render_game(analyze(spec)))
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    names = ("--outcomes-max", "--settings-max")
    _or_usage(parser, _sizes, args.outcomes_max, args.settings_max, names)
    report = run_verification(args.outcomes_max, args.settings_max)
    sys.stdout.write("\n".join(report.lines()) + "\n")
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError) as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 4
