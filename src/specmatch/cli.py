"""Command-line front door: computations, certificates, constructions, sweeps.

Exit codes: 0 success, 1 usage or input error, 2 computation error,
3 verification failure (bound violated or unsound certificate).
"""

from __future__ import annotations

import argparse
import sys

from .certify import SoundnessError, certify_all, fpm_threshold
from .extremal import ExtremalSpec, _t13_regime, build_extremal, predicted_maximizer_connected
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    from_edge_list_text,
    from_graph6,
    to_graph6,
)
from .halfint import HalfIntegral
from .matching import (
    fpm_partition,
    fractional_matching_number,
    fractional_transversal,
    matching_number,
    optimal_fractional_matching,
)
from .spectral import ConvergenceError, DEFAULT_TOL, spectral_radius
from .verify import (
    THEOREMS,
    _CONNECTED_THEOREMS,
    _predict,
    audit_structures,
    cross_check_matching_implementations,
    verify_certificates,
    verify_theorem,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _read_graph(args) -> Graph:
    try:
        if getattr(args, "graph6", None):
            return from_graph6(args.graph6)
        if getattr(args, "edges", None):
            with open(args.edges, "r", encoding="utf-8") as fh:
                return from_edge_list_text(fh.read())
        text = sys.stdin.read()
        stripped = text.strip()
        if not stripped:
            raise _UsageError("no graph given: use --graph6, --edges FILE, or pipe input")
        head = stripped.splitlines()[0].split()
        if len(head) == 2 and all(tok.lstrip("+-").isdigit() for tok in head):
            return from_edge_list_text(stripped)
        return from_graph6(stripped)
    except GraphError as exc:  # malformed input is a usage error, not a computation error
        raise _UsageError(str(exc)) from exc


def _add_input_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph6", help="graph6 string")
    p.add_argument("--edges", help="edge-list file: first line 'n m', then 'u v' lines")


def _cmd_rho(args) -> int:
    g = _read_graph(args)
    res = spectral_radius(g, args.tol)
    print(_fmt(res.value))
    return EXIT_OK


def _cmd_beta(args) -> int:
    g = _read_graph(args)
    res = matching_number(g)
    print(res.size)
    if args.witness:
        for u, v in res.edges:
            print(f"edge {u} {v} 1")
    return EXIT_OK


def _cmd_beta_star(args) -> int:
    g = _read_graph(args)
    print(str(fractional_matching_number(g)))
    if args.witness:
        sys.stdout.write(optimal_fractional_matching(g).to_text())
    return EXIT_OK


def _cmd_transversal(args) -> int:
    g = _read_graph(args)
    t = fractional_transversal(g)
    print(str(t.total))
    sys.stdout.write(t.to_text())
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = _read_graph(args)
    bsd = fractional_matching_number(g)
    if bsd.doubled < g.n:
        print(f"error: no fractional perfect matching (beta* = {bsd}, n/2 = {g.n}/2)", file=sys.stderr)
        return EXIT_COMPUTE
    part = fpm_partition(g, optimal_fractional_matching(g))
    sys.stdout.write(part.to_text())
    return EXIT_OK


def _cmd_certify(args) -> int:
    print(certify_all(_read_graph(args), verify_truth=args.verify_truth).to_json())
    return EXIT_OK


def _cmd_extremal(args) -> int:
    beta_star = HalfIntegral.parse(args.beta_star)
    if args.s is not None:
        g = build_extremal(ExtremalSpec(args.n, beta_star, args.s))
    else:
        g = predicted_maximizer_connected(args.n, beta_star).extremal_graphs[0]
    print(to_graph6(g))
    return EXIT_OK


def _cmd_threshold(args) -> int:
    n = args.n
    if args.theorem in ("t32", "t33"):
        if args.beta_star is None:
            raise _UsageError(f"--theorem {args.theorem} needs --beta-star")
        print(_fmt(_predict(args.theorem, n, HalfIntegral.parse(args.beta_star).doubled).bound))
    elif args.theorem in ("t12", "t13"):
        if args.beta is None:
            raise _UsageError(f"--theorem {args.theorem} needs --beta")
        print(_fmt(_predict(args.theorem, n, 2 * args.beta).bound))
    elif args.theorem == "t35":
        thr = fpm_threshold(n)
        if thr is None:
            raise _UsageError(f"no fractional perfect matching threshold for n={n} (need n >= 3)")
        print(_fmt(thr))
    elif args.theorem == "t37":
        if args.beta is None:
            raise _UsageError("--theorem t37 needs --beta")
        # the beta-increment certificate's range; its threshold is the t13 class bound
        if not 1 <= args.beta <= (n - 2) / 2:
            raise _UsageError(f"no matching-increment threshold for n={n}, beta={args.beta}")
        print(_fmt(_t13_regime(n, args.beta)[1]))
    else:  # pragma: no cover - argparse choices guard this
        raise _UsageError(f"unknown theorem {args.theorem}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not args.theorem and (args.connected or args.out or args.long_run):
        raise _UsageError("--connected, --out and --long-run apply to --theorem only")
    if args.certificates:
        report = verify_certificates(args.n, jobs=args.jobs)
        print(f"connected graphs examined: {report.connected_examined}")
        for name, applicable, fired in report.counts:
            print(f"{name}: applicable {applicable}, fired {fired}")
        for g6, name in report.unsound:
            print(f"UNSOUND {name} on {g6}")
        print("result: " + ("PASS" if report.passed else "FAIL"))
        return EXIT_OK if report.passed else EXIT_VERIFY
    if args.audit:
        report = audit_structures(args.n, jobs=args.jobs)
        print(
            f"graphs {report.graphs}, connected {report.connected_graphs}, "
            f"with fractional perfect matching {report.fpm_graphs}"
        )
        for v in report.violations:
            print(f"VIOLATION {v}")
        print("result: " + ("PASS" if report.passed else "FAIL"))
        return EXIT_OK if report.passed else EXIT_VERIFY
    if args.connected and not _CONNECTED_THEOREMS[args.theorem]:
        raise _UsageError(
            f"--connected contradicts {args.theorem}, which quantifies over all graphs; "
            "use t32/t13 for the connected classes"
        )
    report = verify_theorem(args.theorem, args.n, jobs=args.jobs, long_run=args.long_run)
    print(
        f"{report.theorem} n={report.n}: {report.labeled_examined} labeled graphs, "
        f"{report.connected_count} connected"
    )
    for rec in report.classes:
        print(
            f"class {rec.class_doubled}: regime {rec.regime}, bound {_fmt(rec.bound)}, "
            f"max rho {_fmt(rec.max_rho)}, maximizers {rec.n_maximizers}, "
            f"bound_holds {rec.bound_holds}, argmax_matches {rec.argmax_matches}"
        )
    for line in report.resolutions:
        print(f"resolution: {line}")
    for line in report.discrepancies:
        print(f"DISCREPANCY {line}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    print("result: " + ("PASS" if report.passed else "FAIL"))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_cross_check(args) -> int:
    report = cross_check_matching_implementations(args.n, samples=args.samples, jobs=args.jobs, seed=args.seed)
    kind = "exhaustive" if report.exhaustive else "sampled"
    print(f"{kind} cross-check at n={report.n}: {report.graphs_checked} graphs")
    for line in report.mismatches:
        print(f"MISMATCH {line}")
    print("result: " + ("PASS" if report.passed else "FAIL"))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _build_parser() -> _Parser:
    parser = _Parser(prog="specmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="spectral radius of a graph")
    _add_input_opts(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("beta", help="matching number")
    _add_input_opts(p)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("beta-star", help="fractional matching number")
    _add_input_opts(p)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_beta_star)

    p = sub.add_parser("transversal", help="optimal fractional transversal")
    _add_input_opts(p)
    p.set_defaults(func=_cmd_transversal)

    p = sub.add_parser("decompose", help="fractional perfect matching partition")
    _add_input_opts(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("certify", help="run every spectral certificate")
    _add_input_opts(p)
    truth = p.add_mutually_exclusive_group()
    truth.add_argument("--verify-truth", dest="verify_truth", action="store_true")
    truth.add_argument("--no-verify-truth", dest="verify_truth", action="store_false")
    p.set_defaults(func=_cmd_certify, verify_truth=None)

    p = sub.add_parser("extremal", help="emit an extremal family graph as graph6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta-star", required=True, help="half-integer: k/2, x.0, or x.5")
    p.add_argument("--s", type=int, default=None)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("threshold", help="print a theorem's spectral threshold")
    p.add_argument("--theorem", required=True, choices=["t32", "t33", "t35", "t37", "t12", "t13"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta-star")
    p.add_argument("--beta", type=int)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("verify", help="exhaustive verification sweeps")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--theorem", choices=THEOREMS)
    mode.add_argument("--certificates", action="store_true")
    mode.add_argument("--audit", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--connected",
        action="store_true",
        help="restrict to connected graphs (implied by t32/t13; rejected for t33/t12)",
    )
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the CSV report here")
    p.add_argument("--long-run", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cross-check", help="matching implementations vs brute-force oracles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_cross_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (Graph6Error, ValueError) as exc:
        if isinstance(exc, GraphError) and not isinstance(exc, Graph6Error):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_COMPUTE
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except SoundnessError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
