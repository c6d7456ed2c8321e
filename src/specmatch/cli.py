"""Command-line front door: computations, certificates, constructions, sweeps.

Exit codes: 0 success, 1 usage or input error, 2 computation error,
3 verification failure (bound violated or unsound certificate).  A sweep
that refuses its arguments, such as an order past its enumeration cap or
a sample count out of range, exits 2 as a computation error.
"""

from __future__ import annotations

import argparse
import sys

from .certify import SoundnessError, certify_all, fpm_threshold
from .extremal import (
    THEOREMS,
    _check_class_args,
    _shape,
    _t13_regime,
    predict,
)
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
    SAMPLES,
    SEED,
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
    if args.witness:  # the witness carries beta* as its total
        fm = optimal_fractional_matching(g)
        print(str(fm.total))
        sys.stdout.write(fm.to_text())
    else:
        print(str(fractional_matching_number(g)))
    return EXIT_OK


def _cmd_transversal(args) -> int:
    g = _read_graph(args)
    t = fractional_transversal(g)
    print(str(t.total))
    sys.stdout.write(t.to_text())
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = _read_graph(args)
    fm = optimal_fractional_matching(g)
    if fm.total.doubled < g.n:
        print(f"error: no fractional perfect matching (beta* = {fm.total}, n/2 = {g.n}/2)", file=sys.stderr)
        return EXIT_COMPUTE
    sys.stdout.write(fpm_partition(g, fm).to_text())
    return EXIT_OK


def _cmd_certify(args) -> int:
    print(certify_all(_read_graph(args), verify_truth=args.verify_truth).to_json())
    return EXIT_OK


def _cmd_extremal(args) -> int:
    beta_star = HalfIntegral.parse(args.beta_star)
    if args.s is not None:
        # the class check predict runs, then the family's own rule on s
        _check_class_args(args.n, beta_star.doubled, True)
        s, middle = args.s, beta_star.doubled - 2 * args.s
        if s < 0:
            raise ValueError(f"s must be non-negative, got {s}")
        if middle < 0:
            raise ValueError(f"s = {s} exceeds beta_star = {beta_star}")
        if middle == 1:
            # every edge of K_s v (K_1 u tK_1) meets the hub, so the
            # fractional matching number collapses to s, not beta_star
            raise ValueError("middle clique of size 1 collapses the fractional matching number to s")
        g = _shape(args.n, s, middle)
    else:
        pred = predict("t32", args.n, beta_star.doubled)
        if not pred.bound_is_attained:
            raise ValueError(
                f"no graph in the class (connected, n = {args.n}, beta_star = {beta_star}) attains the bound"
            )
        g = pred.extremal_graphs[pred.in_class.index(True)]
    print(to_graph6(g))
    return EXIT_OK


def _cmd_threshold(args) -> int:
    n, theorem = args.n, THEOREMS.get(args.theorem)
    star = theorem is not None and theorem.fractional  # t32 and t33 key their classes by 2*beta_star
    if star and args.beta_star is None:
        raise _UsageError(f"--theorem {args.theorem} needs --beta-star")
    if not star and args.theorem != "t35" and args.beta is None:
        raise _UsageError(f"--theorem {args.theorem} needs --beta")
    # every theorem reads a class bound with no graph built, so n may exceed
    # the vertex cap
    if theorem is not None:
        d = HalfIntegral.parse(args.beta_star).doubled if theorem.fractional else 2 * args.beta
        _check_class_args(n, d, theorem.fractional)
        print(_fmt(theorem.rule(n, d)[1]))
    elif args.theorem == "t35":
        thr = fpm_threshold(n)
        if thr is None:
            raise _UsageError(f"no fractional perfect matching threshold for n={n} (need n >= 3)")
        print(_fmt(thr))
    elif args.theorem == "t37":
        # the beta-increment certificate's range; its threshold is the t13 class bound
        if args.beta < 1 or 2 * args.beta > n - 2:
            raise _UsageError(f"no matching-increment threshold for n={n}, beta={args.beta}")
        print(_fmt(_t13_regime(n, 2 * args.beta)[1]))
    else:  # pragma: no cover - argparse choices guard this
        raise _UsageError(f"unknown theorem {args.theorem}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not args.theorem and (args.out or args.long_run):
        raise _UsageError("--out and --long-run apply to --theorem only")
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
    mode.add_argument(
        "--audit",
        action="store_true",
        help="witness and duality audit of the double-cover matching: every graph at n <= 7, "
        f"the cross-check's default {SAMPLES} draws at 8 <= n <= 10",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the CSV report here")
    p.add_argument("--long-run", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cross-check", help="the blossom matching number vs the brute-force oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=SAMPLES)
    p.add_argument("--seed", type=int, default=SEED)
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
    except (Graph6Error, ValueError, OverflowError) as exc:
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
