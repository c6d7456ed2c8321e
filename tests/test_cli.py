from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from specmatch import (
    fractional_matching_number,
    from_graph6,
    is_connected,
    predict,
    to_graph6,
    Graph,
)
from specmatch import certify, verify
from specmatch.certify import certificate_table
from specmatch.extremal import rho_join_formula
from specmatch.cli import _build_parser, _fmt, main
from conftest import isomorphic, src_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


C5_EDGES = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"


class TestBasicCommands:
    def test_threshold_t35_n8(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--theorem", "t35", "--n", "8")
        assert code == 0
        assert out.startswith("5.0695")

    def test_threshold_t12(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--theorem", "t12", "--n", "8", "--beta", "2")
        assert code == 0 and out.strip() == "4"

    def test_extremal_emits_expected_graph(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--n", "8", "--beta-star", "7/2", "--s", "1")
        assert code == 0
        g = from_graph6(out.strip())
        from specmatch import complete, empty, join, union

        assert isomorphic(g, join(complete(1), union(complete(5), empty(2))))

    def test_extremal_default_s(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--n", "10", "--beta-star", "3")
        assert code == 0
        expect = predict("t32", 10, 6).extremal_graphs[0]
        assert out.strip() == to_graph6(expect)

    @pytest.mark.parametrize("n, beta_star", [("6", "5/2"), ("3", "1/2"), ("8", "0"), ("1", "1/2")])
    def test_extremal_default_refuses_a_strict_class(self, capsys, n, beta_star):
        # no connected graph with this beta_star attains the bound: K_2 v 4K_1 has beta_star 2,
        # the edgeless graph is disconnected, K_1 has beta_star 0
        code, out, err = run_cli(capsys, "extremal", "--n", n, "--beta-star", beta_star)
        assert (code, out) == (1, "")
        assert err == f"input error: no graph in the class (connected, n = {n}, beta_star = {beta_star}) attains the bound\n"

    def test_extremal_default_stays_in_its_class(self, capsys):
        # every request with n < 40 prints a connected graph of the class, or is refused where the bound is strict
        refused = 0
        for n in range(1, 40):
            for d in range(n + 1):
                code, out, _ = run_cli(capsys, "extremal", "--n", str(n), "--beta-star", f"{d}/2")
                pred = predict("t32", n, d)
                if code:
                    assert code == 1 and not pred.bound_is_attained
                    refused += 1
                    continue
                g = from_graph6(out.strip())
                assert is_connected(g) and fractional_matching_number(g).doubled == d, (n, d)
        assert refused == 323

    def test_rho_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--graph6", "Bw")
        assert code == 0
        assert float(out) == pytest.approx(2.0, abs=1e-9)

    def test_beta_star_edge_list(self, capsys, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text(C5_EDGES)
        code, out, _ = run_cli(capsys, "beta-star", "--edges", str(path))
        assert code == 0 and out.strip() == "5/2"

    def test_beta_star_witness(self, capsys):
        code, out, _ = run_cli(capsys, "beta-star", "--graph6", "Bw", "--witness")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "3/2"
        assert all(line.startswith("edge ") for line in lines[1:])

    def test_beta_witness(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--graph6", "Bw", "--witness")
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_transversal(self, capsys):
        code, out, _ = run_cli(capsys, "transversal", "--graph6", "Bw")
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "3/2"
        assert lines[1:] == ["vertex 0 1/2", "vertex 1 1/2", "vertex 2 1/2"]

    def test_decompose_c5(self, capsys):
        g6 = to_graph6(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
        code, out, _ = run_cli(capsys, "decompose", "--graph6", g6)
        assert code == 0
        assert out.startswith("part CYCLE")

    def test_decompose_without_fpm_fails(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--graph6", to_graph6(Graph(4, [(0, 1), (0, 2), (0, 3)])))
        assert code == 2
        assert "no fractional perfect matching" in err

    def test_certify_json(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--graph6", "Bw")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3 and payload["beta_star_doubled"] == 3


class TestVerifyCommands:
    def test_verify_theorem(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "t33", "--n", "5", "--out", str(out_path)
        )
        assert code == 0
        assert "result: PASS" in out
        csv = out_path.read_text()
        assert csv.splitlines()[0] == (
            "n,two_beta_star,regime,bound,max_rho,n_maximizers,argmax_g6,prediction_g6,bound_holds,argmax_matches"
        )

    def test_verify_injected_bound_failure_exit3(self, capsys, monkeypatch):
        # every class bound lowered by 0.5
        predict = verify.predict
        monkeypatch.setattr(verify, "predict", lambda *a: dataclasses.replace(predict(*a), bound=predict(*a).bound - 0.5))
        code, out, _ = run_cli(capsys, "verify", "--theorem", "t33", "--n", "4")
        assert code == 3
        assert "DISCREPANCY" in out

    def test_verify_certificates(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--certificates", "--n", "4")
        assert code == 0 and "result: PASS" in out

    def test_verify_certificates_unsound_without_guard_exit3(self, capsys, monkeypatch):
        # the float ties at n = 3 are reported as unsound, not raised
        monkeypatch.setattr(certify, "GUARD", 0.0)
        code, out, _ = run_cli(capsys, "verify", "--certificates", "--n", "3")
        assert code == 3
        assert "UNSOUND fpm-spectral on Bg" in out and "result: FAIL" in out

    def test_verify_audit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--audit", "--n", "4")
        assert code == 0 and "result: PASS" in out

    def test_cross_check(self, capsys):
        code, out, _ = run_cli(capsys, "cross-check", "--n", "4")
        assert code == 0 and "64 graphs" in out and "result: PASS" in out

    def test_verify_audit_sampled(self, capsys):
        # above n = 7 the audit runs on the cross-check's default 1,000 draws, up to the oracle cap
        code, out, _ = run_cli(capsys, "verify", "--audit", "--n", "8")
        assert (code, out) == (0, "graphs 1000, connected 689, with fractional perfect matching 662\nresult: PASS\n")
        code, out, err = run_cli(capsys, "verify", "--audit", "--n", "11")
        assert (code, out, err) == (2, "", "error: structure audit capped at n <= 10\n")

    def test_verify_audit_n0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--audit", "--n", "0")
        assert code == 0
        assert out == "graphs 1, connected 0, with fractional perfect matching 1\nresult: PASS\n"

    def test_draw_defaults_are_the_sweep_constants(self):
        # the cross-check's default draws, which the sampled audit also runs
        args = _build_parser().parse_args(["cross-check", "--n", "7"])
        assert (args.samples, args.seed) == (verify.SAMPLES, verify.SEED)

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_sampled_cross_check_without_samples_exit2(self, capsys, samples):
        code, out, err = run_cli(capsys, "cross-check", "--n", "7", "--samples", samples)
        assert code == 2 and "samples >= 1" in err and "PASS" not in out

    def test_sample_count_past_memory_exit2(self, capsys):
        # refused before any mask is allocated, not numpy's allocation error
        code, out, err = run_cli(capsys, "cross-check", "--n", "8", "--samples", str(10**13))
        assert (code, out) == (2, "") and err == f"error: random samples must number 0 to {1 << 24} (8 bytes of mask each), got {10**13}\n"

    def test_connected_flag_consistency(self, capsys):
        # connectivity belongs to the theorem (t32/t13), so verify has no --connected
        for theorem in ("t33", "t32"):
            code, out, err = run_cli(capsys, "verify", "--theorem", theorem, "--n", "4", "--connected")
            assert (code, out) == (1, "") and err == "usage error: unrecognized arguments: --connected\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--certificates", "--audit", "--n", "3"],
            ["verify", "--audit", "--theorem", "t32", "--n", "3"],
            ["verify", "--theorem", "t33", "--certificates", "--n", "3"],
            ["verify", "--audit", "--n", "3", "--out", "{out}"],
            ["verify", "--certificates", "--n", "3", "--out", "{out}"],
            ["verify", "--audit", "--n", "3", "--long-run"],
            ["verify", "--certificates", "--n", "3", "--connected"],
            ["certify", "--graph6", "Bw", "--verify-truth", "--no-verify-truth"],
        ],
    )
    def test_conflicting_options_rejected(self, capsys, tmp_path, argv):
        # an option the chosen mode would ignore is a usage error, and nothing runs
        out_path = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, *(a.format(out=out_path) for a in argv))
        assert (code, out) == (1, "") and err.startswith("usage error: ")
        assert not out_path.exists()

    def test_certify_truth_flags(self, capsys):
        # n = 20 is above certify_all's default cut-off for the ground truth
        g6 = to_graph6(Graph(20, [(i, i + 1) for i in range(19)]))
        for flags, beta in [((), None), (("--verify-truth",), 10), (("--no-verify-truth",), None)]:
            code, out, _ = run_cli(capsys, "certify", "--graph6", g6, *flags)
            assert code == 0 and json.loads(out)["beta"] == beta, flags


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_usage_error_missing_args(self, capsys):
        assert run_cli(capsys, "threshold", "--theorem", "t32", "--n", "6")[0] == 1

    def test_malformed_graph6(self, capsys):
        code, _, err = run_cli(capsys, "rho", "--graph6", "B" + chr(20))
        assert code == 1
        assert "byte offset 1" in err

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        code, out, err = run_cli(capsys, "rho", "--graph6", "Bw", f"--tol={tol}")
        assert (code, out) == (1, "") and err.startswith("input error: tolerance must be positive"), err

    def test_bad_half_integer(self, capsys):
        assert run_cli(capsys, "extremal", "--n", "6", "--beta-star", "2.25")[0] == 1

    def test_extremal_s_invalid_specs_rejected(self, capsys):
        cases = [
            (("5", "3", "1"), "2*beta_star = 6 exceeds n = 5"),
            (("8", "3", "4"), "s = 4 exceeds beta_star = 3"),
            (("8", "7/2", "3"), "middle clique of size 1 collapses the fractional matching number to s"),
            (("8", "3", "-1"), "s must be non-negative, got -1"),
        ]
        for (n, beta_star, s), message in cases:
            code, out, err = run_cli(capsys, "extremal", "--n", n, "--beta-star", beta_star, "--s", s)
            assert (code, out, err) == (1, "", f"input error: {message}\n"), (n, beta_star, s)

    @pytest.mark.parametrize("n, beta_star", [("0", "0"), ("-1", "0"), ("4", "-1/2")])
    def test_extremal_s_checks_the_class_as_the_default_does(self, capsys, n, beta_star):
        expect = run_cli(capsys, "extremal", "--n", n, "--beta-star=" + beta_star)
        assert expect[0] == 1 and expect[1] == ""
        assert run_cli(capsys, "extremal", "--n", n, "--beta-star=" + beta_star, "--s", "0") == expect

    def test_computation_error_exit2(self, capsys):
        # enumeration cap produces a computation error
        code, _, err = run_cli(capsys, "verify", "--theorem", "t33", "--n", "8")
        assert code == 2

    def test_bad_edge_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not an edge list\n")
        assert run_cli(capsys, "beta", "--edges", str(path))[0] == 1


class TestRoundTripGrid:
    def test_extremal_rho_matches_threshold(self, capsys):
        # 50 (n, beta*) pairs spanning both connected regimes
        pairs = []
        for n in range(8, 33):
            pairs.append((n, n - 1))  # hub regime for most n
            pairs.append((n, 2 * (n // 3)))  # join regime
        pairs = pairs[:50]
        for n, d in pairs:
            code, out, _ = run_cli(capsys, "extremal", "--n", str(n), "--beta-star", f"{d}/2")
            assert code == 0
            g6 = out.strip()
            code, out, _ = run_cli(capsys, "rho", "--graph6", g6)
            assert code == 0
            rho = float(out)
            code, out, _ = run_cli(capsys, "threshold", "--theorem", "t32", "--n", str(n), "--beta-star", f"{d}/2")
            assert code == 0
            assert rho == pytest.approx(float(out), abs=1e-8)


class TestThresholdMatchesPredictors:
    @pytest.mark.parametrize("theorem", ["t32", "t33", "t12", "t13"])
    def test_every_class(self, capsys, theorem):
        # every class the sweeps check at n <= 10: 2*beta_star, or 2*beta
        fractional = theorem in ("t32", "t33")
        for n in range(1, 11):
            for d in range(0, n + 1, 1 if fractional else 2):
                value = ("--beta-star", f"{d}/2") if fractional else ("--beta", str(d // 2))
                code, out, _ = run_cli(capsys, "threshold", "--theorem", theorem, "--n", str(n), *value)
                assert (code, out) == (0, _fmt(predict(theorem, n, d).bound) + "\n"), (n, d)


class TestThresholdAboveTheVertexCap:
    def test_t32_and_t13_read_the_class_bound(self, capsys):
        # the class bounds of t32, t33, t12 and t13 are graph-free rules, so n
        # may exceed the vertex cap
        classes = [("t32", ("--beta-star", "3")), ("t33", ("--beta-star", "3"))]
        classes += [("t12", ("--beta", "3")), ("t13", ("--beta", "3"))]
        for n in (2049, 100000):
            for theorem, value in classes:
                code, out, _ = run_cli(capsys, "threshold", "--theorem", theorem, "--n", str(n), *value)
                assert (code, out) == (0, _fmt(rho_join_formula(n, 3)) + "\n"), (theorem, n)
        # the argument checks come first, and an order past the float range is
        # an input error, not a traceback
        assert run_cli(capsys, "threshold", "--theorem", "t13", "--n", "2049", "--beta", "1025")[0] == 1
        assert run_cli(capsys, "threshold", "--theorem", "t32", "--n", "2049", "--beta-star", "2050/2")[0] == 1
        for theorem, value in (("t32", ("--beta-star", "3")), ("t13", ("--beta", "3")), ("t35", ())):
            code, _, err = run_cli(capsys, "threshold", "--theorem", theorem, "--n", str(10**400), *value)
            assert code == 1 and err.startswith("input error"), theorem

    @pytest.mark.parametrize(
        "theorem, n, value",
        [
            ("t32", 10**400, ("--beta-star", f"{10**400}/2")),
            ("t33", 10**400, ("--beta-star", f"{10**400}/2")),
            ("t33", 10**400, ("--beta-star", f"{10**400 - 1}/2")),
            ("t33", 3 * 10**400 - 1, ("--beta-star", str(10**400))),
            ("t12", 10**400, ("--beta", str(10**400 // 2))),
            ("t12", 10**400, ("--beta", str(10**400 // 2 - 1))),
            ("t12", 3 * 10**400 + 2, ("--beta", str(10**400))),
            ("t13", 10**400, ("--beta", str(10**400 // 2))),
        ],
        ids=["t32-i", "t33-1", "t33-2", "t33-3", "t12-1", "t12-2", "t12-3", "t13-1"],
    )
    def test_linear_bounds_past_the_float_range(self, capsys, theorem, n, value):
        # each theorem's linear regimes name the float range, as its other bounds do
        code, out, err = run_cli(capsys, "threshold", "--theorem", theorem, "--n", str(n), *value)
        assert (code, out, err) == (1, "", "input error: the linear bound lies beyond the float range\n")


class TestBetaIncrementThreshold:
    def test_applies_the_certificate_range(self, capsys):
        # t37 prints the beta-increment(beta) row of the certificate table for
        # 1 <= beta <= (n-2)/2 and rejects every other beta, for which the table has no row
        for n in range(0, 25):
            rows = {c.name: c.threshold for c in certificate_table(n, connected=True)}
            for beta in range(-1, n + 2):
                code, out, err = run_cli(capsys, "threshold", "--theorem", "t37", "--n", str(n), "--beta", str(beta))
                if 1 <= beta <= (n - 2) / 2:
                    assert (code, out) == (0, _fmt(rows[f"beta-increment({beta})"]) + "\n"), (n, beta)
                else:
                    assert (code, out) == (1, ""), (n, beta)
                    assert f"no matching-increment threshold for n={n}, beta={beta}" in err
        # far above the vertex cap too: the threshold is a formula, no graph is built
        code, out, _ = run_cli(capsys, "threshold", "--theorem", "t37", "--n", "100000", "--beta", "3")
        assert (code, out) == (0, _fmt(rho_join_formula(100000, 3)) + "\n")

    def test_an_order_past_the_float_range(self, capsys):
        # the range check compares integers, so the order reaches
        # rho_join_formula, whose typed error names the float range
        with pytest.raises(ValueError) as excinfo:
            rho_join_formula(10**400, 3)
        code, out, err = run_cli(capsys, "threshold", "--theorem", "t37", "--n", str(10**400), "--beta", "3")
        assert (code, out, err) == (1, "", f"input error: {excinfo.value}\n")
        assert "float range" in err


class TestConsoleEntry:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specmatch.cli", "threshold", "--theorem", "t35", "--n", "8"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("5.0695")

    def test_stdin_edge_list(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specmatch.cli", "beta-star"],
            input=C5_EDGES,
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "5/2"

    def test_stdin_graph6(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specmatch.cli", "rho"],
            input="Bw\n",
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(2.0, abs=1e-9)
