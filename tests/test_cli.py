from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from specmatch import (
    HalfIntegral,
    from_graph6,
    matching_bound_connected,
    matching_bound_general,
    predicted_maximizer_connected,
    predicted_maximizer_general,
    to_edge_list_text,
    to_graph6,
    Graph,
)
from specmatch import verify
from specmatch.certify import certificate_table
from specmatch.extremal import rho_join_formula
from specmatch.cli import _fmt, main


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
        from specmatch import complete, empty, is_isomorphic, join, union

        assert is_isomorphic(g, join(complete(1), union(complete(5), empty(2))))

    def test_extremal_default_s(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--n", "10", "--beta-star", "3")
        assert code == 0
        expect = predicted_maximizer_connected(10, HalfIntegral(6)).extremal_graphs[0]
        assert out.strip() == to_graph6(expect)

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
        predict = verify._predict
        monkeypatch.setattr(verify, "_predict", lambda *a: dataclasses.replace(predict(*a), bound=predict(*a).bound - 0.5))
        code, out, _ = run_cli(capsys, "verify", "--theorem", "t33", "--n", "4")
        assert code == 3
        assert "DISCREPANCY" in out

    def test_verify_certificates(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--certificates", "--n", "4")
        assert code == 0 and "result: PASS" in out

    def test_verify_audit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--audit", "--n", "4")
        assert code == 0 and "result: PASS" in out

    def test_cross_check(self, capsys):
        code, out, _ = run_cli(capsys, "cross-check", "--n", "4")
        assert code == 0 and "64 graphs" in out and "result: PASS" in out

    def test_verify_audit_n0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--audit", "--n", "0")
        assert code == 0
        assert out == "graphs 1, connected 0, with fractional perfect matching 1\nresult: PASS\n"

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_sampled_cross_check_without_samples_exit2(self, capsys, samples):
        code, out, err = run_cli(capsys, "cross-check", "--n", "7", "--samples", samples)
        assert code == 2 and "samples >= 1" in err and "PASS" not in out

    def test_connected_flag_consistency(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorem", "t33", "--n", "4", "--connected")
        assert code == 1 and "--connected contradicts" in err
        code, out, _ = run_cli(capsys, "verify", "--theorem", "t32", "--n", "4", "--connected")
        assert code == 0 and "result: PASS" in out

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

    def test_bad_half_integer(self, capsys):
        assert run_cli(capsys, "extremal", "--n", "6", "--beta-star", "2.25")[0] == 1

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
    @pytest.mark.parametrize(
        "theorem, predict",
        [
            ("t32", lambda n, d: predicted_maximizer_connected(n, HalfIntegral(d))),
            ("t33", lambda n, d: predicted_maximizer_general(n, HalfIntegral(d))),
            ("t12", lambda n, d: matching_bound_general(n, d // 2)),
            ("t13", lambda n, d: matching_bound_connected(n, d // 2)),
        ],
        ids=["t32", "t33", "t12", "t13"],
    )
    def test_every_class(self, capsys, theorem, predict):
        # every class the sweeps check at n <= 10: 2*beta_star, or 2*beta
        fractional = theorem in ("t32", "t33")
        for n in range(1, 11):
            for d in range(0, n + 1, 1 if fractional else 2):
                value = ("--beta-star", f"{d}/2") if fractional else ("--beta", str(d // 2))
                code, out, _ = run_cli(capsys, "threshold", "--theorem", theorem, "--n", str(n), *value)
                assert (code, out) == (0, _fmt(predict(n, d).bound) + "\n"), (n, d)


class TestBetaIncrementThreshold:
    def test_applies_the_certificate_range(self, capsys):
        # t37 prints the beta-increment(beta) row of the certificate table for
        # 1 <= beta <= (n-2)/2 and rejects every other beta, as cert_beta_increment does
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


class TestConsoleEntry:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specmatch.cli", "threshold", "--theorem", "t35", "--n", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("5.0695")

    def test_stdin_edge_list(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specmatch.cli", "beta-star"],
            input=C5_EDGES,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "5/2"

    def test_stdin_graph6(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specmatch.cli", "rho"],
            input="Bw\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(2.0, abs=1e-9)
