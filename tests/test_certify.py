from __future__ import annotations

import json
import math

import pytest

from specmatch import (
    Graph,
    HalfIntegral,
    cert_beta_increment,
    cert_beta_star_increment,
    cert_fpm_spectral,
    cert_min_degree_fpm,
    cert_pm_spectral,
    certify_all,
    complete,
    empty,
    fractional_matching_number,
    join,
    matching_number,
    spectral_radius,
    union,
    verify_certificates,
)
from specmatch.certify import beta_star_increment_case, certificate_table, fpm_threshold, pm_threshold
from specmatch.extremal import rho_join_formula, theta_cubic, theta_n
from conftest import random_connected_graph


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(k):
    return join(complete(1), empty(k))


def hub_family_8():
    return join(complete(1), union(complete(5), empty(2)))


class TestMinDegreeFpm:
    def test_c4_fires(self):
        rec = cert_min_degree_fpm(cycle(4))
        assert rec.applicable and rec.fired
        assert fractional_matching_number(cycle(4)).doubled == 4

    def test_star_does_not_fire(self):
        rec = cert_min_degree_fpm(star(3))
        # rho = sqrt(3) > sqrt(5/3) * 1
        assert rec.applicable and not rec.fired

    def test_k2_fires(self):
        rec = cert_min_degree_fpm(complete(2))
        assert rec.fired
        assert fractional_matching_number(complete(2)).doubled == 2

    def test_p3_at_threshold(self):
        # rho(P_3) = sqrt(2) = 1 * sqrt((3+1)/(3-1)) exactly
        rec = cert_min_degree_fpm(Graph(3, [(0, 1), (1, 2)]))
        assert rec.applicable and not rec.fired and rec.at_threshold

    def test_disconnected_not_applicable(self):
        rec = cert_min_degree_fpm(union(complete(2), complete(2)))
        assert not rec.applicable and not rec.fired


class TestFpmSpectral:
    def test_k8_fires(self):
        rec = cert_fpm_spectral(complete(8))
        assert rec.fired
        assert rec.threshold == pytest.approx(5.07, abs=0.01)

    def test_extremal_at_threshold(self):
        rec = cert_fpm_spectral(hub_family_8())
        assert rec.applicable and not rec.fired and rec.at_threshold
        assert fractional_matching_number(hub_family_8()).doubled == 7 < 8

    def test_k5_small_n_threshold(self):
        rec = cert_fpm_spectral(complete(5))
        assert rec.threshold == pytest.approx(3.0, abs=1e-12)
        assert rec.fired
        assert fractional_matching_number(complete(5)).doubled == 5

    def test_n9_uses_join_threshold(self):
        assert fpm_threshold(9) == pytest.approx((3 + math.sqrt(9 + 16 * 5)) / 2, abs=1e-12)

    def test_too_small_not_applicable(self):
        assert not cert_fpm_spectral(complete(2)).applicable


class TestPmSpectral:
    def test_k4(self):
        rec = cert_pm_spectral(complete(4))
        assert rec.threshold == pytest.approx(math.sqrt(3), abs=1e-12)
        assert rec.fired
        assert matching_number(complete(4)).size == 2

    def test_k6(self):
        rec = cert_pm_spectral(complete(6))
        assert rec.threshold == pytest.approx((1 + math.sqrt(33)) / 2, abs=1e-12)
        assert rec.fired

    def test_star_at_threshold_no_pm(self):
        rec = cert_pm_spectral(star(3))
        assert rec.applicable and not rec.fired and rec.at_threshold
        assert matching_number(star(3)).size == 1

    def test_odd_n_not_applicable(self):
        assert not cert_pm_spectral(complete(5)).applicable
        assert pm_threshold(5) is None

    def test_even_n8_uses_theta(self):
        rec = cert_pm_spectral(complete(8))
        assert rec.threshold == pytest.approx(5.07, abs=0.01)


class TestBetaStarIncrement:
    def test_k7_target_five_halves(self):
        rec = cert_beta_star_increment(complete(7), HalfIntegral(5))
        assert rec.threshold == pytest.approx((1 + math.sqrt(41)) / 2, abs=1e-12)
        assert rec.fired
        assert fractional_matching_number(complete(7)).doubled == 7 >= 6

    def test_extremal_tightness(self):
        rec = cert_beta_star_increment(hub_family_8(), HalfIntegral(7))
        assert rec.applicable and not rec.fired and rec.at_threshold

    def test_below_threshold_no_claim(self):
        rec = cert_beta_star_increment(star(4), HalfIntegral(3))
        assert rec.applicable and not rec.fired

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            cert_beta_star_increment(complete(5), HalfIntegral(5))

    def test_case_selection_matches_structure(self):
        # even targets above (n+3)/3 need n >= 11 and use the cubic
        tag, _ = beta_star_increment_case(11, 10)
        assert tag == "cubic-even"
        tag, _ = beta_star_increment_case(8, 7)
        assert tag == "cubic-odd"
        tag, _ = beta_star_increment_case(7, 5)
        assert tag == "join"

    def test_cases_cover_all_valid_targets(self):
        for n in range(3, 40):
            for k in range(1, n):
                assert beta_star_increment_case(n, k) is not None, (n, k)


class TestBetaIncrement:
    def test_k10_beta3(self):
        rec = cert_beta_increment(complete(10), 3)
        assert rec.threshold == pytest.approx((2 + math.sqrt(88)) / 2, abs=1e-12)
        assert rec.fired
        assert matching_number(complete(10)).size == 5 >= 4

    def test_join_equality_not_strict(self):
        g = join(complete(3), empty(7))
        rec = cert_beta_increment(g, 3)
        assert rec.applicable and not rec.fired and rec.at_threshold
        assert matching_number(g).size == 3

    def test_kn_even_rederives_pm_threshold(self):
        for n in (8, 10, 12):
            rec = cert_beta_increment(complete(n), (n - 2) // 2)
            assert rec.fired
            assert rec.threshold == pytest.approx(pm_threshold(n), abs=1e-9)
            assert matching_number(complete(n)).size == n // 2

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            cert_beta_increment(complete(5), 2)


class TestCertifyAll:
    def test_k8_report(self):
        report = certify_all(complete(8))
        by_name = {rec.name: rec for rec in report.certificates}
        assert by_name["min-degree-fpm"].fired  # 7 < 7*sqrt(9/7)
        assert by_name["fpm-spectral"].fired
        assert by_name["pm-spectral"].fired
        assert all(rec.truth for rec in report.certificates if rec.fired)

    def test_c5_report(self):
        report = certify_all(cycle(5))
        assert report.beta == 2
        assert report.beta_star_doubled == 5

    def test_degenerate_single_vertex(self):
        report = certify_all(empty(1))
        assert all(not rec.applicable for rec in report.certificates)

    def test_disconnected_solves_no_threshold(self, monkeypatch):
        # connectivity is tested first, so no threshold root is computed
        def no_root(coeffs):
            raise AssertionError(f"threshold root solved for {coeffs}")

        monkeypatch.setattr("specmatch.extremal.largest_real_root", no_root)
        report = certify_all(empty(600))
        assert report.certificates and not any(rec.applicable for rec in report.certificates)

    def test_connectivity_tested_once(self, monkeypatch):
        import specmatch.certify

        calls = []
        real = specmatch.certify.is_connected

        def counted(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(specmatch.certify, "is_connected", counted)
        report = certify_all(complete(40))
        assert calls == [40]
        assert len(report.certificates) == 3 + 39 + 19

    def test_soundness_on_random_connected(self, rng):
        for _ in range(150):
            g = random_connected_graph(rng, rng.randrange(2, 11), rng.random())
            report = certify_all(g, verify_truth=True)  # raises SoundnessError on violation
            for rec in report.certificates:
                if rec.fired:
                    assert rec.applicable and rec.truth

    def test_json_schema(self):
        report = certify_all(cycle(4))
        payload = json.loads(report.to_json())
        assert list(payload.keys()) == [
            "graph",
            "n",
            "connected",
            "delta",
            "rho",
            "rho_tol",
            "beta",
            "beta_star_doubled",
            "certificates",
        ]
        assert payload["graph"] == "Cl"
        for rec in payload["certificates"]:
            assert list(rec.keys()) == ["name", "applicable", "fired", "guarantee", "truth"]

    def test_monotone_consistency_within_case(self, rng):
        # if the join-case certificate fires for a target, it fires for all
        # smaller join-case targets of the same parity
        from specmatch.certify import GUARD

        for _ in range(100):
            n = rng.randrange(6, 11)
            g = random_connected_graph(rng, n, rng.random())
            rho = spectral_radius(g).value
            for parity in (0, 1):
                fired_ks = []
                for k in range(1, n):
                    if k % 2 != parity:
                        continue
                    case = beta_star_increment_case(n, k)
                    if case is None or case[0] != "join":
                        continue
                    fired_ks.append((k, rho > case[1] + GUARD))
                for (k1, f1), (k2, f2) in zip(fired_ks, fired_ks[1:]):
                    if f2:
                        assert f1, (n, k1, k2)


class TestExtremalTightnessSweep:
    def test_predicted_graphs_sit_at_threshold(self):
        # connected predicted extremal graphs never fire the increment
        # certificate at their own class value, and the claim is false there
        from specmatch import predicted_maximizer_connected

        for n in range(4, 13):
            for d in range(2, n):
                pred = predicted_maximizer_connected(n, HalfIntegral(d))
                case = beta_star_increment_case(n, d)
                if case is None:
                    continue
                for g in pred.extremal_graphs:
                    rec = cert_beta_star_increment(g, HalfIntegral(d))
                    if not rec.applicable:
                        continue
                    if abs(pred.bound - rec.threshold) > 1e-9:
                        continue  # certificate case differs from the class bound
                    assert not rec.fired, (n, d)
                    assert fractional_matching_number(g).doubled < d + 1, (n, d)


# the thresholds in the paper's own wording, each regime with its stated
# conditions; the certificate table reads them from the t32/t13 class bounds
def _stated_fpm(n):
    if n >= 8 and n != 9:
        return theta_n(n)
    return rho_join_formula(n, (n - 1) // 2)  # the split join


def _stated_pm(n):
    if n == 4:
        return rho_join_formula(4, 1)
    if n == 6:
        return rho_join_formula(6, 2)
    return theta_n(n)


def _stated_beta_star_increment(n, k):
    if k % 2 == 0 and 3 * k > 2 * n + 6 and n >= 11:
        return theta_cubic(n, HalfIntegral(k))  # cubic-even
    if k % 2 == 1 and 3 * k > 2 * n + 3 and n >= 8 and n != 9:
        return theta_cubic(n, HalfIntegral(k))  # cubic-odd
    assert 3 * ((k + 1) // 2) <= n + 3, (n, k)  # the join case covers every other target
    return rho_join_formula(n, k // 2)


def _stated_beta_increment(n, b):
    if 3 * b >= n + 1 and 2 * b <= n - 2 and n >= 8:
        return theta_cubic(n, HalfIntegral(2 * b + 1))  # cubic
    assert 3 * b <= n, (n, b)  # the join case covers every other beta
    return rho_join_formula(n, b)


class TestStatedThresholds:
    def test_table_rows_equal_the_stated_thresholds(self):
        for n in [*range(300), *range(300, 2049, 53)]:
            rows = {c.name: c.threshold for c in certificate_table(n, connected=True)}
            assert rows["fpm-spectral"] == (_stated_fpm(n) if n >= 3 else None), n
            assert rows["pm-spectral"] == (_stated_pm(n) if n % 2 == 0 and n >= 4 else None), n
            for k in range(1, n):
                stated = _stated_beta_star_increment(n, k) if n >= 3 else None
                assert rows[f"beta-star-increment({HalfIntegral(k)})"] == stated, (n, k)
            for b in range(1, (n - 2) // 2 + 1):
                assert rows[f"beta-increment({b})"] == _stated_beta_increment(n, b), (n, b)

    def test_fpm_and_pm_rows_fire_like_their_increment_rows(self):
        # fpm is the beta* increment to n/2 and pm the beta increment to n/2:
        # each pair reads one class bound, so the sweep counts them alike
        for n in range(3, 8):
            counts = {name: (app, fired) for name, app, fired in verify_certificates(n, jobs=2).counts}
            assert counts["fpm-spectral"] == counts[f"beta-star-increment({HalfIntegral(n - 1)})"], n
            if n % 2 == 0:
                assert counts["pm-spectral"] == counts[f"beta-increment({(n - 2) // 2})"], n
