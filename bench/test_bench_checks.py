"""The benchmark's checks accept right answers and reject deliberately wrong ones.

Run with the repository's test command (PYTHONPATH=src python -m pytest).
"""

from __future__ import annotations

import dataclasses
import math
import time
import types

import pytest

import specmatch as sm

import checks
import references as ref
import workloads


def test_reference_file_is_current():
    assert ref.load() == ref.build()


def test_references_match_known_values():
    assert ref.connected_counts(7)[6] == 26704 and ref.connected_counts(7)[7] == 1866256
    assert ref.theta(8) == pytest.approx(5.0695179919, abs=1e-9)
    assert ref.hub_threshold(8, 7) == pytest.approx(ref.theta(8), abs=1e-12)
    path = sm.from_edge_list(5, [(i, i + 1) for i in range(4)])
    assert ref.beta_star_doubled(path.rows, 5) == 4
    assert ref.beta_star_doubled(sm.complete(3).rows, 3) == 3


def test_rho_check_rejects_a_perturbed_rho():
    g = sm.from_edge_list(6, [(i, i + 1) for i in range(5)])
    rho = sm.spectral_radius(g).value
    expected = {"eigvalsh": ref.rho_eigvalsh(g.rows, 6), "2cos(pi/(n+1))": 2 * math.cos(math.pi / 7)}
    assert checks.check_rho(rho, expected) == []
    assert checks.check_rho(rho + 1e-6, expected)


def test_matching_check_rejects_beta_off_by_one():
    g = sm.union(sm.complete(5), sm.empty(2))
    m = sm.matching_number(g)
    assert checks.check_matching(g.rows, g.n, m.size, m.edges, ref.beta_networkx(g.rows, g.n)) == []
    assert checks.check_matching(g.rows, g.n, m.size + 1, m.edges, 2)
    assert checks.check_matching(g.rows, g.n, m.size, m.edges, m.size + 1)
    assert checks.check_matching(g.rows, g.n, m.size, ((0, 1), (1, 2)), m.size)  # shares a vertex


def test_fractional_check_rejects_a_non_optimal_matching():
    g = sm.union(sm.complete(3), sm.from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))  # K_3 u P_4
    fm = sm.optimal_fractional_matching(g).doubled_weights
    tv = sm.fractional_transversal(g).doubled_weights
    bsd = sm.fractional_matching_number(g).doubled
    assert checks.check_fractional(g.rows, g.n, bsd, fm, tv) == []
    assert checks.check_fractional(g.rows, g.n, bsd, fm[1:], tv)  # feasible, not optimal
    heavy = (((0, 1), 2), ((0, 2), 2))  # vertex 0 overloaded
    assert checks.check_fractional(g.rows, g.n, bsd, heavy, tv)
    uncovered = (0,) * g.n
    assert checks.check_fractional(g.rows, g.n, 0, (), uncovered)
    assert checks.check_fractional(g.rows, g.n, bsd + 1, fm, tv)


def _certified(g):
    report = sm.certify_all(g, verify_truth=False)
    rho = ref.rho_eigvalsh(g.rows, g.n)
    return report, rho, ref.beta_networkx(g.rows, g.n), ref.beta_star_doubled(g.rows, g.n)


def test_certificate_check_rejects_a_fired_but_false_certificate():
    star = sm.join(sm.complete(1), sm.empty(7))  # K_1 v 7K_1: no fractional perfect matching
    report, rho, beta, bsd = _certified(star)
    assert checks.check_certificates(report, star.rows, star.n, rho, beta, bsd) == []
    target = next(r for r in report.certificates if r.kind == "fpm" and r.applicable and not r.fired)
    target.fired = True
    errors = checks.check_certificates(report, star.rows, star.n, rho, beta, bsd)
    assert any("guarantee" in e for e in errors)


def test_certificate_check_rejects_a_wrong_threshold():
    g = sm.join(sm.complete(1), sm.union(sm.complete(5), sm.empty(2)))
    report, rho, beta, bsd = _certified(g)
    assert checks.check_certificates(report, g.rows, g.n, rho, beta, bsd) == []
    rec = next(r for r in report.certificates if r.name == "fpm-spectral")
    rec.threshold += 1e-6
    assert checks.check_certificates(report, g.rows, g.n, rho, beta, bsd)


def test_theorem_check_rejects_a_wrong_class_record():
    refs = ref.load()
    rep = sm.verify_theorem("t32", 5)
    assert checks.check_theorem_report(rep, "t32", 5, refs) == []
    bad = dataclasses.replace(rep.classes[-1], max_rho=rep.classes[-1].max_rho + 1e-6)
    assert checks.check_theorem_report(dataclasses.replace(rep, classes=rep.classes[:-1] + (bad,)), "t32", 5, refs)
    assert checks.check_theorem_report(dataclasses.replace(rep, connected_count=rep.connected_count - 1), "t32", 5, refs)


def test_audit_check_rejects_a_wrong_count():
    refs = ref.load()
    op = workloads.call(sm, "audit", "audit_structures", 5)
    assert checks.check_sweep_op(op, refs) == []
    op.result = dataclasses.replace(op.result, fpm_graphs=op.result.fpm_graphs + 1)
    assert checks.check_sweep_op(op, refs)


def test_query_checks_accept_every_request_on_small_graphs():
    failures = []
    for shape in workloads.QUERY_SHAPES:
        q = workloads.make_query_graph(shape, 12, seed=3)
        qref = checks.QueryReference(q)
        decode = workloads.call(sm, "decode", "from_graph6", q.text, subject=q)
        ops = [decode] + [
            workloads.call(sm, f, f, decode.result, subject=q) for f in workloads.QUERY_OPS + ("certify_all",)
        ]
        failures += [(op.label, e) for op in ops for e in checks.check_query_op(op, qref, sm)]
    assert failures == []


def test_decode_check_rejects_a_different_edge_set():
    q = workloads.make_query_graph("path", 10, seed=0)
    op = workloads.call(sm, "decode", "from_graph6", workloads.make_query_graph("complete", 10, 0).text, subject=q)
    assert checks.check_query_op(op, checks.QueryReference(q), sm)


def test_a_failed_sweep_operation_fails_the_run():
    refs = ref.load()
    ok = workloads.call(sm, "verify_theorem(t32, 4)", "verify_theorem", "t32", 4)
    raised = workloads.call(sm, "verify_theorem(t99, 4)", "verify_theorem", "t99", 4)
    assert not ok.failed and raised.failed
    assert checks.check_ops([ok], lambda op: checks.check_sweep_op(op, refs)) == []
    errors = checks.check_ops([ok, raised], lambda op: checks.check_sweep_op(op, refs))
    assert len(errors) == 1 and errors[0].startswith("verify_theorem(t99, 4): raised")


def test_only_the_known_failures_pass_as_failed():
    stalled = sm.ConvergenceError("power iteration stalled", 1.9, 1e-3, 110_000)
    known = workloads.Op("spectral_radius path500", "spectral_radius", (), {}, None, 7.0, stalled, True)
    assert checks.check_ops([known], lambda op: []) == []
    other = dataclasses.replace(known, label="spectral_radius path100")
    assert checks.check_ops([other], lambda op: [])
    wrong_error = dataclasses.replace(known, result=ValueError("bad input"))
    assert checks.check_ops([wrong_error], lambda op: [])


def test_a_repeat_served_from_a_cache_fails_the_run():
    def op(label, seconds):
        return workloads.Op(label, "verify_theorem", (), {}, None, seconds, None, False)

    first = [op("slow", 1.0), op("quick", 0.01)]
    assert checks.check_repeats([first, [op("slow", 0.6), op("quick", 0.0001)]]) == []
    errors = checks.check_repeats([first, [op("slow", 0.6), op("quick", 0.01)], [op("slow", 0.001), op("quick", 0.01)]])
    assert len(errors) == 1 and errors[0].startswith("slow: repeated")


def test_speed_probes_are_taken_out_of_the_calls_they_interrupt():
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with workloads.SAMPLER as sampler:
        spent = sampler.spent
        op = workloads.call(types.SimpleNamespace(spin=spin), "spin", "spin", 0.5)
        spent = sampler.spent - spent
    assert len(sampler.samples) >= 3 and spent >= sum(sampler.samples[1:])
    assert op.seconds == pytest.approx(0.5 - spent, abs=0.01)

    # the machine runs at half the reference speed for 30 s, then at a quarter
    ref_s = workloads.REFERENCE_PROBE_S
    sampler.times = [float(t) for t in range(60)]
    sampler.samples = [2 * ref_s] * 30 + [4 * ref_s] * 30
    assert sampler.scale(0.0, 25.0) == pytest.approx(1 / 2)  # 26 samples during the call
    assert sampler.scale(58.5, 59.5) == pytest.approx(1 / 4)  # the 21 nearest samples
    assert sampler.scale(20.5, 30.5) == pytest.approx(1 / 2)  # the 21 around it, 15 of them at half speed
