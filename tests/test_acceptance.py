"""Acceptance gate: the published-figure reproductions, one criterion each.

Every test prints a single [PASS]/[FAIL] line (straight to the terminal,
bypassing capture) so a full run reads as a checklist.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate

import mmwcomp as m
from mmwcomp import Condition
from mmwcomp.cli import _reception_rows
from mmwcomp.params import (CAMPAIGN_SERVING_SETS, DIRECTIONAL_CI_73GHZ,
                            OMNI_CI_73GHZ, SOUNDER_GR_DBI, SOUNDER_GT_DBI,
                            SOUNDER_LINK_BUDGET, SOUNDER_PT_DBM)

DISTANCES = (63.0, 78.0, 87.0, 100.0, 200.0)
NLOS = DIRECTIONAL_CI_73GHZ[Condition.NLOS]
NLOS_BEST = DIRECTIONAL_CI_73GHZ[Condition.NLOS_BEST]


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {number}: {description}")
        raise
    with capsys.disabled():
        print(f"[PASS] criterion {number}: {description}")


def mean_reception(sc, drops, k_max):
    """Full-coverage share of all trials' k-subsets, as simulate writes it."""
    rows = _reception_rows(drops.masks, sc.topology(), k_max)
    return {row.k: row.probability for row in rows}


def test_criterion_1_edge_outage(capsys):
    with criterion(capsys, 1, "NLOS cell-edge outage at published radii"):
        start = time.perf_counter()
        got = [100.0 * m.edge_outage_probability(NLOS, SOUNDER_LINK_BUDGET, d)
               for d in DISTANCES]
        elapsed = time.perf_counter() - start
        expect = [2.4, 5.5, 8.0, 12.2, 52.0]
        for g, e in zip(got, expect):
            assert abs(g - e) <= 0.1, (g, e)
        assert elapsed < 0.5


def test_criterion_2_region_outage(capsys):
    with criterion(capsys, 2, "region outage: published values and "
                              "closed form vs quadrature"):
        got = [100.0 * m.region_outage_probability(NLOS, SOUNDER_LINK_BUDGET, d)
               for d in DISTANCES]
        for g, e in zip(got, [0.7, 1.8, 2.8, 4.6, 27.1]):
            assert abs(g - e) <= 0.1, (g, e)

        best_edge = [100.0 * m.edge_outage_probability(
                         NLOS_BEST, SOUNDER_LINK_BUDGET, d) for d in DISTANCES]
        best_region = [100.0 * m.region_outage_probability(
                           NLOS_BEST, SOUNDER_LINK_BUDGET, d) for d in DISTANCES]
        for g, e in zip(best_edge, [6.9e-5, 2.3e-4, 4.1e-4, 8.6e-4, 2.3e-2]):
            assert abs(g - e) <= 0.2 * e, (g, e)
        for g, e in zip(best_region, [1.8e-5, 6.0e-5, 1.1e-4, 2.4e-4, 7.1e-3]):
            assert abs(g - e) <= 0.2 * e, (g, e)

        # Closed form against adaptive quadrature of the edge expression
        # over a grid spanning the supported parameter ranges.
        for ple in (1.5, 3.25, 5.0):
            for sigma in (1.0, 6.5, 12.0):
                for radius in (10.0, 100.0, 500.0):
                    model = m.CiModel(73.5, ple, sigma)

                    def integrand(r):
                        return (2.0 * r / radius**2 * m.edge_outage_probability(
                            model, SOUNDER_LINK_BUDGET, r))

                    oracle, err = integrate.quad(integrand, 1.0, radius,
                                                 limit=200)
                    assert err < 1e-7
                    got_cf = m.region_outage_probability(
                        model, SOUNDER_LINK_BUDGET, radius)
                    assert abs(got_cf - oracle) < 1e-4, (ple, sigma, radius)


def test_criterion_3_link_budget(capsys):
    with criterion(capsys, 3, "receiver threshold and 1 m free-space anchor"):
        assert abs(m.receiver_threshold_dbm(SOUNDER_LINK_BUDGET, SOUNDER_PT_DBM,
                                            SOUNDER_GT_DBI, SOUNDER_GR_DBI)
                   - (-113.1)) <= 0.01
        assert abs(m.fspl_db(73.5, 1.0) - 69.73) <= 0.01


def test_criterion_4_combinatorics(capsys):
    with criterion(capsys, 4, "serving-set combination counts and the "
                              "20-of-36 full-reception fixture"):
        counts = [m.combination_count(CAMPAIGN_SERVING_SETS, k)
                  for k in range(1, 6)]
        assert counts == [36, 54, 42, 17, 3]

        links = [(u, b) for u in sorted(CAMPAIGN_SERVING_SETS)
                 for b in sorted(CAMPAIGN_SERVING_SETS[u])]
        full = (1 << 72) - 1
        masks = {link: full if i < 20 else full & ~(1 << (i % 72))
                 for i, link in enumerate(links)}
        reception = m.reception_counts(m.MaskSet(masks, 72),
                                       CAMPAIGN_SERVING_SETS, 5)
        assert sorted(reception) == list(range(1, 6))
        hits = reception[1]
        assert abs(100.0 * hits / counts[0] - 55.6) <= 0.05


def test_criterion_5_fit_recovery(capsys):
    with criterion(capsys, 5, "CI fit recovers every published parameter "
                              "set from regenerated samples"):
        start = time.perf_counter()
        truth_sets = list(DIRECTIONAL_CI_73GHZ.values()) + list(
            OMNI_CI_73GHZ.values())
        for stream, truth in enumerate(truth_sets):
            rng = m.substream(73, 5, stream)
            d = 10.0 ** rng.uniform(1.0, math.log10(200.0), size=10_000)
            pl = (np.array([m.ci_mean_path_loss_db(truth, x) for x in d])
                  + rng.normal(0.0, truth.sigma_db, d.size))
            samples = m.PathLossSamples(tuple(d.tolist()), tuple(pl.tolist()))
            fit = m.fit_ci(samples, truth.f_ghz)
            assert abs(fit.ple - truth.ple) <= 0.05, truth
            assert abs(fit.sigma_db - truth.sigma_db) <= 0.3, truth

        noise_free = m.PathLossSamples(*zip(*[
            (float(d), m.ci_mean_path_loss_db(NLOS, d))
            for d in np.linspace(10, 200, 100)]))
        exact = m.fit_ci(noise_free, NLOS.f_ghz)
        assert abs(exact.ple - NLOS.ple) <= 1e-9
        assert exact.sigma_db <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_6_property_spot_checks(capsys):
    with criterion(capsys, 6, "cross-cutting invariants (full suite in "
                              "test_properties.py)"):
        # CI anchored at the reference distance
        assert m.ci_mean_path_loss_db(NLOS, 1.0) == pytest.approx(
            m.fspl_db(73.5, 1.0), abs=1e-12)

        # Region outage never exceeds edge outage
        for d in DISTANCES:
            assert (m.region_outage_probability(NLOS, SOUNDER_LINK_BUDGET, d)
                    <= m.edge_outage_probability(NLOS, SOUNDER_LINK_BUDGET, d))

        # Reception non-decreasing in k; Best-N sorted
        bss = tuple(m.Node(f"B{i}", 150.0 * math.cos(i), 150.0 * math.sin(i),
                           4.0) for i in range(4))
        ues = (m.Node("U1", 0.0, 0.0, 1.4), m.Node("U2", 40.0, -30.0, 1.4))
        sc = m.Scenario(bss, ues, p_los=0.0)
        probs = mean_reception(sc, m.simulate_drop(sc, 20), 4)
        assert all(probs[k] <= probs[k + 1] + 1e-12 for k in range(1, 4))
        best = np.sort(m.simulate_drop(sc, 1).omni_pl_db.reshape(-1, 4), axis=1)
        assert best.shape == (len(ues), 4)
        assert (np.diff(best, axis=1) >= 0).all()

        # Omni synthesis: an equal-power pair of detected angles gains 3 dB
        flat = {c: m.CiModel(73.5, ple, 0.0)
                for c, ple in ((Condition.LOS, 2.0), (Condition.NLOS, 4.6))}
        pair = m.Scenario((m.Node("B1", 10.0, 0.0, 4.0),),
                          (m.Node("U1", 0.0, 0.0, 1.4),), flat,
                          SOUNDER_LINK_BUDGET,
                          m.SweepGrid(tx_angles=2, rx_azimuths=1,
                                      rx_elevations=1),
                          p_los=1.0)
        directional = m.ci_mean_path_loss_db(
            flat[Condition.LOS], m.distance_3d(*pair.links()[0]))
        omni = float(m.simulate_drop(pair, 1).omni_pl_db[0, 0])
        assert omni == pytest.approx(directional - 3.010299956639812,
                                     abs=1e-9)
        assert omni <= directional

        # Identical seeds emit byte-identical bundles
        def emit(out_dir):
            drops = m.simulate_drop(sc, 5)
            rows = [m.ReceptionRow(k, p, 8)
                    for k, p in mean_reception(sc, drops, 4).items()]
            values = drops.omni_pl_db.ravel().tolist()
            bundle = m.ResultBundle(m.RunMetadata("simulate", "test"),
                                    reception_rows=rows,
                                    cdfs={"omni": m.build_cdf(values)})
            return {p.name: p.read_bytes() for p in m.emit_results(bundle,
                                                                   out_dir)}

        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            assert emit(tmp + "/a") == emit(tmp + "/b")


def test_criterion_7_cdf_well_formedness(capsys):
    with criterion(capsys, 7, "simulated CDFs are well formed (figure "
                              "values themselves are not targets)"):
        bss = tuple(m.Node(f"B{i}", 120.0 * i, 40.0 * (i % 2), 4.0)
                    for i in range(1, 4))
        sc = m.Scenario(bss, (m.Node("U1", 50.0, 10.0, 1.4),))
        best = np.sort(m.simulate_drop(sc, 50).omni_pl_db, axis=1)
        for rank in range(1, 4):
            pts = m.build_cdf(best[:, rank - 1].tolist())
            assert pts[-1].p == pytest.approx(1.0, abs=1e-12)
            for a, b in zip(pts, pts[1:]):
                assert a.x <= b.x and a.p <= b.p
