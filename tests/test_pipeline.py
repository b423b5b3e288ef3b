import json
import random
from collections import Counter

import pytest

from conftest import lemma_inputs, moduli_cached
from oracles import is_identity, verify_subdivision_pairwise
from tropgeom import exactgeom as eg
from tropgeom import pipeline
from tropgeom.complexes import ConicalSubset, is_union_of_cones
from tropgeom.curves import DualGraph, build_complex_from_graphs, build_moduli_complex
from tropgeom.pipeline import (
    BOUNDARY_NOTE,
    Report,
    build_gamma_subdivision,
    contact_families,
    contact_types,
    dr_support,
    figure1_demo,
    image_family,
    product_run,
    run_contacts,
    single_factor_run,
    two_factor_types,
)
from tropgeom.subdivision import (
    hyperplane_refine,
    refine_until_conical,
    UnsoundSample,
    soundness_sample,
    verify_subdivision,
)
from tropgeom.tropmaps import ContactData, build_map_complex, enumerate_rubber_types


def _reverify(sub):
    """Criterion 5's checks of the support partition property: the wall
    certificate, the all-pairs oracle and the sampled check."""
    assert verify_subdivision(sub) == []
    assert verify_subdivision_pairwise(sub) == []
    assert soundness_sample(sub, random.Random(515151), per_cone=4)


class TestGammaSubdivision:
    def test_no_images_identity(self):
        base = moduli_cached(1, 1)
        sub = build_gamma_subdivision(base, [])
        assert is_identity(sub)

    def test_single_diagonal_image(self):
        theta = DualGraph((0, 0), ((0, 1), (0, 1), (0, 1)), (0, 1))
        base = build_complex_from_graphs([theta])
        tid = base.id_of(theta)
        diag = eg.cone_from_generators([(1, 1, 1)], 3)
        fam = ConicalSubset(base.complex, ((tid, diag),))
        sub = build_gamma_subdivision(base, [fam])
        _reverify(sub)
        tr = sub.transport(fam)
        assert is_union_of_cones(sub.refined, tr).ok
        # the ray is now one of the refined cones
        assert any(
            sub.refined.cones[rid].rays == ((1, 1, 1),)
            for rid in sub.refined.ids()
        )

    def test_two_factor_families_simultaneously(self):
        base = moduli_cached(1, 2)
        contact = ContactData(1, ((2, -2), (2, -2)))
        fams = []
        for i in range(2):
            mx = build_map_complex(enumerate_rubber_types(contact, i), base)
            fams.append(image_family(mx))
        sub = build_gamma_subdivision(base, fams)
        _reverify(sub)
        for fam in fams:
            assert is_union_of_cones(sub.refined, sub.transport(fam)).ok

    def test_idempotence_on_refined_base(self):
        base = moduli_cached(1, 2)
        contact = ContactData(1, ((2, -2),))
        mx = build_map_complex(enumerate_rubber_types(contact), base)
        fam = image_family(mx)
        sub = build_gamma_subdivision(base, [fam])
        again = refine_until_conical(sub.refined, sub.transport(fam))
        assert is_identity(again)


class TestRuns:
    def test_single_factor_passes(self):
        report = single_factor_run(1, 2, (2, -2))
        assert report.all_passed
        assert BOUNDARY_NOTE in report.notes

    def test_two_factor_passes(self):
        report = product_run(1, 2, (2, -2), (1, -1))
        assert report.all_passed

    def test_two_vector_run_enumerates_each_factor_once(self, monkeypatch):
        factors, products = [], []

        def counting(contact, factor=0, max_edges=None):
            factors.append(factor)
            return enumerate_rubber_types(contact, factor, max_edges=max_edges)

        def recording(*args, **kwargs):
            products.append(args)
            return two_factor_types(*args, **kwargs)

        monkeypatch.setattr(pipeline, "enumerate_rubber_types", counting)
        monkeypatch.setattr(pipeline, "two_factor_types", recording)
        assert product_run(1, 2, (2, -2), (1, -1)).all_passed
        assert factors == [0, 1]
        assert len(products) == 1

    def test_xy_symmetry_of_product_verdicts(self):
        a = product_run(1, 2, (2, -2), (1, -1))
        b = product_run(1, 2, (1, -1), (2, -2))
        assert a.all_passed == b.all_passed
        names = lambda r: sorted(
            (c.name.replace(" X ", " _ ").replace(" Y ", " _ "), c.passed)
            for c in r.checks
            if "cover" in c.name or "disjoint" in c.name
        )
        assert names(a) == names(b)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: single_factor_run(1, 1, (2, -2)),
            lambda: product_run(1, 2, (2, -2), (1, 0, -1)),
            lambda: dr_support(1, 1, (2, -2)),
        ],
        ids=["single", "product", "dr-support"],
    )
    def test_vector_of_wrong_length_is_a_value_error(self, run):
        with pytest.raises(ValueError, match="must have length n"):
            run()

    @pytest.mark.parametrize(
        "vectors, message",
        [([], "at least one"), ([(2, -2), (1, -1), (1, -1)], None)],
        ids=["none", "three"],
    )
    def test_number_of_vectors(self, vectors, message):
        # any positive number of vectors runs; factors past the second are
        # labelled X3, X4, ...
        if message is not None:
            with pytest.raises(ValueError, match=message):
                run_contacts(1, 2, vectors)
            return
        report = run_contacts(1, 2, vectors)
        assert report.all_passed
        assert sorted(report.inputs["types"]) == ["X", "X3", "Y", "Z"]
        assert any(c.name == "product chambers cover fiber product" for c in report.checks)

    def test_failed_union_check_carries_a_point(self, monkeypatch):
        # without Gamma the images on M_{1,3} are not unions of base cones
        # (Gamma normally refines 23 cones into 31)
        monkeypatch.setattr(
            pipeline,
            "build_gamma_subdivision",
            lambda base, images, unimodularize=False: hyperplane_refine(base.complex, {}),
        )
        report = single_factor_run(1, 3, (2, 0, -2))
        union = [c for c in report.checks if c.name == "image family union of cones"]
        assert [c.passed for c in union] == [False]
        assert len(union[0].witness) == 3
        assert report.to_json()["checks"][-1]["witness"] == list(union[0].witness)
        support = dr_support(1, 3, (2, 0, -2)).report.checks
        assert [(c.name, c.passed, len(c.witness)) for c in support] == [
            ("support is a union of cones", False, 3)
        ]

    def test_report_json_shape(self):
        report = single_factor_run(1, 1, (0,))
        data = report.to_json()
        assert set(data) == {"inputs", "subdivision", "checks", "notes", "all_passed"}
        text = report.to_text()
        assert "result:" in text
        # stable under re-serialization
        assert json.dumps(data, sort_keys=True) == json.dumps(
            report.to_json(), sort_keys=True
        )


class TestDrSupport:
    @pytest.mark.parametrize("n", [4, 5])
    def test_genus_zero_support_is_everything(self, n):
        a = (1, -1) + (0,) * (n - 2)
        result = dr_support(0, n, a)
        _reverify(result.subdivision)
        assert is_identity(result.subdivision)
        base = moduli_cached(0, n)
        hosts = {host for host, _ in result.subset.pieces}
        covered = {
            (host, piece.rays) for host, piece in result.subset.pieces
        }
        for cid, cone in base.complex.cones.items():
            if cone.dim > 0:
                assert (cid, cone.rays) in covered
        assert result.report.all_passed

    def test_genus_one_banana_ray(self):
        result = dr_support(1, 2, (2, -2))
        _reverify(result.subdivision)
        base = moduli_cached(1, 2)
        banana = DualGraph((0, 0), ((0, 1), (0, 1)), (0, 1))
        bid = base.id_of(banana)
        assert any(
            host == bid and piece.rays == ((1, 1),)
            for host, piece in result.subset.pieces
        )
        for s in result.strata:
            assert s["codim"] == s["host_dim"] - s["support_dim"] >= 0

    def test_strata_table_matches_transport(self):
        result = dr_support(1, 2, (1, -1))
        for s in result.strata:
            assert s["support_dim"] <= s["host_dim"]


class TestFigureOne:
    def test_demo_passes_and_is_fast(self):
        import time

        t0 = time.time()
        report = figure1_demo()
        elapsed = time.time() - t0
        assert report.all_passed
        assert elapsed < 5.0
        by_name = {c.name: c for c in report.checks}
        assert by_name["moduli cone is a ray"].passed
        assert by_name["host cone is three dimensional"].passed
        assert by_name["image union of cones before subdivision"].passed
        assert by_name["image union of cones after stellar subdivision"].passed


class TestSoundnessCheck:
    RUNS = [figure1_demo, lambda: single_factor_run(1, 2, (2, -2))]

    @pytest.mark.parametrize("run", RUNS, ids=["figure1", "single"])
    def test_geometry_error_fails_the_check(self, monkeypatch, run):
        def uncovered(*args, **kwargs):
            raise eg.GeometryError("sampled point not covered")

        monkeypatch.setattr(pipeline, "soundness_sample", uncovered)
        report = run()
        by_name = {c.name: c for c in report.checks}
        assert by_name["subdivision soundness sample"].passed is False
        assert not report.all_passed

    @pytest.mark.parametrize("run", RUNS, ids=["figure1", "single"])
    def test_other_errors_propagate(self, monkeypatch, run):
        def crash(*args, **kwargs):
            raise ZeroDivisionError

        monkeypatch.setattr(pipeline, "soundness_sample", crash)
        with pytest.raises(ZeroDivisionError):
            run()


def _bytes(report):
    return json.dumps(report.to_json(), sort_keys=True)


def _recomputed(*args, **kwargs):
    raise AssertionError("a piece in the base's table was made again")


class TestSweepTable:
    """A base keeps the types, the factors' map complexes, the image
    families and the check verdicts of the runs made on it; the runs of a
    sweep share the base, so each piece is made once per sweep."""

    @pytest.mark.parametrize(
        "g, n, unimodularize, builds",
        [(0, 4, (False, True), 46), (1, 2, (False, True), 16), (1, 3, (False,), 20)],
        ids=["0-4", "1-2", "1-3"],
    )
    def test_shared_base_gives_the_bytes_of_fresh_bases(
        self, g, n, unimodularize, builds, monkeypatch
    ):
        # criterion 2's inputs, on the smaller bases each also unimodularized
        inputs = [(vectors, uni) for vectors in lemma_inputs(n) for uni in unimodularize]
        fresh = {i: _bytes(run_contacts(g, n, i[0], i[1])) for i in inputs}
        base = build_moduli_complex(g, n)
        first, second = (random.Random(s).sample(inputs, len(inputs)) for s in (1, 2))
        built = []

        def counted(types, target):
            built.append(tuple(types))
            return build_map_complex(types, target)

        monkeypatch.setattr(pipeline, "build_map_complex", counted)
        for i in first:
            assert _bytes(run_contacts(g, n, *i, base=base)) == fresh[i]
        # a factor's map complex is built once per base, the superimposed
        # Z's once per run that checks it
        expected = Counter()
        for vectors, _ in inputs:
            for label, ts in contact_types(g, n, vectors)[1].items():
                expected[tuple(ts)] = expected[tuple(ts)] + 1 if label == "Z" else 1
        assert Counter(built) == expected
        assert len(built) == builds
        # the second order finds every piece in the table
        monkeypatch.setattr(pipeline, "enumerate_rubber_types", _recomputed)
        monkeypatch.setattr(pipeline, "build_map_complex", _recomputed)
        for i in second:
            assert _bytes(run_contacts(g, n, *i, base=base)) == fresh[i]

    def test_gamma_does_not_depend_on_the_family_order(self):
        # so the sorted merged pieces can stand for Γ in the table's keys
        cf = contact_families(1, 3, [(2, 0, -2), (1, -1, 0)], base=moduli_cached(1, 3))
        families = list(cf.families.values())
        subs = [
            build_gamma_subdivision(cf.base, order)
            for order in (families, families[::-1], families[1:] + families[:1])
        ]
        assert len(subs[0].refined.cones) > len(cf.base.complex.cones)
        assert all(sub.to_json() == subs[0].to_json() for sub in subs)

    def test_failed_verdicts_replay_with_their_witnesses(self, monkeypatch):
        # without Γ the union check fails with a point, and an injected
        # sample fault fails the soundness check with its point
        monkeypatch.setattr(
            pipeline,
            "build_gamma_subdivision",
            lambda base, images, unimodularize=False: hyperplane_refine(base.complex, {}),
        )

        def unsound(sub, rng, per_cone):
            raise UnsoundSample("injected", "G0", (1, 2, 3))

        monkeypatch.setattr(pipeline, "soundness_sample", unsound)
        base = build_moduli_complex(1, 3)
        first = single_factor_run(1, 3, (2, 0, -2), base=base)
        witnesses = {c.name: c.witness for c in first.checks if not c.passed}
        assert witnesses["subdivision soundness sample"] == (1, 2, 3)
        assert len(witnesses["image family union of cones"]) == 3

        def no_pullbacks(complexes, sub):
            assert not complexes, "a recorded verdict was computed again"
            return {}

        monkeypatch.setattr(pipeline, "soundness_sample", _recomputed)
        monkeypatch.setattr(pipeline, "is_union_of_cones", _recomputed)
        monkeypatch.setattr(pipeline, "pullback_map_complexes", no_pullbacks)
        second = single_factor_run(1, 3, (2, 0, -2), base=base)
        assert _bytes(second) == _bytes(first)
        assert {
            "name": "subdivision soundness sample", "scope": "base", "passed": False,
            "witness": [1, 2, 3],
        } in second.to_json()["checks"]

    def test_bases_do_not_share_a_table(self, monkeypatch):
        assert single_factor_run(1, 2, (2, -2), base=moduli_cached(1, 2)).all_passed

        def unsound(sub, rng, per_cone):
            raise UnsoundSample("injected", "G0", (1, 1))

        monkeypatch.setattr(pipeline, "soundness_sample", unsound)
        for base in (None, build_moduli_complex(1, 2)):
            report = single_factor_run(1, 2, (2, -2), base=base)
            soundness = [c for c in report.checks if c.name == "subdivision soundness sample"]
            assert [(c.passed, c.witness) for c in soundness] == [(False, (1, 1))]
