import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropgeom import subdivision
from tropgeom.cli import main
from tropgeom.complexes import ConeComplex
from tropgeom.curves import DualGraph
from tropgeom.exactgeom import LinearMap, RationalCone, cone_from_generators


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_figure1_exit_zero(capsys):
    code, out = run(capsys, "figure1")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True


def test_enumerate_graphs_boundary_case(capsys):
    code, out = run(capsys, "enumerate-graphs", "0", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["edges"] == []


@pytest.mark.parametrize(
    "g, n, digest",
    [
        ("2", "2", "ed0af561cc73cc461cfba6b70e1f4eeb630822abaadbf3d82836f9b074b7a2d6"),
        ("1", "4", "c7a7e2fc252eb7d26e158d781a017b367ec62547dd65c6367cfef98e6aa6d020"),
    ],
)
def test_enumerate_graphs_output_pinned(capsys, g, n, digest):
    # the bytes of the brute-force generator that split generation replaced:
    # graph order and canonical labels
    code, out = run(capsys, "enumerate-graphs", g, n)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "g, n, digest",
    [
        ("0", "6", "23a366945f95b03470417b647480eafd073936bfabfbc0f1e871b289d07701f6"),
        ("1", "3", "484ef4821fdb4992b4913eb5eb9d8247423c27812cce7d3e89679e26c1b41c4b"),
        ("2", "2", "65ecd4be349531bcfcab433e0e7c584adf919f5aa2d5fd09c14d8dae343c4826"),
    ],
)
def test_moduli_complex_output_pinned(capsys, g, n, digest):
    # the canonical labelling decides the cone ids, and its eperm tie-breaks
    # the face matrices and automorphisms
    code, out = run(capsys, "moduli-complex", g, n)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_graphs_dot(capsys):
    code, out = run(capsys, "enumerate-graphs", "1", "1", "--format", "dot")
    assert code == 0
    assert out.count("graph ") == 2
    assert "style=dashed" in out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("enumerate-maps", "1", "2", "2,-2", "1,-1"),
            "7304e68728b6614e966a2c1590eac11af8cf6cbb64811399f52a7792b7149178",
        ),
        (
            ("enumerate-graphs", "1", "2"),
            "039b04363c67fc3b7215db564a0dfe0e4411e06b543037f81721c067842199a7",
        ),
    ],
)
def test_dot_output_pinned(capsys, argv, digest):
    # graphs and map types are drawn by one writer; these are the bytes of
    # the two writers it replaced
    code, out = run(capsys, *argv, "--format", "dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("subdivide", "1", "3", "2,0,-2"),
            "4da8e7c7fb6d049a0f4e7c218f4dfa920445f403e0451d74945ff3540c5c7bdc",
        ),
        (
            # other families, one arrangement: the same Γ
            ("subdivide", "1", "3", "2,0,-2", "1,-1,0"),
            "4da8e7c7fb6d049a0f4e7c218f4dfa920445f403e0451d74945ff3540c5c7bdc",
        ),
        (
            ("subdivide", "2", "2", "3,-3", "--max-edges", "3", "--unimodularize"),
            "2bdfe5d045ce17167257da184622a02b5cbb0b35a4386a2c1620154679d3585a",
        ),
    ],
)
def test_subdivide_output_pinned(capsys, argv, digest):
    # the bytes of Γ: the refined complex and its projection
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("dr-support", "1", "3", "2,0,-2"),
            "5fccbe19059bb6593404faf0047f2ad5af29b1a3c434320ff660c03364ba4c5d",
        ),
        (
            # two factors on M_{1,3}: superimposed chambers and the cover check
            ("product-check", "1", "3", "2,0,-2", "1,-1,0"),
            "5fcc19c6b33625f5425adeb7ed461b7e61dfcd3a6a13272e1e52504ac8321255",
        ),
        (
            # two factors on M_{2,2}: of its 32 product types, 18 have loops
            # and 7 parallel edges
            ("product-check", "2", "2", "3,-3", "1,-1", "--max-edges", "3"),
            "c911fd2b0942f8b892eb3ff9fc8c354efbea4fafa35123f48953d97a89ee6193",
        ),
        (
            # the run behind the unimodular-g2n2 benchmark's slowest run:
            # refinement, stellar steps, checks and pullbacks
            ("verify", "2", "2", "3,-3", "--max-edges", "3", "--unimodularize"),
            "effd1bbe97bef34ba850a7ed9cc5966ccd7828e9ec4f32c6919f13f18808cafb",
        ),
    ],
)
def test_report_output_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_moduli_complex_json_roundtrip(capsys):
    code, out = run(capsys, "moduli-complex", "1", "1")
    assert code == 0
    data = json.loads(out)
    back = ConeComplex.from_json(data)
    assert back.to_json() == {k: data[k] for k in ("cones", "faces", "auts")}
    for cid, graph in data["graphs"].items():
        DualGraph.from_json(graph)


def test_enumerate_maps(capsys):
    code, out = run(capsys, "enumerate-maps", "1", "2", "2,-2")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    for t in data:
        assert "slopes" in t and "leg_slopes" in t


def test_image_and_subdivide(capsys):
    code, out = run(capsys, "image", "1", "2", "2,-2")
    assert code == 0
    fam = json.loads(out)
    assert fam["pieces"]
    for piece in fam["pieces"]:
        RationalCone.from_json(piece["cone"])
    code, out = run(capsys, "subdivide", "1", "2", "2,-2")
    assert code == 0
    sub = json.loads(out)
    refined = ConeComplex.from_json(sub["refined"])
    assert refined.cones


def test_verify_and_product_check_pass(capsys):
    code, out = run(capsys, "verify", "1", "2", "2,-2")
    assert code == 0
    code, out = run(capsys, "product-check", "1", "2", "2,-2", "1,-1")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True


def test_dr_support_json(capsys):
    code, out = run(capsys, "dr-support", "1", "2", "2,-2")
    assert code == 0
    data = json.loads(out)
    assert data["strata"]
    for s in data["strata"]:
        assert s["codim"] >= 0


def test_malformed_inputs_exit_two(capsys):
    assert main(["verify", "1", "2", "nonsense"]) == 2
    assert main(["verify", "1", "2", "1,1"]) == 2
    assert main(["enumerate-maps", "1", "2", "1,-1,0"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate-graphs", "0", "2"], "not in the stable range"),
        (["enumerate-graphs", "-1", "5"], "not in the stable range"),
        (["moduli-complex", "0", "2"], "not in the stable range"),
        (["verify", "0", "2", "1,-1"], "not in the stable range"),
        (["verify", "1", "2", "2,-2", "2,-2", "1,-1"], None),
        (["product-check", "1", "2", "2,-2", "1,0,-1"], "length n"),
        (["subdivide", "1", "2", "2,-2", "1,-1", "1,-1"], None),
        (["image", "1", "2", "3,-3", "--unimodularize"], "--unimodularize"),
        (["enumerate-maps", "1", "2", "2,-2", "--unimodularize"], "--unimodularize"),
        (["verify", "1", "2", "2,-2", "--max-edges", "-1"], "--max-edges"),
        (["enumerate-maps", "1", "2", "2,-2", "--max-edges", "-1"], "--max-edges"),
        (["verify", "1", "2", "2,-2", "--max-edges", "0"], None),
        (["moduli-complex", "1", "1", "--format", "dot"], "does not take --format dot"),
        (["verify", "1", "2", "2,-2", "--format", "dot"], "does not take --format dot"),
        (["enumerate-graphs", "1", "1", "--format", "text"], "does not take --format text"),
        (["image", "1", "2", "2,-2", "--format", "text"], "does not take --format text"),
        (["figure1", "--format", "dot"], "does not take --format dot"),
        (["verify", "1", "2", "2,-2", "--out", "/nonexistent/x.json"], "/nonexistent/x.json"),
        (["verify", "1", "2"], "required: contacts"),
        (["moduli-complex", "0", "3", "--max-edges", "1"], "unrecognized arguments"),
        (["verify", "x", "2", "1,-1"], "invalid int value"),
        ([], "required: command"),
        (["enumerate-graphs", "1", "1", "--timing"], "unrecognized arguments: --timing"),
        (["enumerate-graphs", "1", "1", "--seed", "5"], "unrecognized arguments: --seed"),
        (["dr-support", "1", "2", "2,-2", "--seed", "9"], "unrecognized arguments: --seed"),
        (["verify", "1", "2", "2,-2", "--format", "text", "--timing"], "--timing"),
    ],
    ids=[
        "unstable", "negative-genus", "moduli-unstable", "verify-unstable", "three-factors",
        "product-check-ragged", "subdivide-three-factors", "image-unimodularize",
        "enumerate-maps-unimodularize", "verify-negative-max-edges",
        "enumerate-maps-negative-max-edges", "verify-zero-max-edges", "moduli-complex-dot",
        "verify-dot", "enumerate-graphs-text", "image-text", "figure1-dot", "out-unwritable",
        "verify-no-contacts", "moduli-complex-max-edges", "verify-bad-genus", "no-command",
        "enumerate-graphs-timing", "enumerate-graphs-seed", "dr-support-seed", "verify-text-timing",
    ],
)
def test_exit_codes(capsys, argv, message):
    # message None: the input is valid (three vectors are three factors)
    # and the command exits 0 with its JSON on stdout
    code = main(argv)
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)
        return
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and message in lines[0]


def test_a_refinement_at_its_cap_exits_two_with_one_line(capsys, monkeypatch):
    # with no stellar step allowed, the first cone that is not unimodular
    # ends the run; the line names it
    monkeypatch.setattr(subdivision, "MAX_UNIMODULAR_STEPS", 0)
    code = main(["verify", "1", "2", "3,-3", "--unimodularize"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: unimodularization did not finish in 0 stellar steps")
    assert "refined cone G4.2 " in lines[0]


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_is_refused_before_any_work(capsys, monkeypatch, tmp_path, where):
    # the run would raise; the path check comes first, creates nothing and
    # prints the line a failed write prints
    def run_contacts(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("tropgeom.cli.run_contacts", run_contacts)
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert main(["verify", "1", "2", "2,-2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert list(tmp_path.iterdir()) == []


def test_broken_stdout_is_named(capsys, monkeypatch):
    # a write to stdout raises an OSError without a file name, as when the
    # reader of a pipe has gone; the error line names the stream
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    assert main(["moduli-complex", "1", "1"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: cannot write <stdout>: {os.strerror(errno.EPIPE)}"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--timing" in capsys.readouterr().out


def test_timing_adds_elapsed_seconds(capsys):
    code, out = run(capsys, "verify", "1", "2", "2,-2", "--timing")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data["elapsed_seconds"], float)
    _, plain = run(capsys, "verify", "1", "2", "2,-2")
    assert "elapsed_seconds" not in json.loads(plain)
    del data["elapsed_seconds"]
    assert data == json.loads(plain)


@pytest.mark.parametrize(
    "argv",
    [
        ["0", "4", "1,-1,0,0", "0,1,-1,0", "1,0,0,-1"],
        ["1", "2", "2,-2", "1,-1", "3,-3"],
    ],
    ids=["M04", "M12"],
)
def test_verify_three_vectors(capsys, argv):
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    data = json.loads(out)
    assert sorted(data["inputs"]["types"]) == ["X", "X3", "Y", "Z"]
    name = "product chambers cover fiber product"
    covers = [c for c in data["checks"] if c["name"] == name]
    assert covers and all(c["passed"] for c in covers)
    assert all(c["scope"].count("x") == 2 for c in covers)


def test_product_check_is_verify_with_two_vectors(capsys):
    args = ["1", "2", "2,-2", "1,-1", "--max-edges", "1"]
    code, product = run(capsys, "product-check", *args)
    assert code == 0
    assert (code, product) == run(capsys, "verify", *args)


def test_verify_unmarked(capsys):
    code, out = run(capsys, "verify", "2", "0", "")
    assert code == 0
    assert json.loads(out)["inputs"]["contacts"] == [[]]


def test_enumerate_maps_two_factor_honors_max_edges(capsys):
    from tropgeom.pipeline import contact_types

    code, out = run(capsys, "enumerate-maps", "1", "2", "2,-2", "1,-1", "--max-edges", "1")
    assert code == 0
    vectors = ((2, -2), (1, -1))
    truncated = [p.map_type.to_json() for p in contact_types(1, 2, vectors, 1)[2]]
    assert json.loads(out) == truncated
    assert len(truncated) < len(contact_types(1, 2, vectors)[2])


def test_image_max_edges_matches_untruncated_base(capsys):
    # G ids sort by edge count first, so the truncated base numbers its
    # cones as the full one does
    from tropgeom.curves import build_moduli_complex
    from tropgeom.pipeline import image_family
    from tropgeom.tropmaps import ContactData, build_map_complex, enumerate_rubber_types

    code, out = run(capsys, "image", "1", "2", "2,-2", "--max-edges", "1")
    assert code == 0
    types = enumerate_rubber_types(ContactData(1, ((2, -2),)), 0, max_edges=1)
    mx = build_map_complex(types, build_moduli_complex(1, 2))
    assert json.loads(out) == image_family(mx).to_json()


def test_byte_identical_outputs(capsys):
    code, first = run(capsys, "verify", "1", "2", "2,-2", "--seed", "7")
    assert code == 0 and first
    assert (code, first) == run(capsys, "verify", "1", "2", "2,-2", "--seed", "7")
    _, a = run(capsys, "enumerate-maps", "1", "2", "2,-2", "1,-1")
    _, b = run(capsys, "enumerate-maps", "1", "2", "2,-2", "1,-1")
    assert a == b


def test_output_does_not_depend_on_the_hash_seed():
    """Γ is refined in a fixed face order.  Iterating the face maps as a set
    of string ids refined the 65 cones of this input into 1165 cones under
    hash seed 4 and into 1227 under seed 5."""
    argv = [sys.executable, "-m", "tropgeom.cli", "verify", "2", "2", "3,-3",
            "--max-edges", "4"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = []
    for seed in ("4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        procs.append(subprocess.Popen(argv, env=env, stdout=subprocess.PIPE))
    try:
        outs = [p.communicate(timeout=300)[0] for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["subdivision"]["refined_cones"] == 1165


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["figure1", "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["all_passed"] is True


def test_map_json_roundtrip_through_linear_maps():
    m = LinearMap(((1, 0, 1), (0, 2, 0)), 3, 2)
    assert LinearMap.from_json(m.to_json()) == m
    c = cone_from_generators([(1, 0), (1, 2)])
    assert RationalCone.from_json(c.to_json()) == c


def test_map_type_json_roundtrip():
    from tropgeom.tropmaps import ContactData, RubberMapType, enumerate_rubber_types

    for t in enumerate_rubber_types(ContactData(1, ((2, -2),))):
        back = RubberMapType.from_json(t.to_json(), 1)
        assert back == t


def test_subset_json_roundtrip():
    from conftest import moduli_cached
    from tropgeom.complexes import ConicalSubset
    from tropgeom.pipeline import image_family
    from tropgeom.tropmaps import ContactData, build_map_complex, enumerate_rubber_types

    base = moduli_cached(1, 2)
    mx = build_map_complex(enumerate_rubber_types(ContactData(1, ((2, -2),))), base)
    fam = image_family(mx)
    back = ConicalSubset.from_json(fam.to_json(), base.complex)
    assert back.pieces == fam.pieces
