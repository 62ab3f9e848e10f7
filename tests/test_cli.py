import contextlib
import copy
import io
import itertools
import json
import random
import re
import sys
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landauvar.cli import main
from landauvar.poly import ECHO_LIMIT, cut, parse


# a list nested 500 deep, a repr of 1000 characters (from the command line
# `json.load` reads up to about 980 levels, fewer under the test runner's own
# frames); an error line that echoes it ends with the cut repr, so a row
# whose message ends with CUT pins the length of that line
DEEP_LIST = json.loads("[" * 500 + "]" * 500)
CUT = "[" * ECHO_LIMIT + "...\n"
# a name of 100000 characters, and the cut form an error message echoes
LONG_NAME = "n" * 100000
NAME_CUT = "n" * ECHO_LIMIT + "..."


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema():
    text = (
        resources.files("landauvar") / "schemas" / "analysis_report.schema.json"
    ).read_text()
    return json.loads(text)


def test_symanzik_builtin(capsys):
    code, out, _ = run_cli(capsys, "symanzik", "bubble", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert parse(data["U"]) == parse("x1+x2")
    assert parse(data["F"]) == parse("(x1+x2)*(m1sq*x1+m2sq*x2) - psq*x1*x2")


def test_symanzik_from_file(tmp_path, capsys):
    doc = {
        "vertices": ["v1", "v2"],
        "edges": [
            {"id": "1", "ends": ["v1", "v2"], "mass": "m1", "var": "x1"},
            {"id": "2", "ends": ["v2", "v1"], "mass": "m2", "var": "x2"},
        ],
        "legs": [{"vertex": "v1", "momentum": "p1"},
                 {"vertex": "v2", "momentum": "p2"}],
        "channels": {"p1": "psq"},
    }
    path = tmp_path / "bubble.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "symanzik", str(path), "--format", "json")
    assert code == 0
    assert parse(json.loads(out)["U"]) == parse("x1+x2")


def test_landau_oneloop_json(capsys):
    code, out, _ = run_cli(capsys, "landau", "oneloop", "bubble", "--format", "json")
    assert code == 0
    comps = json.loads(out)
    assert {c["id"] for c in comps} == {"lF", "lFU", "lF/1", "lF/2"}
    for c in comps:
        parse(c["defining"])  # round-trips through the grammar


def test_landau_oneloop_split_flag(capsys):
    code, out, _ = run_cli(capsys, "landau", "oneloop", "bubble", "--split",
                           "--format", "json")
    assert code == 0
    ids = {c["id"] for c in json.loads(out)}
    assert ids == {"lF+", "lF-", "lFU", "lF/1", "lF/2"}


def test_landau_fixture_and_eliminate(capsys):
    code, out, _ = run_cli(capsys, "landau", "fixture", "massless-triangle",
                           "--format", "json")
    assert code == 0 and len(json.loads(out)) == 4
    code, out, _ = run_cli(capsys, "landau", "eliminate", "bubble",
                           "--chart", "x1=1", "--format", "json")
    assert code == 0
    eliminant = parse(json.loads(out)["eliminant"])
    from landauvar.poly import divides
    assert divides(parse("(m1sq+m2sq-psq)^2-4*m1sq*m2sq"), eliminant) is not None


def test_hierarchy_dot_and_check(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--graph", "bubble", "--dot")
    assert code == 0
    assert out.startswith("digraph hierarchy {")
    assert out.rstrip().endswith("}")
    # every non-brace line is a node or edge statement ending in ';'
    body = out.strip().splitlines()[1:-1]
    assert all(line.strip().endswith(";") for line in body)
    code, out, _ = run_cli(
        capsys, "hierarchy", "--graph", "bubble",
        "--check", "word=lF/1,lF+", "--check", "word=lF+,lF/1",
        "--format", "json",
    )
    assert code == 0
    verdicts = {tuple(v["word"]): v["verdict"] for v in json.loads(out)}
    assert verdicts[("lF/1", "lF+")] == "unconstrained"
    assert verdicts[("lF+", "lF/1")] == "forced_zero"


def test_homrank(capsys):
    code, out, _ = run_cli(capsys, "homrank", "--n", "1", "--m", "2",
                           "--I", "", "--J", "1", "--K", "2", "--degree", "1")
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("flag, value", [("--I", "x"), ("--J", "1,x"), ("--K", "1 2"),
                                         ("--I", "1,,2"), ("--J", "2,"),
                                         pytest.param("--I", "x" * 300, id="--I-long")])
def test_homrank_index_set_errors_name_the_option_and_value(capsys, flag, value):
    argv = ["homrank", "--n", "2", "--m", "3", flag, value, "--degree", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert_clean_error(code, err)
    assert (f"error: {flag} {cut(value)}: the value must be digits, such as 12, or a comma"
            " list of integers, such as 1,12") in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize("flag, value", [("--I", "1,1"), ("--J", "11"), ("--K", "2,12,2")])
def test_homrank_refuses_a_repeated_index(capsys, flag, value):
    argv = ["homrank", "--n", "3", "--m", "3", flag, value, "--degree", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert_clean_error(code, err)
    assert f"error: {flag} {value}: an index is repeated; give each index once" in err


@pytest.mark.parametrize("argv, flag, value", [
    (["hierarchy", "--model", "bubble", "--check"], "--check", "word=l1,,l1"),
    (["hierarchy", "--model", "bubble", "--check"], "--check", ",l1"),
    (["analyze", "bubble", "--check"], "--check", "lF/1,"),
    (["variation", "compose", "bubble"], "word", "w=l1,"),
    (["variation", "compose", "bubble"], "word", "w=,"),
    pytest.param(["variation", "compose", "bubble"], "word", "w=" + "l1," * 100, id="long"),
])
def test_words_with_an_empty_letter_are_refused(capsys, argv, flag, value):
    code, out, err = run_cli(capsys, *argv, value)
    assert out == ""
    assert_clean_error(code, err)
    assert (f"error: {flag} {cut(value)}: a word is letters joined by commas, and no letter"
            " may be empty") in err
    assert len(err.encode()) < 300


def test_the_empty_word_is_still_a_word(capsys):
    code, out, _ = run_cli(capsys, "hierarchy", "--model", "bubble", "--check", "word=",
                           "--format", "json")
    assert code == 0 and json.loads(out)[0]["word"] == []
    code, out, _ = run_cli(capsys, "variation", "compose", "bubble", "w=", "--format", "json")
    assert code == 0 and json.loads(out)["word"] == []


def test_signword(capsys):
    code, out, _ = run_cli(capsys, "signword", "d1 p2 d3:r=2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["sign"] == -1
    assert data["canonical"] == "d1 d3 p2"


@pytest.mark.parametrize("word, message", [
    ("d1:r=x", "operator 'd1:r=x': r=x must be an integer"),
    ("p2 d3:r=2.5", "operator 'd3:r=2.5': r=2.5 must be an integer"),
    ("d1:x=2", "bad option 'x=2'"),
    ("d", "operator 'd' needs a surface id"),
])
def test_signword_codimension_errors_name_the_token_and_value(capsys, word, message):
    code, out, err = run_cli(capsys, "signword", word)
    assert out == ""
    assert_clean_error(code, err)
    assert f"error: {message}" in err


def test_variation_commands(capsys):
    code, out, _ = run_cli(capsys, "variation", "compose", "bubble",
                           "w=l2,lD+", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["images"]["sigma"] == {"nu1": "1", "nu2": "-1"}
    code, out, _ = run_cli(capsys, "variation", "audit", "bubble", "--format", "json")
    assert code == 0
    assert json.loads(out)["violations"] == []
    code, out, _ = run_cli(capsys, "variation", "table", "logarithm",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["basis"] == ["sigma", "nu"]


def test_aomoto_commands(capsys):
    code, out, _ = run_cli(capsys, "aomoto", "symbol", "--n", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 4
    code, out, _ = run_cli(capsys, "aomoto", "hierarchy", "--n", "1", "--dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run_cli(capsys, "aomoto", "components", "--n", "2",
                           "--format", "json")
    assert code == 0 and len(json.loads(out)) == 20


def test_variation_user_model_file(tmp_path, capsys):
    from landauvar.variation import builtin_model, model_to_json

    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(builtin_model("bubble"))))
    code, out, _ = run_cli(capsys, "variation", "audit", str(path),
                           "--format", "json")
    assert code == 0 and json.loads(out)["violations"] == []


def test_track_command(capsys):
    code, out, _ = run_cli(
        capsys, "track", "bubble", "--chart", "x1=1", "--var", "x2",
        "--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=4",
        "--mark", "0", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["permutation"] == [1, 0]


def test_analyze_schema_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "analyze", "bubble", "--check", "lF/1,lF+")
    assert code == 0
    report = json.loads(out1)
    jsonschema.validate(report, load_schema())
    for comp in report["landau"]:
        parse(comp["defining"])
    assert report["words"][0]["verdict"] == "unconstrained"
    code, out2, _ = run_cli(capsys, "analyze", "bubble", "--check", "lF/1,lF+")
    assert out1 == out2  # byte-identical on identical input


def test_analyze_with_audit_and_track(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "bubble", "--audit", "bubble",
        "--track-loop", "psq:center=9,r=0.1", "--track-chart", "x1=1",
        "--track-var", "x2", "--track-fix", "m1sq=1,m2sq=4", "--track-mark", "0",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema())
    assert report["audit"]["violations"] == []
    assert report["track"]["permutation"] == [1, 0]


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "landau", "fixture", "bogus")
    assert code == 1 and "unknown fixture" in err
    code, _, err = run_cli(capsys, "analyze", "missing-file.json")
    assert code == 1
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": [,]}')
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "line" in err or "char" in err


@pytest.mark.parametrize("argv", [["variation", "table"], ["symanzik"]])
def test_deeply_nested_json_is_a_clean_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert out == ""
    assert_clean_error(code, err)
    assert f"error: {path}: JSON document is nested too deeply" in err


def assert_clean_error(code, err):
    assert code == 1
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_malformed_model_file_is_a_clean_error(tmp_path, capsys):
    from landauvar.variation import builtin_model, model_to_json

    no_components = model_to_json(builtin_model("bubble"))
    del no_components["components"]
    ops_as_list = model_to_json(builtin_model("bubble"))
    ops_as_list["ops"] = []
    path = tmp_path / "bad.json"
    for doc in (no_components, ops_as_list, [], {"components": [7]}):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "variation", "table", str(path))
        assert out == ""
        assert_clean_error(code, err)
        assert "malformed model document" in err


def test_track_with_zero_steps_is_a_clean_error(capsys):
    code, out, err = run_cli(
        capsys, "track", "bubble", "--chart", "x1=1", "--var", "x2",
        "--loop", "psq:center=9,r=0.1,steps=0", "--fix", "m1sq=1,m2sq=4",
    )
    assert out == ""
    assert_clean_error(code, err)
    assert "steps=0" in err


def _end_roots_both_near(pick):
    """A step-loop kernel whose end roots are both `pick` of the real ones."""
    from landauvar import tracking
    kernel = tracking._loop_kernel

    def patched(*key):
        def run(*args):
            roots, *rest = kernel(*key)(*args)
            return [pick(roots)] * len(roots), *rest
        return run
    return patched


@pytest.mark.parametrize("target, patch, message", [
    ("numpy.roots", lambda desc: [5.0, 6.0], "basepoint roots failed the residual check"),
    ("landauvar.tracking._loop_kernel", _end_roots_both_near(lambda r: (r[0] + r[1]) / 2),
     "root matching is ambiguous; refine the loop"),
    ("landauvar.tracking._loop_kernel", _end_roots_both_near(lambda r: r[0]),
     "root collision: two tracked roots matched one start root"),
], ids=["residual", "ambiguous", "collision"])
def test_track_refusals_after_the_basepoint_are_clean_errors(capsys, monkeypatch,
                                                            target, patch, message):
    monkeypatch.setattr(target, patch)
    code, out, err = run_cli(
        capsys, "track", "bubble", "--chart", "x1=1", "--var", "x2",
        "--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=4",
    )
    assert out == ""
    assert_clean_error(code, err)
    assert err == f"error: {message}\n"


def test_hierarchy_with_zero_or_empty_source_is_a_clean_error(capsys):
    for argv in (["--aomoto", "0"], ["--fixture", ""], ["--model", ""]):
        code, out, err = run_cli(capsys, "hierarchy", *argv)
        assert out == ""
        assert_clean_error(code, err)
    code, _, err = run_cli(capsys, "hierarchy", "--aomoto", "0")
    assert "weight must be at least 1" in err


def test_aomoto_symbol_over_budget_is_refused_before_building(capsys, monkeypatch):
    from landauvar import aomoto

    def no_build(n, *render):
        raise AssertionError(f"the symbol of weight {n} started")

    # the CLI streams from the table walk; `aomoto_symbol` is built on it too
    monkeypatch.setattr(aomoto, "aomoto_symbol", no_build)
    monkeypatch.setattr(aomoto, "symbol_walk", no_build)
    code, out, err = run_cli(capsys, "aomoto", "symbol", "--n", "7")
    assert out == ""
    assert_clean_error(code, err)
    assert "1625702400 words" in err and "518400" in err


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_aomoto_symbol_prints_the_words_of_aomoto_symbol(capsys, n):
    # the CLI streams from the tables; the word objects are the oracle
    from landauvar.aomoto import aomoto_symbol
    from landauvar.cli import _ENCODER

    words = aomoto_symbol(n)
    code, out, _ = run_cli(capsys, "aomoto", "symbol", "--n", str(n))
    assert code == 0 and out == "".join(f"{w}\n" for w in words)
    code, out, _ = run_cli(capsys, "aomoto", "symbol", "--n", str(n), "--format", "json")
    assert code == 0 and out == _ENCODER.encode([
        {"letters": [{"I": sorted(I), "J": sorted(J)} for I, J in w.letters], "sign": w.sign}
        for w in words
    ]) + "\n"


def test_aomoto_symbol_streams_one_word_per_chunk():
    # `main` joins 1024 chunks per write, so a chunk of many words (say, one
    # per sigma row) would hold hundreds of MB of JSON at weight 5
    from landauvar.cli import build_parser

    for fmt, closing in (("text", []), ("json", ["\n]\n"])):
        args = build_parser().parse_args(["aomoto", "symbol", "--n", "4", "--format", fmt])
        chunks = list(args.func(args))
        assert len(chunks) == 14400 + len(closing) and chunks[14400:] == closing
        marker = "\n" if fmt == "text" else '"sign"'
        assert all(chunk.count(marker) == 1 for chunk in chunks[:14400]), fmt


# SHA-256 of the stdout of `aomoto symbol` as first printed by the per-pair
# construction; the per-permutation tables must print the same bytes
SYMBOL_DIGESTS = {
    ("1", "text"): "57e518df91d7489504e0039ad758eec005c4aae0ef668d582dfa8ce858beb5a5",
    ("1", "json"): "8abbace3ee173ba1b8a5b55defe55acc202f4e2ac018d4d7b1365ce4bd8915f8",
    ("2", "text"): "d395b3385403e3d258eff77e6699bc367051c73de744df0d503aed4fccc3a31d",
    ("2", "json"): "eaee188d92d25e0c705816c1380a8b16a012d667a757e951f423f16d9e6b3ac5",
    ("3", "text"): "6f8e1f43e9cad5c5d39840e8db6a76da1d6c664d3888b031856bf92e1296150a",
    ("3", "json"): "e2cfe28de2577c79691cf85ecd85c5fb1bc4bb9b0202fe0f7eb74c1c2659fca0",
    ("4", "text"): "b3bb66bff20ab2df935db3c76fec7e74522243265a314d907dbe85ba87d1d1e6",
    ("4", "json"): "7b1d1fadf32fcceb61051b31b1ef279dfac5751c0189868e80b01ba44ab8be2d",
}


@pytest.mark.parametrize("n, fmt", sorted(SYMBOL_DIGESTS))
def test_aomoto_symbol_prints_the_recorded_bytes(capsys, n, fmt):
    import hashlib

    code, out, _ = run_cli(capsys, "aomoto", "symbol", "--n", n, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SYMBOL_DIGESTS[n, fmt]


# Outputs built from determinants whose rows `determinant` reorders: the
# sunrise eliminations end in 9x9 Sylvester matrices, and the 5-gon takes the
# bordered Cayley matrices of all its edge subsets.  A slip in the row order
# or its sign changes these bytes.
DETERMINANT_DIGESTS = {
    ("landau", "eliminate", "sunrise", "--chart", "x1=1"):
        "4f2d68d9097359960bb01836ff418015eee0bfa32d60e25fae63ddfde1033824",
    ("landau", "eliminate", "sunrise", "--chart", "x1=1,m1sq=1"):
        "25ce9b00d84975d90f3512b029db68b072d0549be70861459597266905fa019d",
    ("landau", "oneloop", "pentagon", "--format", "json"):
        "37f06df0af1c9e4877158a6dbb3185f95c130cf03382b46f3ca581ef283daad0",
}


def pentagon_document():
    """A 5-gon with five masses, a leg at each vertex, and a symbol for each
    channel of one leg or two adjacent legs."""
    n = 5
    channels = {f"p{k}": f"s{k}" for k in range(1, n + 1)}
    channels.update({f"p{k}+p{k + 1}": f"t{k}" for k in range(1, n)})
    channels["p1+p5"] = "t5"
    return {
        "vertices": [f"v{k}" for k in range(1, n + 1)],
        "edges": [{"id": str(k), "ends": [f"v{k}", f"v{k % n + 1}"], "mass": f"m{k}",
                   "var": f"x{k}"} for k in range(1, n + 1)],
        "legs": [{"vertex": f"v{k}", "momentum": f"p{k}"} for k in range(1, n + 1)],
        "channels": channels,
    }


def test_oneloop_takes_every_minor_from_one_packing_per_matrix(monkeypatch):
    from landauvar import graphs, landau, poly

    real = {name: getattr(poly, name) for name in ("principal_minors", "determinant")}
    calls = dict.fromkeys(real, 0)
    for module in (poly, landau):
        for name in real:
            def counted(*args, _name=name, **kwargs):
                calls[_name] += 1
                return real[_name](*args, **kwargs)

            monkeypatch.setattr(module, name, counted, raising=False)
    comps = landau.oneloop_landau(graphs.load_graph(pentagon_document()))
    assert calls == {"principal_minors": 2, "determinant": 0}
    # 31 proper edge subsets, 26 of them leaving two edges or more
    assert len(comps) == 31 + 26


@pytest.mark.parametrize("argv", sorted(DETERMINANT_DIGESTS))
def test_determinant_outputs_print_the_recorded_bytes(tmp_path, capsys, argv):
    import hashlib

    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(pentagon_document()))
    code, out, _ = run_cli(capsys, *(str(path) if a == "pentagon" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DETERMINANT_DIGESTS[argv]


# Outputs of the hand-written component lists: the fixtures, the builtin
# models and the Aomoto components.  Any change to a field, a set or the
# component order changes these bytes.
FIXTURE_DIGESTS = {
    ("landau", "fixture", "icecream-partial", "--format", "json"):
        "61d1be193da06a5cdf92abed27d54d4d0efa46e3002bb102156aff8d90a06903",
    ("hierarchy", "--fixture", "icecream-partial", "--dot"):
        "0887b373708c931396e6883284b5abad68c2ad89581c7e4b7910534afd005021",
    ("hierarchy", "--fixture", "icecream-partial", "--format", "json"):
        "a43f266a92d520395f2cde282d600b1d5a790ccdbda73531620bc2f75e3c9d12",
    ("landau", "fixture", "massless-triangle", "--format", "json"):
        "0cfb8c85ecdcf7c87a4df113de1d654ce6c6652ea76f3776577909ffebfc0137",
    ("hierarchy", "--fixture", "massless-triangle", "--dot"):
        "d32d73321c3e23984f8d8a1ff95a88dc6868642e4e28097457844ab5185e8292",
    ("hierarchy", "--fixture", "massless-triangle", "--format", "json"):
        "282c595beac94e3dca6a1afc19046e882e2730212c4d9146bd36b2beba5d1165",
    ("landau", "fixture", "sunrise", "--format", "json"):
        "23778fa7a1829603f14e8d2b55ecab02e9d9cd6a541de58d38317cf066718e2f",
    ("hierarchy", "--fixture", "sunrise", "--dot"):
        "7f07af27205a59509b795b55aa8e6cf12897676644d0d7e6f91d62fbfba92782",
    ("hierarchy", "--fixture", "sunrise", "--format", "json"):
        "d5a7749d95b32a7a999307dc24ffdf28b5ec9c47961f615dbe845d5a85f28318",
    ("hierarchy", "--model", "bubble", "--format", "json"):
        "75df8359d069dd0ce09725a916b4cad870cc6c31644a8deee2e8264f41b09ded",
    ("variation", "table", "bubble", "--format", "json"):
        "488cc87fb3653cdb1cf49976bec7bc313f73c9ef8370e447038248568758871b",
    ("hierarchy", "--model", "dilog", "--format", "json"):
        "7c36e657eb38ed1a33ccfd1f4009593722a51b35e1ef007030cfaa58407d803a",
    ("variation", "table", "dilog", "--format", "json"):
        "88855dd576316efa43a220af9d952ff9691bf09d5761640de6a71c7797658dac",
    ("hierarchy", "--model", "logarithm", "--format", "json"):
        "15c3fe3078ab2a166ecd71a9fc4f184451102dcdfda456a536d059a481e2804e",
    ("variation", "table", "logarithm", "--format", "json"):
        "4c29152da9fddc4ffd9dfd1ebb4468c51c6d4b3a662debfb24ff40d6260e4065",
    ("hierarchy", "--model", "massless-triangle", "--format", "json"):
        "282c595beac94e3dca6a1afc19046e882e2730212c4d9146bd36b2beba5d1165",
    ("variation", "table", "massless-triangle", "--format", "json"):
        "50272ab773b3016017b1cdc95e5ce425a7f7ec773f877b9d75c78420c16c14dc",
    ("aomoto", "components", "--n", "3", "--format", "json"):
        "fa6fe6761204cb37047e9333af75a623465bf2d015f8191e62ea0a3f1044fbd0",
}


@pytest.mark.parametrize("argv", sorted(FIXTURE_DIGESTS))
def test_component_lists_print_the_recorded_bytes(capsys, argv):
    import hashlib

    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIXTURE_DIGESTS[argv]


# Outputs of the exact matrix layer: the audit and one composed word on each
# builtin model and on two seeded copies over a permuted basis rescaled by
# rationals (`rescaled-bubble`, `rescaled-dilog`), whose composed entries are
# fractions.  Any change to a verdict, a count or a printed entry changes these.
AUDIT_WORDS = {"logarithm": "w=l1", "bubble": "w=l2,lD+", "dilog": "w=l1,l0",
               "massless-triangle": "w=l2,l1"}
RESCALED_SEEDS = {"rescaled-bubble": ("bubble", 3), "rescaled-dilog": ("dilog", 7)}
AUDIT_DIGESTS = {
    ("logarithm", "audit", "json"):
        "46c6eb777ef7a799d1457f9f84d9e0f94a75716f5b350cb161eaa6b25938aaa6",
    ("logarithm", "audit", "text"):
        "483821d692f1d8eb168ce72a666d1714a741912c516a8f23da6a7d514f7410b3",
    ("logarithm", "compose", "json"):
        "06e241d8806ab89ebe27d3eac5401990d0156f9248b060f8badefaca1644c12f",
    ("logarithm", "compose", "text"):
        "da12206a474b8040e919612d453a655af52881a0a847b577ae4081b2f57ab1be",
    ("bubble", "audit", "json"):
        "de52a8995102fb58887fa5f8a9ddeddfbdcec3b232536ca0f5d9a89cb72a7123",
    ("bubble", "audit", "text"):
        "8940fefde5c3a5a66265f8e468e484c3b85496e82b1e402a8c6193b432b36f92",
    ("bubble", "compose", "json"):
        "a44cec43f93ad9cac03864dc43fe843a29892f9580e3081cc632bcb214260f11",
    ("bubble", "compose", "text"):
        "ce9285c6ed9cf9161461cbb05a57a4af1d89286f4985046da6758b731225baeb",
    ("dilog", "audit", "json"):
        "a1f8ca9985a2cafa8f70df578fe1abe6906da51d20c57176c6f1f38bb8ea36e1",
    ("dilog", "audit", "text"):
        "1ce4dae6df0f3fe69ccb512bd14b33c39be19e5c9b669f14a5295cd75e6dec49",
    ("dilog", "compose", "json"):
        "b89d6a4debb21cf43c22a09a92682d1babb445ca179fbe31de8dcd30401cc28f",
    ("dilog", "compose", "text"):
        "e9fb0cc72bd410dae63fc8e8a24f4b3a877f100c78d56efafc737645d9067dfe",
    ("massless-triangle", "audit", "json"):
        "074c6faa2393a10e606184d387ad2d1c83a5c8f91341429b69e5f5bc0d1e5793",
    ("massless-triangle", "audit", "text"):
        "39777c6dd73b9b01d1997d4c54bb7e3c8653557e30f24c4ca70d986108c9bc60",
    ("massless-triangle", "compose", "json"):
        "7607f30f3cbc4f1c94b6660e16f0dd60a3dfdaeb03f7845d362b2b582ce9fe02",
    ("massless-triangle", "compose", "text"):
        "3844dcf797a9dafce1b5155881bf4e0f8ef0ff19f58e4358159e41b8557069f5",
    ("rescaled-bubble", "audit", "json"):
        "de52a8995102fb58887fa5f8a9ddeddfbdcec3b232536ca0f5d9a89cb72a7123",
    ("rescaled-bubble", "audit", "text"):
        "8940fefde5c3a5a66265f8e468e484c3b85496e82b1e402a8c6193b432b36f92",
    ("rescaled-bubble", "compose", "json"):
        "974bd72647f98cbdf3003abb27ac6723718974e95128ecc5ab8b1b66cfbb687a",
    ("rescaled-bubble", "compose", "text"):
        "97063e04678d277b6166b9df714c0c5b6b166454d70349e79b5532c86cf7a933",
    ("rescaled-dilog", "audit", "json"):
        "a1f8ca9985a2cafa8f70df578fe1abe6906da51d20c57176c6f1f38bb8ea36e1",
    ("rescaled-dilog", "audit", "text"):
        "1ce4dae6df0f3fe69ccb512bd14b33c39be19e5c9b669f14a5295cd75e6dec49",
    ("rescaled-dilog", "compose", "json"):
        "05256a8dfc1ab24f8bb54580ba30759ac1757a26ea84f769d52d52ec769000dd",
    ("rescaled-dilog", "compose", "text"):
        "af182e152682171a0ad5faf9c89e862a3101b28f928785609607540f1a9385ff",
}


def rescaled_model_document(name):
    from test_variation import transformed

    from landauvar.variation import builtin_model, model_to_json

    model, seed = RESCALED_SEEDS[name]
    return model_to_json(transformed(builtin_model(model), random.Random(seed)))


@pytest.mark.parametrize("source, action, fmt", sorted(AUDIT_DIGESTS))
def test_audit_and_compose_print_the_recorded_bytes(tmp_path, capsys, source, action,
                                                    fmt):
    import hashlib

    model, path = RESCALED_SEEDS.get(source, (source,))[0], source
    if source in RESCALED_SEEDS:
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(rescaled_model_document(source)))
    argv = (["audit", str(path), "--max-len", "5"] if action == "audit"
            else ["compose", str(path), AUDIT_WORDS[model]])
    code, out, _ = run_cli(capsys, "variation", *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGESTS[source, action, fmt]


# Outputs of root tracking: `track` on the nine bubble loop kinds of
# `test_tracking.LOOP_KINDS`, marked at 0, and the track section of one
# `analyze`.  They print the residual diagnostic, so any change to the value
# of a floating-point operation in the step loop shows here.
TRACK_DIGESTS = {
    ("psq-normal", "json"):
        "f6fa7396750d2fbbfb080569502a533090f27c343caa987975f2f306c7d355b1",
    ("psq-normal", "text"):
        "ab07ee031b053f3b5a29b5a70bec0758bdf70ee4987a739fea9c40a92e5fc558",
    ("psq-pseudo", "json"):
        "6e720a86300cf2c6eca06ddecbe2e93c8a9189e75267d9cd54c0cc2c1b0d52c8",
    ("psq-pseudo", "text"):
        "69e79aea26a8a90f1093cfd4316a585fd547d401c9675bff5bdbfa3024893e6e",
    ("psq-both", "json"):
        "b68a604d3070591ab76e05a83e2c0a2918b01d753315d71920cbd50e0cda4b81",
    ("psq-both", "text"):
        "57b0960607d488b3c6abc124a8c3be598056727cd61b0a4bc45dd0c70c7670f7",
    ("psq-neither", "json"):
        "6a34635ae6a3a4f94e6e0a9e8c0f25b76302dd8a5ee40a96c2d3b88890ba8545",
    ("psq-neither", "text"):
        "bc7427244dfcc7d171cda28ad7161c861bdc6107e397d77eb594583e1719559c",
    ("m1sq-winding", "json"):
        "fed00b92e12144a424b7bf6d47b2cde6d57cf7a9152decef034d3a3bd3f6a56e",
    ("m1sq-winding", "text"):
        "069faedb145c5dc62324e9b7b6551e52cf9424daf1ed9d5811fbc23ef7cde0c0",
    ("m1sq-normal", "json"):
        "a8c26ad21f0bffe12a055ef5bcb886743f261092d9213b11d21ee500d7db731d",
    ("m1sq-normal", "text"):
        "2b6b6abf471586f8a1bd994922b4b96508ba0f9b5cb704c31e7b91abd404cdc7",
    ("m1sq-pseudo", "json"):
        "da1deb107c023c1c32d13c244459b860b7b355a9e2766f3adcc0151c7542aa73",
    ("m1sq-pseudo", "text"):
        "e63df66c520932e1730511574ace50d833d37db584bc64734a8c44561ee929ba",
    ("m1sq-both", "json"):
        "f15ba9ca15d06a037ef3dbc5c240934f920cf6413150e6315782d42a5d37de39",
    ("m1sq-both", "text"):
        "fad7fc70d8dfad06757a9ded406235d3ac3c4424c2d2290ef9569d741ff69754",
    ("m1sq-neither", "json"):
        "0e067d3adebbc7ddb8a2b34622e5ebbeeb4141bcc3a5146f930a7899e719400f",
    ("m1sq-neither", "text"):
        "93db518ca24760413053458a2c95e6fea82c93d3c91b276dd214139e62dcf44e",
    ("analyze", "json"):
        "963892b5136d5b24ea1559083740ad9d5e62bb2398aaa5a1ca714d01359a1b7b",
}


def track_argv(kind, fmt):
    """The command that tracks the bubble loop `kind` of LOOP_KINDS, or the
    `analyze` of the normal-threshold swap."""
    if kind == "analyze":
        return ["analyze", "bubble", "--track-loop", "psq:center=9,r=0.1", "--track-chart",
                "x1=1", "--track-var", "x2", "--track-fix", "m1sq=1,m2sq=4", "--track-mark",
                "0"]
    from test_tracking import LOOP_KINDS

    sys_ = LOOP_KINDS[kind]
    loop = sys_.loop
    return ["track", "bubble", "--chart", "x1=1", "--var", "x2", "--loop",
            f"{loop.parameter}:center={loop.center},r={loop.radius},orient={loop.orientation},"
            f"steps={loop.steps},turns={loop.turns}",
            "--fix", ",".join(f"{v}={z}" for v, z in sys_.basepoint.items()),
            "--mark", "0", "--format", fmt]


@pytest.mark.parametrize("kind, fmt", sorted(TRACK_DIGESTS))
def test_track_prints_the_recorded_bytes(capsys, kind, fmt):
    import hashlib

    code, out, _ = run_cli(capsys, *track_argv(kind, fmt))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACK_DIGESTS[kind, fmt]


# The CLI's own text: `--help` of the top parser and of each of the 18
# subparsers, at 80 columns.  Any change to an option, its order, a help
# string or a default shown here changes these bytes.
HELP_DIGESTS = {
    (): "8111df6f52f441d3bae547fc4f1b26109465ba6543915adecd2dfafe1bfe851e",
    ("symanzik",): "00d13976da44258a97ccc45e888df43a9599e131e81c8048a6a26f2a8835859f",
    ("landau",): "a3ac11fe07e118efc601a11611093884f0ab4b777433938873240ac4d9948914",
    ("landau", "oneloop"): "612aead6f7e9bac00bd13e76462427f1ea2933e07a630bbaccdab45db26f36d7",
    ("landau", "fixture"): "b3f46b1d57b961733d04500268eb75c34e39ed15286a9f0f7b57deb5d43c27be",
    ("landau", "eliminate"):
        "8d4a921975eeed354fdf7882c7574d77738e1467c02a27ff97fe550fbe4bb040",
    ("hierarchy",): "1b16627ebc02c9a63ee2ff2d8a1cf78ce40035c2035aad47b1e777de1aabe16d",
    ("homrank",): "e67b66a866f843a995aea5a1dfa25f44029431d170befc38a3f4f0b6f394db6e",
    ("signword",): "01f2083e32e0661b9e99e65107e44b8c8888808d98d2af16390d0f0f1cedd754",
    ("variation",): "83c13e7fdb621c2c2ec6c44448dcd6546442271d95e4b7fc4e3707bd9d1386d1",
    ("variation", "table"): "750cbe25cb29fd26266f97bcb920e1d98d2b97af79aeac3f5a7834861dad034e",
    ("variation", "compose"):
        "bf525819b3cca522b98ab7efbd55e56e09764e516afba1d241bd401fd65a8093",
    ("variation", "audit"): "a4fb98588cfba084a966228edbd3d22ad604517cb171147b327b5f3bde8425e2",
    ("aomoto",): "a52e797731480d84fe23c4fbd18bd907810e9a4bd7f270605b03403c3dcd2187",
    ("aomoto", "symbol"): "b14c0169bf3d1e7a269ddbad05f32856af18af84ef2c7db2dfb894460ce4bb08",
    ("aomoto", "components"):
        "5ba7ba748da39e504f1c8b6bee231635450b8c4536c9ab1182b8255d71b53d24",
    ("aomoto", "hierarchy"): "4f0527fb58dd243f35f7d4a34553728f319e844e55a99c6d444909de994b4a0e",
    ("track",): "936401b883f7768e530ce2c96ba43d7c1d6ce59d731e711ff880ddb024dcf6b3",
    ("analyze",): "86f322277c0f44985c3c53e864874111d4068be6ddb115b92c4f9b74c7e28127",
}


@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
def test_help_prints_the_recorded_bytes(capsys, monkeypatch, argv):
    import hashlib

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[argv]


# usage errors: a command group without its action, a leaf without its
# required argument or option, and `hierarchy` without a source
USAGE_ERRORS = {
    ("landau",):
        "usage: landauvar landau [-h] {oneloop,fixture,eliminate} ...\n"
        "landauvar landau: error: the following arguments are required: action\n",
    ("variation", "audit"):
        "usage: landauvar variation audit [-h] [--max-len MAX_LEN]\n"
        "                                 [--format {text,json}]\n"
        "                                 model\n"
        "landauvar variation audit: error: the following arguments are required: model\n",
    ("aomoto", "symbol"):
        "usage: landauvar aomoto symbol [-h] --n N [--format {text,json}]\n"
        "landauvar aomoto symbol: error: the following arguments are required: --n\n",
    ("hierarchy",):
        "usage: landauvar hierarchy [-h]\n"
        "                           (--graph GRAPH | --fixture FIXTURE | --model MODEL"
        " | --aomoto AOMOTO)\n"
        "                           [--dot] [--check CHECK] [--format {text,json}]\n"
        "landauvar hierarchy: error: one of the arguments --graph --fixture --model"
        " --aomoto is required\n",
}


@pytest.mark.parametrize("argv", sorted(USAGE_ERRORS))
def test_usage_errors_print_the_recorded_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == USAGE_ERRORS[argv]


# -- the JSON writer -----------------------------------------------------------------

# strings with non-ASCII characters, a lone surrogate and characters that need escapes
json_text = st.text(st.sampled_from("a \"\\/\n\t\x00\x7f\u00e9\u2603\U0001f600\ud800"),
                    max_size=4)
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | json_text)


# one dict drawn once per example and placed at several depths of its document
shared_record = st.shared(st.dictionaries(json_text, json_scalars | st.lists(json_scalars),
                                          min_size=1, max_size=3), key="record")


def extend_json(children):
    """Lists, tuples and dicts of `children`; each dict has keys of one type,
    which the encoder coerces to strings."""
    keyed = [st.dictionaries(keys, children, max_size=3) for keys in
             (json_text, st.integers(), st.floats(), st.booleans(), st.none())]
    return st.one_of(st.lists(children, max_size=3),
                     st.lists(children, max_size=3).map(tuple), *keyed)


json_trees = st.recursive(json_scalars | shared_record, extend_json, max_leaves=8)


@st.composite
def shared_documents(draw):
    """A document in which one dict, and one subtree, occur at several depths."""
    shared, tree = draw(shared_record), draw(json_trees)
    doc = [shared, {"shared": shared, "tree": tree}, (tree, [shared, []], {})]
    return draw(st.sampled_from([doc, {"doc": doc, "\u00e9\n": shared}, [tree], tree]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=shared_documents())
@example(doc=[{"I": [1], "J": []}] * 3 + [float("nan"), float("inf"), -0.0, True, None])
@example(doc={"\x00\u2603": (), "i": {2: [], -1: {}}, "f": {1.5: 0, float("-inf"): 1},
              "b": {False: 0.5, True: 1e300}, "n": {None: "\ud800"}})
def test_json_writer_equals_the_encoder(doc):
    from landauvar.cli import _chunks

    if isinstance(doc, str):  # a string is printed as it is, not as JSON
        doc = [doc]
    expected = json.JSONEncoder(indent=2, sort_keys=True).encode(doc) + "\n"
    assert "".join(_chunks(doc, "json")) == expected


def fresh_process_stdout(*argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import landauvar

    env = dict(os.environ, PYTHONPATH=str(Path(landauvar.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "landauvar.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_cli_import_leaves_numpy_unloaded_until_track():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import landauvar

    script = (
        "import sys\n"
        "import landauvar.cli\n"
        "landauvar.cli.build_parser()\n"
        "assert 'numpy' not in sys.modules, 'import landauvar.cli loaded numpy'\n"
        "code = landauvar.cli.main(['track', 'bubble', '--chart', 'x1=1', '--var', 'x2',\n"
        "                           '--loop', 'psq:center=9,r=0.1', '--fix', 'm1sq=1,m2sq=4',\n"
        "                           '--format', 'json'])\n"
        "assert code == 0 and 'numpy' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(landauvar.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["permutation"] == [1, 0]


def fresh_process_json(script, *argv):
    """The JSON that `script` prints, run in a fresh interpreter with `argv`."""
    import os
    import subprocess
    from pathlib import Path

    import landauvar

    env = dict(os.environ, PYTHONPATH=str(Path(landauvar.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


# the names of landauvar's own modules, and numpy, whose bodies have run: an
# unloaded submodule is a LazyLoader module, whose type test loads nothing
LOADED_MODULES = (
    "import contextlib, io, json, sys, types\n"
    "def loaded():\n"
    "    return sorted(key for key, m in sys.modules.items() if type(m) is types.ModuleType\n"
    "                  and (key == 'numpy' or key.split('.')[0] == 'landauvar'))\n"
    "import landauvar.cli\n"
    "landauvar.cli.build_parser()\n"
    "start = loaded()\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = landauvar.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(json.dumps([code, start, sorted(set(loaded()) - set(start))]))\n"
)


@pytest.mark.parametrize("argv, added", [
    ([], []),
    (["homrank", "--n", "2", "--m", "1", "--I", "1", "--degree", "1"],
     ["landauvar.localhom", "landauvar.poly"]),
    (["symanzik", "bubble"], ["landauvar.graphs", "landauvar.poly"]),
    (["track", "bubble", "--chart", "x1=1", "--var", "x2", "--loop", "psq:center=9,r=0.1",
      "--fix", "m1sq=1,m2sq=4"],
     ["landauvar.graphs", "landauvar.poly", "landauvar.tracking", "numpy"]),
], ids=["start-up", "homrank", "symanzik", "track"])
def test_start_up_runs_only_the_cli_and_a_command_only_the_modules_it_uses(argv, added):
    code, start, loaded = fresh_process_json(LOADED_MODULES, *argv)
    assert code == 0
    assert start == ["landauvar", "landauvar.cli"]
    assert loaded == added


# the package's public names, each with the submodule that defines it, as
# eager imports in landauvar/__init__.py once exported them
PACKAGE_EXPORTS = {
    "poly": ["Polynomial", "PolyMatrix", "determinant", "divides", "parse", "resultant"],
    "graphs": ["BUILTIN_GRAPHS", "Edge", "FeynmanGraph", "contract", "load_graph",
               "symanzik_F", "symanzik_U"],
    "landau": ["LandauComponent", "OneLoopMatrices", "bubble_split",
               "eliminate_critical_values", "fixture_landau", "gram_matrix",
               "icecream_ellA12", "icecream_ellA12_printed", "oneloop_landau",
               "split_component"],
    "hierarchy": ["HierarchyRelation", "Verdict", "compatible", "hierarchy_graph", "to_dot",
                  "word_vanishes"],
    "localhom": ["PinchConfig", "local_rank", "normalize_word", "operator",
                 "pairing_transfer_sign", "parse_word", "partialK_reduction_sign",
                 "pinch_config", "pl_sign", "vanishing_cycle_sign"],
    "variation": ["VariationModel", "builtin_model", "check_against_hierarchy", "compose",
                  "model_from_json", "model_to_json", "nilpotency_index", "pl_operator",
                  "word_zero_certificate"],
    "aomoto": ["aomoto_components", "aomoto_edges", "aomoto_symbol", "maximal_chain_value"],
    "tracking": ["Loop", "ParametricRootSystem", "TrackResult", "track"],
}


def test_package_exports_each_submodule_object_and_registers_every_submodule():
    import importlib

    import landauvar

    names = [*PACKAGE_EXPORTS, *itertools.chain(*PACKAGE_EXPORTS.values())]
    assert len(names) == len(set(names)) == 64
    for module, exported in PACKAGE_EXPORTS.items():
        home = importlib.import_module(f"landauvar.{module}")
        assert getattr(landauvar, module) is home is sys.modules[f"landauvar.{module}"]
        for name in exported:
            assert getattr(landauvar, name) is getattr(home, name), name
    namespace = {}
    exec("from landauvar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
    assert all(namespace[name] is getattr(landauvar, name) for name in names)
    assert set(names) <= set(dir(landauvar))
    with pytest.raises(AttributeError, match="has no attribute 'symanzik'"):
        landauvar.symanzik
    # perfbench/tracer.py finds each submodule in sys.modules when it installs
    registered = fresh_process_json(
        "import json, sys\nimport landauvar.cli\n"
        "print(json.dumps(sorted(k for k in sys.modules if k.startswith('landauvar.'))))\n")
    assert registered == sorted(["landauvar.cli", *(f"landauvar.{m}" for m in PACKAGE_EXPORTS)])


def test_reused_parser_gives_fresh_process_output(capsys):
    # the parser is built once per process; an `append` option given in one
    # command must not leak into the next
    track = ["track", "bubble", "--chart", "x1=1", "--var", "x2",
             "--loop", "psq:center=9,r=0.1,steps=64", "--fix", "m1sq=1,m2sq=4",
             "--format", "json"]
    check = ["hierarchy", "--graph", "bubble", "--check", "word=lF/1,lF+"]
    commands = [track + ["--mark", "0"], track, check, check, check[:3]]
    outputs = []
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs.append(out)
    assert json.loads(outputs[0])["windings"] == [[0], [0]]
    assert json.loads(outputs[1])["windings"] == [[], []]
    assert outputs[2] == outputs[3]
    assert "verdict" in outputs[2] and "verdict" not in outputs[4]
    for argv, out in zip(commands, outputs):
        assert out == fresh_process_stdout(*argv)


def test_analyze_track_names_unbound_fiber_variables(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "bubble", "--track-loop", "psq:center=9,r=0.1",
        "--track-var", "x2", "--track-fix", "m1sq=1,m2sq=4",
    )
    assert out == ""
    assert_clean_error(code, err)
    assert "fiber variables ['x1'] not bound by --track-chart" in err


def refuse_to_walk(monkeypatch):
    from landauvar import hierarchy, variation

    def no_walk(*args, **kwargs):
        raise AssertionError("the audit started")

    monkeypatch.setattr(hierarchy.ForcedZeroRule, "forced_extensions", no_walk)
    monkeypatch.setattr(variation, "mat_mul", no_walk)


def test_audit_over_count_table_budget_is_refused_before_walking(capsys, monkeypatch):
    # the logarithm's unforced words stop at two letters, so only the table
    # of exact word counts grows with --max-len
    refuse_to_walk(monkeypatch)
    code, out, err = run_cli(capsys, "variation", "audit", "logarithm",
                             "--max-len", "100000")
    assert out == ""
    assert_clean_error(code, err)
    assert "40026000000 bits of exact word counts" in err


def test_audit_counts_the_products_it_builds(tmp_path, capsys, monkeypatch):
    # with l1's one nonzero entry unknown the bubble is walked: 2033 products
    # at --max-len 8 and 4081 at 9, while the plain bubble builds one product
    # per forbidden pair at any length
    from landauvar import variation

    doc = variation.model_to_json(variation.builtin_model("bubble"))
    doc["ops"]["l1"][1][0] = None
    path = tmp_path / "bubble-l1-entry-unknown.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(variation, "AUDIT_PRODUCT_BUDGET", 2033)
    code, out, _ = run_cli(capsys, "variation", "audit", str(path), "--max-len", "8",
                           "--format", "json")
    assert code == 0 and json.loads(out)["words_checked"] == 487260
    code, out, err = run_cli(capsys, "variation", "audit", str(path), "--max-len", "9")
    assert out == ""
    assert_clean_error(code, err)
    assert "more than the budget of 2033 matrix products" in err
    code, out, _ = run_cli(capsys, "variation", "audit", "bubble", "--max-len", "17",
                           "--format", "json")
    assert code == 0 and json.loads(out)["words_checked"] == 953673792121


def test_audit_budget_counts_unknown_entry_words(tmp_path, capsys, monkeypatch):
    # with every entry of l1 unknown no prefix through l1 composes to zero,
    # so the walk and the image-span tails multiply letter by letter
    from landauvar import variation

    doc = variation.model_to_json(variation.builtin_model("bubble"))
    doc["ops"]["l1"] = [[None] * 3 for _ in range(3)]
    path = tmp_path / "bubble-l1-unknown.json"
    path.write_text(json.dumps(doc))
    products = []
    real = variation.mat_mul
    monkeypatch.setattr(variation, "mat_mul",
                        lambda a, b: products.append(1) or real(a, b))
    code, out, _ = run_cli(capsys, "variation", "audit", str(path), "--max-len", "4",
                           "--format", "json")
    assert code == 0 and json.loads(out)["unverified"]
    budget = len(products) - 1
    monkeypatch.setattr(variation, "AUDIT_PRODUCT_BUDGET", budget)
    code, out, err = run_cli(capsys, "variation", "audit", str(path), "--max-len", "4")
    assert out == ""
    assert_clean_error(code, err)
    assert f"more than the budget of {budget} matrix products" in err


def test_audit_multiplies_only_integer_matrices(tmp_path, capsys, monkeypatch):
    # the rescaled bubble's operators have fractional entries; the walk and
    # the image-span tails multiply their cleared integer multiples
    from landauvar import variation

    doc = rescaled_model_document("rescaled-bubble")
    unknown = copy.deepcopy(doc)
    unknown["ops"]["l1"] = [[None] * 3 for _ in range(3)]
    entries = []
    real = variation.mat_mul
    monkeypatch.setattr(variation, "mat_mul", lambda a, b: entries.extend(
        type(x) for m in (a, b) for row in m for x in row) or real(a, b))
    for name, data in (("rescaled", doc), ("l1-unknown", unknown)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "variation", "audit", str(path), "--max-len", "5",
                               "--format", "json")
        assert code == 0 and json.loads(out)["words_checked"]
    assert any("/" in x for row in doc["ops"]["lD+"] for x in row)
    assert entries and set(entries) <= {int, type(None)}, set(entries)


@pytest.mark.parametrize("argv", [["variation", "table"], ["hierarchy", "--model"]])
def test_commands_that_multiply_no_operator_clear_none(capsys, monkeypatch, argv):
    from landauvar import variation

    sizes = []
    real = variation._integral
    monkeypatch.setattr(variation, "_integral", lambda m: sizes.append(len(m)) or real(m))
    for model in ("logarithm", "bubble", "dilog", "massless-triangle"):
        code, out, _ = run_cli(capsys, *argv, model)
        assert code == 0 and out
    # the span tests clear one vector at a time; every operator is 2x2 or larger
    assert set(sizes) <= {1}
    code, _, _ = run_cli(capsys, "variation", "compose", "bubble", "w=l1")
    assert code == 0 and sizes.count(3) == 5


def test_audit_of_a_walk_without_products_is_admitted_at_any_length(capsys):
    # the massless triangle's relation is complete: it forces no word, so its
    # walk builds no product however long the words
    code, out, _ = run_cli(capsys, "variation", "audit", "massless-triangle",
                           "--max-len", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["words_checked"] == 0


def write_cycle(tmp_path, n):
    path = tmp_path / f"cycle{n}.json"
    path.write_text(json.dumps({
        "vertices": [f"v{k}" for k in range(n)],
        "edges": [{"id": str(k + 1), "ends": [f"v{k}", f"v{(k + 1) % n}"],
                   "mass": f"m{k + 1}", "var": f"x{k + 1}"} for k in range(n)],
    }))
    return str(path)


def test_oneloop_over_edge_budget_is_refused_before_any_determinant(
        tmp_path, capsys, monkeypatch):
    from landauvar import landau

    def no_components(*args, **kwargs):
        raise AssertionError("oneloop_landau started")

    monkeypatch.setattr(landau, "oneloop_landau", no_components)
    nonagon = write_cycle(tmp_path, 9)
    for argv in (["landau", "oneloop", nonagon], ["hierarchy", "--graph", nonagon],
                 ["analyze", nonagon]):
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert "9 edges" in err and "budget of 8 edges" in err


def test_oneloop_edge_budget_admits_eight_edges(tmp_path, capsys, monkeypatch):
    from landauvar import landau

    reached = []
    monkeypatch.setattr(landau, "oneloop_landau", lambda g: reached.append(g) or [])
    code, out, _ = run_cli(capsys, "landau", "oneloop", write_cycle(tmp_path, 8),
                           "--format", "json")
    assert code == 0 and json.loads(out) == []
    assert len(reached) == 1 and len(reached[0].edges) == 8


def write_graph(tmp_path, name, vertices, pairs):
    """A graph document with the given edges and two legs, written to a file."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "vertices": vertices,
        "edges": [{"id": str(k + 1), "ends": list(ends), "mass": f"m{k + 1}",
                   "var": f"x{k + 1}"} for k, ends in enumerate(pairs)],
        "legs": [{"vertex": vertices[0], "momentum": "p1"},
                 {"vertex": vertices[-1], "momentum": "p2"}],
        "channels": {"p1": "psq"},
    }))
    return str(path)


def ladder(loops):
    """The planar ladder of `loops` boxes in a row."""
    top = [f"a{k}" for k in range(loops + 1)]
    bottom = [f"b{k}" for k in range(loops + 1)]
    pairs = (list(zip(top, top[1:])) + list(zip(bottom, bottom[1:]))
             + list(zip(top, bottom)))
    return top + bottom, pairs


def complete(n):
    """The complete graph on `n` vertices."""
    vertices = [f"v{k}" for k in range(n)]
    return vertices, list(itertools.combinations(vertices, 2))


def test_symanzik_budget_refuses_before_any_forest(tmp_path, capsys, monkeypatch):
    from landauvar import graphs

    walks = []
    real = graphs.FeynmanGraph._forests

    def trees_only(self, k):
        walks.append(k)
        assert k == 1, "a 2-forest walk started"
        return real(self, k)

    monkeypatch.setattr(graphs.FeynmanGraph, "_forests", trees_only)
    for argv in graph_commands(write_graph(tmp_path, "k7", *complete(7))):
        walks.clear()
        code, out, err = run_cli(capsys, *argv)
        assert out == "", argv
        assert_clean_error(code, err)
        if "symanzik" in argv or "eliminate" in argv or "track" in argv:
            assert "at least 5556 spanning trees" in err and "budget of 150000" in err, argv
            assert "(|V| - 1 + |E|) >= 150012" in err
            assert walks == [1], argv
        else:  # the one-loop commands enumerate no forest
            assert err == "error: graph is not one-loop\n", argv
            assert walks == [], argv


def chain(n, closed):
    """The path of `n` edges, or with `closed` the cycle of `n` edges."""
    vertices = [f"v{k}" for k in range(n if closed else n + 1)]
    return vertices, [(vertices[k], vertices[(k + 1) % len(vertices)]) for k in range(n)]


# a 500-edge path took 24 s, a 999-edge one overflowed the forest recursion
# and a 2000-edge cycle spent 9.6 s and 263 MB on its Laplacian
@pytest.mark.parametrize("n, closed, sizes", [
    (500, False, "501 vertices and 500 edges"),
    (999, False, "1000 vertices and 999 edges"),
    (2000, True, "2000 vertices and 2000 edges"),
    (65, False, "66 vertices and 65 edges"),
], ids=["path500", "path999", "cycle2000", "path65"])
def test_graph_size_budget_refuses_before_any_tree_count(tmp_path, capsys, monkeypatch,
                                                         n, closed, sizes):
    from landauvar import graphs

    def no_count(*args):
        raise AssertionError("forest enumeration started")

    monkeypatch.setattr(graphs.FeynmanGraph, "spanning_forests", no_count)
    monkeypatch.setattr(graphs.FeynmanGraph, "_forests", no_count)
    path = write_graph(tmp_path, f"chain{n}", *chain(n, closed))
    for argv in graph_commands(path):
        code, out, err = run_cli(capsys, *argv)
        assert out == "", argv
        assert_clean_error(code, err)
        assert (f"error: graph with {sizes} is over the size budget of 64 vertices and 64"
                " edges\n") == err, argv


def test_graph_size_budget_admits_the_64_edge_cycle(tmp_path, capsys):
    path = write_graph(tmp_path, "cycle64", *chain(64, True))
    code, out, _ = run_cli(capsys, "symanzik", path, "--format", "json")
    assert code == 0 and len(json.loads(out)["U"].split(" + ")) == 64


def kirchhoff_trees(g):
    """The number of spanning trees of `g` by Kirchhoff's theorem: the
    determinant of its Laplacian without the first vertex's row and column,
    by Gaussian elimination over Fractions."""
    index = {v: k for k, v in enumerate(g.vertices[1:])}
    size = len(index)
    lap = [[Fraction(0)] * size for _ in range(size)]
    for e in g.edges:
        if e.ends[0] == e.ends[1]:  # a self-loop is in no tree
            continue
        a, b = (index.get(v) for v in e.ends)
        for i, j in ((a, b), (b, a)):
            if i is not None:
                lap[i][i] += 1
                if j is not None:
                    lap[i][j] -= 1
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if lap[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            lap[col], lap[pivot] = lap[pivot], lap[col]
            det = -det
        det *= lap[col][col]
        for r in range(col + 1, size):
            f = lap[r][col] / lap[col][col]
            lap[r] = [x - f * y for x, y in zip(lap[r], lap[col])]
    return det


def test_symanzik_budget_admits_the_six_loop_ladder(tmp_path, capsys, monkeypatch):
    from pathlib import Path

    from test_graphs import spanning_trees_oracle

    from landauvar import graphs

    for loops in (1, 2, 3):
        g = graphs.load_graph(json.loads(Path(write_graph(
            tmp_path, f"small{loops}", *ladder(loops))).read_text()))
        assert kirchhoff_trees(g) == len(spanning_trees_oracle(g))
    reached = []
    monkeypatch.setattr(graphs, "symanzik_F", lambda g, u=None: reached.append(g) or parse("1"))
    for loops, trees in ((6, 2911), (7, 10864)):
        path = write_graph(tmp_path, f"ladder{loops}", *ladder(loops))
        code, _, err = run_cli(capsys, "symanzik", path)
        assert (code == 0) == (loops == 6)
        g = graphs.load_graph(json.loads(Path(path).read_text()))
        assert kirchhoff_trees(g) == trees
    assert "at least 4055 spanning trees" in err
    assert len(reached) == 1


@pytest.mark.parametrize("name, graph, trees", [("k7", complete(7), 5556),
                                                 ("ladder7", ladder(7), 4055)])
def test_tree_walk_stops_at_the_first_tree_over_the_term_budget(tmp_path, capsys, monkeypatch,
                                                                name, graph, trees):
    # the first t with t * (|V| - 1 + |E|) over 150000: K7 has w = 27, the
    # 7-loop ladder w = 37
    from pathlib import Path

    from landauvar import graphs

    walks = []  # [k, forests yielded] for each walk
    real = graphs.FeynmanGraph._forests

    def counted(self, k):
        walk = [k, 0]
        walks.append(walk)
        for forest in real(self, k):
            walk[1] += 1
            yield forest

    monkeypatch.setattr(graphs.FeynmanGraph, "_forests", counted)
    path = write_graph(tmp_path, name, *graph)
    for argv in graph_commands(path):
        if "symanzik" in argv or "eliminate" in argv or "track" in argv:
            walks.clear()
            code, out, err = run_cli(capsys, *argv)
            assert out == "", argv
            assert_clean_error(code, err)
            assert f"at least {trees} spanning trees" in err and "budget of 150000" in err
            assert walks == [[1, trees]], argv
    walks.clear()
    with pytest.raises(graphs.GraphError, match="budget of 150000 Symanzik terms"):
        graphs.symanzik_F(graphs.load_graph(json.loads(Path(path).read_text())))
    assert walks == [[1, trees]]


def test_graph_with_no_edge_passes_a_zero_term_budget(tmp_path, capsys, monkeypatch):
    from landauvar import graphs

    monkeypatch.setattr(graphs, "SYMANZIK_TERM_BUDGET", 0)
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": ["v"], "edges": []}))
    assert run_cli(capsys, "symanzik", str(path)) == (0, "U: 1\nF: 0\n", "")


@pytest.mark.parametrize("argv", [["symanzik", "bubble"], ["analyze", "bubble"]])
def test_symanzik_and_analyze_enumerate_the_trees_once(capsys, monkeypatch, argv):
    from landauvar import graphs

    calls = []
    real = graphs.symanzik_U
    monkeypatch.setattr(graphs, "symanzik_U", lambda g: calls.append(g) or real(g))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 1


def test_chart_errors_name_the_option_variable_and_value(capsys):
    track = ["--var", "x2", "--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=4"]
    analyze = ["analyze", "bubble", "--track-chart", "x1=1", "--track-var", "x2"]
    cases = [
        (["landau", "eliminate", "bubble", "--chart", "x9=1"],
         "--chart binds 'x9', which does not occur in F"),
        (["landau", "eliminate", "bubble", "--chart", "x1=1/2"],
         "--chart x1=1/2: the value must be an integer"),
        (["track", "bubble", "--chart", "x9=1"] + track,
         "--chart binds 'x9', which does not occur in F"),
        (["analyze", "bubble", "--track-loop", "psq:center=9,r=0.1", "--track-var",
          "x2", "--track-chart", "x1=one", "--track-fix", "m1sq=1,m2sq=4"],
         "--track-chart x1=one: the value must be an integer"),
        (["track", "bubble", "--chart", "x1=1"] + track + ["--fix", "m1sq=abc,m2sq=4"],
         "--fix m1sq=abc: the value must be a number"),
        (["track", "bubble", "--chart", "x1=1"] + track + ["--mark", "abc"],
         "--mark abc: the value must be a number"),
        (analyze + ["--track-loop", "psq:center=9,r=0.1", "--track-fix", "m1sq=1,m2sq=4j+"],
         "--track-fix m2sq=4j+: the value must be a number"),
        (analyze + ["--track-loop", "psq:center=9,r=0.1", "--track-fix", "m1sq=1,m2sq=4",
                    "--track-mark", "0", "--track-mark", "1/2"],
         "--track-mark 1/2: the value must be a number"),
        # a name that is not in F binds nothing, and a loop over it tracks a
        # constant family
        (["track", "bubble", "--chart", "x1=1"] + track + ["--fix", "m1sq=1,m2sq=4,m3sq=7"],
         "--fix binds 'm3sq', which does not occur in F"),
        (["track", "bubble", "--chart", "x1=1", "--var", "x2", "--loop", "zz:center=9,r=1",
          "--fix", "m1sq=1,m2sq=4,psq=20"],
         "--loop varies 'zz', which does not occur in F under --chart"),
        (["track", "bubble", "--chart", "x1=1", "--var", "x2", "--loop", "x1:center=9,r=1",
          "--fix", "m1sq=1,m2sq=4,psq=20"],
         "--loop varies 'x1', which does not occur in F under --chart"),
        (analyze + ["--track-loop", "psq:center=9,r=0.1", "--track-fix", "m1sq=1,m3sq=4"],
         "--track-fix binds 'm3sq', which does not occur in F"),
        (analyze + ["--track-loop", "zz:center=9,r=0.1", "--track-fix", "m1sq=1,m2sq=4"],
         "--track-loop varies 'zz', which does not occur in F under --track-chart"),
        # a binding of the chart variable or the tracked variable is ignored,
        # and a loop over the tracked variable moves no coefficient
        (["track", "bubble", "--chart", "x1=1"] + track + ["--fix", "m1sq=1,m2sq=4,x2=3"],
         "--fix binds 'x2', the variable that --var tracks"),
        (["track", "bubble", "--chart", "x1=1"] + track + ["--fix", "m1sq=1,m2sq=4,x1=5"],
         "--fix binds 'x1', which --chart already binds"),
        (["track", "bubble", "--chart", "x1=1", "--var", "x2", "--loop", "x2:center=9,r=1",
          "--fix", "m1sq=1,m2sq=4,psq=3"],
         "--loop varies 'x2', the variable that --var tracks"),
        (analyze + ["--track-loop", "psq:center=9,r=0.1", "--track-fix", "m1sq=1,m2sq=4,x2=3"],
         "--track-fix binds 'x2', the variable that --track-var tracks"),
        (analyze + ["--track-loop", "psq:center=9,r=0.1", "--track-fix", "m1sq=1,m2sq=4,x1=5"],
         "--track-fix binds 'x1', which --track-chart already binds"),
        (analyze + ["--track-loop", "x2:center=9,r=1", "--track-fix", "m1sq=1,m2sq=4,psq=3"],
         "--track-loop varies 'x2', the variable that --track-var tracks"),
        # the tracked variable must be an edge variable that the chart leaves free
        (["track", "bubble", "--chart", "x1=1", "--var", "zz", "--loop", "psq:center=9,r=1",
          "--fix", "m1sq=1,m2sq=4"],
         "--var 'zz' is not one of the edge variables ['x1', 'x2']"),
        (["track", "bubble", "--chart", "x1=1,x2=1", "--var", "x2", "--loop",
          "psq:center=9,r=1", "--fix", "m1sq=1,m2sq=4"],
         "--chart binds 'x2', the variable that --var tracks"),
        (["analyze", "bubble", "--track-chart", "x1=1", "--track-var", "psq", "--track-loop",
          "m1sq:center=9,r=1", "--track-fix", "m2sq=4"],
         "--track-var 'psq' is not one of the edge variables ['x1', 'x2']"),
        (["analyze", "bubble", "--track-chart", "x2=1", "--track-var", "x2", "--track-loop",
          "psq:center=9,r=1", "--track-fix", "m1sq=1,m2sq=4"],
         "--track-chart binds 'x2', the variable that --track-var tracks"),
        # a long value is echoed cut after ECHO_LIMIT characters
        (["landau", "eliminate", "bubble", "--chart", "x1=" + "a" * 300],
         f"--chart x1={'a' * ECHO_LIMIT}...: the value must be an integer"),
        (["track", "bubble", "--chart", "x1=1"] + track + ["--fix", "m1sq=" + "b" * 300],
         f"--fix m1sq={'b' * ECHO_LIMIT}...: the value must be a number"),
        (["track", "bubble", "--chart", "x1=1"] + track + ["--mark", "c" * 300],
         f"--mark {'c' * ECHO_LIMIT}...: the value must be a number"),
        (["track", "bubble", "--chart", "x1=1"] + track + ["--fix", "m1sq=1," + "q" * 300],
         f"bad assignment {cut(repr('q' * 300))}"),
        (["track", "bubble", "--chart", "x1=1"] + track + ["--fix", "n" * 300 + "=1"],
         f"--fix binds {cut(repr('n' * 300))}, which does not occur in F"),
        (["track", "bubble", "--chart", "x1=1"] + track + ["--var", "v" * 300],
         f"--var {cut(repr('v' * 300))} is not one of the edge variables"),
        (["track", "bubble", "--chart", "x1=1"] + track + ["--loop", "p" * 300 + ":center=9,r=1"],
         f"--loop varies {cut(repr('p' * 300))}, which does not occur in F"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert message in err
        assert len(err.encode()) < 300, argv
    # a name assigned twice is echoed with the whole assignment text, each cut
    code, out, err = run_cli(capsys, "track", "bubble", "--chart", "x1=1", *track, "--fix",
                             "n" * 300 + "=1," + "n" * 300 + "=2")
    assert out == ""
    assert_clean_error(code, err)
    assert err == (f"error: {'n' * ECHO_LIMIT}... is assigned twice in"
                   f" '{'n' * (ECHO_LIMIT - 1)}...\n")


@pytest.mark.parametrize("argv, digits", [
    (["landau", "eliminate", "bubble", "--chart", "x1=" + "7" * 4200], 4200),
    (["landau", "eliminate", "sunrise", "--chart", "x1=" + "7" * 4200], 4200),
    (["landau", "eliminate", "sunrise", "--chart", "x1=-" + "7" * 21], 21),
    # past the interpreter's own limit for reading an integer
    (["landau", "eliminate", "bubble", "--chart", "x1=" + "7" * 5000], 5000),
    (["track", "bubble", "--chart", "x1=" + "7" * 21, "--var", "x2",
      "--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=4"], 21),
], ids=["bubble4200", "sunrise4200", "sunrise21", "bubble5000", "track21"])
def test_chart_integer_over_the_digit_budget_is_refused(capsys, argv, digits):
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert_clean_error(code, err)
    assert err == (f"error: --chart x1: the value has {digits} digits, over the budget of"
                   " 20 digits\n")


def test_chart_integers_at_the_digit_budget_pass(capsys):
    big = "9" * 20
    code, out, err = run_cli(capsys, "landau", "eliminate", "sunrise", "--chart",
                             f"x1={big},m1sq={big},m2sq={big},m3sq={big}")
    assert code == 0 and err == "" and out.startswith("eliminant: ")


def test_eliminant_past_the_interpreters_print_limit_is_a_clean_error(capsys):
    # with the masses bound to 20 digits too, the sunrise's eliminant has a
    # coefficient of about 1160 digits, past the least limit an interpreter takes
    limit = sys.get_int_max_str_digits()
    big = "9" * 20
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "landau", "eliminate", "sunrise", "--chart",
                                 f"x1={big},m1sq={big},m2sq={big},m3sq={big}")
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == ""
    assert_clean_error(code, err)
    assert err == ("error: eliminant has a coefficient of more than 640 digits, the"
                   " interpreter's limit for printing an integer\n")
    # the bound follows the limit in force at each run: none at 0 (no limit),
    # and 640 again after it
    for digits, refused in [(0, False), (640, True)]:
        sys.set_int_max_str_digits(digits)
        try:
            code, out, err = run_cli(capsys, "landau", "eliminate", "sunrise", "--chart",
                                     f"x1={big},m1sq={big},m2sq={big},m3sq={big}")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out == "", "640 digits" in err) == ((1, True, True) if refused
                                                         else (0, False, False)), digits


def bubble_document():
    return {
        "vertices": ["v1", "v2"],
        "edges": [{"id": "1", "ends": ["v1", "v2"], "mass": "m1", "var": "x1"},
                  {"id": "2", "ends": ["v2", "v1"], "mass": "m2", "var": "x2"}],
        "legs": [{"vertex": "v1", "momentum": "p1"},
                 {"vertex": "v2", "momentum": "p2"}],
        "channels": {"p1": "psq"},
    }


def graph_commands(path):
    return [
        ["symanzik", path],
        ["landau", "oneloop", path],
        ["landau", "eliminate", path, "--chart", "x1=1"],
        ["hierarchy", "--graph", path],
        ["analyze", path],
        ["track", path, "--chart", "x1=1", "--var", "x2",
         "--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=4"],
    ]


def test_bubble_document_passes_every_graph_command(tmp_path, capsys):
    path = tmp_path / "bubble.json"
    path.write_text(json.dumps(bubble_document()))
    for argv in graph_commands(str(path)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out and err == "", argv


def set_field(doc, where, value):
    *keys, last = where
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("where, value, message", [
    (["channels"], {"p1": 5}, "channel p1 symbol must be a string, got 5"),
    (["channels"], [1], "channels must be an object, got [1]"),
    (["edges", 0, "id"], 1, "edge id must be a string, got 1"),
    (["edges", 1, "ends", 0], 2, "edge 2 endpoint must be a string, got 2"),
    (["edges", 0, "mass"], None, "edge 1 mass must be a string, got None"),
    (["edges", 1, "var"], ["x2"], "edge 2 var must be a string, got ['x2']"),
    (["legs", 0, "vertex"], 1, "leg vertex must be a string, got 1"),
    (["legs", 1, "momentum"], 2.0, "leg momentum must be a string, got 2.0"),
    (["vertices", 0], 1, "vertex must be a string, got 1"),
    (["vertices"], "v1v2", "vertices must be a list, got 'v1v2'"),
    (["edges", 0, "ends"], ["v1", "v2", "v1"],
     "edge 1 ends must be a list of 2 vertices, got ['v1', 'v2', 'v1']"),
    (["edges", 1, "ends"], ["v1"], "edge 2 ends must be a list of 2 vertices, got ['v1']"),
    (["legs", 1, "momentum"], "p1", "leg momentum p1 is given twice"),
    (["edges", 0, "mass"], DEEP_LIST, "edge 1 mass must be a string, got " + CUT),
    (["legs"], [{"vertex": v, "momentum": LONG_NAME} for v in ("v1", "v2")],
     f"leg momentum {NAME_CUT} is given twice\n"),
    (["edges", 1], {"id": LONG_NAME, "ends": ["v2", 2], "mass": "m2", "var": "x2"},
     f"edge {NAME_CUT} endpoint must be a string, got 2\n"),
    (["channels"], {LONG_NAME: 5}, f"channel {NAME_CUT} symbol must be a string, got 5\n"),
], ids=["channel-symbol", "channels-list", "edge-id", "endpoint", "mass", "var",
        "leg-vertex", "momentum", "vertex", "vertices-string", "three-ends", "one-end",
        "repeated-momentum", "deep-mass", "long-repeated-momentum", "long-edge-id",
        "long-channel-key"])
def test_graph_document_with_a_mistyped_field_is_a_clean_error(
        tmp_path, capsys, where, value, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(set_field(bubble_document(), where, value)))
    for argv in graph_commands(str(path)):
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert f"malformed graph document: {message}" in err, argv


@pytest.mark.parametrize("where, value, message", [
    (["vertices"], [], "graph needs at least one vertex"),
    (["edges", 1, "id"], "1", "edge ids must be pairwise distinct"),
    (["legs", 0, "vertex"], "v9", "leg attached to unknown vertex v9"),
    (["legs", 0, "vertex"], LONG_NAME, f"leg attached to unknown vertex {NAME_CUT}\n"),
    (["edges", 0], {"id": LONG_NAME, "ends": ["v1", "v9"], "mass": "m1", "var": "x1"},
     f"edge {NAME_CUT} has unknown endpoint\n"),
], ids=["no-vertex", "repeated-edge-id", "unknown-leg-vertex", "long-leg-vertex",
        "long-edge-id-unknown-endpoint"])
def test_graph_document_off_the_graph_rules_is_a_clean_error(
        tmp_path, capsys, where, value, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(set_field(bubble_document(), where, value)))
    for argv in graph_commands(str(path)):
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert f"error: {message}" in err, argv


def test_one_loop_graph_with_a_pendant_edge_is_a_clean_error(tmp_path, capsys):
    doc = bubble_document()
    doc["vertices"].append("v3")
    doc["edges"].append({"id": "3", "ends": ["v2", "v3"], "mass": "m3", "var": "x3"})
    path = tmp_path / "pendant.json"
    path.write_text(json.dumps(doc))
    for argv in (["landau", "oneloop", str(path)], ["hierarchy", "--graph", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert "error: one-loop graph must be a single cycle" in err, argv


def test_hierarchy_dot_escapes_double_quotes(tmp_path, capsys):
    doc = bubble_document()
    doc["edges"][0]["id"] = 'a"b'
    path = tmp_path / "quote.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "hierarchy", "--graph", str(path), "--dot")
    assert code == 0
    assert '    "lF/a\\"b" [label="lF/a\\"b\\nJ={A2} K={Ba\\"b}"];\n' in out
    assert '    "lF/a\\"b" -> "lF+";\n' in out
    # each statement is quoted strings with every inner double quote escaped
    string = r'"(?:[^"\\]|\\.)*"'
    statement = re.compile(rf" {{4}}{string}(?: -> {string}| \[label={string}\]);")
    body = out.strip().splitlines()[1:-1]
    assert body and all(statement.fullmatch(line) for line in body)


def test_hierarchy_dot_escapes_backslashes(tmp_path, capsys):
    doc = bubble_document()
    doc["edges"][0]["id"] = "a\\"
    path = tmp_path / "backslash.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "hierarchy", "--graph", str(path), "--dot")
    assert code == 0
    # the backslash is written \\ and the label's line break stays \n
    assert r'    "lF/a\\" [label="lF/a\\\nJ={A2} K={Ba\\}"];' + "\n" in out
    assert r'    "lF/a\\" -> "lF+";' + "\n" in out
    string = r'"(?:[^"\\]|\\.)*"'
    statement = re.compile(rf" {{4}}{string}(?: -> {string}| \[label={string}\]);")
    body = out.strip().splitlines()[1:-1]
    assert body and all(statement.fullmatch(line) for line in body)


@pytest.mark.parametrize("argv, message", [
    (["aomoto", "symbol", "--n", "0"], "weight must be at least 1"),
    (["variation", "compose", "bubble", "w=zz"], "unknown component id 'zz'"),
    (["variation", "audit", "bubble", "--max-len", "-1"],
     "max_len must be a nonnegative integer, got -1"),
    (["variation", "table", "bubbel"], "unknown model 'bubbel'; choose from ['bubble',"
     " 'dilog', 'logarithm', 'massless-triangle'] or the path of a model document"
     " (No such file or directory)"),
    (["variation", "table", "."], "[Errno 21] Is a directory: '.'"),
], ids=["zero-weight", "unknown-letter", "negative-max-len", "unknown-model", "unreadable-model"])
def test_zero_weight_and_unknown_letter_are_clean_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert_clean_error(code, err)
    assert f"error: {message}" in err


def test_non_finite_tracking_input_is_a_clean_error(capsys):
    track = ["track", "bubble", "--chart", "x1=1", "--var", "x2"]
    analyze = ["analyze", "bubble", "--track-chart", "x1=1", "--track-var", "x2"]
    cases = [
        (track + ["--loop", "psq:center=inf,r=1", "--fix", "m1sq=1,m2sq=4"],
         "loop center and radius must be finite, got center=(inf+0j), r=1.0"),
        (track + ["--loop", "psq:center=9,r=nan", "--fix", "m1sq=1,m2sq=4"],
         "must be finite, got center=(9+0j), r=nan"),
        (track + ["--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=1e400"],
         "frozen value m2sq=1e400 must be finite"),
        (track + ["--loop", "psq:center=9,r=0.1", "--fix", "m1sq=nan,m2sq=4"],
         "frozen value m1sq=nan must be finite"),
        (analyze + ["--track-loop", "psq:center=9,r=0.1",
                    "--track-fix", "m1sq=1,m2sq=-inf"],
         "frozen value m2sq=-inf must be finite"),
        (track + ["--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=4", "--mark", "inf"],
         "marked point (inf+0j) must be finite"),
        (track + ["--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=4", "--mark", "nan"],
         "marked point (nan+0j) must be finite"),
        (track + ["--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=4",
                  "--mark", "0", "--mark", "1e400"],
         "marked point (inf+0j) must be finite"),
        (analyze + ["--track-loop", "psq:center=9,r=0.1", "--track-fix", "m1sq=1,m2sq=4",
                    "--track-mark", "nan"],
         "marked point (nan+0j) must be finite"),
        # 5000 digits read as inf, and are echoed cut after ECHO_LIMIT characters
        (track + ["--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=" + "9" * 5000],
         f"frozen value m2sq={'9' * ECHO_LIMIT}... must be finite"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert message in err, argv
        assert len(err.encode()) < 300, argv


@pytest.mark.parametrize("options", [
    ["track", "bubble", "--chart", "x1=1", "--var", "x2", "--loop", "psq:center=9,r=0.1",
     "--fix", "m1sq=1,m2sq=4", "--format", "json", "--mark", "0", "--mark"],
    ["analyze", "bubble", "--track-loop", "psq:center=9,r=0.1", "--track-chart", "x1=1",
     "--track-var", "x2", "--track-fix", "m1sq=1,m2sq=4", "--track-mark", "0", "--track-mark"],
], ids=["track", "analyze"])
def test_marked_point_whose_winding_overflows_is_a_clean_error(capsys, options):
    # the phase of (x - z) / (r - z) is NaN once the quotient overflows; a far
    # mark whose quotient stays finite winds 0 times
    *options, flag = options
    for mark in ["1e300", "1e307+1e307j"]:
        code, out, _ = run_cli(capsys, *options, f"{flag}={mark}")
        assert code == 0
        report = json.loads(out)
        assert (report.get("track") or report)["windings"] == [[0, 0], [0, 0]]
    for mark in ["1e308+1e308j", "-1e308-1e308j"]:
        code, out, err = run_cli(capsys, *options, f"{flag}={mark}")
        assert out == ""
        assert_clean_error(code, err)
        assert (f"error: winding around marked point {complex(mark)} is out of"
                " floating-point range") in err


def triangle_model_document():
    from landauvar.variation import builtin_model, model_to_json

    return model_to_json(builtin_model("massless-triangle"))


@pytest.mark.parametrize("where, value, message", [
    (["vanishing", "ldelta", 0], [None, 0, 0, 0, 2],
     "vanishing vector of ldelta has an unknown (null) entry"),
    (["intersection_rows", "l2"], ["1", "0", None, "0", "0"],
     "intersection row of l2 has an unknown (null) entry"),
    (["ops", "l1", 0, 0], "1/0", "not an exact rational entry: '1/0'"),
    (["vanishing", "l3", 1, 4], "1/0", "not an exact rational entry: '1/0'"),
    (["intersection_rows", "l1"], ["0", "1/0", "0", "0", "0"],
     "not an exact rational entry: '1/0'"),
    (["components", 1, "defining"], "1/0*p2sq", "bad rational constant 1/0"),
    (["conventions"], [1], "conventions must be an object, got [1]"),
    (["basis", 0], [], "basis must be a list of strings, got [[], 'nu1'"),
    (["components", 0, "type_J"], [None], "l1 type_J must be a list of strings"),
    (["boundary_K", "sigma"], [1, "B1"], "boundary_K of sigma must be a list of strings"),
    (["components", 3, "parity"], 0.5, "ldelta: parity must be an integer, got 0.5"),
    (["components", 3, "parity"], True, "ldelta: parity must be an integer, got True"),
    (["n"], True, "n must be a nonnegative integer, got True"),
    (["n"], 1.5, "n must be a nonnegative integer, got 1.5"),
    (["n"], -1, "n must be a nonnegative integer, got -1"),
    (["vanishing", "l4"], [["0", "1", "0", "0", "0"]], "vanishing names no component: l4"),
    (["intersection_rows", "lx"], ["0"] * 5, "intersection_rows names no component: lx"),
    (["basis", 1], "sigma", "basis label sigma is given twice"),
    (["basis"], [LONG_NAME, LONG_NAME, "nu2", "nu3", "mu"],
     f"basis label {NAME_CUT} is given twice\n"),
    (["vanishing", LONG_NAME], [["0", "1", "0", "0", "0"]],
     f"vanishing names no component: {NAME_CUT}\n"),
    (["components", 0], dict(triangle_model_document()["components"][0], id=LONG_NAME,
                             parity=0),
     f"{NAME_CUT}: parity undefined for general critical sets\n"),
    (["components", 0], dict(triangle_model_document()["components"][0], id=LONG_NAME,
                             type_J="A1"),
     f"{NAME_CUT} type_J must be a list of strings, got 'A1'\n"),
    (["components"], triangle_model_document()["components"] * 2,
     "component id l1 is given twice"),
    (["name"], 7, "model name must be a string, got 7"),
    (["boundary_K", "sgima"], ["B1"], "boundary_K names no basis label: sgima"),
    (["coboundary_J", "nu9"], ["A2"], "coboundary_J names no basis label: nu9"),
    (["ops", "l1", 0, 0], True, "not an exact rational entry: True"),
    (["intersection_rows", "l1"], [0.5, "0", "0", "0", "0"],
     "not an exact rational entry: 0.5"),
    (["ops"], {cid: m for cid, m in triangle_model_document()["ops"].items() if cid != "l1"},
     "ops must cover exactly the model components"),
    (["components", 1, "defining"], "(" * 3000 + "p2sq" + ")" * 3000,
     "expression is nested too deeply"),
    (["components", 1, "defining"], "(p1sq+p2sq+p3sq)^3000",
     "exponent 3000 is over the budget of 400"),
    (["components", 0, "pinch"], "cubic", "bad pinch kind 'cubic'"),
    (["components", 3, "parity"], None, "ldelta: quadratic pinch needs parity n-m >= 0"),
    (["components", 0, "parity"], 1, "l1: parity undefined for general critical sets"),
    (["name"], DEEP_LIST, "model name must be a string, got " + CUT),
    (["ops", "l1", 0, 0], DEEP_LIST, "not an exact rational entry: " + CUT),
    (["components", 1, "defining"], "(p1sq+p2sq)^40*(p3sq+p2sq)^40",
     "product of 41 and 41 terms can reach 1681 terms, over the budget of 1000"),
    (["components", 1, "defining"], "(" + "9" * 100 + "*p2sq+" + "7" * 100 + "*p3sq)^400",
     "power ^400 of 2 terms can reach 133600-bit coefficients, over the budget of 14000 bits"),
    (["components", 1, "defining"], f"(1/{'9' * 4000}*p2sq+1/{'9' * 3999}8*p3sq)*p1sq",
     "product of 2 and 1 terms can reach 26578-bit coefficients, over the budget of 14000 bits"),
    (["components", 1, "defining"], f"1/{'9' * 4000}*p2sq+1/{'9' * 3999}8*p2sq",
     "sum can reach 26576-bit coefficients, over the budget of 14000 bits"),
    (["components", 1, "defining"], "9" * 5001 + "*p2sq",
     "integer of 5001 digits is over the budget of 4214 digits"),
    (["components", 1, "defining"], "p2sq^" + "9" * 5001,
     "integer of 5001 digits is over the budget of 4214 digits"),
    (["ops", "l1", 0, 0], "9" * 5001,
     f"entry '{'9' * (ECHO_LIMIT - 1)}... is over the budget of 4214 digits\n"),
    (["ops", "l1", 0, 0], "9" * 5001 + "/3",
     f"entry '{'9' * (ECHO_LIMIT - 1)}... is over the budget of 4214 digits\n"),
    (["ops", "l1", 0, 0], "1e10000000", "entry '1e10000000' is over the budget of 4214 digits"),
    (["ops", "l1", 0, 0], "1e100000000",
     "entry '1e100000000' is over the budget of 4214 digits"),
    (["intersection_rows", "l1"], ["1E-5000", "0", "0", "0", "0"],
     "entry '1E-5000' is over the budget of 4214 digits"),
    (["ops", "l1", 0, 0], 10 ** 4214, "integer entry is over the budget of 4214 digits"),
    (["intersection_rows", "l1"], [-10 ** 4214, 0, 0, 0, 0],
     "integer entry is over the budget of 4214 digits"),
    (["components", 1, "defining"], "p2sq $", "cannot tokenize ' $'"),
    (["components", 1, "defining"], "p2sq +", "unexpected end of input"),
    (["components", 1, "defining"], "(p2sq p1sq", "expected ')', got 'p1sq'"),
    (["components", 1, "defining"], "p2sq^x", "bad exponent 'x'"),
    (["components", 1, "defining"], "p2sq p1sq", "trailing input at token 'p1sq'"),
], ids=["null-span", "null-row", "zero-denominator-op", "zero-denominator-span",
        "zero-denominator-row", "zero-denominator-defining", "conventions-list",
        "basis-label", "type-set", "boundary-set", "fractional-parity", "bool-parity",
        "bool-n", "fractional-n", "negative-n", "stray-vanishing", "stray-row",
        "repeated-label", "long-repeated-label", "long-stray-vanishing",
        "long-component-id", "long-component-id-type", "repeated-component", "name-number",
        "stray-boundary", "stray-coboundary", "bool-op-entry", "float-row-entry",
        "missing-op", "deep-defining", "deep-power", "cubic-pinch", "null-quadratic-parity",
        "general-parity", "deep-name", "deep-op-entry", "product-of-powers",
        "power-coefficients", "product-coefficients", "sum-coefficients", "long-literal",
        "long-exponent", "long-op-entry", "long-op-numerator", "huge-op-exponent",
        "huger-op-exponent", "tiny-row-entry", "long-int-op-entry", "long-int-row-entry",
        "untokenizable", "early-end",
        "unclosed-parenthesis", "name-exponent", "trailing-input"])
def test_model_document_with_a_bad_entry_is_a_clean_error(
        tmp_path, capsys, where, value, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(set_field(triangle_model_document(), where, value)))
    for argv in (["table", str(path)], ["compose", str(path), "w=l1"],
                 ["audit", str(path), "--max-len", "2"]):
        code, out, err = run_cli(capsys, "variation", *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert message in err, argv


class CountedName(str):
    """A name that counts the equality tests made on it."""
    tests = 0

    def __eq__(self, other):
        CountedName.tests += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def with_counted_names(doc, field, n):
    """`doc` with `n` distinct names in `field` and the first one again at the end."""
    from landauvar.variation import builtin_model, model_to_json

    names = [CountedName(f"n{k}") for k in range(n)] + [CountedName("n0")]
    if field == "leg momentum":
        doc["legs"] = [{"vertex": "v1", "momentum": p} for p in names]
    elif field == "basis label":
        doc["basis"] = names
    else:  # component id: copies of the bubble's first component
        first = model_to_json(builtin_model("bubble"))["components"][0]
        doc["components"] = [dict(first, id=cid) for cid in names]
    return doc


# finding a repeat among 2000 names took 2 million comparisons, and a
# document of 100000 names minutes
@pytest.mark.parametrize("field", ["leg momentum", "basis label", "component id"])
def test_given_twice_checks_compare_each_name_about_once(monkeypatch, field):
    from landauvar import graphs, variation

    monkeypatch.setattr(CountedName, "tests", 0)
    if field == "leg momentum":
        build, doc = graphs.load_graph, bubble_document()
    else:
        build, doc = variation.model_from_json, triangle_model_document()
    with pytest.raises(ValueError) as exc:
        build(with_counted_names(doc, field, 2000))
    assert str(exc.value).endswith(f"{field} n0 is given twice")
    assert CountedName.tests <= 2 * 2000


def test_compose_echoes_a_long_word_cut(capsys):
    word = ["ldelta"] * 1000
    code, out, err = run_cli(capsys, "variation", "compose", "massless-triangle",
                             "w=" + ",".join(word))
    assert out == ""
    assert_clean_error(code, err)
    assert err == (f"error: word {repr(word)[:ECHO_LIMIT]}... touches entries the model"
                   " leaves unknown\n")


@pytest.mark.parametrize("diagonal, message", [
    ("9" * 2107, None), ("9" * 2108, "over the budget of 4214 digits"),
    ("9" * 4000, "over the budget of 4214 digits"), ("1/" + "9" * 2107, None),
    ("1/" + "9" * 2108, "over the budget of 4214 digits")])
def test_compose_refuses_a_product_entry_over_the_digit_budget(tmp_path, capsys, diagonal,
                                                               message):
    # each entry is admitted, and linf,linf squares the diagonal: (10^2107 - 1)^2
    # has 4214 digits, (10^2108 - 1)^2 has 4216, past what an entry may have
    from landauvar.variation import builtin_model, model_to_json

    doc = model_to_json(builtin_model("dilog"))
    for i, row in enumerate(doc["ops"]["linf"]):
        row[i] = diagonal
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "variation", "compose", str(path), "w=linf", "--format",
                             "json")
    assert code == 0 and diagonal in out
    code, out, err = run_cli(capsys, "variation", "compose", str(path), "w=linf,linf",
                             "--format", "json")
    if message is None:
        assert code == 0 and err == ""
        assert max(len(x.split("/")[-1]) for row in json.loads(out)["matrix"] for x in row) == 4214
    else:
        assert out == ""
        assert_clean_error(code, err)
        assert err == f"error: word ['linf', 'linf'] gives an entry {message}\n"


@pytest.mark.parametrize("document", ["model", "graph"])
def test_json_integer_over_the_digit_limit_is_a_clean_error(tmp_path, capsys, document):
    # `json.dumps` cannot write such an integer, so it replaces a placeholder
    digits = sys.get_int_max_str_digits() + 1
    if document == "model":
        doc, argv = set_field(triangle_model_document(), ["n"], "@"), ["variation", "table"]
    else:
        doc, argv = {"vertices": ["@"], "edges": []}, ["symanzik"]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc).replace('"@"', "-" + "7" * digits))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert out == ""
    assert_clean_error(code, err)
    assert err == (f"error: {path}: JSON integer of {digits} digits is over the"
                   f" interpreter's limit of {digits - 1}\n")


def test_model_document_off_the_rank_one_rule_is_a_clean_error(tmp_path, capsys):
    from landauvar.variation import builtin_model, model_to_json

    doc = model_to_json(builtin_model("bubble"))
    doc["ops"]["l1"] = [[str(2 * Fraction(x)) for x in row] for row in doc["ops"]["l1"]]
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(doc))
    for argv in (["table", str(path)], ["compose", str(path), "w=l1"],
                 ["audit", str(path), "--max-len", "3"]):
        code, out, err = run_cli(capsys, "variation", *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert "error: l1: operator is not the Picard-Lefschetz map" in err, argv


def test_model_document_with_a_short_span_vector_is_a_clean_error(tmp_path, capsys):
    # l1 maps sigma to nu1 + mu, which a span vector cut to three entries
    # of the five would accept
    doc = triangle_model_document()
    doc["ops"]["l1"] = [["0"] * 5 for _ in range(5)]
    doc["ops"]["l1"][1][0] = doc["ops"]["l1"][4][0] = "1"
    doc["vanishing"]["l1"] = [["0", "1", "0"]]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "variation", "table", str(path))
    assert out == ""
    assert_clean_error(code, err)
    assert "error: vanishing vector of l1 has 3 entries for a basis of 5" in err
    doc = triangle_model_document()
    doc["intersection_rows"] = {"l2": ["1", "0"]}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "variation", "table", str(path))
    assert_clean_error(code, err)
    assert "error: intersection row of l2 has 2 entries for a basis of 5" in err


def test_bad_loop_orientation_steps_and_tolerance_are_clean_errors(capsys):
    track = ["track", "bubble", "--chart", "x1=1", "--var", "x2", "--fix", "m1sq=1,m2sq=4"]
    cases = [
        (["--loop", "psq:center=9,r=0.1,orient=0"],
         "loop orientation must be +1 or -1, got orient=0"),
        (["--loop", "psq:center=9,r=0.1,orient=3"],
         "loop orientation must be +1 or -1, got orient=3"),
        (["--loop", "psq:center=9,r=0.1,steps=1.5"],
         "loop steps=1.5: the value must be an integer"),
        # under 2 steps per turn a step can wrap round to where it started
        (["--loop", "psq:center=9,r=1,steps=1"],
         "loop needs at least 2 steps per turn, got steps=1, turns=1"),
        (["--loop", "psq:center=9,r=1,turns=3,steps=3"],
         "loop needs at least 2 steps per turn, got steps=3, turns=3"),
        (["--loop", "psq:center=9,r=1,turns=100,steps=101"],
         "got steps=101, turns=100"),
        (["--loop", "psq:center=9,r=1,turns=1000,steps=1001"],
         "got steps=1001, turns=1000"),
        (["--loop", "psq:center=x,r=0.1"], "loop center=x: the value must be a number"),
        (["--loop", "psq:center=9,r=" + "x" * 300],
         f"loop r={'x' * ECHO_LIMIT}...: the value must be a number"),
        (["--loop", "psq:" + "k" * 300 + "=1"], f"unknown loop key {cut(repr('k' * 300))}"),
        (["--loop", "psq"], "loop spec must look like psq:center=9,r=0.1"),
        (["--loop", "psq:center=9,r=0.1", "--tol", "nan"],
         "tolerance tol=nan must be finite and positive"),
        (["--loop", "psq:center=9,r=0.1", "--tol", "0"],
         "tolerance tol=0.0 must be finite and positive"),
        (["--loop", "psq:center=9,r=0.1", "--tol", "-1"],
         "tolerance tol=-1.0 must be finite and positive"),
    ]
    for extra, message in cases:
        code, out, err = run_cli(capsys, *track, *extra)
        assert out == ""
        assert_clean_error(code, err)
        assert message in err, extra
        assert len(err.encode()) < 300, extra


def test_loop_turns_are_read(capsys):
    # the normal-threshold loop swaps the two roots once per turn
    track = ["track", "bubble", "--chart", "x1=1", "--var", "x2", "--fix", "m1sq=1,m2sq=4",
             "--format", "json"]
    for turns, permutation in [("1", [1, 0]), ("2", [0, 1]), ("3", [1, 0])]:
        code, out, _ = run_cli(capsys, *track, "--loop", f"psq:center=9,r=1,turns={turns}")
        assert code == 0
        assert json.loads(out)["permutation"] == permutation, turns


def test_unknown_loop_keys_zero_turns_and_repeated_names_are_clean_errors(capsys):
    track = ["track", "bubble", "--var", "x2"]
    loop = ["--loop", "psq:center=9,r=0.1"]
    fix = ["--fix", "m1sq=1,m2sq=4"]
    chart = ["--chart", "x1=1"]
    cases = [
        (chart + fix + ["--loop", "psq:center=9,r=0.1,stpes=4096"],
         "unknown loop key 'stpes' (the keys are center, r, radius, orient, steps, turns)"),
        (chart + fix + ["--loop", "psq:center=9,r=0.1,radius=2"],
         "loop gives both r and radius"),
        (chart + fix + ["--loop", "psq:center=9,r=0.1,turns=0"],
         "loop needs at least 1 turn, got turns=0"),
        (chart + fix + ["--loop", "psq:center=9,r=0.1,turns=-2"],
         "loop needs at least 1 turn, got turns=-2"),
        (chart + fix + ["--loop", "psq:center=9,r=0.1,turns=1.5"],
         "loop turns=1.5: the value must be an integer"),
        (chart + fix + ["--loop", "psq:center=9,r=0.1,center=1"],
         "center is assigned twice in 'center=9,r=0.1,center=1'"),
        (chart + loop + ["--fix", "m1sq=1,m2sq=4,m1sq=100"],
         "m1sq is assigned twice in 'm1sq=1,m2sq=4,m1sq=100'"),
        (chart + loop + ["--fix", "m1sq=1, m1sq =2,m2sq=4"], "m1sq is assigned twice"),
        (["--chart", "x1=1,x1=2"] + loop + fix, "x1 is assigned twice in 'x1=1,x1=2'"),
    ]
    for extra, message in cases:
        code, out, err = run_cli(capsys, *track, *extra)
        assert out == ""
        assert_clean_error(code, err)
        assert message in err, extra
    code, out, err = run_cli(capsys, "analyze", "bubble", "--track-chart", "x1=1",
                             "--track-var", "x2", "--track-fix", "m1sq=1,m2sq=4",
                             "--track-loop", "psq:center=9,r=0.1,turns=0")
    assert out == ""
    assert_clean_error(code, err)
    assert "got turns=0" in err


def test_overflowing_tracking_input_is_a_clean_error(capsys):
    track = ["track", "bubble", "--chart", "x1=1", "--var", "x2"]
    for argv in (track + ["--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1e-200,m2sq=1e300"],
                 track + ["--loop", "psq:center=1e300,r=1e299",
                          "--fix", "m1sq=1e300,m2sq=1e300"],
                 # the x2 coefficient sums to inf, which is not a vanishing one
                 track + ["--loop", "psq:center=1e308,r=1e300",
                          "--fix", "m1sq=-1e308,m2sq=-1e308"]):
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert "out of floating-point range" in err, argv


def test_root_on_a_marked_point_is_a_clean_error(capsys):
    # with m1sq = 0, x2 = 0 is a root at every point of the loop
    code, out, err = run_cli(capsys, "track", "bubble", "--chart", "x1=1", "--var", "x2",
                             "--loop", "psq:center=9,r=1", "--fix", "m1sq=0,m2sq=4",
                             "--mark", "0")
    assert out == ""
    assert_clean_error(code, err)
    assert "a root lies on the marked point 0j" in err


def test_loop_over_step_budget_is_refused_before_tracking(capsys, monkeypatch):
    from landauvar import tracking

    def no_track(*args, **kwargs):
        raise AssertionError("track started")

    monkeypatch.setattr(tracking, "track", no_track)
    code, out, err = run_cli(
        capsys, "track", "bubble", "--chart", "x1=1", "--var", "x2", "--fix",
        "m1sq=1,m2sq=4", "--loop", "psq:center=9,r=0.1,steps=99999999999999999999")
    assert out == ""
    assert_clean_error(code, err)
    assert "steps=99999999999999999999 is over the budget of 100000 steps" in err


def test_aomoto_hierarchy_over_pair_budget_is_refused_before_building(
        capsys, monkeypatch):
    from landauvar import aomoto, hierarchy

    def no_build(*args, **kwargs):
        raise AssertionError("the hierarchy started")

    for module, name in ((aomoto, "aomoto_components"), (aomoto, "aomoto_edges"),
                         (hierarchy, "hierarchy_graph")):
        monkeypatch.setattr(module, name, no_build)
    for argv in (["aomoto", "hierarchy", "--n", "7"], ["hierarchy", "--aomoto", "7"]):
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert "C(16, 8)^2 = 165636900 pairs, over the budget of 11778624" in err
    code, out, err = run_cli(capsys, "aomoto", "components", "--n", "30")
    assert out == ""
    assert_clean_error(code, err)
    assert "C(62, 31) components, over the budget of 12870" in err


def test_aomoto_budgets_admit_the_largest_weights(capsys, monkeypatch):
    from landauvar import aomoto
    from landauvar.hierarchy import HierarchyRelation

    reached = []
    monkeypatch.setattr(aomoto, "aomoto_edges", lambda n: reached.append(n)
                        or HierarchyRelation((), frozenset()))
    monkeypatch.setattr(aomoto, "aomoto_components", lambda n: reached.append(n) or [])
    for argv in (["aomoto", "hierarchy", "--n", "6"], ["aomoto", "components", "--n", "7"]):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert reached == [6, 7]


# -- the CLI contract under malformed input -------------------------------------------

BAD_VALUES = [None, 0, -1, 2.5, 1e308, float("inf"), float("-inf"), float("nan"), True,
              "", "x", "1/0", "1e400", [], {}, [None], {"a": 1}]
MODEL_COMMANDS = [["variation", "table", "{path}"],
                  ["variation", "compose", "{path}", "w=l1,l2"],
                  ["variation", "audit", "{path}", "--max-len", "3"]]
TRACK = ["track", "bubble", "--chart", "x1=1", "--var", "x2"]
OPTION_COMMANDS = [
    ["track", "bubble", "--chart", "{chart}", "--var", "{var}", "--loop", "{loop}",
     "--fix", "{fix}", "--mark", "{mark}"],
    ["analyze", "bubble", "--track-chart", "{chart}", "--track-var", "{var}",
     "--track-loop", "{loop}", "--track-fix", "{fix}", "--check", "{word}"],
    ["landau", "eliminate", "bubble", "--chart", "{chart}"],
    ["variation", "audit", "{model}", "--max-len", "{max_len}"],
    ["variation", "compose", "{model}", "{word}"],
    ["hierarchy", "--model", "{model}", "--check", "{word}"],
    ["hierarchy", "--aomoto", "{n}"],
    ["aomoto", "{aomoto}", "--n", "{n}"],
]
OPTION_VALUES = {
    "chart": ["x1=1", "x1=", "=1", "x1=1/0", "x9=1", "x1", ""],
    "var": ["x2", "x1", "x9", ""],
    "loop": ["psq:center=9,r=0.1", "psq:", "psq:center=nan,r=1", "psq:center=x",
             "psq:center=9,r=0.1,steps=0", "psq:center=9,r=0.1,steps=99999999999999999999",
             "psq:center=1e300,r=1e299", "m1sq:center=0,r=1,orient=2", "q:center=9"],
    "fix": ["m1sq=1,m2sq=4", "m1sq=1e-200,m2sq=1e300", "m1sq=1e300,m2sq=1e300",
            "m1sq=nan,m2sq=4", "m1sq=1", "m1sq", "m1sq=1j,m2sq=4"],
    "mark": ["0", "x", "inf", "1e400"],
    "word": ["l1,l2", "w=", "lF/1,lF+", "nope", ",,"],
    "model": ["bubble", "logarithm", "massless-triangle", "nope", ""],
    "max_len": ["-1", "0", "3", "x", "99999999"],
    "n": ["0", "-1", "1", "7", "x", "99999999"],
    "aomoto": ["symbol", "components", "hierarchy"],
}


@st.composite
def mutated(draw, doc):
    """`doc` with one or two entries, at any depth, dropped or replaced by a
    value of another type, a non-finite number or an unparsable string."""
    for _ in range(draw(st.integers(1, 2))):
        target = doc
        while isinstance(target, (dict, list)) and target:
            key = draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                       else range(len(target))))
            child = target[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                target = child
            elif draw(st.booleans()):
                del target[key]
                break
            else:
                target[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
                break
    return doc


@st.composite
def cli_cases(draw):
    """(document or None, argv) where "{path}" in argv names the document."""
    kind = draw(st.sampled_from(["graph", "model", "options"]))
    if kind == "graph":
        return (draw(mutated(bubble_document())),
                draw(st.sampled_from(graph_commands("{path}"))))
    if kind == "model":
        from landauvar.variation import builtin_model, model_to_json

        name = draw(st.sampled_from(["bubble", "logarithm", "massless-triangle"]))
        return (draw(mutated(model_to_json(builtin_model(name)))),
                draw(st.sampled_from(MODEL_COMMANDS)))
    template = draw(st.sampled_from(OPTION_COMMANDS))
    values = {key: draw(st.sampled_from(choices)) for key, choices in OPTION_VALUES.items()}
    return None, [arg.format(**values) for arg in template]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=cli_cases())
@example(case=(set_field(triangle_model_document(), ["vanishing", "ldelta", 0],
                          [None, 0, 0, 0, 2]), MODEL_COMMANDS[2]))
@example(case=(set_field(triangle_model_document(), ["ops", "l1", 0, 0], "1/0"),
               MODEL_COMMANDS[1]))
@example(case=(set_field(triangle_model_document(), ["vanishing", "l3", 1, 4], "1/0"),
               MODEL_COMMANDS[2]))
@example(case=(set_field(triangle_model_document(), ["intersection_rows", "l1"],
                          ["1/0", "0", "0", "0", "0"]), MODEL_COMMANDS[0]))
@example(case=(set_field(triangle_model_document(), ["components", 1, "defining"],
                          "1/0"), MODEL_COMMANDS[0]))
@example(case=(set_field(triangle_model_document(), ["conventions"], [1]),
               MODEL_COMMANDS[0]))
@example(case=(set_field(triangle_model_document(), ["basis", 0], []), MODEL_COMMANDS[1]))
@example(case=(set_field(triangle_model_document(), ["components", 0, "type_J"], [None]),
               MODEL_COMMANDS[0]))
@example(case=(set_field(bubble_document(), ["vertices"], "v1v2"),
               graph_commands("{path}")[0]))
@example(case=(set_field(bubble_document(), ["edges", 0, "ends"], ["v1", "v2", "v1"]),
               graph_commands("{path}")[0]))
@example(case=(set_field(bubble_document(), ["channels"], {"p1": 5}),
               graph_commands("{path}")[5]))
@example(case=(None, TRACK + ["--loop", "psq:center=9,r=0.1",
                              "--fix", "m1sq=1e-200,m2sq=1e300"]))
@example(case=(None, TRACK + ["--loop", "psq:center=1e300,r=1e299",
                              "--fix", "m1sq=1e300,m2sq=1e300"]))
@example(case=(None, TRACK + ["--loop", "psq:center=inf,r=1", "--fix", "m1sq=1,m2sq=4"]))
@example(case=(None, TRACK + ["--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=1e400"]))
@example(case=(None, TRACK + ["--loop", "psq:center=9,r=0.1,steps=99999999999999999999",
                              "--fix", "m1sq=1,m2sq=4"]))
@example(case=(None, TRACK + ["--loop", "psq:center=9,r=1", "--fix", "m1sq=0,m2sq=4",
                              "--mark", "0"]))
@example(case=(None, TRACK + ["--loop", "psq:center=9,r=0.1", "--fix", "m1sq=1,m2sq=4",
                              "--tol", "nan"]))
@example(case=(None, ["hierarchy", "--aomoto", "7"]))
@example(case=(None, ["aomoto", "hierarchy", "--n", "7"]))
@example(case=(None, ["variation", "audit", "massless-triangle", "--max-len", "100000"]))
def test_cli_contract_holds_on_malformed_input(tmp_path_factory, case):
    doc, argv = case
    path = tmp_path_factory.mktemp("case") / "doc.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    argv = [arg.replace("{path}", str(path)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)


# -- one stage pipeline: `analyze` sections are the subcommands' outputs -------------

TRACK_OPTIONS = {"loop": "psq:center=9,r=0.1", "chart": "x1=1", "var": "x2",
                 "fix": "m1sq=1,m2sq=4", "mark": "0"}


def analyze_argv(graph, checks, audit=None, track=False):
    argv = ["analyze", graph]
    for word in checks:
        argv += ["--check", word]
    if audit:
        argv += ["--audit", audit]
    if track:
        for name, value in TRACK_OPTIONS.items():
            argv += [f"--track-{name}", value]
    return argv


@pytest.mark.parametrize("graph, checks, audit, track", [
    ("bubble", ["lF/1,lF+", "lFU"], "bubble", True),
    ("triangle", ["lF/1,lF", "lFU/2,lFU"], None, False),
])
def test_analyze_sections_equal_the_subcommand_outputs(capsys, graph, checks, audit,
                                                        track):
    def subcommand(*argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and err == "", argv
        return json.loads(out)

    code, out, err = run_cli(capsys, *analyze_argv(graph, checks, audit, track))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["symanzik"] == subcommand("symanzik", graph)
    assert report["landau"] == subcommand("landau", "oneloop", graph, "--split")
    assert report["hierarchy"] == subcommand("hierarchy", "--graph", graph)
    check_args = [arg for word in checks for arg in ("--check", word)]
    assert report["words"] == subcommand("hierarchy", "--graph", graph, *check_args)
    assert report["audit"] == (audit and subcommand("variation", "audit", audit))
    if track:
        track_args = [arg for name, value in TRACK_OPTIONS.items()
                      for arg in (f"--{name}", value)]
        assert report["track"] == subcommand("track", graph, *track_args)
    else:
        assert report["track"] is None


def test_analyze_runs_each_stage_once(capsys, monkeypatch):
    from landauvar import graphs, hierarchy, landau, tracking, variation

    calls = {}
    for module, name in [(graphs, "symanzik_F"), (landau, "oneloop_landau"),
                         (hierarchy, "hierarchy_graph"),
                         (variation, "check_against_hierarchy"), (tracking, "track")]:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli(capsys, *analyze_argv("bubble", ["lF/1,lF+"], "bubble", True))
    assert code == 0
    assert calls == {"symanzik_F": 1, "oneloop_landau": 1, "hierarchy_graph": 1,
                     "check_against_hierarchy": 1, "track": 1}


def readme_commands():
    """The argv of each command in the README's "Command line" block."""
    import shlex
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.replace("\\\n", " ").splitlines()]


def test_readme_commands_run_cleanly(tmp_path, capsys):
    path = tmp_path / "mygraph.json"
    path.write_text(json.dumps(bubble_document()))
    commands = readme_commands()
    assert len(commands) == 16
    for argv in commands:
        argv = [str(path) if arg == "mygraph.json" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out and err == "", argv
