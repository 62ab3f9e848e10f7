import contextlib
import copy
import io
import itertools
import json
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landauvar.cli import main
from landauvar.poly import parse


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
                                         ("--I", "1,,2"), ("--J", "2,")])
def test_homrank_index_set_errors_name_the_option_and_value(capsys, flag, value):
    argv = ["homrank", "--n", "2", "--m", "3", flag, value, "--degree", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert_clean_error(code, err)
    assert (f"error: {flag} {value}: the value must be digits, such as 12, or a comma"
            " list of integers, such as 1,12") in err


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
])
def test_words_with_an_empty_letter_are_refused(capsys, argv, flag, value):
    code, out, err = run_cli(capsys, *argv, value)
    assert out == ""
    assert_clean_error(code, err)
    assert (f"error: {flag} {value}: a word is letters joined by commas, and no letter"
            " may be empty") in err


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


def test_hierarchy_with_zero_or_empty_source_is_a_clean_error(capsys):
    for argv in (["--aomoto", "0"], ["--fixture", ""], ["--model", ""]):
        code, out, err = run_cli(capsys, "hierarchy", *argv)
        assert out == ""
        assert_clean_error(code, err)
    code, _, err = run_cli(capsys, "hierarchy", "--aomoto", "0")
    assert "weight must be at least 1" in err


def test_aomoto_symbol_over_budget_is_refused_before_building(capsys, monkeypatch):
    from landauvar import aomoto

    def no_build(n):
        raise AssertionError(f"aomoto_symbol({n}) started")

    monkeypatch.setattr(aomoto, "aomoto_symbol", no_build)
    code, out, err = run_cli(capsys, "aomoto", "symbol", "--n", "7")
    assert out == ""
    assert_clean_error(code, err)
    assert "1625702400 words" in err and "518400" in err


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


@pytest.mark.parametrize("argv", sorted(DETERMINANT_DIGESTS))
def test_determinant_outputs_print_the_recorded_bytes(tmp_path, capsys, argv):
    import hashlib

    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(pentagon_document()))
    code, out, _ = run_cli(capsys, *(str(path) if a == "pentagon" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DETERMINANT_DIGESTS[argv]


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


def test_audit_counts_the_products_it_builds(capsys, monkeypatch):
    # the bubble's walk builds 2033 products at --max-len 8 and 4081 at 9
    from landauvar import variation

    monkeypatch.setattr(variation, "AUDIT_PRODUCT_BUDGET", 2033)
    code, out, _ = run_cli(capsys, "variation", "audit", "bubble", "--max-len", "8",
                           "--format", "json")
    assert code == 0 and json.loads(out)["words_checked"] == 487260
    code, out, err = run_cli(capsys, "variation", "audit", "bubble", "--max-len", "9")
    assert out == ""
    assert_clean_error(code, err)
    assert "more than the budget of 2033 matrix products" in err


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


def test_symanzik_budget_refuses_before_any_forest(tmp_path, capsys, monkeypatch):
    from landauvar import graphs

    def no_forests(self, k):
        raise AssertionError("spanning_forests started")

    monkeypatch.setattr(graphs.FeynmanGraph, "spanning_forests", no_forests)
    vertices = [f"v{k}" for k in range(7)]
    k7 = write_graph(tmp_path, "k7", vertices, list(itertools.combinations(vertices, 2)))
    for argv in graph_commands(k7):
        code, out, err = run_cli(capsys, *argv)
        assert out == "", argv
        assert_clean_error(code, err)
        assert "16807 spanning trees" in err and "budget of 150000" in err, argv
        assert "(|V| - 1 + |E|) = 453789" in err


def test_symanzik_budget_admits_the_six_loop_ladder(tmp_path, capsys, monkeypatch):
    from pathlib import Path

    from landauvar import graphs

    reached = []
    monkeypatch.setattr(graphs, "symanzik_U", lambda g: reached.append(g) or parse("1"))
    monkeypatch.setattr(graphs, "symanzik_F", lambda g, u=None: parse("1"))
    for loops, trees in ((6, 2911), (7, 10864)):
        path = write_graph(tmp_path, f"ladder{loops}", *ladder(loops))
        code, _, err = run_cli(capsys, "symanzik", path)
        assert (code == 0) == (loops == 6)
        assert graphs.load_graph(json.loads(Path(path).read_text())
                                 ).spanning_tree_count() == trees
    assert "10864 spanning trees" in err
    assert len(reached) == 1


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
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert message in err


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
], ids=["channel-symbol", "channels-list", "edge-id", "endpoint", "mass", "var",
        "leg-vertex", "momentum", "vertex", "vertices-string", "three-ends", "one-end"])
def test_graph_document_with_a_mistyped_field_is_a_clean_error(
        tmp_path, capsys, where, value, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(set_field(bubble_document(), where, value)))
    for argv in graph_commands(str(path)):
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert f"malformed graph document: {message}" in err, argv


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
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        assert_clean_error(code, err)
        assert message in err, argv


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
], ids=["null-span", "null-row", "zero-denominator-op", "zero-denominator-span",
        "zero-denominator-row", "zero-denominator-defining", "conventions-list",
        "basis-label", "type-set", "boundary-set"])
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
