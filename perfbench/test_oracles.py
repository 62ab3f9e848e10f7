"""Each oracle accepts the program's real output and rejects a corrupted one.

    python3 -m pytest perfbench/test_oracles.py -q

For every kind of check, the test generates the workload's inputs, runs the
cheapest command of that kind through `landauvar.cli.main`, and requires
the oracle to pass the output and to fail it after a deliberate corruption.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from run import model_tables  # noqa: E402
from worker import run_command  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def cli():
    import landauvar.cli

    return landauvar.cli


@pytest.fixture(scope="module")
def manifests(cli, tmp_path_factory):
    tables = model_tables(cli)
    out = {}
    for workload in workloads.WORKLOADS:
        inputs = tmp_path_factory.mktemp(workload)
        out[workload] = workloads.generate(workload, SEED, inputs, tables)
    return out


def _first(manifests, kind, where=lambda c: True):
    for manifest in manifests.values():
        for cmd in manifest["commands"]:
            if cmd["check"]["kind"] == kind and where(cmd):
                return cmd
    raise LookupError(kind)


def _run(cli, cmd):
    *_, code, text, err = run_command(cmd, cli, None, None)
    assert code == 0, err
    return text


def _accepts_then_rejects(cli, manifests, kind, corrupt, where=lambda c: True,
                          partner=None):
    cmd = _first(manifests, kind, where)
    text = _run(cli, cmd)
    assert oracles.check(text, cmd["check"], SEED, partner) is None
    bad = corrupt(text, cmd)
    assert bad != text
    assert oracles.check(bad, cmd["check"], SEED, partner) is not None


def _edit_json(text, fn):
    data = json.loads(text)
    fn(data)
    return json.dumps(data, indent=2, sort_keys=True)


def _plus_one(poly: str) -> str:
    return poly + " + 1"


def test_oneloop(cli, manifests):
    def corrupt(text, cmd):
        return _edit_json(text, lambda d: d[-1].update(defining=_plus_one(d[-1]["defining"])))

    _accepts_then_rejects(cli, manifests, "oneloop", corrupt)


def test_oneloop_missing_component(cli, manifests):
    _accepts_then_rejects(cli, manifests, "oneloop",
                          lambda text, cmd: _edit_json(text, lambda d: d.pop()))


def test_analyze(cli, manifests):
    def corrupt(text, cmd):
        return _edit_json(text, lambda d: d["symanzik"].update(F=_plus_one(d["symanzik"]["F"])))

    _accepts_then_rejects(cli, manifests, "analyze", corrupt)


def test_symanzik(cli, manifests):
    def corrupt(text, cmd):
        return _edit_json(text, lambda d: d.update(U=d["U"] + " + " + d["U"].split()[0]))

    _accepts_then_rejects(cli, manifests, "symanzik", corrupt)


def _eliminant_corrupt(text, cmd):
    return _edit_json(text, lambda d: d.update(eliminant=_plus_one(d["eliminant"])))


def test_threshold_eliminant(cli, manifests):
    _accepts_then_rejects(cli, manifests, "threshold_eliminant", _eliminant_corrupt,
                          where=lambda c: len(c["check"]["masses"]) - len(c["check"]["fixed"]) <= 1)


def test_threshold_eliminant_rejects_zero(cli, manifests):
    cmd = _first(manifests, "threshold_eliminant",
                 lambda c: len(c["check"]["masses"]) - len(c["check"]["fixed"]) <= 1)
    assert oracles.check('{"eliminant": "0"}', cmd["check"], SEED) is not None


def test_cayley_eliminant(cli, manifests):
    _accepts_then_rejects(cli, manifests, "cayley_eliminant", _eliminant_corrupt)


def test_audit_violation(cli, manifests):
    def corrupt(text, cmd):
        return _edit_json(text, lambda d: d["violations"].append(["l1", "l1"]))

    _accepts_then_rejects(cli, manifests, "audit", corrupt,
                          where=lambda c: "partner" not in c["check"])


def test_audit_basis_invariance(cli, manifests):
    cmd = _first(manifests, "audit", lambda c: "partner" in c["check"])
    partner_cmd = next(c for c in manifests["word-audit"]["commands"]
                       if c["id"] == cmd["check"]["partner"])
    text, partner = _run(cli, cmd), _run(cli, partner_cmd)
    assert oracles.check(text, cmd["check"], SEED, partner) is None
    bad = _edit_json(text, lambda d: d.update(words_checked=d["words_checked"] + 1))
    assert oracles.check(bad, cmd["check"], SEED, partner) is not None


def test_compose(cli, manifests):
    def corrupt(text, cmd):
        def edit(d):
            d["matrix"][0][0] = str(1 + int(d["matrix"][0][0].split("/")[0]))
        return _edit_json(text, edit)

    _accepts_then_rejects(cli, manifests, "compose", corrupt)


def test_aomoto_relation(cli, manifests):
    _accepts_then_rejects(cli, manifests, "aomoto_relation",
                          lambda text, cmd: _edit_json(text, lambda d: d["edges"].pop()))


def test_model_verdicts(cli, manifests):
    cmd = _first(manifests, "model_verdicts")
    text = _run(cli, cmd)
    assert oracles.check(text, cmd["check"], SEED) is None
    ops = oracles.decode_ops(cmd["check"]["table"])
    nonzero = next(cid for cid, m in sorted(ops.items())
                   if any(x not in (None, 0) for row in m for x in row))
    spec = dict(cmd["check"], words=[[nonzero]])
    bad = json.dumps([{"word": [nonzero], "verdict": "forced_zero", "reason": "x"}])
    assert oracles.check(bad, spec, SEED) is not None


def test_aomoto_verdicts(cli, manifests):
    def corrupt(text, cmd):
        def edit(d):
            d[0]["verdict"] = ("unconstrained" if d[0]["verdict"] == "forced_zero"
                               else "forced_zero")
        return _edit_json(text, edit)

    _accepts_then_rejects(cli, manifests, "aomoto_verdicts", corrupt)


def test_aomoto_symbol_sign(cli, manifests):
    def corrupt(text, cmd):
        first, rest = text.split("\n", 1)
        return ("-" if first[0] == "+" else "+") + first[1:] + "\n" + rest

    _accepts_then_rejects(cli, manifests, "aomoto_symbol", corrupt)


def test_aomoto_symbol_count(cli, manifests):
    _accepts_then_rejects(cli, manifests, "aomoto_symbol",
                          lambda text, cmd: text.split("\n", 1)[1])


def test_signword(cli, manifests):
    _accepts_then_rejects(cli, manifests, "signword",
                          lambda text, cmd: _edit_json(text, lambda d: d.update(sign=-d["sign"])))


def test_homrank(cli, manifests):
    _accepts_then_rejects(cli, manifests, "homrank",
                          lambda text, cmd: str(int(text) + 1) + "\n")


def test_nilpotency(cli, manifests):
    _accepts_then_rejects(cli, manifests, "nilpotency",
                          lambda text, cmd: "3\n" if text.strip() != "3" else "2\n")


def test_track_permutation(cli, manifests):
    def corrupt(text, cmd):
        return _edit_json(text, lambda d: d.update(permutation=d["permutation"][::-1]))

    _accepts_then_rejects(cli, manifests, "track", corrupt,
                          where=lambda c: "steps=256," in " ".join(c["argv"]))


def test_track_winding(cli, manifests):
    def corrupt(text, cmd):
        return _edit_json(text, lambda d: d.update(windings=[[0], [0]]))

    _accepts_then_rejects(cli, manifests, "track", corrupt,
                          where=lambda c: c["check"]["enclosed_zero"] == 1
                          and c["check"]["enclosed_thresholds"] == 0)


def test_every_kind_is_generated(manifests):
    kinds = {c["check"]["kind"] for m in manifests.values() for c in m["commands"]}
    assert kinds == set(oracles.CHECKS)


def test_same_seed_same_inputs(cli, tmp_path):
    tables = model_tables(cli)
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 3, tmp_path / "a", tables)
        b = workloads.generate(workload, 3, tmp_path / "b", tables)
        strip = [json.dumps(c["check"], sort_keys=True) for c in a["commands"]]
        assert strip == [json.dumps(c["check"], sort_keys=True) for c in b["commands"]]
        assert a["seed"] == 3
