"""Campaign parsing, the batch driver, and report emission."""

import importlib.util
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from qcfrob import cli, frobsplit, qtorus, uqn
from qcfrob.cli import (KNOWN_CHECKS, Campaign, CampaignError, emit,
                        enumerate_mutation_sequences, main,
                        mutation_sequence_count, run)
from qcfrob.cluster import mutate_seed, seed_from_word
from qcfrob.coeff import ExactDivisionError, qint
from qcfrob.frobsplit import ProductTable, SeedExpander, TheoremSession
from qcfrob.qtorus import CycloRing, LaurentRing, SkewForm, TorusElement
from qcfrob.uqn import CheckOutcome
from _seeds import eps_power
from test_frobsplit import BROKEN, PUSHED_BREAKS

# --format json --deterministic reports, kept byte for byte so a refactor
# that changes any report fails here: the four sample campaigns and the
# configs of test_main_jobs_matches_serial, test_main_singular_cartan and
# test_revisited_seeds_golden (golden_configs names each one's config).
# Regenerate them only with a change meant to alter reports.
GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).parent.parent
CAMPAIGNS = ROOT / "campaigns"
# the environment for a launched interpreter: this checkout's src first on
# PYTHONPATH, so it imports the code under test whether or not qcfrob is installed
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def a2_doc(**overrides):
    doc = {
        "cartan": "A2",
        "word": [1, 2, 1],
        "l_values": [3],
        "mutations": {"depth": 1},
        "exponents": {"max_entry": 1},
        "checks": ["LAMBDA", "THEOREM"],
    }
    doc.update(overrides)
    return doc


# affine A1~: a valid Cartan matrix whose inverse, and so the minor model,
# does not exist; a config must then give the form itself
AFFINE = {"matrix": [[2, -2], [-2, 2]], "sym": [1, 1]}
AFFINE_LAMBDA = [[0, -2, -2], [2, 0, 0], [2, 0, 0]]
# a form that does not fit A2 [1, 2, 1]; every seed built on it fails
WRONG_LAMBDA = [[0, 5, 0], [-5, 0, 0], [0, 0, 0]]

# A4, which has no preset, and its longest word
A4 = {"matrix": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
      "sym": [1, 1, 1, 1]}
A4_W0 = [1, 2, 1, 3, 2, 1, 4, 3, 2, 1]


def custom(**cartan):
    return a2_doc(cartan={"matrix": [[2, -1], [-1, 2]], "sym": [1, 1], **cartan})


def write_config(tmp_path, doc, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- parsing ---------------------------------------------------------------

def test_enumerate_mutation_sequences():
    assert enumerate_mutation_sequences((0, 1), 2) == [
        (), (0,), (1,), (0, 1), (1, 0)]


def test_mutation_sequence_count_closed_form():
    for k in range(6):
        for depth in range(6):
            assert mutation_sequence_count(k, depth) == len(
                enumerate_mutation_sequences(range(k), depth))
    assert mutation_sequence_count(3, 5) == 94       # the A3 cell to depth 5
    assert mutation_sequence_count(3, 30) == 3 * 2 ** 30 - 2
    assert mutation_sequence_count(2, 1000) == 2001


def test_campaign_defaults_and_word_conversion():
    c = Campaign.from_dict(a2_doc())
    assert c.word == (0, 1, 0)
    assert c.sequences == ((), (0,))
    assert len(c.vectors) == 8
    assert c.trials == 200 and c.rng_seed == 0


@pytest.mark.parametrize("doc,fragment", [
    (a2_doc(word=[1, 1]), "not reduced"),
    (a2_doc(word=[1, 5, 1]), "letters in 1"),
    (a2_doc(l_values=[4]), "odd"),
    (a2_doc(l_values=[3, 9], cartan="G2"), "coprime"),
    (a2_doc(checks=["NOPE"]), "unknown check"),
    (a2_doc(cartan="Z9"), "unknown preset"),
    (a2_doc(extra=1), "unknown field"),
    (a2_doc(mutations={"sequences": [[2]]}), "not exchangeable"),
    (a2_doc(mutations={"depth": -1}), "depth"),
    (a2_doc(exponents={"vectors": [[1, 0]]}), "bad vector"),
    (a2_doc(exponents={"max_entry": 500}), "more than"),
    (a2_doc(reduction_prefix=9), "out of range"),
    (a2_doc(trials=0), "trials"),
    ({"cartan": "A2", "word": [1, 2, 1], "lambda": [[0, 1], [-1, 0]]}, "size"),
    (a2_doc(mutations={"sequences": 5}), "sequences must be a list"),
    (a2_doc(mutations={"sequences": [1]}), "bad sequence"),
    (a2_doc(exponents={"vectors": [7]}), "bad vector"),
    (a2_doc(checks=5), "list of check names"),
    # JSON booleans where integers belong
    (a2_doc(trials=True), "trials"),
    (a2_doc(rng_seed=False), "rng_seed"),
    (a2_doc(mutations={"depth": True}), "depth"),
    (a2_doc(exponents={"max_entry": True}), "max_entry"),
    (a2_doc(reduction_prefix=True), "out of range"),
    (a2_doc(word=[True, 2, 1]), "letters in 1"),
    (a2_doc(l_values=[3, True]), "list of integers"),
    (a2_doc(mutations={"sequences": [[True]]}), "bad sequence"),
    (a2_doc(exponents={"vectors": [[True, 0, 0]]}), "bad vector"),
    (a2_doc(**{"lambda": [[0, True, 0], [-1, 0, 0], [0, 0, 0]]}), "entries must be integers"),
    # repeats are listed, not switched on
    (a2_doc(mutations={"depth": 1, "no_prune": "no"}), "unknown key 'no_prune'"),
    # misspelt and conflicting keys in the nested objects
    (a2_doc(mutations={"dpeth": 3}), "unknown key 'dpeth'"),
    (a2_doc(exponents={"max_entyr": 2}), "unknown key 'max_entyr'"),
    (a2_doc(mutations={"sequences": [[1]], "depth": 1}), "sequences and depth"),
    (a2_doc(mutations={"sequences": [[1]], "no_prune": True}), "unknown key 'no_prune'"),
    (a2_doc(exponents={"vectors": [[0, 0, 0]], "max_entry": 1}), "vectors and max_entry"),
    # custom Cartan data: JSON integers in list rows, no other keys
    (custom(sym=[True, True]), "sym must be a list of integers"),
    (custom(sym=[1, 1.5]), "sym must be a list of integers"),
    (custom(sym=5), "sym must be a list of integers"),
    (custom(matrix=[[2, -1.0], [-1, 2]]), "matrix must be a nonempty list of rows"),
    (custom(matrix=[[2, "-1"], [-1, 2]]), "matrix must be a nonempty list of rows"),
    (custom(matrix=[[2, -1], 5]), "matrix must be a nonempty list of rows"),
    (custom(matrix=[], sym=[]), "matrix must be a nonempty list of rows"),
    (custom(extra=1), "unknown key 'extra'"),
    (a2_doc(cartan={"sym": [1, 1]}), "matrix must be a nonempty list of rows"),
    # a singular matrix wherever the run needs the minor model
    (a2_doc(cartan=AFFINE, checks=["LAMBDA"], **{"lambda": AFFINE_LAMBDA}), "singular"),
    (a2_doc(cartan=AFFINE, checks=["BASE_CASE"]), "singular"),
    (a2_doc(cartan=AFFINE, checks=["KKKO"]), "singular"),
    (a2_doc(cartan=AFFINE, checks=["THEOREM"]), "singular"),
    (a2_doc(cartan=AFFINE, checks=["SPLIT_AXIOMS"]), "singular"),
    (a2_doc(cartan=AFFINE, checks=["REDUCTION"]), "singular"),
    # a minor check past the enumeration cap
    (a2_doc(cartan="A3", word=[1, 2, 1, 3, 2, 1], l_values=[5], checks=["KKKO"]),
     "KKKO at position 5, l = 5 needs 46558512 words"),
    (a2_doc(cartan="B2", word=[1, 2, 1, 2], l_values=[3, 5], checks=["BASE_CASE"]),
     "BASE_CASE at position 4, l = 5 needs 288654574 divided words"),
    # one word, but minor^401 makes it cost like 2.6 * 10^10 of them
    ({"cartan": "A1", "word": [1], "l_values": [401], "checks": ["KKKO"]},
     r"KKKO at position 1, l = 401 needs 1 words, 1 \* l\^4 = 25856961601"),
    (a2_doc(cartan="A3", word=[1, 2, 1, 3, 2, 1], mutations={"depth": 30}),
     "depth 30 needs more than 100000 mutation steps"),
    # listed sequences are charged their total length, here 100,001 steps
    (a2_doc(mutations={"sequences": [[1] * 50_000, [1] * 50_001]}),
     "sequences need more than 100000 mutation steps"),
    # a commutation form computed through more than 2,000,000 splits
    (a2_doc(cartan="G2", word=[1, 2, 1, 2, 1, 2], l_values=[5], checks=["LAMBDA"]),
     "commutation form needs 3326542390 splits"),
    (a2_doc(cartan=A4, word=A4_W0, checks=["THEOREM"]),
     "commutation form needs 69980688 splits"),
    (a2_doc(cartan="G2", word=[2, 1, 2, 1, 2], l_values=[5], checks=["LAMBDA"]),
     "commutation form needs 80128152 splits"),
    # trials past their cap, for each check that draws them; at p = 3 the
    # SPLIT_AXIOMS charge alone admits 12,345,679 trials * 3^4 <= 10^9
    (a2_doc(cartan="A3", word=[1, 2, 1, 3, 2, 1], checks=["REDUCTION"], trials=100_001),
     "trials: 100001 is more than 100000"),
    (a2_doc(cartan="A3", word=[1, 2, 1, 3, 2, 1], checks=["SPLIT_AXIOMS"],
            trials=12_345_679), "trials: 12345679 is more than 100000"),
    # a cost past 100 digits is given by its power-of-two floor
    ({"cartan": "A1", "word": [1], "l_values": [10 ** 1100 + 1], "checks": ["KKKO"]},
     r"needs 1 words, 1 \* l\^4 = at least 2\^14616, more than 81000000"),
])
def test_campaign_rejects(doc, fragment):
    with pytest.raises(CampaignError, match=fragment):
        Campaign.from_dict(doc)


def test_given_form_is_not_charged_without_lambda_check():
    # commutation_matrix runs only for LAMBDA once a form is given; the
    # charge is checked here, not the form
    doc = a2_doc(cartan=A4, word=A4_W0, checks=["THEOREM"],
                 **{"lambda": [[0] * 10 for _ in range(10)]})
    assert Campaign.from_dict(doc).lam_config == SkewForm([[0] * 10] * 10)
    with pytest.raises(CampaignError, match="needs 69980688 splits"):
        Campaign.from_dict({**doc, "checks": ["LAMBDA", "THEOREM"]})


def test_charges_under_their_caps_validate():
    # 14,208 and 964,960 splits; 200 trials * 31^4 = 184,704,200
    a3 = {"cartan": "A3", "word": [1, 2, 1, 3, 2, 1]}
    Campaign.from_dict({**a3, "checks": ["LAMBDA"]})
    Campaign.from_dict({"cartan": "G2", "word": [1, 2, 1, 2], "l_values": [5],
                        "checks": ["LAMBDA"]})
    Campaign.from_dict({**a3, "l_values": [31], "checks": ["SPLIT_AXIOMS"]})
    Campaign.from_dict({**a3, "l_values": [3], "checks": ["SPLIT_AXIOMS", "REDUCTION"],
                        "trials": 100_000})


def test_campaign_custom_cartan():
    doc = a2_doc(cartan={"matrix": [[2, -1], [-1, 2]], "sym": [1, 1]})
    c = Campaign.from_dict(doc)
    assert c.label == "custom" and c.datum.n == 2


# -- running ---------------------------------------------------------------

# The A2 form of the word [1, 2, 1], as the minor model computes it.
A2_LAMBDA = [[0, -1, 1], [1, 0, 0], [-1, 0, 0]]


# LAMBDA listed, lambda given, THEOREM listed -> commutation_matrix calls,
# meta.lambda_source, and whether the singular affine A1~ matrix is rejected;
# the lambda-oracle record appears exactly when LAMBDA is listed
@pytest.mark.parametrize("lam_check, given, theorem, calls, source, singular", [
    (True, True, True, 1, "config", True),
    (True, True, False, 1, "config", True),
    (True, False, True, 1, "computed", True),
    (True, False, False, 1, "computed", True),
    (False, True, True, 0, "config", False),
    (False, True, False, 0, "none", False),
    (False, False, True, 1, "computed", True),
    (False, False, False, 0, "none", False),
])
def test_form_rule(monkeypatch, lam_check, given, theorem, calls, source, singular):
    checks = ["LAMBDA"] * lam_check + ["THEOREM"] * theorem
    seen = []
    computed = cli.commutation_matrix

    def counting(datum, word):
        seen.append(word)
        return computed(datum, word)

    monkeypatch.setattr(cli, "commutation_matrix", counting)
    form = {"lambda": A2_LAMBDA} if given else {}
    report = run(Campaign.from_dict(a2_doc(checks=checks, **form)))
    assert len(seen) == calls
    assert report["meta"]["lambda_source"] == source
    names = [rec["name"] for rec in report["checks"]]
    assert ("lambda-oracle" in names) == lam_check
    affine = a2_doc(cartan=AFFINE, checks=checks, **({"lambda": AFFINE_LAMBDA} if given else {}))
    if singular:
        with pytest.raises(CampaignError, match="singular"):
            Campaign.from_dict(affine)
    else:
        Campaign.from_dict(affine)


def test_run_empty_campaign():
    c = Campaign.from_dict(a2_doc(checks=[]))
    report = run(c)
    assert report["checks"] == []
    assert report["meta"]["lambda_source"] == "none"


def test_run_passes_and_schema():
    c = Campaign.from_dict(a2_doc())
    report = run(c)
    assert {rec["verdict"] for rec in report["checks"]} == {"PASS"}
    names = [rec["name"] for rec in report["checks"]]
    assert names[0] == "lambda-oracle" and "theorem" in names
    assert report["meta"]["word"] == [1, 2, 1]
    assert report["meta"]["lambda_source"] == "computed"
    # records are pure JSON types and round-trip
    again = json.loads(json.dumps(report))
    assert again == report


def test_run_with_wrong_lambda_fails():
    # skew and right-sized but not the commutation form of the cell
    wrong = [[0, 5, 0], [-5, 0, 0], [0, 0, 0]]
    c = Campaign.from_dict(a2_doc(**{"lambda": wrong}))
    report = run(c)
    verdicts = {rec["name"]: rec["verdict"] for rec in report["checks"]}
    assert verdicts["lambda-oracle"] == "FAIL"
    assert verdicts["theorem"] == "FAIL"
    lam_rec = next(r for r in report["checks"] if r["name"] == "lambda-oracle")
    assert "witness" in lam_rec
    assert report["meta"]["lambda_source"] == "config"


def test_emit_text_and_json():
    c = Campaign.from_dict(a2_doc())
    report = run(c)
    text = emit(report, "text")
    assert "lambda-oracle" in text and "0 failed" in text
    blob = emit(report, "json", deterministic=True)
    parsed = json.loads(blob)
    assert all(rec["millis"] == 0 for rec in parsed["checks"])
    # deterministic emission does not disturb the original report
    assert emit(report, "json", deterministic=True) == blob


# -- the command line ------------------------------------------------------

def test_main_pass_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, a2_doc())
    assert main(["--config", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["meta"]["type"] == "A2"


def test_main_fail_exit_one(tmp_path, capsys):
    wrong = [[0, 5, 0], [-5, 0, 0], [0, 0, 0]]
    path = write_config(tmp_path, a2_doc(checks=["LAMBDA"], **{"lambda": wrong}))
    assert main(["--config", path]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_config_errors_exit_two(tmp_path, capsys):
    bad_word = write_config(tmp_path, a2_doc(word=[1, 1]), "w.json")
    assert main(["--config", bad_word]) == 2
    assert "not reduced" in capsys.readouterr().err
    bad_l = write_config(tmp_path, a2_doc(l_values=[4]), "l.json")
    assert main(["--config", bad_l]) == 2
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["--config", str(broken)]) == 2
    assert main(["--config", str(tmp_path / "absent.json")]) == 2
    assert main(["--config", str(broken), "--jobs", "0"]) == 2
    for name, doc in (("b.json", a2_doc(trials=True)),
                      ("k.json", a2_doc(mutations={"dpeth": 3}))):
        assert main(["--config", write_config(tmp_path, doc, name)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_main_singular_cartan(tmp_path, capsys):
    # without a given form the minor model is needed: exit 2, not a traceback
    path = write_config(tmp_path, a2_doc(cartan=AFFINE, checks=["LAMBDA", "THEOREM"]))
    assert main(["--config", path]) == 2
    assert "singular" in capsys.readouterr().err
    # with one, the torus checks run, and their report is the one generated
    # before singular matrices were rejected
    path = write_config(tmp_path, golden_configs()["affine-a1-theorem.json"])
    assert main(["--config", path, "--format", "json", "--deterministic"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "affine-a1-theorem.json").read_text()


def test_main_unwritable_out_exits_two_before_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "run", no_run)
    path = write_config(tmp_path, a2_doc())
    missing = tmp_path / "missing" / "r.json"
    assert main(["--config", path, "--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not missing.parent.exists()


def test_main_deterministic_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, a2_doc(checks=["LAMBDA", "THEOREM", "SPLIT_AXIOMS"],
                                         trials=20))
    assert main(["--config", path, "--format", "json", "--deterministic"]) == 0
    first = capsys.readouterr().out
    assert main(["--config", path, "--format", "json", "--deterministic"]) == 0
    assert capsys.readouterr().out == first


def test_main_jobs_matches_serial(tmp_path, capsys):
    # every check kind through the pool, and a wrong form whose engine
    # error stands in for every prebuilt seed
    for golden, status in (("a2-all-checks.json", 0), ("a2-wrong-lambda.json", 1)):
        path = write_config(tmp_path, golden_configs()[golden])
        assert main(["--config", path, "--format", "json", "--deterministic"]) == status
        serial = capsys.readouterr().out
        assert serial == (GOLDEN / golden).read_text()
        assert main(["--config", path, "--format", "json", "--deterministic",
                     "--jobs", "2"]) == status
        assert capsys.readouterr().out == serial
    names = {rec["name"] for rec in json.loads(serial)["checks"]}
    assert len(names) == len(KNOWN_CHECKS)
    assert "engine error" in serial


# A3 sequences that reach 3 distinct seeds, two each: (1) and (1,2,3,2,3),
# (1,2) and (1,3,2,3), (1,2,3) and (1,3,2)
REVISITS = {"cartan": "A3", "word": [1, 2, 1, 3, 2, 1], "l_values": [3, 5],
            "mutations": {"sequences": [[1], [1, 2, 3, 2, 3], [1, 2], [1, 3, 2, 3],
                                        [1, 2, 3], [1, 3, 2]]},
            "exponents": {"max_entry": 1}, "checks": ["THEOREM"]}


def test_revisited_seeds_golden(tmp_path, capsys):
    path = write_config(tmp_path, REVISITS)
    for jobs in ("1", "2"):
        assert main(["--config", path, "--format", "json", "--deterministic",
                     "--jobs", jobs]) == 0
        assert capsys.readouterr().out == (GOLDEN / "a3-revisits.json").read_text()


# B2 at depth 3: 7 sequences, of which (1,2,1) and (2,1,2) reach one seed
B2_DEPTH3 = {"cartan": "B2", "word": [1, 2, 1, 2], "l_values": [3, 5],
             "mutations": {"depth": 3}, "exponents": {"max_entry": 1},
             "checks": ["THEOREM"]}


@pytest.mark.parametrize("doc, batches", [(REVISITS, 6), (B2_DEPTH3, 12)])
def test_one_theorem_batch_per_distinct_seed(monkeypatch, doc, batches):
    # against the per-sequence path: each record is the batch on a seed
    # walked from the word's seed along its own sequence alone
    c = Campaign.from_dict(doc)
    pooled = emit(run(c, jobs=2), "json", deterministic=True)
    calls = []
    batch = cli._theorem_batch

    def counting(seed, l, vectors):
        calls.append(l)
        return batch(seed, l, vectors)

    monkeypatch.setattr(cli, "_theorem_batch", counting)
    report = run(c)
    assert len(calls) == batches
    assert emit(report, "json", deterministic=True) == pooled
    monkeypatch.setattr(cli, "_PRODUCTS", ProductTable())
    lam = SkewForm(report["meta"]["lambda"])
    for rec in report["checks"]:
        seed = seed_from_word(c.datum, c.word, lam)
        for pos in rec["params"]["mutations"]:
            seed = mutate_seed(seed, pos - 1)
        outcome = batch(seed, rec["params"]["l"], c.vectors)
        assert {**rec, "millis": 0} == cli._record("theorem", rec["params"], outcome, 0)


def _assert_golden_at_both_jobs(capsys, name):
    # serially and on a pool of two, against one golden report
    path = CAMPAIGNS / name
    for jobs in ("1", "2"):
        assert main(["--config", str(path), "--format", "json", "--deterministic",
                     "--jobs", jobs]) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text(), jobs


def test_composite_order_campaign(capsys):
    # the one sample campaign whose eps ring reduces mod a composite Phi_l
    _assert_golden_at_both_jobs(capsys, "a3-order9.json")
    checks = json.loads((GOLDEN / "a3-order9.json").read_text())["checks"]
    assert [(c["name"], c["verdict"], c["checked"]) for c in checks] == [
        ("theorem", "PASS", 1458)] * 4


def test_a2_full_campaign(capsys):
    # every check kind on A2, at two orders and two mutation steps
    _assert_golden_at_both_jobs(capsys, "a2-full.json")


@pytest.mark.parametrize("name", ["a3-theorem", "b2-all"])
def test_sample_campaign_golden(capsys, name):
    # b2-all is the one sample campaign that runs the B2 minor checks
    _assert_golden_at_both_jobs(capsys, f"{name}.json")


def golden_configs() -> dict:
    """The config behind each golden report, by the report's file name."""
    configs = {
        "a2-all-checks.json": a2_doc(checks=list(KNOWN_CHECKS), trials=5),
        "a2-wrong-lambda.json": a2_doc(checks=list(KNOWN_CHECKS), trials=5,
                                       **{"lambda": WRONG_LAMBDA}),
        "a3-revisits.json": REVISITS,
        "affine-a1-theorem.json": a2_doc(cartan=AFFINE, trials=5, **{"lambda": AFFINE_LAMBDA},
                                         checks=["THEOREM", "SPLIT_AXIOMS", "REDUCTION"]),
    }
    for path in sorted(CAMPAIGNS.glob("*.json")):
        configs[path.name] = json.loads(path.read_text())
    return configs


def test_every_golden_report_has_a_config():
    assert sorted(golden_configs()) == sorted(p.name for p in GOLDEN.glob("*.json"))


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, worker
    initializer and the items it maps, runs in process."""
    sizes = []
    initializers = []
    items = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)
        self.initializers.append(initializer)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.items.extend(items)
        return map(fn, items)


def test_pool_capped_at_task_count(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    # more CPUs than tasks, so the task count is the cap
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    # two theorem batches and three minor checks, one task each
    c = Campaign.from_dict(a2_doc(checks=["THEOREM", "KKKO"]))
    report = run(c, jobs=5000)
    assert RecordingPool.sizes == [5]
    names = [rec["name"] for rec in report["checks"]]
    assert names == ["theorem"] * 2 + ["minor-power"] * 3
    run(Campaign.from_dict(a2_doc(checks=["SPLIT_AXIOMS"], trials=5)), jobs=4)
    assert RecordingPool.sizes == [5]       # a single task runs in process


def test_pool_capped_at_usable_cpus(monkeypatch):
    # 2,000 distinct theorem batches at --jobs 100000 start a pool no larger
    # than the CPUs this process may use; the stub pool starts no process
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_theorem_batch", lambda seed, l, vectors: CheckOutcome(True, 0))
    c = Campaign.from_dict(a2_doc(checks=["THEOREM"], l_values=list(range(3, 2003, 2))))
    assert len(c.l_values) * len(c.sequences) == 2000
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert len(run(c, jobs=100_000)["checks"]) == 2000
    assert RecordingPool.sizes == [3]
    # without affinity, the CPU count; with no count known, one: no pool
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run(c, jobs=100_000)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run(c, jobs=100_000)
    assert RecordingPool.sizes == [3, 2]


@pytest.mark.parametrize("jobs", [2, 3, 5, 16])
def test_pool_gets_theorem_batches_in_contiguous_runs(monkeypatch, jobs):
    # the 12 distinct theorem batches of B2 at depth 3 go as one run per
    # worker, contiguous and in report order, so each worker's product
    # table serves neighbouring seeds; the 4 mod-p tasks go alone
    doc = {**B2_DEPTH3, "checks": ["THEOREM", "SPLIT_AXIOMS", "REDUCTION"], "trials": 5}
    c = Campaign.from_dict(doc)
    want = emit(run(c), "json", deterministic=True)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "items", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    report = run(c, jobs=jobs)
    assert emit(report, "json", deterministic=True) == want
    assert RecordingPool.sizes == [jobs]
    params = [rec["params"] for rec in report["checks"]]
    groups = [[params.index(cli._jsonable(task[1])) for task in group]
              for group in RecordingPool.items]
    runs, alone = groups[:min(jobs, 12)], groups[min(jobs, 12):]
    assert {len(group) for group in runs} <= {12 // jobs, -(-12 // jobs)}
    batches = [i for group in runs for i in group]
    assert batches == sorted(batches) and len(batches) == 12
    assert all(report["checks"][i]["name"] == "theorem" for i in batches)
    assert alone == [[i] for i in range(len(params)) if report["checks"][i]["name"] != "theorem"]
    assert len(alone) == 4


def test_goldens_at_three_jobs(tmp_path, capsys, monkeypatch):
    # a pool of three workers, whatever the CPU count, splits the theorem
    # batches three ways and gives every golden report unchanged
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    for name, doc in golden_configs().items():
        golden = (GOLDEN / name).read_text()
        status = 1 if '"FAIL"' in golden else 0
        path = write_config(tmp_path, doc, name)
        assert main(["--config", path, "--format", "json", "--deterministic",
                     "--jobs", "3"]) == status, name
        assert capsys.readouterr().out == golden, name


def test_pool_workers_start_with_a_power_table(monkeypatch):
    monkeypatch.setattr(RecordingPool, "initializers", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    # a worker starts from the empty table it forks or imports
    assert cli._PRODUCTS == {} and cli._PRODUCTS.terms == 0
    run(Campaign.from_dict(a2_doc(checks=["THEOREM"])), jobs=2)
    assert RecordingPool.initializers == [None]
    assert cli._PRODUCTS == {} and cli._PRODUCTS.terms == 0


def test_serial_run_shares_one_power_table_and_drops_it(monkeypatch):
    seen = []
    batch = cli._theorem_batch

    def recording(seed, l, vectors):
        out = batch(seed, l, vectors)
        seen.append((cli._PRODUCTS, cli._PRODUCTS.terms))
        return out

    monkeypatch.setattr(cli, "_theorem_batch", recording)
    c = Campaign.from_dict(a2_doc(checks=["THEOREM"], l_values=[3, 5],
                                  mutations={"depth": 2}))
    report = run(c)
    assert {rec["verdict"] for rec in report["checks"]} == {"PASS"}
    assert len(seen) == 2 * len(c.sequences)
    sizes = [size for _, size in seen]
    assert all(table is cli._PRODUCTS for table, _ in seen)
    assert sizes[0] and sizes == sorted(sizes)      # kept from batch to batch
    assert cli._PRODUCTS == {} and cli._PRODUCTS.terms == 0

    def failing(seed, l, vectors):
        recording(seed, l, vectors)
        raise RuntimeError("batch failed")

    monkeypatch.setattr(cli, "_theorem_batch", failing)
    seen.clear()
    with pytest.raises(RuntimeError, match="batch failed"):
        run(c)
    assert seen and seen[0][1]
    assert cli._PRODUCTS == {} and cli._PRODUCTS.terms == 0


def test_power_table_emptied_past_its_cap(monkeypatch):
    # the cap counts the terms the product table holds, checked as a batch
    # starts
    c = Campaign.from_dict(a2_doc(checks=["THEOREM"], l_values=[3, 5],
                                  mutations={"depth": 2}))
    want = emit(run(c), "json", deterministic=True)
    sizes = []
    session = cli.TheoremSession

    def recording(seed, l, products):
        sizes.append(products.terms)
        assert products.terms == sum(len(v.terms) for v in products.values())
        return session(seed, l, products)

    monkeypatch.setattr(cli, "TheoremSession", recording)
    monkeypatch.setattr(cli, "_PRODUCT_TERMS_CAP", 30)
    assert emit(run(c), "json", deterministic=True) == want
    assert len(sizes) == 2 * len(c.sequences) and max(sizes) <= 30
    # emptied at least once, and refilled after
    assert any(b < a for a, b in zip(sizes, sizes[1:])) and any(sizes[1:])


@pytest.mark.parametrize("doc, fragment", [
    ({"cartan": "A1", "word": [1], "l_values": [401], "checks": ["KKKO"]},
     "KKKO at position 1, l = 401"),
    ({"cartan": "A3", "word": [1, 2, 1, 3, 2, 1], "l_values": [3],
      "mutations": {"depth": 30}, "checks": ["THEOREM"]}, "depth 30"),
    ({"cartan": "A2", "word": [1, 2, 1], "checks": ["THEOREM"],
      "mutations": {"sequences": [[1] * 50_000, [1] * 50_001]}}, "100000 mutation steps"),
    ({"cartan": "G2", "word": [1, 2, 1, 2, 1, 2], "checks": ["LAMBDA"]}, "3326542390 splits"),
    ({"cartan": A4, "word": A4_W0, "checks": ["THEOREM"]}, "69980688 splits"),
    ({"cartan": "G2", "word": [2, 1, 2, 1, 2], "l_values": [5], "checks": ["LAMBDA"]},
     "80128152 splits"),
    ({"cartan": "A3", "word": [1, 2, 1, 3, 2, 1], "l_values": [101],
      "checks": ["SPLIT_AXIOMS"]}, "SPLIT_AXIOMS at p = 101 needs 200 trials"),
    # a prime order found by trial division would take hours
    ({"cartan": "A1", "word": [1], "l_values": [1000000000000000003],
      "checks": ["SPLIT_AXIOMS"], "trials": 1}, "orders up to 1000000000000,"),
    ({"cartan": "A3", "word": [1, 2, 1, 3, 2, 1], "l_values": [3],
      "checks": ["REDUCTION"], "trials": 100_000_000}, "trials: 100000000 is more than"),
    # counts past 4,300 digits, and a divided-word count that took a minute
    ({"cartan": "A2", "word": [1, 2, 1], "l_values": [20001], "checks": ["KKKO"]},
     "KKKO at position 2, l = 20001 needs at least 2^20001 words"),
    ({"cartan": "A2", "word": [1, 2, 1], "l_values": [601], "checks": ["BASE_CASE"]},
     "BASE_CASE at position 2, l = 601 needs at least 2^601 divided words"),
    # listed vectors past the largest box, which ran 28.6 s and 35 s
    ({"cartan": "A3", "word": [1, 2, 1, 3, 2, 1], "l_values": [5],
      "mutations": {"sequences": [[2, 1]]}, "exponents": {"vectors": [[40, 40, 40, 0, 0, 0]]},
      "checks": ["THEOREM"]}, "vector [40, 40, 40, 0, 0, 0] has an entry past every max_entry"),
    ({"cartan": "A2", "word": [1, 2, 1], "l_values": [3], "mutations": {"sequences": [[1]]},
      "exponents": {"vectors": [[1600, 0, 0]]}, "checks": ["THEOREM"]},
     "vector [1600, 0, 0] has an entry past every max_entry"),
    ({"cartan": "A2", "word": [1, 2, 1], "l_values": [3],
      "exponents": {"vectors": [[0, 0, 0]] * 200_001}, "checks": ["THEOREM"]},
     "exponents: more than 200000 vectors"),
], ids=["kkko-a1-l401", "a3-depth30", "steps-100001", "lambda-g2-w0", "lambda-a4-w0",
        "lambda-g2-21212", "split-a3-p101", "split-a1-order-1e18", "reduction-trials-1e8",
        "kkko-a2-l20001", "base-case-a2-l601", "vector-a3-40", "vector-a2-1600",
        "vectors-200001"])
def test_runaway_config_exits_two_at_once(tmp_path, capsys, doc, fragment):
    path = write_config(tmp_path, doc)
    t0 = time.perf_counter()
    assert main(["--config", path]) == 2
    assert time.perf_counter() - t0 < 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("word, top", [([1], 199_999), ([1, 2, 1], 57),
                                       ([1, 2, 1, 3, 2, 1], 6), (A4_W0, 2)])
def test_listed_entries_end_where_the_box_ends(word, top):
    # a listed vector may take an entry exactly when the box of that
    # max_entry is accepted, the largest m with (m + 1)^len(word) <= 200000
    def accepted(exponents):
        doc = {"cartan": A4, "word": word, "checks": [], "exponents": exponents}
        try:
            Campaign.from_dict(doc)
        except CampaignError as exc:
            assert "more than 200000 vectors" in str(exc) or "past every max_entry" in str(exc)
            return False
        return True

    for entry in (top, top + 1):
        assert accepted({"vectors": [[0] * (len(word) - 1) + [entry]]}) == (entry == top)
        assert accepted({"max_entry": entry}) == (entry == top)


def test_huge_order_without_prime_checks_runs_at_once(tmp_path, capsys):
    # no check listed needs the prime orders, so none is looked for
    doc = {"cartan": "A2", "word": [1, 2, 1], "l_values": [1000000000000000003],
           "checks": ["LAMBDA"]}
    t0 = time.perf_counter()
    assert main(["--config", write_config(tmp_path, doc)]) == 0
    assert time.perf_counter() - t0 < 1
    assert "1 checks, 0 failed" in capsys.readouterr().out


def test_each_order_tested_for_primality_once(monkeypatch):
    # validation finds the prime orders; the splitting checks take their
    # fields from it instead of testing each order again
    tested = []
    is_prime = qtorus.is_prime

    def counting(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(qtorus, "is_prime", counting)
    doc = a2_doc(checks=["SPLIT_AXIOMS", "REDUCTION"], l_values=[3, 9, 5], trials=2)
    records = run(Campaign.from_dict(doc))["checks"]
    assert [(rec["name"], rec["params"]["p"]) for rec in records] == [
        ("splitting-axioms", 3), ("splitting-axioms", 5),
        ("splitting-reduction", 3), ("splitting-reduction", 5)]
    assert tested == [3, 9, 5]


def test_repeated_order_exits_two(tmp_path, capsys, monkeypatch):
    # a repeated order would build its field and run its checks twice; it is
    # rejected at validation, by name, before any field is built
    tested = []
    monkeypatch.setattr(qtorus, "is_prime", lambda n: tested.append(n) or True)
    for orders, repeated in (([3, 3], 3), ([3, 5, 9, 5], 5)):
        doc = a2_doc(checks=["THEOREM", "SPLIT_AXIOMS", "REDUCTION"], l_values=orders, trials=2)
        with pytest.raises(CampaignError, match=f"l_values: order {repeated} is repeated"):
            Campaign.from_dict(doc)
        assert main(["--config", write_config(tmp_path, doc), "--format", "json"]) == 2
        assert capsys.readouterr().err == f"error: l_values: order {repeated} is repeated\n"
    assert tested == []


def test_overlong_integer_in_config_exits_two(tmp_path, capsys):
    # json.load refuses an integer past Python's digit limit with a plain
    # ValueError, not a JSONDecodeError
    path = tmp_path / "c.json"
    path.write_text('{"cartan": "A2", "word": [1, 2, 1], "l_values": [%s]}' % ("9" * 5000))
    t0 = time.perf_counter()
    assert main(["--config", str(path)]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error: config could not be read: ") and "Traceback" not in err


def test_minor_check_over_cap_exits_two_at_once(tmp_path, capsys):
    # G2 at l = 5 has 87,616,512 divided words at positions 2 and 3
    doc = {"cartan": "G2", "word": [1, 2, 1], "l_values": [5], "checks": ["BASE_CASE"]}
    path = write_config(tmp_path, doc)
    t0 = time.perf_counter()
    assert main(["--config", path]) == 2
    assert time.perf_counter() - t0 < 1
    assert "BASE_CASE at position 2, l = 5 needs 87616512 divided words" in (
        capsys.readouterr().err)


def test_inexact_minor_division_is_a_fail_record(tmp_path, capsys, monkeypatch):
    # a minor divisor off by [3] makes every minor value non-integral
    extremal = uqn.extremal_fword

    def off_by_three(datum, hw, word):
        fword, divisor = extremal(datum, hw, word)
        return fword, divisor * qint(3)

    monkeypatch.setattr(uqn, "extremal_fword", off_by_three)
    path = write_config(tmp_path, a2_doc(checks=["BASE_CASE", "KKKO"]))
    assert main(["--config", path, "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["checks"]
    assert [(r["name"], r["verdict"]) for r in records] == (
        [("minor-base-case", "FAIL")] * 3 + [("minor-power", "FAIL")] * 3)
    for rec in records:
        assert rec["note"].startswith("value not specializable: ")
        assert rec["witness"]


def test_engine_error_stands_in_for_seed(monkeypatch):
    def failing(seed, pos):
        raise ExactDivisionError("no quotient")

    monkeypatch.setattr(cli, "mutate_seed", failing)
    c = Campaign.from_dict(a2_doc(checks=["THEOREM"],
                                  mutations={"sequences": [[1], [], [1, 1]]}))
    for jobs in (1, 2):
        records = run(c, jobs=jobs)["checks"]
        notes = [rec.get("note") for rec in records]
        assert notes == ["engine error: no quotient", None,
                         "engine error: no quotient"] * len(c.l_values)
        assert [rec["checked"] for rec in records if "note" in rec] == [0, 0] * len(c.l_values)


def test_reduction_fail_record(tmp_path, capsys, monkeypatch):
    # a split that adds 1 on the full word's torus when the sample has a
    # monomial starting x_1^-2 x_2^-2 (pool workers fork, so they see it);
    # the records are the ones the check gave when the driver drew every
    # sample before the run, so drawing them in the task keeps their order
    split = frobsplit.modp_split

    def broken(f):
        out = split(f)
        if f.form.r == 6 and any(a[:2] == (-2, -2) for a in f.terms):
            out = out + TorusElement.one(f.ring, f.form)
        return out

    monkeypatch.setattr(frobsplit, "modp_split", broken)
    path = write_config(tmp_path, {"cartan": "A3", "word": [1, 2, 1, 3, 2, 1],
                                   "l_values": [3, 5], "checks": ["REDUCTION"],
                                   "reduction_prefix": 3, "trials": 30})
    want = [(3, 28, "(1)*x^(0, -1, 2) + (1)*x^(-2, -2, 0)"),
            (5, 6, "(1)*x^(2, 1, -2) + (2)*x^(2, -1, 0) + (1)*x^(-2, -2, 1)")]
    for jobs in ("1", "2"):
        assert main(["--config", path, "--format", "json", "--jobs", jobs]) == 1
        records = json.loads(capsys.readouterr().out)["checks"]
        assert [(r["params"]["p"], r["verdict"], r["checked"], r["witness"])
                for r in records] == [
            (p, "FAIL", checked, {"monomial": [0] * 6, "left": "0", "right": "1",
                                  "element": element})
            for p, checked, element in want]


# A3 at l = 3 and 5 over the four seeds of depth 1, on vectors where the
# expansions have several terms and l divides some of them
THEOREM_FAIL = {"cartan": "A3", "word": [1, 2, 1, 3, 2, 1], "l_values": [3, 5],
                "mutations": {"depth": 1},
                "exponents": {"vectors": [[0] * 6, [1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0],
                                          [1, 1, 0, 1, 1, 1], [3, 0, 0, 0, 0, 0],
                                          [0, 3, 3, 0, 0, 0], [3] * 6, [0, 5, 5, 0, 0, 0]]},
                "checks": ["THEOREM"]}


def _rewrite_term(f: TorusElement, pick, change) -> TorusElement:
    """f with change applied to the coefficient of its pick-th monomial,
    when f has two terms or more."""
    if len(f.terms) < 2:
        return f
    key = pick(f.terms)
    return TorusElement(f.ring, f.form, {a: change(c, f.ring) if a == key else c
                                         for a, c in f.terms.items()})


def _fr_star_top_times_eps(monkeypatch):
    push = frobsplit.fr_star
    monkeypatch.setattr(frobsplit, "fr_star", lambda f: _rewrite_term(
        push(f), max, lambda c, ring: c * eps_power(ring.l, 1)))


def _frp_star_lowest_negated(monkeypatch):
    split = frobsplit.frp_star
    monkeypatch.setattr(frobsplit, "frp_star", lambda f: _rewrite_term(
        split(f), min, lambda c, ring: -c))


# THEOREM_FAIL's two breaks, by the branch each fails
THEOREM_FAIL_BREAKS = {"pushforward": _fr_star_top_times_eps,
                       "splitting": _frp_star_lowest_negated}


@pytest.mark.parametrize("branch", ["pushforward", "splitting"])
def test_theorem_fail_record(tmp_path, capsys, monkeypatch, branch):
    # a pushforward that turns its top coefficient by eps, or a splitting
    # that negates its lowest one; pool workers fork, so they see it.  The
    # records are the ones the checker gave before monomial expansion ran
    # by unit shifts.
    THEOREM_FAIL_BREAKS[branch](monkeypatch)
    if branch == "pushforward":
        want = [((), "PASS", 16, None)] + [
            (seq, "FAIL", checked, {"monomial": [l * x for x in mono], "left": "e",
                                    "right": "1", "branch": "pushforward",
                                    "exponent": exponent})
            for l in (3, 5) for seq, checked, mono, exponent in [
                ((1,), 3, [-1, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]),
                ((2,), 5, [1, -1, 1, 0, 1, 0], [0, 1, 1, 0, 0, 0]),
                ((3,), 5, [1, 1, -1, 0, 1, 0], [0, 1, 1, 0, 0, 0])]]
        want.insert(4, want[0])
    else:
        fail = {"left": "-1", "right": "1", "branch": "splitting"}
        want = [
            ((), "PASS", 16, None),
            ((1,), "FAIL", 10, {"monomial": [-1, 0, 1, 0, 0, 0],
                                "exponent": [3, 0, 0, 0, 0, 0], **fail}),
            ((2,), "FAIL", 12, {"monomial": [0, -1, 2, 1, 0, 0],
                                "exponent": [0, 3, 3, 0, 0, 0], **fail}),
            ((3,), "FAIL", 12, {"monomial": [0, 2, -1, 0, 0, 1],
                                "exponent": [0, 3, 3, 0, 0, 0], **fail}),
            ((), "PASS", 16, None),
            ((1,), "PASS", 16, None),
            ((2,), "FAIL", 16, {"monomial": [0, -1, 2, 1, 0, 0],
                                "exponent": [0, 5, 5, 0, 0, 0], **fail}),
            ((3,), "FAIL", 16, {"monomial": [0, 2, -1, 0, 0, 1],
                                "exponent": [0, 5, 5, 0, 0, 0], **fail})]
    path = write_config(tmp_path, THEOREM_FAIL)
    for jobs in ("1", "2"):
        assert main(["--config", path, "--format", "json", "--jobs", jobs]) == 1
        records = json.loads(capsys.readouterr().out)["checks"]
        assert [(tuple(r["params"]["mutations"]), r["verdict"], r["checked"],
                 r.get("witness")) for r in records] == want


def _workload_config(name: str) -> dict:
    """The benchmark's config of a workload at seed 1."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.make_config(name, 1)


def _run_batches(doc) -> list:
    """The (seed, l, vectors) of every theorem batch run takes on doc, in
    its order; a seed may be the engine error that stands in for it."""
    if "THEOREM" not in doc.get("checks", KNOWN_CHECKS):
        return []
    batches = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_theorem_batch",
                      lambda *args: batches.append(args) or CheckOutcome(True, 0))
        run(Campaign.from_dict({**doc, "checks": ["THEOREM"]}))
    return batches


# A3 at l = 3 and 5 over the four seeds of depth 1, on the box of entries up
# to 2 and 3 times the 0-1 box, by total degree: the batches the breaks of
# test_frobsplit.py fail mid-batch, or pass on
BREAKS_DOC = {"cartan": "A3", "word": [1, 2, 1, 3, 2, 1], "l_values": [3, 5],
              "mutations": {"depth": 1}, "checks": ["THEOREM"],
              "exponents": {"vectors": sorted(
                  [list(v) for v in itertools.product(range(3), repeat=6)]
                  + [[3 * x for x in v] for v in itertools.product(range(2), repeat=6)],
                  key=sum)}}


WORKLOADS = ("theorem-box", "theorem-scatter", "oracle-a2")


# the breaks of test_check_all_stops_at_a_failure_mid_batch and of
# test_check_matches_whole_expansions_with_a_broken_primitive
FRAME_BREAKS = {**PUSHED_BREAKS, **{name: breaks for name, (breaks, _) in BROKEN.items()}}


def _differential_case(case: str):
    """The config and the break, or None, of a differential case."""
    kind, _, name = case.partition(":")
    if kind == "golden":
        return golden_configs()[name], None
    if kind == "workload":
        return _workload_config(name), None
    if kind == "theorem-fail":
        return THEOREM_FAIL, THEOREM_FAIL_BREAKS[name]
    return BREAKS_DOC, FRAME_BREAKS[name]


DIFFERENTIAL_CASES = (
    [f"golden:{name}" for name in sorted(golden_configs())]
    + [f"workload:{name}" for name in WORKLOADS]
    + [f"theorem-fail:{name}" for name in THEOREM_FAIL_BREAKS]
    + [f"break:{name}" for name in FRAME_BREAKS])


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
def test_shared_product_table_matches_private_tables(case, monkeypatch):
    # run's batches in run's order, on one product table carried from seed
    # to seed, against each batch on private tables
    doc, breaks = _differential_case(case)
    batches = _run_batches(doc)
    if breaks is not None:
        breaks(monkeypatch)
    shared = ProductTable()
    for seed, l, vectors in batches:
        if isinstance(seed, Exception):
            continue
        got = TheoremSession(seed, l, shared).check_all(vectors)
        assert got == TheoremSession(seed, l).check_all(vectors), (l, seed)
    assert bool(batches) == ("THEOREM" in doc.get("checks", KNOWN_CHECKS))


def _count_torus_calls(monkeypatch) -> dict:
    """Count calls and output terms of SeedExpander.monomial and
    TorusElement.__mul__ (and the term pairs the product visits), by ring,
    under the names of the benchmark's traced rows; the class attributes are
    wrapped where the benchmark's tracer wraps them."""
    counts = {}

    def bump(name, key, n):
        counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + n

    mul, monomial = TorusElement.__mul__, SeedExpander.monomial

    def traced_mul(a, b):
        out = mul(a, b)
        ring = a.ring
        name = "qtorus.mul." + (ring.point.value if isinstance(ring, CycloRing)
                                else "laurent" if isinstance(ring, LaurentRing) else "modp")
        bump(name, "calls", 1)
        bump(name, "term_pairs", len(a.terms) * len(b.terms))
        bump(name, "terms_out", len(out.terms))
        return out

    def traced_monomial(self, a):
        out = monomial(self, a)
        bump("frobsplit.monomial", "calls", 1)
        bump("frobsplit.monomial", "terms_out", len(out.terms))
        return out

    monkeypatch.setattr(TorusElement, "__mul__", traced_mul)
    monkeypatch.setattr(SeedExpander, "monomial", traced_monomial)
    return counts


# The counts the benchmark's frobsplit.monomial.* and qtorus.mul.* rows read
# on A3 at l = 3 and 5: 8 batches of the 64 vectors of the 0-1 box.  The
# qtorus.mul.* counts are those of one product table shared by the 8
# batches: each product of a block part or a tail part is built once per run
# (see test_traced_products_built_once), and zero exponents take no
# product.  frobsplit.monomial runs only in check(a), which check_all
# leaves to a = 0 in each batch (see test_traced_fallback_is_the_zero_vector):
# x^0 at 1 and x^{l 0} at eps for the pushforward, x^0 at eps for the
# splitting and x^0 at 1 to compare its split with, one term each.
TRACED = {"cartan": "A3", "word": [1, 2, 1, 3, 2, 1], "l_values": [3, 5],
          "mutations": {"depth": 1}, "exponents": {"max_entry": 1},
          "checks": ["THEOREM"]}
TRACED_COUNTS = {
    "frobsplit.monomial.calls": 32, "frobsplit.monomial.terms_out": 32,
    "qtorus.mul.laurent.calls": 20, "qtorus.mul.laurent.term_pairs": 20,
    "qtorus.mul.laurent.terms_out": 20,
    "qtorus.mul.one.calls": 52, "qtorus.mul.one.term_pairs": 76,
    "qtorus.mul.one.terms_out": 76,
    "qtorus.mul.eps.calls": 149, "qtorus.mul.eps.term_pairs": 281,
    "qtorus.mul.eps.terms_out": 227}


def test_traced_torus_counts_pinned(monkeypatch):
    # a refactor that routes around either name shows here
    counts = _count_torus_calls(monkeypatch)
    assert {rec["verdict"] for rec in run(Campaign.from_dict(TRACED))["checks"]} == {"PASS"}
    assert counts == TRACED_COUNTS


def test_traced_products_built_once(monkeypatch):
    # the 8 batches share one table, so no product of a block or tail part
    # is built twice: a table per batch or per expander builds the products
    # of the variables the seeds have in common again.  The frozen variables
    # are x_4, x_5 and x_6 in every seed, so a tail product is a monomial
    # off the block.
    built = []
    setitem = ProductTable.__setitem__

    def recording(table, key, value):
        built.append((key, value))
        setitem(table, key, value)

    monkeypatch.setattr(ProductTable, "__setitem__", recording)
    records = run(Campaign.from_dict(TRACED))["checks"]
    assert {rec["verdict"] for rec in records} == {"PASS"}
    exponents = [next(iter(value.terms)) for _, value in built if len(value.terms) == 1]
    tails = [b for b in exponents if any(b) and not any(b[:3])]
    assert tails and len(tails) < len(built)
    keys = [key for key, _ in built]
    assert len(keys) == len(set(keys))
    assert cli._PRODUCTS == {}


def test_traced_fallback_is_the_zero_vector(monkeypatch):
    # check_all takes a vector through check(a) only when its splitting has
    # something to compare or its expansions do not line up; on TRACED that
    # is a = 0 alone, the one vector l divides, so a change that sends
    # every vector down the slow path shows here
    fallbacks = []
    check = TheoremSession.check

    def counting(session, a):
        fallbacks.append(tuple(a))
        return check(session, a)

    monkeypatch.setattr(TheoremSession, "check", counting)
    records = run(Campaign.from_dict(TRACED))["checks"]
    assert {rec["verdict"] for rec in records} == {"PASS"}
    assert sum(rec["checked"] for rec in records) == 8 * 64 * 2
    assert fallbacks == [(0,) * 6] * 8


def test_benchmark_traced_counts_match_pinned(tmp_path):
    # the benchmark's own traced run of the same config reads the same
    # counts, so its rows and the pinned literals cannot drift apart
    path = write_config(tmp_path, TRACED)
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "run",
                           path, str(tmp_path / "spans.tsv")],
                          capture_output=True, text=True, env=SRC_ENV, check=True)
    out = json.loads(proc.stdout)
    traced = {name: value for name, value in out["counts"].items()
              if name.startswith(("frobsplit.monomial.", "qtorus.mul."))}
    traced.update({f"{name}.calls": layer["calls"] for name, layer in out["layers"].items()
                   if name == "frobsplit.monomial" or name.startswith("qtorus.mul.")})
    assert {rec["verdict"] for rec in out["report"]["checks"]} == {"PASS"}
    assert traced == TRACED_COUNTS


@pytest.mark.parametrize("orders", [[3], [3, 5]])
def test_seeds_built_once_per_sequence(monkeypatch, orders):
    calls = []
    mutate = cli.mutate_seed

    def counting(seed, pos):
        calls.append(pos)
        return mutate(seed, pos)

    monkeypatch.setattr(cli, "mutate_seed", counting)
    c = Campaign.from_dict({"cartan": "A3", "word": [1, 2, 1, 3, 2, 1],
                            "l_values": orders, "mutations": {"depth": 2},
                            "exponents": {"vectors": [[0, 1, 0, 0, 0, 1]]},
                            "checks": ["THEOREM"]})
    report = run(c)
    assert len(calls) == sum(1 for seq in c.sequences if seq) == 9
    assert len(report["checks"]) == len(orders) * len(c.sequences)
    assert {rec["verdict"] for rec in report["checks"]} == {"PASS"}


def a3_sequences_doc(sequences):
    return {"cartan": "A3", "word": [1, 2, 1, 3, 2, 1], "l_values": [3],
            "mutations": {"sequences": sequences},
            "exponents": {"vectors": [[0, 1, 0, 0, 0, 1]]}, "checks": ["THEOREM"]}


@pytest.mark.parametrize("sequences, steps", [
    ([[1, 2, 1], [1, 2, 3]], 6),                # no prefix listed: two walks
    ([[3, 2, 1], [], [2], [2, 3], [2, 3, 1]], 6),  # one walk, then one step each
])
def test_seeds_match_mutation_along_each_sequence(monkeypatch, sequences, steps):
    calls = []
    mutate = cli.mutate_seed

    def counting(seed, pos):
        calls.append(pos)
        return mutate(seed, pos)

    monkeypatch.setattr(cli, "mutate_seed", counting)
    c = Campaign.from_dict(a3_sequences_doc(sequences))
    lam = SkewForm(cli.commutation_matrix(c.datum, c.word))
    seeds = cli._build_seeds(c.datum, c.word, lam, c.sequences)
    assert len(calls) == steps
    for seq in c.sequences:
        want = seed_from_word(c.datum, c.word, lam)
        for pos in seq:
            want = mutate(want, pos)
        assert seeds[seq] == want, seq


def test_engine_error_carried_along_a_walk(monkeypatch):
    mutate = cli.mutate_seed

    def failing_at_two(seed, pos):
        if pos == 1:
            raise ExactDivisionError("no quotient")
        return mutate(seed, pos)

    monkeypatch.setattr(cli, "mutate_seed", failing_at_two)
    c = Campaign.from_dict(a3_sequences_doc([[1, 2, 1], [1, 2, 1, 3], [3, 1]]))
    lam = SkewForm(cli.commutation_matrix(c.datum, c.word))
    seeds = cli._build_seeds(c.datum, c.word, lam, c.sequences)
    error = seeds[(0, 1, 0)]
    assert isinstance(error, ExactDivisionError)
    assert seeds[(0, 1, 0, 2)] is error
    root = seed_from_word(c.datum, c.word, lam)
    assert seeds[(2, 0)] == mutate(mutate(root, 2), 0)


def test_long_listed_sequence_runs():
    # 1,000 steps, charged their length; one seed per listed sequence
    c = Campaign.from_dict({"cartan": "B2", "word": [1, 2, 1, 2], "l_values": [3],
                            "mutations": {"sequences": [[1, 2] * 500]},
                            "exponents": {"vectors": [[1, 2, 0, 1]]},
                            "checks": ["THEOREM"]})
    records = run(c)["checks"]
    assert [(r["verdict"], r["checked"]) for r in records] == [("PASS", 2)]


def test_main_out_file(tmp_path):
    path = write_config(tmp_path, a2_doc(checks=["LAMBDA"]))
    target = tmp_path / "direct.json"
    assert main(["--config", path, "--format", "json", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["meta"]["type"] == "A2"


class ClosedPipe:
    """A stdout whose reader has gone: every write and flush raises."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("extra", [[], ["--out", ""]], ids=["no-out", "empty-out"])
def test_main_ends_quietly_on_closed_stdout(tmp_path, capsys, monkeypatch, extra):
    # an empty --out writes to stdout too
    path = write_config(tmp_path, a2_doc(checks=["LAMBDA"]))
    with open(tmp_path / "stand-in", "w") as stand_in:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(stand_in.fileno()))
        assert main(["--config", path, "--format", "json"] + extra) == 0
        # stdout's descriptor now leads to devnull, so the flush at exit passes
        os.write(stand_in.fileno(), b"dropped")
    assert (tmp_path / "stand-in").read_bytes() == b""
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("extra", [[], ["--out", "/dev/stdout"]], ids=["stdout", "dev-stdout"])
def test_closed_pipe_exit_status(tmp_path, extra):
    if extra and not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    path = write_config(tmp_path, a2_doc(checks=["LAMBDA", "THEOREM"]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qcfrob.cli", "--config", path,
                               "--format", "json", *extra],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=SRC_ENV)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_console_script_runs(tmp_path):
    path = write_config(tmp_path, a2_doc(checks=["LAMBDA"]))
    proc = subprocess.run([sys.executable, "-m", "qcfrob.cli",
                           "--config", path, "--format", "text"],
                          capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0
    assert "lambda-oracle" in proc.stdout
