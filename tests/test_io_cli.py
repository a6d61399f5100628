import copy
import csv
import dataclasses
import functools
import operator
import importlib.resources
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsteer import experiments, nlhs_io
from netsteer.cli import main
from netsteer.experiments import (ExperimentReport, SweepSpec, run_activation, run_claims_demo,
                                  run_nlhs, run_verify_swap, write_csv)
from netsteer.nlhs import build_percolation_line, reconstruct
from netsteer.nlhs_io import (
    FixtureError,
    ModelFileError,
    _json_text,
    load_fixture,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from netsteer.operators import NotHermitianError, NotPositiveError
from netsteer.states import DEWParams, dew, werner

from conftest import max_entry_distance, random_model
from sweep_oracles import write_csv_records


SRC = Path(__file__).resolve().parents[1] / "src"
# imports the package, runs cli.main on argv if any is given, and prints the
# exit code with the scipy modules the interpreter then holds
COLD_START_PROBE = """
import json, sys
import netsteer, netsteer.cli
rc = netsteer.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
mods = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"rc": rc, "scipy": mods}))
"""


def _cold_start(argv):
    """Run ``COLD_START_PROBE`` in a fresh interpreter; return (exit code,
    loaded scipy modules)."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", COLD_START_PROBE, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=300)
    doc = json.loads(proc.stdout.splitlines()[-1])
    return doc["rc"], doc["scipy"]


CC4 = {"kind": "classical_correlated", "d": 4}
COMP4 = {"kind": "computational", "d": 4}
WERNER_SEP = {"kind": "werner", "omega": 0.3}
# an unsteerable DEW source steering into a classical qutrit pair
DEW_SEP = {
    "name": "dew-sep",
    "pattern": ["UNS_LEFT", "SEP"],
    "sources": [{"kind": "dew", "eta": 0.5, "omega": 0.4},
                {"kind": "classical_correlated", "d": 3}],
    "measurements": [{"kind": "bell_swap", "local_dim": 3}],
}


def _mixed(dims):
    """Explicit maximally mixed source entry (no decomposition attached)."""
    d = int(np.prod(dims))
    return {"kind": "explicit",
            "state": {"re": (np.eye(d) / d).tolist(), "im": np.zeros((d, d)).tolist(), "dims": dims}}


BUNDLED = ("sep_loc_sep", "uns_sep_uns", "sep_uns_uns", "uns_uns_sep", "percolation_star_n6")
WERNER_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "werner_sep_uns.json"


def fixture_path(name):
    return importlib.resources.files("netsteer") / "fixtures" / f"{name}.json"


class TestModelIO:
    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, n_parties=4)
        back = model_from_json(model_to_json(model))
        a = reconstruct(model)
        b = reconstruct(back)
        for k in a.elements:
            assert max_entry_distance(a.elements[k], b.elements[k]) < 1e-12

    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(6)
        model = random_model(rng, n_parties=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        a = reconstruct(model)
        b = reconstruct(back)
        for k in a.elements:
            assert max_entry_distance(a.elements[k], b.elements[k]) < 1e-12

    def test_rejects_hidden_state_dims_other_than_its_side(self):
        doc = model_to_json(random_model(np.random.default_rng(8), n_parties=3, endpoint_dim=4))
        assert doc["left_states"][0]["dims"] == [4]
        model_from_json(doc)
        for dims in ([2, 2], [4, 1], [2], []):
            bad = copy.deepcopy(doc)
            bad["right_states"][-1]["dims"] = dims
            with pytest.raises(ValueError, match="dims"):
                model_from_json(bad)

    # entries that ``np.asarray`` would cast to the number they spell; the
    # model's one-valued hidden distributions make ``True`` a valid weight
    @pytest.mark.parametrize("path,retype", [
        (("source_dists", 0, 0), bool),
        (("responses", 0, 1, 0, 0), repr),
        (("left_states", 0, "re", 0, 1), repr),
        (("right_states", 0, "im", 1, 0), repr),
        (("left_states", 0, "dims", 0), float),
    ], ids=["bool-weight", "string-response", "string-re", "string-im", "float-dims"])
    def test_rejects_entries_of_the_wrong_json_type(self, path, retype):
        doc = model_to_json(random_model(np.random.default_rng(10), n_parties=3, max_hidden=1))
        model_from_json(doc)
        *where, last = path
        parent = functools.reduce(operator.getitem, where, doc)
        parent[last] = retype(parent[last])
        with pytest.raises(ModelFileError, match="must be a JSON"):
            model_from_json(doc)

    def test_load_rejects_nan(self, tmp_path):
        doc = model_to_json(random_model(np.random.default_rng(9), n_parties=3))
        doc["source_dists"][0][0] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))      # written as the JSON literal NaN
        with pytest.raises(ValueError, match="normalised"):
            load_model(path)

    def test_json_is_plain_data(self):
        rng = np.random.default_rng(7)
        doc = model_to_json(random_model(rng, n_parties=3))
        json.dumps(doc)  # must not raise


# floats json writes in every form: non-finite, signed zero, subnormal, 17 digits
_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.225073858507201e-308,
     0.1 + 0.2, 1 / 3, 1e16, 1e-7, 123456789.12345679])
_STRINGS = st.text() | st.sampled_from(["", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "é—😀", "\ud800"])
_SCALARS = (_FLOATS | _FLOATS.map(np.float64) | st.integers() | st.booleans() | st.none()
            | _STRINGS | st.integers(-2**63, 2**63 - 1).map(np.int64)
            | st.booleans().map(np.bool_) | st.complex_numbers())
_KEYS = _STRINGS | st.integers() | _FLOATS | _FLOATS.map(np.float64) | st.booleans() | st.none()
_DOCUMENTS = st.recursive(
    _SCALARS | st.lists(_FLOATS) | st.lists(_FLOATS | st.integers() | st.booleans()),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(_KEYS, children)),
    max_leaves=20,
)


class TestJSONWriter:
    """Every JSON file is ``_json_text``'s, which must be the text of
    ``json.dumps(doc, indent=1, default=str)`` byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(_DOCUMENTS)
    def test_text_is_json_indent_1(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=1, default=str)

    @settings(max_examples=200, deadline=None)
    @given(_DOCUMENTS, st.integers(0, 3))
    def test_text_at_an_indent_is_the_text_reindented(self, doc, k):
        # what lets a report hold its model file's text, re-indented
        indent = "\n" + " " * k
        assert _json_text(doc, indent) == _json_text(doc).replace("\n", indent)

    @pytest.mark.parametrize("fixture", [*BUNDLED, str(WERNER_FIXTURE)],
                             ids=[*BUNDLED, "werner_sep_uns"])
    def test_model_out_is_save_model_and_report_model(self, fixture, tmp_path, monkeypatch):
        report, model_out, saved = (tmp_path / n for n in ("r.json", "m.json", "s.json"))
        encoded = []
        json_text = nlhs_io._json_text

        def spy(obj, *args):
            if isinstance(obj, dict) and "source_dists" in obj:
                encoded.append(obj)
            return json_text(obj, *args)

        for module in (nlhs_io, experiments):
            monkeypatch.setattr(module, "_json_text", spy)
        assert main(["nlhs", "--fixture", fixture, "--realize",
                     "--model-out", str(model_out), "--format", "json", "--out", str(report)]) == 0
        monkeypatch.undo()
        assert len(encoded) == 1        # for the model file and the report alike
        text = report.read_text()
        assert text == json.dumps(json.loads(text), indent=1)
        _, slots, net = load_fixture(fixture_path(fixture) if fixture in BUNDLED else fixture)
        save_model(build_percolation_line(slots, net.central_measurements)[0], saved)
        assert saved.read_bytes() == model_out.read_bytes()
        assert (json.loads(model_out.read_text()) == json.loads(saved.read_text())
                == json.loads(text)["model"])


def _plain(value):
    """Whether ``value`` is a plain bool, int, float or str, or a list or
    dict of plain values: no numpy scalar, which the writers would turn
    into text."""
    if type(value) is list:
        return all(_plain(v) for v in value)
    if type(value) is dict:
        return all(_plain(k) and _plain(v) for k, v in value.items())
    return type(value) in (bool, int, float, str)


@pytest.mark.parametrize("run", [
    lambda: run_verify_swap(SweepSpec(eta_range=(0.0, 1.0, 3), omega_range=(0.0, 1.0, 3))),
    lambda: run_activation(SweepSpec(omega_range=(0.8, 0.9, 11), n_parties=4)),
    lambda: run_activation(SweepSpec(omega_range=(0.0, 1.0, 11), n_parties=5,
                                     eta_boundary=True)),
    lambda: run_claims_demo(0.9),
    lambda: run_nlhs(fixture_path("sep_loc_sep"), realize=True),
], ids=["verify-swap", "activation", "activation-eta-boundary", "claims-demo", "nlhs"])
def test_report_values_are_plain(run):
    report = run()
    assert report.records and all(_plain(record) for record in report.records)
    assert _plain(report.extra)


# a report of 1-50 rows: each column all bools, all ints or all floats
_COLUMN_VALUES = st.sampled_from([st.booleans(), st.integers(), _FLOATS])


@st.composite
def _csv_reports(draw):
    n = draw(st.integers(1, 50))
    names = draw(st.lists(st.text('ab_ ,"\n', min_size=1, max_size=4), min_size=1, max_size=6,
                          unique=True))
    columns = {name: draw(st.lists(draw(_COLUMN_VALUES), min_size=n, max_size=n))
               for name in names}
    return ExperimentReport("csv", {}, columns, True)


class TestCSVWriter:
    """``write_csv`` formats one column at a time; it must write the bytes of
    the per-record writer it replaced."""

    @staticmethod
    def _same_bytes(report, tmp):
        write_csv(report, tmp / "columns.csv")
        write_csv_records(report.records, tmp / "records.csv")
        assert (tmp / "columns.csv").read_bytes() == (tmp / "records.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(_csv_reports())
    def test_matches_per_record_writer(self, report):
        with tempfile.TemporaryDirectory() as tmp:
            self._same_bytes(report, Path(tmp))

    def test_experiment_reports(self, tmp_path):
        # the claims-demo transcript is one record of floats and bools
        for report in (run_claims_demo(0.9),
                       run_activation(SweepSpec(omega_range=(0.8, 0.9, 11), n_parties=4)),
                       run_verify_swap(SweepSpec(eta_range=(0.0, 1.0, 3),
                                                 omega_range=(0.0, 1.0, 3)))):
            self._same_bytes(report, tmp_path)

    def test_refuses_empty_report(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to write"):
            write_csv(ExperimentReport("csv", {}, {"x": []}, True), tmp_path / "r.csv")


class TestCheckedRecordsAreFrozen:
    """A fixture's slots and a sweep's spec are checked when they are built;
    assigning to a field afterwards raises, so no change can skip the checks
    (a SEP slot without its decomposition, a kind no resolver knows, a
    2-party activation, a sweep of no steps)."""

    @pytest.mark.parametrize("field,value", [("decomposition", None), ("kind", "BOGUS")])
    def test_source_slot(self, field, value):
        slot = load_fixture(fixture_path("sep_loc_sep"))[1][0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(slot, field, value)

    @pytest.mark.parametrize("field,value", [("n_parties", 2), ("omega_range", (0, 1, 0))])
    def test_sweep_spec(self, field, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(SweepSpec(), field, value)


class TestFixtures:
    @pytest.mark.parametrize(
        "name",
        [
            "sep_loc_sep",
            "uns_sep_uns",
            "sep_uns_uns",
            "uns_uns_sep",
            "percolation_star_n6",
        ],
    )
    def test_bundled_fixtures_load(self, name):
        label, slots, net = load_fixture(fixture_path(name))
        assert len(net.central_measurements) == len(slots) - 1
        for slot in slots:
            assert abs(np.trace(slot.state.matrix) - 1.0) < 1e-10

    def test_dew_source_is_dew_state(self, tmp_path):
        path = tmp_path / "dew_sep.json"
        path.write_text(json.dumps(DEW_SEP))
        _, slots, _ = load_fixture(path)
        state = slots[0].state
        assert state.dims == (3, 3)
        assert state.matrix.tobytes() == dew(DEWParams(0.5, 0.4)).matrix.tobytes()

    def test_unknown_source_kind_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "pattern": ["SEP", "SEP"],
            "sources": [{"kind": "telepathy"}, {"kind": "classical_correlated", "d": 2}],
            "measurements": [{"kind": "bell_swap", "local_dim": 2}],
        }))
        with pytest.raises(FixtureError):
            load_fixture(bad)


CC2 = {"kind": "classical_correlated", "d": 2}
CC3 = {"kind": "classical_correlated", "d": 3}
SWAP2 = {"kind": "bell_swap", "local_dim": 2}
SWAP3 = {"kind": "bell_swap", "local_dim": 3}


def _explicit_werner(dims, omega=0.4):
    """An ``explicit`` fixture source: the Werner state of ``omega`` on ``dims``."""
    mat = werner(omega).matrix
    return {"kind": "explicit", "state": {"re": mat.real.tolist(), "im": mat.imag.tolist(),
                                          "dims": dims}}


class TestCLI:
    def test_verify_swap_writes_csv(self, tmp_path):
        out = tmp_path / "swap.csv"
        rc = main([
            "verify-swap", "--eta-steps", "4", "--omega-steps", "4",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eta", "omega", "deviation"]
        assert len(rows) == 17
        assert all(float(r[2]) <= 1e-10 for r in rows[1:])

    def test_activation_json(self, tmp_path):
        out = tmp_path / "act.json"
        rc = main([
            "activation", "--n", "3", "--eta-boundary",
            "--omega-steps", "9", "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["experiment"] == "activation"
        assert doc["activation_points"] >= 1
        assert doc["swap_threshold"] == pytest.approx((1 / 3) ** 0.5)

    def test_claims_demo_ok(self, tmp_path):
        out = tmp_path / "demo.json"
        rc = main([
            "claims-demo", "--omega", "0.8", "--format", "json",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "NetworkSteeringCertified"

    def test_claims_demo_precondition_exit_code(self):
        assert main(["claims-demo", "--omega", "0.5"]) == 2

    def test_nlhs_by_bundled_name(self, tmp_path):
        model_out = tmp_path / "model.json"
        rc = main([
            "nlhs", "--fixture", "uns_sep_uns", "--model-out", str(model_out),
        ])
        assert rc == 0
        model = load_model(model_out)
        assert model.n_parties == 4
        # the reader keeps every bit the writer wrote
        assert json.dumps(model_to_json(model), indent=1) == model_out.read_text()

    def test_nlhs_unknown_fixture_exit_code(self):
        assert main(["nlhs", "--fixture", "does_not_exist"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["claims-demo", "--omega", "1.5"],
            ["activation", "--n", "2"],
            ["verify-swap", "--eta-steps", "0"],
            ["activation", "--omega-min", "0.5", "--omega-max", "0.2"],
        ],
    )
    def test_invalid_parameter_exit_code(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "sources,measurements",
        [
            # werner source without its omega
            ([{"kind": "werner"}, {"kind": "classical_correlated", "d": 2}],
             [{"kind": "bell_swap", "local_dim": 2}]),
            # qubit sources joined by a qutrit-pair measurement
            ([{"kind": "classical_correlated", "d": 2}] * 2,
             [{"kind": "bell_swap", "local_dim": 3}]),
            # values of the wrong JSON type
            ([{"kind": "werner", "omega": None}, {"kind": "classical_correlated", "d": 2}],
             [{"kind": "bell_swap", "local_dim": 2}]),
            ([1, {"kind": "classical_correlated", "d": 2}],
             [{"kind": "bell_swap", "local_dim": 2}]),
            ([{"kind": "classical_correlated", "d": 2}] * 2,
             [{"kind": "bell_swap", "local_dim": [2]}]),
        ],
    )
    def test_malformed_fixture_exit_code(self, tmp_path, capsys, sources, measurements):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "pattern": ["SEP", "SEP"],
            "sources": sources,
            "measurements": measurements,
        }))
        assert main(["nlhs", "--fixture", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # numbers of the wrong JSON type, which a cast would turn into a runnable line
    @pytest.mark.parametrize(
        "pattern,sources,measurements",
        [
            (["SEP", "SEP"], [{"kind": "classical_correlated", "d": d}, CC2], [SWAP2])
            for d in (2.9, 2.0, "2")
        ] + [
            (["SEP", "SEP"], [CC2, CC2], [{"kind": "bell_swap", "local_dim": d}])
            for d in (2.5, "2")
        ] + [
            (["SEP", "SEP"], [CC2, CC2], [{"kind": "computational", "d": 2.5}]),
        ] + [
            (["SEP", "SEP"], [{"kind": "werner", "omega": omega}, CC2], [SWAP2])
            for omega in ("0.3", False)
        ] + [
            (["UNS_LEFT", "SEP"], [{"kind": "dew", "eta": eta, "omega": omega}, CC3], [SWAP3])
            for eta, omega in (("0.5", 0.4), (0.5, True))
        ] + [
            (["UNS_LEFT", "SEP"], [_explicit_werner(dims), CC2], [SWAP2])
            for dims in ([2.0, 2], ["2", 2])
        ],
    )
    def test_wrong_number_type_exit_code(self, tmp_path, capsys, pattern, sources, measurements):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"pattern": pattern, "sources": sources,
                                    "measurements": measurements}))
        assert main(["nlhs", "--fixture", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a JSON" in err

    def test_integer_omega_and_explicit_dims_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "pattern": ["UNS_LEFT", "SEP"],
            "sources": [_explicit_werner([2, 2]), {"kind": "werner", "omega": 0}],
            "measurements": [SWAP2],
        }))
        assert main(["nlhs", "--fixture", str(path)]) == 0

    @pytest.mark.parametrize("document", ["5", "null"])
    def test_non_object_fixture_exit_code(self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_text(document)
        assert main(["nlhs", "--fixture", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_fixture_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path
        if kind == "undecodable":
            path = tmp_path / "bad.json"
            path.write_bytes(b"\xff\xfe")
        assert main(["nlhs", "--fixture", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["claims-demo", "--omega", "0.9", "--out"],
         ["nlhs", "--fixture", "sep_loc_sep", "--model-out"]],
        ids=["out", "model-out"],
    )
    def test_unwritable_output_exit_code(self, tmp_path, capsys, argv):
        assert main(argv + [str(tmp_path / "missing" / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1

    @pytest.mark.parametrize("target", ["missing-parent", "directory", "parent-is-file"])
    @pytest.mark.parametrize(
        "argv,runner",
        [(["claims-demo", "--omega", "0.9", "--out"], "run_claims_demo"),
         (["nlhs", "--fixture", "sep_loc_sep", "--model-out"], "run_nlhs")],
        ids=["out", "model-out"],
    )
    def test_unwritable_output_rejected_before_running(self, tmp_path, capsys, monkeypatch,
                                                       argv, runner, target):
        def refuse(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(f"netsteer.cli.{runner}", refuse)
        (tmp_path / "file").write_text("")
        path = {"missing-parent": tmp_path / "missing" / "m.json",
                "directory": tmp_path,
                "parent-is-file": tmp_path / "file" / "m.json"}[target]
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize("error", [NotPositiveError, NotHermitianError])
    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch, error):
        message = "input has negative eigenvalue -1.000e-03"

        def fail(*args, **kwargs):
            raise error(message)

        monkeypatch.setattr("netsteer.cli.run_activation", fail)
        assert main(["activation", "--out", str(tmp_path / "r.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: numeric check failed: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_no_report_written_when_model_out_unwritable(self, tmp_path, monkeypatch):
        monkeypatch.setattr("netsteer.cli.run_nlhs", lambda *a, **k: pytest.fail("ran"))
        report = tmp_path / "report.json"
        argv = ["nlhs", "--fixture", "sep_loc_sep", "--out", str(report),
                "--model-out", str(tmp_path / "missing" / "m.json")]
        assert main(argv) == 2
        assert not report.exists()

    @pytest.mark.parametrize(
        "pattern,sources,measurements,slot,reason",
        [
            # Werner(0.9) is steerable: the finite search finds no LHS model
            (["SEP", "UNS_RIGHT"], [{"kind": "werner", "omega": 0.3}, {"kind": "werner", "omega": 0.9}],
             [{"kind": "bell_swap", "local_dim": 2}], "UNS slot 1", "NNLS residual"),
            # 4 distinct inputs with 16 outcomes: 16^4 strategies x 42 candidates x 512 rows
            (["SEP", "UNS_RIGHT"], [CC4, _mixed([4, 2])], [COMP4], "UNS slot 1", "search limit"),
            # 4 distinct x- and 4 distinct y-inputs: 16^4 x 16^4 LHV vertices x 4096 rows
            (["SEP", "LOC", "SEP"], [CC4, _mixed([4, 4]), CC4], [COMP4, COMP4],
             "LOC slot 1", "search limit"),
        ],
        ids=["steerable", "uns-over-limit", "loc-over-limit"],
    )
    def test_no_model_exit_code(self, tmp_path, capsys, pattern, sources, measurements,
                                slot, reason):
        path = tmp_path / "no_model.json"
        path.write_text(json.dumps({
            "pattern": pattern, "sources": sources, "measurements": measurements,
        }))
        assert main(["nlhs", "--fixture", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: no model found: {slot}: ") and reason in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "pattern,sources,measurements",
        [
            # 10 inputs, 3 distinct: 4^3 strategies instead of 4^10
            (["SEP", "UNS_RIGHT"], [WERNER_SEP, {"kind": "werner", "omega": 0.4}],
             [{"kind": "computational", "d": 2}]),
            # 10 x-inputs, 3 distinct: 4^3 x 2^2 LHV vertices instead of 4^10 x 2^2
            (["SEP", "LOC", "SEP"],
             [WERNER_SEP, {"kind": "werner", "omega": 0.5}, {"kind": "classical_correlated", "d": 2}],
             [{"kind": "computational", "d": 2}, {"kind": "bell_swap", "local_dim": 2}]),
        ],
        ids=["uns-comp", "loc-comp"],
    )
    def test_repeated_inputs_fit_search_limit(self, tmp_path, pattern, sources, measurements):
        # over the search limit when every input is solved, within it once
        # equal inputs are merged
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({
            "pattern": pattern, "sources": sources, "measurements": measurements,
        }))
        out = tmp_path / "report.json"
        assert main(["nlhs", "--fixture", str(path), "--realize",
                     "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_deviation"] <= 1e-10
        assert report["realization_deviation"] <= 1e-10
        assert "inputs distinct)" in " ".join(report["transcript"])

    def test_nlhs_realize(self):
        assert main(["nlhs", "--fixture", "sep_loc_sep", "--realize"]) == 0

    def test_nlhs_realize_dew_fixture(self, tmp_path):
        path = tmp_path / "dew_sep.json"
        path.write_text(json.dumps(DEW_SEP))
        out = tmp_path / "report.json"
        assert main(["nlhs", "--fixture", str(path), "--realize",
                     "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_deviation"] <= 1e-10
        assert report["realization_deviation"] <= 1e-10


class TestColdStart:
    """scipy is imported on the first NNLS solve, never by the package import."""

    def test_import_loads_no_scipy(self):
        assert _cold_start([]) == (None, [])

    @pytest.mark.parametrize(
        "argv,rc",
        [
            (["verify-swap", "--eta-steps", "3", "--omega-steps", "3"], 0),
            (["activation", "--n", "5", "--eta-boundary", "--omega-steps", "11"], 0),
            (["claims-demo", "--omega", "0.8"], 0),
            (["claims-demo", "--omega", "0.5"], 2),
            (["nlhs", "--fixture", "uns_sep_uns"], 0),
        ],
        ids=["verify-swap", "activation", "claims-demo", "claims-demo-exit-2", "nlhs-no-solve"],
    )
    def test_command_without_solve_loads_no_scipy(self, argv, rc):
        assert _cold_start(argv) == (rc, [])

    def test_nlhs_solve_loads_scipy_optimize(self):
        rc, mods = _cold_start(["nlhs", "--fixture", "sep_loc_sep", "--realize"])
        assert rc == 0
        assert "scipy.optimize" in mods
