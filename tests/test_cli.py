import json
from dataclasses import replace

import numpy as np
import pytest

import qcloak.cli
import qcloak.netlsd
import qcloak.pipeline
import qcloak.synthesis
from qcloak import distributions
from qcloak.analysis import make_baseline, tvd
from qcloak.bench import adder_layout, gen_adder, gen_ghz, gen_qft, gen_random_blocks
from qcloak.circuit import GateKind
from qcloak.cli import main
from qcloak.obfuscate import key_from_json
from qcloak.qasm import serialize_qasm
from qcloak.simulator import ideal_distribution
from strategies import REPORT_CSV_HEADER, REPORT_JSON_KEYS, near_identity_circuits


@pytest.fixture
def ghz3_path(tmp_path):
    p = tmp_path / "ghz3.qasm"
    p.write_text(serialize_qasm(gen_ghz(3)))
    return p


def test_encode_decode_round_trip(tmp_path, ghz3_path, capsys):
    out = tmp_path / "enc.qasm"
    key = tmp_path / "key.json"
    rc = main(["encode", str(ghz3_path), str(out), str(key), "--seed", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_qubits"] == 3
    assert payload["gates"]["cx_encoded"] == payload["gates"]["cx_baseline"]
    assert payload["gates"]["cx_depth_encoded"] == payload["gates"]["cx_depth_baseline"] == 2
    assert payload["netlsd_vs_baseline"] > 0
    assert payload["netlsd_path"] == {"encoded": "dense", "baseline": "dense"}
    assert payload["netlsd_seconds"] > 0
    assert payload["whole_circuit_check"] == "certificate+stimuli"

    counts = tmp_path / "counts.json"
    rc = main(["simulate", str(out), str(counts), "--shots", "4096", "--seed", "5"])
    assert rc == 0
    capsys.readouterr()

    decoded = tmp_path / "decoded.json"
    rc = main(["decode", str(counts), str(key), str(decoded)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["num_bits"] == 3

    got = distributions.from_json(decoded.read_text())
    want = ideal_distribution(make_baseline(gen_ghz(3)))
    assert tvd(got, want) < 0.1
    assert got.top() in {"000", "111"}


def test_encode_summary_names_the_estimated_netlsd_path(tmp_path, capsys, monkeypatch):
    # qft8's seed-3 encode (1,068 nodes) and baseline (796) are both above
    # DENSE_NODE_LIMIT; the block fragments' signatures stay dense
    src = tmp_path / "qft8.qasm"
    src.write_text(serialize_qasm(gen_qft(8)))
    estimated, calls = qcloak.netlsd._heat_traces_estimated, []
    monkeypatch.setattr(
        qcloak.netlsd, "_heat_traces_estimated", lambda *a: calls.append(a[0]) or estimated(*a)
    )
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    rc = main(["encode", str(src), str(out), str(key), "--seed", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["netlsd_path"] == {"encoded": "estimated", "baseline": "estimated"}
    assert sorted(calls) == [796, 1068]


def test_encode_summary_builds_and_signs_each_dag_once(tmp_path, capsys, monkeypatch):
    circuit = gen_qft(4)
    src = tmp_path / "qft4.qasm"
    src.write_text(serialize_qasm(circuit))
    enc = qcloak.pipeline.encode(circuit, qcloak.pipeline.PipelineConfig(seed=3))
    want = qcloak.netlsd.netlsd_divergence(enc.circuit, make_baseline(circuit))
    built, signed, compared = [], [], []
    for mod in (qcloak.cli, qcloak.netlsd):
        monkeypatch.setattr(
            mod, "to_dag", lambda c, real=mod.to_dag: built.append(real(c)) or built[-1]
        )
    real_sign = qcloak.netlsd.netlsd_signature
    monkeypatch.setattr(
        qcloak.netlsd, "netlsd_signature", lambda d, *a: signed.append(d) or real_sign(d, *a)
    )
    divergence = qcloak.cli.netlsd_divergence
    monkeypatch.setattr(
        qcloak.cli, "netlsd_divergence", lambda *sigs: compared.append(sigs) or divergence(*sigs)
    )
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    assert main(["encode", str(src), str(out), str(key), "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # one DAG per circuit, each signed once; the synthesis memo signs its own
    # fragment DAGs, which no to_dag call builds
    assert len(built) == 2
    assert [d for d in signed if any(d is b for b in built)] == built
    assert len(compared) == 1
    assert all(isinstance(sig, np.ndarray) for sig in compared[0])
    assert payload["netlsd_vs_baseline"] == want
    assert payload["netlsd_path"] == {"encoded": "dense", "baseline": "dense"}


def test_decode_partial_measurement(tmp_path, capsys):
    # add9 measuring only its 4-bit sum register (1 + 15 mod 16 = 0000)
    _m, _a, sum_wires, _cout = adder_layout(9)
    circuit = replace(gen_adder(9), measured_qubits=tuple(sum_wires))
    src = tmp_path / "add9_sum.qasm"
    src.write_text(serialize_qasm(circuit))
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    assert main(["encode", str(src), str(out), str(key), "--seed", "0"]) == 0
    assert json.loads(key.read_text())["measured_qubits"] == sum_wires
    counts = tmp_path / "counts.json"
    assert main(["simulate", str(out), str(counts), "--shots", "256", "--seed", "1"]) == 0
    assert distributions.from_json(counts.read_text()).top() != "0000"  # the key flips it
    decoded = tmp_path / "decoded.json"
    assert main(["decode", str(counts), str(key), str(decoded)]) == 0
    capsys.readouterr()
    got = distributions.from_json(decoded.read_text())
    assert got.num_bits == 4
    assert got.outcomes == {"0000": 256}


def test_encode_byte_deterministic(tmp_path, ghz3_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"enc_{tag}.qasm"
        key = tmp_path / f"key_{tag}.json"
        assert main(["encode", str(ghz3_path), str(out), str(key), "--seed", "8"]) == 0
        outs.append((out.read_bytes(), key.read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_simulate_counts_sum_to_shots(tmp_path, ghz3_path, capsys):
    counts = tmp_path / "counts.json"
    assert main(["simulate", str(ghz3_path), str(counts), "--shots", "1000"]) == 0
    capsys.readouterr()
    d = distributions.from_json(counts.read_text())
    assert d.kind == "counts"
    assert sum(d.outcomes.values()) == pytest.approx(1000)
    assert set(d.outcomes) <= {"000", "111"}


def test_compare_writes_reports(tmp_path, ghz3_path, capsys):
    rj = tmp_path / "report.json"
    rc_csv = tmp_path / "report.csv"
    rc = main([
        "compare", str(ghz3_path), "--json", str(rj), "--csv", str(rc_csv),
        "--analytic", "--seed", "3", "--name", "ghz3",
    ])
    assert rc == 0
    stdout_report = json.loads(capsys.readouterr().out)
    assert stdout_report["name"] == "ghz3"
    saved = json.loads(rj.read_text())
    assert list(saved) == REPORT_JSON_KEYS
    assert saved["tvd_corrected"] < 1e-9
    assert saved["cx_delta"] == 0
    lines = rc_csv.read_text().strip().split("\n")
    assert lines[0] == REPORT_CSV_HEADER and len(lines) == 2


@pytest.mark.parametrize("extra", [[], ["--analytic"], ["--structural-only"]])
def test_compare_rejects_zero_shots(tmp_path, ghz3_path, capsys, extra):
    rj = tmp_path / "report.json"
    rc = main(["compare", str(ghz3_path), "--json", str(rj), "--shots", "0", *extra])
    capsys.readouterr()
    assert rc == 1
    assert not rj.exists()


def test_compare_structural_only(tmp_path, ghz3_path, capsys):
    rj = tmp_path / "report.json"
    rc = main(["compare", str(ghz3_path), "--json", str(rj), "--structural-only"])
    assert rc == 0
    capsys.readouterr()
    saved = json.loads(rj.read_text())
    assert saved["tvd_corrected"] is None and saved["tvd_uncorrected"] is None
    assert saved["netlsd"] > 0


def test_qaoa_demo_smoke(tmp_path, capsys):
    outdir = tmp_path / "demo"
    rc = main([
        "qaoa-demo", str(outdir), "--iterations", "2", "--shots", "128",
        "--seed", "1",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert (outdir / "summary.json").read_text() == stdout
    summary = json.loads(stdout)
    assert set(summary) == {"baseline", "corrected", "uncorrected"}
    for mode, entry in summary.items():
        assert len(entry["top2"]) == 2
        assert len(entry["parameters"]) == 2
        assert all(isinstance(v, float) for v in entry["parameters"])
        assert entry["evaluations"] >= 3
        assert (outdir / f"loss_{mode}.csv").exists()
        assert (outdir / f"final_{mode}.json").exists()
    header = (outdir / "loss_baseline.csv").read_text().split("\n")[0]
    assert header == "iteration,loss,mode"


def test_exit_code_failed_candidate_check(tmp_path, ghz3_path, capsys, monkeypatch):
    monkeypatch.setattr(
        qcloak.synthesis, "equal_up_to_global_phase", lambda *args, **kwargs: False
    )
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    rc = main(["encode", str(ghz3_path), str(out), str(key)])
    capsys.readouterr()
    assert rc == 2
    assert not out.exists() and not key.exists()


@pytest.mark.parametrize("index, seed", [(0, 0), (7, 2)])
def test_encode_exits_2_off_the_cx_budget(tmp_path, capsys, caplog, index, seed):
    # near the identity class, CX-class rounding gives this encode 2 CX
    # against the baseline's 3 (circuit 0) or 3 against 2 (circuit 7)
    src = tmp_path / "near_identity.qasm"
    src.write_text(serialize_qasm(near_identity_circuits()[index]))
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    rc = main(["encode", str(src), str(out), str(key), "--seed", str(seed)])
    assert capsys.readouterr().out == ""
    assert rc == 2
    assert not out.exists() and not key.exists()
    assert "CX budget" in caplog.text


def test_exit_code_failed_certificate_at_12_qubits(tmp_path, capsys, monkeypatch):
    src = tmp_path / "random12.qasm"
    src.write_text(serialize_qasm(gen_random_blocks(12, 24, 5)))
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    assert main(["encode", str(src), str(out), str(key)]) == 0
    assert json.loads(capsys.readouterr().out)["whole_circuit_check"] == "certificate"
    out.unlink()
    key.unlink()

    real = qcloak.pipeline.reassemble

    def drop_first_cx(p, rows, bounds):
        c = real(p, rows, bounds)
        i = next(i for i, g in enumerate(c.gates) if g.kind is GateKind.CX)
        return replace(c, gates=c.gates[:i] + c.gates[i + 1:])

    monkeypatch.setattr(qcloak.pipeline, "reassemble", drop_first_cx)
    rc = main(["encode", str(src), str(out), str(key)])
    assert capsys.readouterr().out == ""
    assert rc == 2
    assert not out.exists() and not key.exists()


def test_parser_is_built_once_and_commands_are_looked_up_per_call(
    tmp_path, ghz3_path, capsys, monkeypatch
):
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    assert main(["encode", str(ghz3_path), str(out), str(key)]) == 0
    capsys.readouterr()
    assert qcloak.cli.build_parser() is qcloak.cli.build_parser()
    seen = []
    monkeypatch.setattr(qcloak.cli, "cmd_encode", lambda args: seen.append(args.input) or 7)
    assert main(["encode", str(ghz3_path), str(out), str(key)]) == 7
    assert seen == [str(ghz3_path)]


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("this is not qasm\n")
    rc = main(["simulate", str(bad), str(tmp_path / "c.json")])
    capsys.readouterr()
    assert rc == 1


def test_exit_code_validation_error(tmp_path, ghz3_path, capsys):
    rc = main([
        "simulate", str(ghz3_path), str(tmp_path / "c.json"), "--sim-cap", "2",
    ])
    capsys.readouterr()
    assert rc == 1


def test_exit_code_decode_mismatch(tmp_path, capsys, caplog):
    dist = tmp_path / "d.json"
    dist.write_text(distributions.to_json(
        distributions.Distribution(2, {"00": 0.5, "11": 0.5})
    ))
    key = tmp_path / "k.json"
    key.write_text(json.dumps(
        {"version": 1, "num_qubits": 3, "flip_mask": "101", "seed": 0, "rx_pairs": []}
    ))
    rc = main(["decode", str(dist), str(key), str(tmp_path / "o.json")])
    capsys.readouterr()
    assert rc == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["outcome length 2 does not match key length 3"]


def test_exit_code_bad_qasm_angle(tmp_path, capsys, caplog):
    bad = tmp_path / "bad.qasm"
    bad.write_text("qreg q[1];\nrz(pi/0) q[0];\n")
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    rc = main(["encode", str(bad), str(out), str(key)])
    capsys.readouterr()
    assert rc == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["line 2: division by zero in angle 'pi/0'"]
    assert not out.exists() and not key.exists()


def test_exit_code_gate_after_measure(tmp_path, capsys, caplog):
    bad = tmp_path / "late.qasm"
    bad.write_text("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nx q[0];\n")
    rc = main(["simulate", str(bad), str(tmp_path / "c.json")])
    capsys.readouterr()
    assert rc == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["line 4: gate on q[0] after its measure: measurements are terminal"]
    assert not (tmp_path / "c.json").exists()


def test_exit_code_empty_qreg(tmp_path, capsys, caplog):
    bad = tmp_path / "zero.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[0];\n")
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    rc = main(["encode", str(bad), str(out), str(key)])
    capsys.readouterr()
    assert rc == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["line 2: register q[0] must have at least one bit"]
    assert not out.exists() and not key.exists()


GOOD_KEY = {"version": 1, "num_qubits": 2, "flip_mask": "01", "seed": 0, "rx_pairs": []}
GOOD_DIST = {"kind": "counts", "num_bits": 2, "outcomes": {"01": 3}}


@pytest.mark.parametrize(
    "which, payload",
    [
        pytest.param("dist", [1, 2], id="dist-list"),
        pytest.param("dist", {**GOOD_DIST, "outcomes": [1]}, id="outcomes-list"),
        pytest.param("key", [], id="key-list"),
        pytest.param("key", {**GOOD_KEY, "rx_pairs": [3]}, id="rx-pair-int"),
        pytest.param("key", {**GOOD_KEY, "rx_pairs": None}, id="rx-pairs-null"),
        pytest.param(
            "key", {**GOOD_KEY, "version": 2, "measured_qubits": "01"}, id="measured-string"
        ),
        pytest.param("key", {**GOOD_KEY, "version": True}, id="version-bool"),
        pytest.param("key", {**GOOD_KEY, "seed": 1.7}, id="seed-fraction"),
        pytest.param("key", {**GOOD_KEY, "num_qubits": 2.5}, id="num-qubits-fraction"),
        pytest.param(
            "key", {**GOOD_KEY, "num_qubits": 1, "flip_mask": 1}, id="flip-mask-number"
        ),
        pytest.param(
            "key",
            {**GOOD_KEY, "rx_pairs": [{"wire": True, "boundary": 0, "theta": 0.5}]},
            id="wire-bool",
        ),
        pytest.param(
            "key",
            {**GOOD_KEY, "rx_pairs": [{"wire": 0, "boundary": 0, "theta": "0.5"}]},
            id="theta-string",
        ),
        pytest.param(
            "dist", {**GOOD_DIST, "num_bits": 3.7, "outcomes": {"011": 3}}, id="num-bits-fraction"
        ),
        pytest.param(
            "dist", {**GOOD_DIST, "num_bits": True, "outcomes": {"1": 3}}, id="num-bits-bool"
        ),
        pytest.param("dist", {**GOOD_DIST, "outcomes": {"01": "3"}}, id="weight-string"),
    ],
)
def test_wrong_json_shape_is_a_validation_error(tmp_path, capsys, which, payload):
    load = {"dist": distributions.from_json, "key": key_from_json}[which]
    with pytest.raises(ValueError):
        load(json.dumps(payload))
    files = {"dist": GOOD_DIST, "key": GOOD_KEY, which: payload}
    for name, value in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(value))
    out = tmp_path / "out.json"
    rc = main(["decode", str(tmp_path / "dist.json"), str(tmp_path / "key.json"), str(out)])
    capsys.readouterr()
    assert rc == 1
    assert not out.exists()


def test_decode_of_an_empty_distribution_writes_no_file(tmp_path, capsys, caplog):
    dist = tmp_path / "counts.json"
    dist.write_text(json.dumps({"kind": "counts", "num_bits": 2, "outcomes": {}}))
    key = tmp_path / "key.json"
    key.write_text(json.dumps(
        {"version": 1, "num_qubits": 2, "flip_mask": "01", "seed": 0, "rx_pairs": []}
    ))
    out = tmp_path / "out.json"
    rc = main(["decode", str(dist), str(key), str(out)])
    capsys.readouterr()
    assert rc == 1
    assert not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["empty distribution has no top outcome"]


def test_compare_rejects_zero_sim_cap(tmp_path, ghz3_path, capsys):
    rj = tmp_path / "report.json"
    rc = main(["compare", str(ghz3_path), "--json", str(rj), "--sim-cap", "0"])
    capsys.readouterr()
    assert rc == 1
    assert not rj.exists()


def test_exit_code_missing_input(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.qasm"), str(tmp_path / "c.json")])
    capsys.readouterr()
    assert rc == 3


@pytest.mark.parametrize("flag", ["--shots", "--sim-cap", "--k", "--shortlist", "--rx-density"])
def test_encode_rejects_sampling_flags(tmp_path, ghz3_path, capsys, flag):
    out, key = tmp_path / "enc.qasm", tmp_path / "key.json"
    with pytest.raises(SystemExit) as exc:
        main(["encode", str(ghz3_path), str(out), str(key), flag, "10"])
    capsys.readouterr()
    assert exc.value.code == 1
    assert not out.exists() and not key.exists()


def test_compare_takes_no_setting_but_the_seed(tmp_path, ghz3_path, capsys):
    rj = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(ghz3_path), "--json", str(rj), "--k", "1"])
    capsys.readouterr()
    assert exc.value.code == 1
    assert not rj.exists()


def test_key_write_failure_leaves_no_encoded_circuit(tmp_path, ghz3_path, capsys):
    out, key = tmp_path / "enc.qasm", tmp_path / "missing" / "key.json"
    rc = main(["encode", str(ghz3_path), str(out), str(key)])
    capsys.readouterr()
    assert rc == 3
    assert not out.exists() and not key.exists()


def test_exit_code_bad_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == 1
