import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import cli
from divlab.cli import (
    InputError,
    dumps_report,
    parse_kraus,
    parse_matrix,
    run,
)
from divlab.quantum import UNBOUNDED_WARNING, depolarizing_channel, replacer_channel

from conftest import random_kraus


@pytest.fixture()
def bsc_csv(tmp_path):
    path = tmp_path / "bsc03.csv"
    path.write_text("# BSC(0.3)\n0.7,0.3\n0.3,0.7\n")
    return str(path)


@pytest.fixture()
def bsc25_csv(tmp_path):
    path = tmp_path / "bsc25.csv"
    path.write_text("0.75,0.25\n0.25,0.75\n")
    return str(path)


@pytest.fixture()
def embedded_bsc_json(tmp_path):
    w = 0.25
    k = []
    for x in range(2):
        for y in range(2):
            K = np.zeros((2, 2))
            K[y, x] = math.sqrt(w if x != y else 1 - w)
            k.append({"re": K.tolist(), "im": np.zeros((2, 2)).tolist()})
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"kraus": k}))
    return str(path)


def _load_json(text):
    return json.loads(
        text.replace('"inf"', "1e999").replace('"-inf"', "-1e999")
    )


def test_parse_matrix_csv_and_json(tmp_path, bsc_csv):
    W = parse_matrix(bsc_csv)
    assert W == pytest.approx(np.array([[0.7, 0.3], [0.3, 0.7]]))
    jpath = tmp_path / "chain.json"
    jpath.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 1.0]]}))
    assert parse_matrix(str(jpath)) == pytest.approx(np.eye(2))


def test_parse_matrix_rejects_non_stochastic(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.2\n0.4,0.8\n")  # first column sums to 0.9
    with pytest.raises(InputError):
        parse_matrix(str(path))


def test_parse_matrix_csv_round_trip(bsc_csv, tmp_path):
    W = parse_matrix(bsc_csv)

    def to_csv(M):
        return "\n".join(",".join(repr(float(v)) for v in row) for row in M) + "\n"

    path = tmp_path / "round.csv"
    path.write_text(to_csv(W))
    W2 = parse_matrix(str(path))
    assert np.array_equal(W, W2)
    assert to_csv(W) == to_csv(W2)


def test_parse_matrix_renormalizes_within_tolerance(tmp_path, capsys):
    # columns within the documented 1e-8 of one are accepted and divided by
    # their sums, so the library's 1e-10 check holds for every report
    path = tmp_path / "thirds.csv"
    path.write_text("0.333333333,0.5,0\n0.333333333,0,0.5\n0.333333333,0.5,0.5\n")
    W = parse_matrix(str(path))
    assert np.abs(W.sum(axis=0) - 1.0).max() <= 1e-15
    for argv in (["analyze-chain", "--matrix", str(path), "--generator", "kl",
                  "--profile-n", "2"],
                 ["mixing-time", "--matrix", str(path)]):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _load_json(captured.out)["violations"] == []


def test_parse_kraus_complex_forms(tmp_path):
    # one operator as {"re", "im"} blocks with "im" left out, one as nested
    # [re, im] entry pairs: the channel rho -> (rho + Y rho Y) / 2
    s = 1.0 / math.sqrt(2.0)
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"kraus": [
        {"re": [[s, 0.0], [0.0, s]]},
        [[[0.0, 0.0], [0.0, -s]], [[0.0, s], [0.0, 0.0]]],
    ]}))
    chan = parse_kraus(str(path))
    assert chan.kraus[0] == pytest.approx(s * np.eye(2))
    assert chan.kraus[1] == pytest.approx(s * np.array([[0.0, -1j], [1j, 0.0]]))


EYE2 = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("kraus, message", [
    ([{"im": [[0.0]]}], "Kraus operator 0: an {re, im} block needs an 're' field"),
    ([{"re": EYE2}, {"re": EYE2, "im": [[0.0]]}],
     "Kraus operator 1: re and im blocks must have equal shapes"),
], ids=["missing-re", "shape-mismatch"])
def test_kraus_file_errors_name_the_file_and_the_operator(tmp_path, capsys, kraus, message):
    # a block without "re" printed "error: 're'", and a shape mismatch its
    # message without the file
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"kraus": kraus}))
    with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
        parse_kraus(str(path))
    assert run(["quantum-analyze", "--channel", str(path), "--generator", "kl"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_parse_kraus_completeness(tmp_path, embedded_bsc_json):
    chan = parse_kraus(embedded_bsc_json)
    assert chan.dim_in == 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kraus": [{"re": [[0.5, 0.0], [0.0, 0.5]]}]}))
    with pytest.raises(InputError):
        parse_kraus(str(path))


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_quantum_analyze_rejects_non_finite_kraus(tmp_path, capsys, literal):
    # json reads NaN and Infinity; the channel check names the file, where
    # a completeness check alone lets NaN through to a numpy eig error
    path = tmp_path / "chan.json"
    path.write_text(f'{{"kraus": [{{"re": [[1.0, 0.0], [0.0, {literal}]]}}]}}')
    code = run(["quantum-analyze", "--channel", str(path), "--generator", "kl"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and "finite" in err


def test_module_entry_point_runs_a_command():
    import divlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(divlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "divlab.cli", "divergence", "--g", "kl",
         "--p", "0.5,0.5", "--q", "0.25,0.75"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    value = _load_json(proc.stdout)["results"]["divergence"]["value"]
    # 0.5 ln 2 + 0.5 ln(2/3) = 0.5 ln(4/3)
    assert value == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-15)


def test_divergence_subcommand_support_warning(capsys):
    code = run(["divergence", "--g", "kl", "--p", "0.5,0.5", "--q", "1,0"])
    out = capsys.readouterr().out
    assert code == 0
    report = _load_json(out)
    assert report["results"]["divergence"]["value"] == math.inf
    assert any("absolutely continuous" in w for w in report["warnings"])


def test_divergence_bits_flag(capsys):
    run(["divergence", "--g", "kl", "--p", "1,0", "--q", "0.5,0.5"])
    nats = _load_json(capsys.readouterr().out)["results"]["divergence"]["value"]
    run(["divergence", "--g", "kl", "--p", "1,0", "--q", "0.5,0.5", "--bits"])
    bits = _load_json(capsys.readouterr().out)["results"]["divergence"]["value"]
    assert nats == pytest.approx(math.log(2.0))
    assert bits == pytest.approx(1.0)


def test_verify_constants_small_grid(capsys):
    code = run(["verify-constants", "--grid", "64"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    header = json.loads(out[0])
    assert header["kind"] == "header"
    lines = [json.loads(line) for line in out[1:]]
    assert len(lines) == 14
    assert all(line["verdict"] == "certified" for line in lines)
    by_name = {line["generator"]: line for line in lines}
    assert by_name["kl"]["claimed"] == 4.0
    assert by_name["jeffrey"]["claimed"] == 8.0


def test_analyze_chain_report(bsc_csv, capsys):
    code = run(
        [
            "analyze-chain",
            "--matrix",
            bsc_csv,
            "--generator",
            "kl",
            "--delta",
            "0.01",
            "--seed",
            "7",
            "--profile-n",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = _load_json(out)
    assert report["seed"] == 7
    res = report["results"]
    assert res["contraction"]["eta_chi2"]["value"] == pytest.approx(0.16, abs=1e-10)
    assert res["structure"]["irreducible"] is True
    assert res["mixing_time"]["empirical_tv"] <= res["mixing_time"]["tv_bound"]["value"]
    assert report["violations"] == []


@pytest.mark.parametrize("name", ["chi_alpha", "one_sided_chi2"])
def test_analyze_chain_without_certified_constant(bsc_csv, capsys, name):
    # the upper bounds and the rate profile need a certified Pinsker
    # constant; the rest of the report stands, as in quantum-analyze
    code = run(["analyze-chain", "--matrix", bsc_csv, "--generator", name,
                "--profile-n", "2"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = _load_json(captured.out)
    contraction = report["results"]["contraction"]
    assert "nonlinear_upper" not in contraction and "linear_upper" not in contraction
    assert contraction["eta_f_estimate"]["value"] > 0.0
    assert any("upper bounds skipped" in w for w in report["warnings"])
    assert "mixing_time" in report["results"]
    assert "rate_profile" not in report["results"]


def test_f_bound_reported_exactly_when_the_library_accepts_g(
    bsc_csv, embedded_bsc_json, capsys
):
    from divlab import (
        bsc,
        classical_embedding,
        from_spec,
        mixing_time_bounds,
        quantum_mixing_time_bounds,
        registry_names,
    )

    def accepts(bounds, *args):
        try:
            bounds(*args)
        except ValueError:
            return False
        return True

    channel = classical_embedding(bsc(0.25))
    for name in registry_names():
        g = from_spec(name)
        run(["analyze-chain", "--matrix", bsc_csv, "--generator", name,
             "--profile-n", "2"])
        mix = _load_json(capsys.readouterr().out)["results"]["mixing_time"]
        assert (mix["f_bound"]["value"] is not None) == accepts(
            mixing_time_bounds, bsc(0.3), 0.01, g
        ), name
        run(["quantum-analyze", "--channel", embedded_bsc_json, "--generator", name])
        mix = _load_json(capsys.readouterr().out)["results"]["mixing_time"]
        assert (mix["f_bound"]["value"] is not None) == accepts(
            quantum_mixing_time_bounds, channel, 0.01, g
        ), name


def test_analyze_chain_pi_with_zero_entry(tmp_path, capsys):
    # scrambling and indecomposable, pi = (0, 3/7, 4/7): inputs outside
    # supp pi have infinite KL to pi and do not enter the kappa sup
    path = tmp_path / "zero_pi.csv"
    path.write_text("0.5,0,0\n0.5,0.6,0.3\n0,0.4,0.7\n")
    code = run(["analyze-chain", "--matrix", str(path), "--generator", "kl",
                "--profile-n", "3"])
    assert code == 0
    report = _load_json(capsys.readouterr().out)
    assert report["violations"] == []
    res = report["results"]
    assert res["structure"]["stationary"][0] == 0.0
    con = res["contraction"]
    assert con["eta_f_estimate"]["value"] == pytest.approx(0.0907, abs=1e-4)
    assert con["nonlinear_upper"]["value"] == pytest.approx(0.3, abs=1e-12)
    assert len(res["rate_profile"]["points"]) == 3


# a reducible chain whose solved pi carries ~1e-16 of rounding mass on the
# two transient states; written at 17 significant digits
REDUCIBLE_CSV = "".join(
    ",".join(f"{v:.17g}" for v in row) + "\n"
    for row in (
        (0.0, 2 / 7, 0.0, 0.0),
        (7 / 9, 5 / 14, 0.0, 0.0),
        (0.0, 5 / 14, 2 / 7, 4 / 11),
        (2 / 9, 0.0, 5 / 7, 7 / 11),
    )
)


def test_reducible_chain_pi_has_no_rounding_support(tmp_path, capsys):
    # pi is zero on the transient states, so the report refuses the
    # full-support mixing times and the rate profile instead of printing a
    # mixing time that its own empirical scan exceeds
    path = tmp_path / "reducible.csv"
    path.write_text(REDUCIBLE_CSV)
    code = run(["analyze-chain", "--matrix", str(path), "--generator", "triangular"])
    report = _load_json(capsys.readouterr().out)
    assert code == 0, report["violations"]
    res = report["results"]
    assert res["structure"]["stationary"][:2] == [0.0, 0.0]
    assert res["contraction"]["reference"][:2] == [0.0, 0.0]
    assert "mixing_time" not in res and "rate_profile" not in res
    assert any(w.startswith("mixing times unavailable") for w in report["warnings"])
    assert any(w.startswith("rate profile unavailable") for w in report["warnings"])
    assert run(["mixing-time", "--matrix", str(path)]) == 1
    assert "full-support" in capsys.readouterr().err


def test_reports_close_every_file_they_read(bsc_csv, embedded_bsc_json, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for argv in (
            ["analyze-chain", "--matrix", bsc_csv, "--generator", "kl", "--profile-n", "2"],
            ["quantum-analyze", "--channel", embedded_bsc_json, "--generator", "kl"],
        ):
            assert run(argv) == 0
            gc.collect()
    capsys.readouterr()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_analyze_chain_deterministic(bsc_csv, capsys):
    args = ["analyze-chain", "--matrix", bsc_csv, "--generator", "kl", "--seed", "3",
            "--profile-n", "2"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_mixing_time_subcommand(bsc25_csv, capsys):
    code = run(
        ["mixing-time", "--matrix", bsc25_csv, "--delta", "0.01", "--generator", "kl"]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = _load_json(out)
    res = report["results"]
    assert res["tv_bound"]["value"] == 7
    assert res["empirical_tv"] == 6
    assert res["f_bound"]["value"] == 5


def test_delta_must_be_positive_and_finite(bsc25_csv, capsys):
    for bad in ("0", "-1", "nan", "inf"):
        assert run(["mixing-time", "--matrix", bsc25_csv, "--delta", bad]) == 1
        assert "delta must be positive and finite" in capsys.readouterr().err
    # analyze-chain reports the other sections and says why mixing is missing
    code = run(["analyze-chain", "--matrix", bsc25_csv, "--generator", "kl",
                "--delta", "nan", "--profile-n", "2"])
    assert code == 0
    report = _load_json(capsys.readouterr().out)
    assert "mixing_time" not in report["results"]
    assert report["warnings"] == [
        "mixing times unavailable: delta must be positive and finite"
    ]


def test_analyze_chain_tiny_delta(bsc25_csv, capsys, monkeypatch):
    # 1/x overflows at delta = 1e-320; the bound is finite all the same.
    # No scan can take TV below its rounding floor, so a delta below
    # SUPPORT_EPSILON gets none: the empirical times are null and nothing
    # contradicts the bound
    from divlab import contraction

    def no_scan(*args):
        raise AssertionError("empirical scan at an unresolvable delta")

    monkeypatch.setattr(contraction, "_empirical_mixing", no_scan)
    code = run(["analyze-chain", "--matrix", bsc25_csv, "--generator", "kl",
                "--delta", "1e-320", "--profile-n", "2"])
    assert code == 0
    report = _load_json(capsys.readouterr().out)
    assert report["violations"] == []
    mix = report["results"]["mixing_time"]
    assert mix["empirical_tv"] is None and mix["empirical_f"] is None
    # 2 ln(1/(sqrt(2 pi_min) delta)) / ln(1/eta) with pi_min = 1/2, eta = 1/4
    expected = math.ceil(-math.log(1e-320) / math.log(2.0))
    assert mix["tv_bound"]["value"] == expected


def test_mixing_time_tiny_delta(bsc25_csv, capsys, monkeypatch):
    from divlab import contraction

    def no_scan(*args):
        raise AssertionError("empirical scan at an unresolvable delta")

    monkeypatch.setattr(contraction, "_empirical_mixing", no_scan)
    code = run(["mixing-time", "--matrix", bsc25_csv, "--delta", "1e-320",
                "--generator", "kl"])
    assert code == 0
    report = _load_json(capsys.readouterr().out)
    assert report["violations"] == []
    res = report["results"]
    assert res["empirical_tv"] is None and res["empirical_f"] is None
    assert res["tv_bound"]["value"] == math.ceil(-math.log(1e-320) / math.log(2.0))


def test_quantum_analyze_tiny_delta(tmp_path, capsys, monkeypatch):
    from divlab import depolarizing_channel, quantum

    ops = depolarizing_channel(2, 0.5).kraus
    path = tmp_path / "depol.json"
    path.write_text(json.dumps(
        {"kraus": [{"re": K.real.tolist(), "im": K.imag.tolist()} for K in ops]}
    ))
    scans = []
    scan = quantum._empirical_mixing

    def counted(*args):
        scans.append(args[-1])
        return scan(*args)

    # every divlab module's binding: the mixing scan runs in contraction's
    # engine, channel_structure's probe in quantum
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("divlab") and (
            getattr(module, "_empirical_mixing", None) is scan
        ):
            monkeypatch.setattr(module, "_empirical_mixing", counted)
    code = run(["quantum-analyze", "--channel", str(path), "--generator", "kl",
                "--delta", "1e-320"])
    assert code == 0
    report = _load_json(capsys.readouterr().out)
    assert report["violations"] == [] and report["warnings"] == []
    mix = report["results"]["mixing_time"]
    assert mix["empirical_td"] is None and mix["empirical_f"] is None
    # ln(1/(lmin delta^2)) / ln(1/eta) with lmin = 1/2 and eta = (1 - 0.5)^2
    expected = math.ceil((math.log(2.0) - 2.0 * math.log(1e-320)) / math.log(4.0))
    assert mix["td_bound"]["value"] == expected
    assert scans == [63]  # only channel_structure's positivity probe


def test_quantum_analyze(embedded_bsc_json, capsys):
    code = run(
        [
            "quantum-analyze",
            "--channel",
            embedded_bsc_json,
            "--generator",
            "kl",
            "--delta",
            "0.01",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = _load_json(out)
    res = report["results"]
    assert res["structure"]["mixing"] is True
    assert res["mixing_time"]["eta_chi2_estimate"] == pytest.approx(0.25, abs=1e-12)
    assert "estimate_based" not in res["mixing_time"]
    assert res["mixing_time"]["empirical_td"] <= res["mixing_time"]["td_bound"]["value"]
    assert report["warnings"] == []


def test_env_seed_override(bsc_csv, capsys, monkeypatch):
    monkeypatch.setenv("DIVLAB_SEED", "99")
    run(["analyze-chain", "--matrix", bsc_csv, "--generator", "kl", "--seed", "3",
         "--profile-n", "2"])
    report = _load_json(capsys.readouterr().out)
    assert report["seed"] == 99


def test_unused_flags_are_rejected(bsc_csv, capsys, monkeypatch):
    # --bits relabelled no analyze-chain value; the other three sample nothing
    for argv in (
        ["analyze-chain", "--matrix", bsc_csv, "--generator", "kl", "--bits"],
        ["verify-constants", "--seed", "3"],
        ["verify-constants", "--boundary-eps", "1e-4"],
        ["mixing-time", "--matrix", bsc_csv, "--seed", "3"],
        ["divergence", "--g", "kl", "--p", "0.5,0.5", "--q", "0.5,0.5", "--seed", "3"],
    ):
        with pytest.raises(SystemExit):
            run(argv)
    capsys.readouterr()
    monkeypatch.setenv("DIVLAB_SEED", "5")
    run(["mixing-time", "--matrix", bsc_csv])
    assert _load_json(capsys.readouterr().out)["seed"] == 5


def test_input_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.2\n0.4,0.8\n")
    code = run(["analyze-chain", "--matrix", str(path), "--generator", "kl"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_generator_exit_code(bsc_csv, capsys):
    code = run(["divergence", "--g", "nope", "--p", "0.5,0.5", "--q", "0.5,0.5"])
    assert code == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["divergence", "--g", "hellinger:alpha=nan", "--p", "0.5,0.5", "--q", "0.2,0.8"],
         "hellinger requires a finite alpha"),
        (["divergence", "--g", "chi_alpha:alpha=inf", "--p", "0.5,0.5", "--q", "0.2,0.8"],
         "chi_alpha requires a finite alpha"),
        (["divergence", "--g", "hellinger:alpha=1.5,alpha=2", "--p", "0.5,0.5",
          "--q", "0.2,0.8"], "repeated generator parameter 'alpha'"),
        (["analyze-chain", "--matrix", None, "--generator", "renyi_gain:alpha=nan"],
         "renyi_gain requires a finite alpha"),
        (["mixing-time", "--matrix", None, "--generator", "lins:theta=inf"],
         "lins requires a finite theta"),
        (["divergence", "--g", "renyi_gain:alpha=2e154", "--p", "0.5,0.5", "--q", "0.2,0.8"],
         "renyi_gain requires alpha * (alpha - 1) to be finite"),
        (["analyze-chain", "--matrix", None, "--generator", "renyi_gain:alpha=-1e300"],
         "renyi_gain requires alpha * (alpha - 1) to be finite"),
    ],
)
def test_bad_generator_spec_is_an_input_error(bsc_csv, capsys, argv, message):
    code = run([bsc_csv if a is None else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_violation_exit_code(bsc25_csv, capsys, monkeypatch):
    import divlab.cli as cli
    from divlab.contraction import MixingTimeReport

    def fake_mixing(W, delta, g=None):
        return MixingTimeReport(
            tv_bound=1,
            f_bound=None,
            empirical_tv=5,
            empirical_f=None,
            eta_chi2=0.25,
            pi_min=0.5,
            empirical_within_bound=False,
        )

    monkeypatch.setattr(cli, "_mixing_time", fake_mixing)
    code = run(["mixing-time", "--matrix", bsc25_csv, "--delta", "0.01"])
    out = capsys.readouterr().out
    assert code == 2
    assert _load_json(out)["violations"]


def test_quantum_analyze_flags_a_scan_that_never_meets_its_bound(embedded_bsc_json, capsys,
                                                                 monkeypatch):
    # the report takes its violation from the engine's within flag, so a td
    # scan that does not reach delta within its cap is a violation too
    from divlab import contraction

    monkeypatch.setattr(contraction, "_empirical_mixing", lambda *args: None)
    code = run(["quantum-analyze", "--channel", embedded_bsc_json, "--generator", "kl"])
    report = _load_json(capsys.readouterr().out)
    assert code == 2
    assert report["results"]["mixing_time"]["empirical_td"] is None
    assert report["violations"] == ["empirical trace-distance mixing time exceeds bound"]


def test_report_round_trips_losslessly(bsc_csv, capsys):
    run(["analyze-chain", "--matrix", bsc_csv, "--generator", "kl", "--profile-n", "2"])
    report = _load_json(capsys.readouterr().out)
    # 17 significant digits round-trip float64 exactly
    value = report["results"]["contraction"]["eta_chi2"]["value"]
    assert value == 0.15999999999999998


def test_dumps_report_formats():
    text = dumps_report({"a": 0.1, "b": [1.0, math.inf], "c": None, "d": True})
    assert '"a": 0.10000000000000001' in text
    assert '"inf"' in text
    assert '"c": null' in text


def dumps_two_pass(obj, indent=0):
    """Oracle for ``cli._dumps``: every list renders its children at its own
    indent for the one-line try, then again at indent + 2 when too long."""
    pad = " " * indent
    if isinstance(obj, np.ndarray):
        return dumps_two_pass(obj.tolist(), indent)
    if isinstance(obj, dict) and obj:
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {dumps_two_pass(v, indent + 2)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        inner = ", ".join(dumps_two_pass(v, indent) for v in obj)
        if len(inner) <= 100:
            return "[" + inner + "]"
        inner = ",\n".join(f"{pad}  {dumps_two_pass(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    return cli._dumps(obj, indent)


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=8)
    | st.dictionaries(st.text(max_size=6), children, max_size=5),
    max_leaves=60,
)


@given(_JSON_TREES, st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_dumps_matches_two_pass_oracle(tree, indent):
    assert cli._dumps(tree, indent) == dumps_two_pass(tree, indent)


def _json_nodes(obj):
    if isinstance(obj, dict):
        return 1 + sum(_json_nodes(v) for v in obj.values())
    if isinstance(obj, list):
        return 1 + sum(_json_nodes(v) for v in obj)
    return 1


@pytest.mark.parametrize("command", ["quantum-analyze", "analyze-chain"])
def test_dumps_renders_each_node_about_once(command, tmp_path, capsys, monkeypatch):
    # the inputs of the quantum and chain-wide benchmark workloads: a d = 4
    # three-Kraus isometry and a sparse 64-state chain
    rng = np.random.default_rng(1)
    if command == "quantum-analyze":
        A = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
        V, _ = np.linalg.qr(A)
        kraus = [{"re": V[k : k + 4].real.tolist(), "im": V[k : k + 4].imag.tolist()}
                 for k in range(0, 12, 4)]
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"kraus": kraus}))
        argv = ["quantum-analyze", "--channel", str(path), "--generator", "kl"]
    else:
        W = np.zeros((64, 64))
        for x in range(64):
            rows = np.unique(np.r_[x, (x + 1) % 64, rng.choice(64, size=4)])
            W[rows, x] = rng.dirichlet(np.ones(rows.size)) + 0.01
        W /= W.sum(axis=0)
        path = tmp_path / "chain.csv"
        path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in W))
        argv = ["analyze-chain", "--matrix", str(path), "--generator", "kl",
                "--profile-n", "2"]
    reports = []
    monkeypatch.setattr(cli, "dumps_report", lambda obj: reports.append(obj) or "")
    run(argv)
    capsys.readouterr()
    (report,) = reports
    calls = 0
    dumps = cli._dumps

    def counted(*args):
        nonlocal calls
        calls += 1
        return dumps(*args)

    monkeypatch.setattr(cli, "_dumps", counted)
    text = cli._dumps(report)
    monkeypatch.setattr(cli, "_dumps", dumps)
    assert text == dumps_two_pass(report)
    nodes = _json_nodes(_load_json(text))
    assert calls <= 2 * nodes, (calls, nodes)


def _sparse_chain_csv(seed: int, n: int) -> str:
    """A seeded column-stochastic n-state chain, written with %.17g: every
    column holds a self-loop, the cycle edge x -> x + 1 and 4 more positive
    entries, so the chain is irreducible and aperiodic."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    for x in range(n):
        fixed = {x, (x + 1) % n}
        others = [y for y in range(n) if y not in fixed]
        rows = sorted(fixed | {int(y) for y in rng.choice(others, size=4, replace=False)})
        w = rng.dirichlet(np.ones(len(rows))) + 0.01
        W[rows, x] = w / w.sum()
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in W)


# SHA-256 of analyze-chain stdout at default flags, run from the matrix's
# directory on a fixed relative name, so that the layout of the printed
# command does not depend on the temporary path, with the inputs digest
# masked; reports are deterministic, so a change to any printed number or
# field shows here
GOLDEN_REPORTS = {
    "bsc03-kl": (
        "0.7,0.3\n0.3,0.7\n", "kl",
        "21c4b7afdfb45939d514e51f33364566859affe11fc581bf7c418024651d010f",
    ),
    "asym-pearson": (
        "0.7,0.4\n0.3,0.6\n", "pearson_chi2",
        "97bd0a8a119d27f1f6ac71d88dd16a485707f41e36bd420b3fed9f2de87fcc57",
    ),
    "zero-pi-kl": (
        "0.5,0,0\n0.5,0.6,0.3\n0,0.4,0.7\n", "kl",
        "c3fd184394f93116f34adca5202cedd6d2c7d3e11cbca648017648d03b1320aa",
    ),
    "typewriter-hellinger": (
        "0.5,0.5,0,0\n0,0.5,0.5,0\n0,0,0.5,0.5\n0.5,0,0,0.5\n", "squared_hellinger",
        "a7ffc48c6e8a014337cfc5590be76788016cbb7b00abec4bfa50222b2b7db055",
    ),
    # f(0+) = +inf: the grid endpoints take the boundary path on short rows
    "asym-reverse-kl": (
        "0.8,0.25\n0.2,0.75\n", "reverse_kl",
        "5d8818bbd892e3153f6ff4604dc63583f22f019c842df56493d442b104c1b321",
    ),
    # 64 states: 64-wide score blocks, climb windows that start at vertices
    # (zeros in P) and mixing scans of many steps
    "sparse64-kl": (
        _sparse_chain_csv(5, 64), "kl",
        "bc2434d0072995a5dc1989f827a5fecfcbeccb6f55c9da8d8b187e48a5c4053a",
    ),
}


def _golden_digest(argv: list[str], capsys) -> str:
    """SHA-256 of the stdout of a successful run, inputs digest masked."""
    code = run(argv)
    out = re.sub(r'"inputs_digest": "[0-9a-f]+"', '"inputs_digest": ""', capsys.readouterr().out)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def _chain_golden_argv(case: str) -> list[str]:
    """Write the chain of GOLDEN_REPORTS[case] to chain.csv in the working
    directory and return its analyze-chain argv."""
    text, generator, _ = GOLDEN_REPORTS[case]
    with open("chain.csv", "w") as fh:
        fh.write(text)
    return ["analyze-chain", "--matrix", "chain.csv", "--generator", generator]


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
def test_analyze_chain_golden_output(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _golden_digest(_chain_golden_argv(case), capsys) == GOLDEN_REPORTS[case][2]


def _amplitude_damping(gamma: float, p: float) -> list[np.ndarray]:
    """Generalized amplitude damping: decay toward |0> with weight p and
    toward |1> with weight 1 - p, fixed point diag(p, 1 - p)."""
    a, b = math.sqrt(1.0 - gamma), math.sqrt(gamma)
    return [math.sqrt(p) * np.array([[1.0, 0.0], [0.0, a]]),
            math.sqrt(p) * np.array([[0.0, b], [0.0, 0.0]]),
            math.sqrt(1.0 - p) * np.array([[a, 0.0], [0.0, 1.0]]),
            math.sqrt(1.0 - p) * np.array([[0.0, 0.0], [b, 0.0]])]


def _seeded_isometry(seed: int, d: int, n_kraus: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    V = np.linalg.qr(A)[0]
    return [V[k * d : (k + 1) * d] for k in range(n_kraus)]


# SHA-256 of quantum-analyze stdout at default flags, as GOLDEN_REPORTS: a
# qubit amplitude-damping channel at a full-rank fixed point and a seeded
# d = 4 isometry with three Kraus operators; both sample and climb
GOLDEN_QUANTUM_REPORTS = {
    "amplitude-damping-kl": (
        lambda: _amplitude_damping(0.3, 0.8), "kl",
        "e6662b4ca0dd9fc88f072c89bbbe4067f53667c362190cbfe252cab9acef0b39",
    ),
    "isometry4-reverse-kl": (
        lambda: _seeded_isometry(11, 4, 3), "reverse_kl",
        "f8b7deb00387ce1db927ae8bf4e6853e65fc0d711623c04195279a00528308df",
    ),
    # f(0+) = +inf on a maximally mixed fixed point: NS rows with zeros take
    # the kernel's masked path
    "depolarizing4-reverse-kl": (
        lambda: list(depolarizing_channel(4, 0.5).kraus), "reverse_kl",
        "02d3e96d0f58c254aa06284d55a31ede6843fba0104306db0d43b3f05df53be4",
    ),
}


def _quantum_golden_argv(case: str) -> list[str]:
    """Write the channel of GOLDEN_QUANTUM_REPORTS[case] to channel.json in
    the working directory and return its quantum-analyze argv."""
    kraus, generator, _ = GOLDEN_QUANTUM_REPORTS[case]
    payload = {"kraus": [{"re": K.real.tolist(), "im": K.imag.tolist()} for K in kraus()]}
    with open("channel.json", "w") as fh:
        json.dump(payload, fh)
    return ["quantum-analyze", "--channel", "channel.json", "--generator", generator]


@pytest.mark.parametrize("case", sorted(GOLDEN_QUANTUM_REPORTS))
def test_quantum_analyze_golden_output(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _golden_digest(_quantum_golden_argv(case), capsys) == GOLDEN_QUANTUM_REPORTS[case][2]


def _blank_sampled(node, key=None):
    """The parsed report ``node`` with its inputs digest and every sampled
    estimate field blanked: the value and witness of eta_f_estimate and each
    rate-profile eta_f_root."""
    if isinstance(node, list):
        return [_blank_sampled(v) for v in node]
    if not isinstance(node, dict):
        return node
    blank = {"inputs_digest", "eta_f_root"}
    if key == "eta_f_estimate":
        blank |= {"value", "witness"}
    return {k: "" if k in blank else _blank_sampled(v, k) for k, v in node.items()}


# SHA-256 of each golden report, parsed, with _blank_sampled applied and
# dumped again: every exact field and the report's layout, without the
# fields that depend on the estimator's seeded random numbers, so that a
# change to how the estimates sample is checked against all the rest
MASKED_GOLDEN_DIGESTS = {
    "asym-pearson": "cc225ed753dca60f0cb059f5329af97fff6bdf4e67fa5f034972007fac377a4c",
    "asym-reverse-kl": "0c1c6fd041785e79604efae286aa04690104c2d7722742ad13ecb541a77e40c4",
    "bsc03-kl": "fa0c70f96a99e9a32774364eb7de5f07eca272543d48f7d63c6f1eac2687f5db",
    "sparse64-kl": "18feae150c102550a04516a5898e531050c92a3154c04dd2db98564173feb569",
    "typewriter-hellinger": "21e3f0ff970e443e3af870716e66125fa91e91a201c6a29201544024e42b40ef",
    "zero-pi-kl": "f7c7657adee362cfddbcb5ec41e042dd2d1a0c3889f12b789b67f7a117c4190c",
    "amplitude-damping-kl": "af4af76e83b0907d39715ec3319be722d9acc4dff5338bd8324c2bfff7010091",
    "depolarizing4-reverse-kl": "2b7dfdff52d646c7815aeff556ff4c33483bdf54a3ab6c7f59f9fb0a81c23e3d",
    "isometry4-reverse-kl": "74c64ef0f3f666e08fb73259adcc5b64164fe979818834a4ab097c415960df2d",
}


@pytest.mark.parametrize("case", sorted(MASKED_GOLDEN_DIGESTS))
def test_masked_golden_output(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = (_chain_golden_argv if case in GOLDEN_REPORTS else _quantum_golden_argv)(case)
    code = run(argv)
    report = _blank_sampled(json.loads(capsys.readouterr().out))
    assert code == 0
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert digest == MASKED_GOLDEN_DIGESTS[case]


def _kraus_file(tmp_path, kraus) -> str:
    path = tmp_path / "channel.json"
    payload = {"kraus": [{"re": np.real(K).tolist(), "im": np.imag(K).tolist()} for K in kraus]}
    path.write_text(json.dumps(payload))
    return str(path)


# qubit amplitude damping at gamma = 0.3 (p = 1: the fixed point is |0><0|)
# and a replacer that prepares the pure state |+><+|
RANK_DEFICIENT_CHANNELS = {
    "amplitude-damping": lambda: _amplitude_damping(0.3, 1.0),
    "pure-replacer": lambda: replacer_channel(np.full((2, 2), 0.5)).kraus,
}


@pytest.mark.parametrize("delta", ["0.25", "0.01"])
@pytest.mark.parametrize("case", sorted(RANK_DEFICIENT_CHANNELS))
def test_quantum_analyze_skips_mixing_at_a_rank_deficient_fixed_point(case, delta, tmp_path,
                                                                      capsys):
    # the report printed td_bound 1 against empirical_td 5 (delta = 0.25) and
    # 22 (delta = 0.01) for amplitude damping, and exited 2 at delta = 0.01;
    # a bound needs a full-rank fixed point, as it needs a full-support pi
    path = _kraus_file(tmp_path, RANK_DEFICIENT_CHANNELS[case]())
    code = run(["quantum-analyze", "--channel", path, "--generator", "kl", "--delta", delta])
    report = _load_json(capsys.readouterr().out)
    assert code == 0
    assert report["violations"] == []
    assert "mixing_time" not in report["results"]
    assert ("quantum mixing times unavailable: mixing times require a full-support "
            "stationary distribution") in report["warnings"]


@pytest.mark.parametrize("L", [math.inf, math.nan, 0.0, -1.0])
def test_reports_skip_bounds_without_a_usable_constant(L, tmp_path, capsys, monkeypatch,
                                                       bsc_csv):
    # a constant outside (0, inf) skips the upper bounds of both reports with
    # one warning; an infinite one printed bounds of 0.0 and violations
    g = dataclasses.replace(cli.from_spec("kl"), pinsker_constant=L)
    monkeypatch.setattr(cli, "from_spec", lambda spec: g)
    channel = _kraus_file(tmp_path, depolarizing_channel(2, 0.5).kraus)
    for argv in (["analyze-chain", "--matrix", bsc_csv, "--generator", "kl"],
                 ["quantum-analyze", "--channel", channel, "--generator", "kl"]):
        code = run(argv)
        report = _load_json(capsys.readouterr().out)
        assert code == 0
        assert report["violations"] == []
        assert cli.NO_CONSTANT_WARNING in report["warnings"]
        assert "nonlinear_upper" not in report["results"]["contraction"]


def test_reports_capture_library_user_warnings(tmp_path, capsys):
    # the sampled climb of the amplitude-damping report finds no feasible
    # input at the pure fixed point; its warning joins the report, in every
    # run of the process, and does not reach stderr
    path = _kraus_file(tmp_path, RANK_DEFICIENT_CHANNELS["amplitude-damping"]())
    argv = ["quantum-analyze", "--channel", path, "--generator", "kl"]
    outs = []
    for _ in range(2):
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert _load_json(outs[0])["warnings"] == [
        "quantum mixing times unavailable: mixing times require a full-support "
        "stationary distribution",
        "no feasible input found; estimate 0",
    ]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run(argv) == 0
    assert seen == [] and capsys.readouterr().out == outs[0]
    # a filter that makes UserWarnings errors still raises
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="no feasible input found"):
            run(argv)
    capsys.readouterr()


def test_reports_let_runtime_warnings_through(bsc25_csv, capsys, monkeypatch):
    # a RuntimeWarning (numpy's overflow or division by zero) is not a report
    # warning: it is shown as before, and a filter that makes it an error
    # fails the run, as the test suite's filter for divlab does
    from divlab import contraction

    eta_chi2 = contraction._eta_chi2

    def noisy(*args):
        warnings.warn("overflow probe", RuntimeWarning)
        return eta_chi2(*args)

    monkeypatch.setattr(contraction, "_eta_chi2", noisy)
    argv = ["analyze-chain", "--matrix", bsc25_csv, "--generator", "kl"]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run(argv) == 0
    assert [(w.category, str(w.message)) for w in seen] == [(RuntimeWarning, "overflow probe")]
    assert _load_json(capsys.readouterr().out)["warnings"] == []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow probe"):
            run(argv)
    capsys.readouterr()


def _count_calls(monkeypatch, originals: dict) -> dict:
    """Counts of the calls of each library function in ``originals``
    (name -> function), through every divlab module's binding, so that
    calls inside the library count."""
    calls = dict.fromkeys(originals, 0)
    for name, original in originals.items():

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("divlab") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_chain_solves_shared_pieces_once(tmp_path, capsys, monkeypatch):
    # one structure(), one stationary solve, one eta_chi2, one run of the
    # chain estimates (one cloud) and one refine stream per report, although
    # the report runs six estimates
    from divlab import contraction, markov

    calls = _count_calls(monkeypatch, {
        "_structure": markov._structure,
        "_stationary": markov._stationary,
        "_eta_chi2": contraction._eta_chi2,
        "_draw_moves": contraction._draw_moves,
        "_chain_estimates": contraction._chain_estimates,
    })
    path = tmp_path / "asym.csv"
    path.write_text("0.7,0.4\n0.3,0.6\n")
    code = run(["analyze-chain", "--matrix", str(path), "--generator", "kl"])
    report = _load_json(capsys.readouterr().out)
    assert code == 0
    assert calls == dict.fromkeys(calls, 1)
    bound_id = report["results"]["contraction"]["eta_f_estimate"]["bound_id"]
    assert bound_id == "eta-f-sampled-lower-estimate"


def test_analyze_chain_quadratic_generator_on_a_periodic_swap(tmp_path, capsys):
    # eta_chi2 = 1 is a repeated top singular value; the witness is still
    # a distribution, where the estimate used to raise
    path = tmp_path / "swap.csv"
    path.write_text("0,1\n1,0\n")
    code = run(["analyze-chain", "--matrix", str(path), "--generator", "pearson_chi2"])
    con = _load_json(capsys.readouterr().out)["results"]["contraction"]
    assert code == 0
    assert con["eta_f_estimate"]["value"] == con["eta_chi2"]["value"] == 1.0
    assert sum(con["eta_f_estimate"]["witness"]) == pytest.approx(1.0, abs=1e-12)


def test_analyze_chain_quadratic_generator_samples_nothing(tmp_path, capsys, monkeypatch):
    # pearson_chi2 is quadratic: its six estimates are eta_chi2 of the
    # powers, the one of W shared with the report's eta_chi2, with no
    # sampled chain estimates and no refine draws
    from divlab import contraction, markov

    calls = _count_calls(monkeypatch, {
        "_structure": markov._structure,
        "_stationary": markov._stationary,
        "_eta_chi2": contraction._eta_chi2,
        "_draw_moves": contraction._draw_moves,
        "_chain_estimates": contraction._chain_estimates,
        "_normalized_joint": contraction._normalized_joint,
    })
    path = tmp_path / "asym.csv"
    path.write_text("0.7,0.4\n0.3,0.6\n")
    code = run(["analyze-chain", "--matrix", str(path), "--generator", "pearson_chi2"])
    report = _load_json(capsys.readouterr().out)
    assert code == 0
    # one normalized joint per channel: the one of W serves eta_chi2 and
    # the witness
    assert calls == {"_structure": 1, "_stationary": 1, "_eta_chi2": 6,
                     "_draw_moves": 0, "_chain_estimates": 0, "_normalized_joint": 6}
    con = report["results"]["contraction"]
    assert con["eta_f_estimate"]["bound_id"] == "eta-f-exact-chi2"
    assert con["eta_f_estimate"]["value"] == con["eta_chi2"]["value"]


def _quantum_report_calls(monkeypatch, capsys, channel_json, generator):
    """The report of quantum-analyze on ``channel_json`` with ``generator``
    and the counts of its channel_structure, Petz eta_chi2, floor seed and
    candidate cloud calls."""
    from divlab import quantum

    calls = _count_calls(monkeypatch, {
        "_channel_structure": quantum._channel_structure,
        "_petz_eta_chi2": quantum._petz_eta_chi2,
        "_floor_seeds": quantum._floor_seeds,
        "_candidate_states": quantum._candidate_states,
    })
    code = run(["quantum-analyze", "--channel", channel_json, "--generator", generator])
    report = _load_json(capsys.readouterr().out)
    assert code == 0
    con = report["results"]["contraction"]
    assert {"nonlinear_upper", "linear_upper"} <= set(con)
    assert "mixing_time" in report["results"]
    return report, calls


def test_quantum_analyze_solves_shared_pieces_once(embedded_bsc_json, capsys, monkeypatch):
    # one channel_structure and one exact Petz eta_chi2 per report, shared by
    # the upper bounds and the mixing times, and one set of floor seeds and
    # one candidate cloud for the sampled estimate
    report, calls = _quantum_report_calls(monkeypatch, capsys, embedded_bsc_json, "kl")
    assert calls == dict.fromkeys(calls, 1)
    assert report["results"]["contraction"]["eta_f_estimate"]["estimate_based"] is True


def test_quantum_analyze_quadratic_generator_samples_nothing(embedded_bsc_json, capsys,
                                                             monkeypatch):
    # for the quadratic pearson_chi2 the one exact Petz eta_chi2 is also the
    # eta_f, and no candidate state is drawn
    report, calls = _quantum_report_calls(
        monkeypatch, capsys, embedded_bsc_json, "pearson_chi2")
    assert calls == {"_channel_structure": 1, "_petz_eta_chi2": 1, "_floor_seeds": 0,
                     "_candidate_states": 0}
    est = report["results"]["contraction"]["eta_f_estimate"]
    assert est["bound_id"] == "petz-eta-f-exact-chi2" and est["estimate_based"] is False
    assert est["value"] == report["results"]["mixing_time"]["eta_chi2_estimate"]


def test_quantum_analyze_reports_that_petz_eta_f_can_be_infinite(tmp_path, capsys):
    # chi_alpha at alpha = 2.5 has f''(1) = 0, and on a random qubit
    # isometry its Petz eta_f is infinite: the report's warnings say so,
    # next to the finite sampled value; a kl report's do not, nor does a
    # one_sided_chi2 report's, whose f''(1) = 0 but f'' = 2 below 1
    path = _kraus_file(tmp_path, random_kraus(np.random.default_rng(4), 2).kraus)
    for generator, warned in (("chi_alpha:alpha=2.5", True), ("kl", False),
                              ("one_sided_chi2", False)):
        code = run(["quantum-analyze", "--channel", path, "--generator", generator])
        report = _load_json(capsys.readouterr().out)
        assert code == 0
        assert (UNBOUNDED_WARNING in report["warnings"]) is warned, generator
        assert report["results"]["contraction"]["eta_f_estimate"]["value"] > 0.0


@pytest.mark.parametrize("profile_n", [2, 4])
def test_analyze_chain_takes_each_kappa_sup_once(tmp_path, capsys, monkeypatch, profile_n):
    # the upper bounds and the n = 1 profile point share the kappa_up sup of
    # W, so a report makes one sup per power
    from divlab import contraction

    calls = []
    sup = contraction._kappa_up_sup

    def counted(*args):
        calls.append(1)
        return sup(*args)

    monkeypatch.setattr(contraction, "_kappa_up_sup", counted)
    path = tmp_path / "asym.csv"
    path.write_text("0.7,0.4\n0.3,0.6\n")
    code = run(["analyze-chain", "--matrix", str(path), "--generator", "kl",
                "--profile-n", str(profile_n)])
    report = _load_json(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["contraction"]["nonlinear_upper"]["value"] < math.inf
    assert len(report["results"]["rate_profile"]["points"]) == profile_n
    assert len(calls) == profile_n


_COLD_START = """
import contextlib, io, json, sys

import divlab
from divlab import cli

chain, reducible, channel = sys.argv[1:4]


def report(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(list(argv))
    assert code == 0, (argv, code)


def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))


loaded = {"import": scipy_modules()}
for argv in (
    ("divergence", "--g", "kl", "--p", "0.5,0.5", "--q", "0.25,0.75"),
    ("verify-constants", "--grid", "64"),
    ("mixing-time", "--matrix", chain, "--generator", "kl"),
    ("quantum-analyze", "--channel", channel, "--generator", "kl"),
    ("analyze-chain", "--matrix", chain, "--generator", "kl"),
    ("analyze-chain", "--matrix", reducible, "--generator", "kl"),
):
    report(*argv)
    loaded[" ".join(argv[:3])] = scipy_modules()
print(json.dumps(loaded))
"""


def test_no_report_loads_scipy(tmp_path):
    # a fresh interpreter: the test process itself has scipy loaded.  The
    # reducible chain has two closed classes and a transient state, so its
    # structure takes the per-class solve
    import divlab
    from divlab import depolarizing_channel

    chain = tmp_path / "chain.csv"
    chain.write_text("0.7,0.4\n0.3,0.6\n")
    reducible = tmp_path / "reducible.csv"
    reducible.write_text(
        "0.7,0.4,0,0,0.1\n0.3,0.6,0,0,0.2\n0,0,0.2,0.5,0.3\n0,0,0.8,0.5,0\n0,0,0,0,0.4\n"
    )
    channel = tmp_path / "depol.json"
    channel.write_text(json.dumps({"kraus": [
        {"re": K.real.tolist(), "im": K.imag.tolist()}
        for K in depolarizing_channel(4, 0.5).kraus
    ]}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(divlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(chain), str(reducible), str(channel)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert len(loaded) == 7
    assert all(modules == [] for modules in loaded.values()), loaded
