"""Command-line interface: compute, reproduce, formats, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from minimaxlb import catalog, cli, models, verify
from minimaxlb.loss import LossSpec


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one ``main`` call; a usage error
    exits through SystemExit."""
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCompute:
    def test_table_output(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "local-two-point")
        assert rc == 0
        assert "value   0.3314" in out
        assert "rate    n^1" in out

    def test_json_output_and_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "local-two-point", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["bound"] == "local-two-point"
        assert abs(payload["value"] - oracles.FROZEN["gauss_local_mse"]) < 1e-9
        again = json.dumps(payload, sort_keys=True, indent=2)
        assert again == out.strip()

    def test_csv_output(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "local-two-point", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "value,0.3314332296" in lines

    def test_two_point_with_flags(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "exp-rate",
                             "--bound", "two-point", "--theta0", "1",
                             "--theta1", "2", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["value"]
                   - oracles.FROZEN["exp_rate_two_point"]) < 1e-8

    def test_three_point_exact(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "uniform-scale",
                             "--bound", "three-point-exact",
                             "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["value"]
                   - oracles.FROZEN["uniform_three_point_exact"]) < 1e-8

    def test_power_loss_exponent_flag(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "local-two-point", "--loss", "power",
                             "--t", "1", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["value"] - oracles.FROZEN["gauss_local_mae"]) < 1e-8
        assert payload["loss"] == "mae"

    def test_loss_shorthand(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "local-two-point", "--loss",
                             "power:1", "--format", "json")
        assert rc == 0
        assert abs(json.loads(out)["value"]
                   - oracles.FROZEN["gauss_local_mae"]) < 1e-8

    def test_restricted_search_domain(self, capsys):
        # cap s at 0.5: the objective is increasing there, boundary wins
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "local-two-point", "--smax", "0.5",
                             "--format", "json")
        assert rc == 0
        expect = 2.0 * 0.25 * oracles.FROZEN["q_half"]
        assert abs(json.loads(out)["value"] - expect) < 1e-6

    def test_monte_carlo(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "mc-pe", "--q", "0.5", "--theta0",
                             "0", "--theta1", "1", "--n", "16", "--trials",
                             "20000", "--seed", "7", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["value"] - oracles.FROZEN["mc_gauss_pe"]) < 5e-3
        assert any("seed 7" in note for note in payload["notes"])

    def test_monte_carlo_needs_a_sampler(self, capsys):
        rc, _, err = run_cli(capsys, "compute", "--model", "awgn-smooth",
                             "--bound", "mc-pe", "--theta0", "0",
                             "--theta1", "1")
        assert rc == 2
        assert "model 'awgn-smooth' has no sampler for mc-pe" in err

    def test_monte_carlo_uses_the_model_scale(self, capsys):
        # sigma 2 halves the standardized spacing: Q(0.5) = 0.3085, not
        # the unit-scale Q(1) = 0.1587
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "mc-pe", "--sigma", "2", "--theta0",
                             "0", "--theta1", "1", "--n", "4", "--trials",
                             "20000", "--seed", "7", "--format", "json")
        assert rc == 0
        value = json.loads(out)["value"]
        assert abs(value - 0.5 * math.erfc(0.5 / math.sqrt(2.0))) < 0.015

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_monte_carlo_needs_an_observation(self, capsys, n):
        # n = 0 used to report 0.5072 (every row decided by the prior) and
        # n = -2 numpy's "negative dimensions are not allowed"
        rc, out, err = run_cli(capsys, "compute", "--model", "gauss-location",
                               "--bound", "mc-pe", "--theta0", "0",
                               "--theta1", "1", "--n", n, "--trials", "10000")
        assert rc == 2 and out == ""
        assert "need n >= 1" in err

    @pytest.mark.parametrize("model_id,theta0,theta1,bad", [
        ("uniform-scale", "-1", "1", "theta0"),
        ("uniform-scale", "1", "0", "theta1"),
        ("exp-rate", "0", "2", "theta0"),
        ("gauss-location", "0", "inf", "theta1"),
        ("uniform-location", "nan", "1", "theta0")])
    def test_monte_carlo_points_stay_in_the_parameter_space(
            self, capsys, model_id, theta0, theta1, bad):
        rc, out, err = run_cli(capsys, "compute", "--model", model_id,
                               "--bound", "mc-pe", f"--theta0={theta0}",
                               f"--theta1={theta1}", "--trials", "10000")
        space = models.get_model(model_id).parameter_space
        assert rc == 2 and out == ""
        assert (f"finite-sample mc-pe bound needs {bad} inside the parameter "
                f"space ({space.lo:g}, {space.hi:g})") in err

    def test_sample_size_runs_the_nested_bounds_on_the_oracle(self, capsys):
        # at n = 50 the Gaussian oracle is the local limit with spacings
        # shrunk by sqrt(50), so the moment bound is the local value / 50
        values = {}
        for bound in ("moment", "three-point"):
            rc, out, _ = run_cli(capsys, "compute", "--model",
                                 "gauss-location", "--bound", bound, "--n",
                                 "50", "--theta0", "0", "--format", "json")
            assert rc == 0
            payload = json.loads(out)
            assert payload["rate"] is None
            values[bound] = payload["value"]
        assert abs(values["moment"]
                   - oracles.FROZEN["gauss_local_mse"] / 50.0) < 1e-9
        assert values["three-point"] > values["moment"]

    @pytest.mark.parametrize("bound", ["moment", "three-point"])
    def test_sample_size_needs_theta0(self, capsys, bound):
        rc, _, err = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", bound, "--n", "50")
        assert rc == 2
        assert "needs theta0" in err

    @pytest.mark.parametrize("model_id,bound,n,theta0", [
        ("exp-rate", "three-point", 1, 5.0),
        ("uniform-scale", "three-point", 1, 10.0),
        ("uniform-location", "moment", 4, 0.0)])
    def test_sample_size_spacings_stay_in_the_parameter_space(
            self, capsys, model_id, bound, n, theta0):
        # the default spacing range ends where a test point would leave the
        # parameter space, and uniform-location pairs are defined past
        # spacing 1 (disjoint supports, error 0)
        rc, out, _ = run_cli(capsys, "compute", "--model", model_id,
                             "--bound", bound, "--n", str(n), "--theta0",
                             str(theta0), "--format", "json")
        assert rc == 0
        report = catalog.compute_bound(model_id, bound, LossSpec.mse(),
                                       {"n": n, "theta0": theta0})
        assert json.loads(out)["value"] == pytest.approx(report.value,
                                                         rel=1e-9)
        assert report.reevaluate() == report.value
        space = models.get_model(model_id).parameter_space
        delta = report.argmax["delta"]
        points = [theta0 + delta, theta0 - delta if bound == "three-point"
                  else theta0]
        assert all(space.lo < p < space.hi for p in points)

    def test_explicit_smax_takes_precedence(self, capsys):
        args = ("compute", "--model", "exp-rate", "--bound", "three-point",
                "--n", "1", "--theta0", "5", "--format", "json")
        rc, out, _ = run_cli(capsys, *args, "--smax", "4")
        assert rc == 0
        assert json.loads(out)["argmax"]["delta"] <= 4.0
        rc, _, err = run_cli(capsys, *args, "--smax", "6")
        assert rc == 2
        assert "theta0 < theta1" in err
        rc, _, err = run_cli(capsys, *args[:-4], "--theta0", "-1")
        assert rc == 2
        assert "inside the parameter space" in err

    def test_param_passthrough(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "uniform-scale",
                             "--bound", "local-two-point", "--param",
                             "prior=half", "--format", "json")
        assert rc == 0
        assert abs(json.loads(out)["value"]
                   - oracles.FROZEN["uniform_scale_local_mse_half"]) < 1e-8

    @pytest.mark.parametrize("text,pinned", [("false", False), ("No", False),
                                             ("0", False), ("TRUE", True),
                                             ("yes", True), ("1", True)])
    def test_w_zero_reads_yes_and_no(self, capsys, text, pinned):
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "three-point", "--param", "inner=half",
                             "--param", f"w_zero={text}", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert any("pinned" in note for note in payload["notes"]) == pinned
        assert (payload["argmax"]["w"] == 0.0) == pinned

    def test_integer_parameters_are_not_truncated(self, capsys):
        args = ("compute", "--model", "gauss-location", "--bound",
                "two-point", "--theta0", "0", "--theta1", "1")
        rc, _, err = run_cli(capsys, *args, "--param", "n=2.5")
        assert rc == 2
        assert "n must be an integer, got 2.5" in err
        rc, out, _ = run_cli(capsys, *args, "--param", "n=2",
                             "--format", "json")
        assert rc == 0
        assert json.loads(out)["value"] == json.loads(
            run_cli(capsys, *args, "--n", "2", "--format", "json")[1])["value"]
        rc, _, err = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "transform", "--theta0", "0",
                             "--theta1", "1", "--param", "k=0.5")
        assert rc == 2 and "k must be an integer" in err

    def test_trials_in_exponent_notation(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "mc-pe", "--theta0", "0", "--theta1",
                             "1", "--param", "trials=1e5", "--seed", "7",
                             "--format", "json")
        assert rc == 0
        assert any("at 100000 trials" in note
                   for note in json.loads(out)["notes"])

    def test_w_zero_rejects_other_words(self, capsys):
        rc, _, err = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "three-point", "--param", "inner=half",
                             "--param", "w_zero=maybe")
        assert rc == 2
        assert "w_zero" in err

    def test_unknown_model(self, capsys):
        rc, _, err = run_cli(capsys, "compute", "--model", "bogus",
                             "--bound", "local-two-point")
        assert rc == 2
        assert "unknown model id" in err

    def test_unknown_bound(self, capsys):
        rc, _, err = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "bogus")
        assert rc == 2
        assert "unknown bound id" in err

    def test_bad_loss(self, capsys):
        rc, _, err = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "local-two-point", "--loss", "huber")
        assert rc == 2
        assert "loss" in err

    def test_missing_required_parameter(self, capsys):
        rc, _, err = run_cli(capsys, "compute", "--model", "exp-rate",
                             "--bound", "two-point")
        assert rc == 2

    def test_malformed_param(self, capsys):
        rc, _, err = run_cli(capsys, "compute", "--model", "gauss-location",
                             "--bound", "local-two-point", "--param", "oops")
        assert rc == 2

    @pytest.mark.parametrize("item,key", [("smx=5", "smx"), ("foo=3", "foo"),
                                          ("=3", "")])
    def test_unknown_param_is_refused(self, capsys, item, key):
        # these used to exit 0 with the default value
        rc, out, err = run_cli(capsys, "compute", "--model", "gauss-location",
                               "--bound", "local-two-point", "--param", item)
        assert rc == 2 and out == ""
        assert f"unknown parameter: {key!r}" in err
        assert "(known: prior, sigma, smax, theta)" in err

    @pytest.mark.parametrize("model_id,bound,args,key,known", [
        # pdot is awgn-smooth's
        ("gauss-location", "local-two-point", ("--param", "pdot=5"), "pdot",
         "prior, sigma, smax, theta"),
        # two-point reads neither prior nor smax
        ("exp-rate", "two-point", ("--theta0", "1", "--theta1", "2",
                                   "--param", "prior=half", "--smax", "3"),
         "prior", "n, theta0, theta1"),
        ("uniform-scale", "local-two-point", ("--n", "4"), "n",
         "prior, smax, theta"),
        ("gauss-location", "mc-pe", ("--theta0", "0", "--theta1", "1",
                                     "--n", "4", "--param", "r=0.5"), "r",
         "n, q, sigma, theta0, theta1, trials")])
    def test_param_another_bound_or_model_reads_is_refused(
            self, capsys, model_id, bound, args, key, known):
        # each used to exit 0: the key was read by some bound or model
        rc, out, err = run_cli(capsys, "compute", "--model", model_id,
                               "--bound", bound, *args)
        assert rc == 2 and out == ""
        assert (f"unknown parameter: {key!r} for {bound} on {model_id} "
                f"(known: {known})") in err

    def test_rotation_sigma_is_read_on_any_model(self, capsys):
        rc, out, _ = run_cli(capsys, "compute", "--model", "uniform-scale",
                             "--bound", "nuisance-rotation", "--sigma", "2",
                             "--smax", "3", "--format", "json")
        assert rc == 0 and json.loads(out)["bound"] == "nuisance-rotation"

    @pytest.mark.parametrize("model_id,bound,flag,value", [
        ("gauss-location", "local-two-point", "sigma", "inf"),
        ("gauss-location", "two-point", "sigma", "nan"),
        ("exp-family", "local-two-point", "sigma", "-1"),
        ("exp-family", "local-two-point", "h", "inf"),
        ("awgn-smooth", "local-two-point", "pdot", "inf"),
        ("awgn-smooth", "local-two-point", "n0", "nan"),
        ("awgn-rect", "local-two-point", "power", "inf"),
        ("awgn-rect", "local-two-point", "pulse_width", "0"),
        ("nuisance-rotation", "nuisance-rotation", "sigma", "inf"),
        ("uniform-scale", "nuisance-rotation", "sigma", "inf")])
    def test_scale_must_be_finite_and_positive(self, capsys, model_id, bound,
                                               flag, value):
        # sigma = inf on gauss-location used to exit 0 with value 400
        points = ("--theta0", "0", "--theta1", "1") if bound == "two-point" \
            else ()
        rc, out, err = run_cli(capsys, "compute", "--model", model_id,
                               "--bound", bound, *points,
                               "--param", f"{flag}={value}")
        assert rc == 2 and out == ""
        assert f"{flag} must be a finite positive number" in err

    @pytest.mark.parametrize("smax", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("bound", ["local-two-point", "moment",
                                       "nuisance-rotation"])
    def test_smax_must_be_finite_and_positive(self, capsys, bound, smax):
        rc, out, err = run_cli(capsys, "compute", "--model", "gauss-location",
                               "--bound", bound, f"--smax={smax}")
        assert rc == 2 and out == ""
        assert "smax must be a finite positive number" in err

    @pytest.mark.parametrize("model_id,theta,n,message", [
        ("exp-rate", "1", "2", "single-observation (n = 1)"),
        ("uniform-scale", "-1", "1", "need test points in (0, inf)"),
        ("uniform-scale", "1", "0", "need n >= 1")])
    def test_coincident_points_are_checked_like_any_other(
            self, capsys, model_id, theta, n, message):
        # coincident test points used to get min{q, 1-q} before the oracle
        # checked n or the parameter space, and these exited 0 with value 0
        rc, out, err = run_cli(capsys, "compute", "--model", model_id,
                               "--bound", "two-point", f"--theta0={theta}",
                               f"--theta1={theta}", "--n", n)
        assert rc == 2 and out == ""
        assert message in err


def readme_compute_commands():
    """The ``minimaxlb compute`` lines of README's "Command line" block,
    continuations joined and comments dropped, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = (line.split(" #", 1)[0].split() for line in block.splitlines())
    return [words[1:] for words in lines if words[:2] == ["minimaxlb", "compute"]]


@pytest.mark.parametrize("argv", readme_compute_commands(),
                         ids=lambda argv: " ".join(argv[1:5]))
def test_readme_compute_commands_run(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert out


@pytest.fixture
def fresh_shared_parser():
    shared = cli._shared_parser
    shared.cache_clear()
    yield
    shared.cache_clear()


class TestParserReuse:
    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_builds_the_parser_once(self, capsys, monkeypatch,
                                         fresh_shared_parser):
        built = []

        def counting_parser(*args, **kwargs):
            built.append(kwargs.get("prog"))
            return argparse.ArgumentParser(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse",
                            types.SimpleNamespace(ArgumentParser=counting_parser))
        for _ in range(3):
            rc, _, _ = run_cli(capsys, *COMPUTE_CSV)
            assert rc == 0
        assert built == ["minimaxlb"]

    def test_main_carries_no_state_between_calls(self, capsys, monkeypatch,
                                                 fresh_shared_parser):
        plain = ["compute", "--model", "uniform-scale", "--bound",
                 "local-two-point", "--format", "json"]
        first = plain + ["--param", "smax=3"]
        sequence = [first, plain, ["compute", "--model", "uniform-scale"],
                    ["reproduce", "--only", "rotation"], first]
        shared = [run_cli(capsys, *argv) for argv in sequence]
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [run_cli(capsys, *argv) for argv in sequence]
        assert [rc for rc, _, _ in shared] == [0, 0, 2, 0, 0]
        assert shared == fresh
        assert shared[0] == shared[4] and shared[0] != shared[1]


LIMIT_MODELS = tuple(m for m in models.MODEL_IDS
                     if models.get_model(m).limit is not None)
ORACLE_MODELS = tuple(m for m in models.MODEL_IDS
                      if models.get_model(m).oracle is not None)
_SCALE = st.floats(0.5, 2.0)
_CONVEX_LOSS = st.sampled_from(["mse", "mae"]) | \
    st.floats(1.0, 8.0).map(lambda t: f"power:{t!r}")


@st.composite
def local_two_point_inputs(draw):
    model_id = draw(st.sampled_from(LIMIT_MODELS))
    params = {k: draw(_SCALE) for k in models.MODEL_PARAMS[model_id]}
    params["theta"] = draw(_SCALE)
    if draw(st.booleans()):
        params["prior"] = "half"
    return model_id, "local-two-point", draw(_CONVEX_LOSS), params


@st.composite
def two_point_inputs(draw):
    model_id = draw(st.sampled_from(ORACLE_MODELS))
    params = {k: draw(_SCALE) for k in models.MODEL_PARAMS[model_id]}
    theta0 = draw(_SCALE)
    params.update(theta0=theta0, theta1=theta0 + draw(st.floats(0.01, 2.0)),
                  n=1 if model_id == "exp-rate" else draw(st.integers(1, 40)))
    return model_id, "two-point", draw(_CONVEX_LOSS), params


@settings(max_examples=50, deadline=None)
@given(st.one_of(local_two_point_inputs(), two_point_inputs()))
def test_cli_value_is_the_rounded_report_value(inputs):
    model_id, bound_id, loss, params = inputs
    argv = ["compute", "--model", model_id, "--bound", bound_id,
            "--loss", loss, "--format", "json"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value!r}" if isinstance(value, float)
                 else f"{key}={value}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    report = catalog.compute_bound(model_id, bound_id,
                                   catalog.parse_loss(loss), params)
    assert json.loads(out.getvalue())["value"] == float("%.10g" % report.value)
    assert report.reevaluate() == report.value


class TestManifestParsing:
    def test_default_manifest(self):
        entries = catalog.parse_manifest(catalog.DEFAULT_MANIFEST)
        assert len(entries) == 19
        labels = [e.label for e in entries]
        assert len(set(labels)) == len(labels)
        for e in entries:
            assert e.bound_id in catalog.BOUND_IDS
            assert e.tolerance > 0

    def test_param_coercion(self):
        entries = catalog.parse_manifest(
            "label = x\nmodel = uniform-scale\nbound = local-two-point\n"
            "loss = mse\nparams = theta=2 prior=half\n"
            "expected = 0.1\ntol = 1e-3\n")
        assert entries[0].params["theta"] == 2.0
        assert entries[0].params["prior"] == "half"

    def test_missing_key(self):
        with pytest.raises(ValueError, match="lacks key"):
            catalog.parse_manifest("label = x\nmodel = gauss-location\n")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="key = value"):
            catalog.parse_manifest("label = x\nnonsense\n")

    def test_parse_loss_errors(self):
        with pytest.raises(ValueError):
            catalog.parse_loss("power")
        with pytest.raises(ValueError):
            catalog.parse_loss("huber")
        assert catalog.parse_loss("power", t=3).describe() == "power:3"


class TestReproduce:
    def test_full_manifest(self, capsys):
        rc, out, _ = run_cli(capsys, "reproduce")
        assert rc == 0
        assert "19/19 entries within tolerance" in out
        assert "verify " in out and "FAIL" not in out

    def test_only_filter(self, capsys):
        rc, out, _ = run_cli(capsys, "reproduce", "--only", "monte-carlo")
        assert rc == 0
        assert "2/2 entries within tolerance" in out

    def test_only_no_match(self, capsys):
        rc, _, err = run_cli(capsys, "reproduce", "--only", "zzz-nothing")
        assert rc == 2
        assert "no manifest entries" in err

    def test_jobs_parallel(self, capsys):
        rc, out, _ = run_cli(capsys, "reproduce", "--only",
                             "uniform-location", "--jobs", "3")
        assert rc == 0
        assert "3/3 entries within tolerance" in out

    def test_manifest_file(self, capsys, tmp_path):
        good = tmp_path / "ok.txt"
        good.write_text(
            "label = custom check\nmodel = gauss-location\n"
            "bound = local-two-point\nloss = mse\n"
            "expected = 0.33143\ntol = 1e-3\n")
        rc, out, _ = run_cli(capsys, "reproduce", "--manifest", str(good))
        assert rc == 0
        assert "1/1 entries within tolerance" in out

    def test_failing_entry(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "label = wrong target\nmodel = gauss-location\n"
            "bound = local-two-point\nloss = mse\n"
            "expected = 999\ntol = 1e-3\n")
        rc, out, _ = run_cli(capsys, "reproduce", "--manifest", str(bad))
        assert rc == 1
        assert "FAIL" in out

    def test_erroring_entry_is_reported_not_raised(self, capsys, tmp_path):
        # a bound/model mismatch inside an entry must not kill the run
        bad = tmp_path / "err.txt"
        bad.write_text(
            "label = mismatched\nmodel = gauss-location\n"
            "bound = three-point-exact\nloss = mse\n"
            "expected = 0.1\ntol = 1e-3\n")
        rc, out, _ = run_cli(capsys, "reproduce", "--manifest", str(bad))
        assert rc == 1
        assert "ValueError" in out

    def test_empty_manifest_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        rc, _, err = run_cli(capsys, "reproduce", "--manifest", str(empty))
        assert rc == 2

    def test_malformed_manifest_file(self, capsys, tmp_path):
        broken = tmp_path / "broken.txt"
        broken.write_text("label = x\nmodel gauss\n")
        rc, _, err = run_cli(capsys, "reproduce", "--manifest", str(broken))
        assert rc == 2

    def test_missing_manifest_file(self, capsys):
        rc, _, err = run_cli(capsys, "reproduce", "--manifest",
                             "/no/such/file.txt")
        assert rc == 2

    def test_json_format_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "reproduce", "--only", "monte-carlo",
                             "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert all(c["passed"] for c in payload["checks"])
        assert len(payload["entries"]) == 2
        assert json.dumps(payload, sort_keys=True, indent=2) == out.strip()

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "reproduce", "--only",
                             "uniform-location", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("label,model,bound,")
        assert len(lines) == 4
        assert all(",True," in line for line in lines[1:])

    def test_verification_failure_aborts(self, capsys, monkeypatch):
        broken = verify.CheckReport(check_id="fake", max_abs_error=1.0,
                                    samples=1, tolerance=1e-6, passed=False)
        monkeypatch.setattr(cli.verify, "run_default_suite",
                            lambda: [broken])
        rc, _, err = run_cli(capsys, "reproduce", "--only", "monte-carlo")
        assert rc == 1
        assert "verification failed" in err


REPO = Path(__file__).resolve().parent.parent
COMPUTE_CSV = ["compute", "--model", "uniform-scale", "--bound",
               "local-two-point", "--format", "csv"]


def src_env():
    """Environment whose PYTHONPATH starts with this checkout's ``src/``."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(REPO / "src") + (os.pathsep + rest if rest else "")
    return env


def declared_scripts():
    """The ``[project.scripts]`` table of the checkout's ``pyproject.toml``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def write_console_script(directory, target):
    """Write the wrapper pip generates for a ``module:attr`` entry point."""
    module, attr = target.split(":")
    script = directory / "minimaxlb"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(0o755)
    return script


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        target = declared_scripts().get("minimaxlb")
        assert target is not None
        assert re.fullmatch(r"[A-Za-z_][\w.]*:[A-Za-z_]\w*", target)
        runs = [(str(write_console_script(tmp_path, target)), src_env())]
        installed = shutil.which("minimaxlb")
        if installed is not None:
            runs.append((installed, None))
        for exe, env in runs:
            proc = subprocess.run([exe, *COMPUTE_CSV], capture_output=True,
                                  text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            assert "value,0.2414150394" in proc.stdout

    def test_module_invocation_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "minimaxlb.cli", "compute", "--model", "x"],
            capture_output=True, text=True, timeout=60, env=src_env())
        assert proc.returncode == 2
