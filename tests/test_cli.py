import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from maasslab import cli, dde, ingest, satake, sieve
from oracles import grid_nodes, record_json_dict


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_first_zero_two_form(capsys):
    code, out, _ = run_cli(capsys, "first-zero", "--chi0", "2", "--chi1", "-2",
                           "--tol", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["first_zero"] - 2.23528) < 1e-4
    assert doc["config"]["tol"] == 1e-6


def test_density_report_two_forms(capsys):
    code, out, _ = run_cli(capsys, "density-report", "--m", "2",
                           "--formula", "paper")
    assert code == 0
    doc = json.loads(out)
    assert doc["density_lower_bound"] == "43/44"


def test_density_report_remark_labeled_conditional(capsys):
    code, out, _ = run_cli(capsys, "density-report", "--m", "2",
                           "--formula", "remark")
    assert code == 0
    doc = json.loads(out)
    assert doc["density_lower_bound"] == "118/119"
    assert "conditional" in doc["status"]


def test_identity_check_passes(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--samples", "20000",
                           "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_square_identity_residual"] < 1e-10
    assert doc["max_expansion_residual"] < 1e-9


# sha256 of `identity-check` at its defaults (10^5 samples, seed 1729),
# one line of compact JSON
IDENTITY_CHECK_STDOUT_SHA256 = (
    "25338d77b202e24a600ef1bd7f240368dc78f79674f53cd1d728b3bcb2f1ab76")


def test_identity_check_stdout_bytes_pinned(capsys):
    code, out, _ = run_cli(capsys, "identity-check")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IDENTITY_CHECK_STDOUT_SHA256


def test_identity_check_reports_pairs_swept(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--samples", "7",
                           "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 6 and doc["config"]["samples"] == 7


@pytest.mark.parametrize("argv", [
    ("identity-check", "--samples", "1"), ("identity-check", "--samples", "-4"),
    ("identity-check", "--samples", "0"),
    ("identity-check", "--seed", "3", "--samples", "-5"),
])
def test_sample_count_below_minimum_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid-input: --samples must be >= ")


def test_sample_count_above_the_cap_is_resource_limit(capsys):
    # 10^20 is past the largest array numpy can make: the cap, not numpy,
    # refuses it
    for samples in (10 ** 20, 2 * satake.MAX_SAMPLES + 2):
        code, out, err = run_cli(capsys, "identity-check", "--samples", str(samples))
        assert code == 4 and out == ""
        assert err == (f"error: resource-limit: count {samples // 2} exceeds the cap "
                       f"of {satake.MAX_SAMPLES} samples per draw\n")


@pytest.mark.parametrize("argv", [
    ("first-zero", "--chi0", "2", "--chi1", "-2", "--u-cap", "5"),
    ("identity-check", "--nu-max", "0.1"),
    ("sieve-verify", "--samples", "5"),
    ("bound", "--levels", "1,1", "--spectral", "0,0", "--format", "json"),
    ("solve-dde", "--chi0", "2", "--chi1", "-2", "--format", "csv"),
    ("first-zero", "--chi0", "2", "--chi1", "-2", "--format", "table"),
    ("sieve-verify", "--report", "asymptotic", "--format", "json"),
    ("density-report", "--m", "2", "--format", "csv"),
    ("identity-check", "--samples", "2", "--format", "table"),
    ("fetch", "--label", "fixture-tempered-1", "--format", "table"),
], ids=["first-zero-u-cap", "identity-check-nu-max", "sieve-verify-samples",
        "bound-format-json", "solve-dde-format-csv", "first-zero-format-table",
        "sieve-verify-format-json", "density-report-format-csv",
        "identity-check-format-table", "fetch-format-table"])
def test_fixed_settings_are_unrecognized_arguments(capsys, argv):
    # the give-up cap 10, the Kim-Sarnak deviation 7/64 and the 100
    # brute-force specs are constants; a scalar result prints JSON and a
    # grid CSV, with no --format
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize("module,name,broken", [
    ("density", "weight_residual", lambda *_: 1.0),
    ("density", "weight_residual", lambda *_: float("nan")),
    ("satake", "identity_residuals", lambda *_: (1.0, 1.0)),
])
def test_identity_check_runs_the_library_formulas(capsys, monkeypatch,
                                                  module, name, broken):
    monkeypatch.setattr(getattr(cli, module), name, broken)
    code, out, _ = run_cli(capsys, "identity-check", "--samples", "100")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_output_byte_identical_between_runs(capsys):
    _, first, _ = run_cli(capsys, "density-report", "--m", "3")
    _, second, _ = run_cli(capsys, "density-report", "--m", "3")
    assert first == second


def test_bound_payload(capsys):
    code, out, _ = run_cli(capsys, "bound", "--levels", "1,1",
                           "--spectral", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == 1.0
    assert doc["exponent"] == 0.447374
    assert doc["implied_constant"] == "unspecified"
    assert doc["U_used"] == 2.23527


def test_bound_evaluates_no_closed_form(capsys, monkeypatch):
    # the closed forms are the tests' oracle: bound takes its zero from
    # first_zero alone
    specs = []
    real_first_zero = dde.first_zero

    def first_zero_spy(spec, *args, **kwargs):
        specs.append(spec)
        return real_first_zero(spec, *args, **kwargs)

    def oracle(*args):
        raise AssertionError("closed form evaluated")

    monkeypatch.setattr(dde, "first_zero", first_zero_spy)
    monkeypatch.setattr(dde, "closed_form_first_zero", oracle)
    monkeypatch.setattr(dde, "analytic_segment", oracle)
    for levels, spectral in (("5,7", "2.13,5.44"), ("5,7,11", "2.13,5.44,9.5")):
        code, out, _ = run_cli(capsys, "bound", "--levels", levels,
                               "--spectral", spectral)
        assert code == 0 and json.loads(out)["exponent"] in (0.447374, 0.778801)
    assert specs == [dde.DdeSpec(2.0, -2.0), dde.DdeSpec(1.0, -3.0)]


def test_solve_dde_csv_output(capsys):
    code, out, _ = run_cli(capsys, "solve-dde", "--chi0", "2", "--chi1", "-2",
                           "--u-max", "2", "--step", "1e-2", "--stride", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "u,sigma"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0


def test_sieve_verify_checks(capsys):
    code, out, _ = run_cli(capsys, "sieve-verify", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"]
    names = {c["name"] for c in doc["checks"]}
    assert "h_sum_y10_q1" in names and "moebius_roundtrip" in names


def test_sieve_verify_asymptotic_csv(capsys):
    code, out, _ = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                           "--limit", "40000", "--y", "100",
                           "--u-grid", "0.5,1.0", "--q", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "y,u,exact,predicted,rel_error"
    assert len(lines) == 4


def test_fetch_fixture(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "fetch", "--label", "fixture-tempered-1",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["record"]["label"] == "fixture-tempered-1"
    assert (tmp_path / "fixture-tempered-1.json").exists()


# sha256 of `fetch --label fixture-mixed-1 --coverage 10000 --cache-dir cache`,
# one line of compact JSON
FETCH_STDOUT_SHA256 = "56d511e71f46e4e01b7830c458caae3cfd3ccdfceb9c8514912c5c3c784a2172"


def test_fetch_stdout_bytes_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)     # the config echo shows cache_dir as given
    code, out, _ = run_cli(capsys, "fetch", "--label", "fixture-mixed-1",
                           "--coverage", "10000", "--cache-dir", "cache")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == FETCH_STDOUT_SHA256


def test_cold_fetch_formats_each_pair_once(tmp_path, capsys, monkeypatch,
                                          local_endpoint):
    # write_cache formats the pairs; the printed record copies them from
    # the file just written, on the fixture and the remote route alike
    monkeypatch.chdir(tmp_path)
    reprs = []
    monkeypatch.setattr(ingest, "repr", lambda v: reprs.append(v) or repr(v),
                        raising=False)
    code, out, _ = run_cli(capsys, "fetch", "--label", "fixture-mixed-1",
                           "--coverage", "10000", "--cache-dir", "cache")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FETCH_STDOUT_SHA256
    assert len(reprs) == len(json.loads(out)["record"]["coefficients"])

    url, bodies, _ = local_endpoint
    doc = record_json_dict(ingest.generate_fixture("fixture-mixed-2", 10000))
    doc.update(label="remote-form-5", source="remote")
    bodies[0] = json.dumps(doc).encode()
    reprs.clear()
    code, out, _ = run_cli(capsys, "fetch", "--label", "remote-form-5", "--coverage",
                           "10000", "--cache-dir", "cache", "--endpoint", url)
    assert code == 0 and out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert json.loads(out)["record"] == doc
    assert len(reprs) == len(doc["coefficients"])


def _cache_remote_record(tmp_path, monkeypatch, label, coverage, **changes):
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    rec = dataclasses.replace(ingest.generate_fixture("fixture-mixed-2", coverage),
                              label=label, source="remote", **changes)
    ingest.write_cache(rec, tmp_path)
    return dataclasses.replace(rec, source="cache-fallback")


def test_fetch_output_is_the_payload_dump(tmp_path, capsys, monkeypatch):
    # more pairs than one chunk of the record's JSON text
    rec = _cache_remote_record(tmp_path, monkeypatch, "remote-big", 200000)
    assert rec.ps.size > ingest.JSON_CHUNK
    findings = [{"severity": f.severity, "kind": f.kind, "p": f.p,
                 "message": f.message} for f in ingest.validate(rec)]
    out_file = tmp_path / "out.json"
    for extra in ([], ["--out", str(out_file)]):
        argv = ["fetch", "--label", "remote-big", "--cache-dir", str(tmp_path), *extra]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        config = cli._config_dict(cli.build_parser().parse_args(argv))
        want = json.dumps({"config": config, "findings": findings,
                           "record": record_json_dict(rec)}, sort_keys=True) + "\n"
        assert (out_file.read_text() if extra else out) == want
    assert out == ""


def test_fetch_non_finite_coefficient_is_check_failure(tmp_path, capsys, monkeypatch):
    lams = ingest.generate_fixture("fixture-mixed-2", 100).lams.copy()
    lams[[2, 4]] = np.nan, np.inf       # p = 11 and p = 17 (level 10)
    _cache_remote_record(tmp_path, monkeypatch, "remote-nan", 100, lams=lams)
    code, out, _ = run_cli(capsys, "fetch", "--label", "remote-nan",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    doc = json.loads(out)
    assert [(f["severity"], f["kind"], f["p"]) for f in doc["findings"]] == [
        ("error", "non-finite", 11), ("error", "non-finite", 17)]
    assert '[11, NaN], [13, ' in out and '[17, Infinity]' in out


def test_fetch_cached_prime_past_int64_is_check_failure(tmp_path, capsys,
                                                        monkeypatch):
    # a cache file that does not parse is a check failure (exit 1), not a
    # usage error (exit 2)
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    doc = record_json_dict(ingest.generate_fixture("fixture-tempered-1", 10))
    doc.update(label="remote-7", coefficients=[[2, 0.5], [2 ** 63, 0.1]])
    (tmp_path / "remote-7.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "fetch", "--label", "remote-7",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: CacheParseError: ")


def test_fetch_non_utf8_cache_file_is_check_failure(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, "fetch", "--label", "bad",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: CacheParseError: cache file is not valid JSON")


def test_fetch_unknown_label_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    code, _, err = run_cli(capsys, "fetch", "--label", "nope",
                           "--cache-dir", str(tmp_path))
    assert code == 5
    assert "network-unavailable" in err


def test_density_scan_data_gap_exit_code(tmp_path, capsys):
    # coverage 100 leaves gaps below a scan limit of 10^4
    code, _, err = run_cli(capsys, "density-report",
                           "--scan-labels", "fixture-mixed-1,fixture-mixed-2",
                           "--x", "10000", "--coverage", "100",
                           "--cache-dir", str(tmp_path))
    assert code == 3
    assert "data-gap" in err


def test_density_scan_non_finite_eigenvalue_exit_code(tmp_path, capsys, monkeypatch):
    # cached remote copies of the mixed fixtures with lams[5] (p = 19) NaN:
    # a data gap naming the first member and prime, and no NaN on stdout
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    for fixture, label in (("fixture-mixed-1", "nan-a"), ("fixture-mixed-2", "nan-b")):
        rec = ingest.generate_fixture(fixture, 10 ** 4)
        lams = rec.lams.copy()
        lams[5] = np.nan
        ingest.write_cache(dataclasses.replace(rec, label=label, lams=lams,
                                               source="remote"), tmp_path)
    code, out, err = run_cli(capsys, "density-report", "--scan-labels", "nan-a,nan-b",
                             "--x", "10000", "--cache-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err == "error: data-gap: nan-a: eigenvalue at p = 19 is not finite (nan)\n"


def test_density_scan_with_no_prime_exit_code(tmp_path, capsys):
    # the levels 6 and 10 of the mixed fixtures take every prime up to 6
    code, out, err = run_cli(capsys, "density-report", "--scan-labels",
                             "fixture-mixed-1,fixture-mixed-2", "--x", "3",
                             "--coverage", "100", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err == ("error: invalid-input: every prime up to X = 3 divides one "
                   "of the levels [6, 10]; nothing to scan\n")


def test_density_scan_finds_fixture_exceptional_primes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "density-report",
                           "--scan-labels", "fixture-mixed-1,fixture-mixed-2",
                           "--x", "10000", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["exceptional_count"] == 2
    assert doc["implied_upper"] > 0


def test_fetch_remote_label_mismatch_exit_code(tmp_path, capsys, local_endpoint):
    url, bodies, _ = local_endpoint
    doc = record_json_dict(ingest.generate_fixture("fixture-mixed-2", 1000))
    doc.update(label="other-form", source="remote")
    bodies[0] = json.dumps(doc).encode()
    code, out, err = run_cli(capsys, "fetch", "--label", "asked-form", "--coverage",
                             "1000", "--cache-dir", str(tmp_path), "--endpoint", url)
    assert code == 1 and out == ""
    assert err.startswith("error: CacheParseError:") and "'other-form'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("labels, item", [(",", "''"), ("a,,b", "''"),
                                          ("fixture-mixed-1,", "''"),
                                          ("fixture-mixed-1,fixture-mixed-1",
                                           "'fixture-mixed-1'"),
                                          ("fixture-mixed-1", "'fixture-mixed-1'"),
                                          ("nosuch", "'nosuch'"), ("", "''")])
def test_density_scan_bad_label_list_exit_code(tmp_path, capsys, labels, item):
    code, out, err = run_cli(capsys, "density-report", "--scan-labels", labels,
                             "--x", "1000", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid-input: --scan-labels ")
    assert item in err
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "first-zero", "--chi0", "2", "--chi1", "-2",
                           "--tol", "1e-12")
    assert code == 2
    assert "invalid-input" in err


def test_first_zero_unconverged_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.dde, "STEP_MIN", 1e-3)
    code, out, err = run_cli(capsys, "first-zero", "--chi0", "2", "--chi1", "-2",
                             "--tol", "1e-9", "--initial-step", "1e-3")
    assert code == 1 and out == ""
    assert err.startswith("error: NotConvergedError: first zero not within tol")


def test_help_exists_for_every_subcommand(capsys):
    for sub in ("solve-dde", "first-zero", "sieve-verify", "density-report",
                "bound", "identity-check", "fetch"):
        code = cli.main([sub, "--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "--out" in out


def test_density_scan_output_independent_of_cpu_count(tmp_path, capsys,
                                                      monkeypatch):
    outs = []
    for cpus in (1, 64):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run_cli(capsys, "density-report", "--scan-labels",
                               "fixture-mixed-1,fixture-mixed-2",
                               "--cache-dir", str(tmp_path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_seed_only_on_seeded_subcommands(capsys):
    for sub, seeded in (("sieve-verify", True), ("identity-check", True),
                        ("density-report", False), ("fetch", False)):
        cli.main([sub, "--help"])
        assert ("--seed" in capsys.readouterr().out) == seeded


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "zero.json"
    code, out, _ = run_cli(capsys, "first-zero", "--chi0", "1", "--chi1", "-3",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert abs(doc["first_zero"] - 1.2840254) < 1e-5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_resource_limit_exit_code(capsys):
    # t = 10000^2.1 = 2.5*10^8 is past the hard cap, with or without --limit
    code, out, err = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                             "--y", "10000", "--u-grid", "2.1")
    assert code == 4 and out == ""
    assert err.startswith("error: resource-limit: ") and "hard cap" in err
    # 10^400 overflows float64: refused as 10^100 is, with one line and no
    # OverflowError traceback
    for u_grid, t in (("100", "1e+100"), ("400", "inf"), ("1,400", "inf")):
        argv = ["sieve-verify", "--report", "asymptotic", "--y", "10", "--u-grid", u_grid]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == f"error: resource-limit: t = {t} exceeds the hard cap 200000000\n"
        code, out, err = run_cli(capsys, *argv, "--limit", "1000")
        assert (code, out) == (2, "") and err.count("\n") == 1
        top = "inf" if t == "inf" else f"{10.0 ** 100:.0f}"
        assert err == f"error: invalid-input: y^max(u) = {top} exceeds the limit 1000\n"


def test_asymptotic_negative_u_names_u_and_grid(capsys):
    code, out, err = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                             "--y", "100", "--u-grid=-0.5,1.0", "--limit", "100000")
    assert code == 2 and out == ""
    assert err == ("error: invalid-input: u must be >= 0, got u = -0.5 "
                   "in the grid [-0.5, 1.0]\n")


def test_asymptotic_q_below_one_names_q(capsys):
    code, out, err = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                             "--limit", "1000", "--y", "10", "--u-grid", "0.5,1.0",
                             "--q", "0")
    assert code == 2 and out == ""
    assert err == "error: invalid-input: q must be >= 1, got 0\n"


def test_bound_bad_list_item_exit_code(capsys):
    for argv, option, item in (
            (["--levels", "5,x", "--spectral", "1,2"], "--levels", "'x'"),
            (["--levels", "5,7", "--spectral", "1,2y"], "--spectral", "'2y'"),
            (["--levels", "5,7,9", "--spectral", "1,2"], "3 levels",
             "2 spectral parameters"),
            # the base 5 (1 + 1e308) 7 (1 + 1e308) printed as Infinity
            (["--levels", "5,7", "--spectral", "1e308,1e308"],
             "base prod N_i (1 + |t_i|) overflows float64", "[5, 7]")):
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: invalid-input: ")
        assert option in err and item in err


@pytest.mark.parametrize("spectral", ["nan,1", "inf,1", "1,-inf"])
def test_bound_non_finite_spectral_exit_code(capsys, spectral):
    code, out, err = run_cli(capsys, "bound", "--levels", "5,7",
                             "--spectral", spectral)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid-input: spectral_parameter must be finite")


def test_asymptotic_bad_u_grid_item_exit_code(capsys):
    code, out, err = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                             "--u-grid", "0.5,x", "--limit", "1000")
    assert code == 2 and out == ""
    assert err == ("error: invalid-input: --u-grid takes comma-separated "
                   "numbers, got 'x'\n")


def test_asymptotic_huge_q_exit_code(capsys):
    # the prime 10^18 + 3 needs trial divisors far past sieve.TRIAL_LIMIT
    code, out, err = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                             "--limit", "1000", "--y", "10", "--u-grid", "0.5,1.0",
                             "--q", "1000000000000000003")
    assert code == 4 and out == ""
    assert err.startswith("error: resource-limit:")
    assert "1000000000000000003" in err


# sha256 of the same report with `--q 30`
ASYMPTOTIC_Q30_SHA256 = "61d0300d7c291faa69ab6370d33e7be4a577461bbaac1b2ef0fddb33693897fc"


def test_asymptotic_q30_bytes_pinned(capsys):
    code, out, _ = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                           "--limit", "1000", "--y", "10", "--u-grid", "0.5,1.0",
                           "--q", "30")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ASYMPTOTIC_Q30_SHA256


def test_prime_sieve_past_cap_exit_code(tmp_path, capsys, monkeypatch, no_huge_ones):
    code, _, err = run_cli(capsys, "density-report", "--scan-labels",
                           "fixture-mixed-1,fixture-mixed-2", "--x", str(10 ** 12),
                           "--cache-dir", str(tmp_path))
    assert code == 4 and "resource-limit" in err
    # one entry at a huge p would size validate's reference sieve at p + 1 bytes
    far = ingest.CoeffRecord(label="far", level=1, spectral_parameter=1.0,
                             ps=[2, 10 ** 12 + 39], lams=[0.1, 0.2],
                             fetched_at="x", source="remote")
    monkeypatch.setattr(ingest, "_fetch_remote", lambda *_: far)
    code, out, err = run_cli(capsys, "fetch", "--label", "far", "--cache-dir",
                             str(tmp_path), "--endpoint", "http://127.0.0.1:1/")
    assert code == 4 and out == "" and "resource-limit" in err


def _solve_dde_full_walk(args):
    """solve-dde as it walked every node of the grid, kept as the oracle."""
    sol = dde.solve(dde.DdeSpec(args.chi0, args.chi1), args.u_max, args.step)
    rows = []
    for i, (u, sig) in enumerate(grid_nodes(sol)):
        if i % args.stride == 0 and u <= args.u_max + 1e-12:
            rows.append((u, sig))
    cli._emit_grid(["u", "sigma"], rows, args)
    return cli.EXIT_OK


@pytest.mark.parametrize("argv", [
    ["--chi0", "2", "--chi1", "-2", "--step", "1e-5", "--u-max", "3",
     "--stride", "100"],
    ["--chi0", "1", "--chi1", "-3", "--u-max", "3", "--step", "1e-4",
     "--stride", "100"],
    ["--chi0", "2", "--chi1", "-2", "--u-max", "2.5", "--step", "1e-3",
     "--stride", "7"],
    ["--chi0", "1.5", "--chi1", "-2.5", "--u-max", "1.37", "--step", "3e-3",
     "--stride", "1"],
    ["--chi0", "3", "--chi1", "-1", "--u-max", "4.2", "--step", "1e-2",
     "--stride", "100000"],
    ["--chi0", "2", "--chi1", "-2", "--u-max", "1", "--step", "1e-2",
     "--stride", "25"],
])
def test_solve_dde_bytes_match_full_walk(capsys, monkeypatch, argv):
    code, out, _ = run_cli(capsys, "solve-dde", *argv)
    assert code == 0
    monkeypatch.setattr(cli, "_cmd_solve_dde", _solve_dde_full_walk)
    assert run_cli(capsys, "solve-dde", *argv) == (0, out, "")


def test_solve_dde_reads_only_emitted_nodes(capsys, monkeypatch):
    read = []
    node = dde.PiecewiseSolution._node
    monkeypatch.setattr(dde.PiecewiseSolution, "_node",
                        lambda sol, i: read.append(i) or node(sol, i))
    code, out, _ = run_cli(capsys, "solve-dde", "--chi0", "2", "--chi1", "-2",
                           "--step", "1e-5", "--u-max", "3", "--stride", "100")
    assert code == 0 and len(out.splitlines()) == 2 + 3001
    assert read == list(range(0, 300001, 100))


@pytest.mark.parametrize("argv,name", [
    (["first-zero", "--chi0", "2", "--chi1", "-2", "--initial-step", "inf"],
     "initial_step"),
    (["first-zero", "--chi0", "2", "--chi1", "-2", "--initial-step", "nan"],
     "initial_step"),
    (["first-zero", "--chi0", "2", "--chi1", "-2", "--tol", "nan"], "tol"),
    (["first-zero", "--chi0", "inf", "--chi1", "-2"], "weights"),
    (["solve-dde", "--chi0", "2", "--chi1", "-2", "--u-max", "inf"], "u_max"),
    (["solve-dde", "--chi0", "2", "--chi1", "-2", "--u-max", "nan"], "u_max"),
    (["solve-dde", "--chi0", "2", "--chi1", "-2", "--stride", "0"], "--stride"),
    (["solve-dde", "--chi0", "2", "--chi1", "-2", "--stride", "-3"], "--stride"),
    # u^(e0 + 1) overflows on the grid: an OverflowError traceback, or inf rows
    (["first-zero", "--chi0", "1e300", "--chi1", "-1"], "u^(e0 + 1) overflows float64"),
    (["first-zero", "--chi0", "700", "--chi1", "-1"], "u^(e0 + 1) overflows float64"),
    (["solve-dde", "--chi0", "1e300", "--chi1", "-1", "--u-max", "2", "--step", "1e-2"],
     "u^(e0 + 1) overflows float64"),
    # sigma past DBL_MAX on [2, 3]: the refusal, and no overflow warning
    (["solve-dde", "--chi0", "2", "--chi1=-1e300", "--u-max", "3"],
     "sigma leaves float64 on [2, 3]"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dde_bad_arguments_exit_code(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid-input: ") and name in err
    assert err.count("\n") == 1


def test_dde_grid_past_cap_exit_code(capsys, no_dde_grid):
    code, out, err = run_cli(capsys, "solve-dde", "--chi0", "2", "--chi1", "-2",
                             "--u-max", "1e5", "--step", "1e-7")
    assert code == 4 and out == ""
    assert err.startswith("error: resource-limit: ")
    assert "1000000100000 nodes" in err and "cap 200000000" in err


@pytest.mark.parametrize("case", ["cache-file-is-a-directory", "out-dir-missing",
                                  "cache-dir-is-a-file"])
def test_os_error_is_one_io_line(tmp_path, capsys, monkeypatch, case):
    monkeypatch.delenv("MAASSLAB_ENDPOINT", raising=False)
    argv = ["fetch", "--label", "x", "--coverage", "100", "--cache-dir", str(tmp_path)]
    if case == "cache-file-is-a-directory":
        (tmp_path / "x.json").mkdir()
    elif case == "out-dir-missing":
        argv[2] = "fixture-tempered-1"
        argv += ["--out", str(tmp_path / "missing" / "out.json")]
    else:
        (tmp_path / "file").write_text("")
        argv[-1] = str(tmp_path / "file")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: io: ") and err.count("\n") == 1


@pytest.mark.parametrize("limit", ["10", "199", "100000"])
def test_sieve_verify_checks_rejects_limit(capsys, limit):
    # --limit bounds only the asymptotic report; checks mode sizes its own
    # table, so a --limit there is never silently ignored
    code, out, err = run_cli(capsys, "sieve-verify", "--limit", limit)
    assert code == 2 and out == ""
    assert err == ("error: invalid-input: --limit bounds y^max(u) of the "
                   "asymptotic report; checks mode takes none\n")


def test_sieve_verify_checks_builds_one_table_of_what_it_reads(capsys, monkeypatch):
    # the x draw ends below cli.CHECKS_X_END = 5000 and the Moebius round
    # trip reads n < 200: one table up to 4999, not one of 10^5
    limits = []
    real_build = sieve.build_table

    def build_spy(limit):
        limits.append(limit)
        return real_build(limit)

    monkeypatch.setattr(sieve, "build_table", build_spy)
    code, out, _ = run_cli(capsys, "sieve-verify")
    assert code == 0 and json.loads(out)["all_passed"]
    assert limits == [4999]


# the checks payload with its config popped, at every seed below
CHECKS_PAYLOAD = (
    '{"all_passed": true, "checks": [{"name": "h_sum_y10_q1", "passed": true}, '
    '{"name": "h_sum_y10_q6", "passed": true}, '
    '{"name": "log_weighted_brute_force", "passed": true}, '
    '{"name": "moebius_roundtrip", "passed": true}, '
    '{"name": "local_factor_x1_cancellation", "passed": true}]}')
# sha256 of repr([(y, chi0, chi1, x), ...]) over the 100 specs and points
# the brute-force check draws, as drawn when the table held 10^5 entries
CHECKS_DRAWS_SHA256 = {
    "1729": "fef925e751eca1338abfb46dbe2ab3dc379baf7e3d4fdc84215dde158faf7e4e",
    "7": "29e3c493cc0c0c6a8bf78ef29458fe2048f5d6d951a3fe4037384b81d80050d8",
}


@pytest.mark.parametrize("seed", sorted(CHECKS_DRAWS_SHA256))
def test_sieve_verify_checks_payload_and_draws_pinned(capsys, monkeypatch, seed):
    draws = []
    real_lws = sieve.log_weighted_sum

    def lws_spy(spec, x, q, table):
        draws.append((spec.y, spec.chi0, spec.chi1, x))
        return real_lws(spec, x, q, table)

    monkeypatch.setattr(sieve, "log_weighted_sum", lws_spy)
    code, out, _ = run_cli(capsys, "sieve-verify", "--seed", seed)
    assert code == 0
    doc = json.loads(out)
    config = doc.pop("config")
    assert config == {"chi0": 2.0, "chi1": -2.0, "command": "sieve-verify",
                      "limit": None, "out": None, "q": 1,
                      "report": "checks", "seed": int(seed),
                      "u_grid": "0.5,1.0,1.5", "y": 1000}
    assert json.dumps(doc, sort_keys=True) == CHECKS_PAYLOAD
    assert len(draws) == 100
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == CHECKS_DRAWS_SHA256[seed]


def test_asymptotic_report_sieves_nothing_up_to_t(capsys, monkeypatch):
    # --limit 10^7 bounds t = 10^(4 * 1.75) and builds no table; the sieve
    # runs only to sqrt(t), besides the one of euler_constant_c, which
    # sieves to its truncation 10^6 whatever t is
    calls, in_c = [], []
    real_primes, real_c = sieve.primes_upto, sieve.euler_constant_c

    def primes_spy(n):
        calls.append((n, bool(in_c)))
        return real_primes(n)

    def c_spy(*args):
        in_c.append(True)
        try:
            return real_c(*args)
        finally:
            in_c.pop()

    def no_table(*args, **kwargs):
        raise AssertionError("build_table called")

    monkeypatch.setattr(sieve, "primes_upto", primes_spy)
    monkeypatch.setattr(sieve, "euler_constant_c", c_spy)
    monkeypatch.setattr(sieve, "build_table", no_table)
    code, out, _ = run_cli(capsys, "sieve-verify", "--report", "asymptotic",
                           "--limit", "10000000", "--y", "10000",
                           "--u-grid", "0.5,1.0,1.5,1.75", "--q", "30")
    assert code == 0 and len(out.splitlines()) == 6
    t_max = int(10000 ** 1.75)
    assert t_max > 9.9 * 10 ** 6
    outside = [n for n, c in calls if not c]
    assert outside and max(outside) <= math.isqrt(t_max), outside
    assert [n for n, c in calls if c] == [10 ** 6]


@pytest.mark.parametrize("argv, message", [
    (["identity-check", "--samples", "10", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["sieve-verify", "--seed", "-5"], "--seed must be >= 0, got -5"),
])
def test_negative_seed_is_invalid_input(capsys, argv, message):
    # numpy's default_rng refused it with a bare ValueError traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: invalid-input: {message}\n"

