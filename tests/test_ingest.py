import dataclasses
import hashlib
import http.server
import json
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maasslab import density, ingest
from maasslab.bounds import FormMeta
from maasslab.errors import (CacheParseError, InvalidInputError,
                             RemoteUnavailableError)
from maasslab.ingest import FIXTURE_MANIFEST, CoeffRecord


def test_tempered_fixture_all_within_bound(tmp_path):
    rec = ingest.fetch("fixture-tempered-1", coverage=10 ** 4, cache_dir=tmp_path)
    assert rec.source == "fixture"
    assert np.all(np.abs(rec.lams) <= 2.0)


def test_mixed_fixture_matches_manifest(tmp_path):
    rec = ingest.fetch("fixture-mixed-1", cache_dir=tmp_path)
    big = rec.ps[np.abs(rec.lams) > 2.0].tolist()
    assert big == sorted(FIXTURE_MANIFEST["fixture-mixed-1"]["nontempered"])
    assert len(big) == 3


def test_fixture_respects_envelope(tmp_path):
    for label in FIXTURE_MANIFEST:
        rec = ingest.fetch(label, cache_dir=tmp_path)
        findings = ingest.validate(rec)
        assert not [f for f in findings if f.severity == "error"]


def test_fixture_omits_ramified_primes(tmp_path):
    rec = ingest.fetch("fixture-mixed-1", cache_dir=tmp_path)  # level 6
    ps = set(rec.ps.tolist())
    assert 2 not in ps and 3 not in ps and 5 in ps


def test_cache_roundtrip_identical(tmp_path):
    rec = ingest.generate_fixture("fixture-tempered-2")
    path = ingest.write_cache(rec, tmp_path)
    first = path.read_bytes()
    again = ingest.read_cache("fixture-tempered-2", tmp_path)
    assert again == rec
    ingest.write_cache(again, tmp_path)
    assert path.read_bytes() == first


def test_cache_write_is_atomic(tmp_path):
    rec = ingest.generate_fixture("fixture-tempered-1")
    ingest.write_cache(rec, tmp_path)
    assert [p.suffix for p in tmp_path.iterdir()] == [".json"]


def test_repeated_fetch_without_network(tmp_path):
    a = ingest.fetch("fixture-mixed-2", cache_dir=tmp_path)
    b = ingest.fetch("fixture-mixed-2", cache_dir=tmp_path)
    assert a == b
    assert b.source == "fixture"


def test_unknown_label_without_endpoint(tmp_path, monkeypatch):
    monkeypatch.delenv(ingest.ENDPOINT_ENV, raising=False)
    with pytest.raises(RemoteUnavailableError):
        ingest.fetch("no-such-label", cache_dir=tmp_path)


def test_unknown_label_falls_back_to_cache(tmp_path, monkeypatch):
    monkeypatch.delenv(ingest.ENDPOINT_ENV, raising=False)
    rec = ingest.generate_fixture("fixture-tempered-1")
    cached = dataclasses.replace(rec, label="remote-form-7", source="remote")
    ingest.write_cache(cached, tmp_path)
    got = ingest.fetch("remote-form-7", cache_dir=tmp_path)
    assert got == cached


def test_validate_flags_envelope_violation():
    rec = CoeffRecord(label="bad", level=1, spectral_parameter=1.0,
                      ps=[2, 3, 5], lams=[2.1, 0.5, 1.0],
                      fetched_at="x", source="fixture")
    findings = ingest.validate(rec)
    errors = [f for f in findings if f.severity == "error"]
    assert len(errors) == 1 and errors[0].p == 2 and errors[0].kind == "envelope"


def test_validate_flags_coverage_gap():
    rec = CoeffRecord(label="gappy", level=1, spectral_parameter=1.0,
                      ps=[2, 5, 7], lams=[0.1, 0.2, 0.3],
                      fetched_at="x", source="fixture")
    findings = ingest.validate(rec)
    gaps = [f for f in findings if f.kind == "gap"]
    assert [f.p for f in gaps] == [3]


def test_validate_flags_ramified_entries():
    # 1 divides every level but is no prime: an error, not a ramified entry
    rec = CoeffRecord(label="ram", level=10, spectral_parameter=1.0,
                      ps=[1, 2, 3, 11], lams=[0.5, 0.5, 2.2, 0.1],
                      fetched_at="x", source="fixture")
    findings = ingest.validate(rec)
    assert [(f.kind, f.p) for f in findings] == [
        ("not-prime", 1), ("ramified", 2), ("envelope", 3), ("gap", 7)]
    assert findings[0].severity == "error"


def _document(coefficients):
    doc = ingest.generate_fixture("fixture-tempered-1", 10).to_json_dict()
    return {**doc, "coefficients": coefficients}


def test_json_booleans_rejected():
    # JSON true/false load as Python bools, which are ints
    for doc, field in ((_document([[True, 0.5], [4, 0.1], [5, 0.2]]), "coefficients"),
                       (_document([[2, True], [3, 0.1]]), "coefficients"),
                       ({**_document([[2, 0.5]]), "level": True}, "level")):
        with pytest.raises(CacheParseError) as exc:
            ingest._record_from_json_dict(doc)
        assert exc.value.field == field


def test_validate_reports_non_prime_entries():
    rec = ingest._record_from_json_dict(_document([[4, 0.1], [5, 0.2]]))
    assert rec.level == 5
    findings = ingest.validate(rec)
    assert [(f.severity, f.kind, f.p) for f in findings] == [
        ("error", "not-prime", 4), ("info", "ramified", 5),
        ("warning", "gap", 2), ("warning", "gap", 3)]


def test_schema_mismatch_reports_field(tmp_path):
    rec = ingest.generate_fixture("fixture-tempered-1")
    path = ingest.write_cache(rec, tmp_path)
    doc = json.loads(path.read_text())
    doc["level"] = "five"
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheParseError) as exc:
        ingest.read_cache("fixture-tempered-1", tmp_path)
    assert exc.value.field == "level"


def test_schema_rejects_unordered_primes(tmp_path):
    rec = ingest.generate_fixture("fixture-tempered-1")
    path = ingest.write_cache(rec, tmp_path)
    doc = json.loads(path.read_text())
    doc["coefficients"] = [[5, 0.1], [3, 0.2]]
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheParseError):
        ingest.read_cache("fixture-tempered-1", tmp_path)


def test_scan_identical_from_fixture_and_cached_paths(tmp_path, monkeypatch):
    monkeypatch.delenv(ingest.ENDPOINT_ENV, raising=False)
    recs = [ingest.fetch(lab, cache_dir=tmp_path)
            for lab in ("fixture-mixed-1", "fixture-mixed-2")]
    fam_direct = density.FormFamily([r.to_form_meta() for r in recs])
    rep_direct = density.exceptional_scan(fam_direct, 10 ** 4)

    relabeled = [dataclasses.replace(r, label=f"was-remote-{i}", source="remote")
                 for i, r in enumerate(recs)]
    for r in relabeled:
        ingest.write_cache(r, tmp_path)
    cached = [ingest.fetch(f"was-remote-{i}", cache_dir=tmp_path)
              for i in range(2)]
    fam_cached = density.FormFamily([r.to_form_meta() for r in cached])
    rep_cached = density.exceptional_scan(fam_cached, 10 ** 4)

    assert rep_direct.exceptional_primes == rep_cached.exceptional_primes
    assert rep_direct.running_mean_U == rep_cached.running_mean_U


def test_fixture_generation_deterministic():
    a = ingest.generate_fixture("fixture-mixed-1")
    b = ingest.generate_fixture("fixture-mixed-1")
    assert a == b


def test_fetch_rejects_bad_coverage(tmp_path):
    with pytest.raises(InvalidInputError):
        ingest.fetch("fixture-tempered-1", coverage=1, cache_dir=tmp_path)


def test_record_to_form_meta(tmp_path):
    rec = ingest.fetch("fixture-mixed-1", cache_dir=tmp_path)
    meta = rec.to_form_meta()
    assert meta.level == 6
    assert meta.ps is rec.ps and meta.lams is rec.lams
    assert meta.lams[np.searchsorted(meta.ps, 11)] > 2.0


@pytest.mark.parametrize("make", [
    lambda ps, lams: CoeffRecord(label="x", level=1, spectral_parameter=1.0,
                                 ps=ps, lams=lams, fetched_at="x",
                                 source="fixture"),
    lambda ps, lams: FormMeta(1, 1.0, ps=ps, lams=lams),
])
def test_coefficient_arrays_checked_and_read_only(make):
    for ps, lams in (([2, 5, 3], [0.1, 0.2, 0.3]), ([2, 3, 3], [0.1, 0.2, 0.3]),
                     ([2, 3], [0.1, 0.2, 0.3]), ([[2, 3]], [[0.1, 0.2]])):
        with pytest.raises(InvalidInputError):
            make(ps, lams)
    ps = np.array([2, 3, 5])
    obj = make(ps, [0.1, 0.2, 0.3])
    assert obj.ps.dtype == np.int64 and obj.lams.dtype == np.float64
    with pytest.raises(ValueError):
        obj.ps[0] = 7
    with pytest.raises(ValueError):
        obj.lams[0] = 7.0
    ps[0] = 7                       # the caller's array is copied, not frozen
    assert obj.ps[0] == 2
    assert obj == make([2, 3, 5], [0.1, 0.2, 0.3])
    assert obj != make([2, 3, 5], [0.1, 0.2, 0.4])


# sha256 of the cache files written for each fixture at coverage 10^4
FIXTURE_CACHE_SHA256 = {
    "fixture-tempered-1": "f4e9570899e4e8ad2da72b719464004843823382ebd26d6c24b92b23059b331c",
    "fixture-tempered-2": "3627423dc43438b420b7d6b5b35ccfa2ce96ed1e6bf940cf89f67d5684a12a9d",
    "fixture-mixed-1": "df67aeb88ce455b7e3566ff9ab2a8abe789f110f3a916bbab97e8bd9fdae23c9",
    "fixture-mixed-2": "303ac94867441f08e9634976d03678d0b4cc37a6e9cd09cf2292ae43583bba53",
}


def test_fixture_cache_bytes_pinned(tmp_path):
    for label, digest in FIXTURE_CACHE_SHA256.items():
        path = ingest.write_cache(ingest.generate_fixture(label, 10 ** 4), tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, label


def _cache_remote_copy(tmp_path):
    rec = dataclasses.replace(ingest.generate_fixture("fixture-tempered-1"),
                              label="remote-form-9", source="remote")
    ingest.write_cache(rec, tmp_path)
    return rec


def test_fetch_network_error_falls_back_to_cache(tmp_path, monkeypatch):
    rec = _cache_remote_copy(tmp_path)

    def unreachable(*_):
        raise OSError("connection refused")
    monkeypatch.setattr(ingest, "_fetch_remote", unreachable)
    got = ingest.fetch("remote-form-9", cache_dir=tmp_path,
                       endpoint="http://127.0.0.1:1/coeffs")
    assert got == rec


def test_fetch_malformed_remote_document_propagates(tmp_path, monkeypatch):
    _cache_remote_copy(tmp_path)

    def malformed(*_):
        raise CacheParseError("missing field 'level'", field="level")
    monkeypatch.setattr(ingest, "_fetch_remote", malformed)
    with pytest.raises(CacheParseError):
        ingest.fetch("remote-form-9", cache_dir=tmp_path,
                     endpoint="http://127.0.0.1:1/coeffs")


@pytest.fixture
def local_endpoint():
    """A localhost HTTP server answering every GET with the body in
    `bodies[0]`; yields (url, bodies, seen_paths)."""
    bodies, seen = [b""], []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            seen.append(self.path)
            self.send_response(200)
            self.send_header("Content-Length", str(len(bodies[0])))
            self.end_headers()
            self.wfile.write(bodies[0])

        def log_message(self, *_):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/coeffs", bodies, seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_fetch_remote_over_http(tmp_path, local_endpoint):
    url, bodies, seen = local_endpoint
    doc = ingest.generate_fixture("fixture-mixed-2", 1000).to_json_dict()
    doc.update(label="remote-form-3", source="remote")
    bodies[0] = json.dumps(doc).encode()
    rec = ingest.fetch("remote-form-3", coverage=1000, cache_dir=tmp_path,
                       endpoint=url)
    assert seen == ["/coeffs?label=remote-form-3&coverage=1000"]
    assert rec.source == "remote" and rec.to_json_dict() == doc
    assert ingest.read_cache("remote-form-3", tmp_path) == rec

    bodies[0] = b"{not json"
    with pytest.raises(CacheParseError):
        ingest.fetch("remote-form-3", coverage=1000, cache_dir=tmp_path,
                     endpoint=url)


_SENTINEL = ingest._PAIRS_SENTINEL
_numbers = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                     2 ** 63, 2 ** 64 + 1]))
_labels = st.one_of(
    st.text(),
    st.sampled_from([_SENTINEL, f'"{_SENTINEL}"', 'a"b\\c\\"',
                     "\u00e9\u2713\U0001f600"]),
    st.builds(lambda a, b: a + _SENTINEL + b, st.text(), st.text()))


# lists that are not all number pairs take the plain json.dumps route
_other_lists = st.one_of(
    st.lists(st.lists(st.one_of(_numbers, st.text(max_size=3),
                                st.sampled_from([",", "],[", None, True, {}])),
                      min_size=1, max_size=3), min_size=1, max_size=5),
    st.lists(st.one_of(_numbers, st.lists(
        st.one_of(_numbers, st.lists(_numbers, max_size=2)), max_size=3)),
        max_size=5))


@given(pairs=st.one_of(st.lists(st.lists(_numbers, min_size=2, max_size=2),
                                max_size=30), _other_lists),
       label=_labels, level=st.integers(1, 10 ** 6))
def test_json_text_matches_indented_json_dumps(pairs, label, level):
    doc = {"schema": 1, "label": label, "level": level, "spectral_parameter": 1.5,
           "coefficients": pairs, "fetched_at": label, "source": "remote"}
    assert ingest.json_text(doc, ("coefficients",)) == json.dumps(
        doc, sort_keys=True, indent=2)
    payload = {"config": {"label": label, "cache_dir": None},
               "findings": [{"message": label, "p": None}], "record": doc}
    assert ingest.json_text(payload, ("record", "coefficients")) == json.dumps(
        payload, sort_keys=True, indent=2)
