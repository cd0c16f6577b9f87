import builtins
import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


def test_indented_cache_file_still_reads(tmp_path):
    # the indented bytes earlier versions wrote load into the same record
    rec = ingest.generate_fixture("fixture-mixed-2", 1000)
    (tmp_path / "fixture-mixed-2.json").write_text(
        json.dumps(rec.to_json_dict(), sort_keys=True, indent=2))
    assert ingest.read_cache("fixture-mixed-2", tmp_path) == rec


def test_distinct_labels_get_distinct_cache_files(tmp_path):
    base = ingest.generate_fixture("fixture-tempered-1", 100)
    recs = [dataclasses.replace(base, label=label, level=level, source="remote")
            for label, level in (("a/b", 7), ("a_b", 11), ("a%2Fb", 13),
                                 ("a~b", 17))]
    paths = [ingest.write_cache(rec, tmp_path) for rec in recs]
    assert len(set(paths)) == 4 and all(p.parent == tmp_path for p in paths)
    for rec in recs:
        assert ingest.read_cache(rec.label, tmp_path) == rec
    # labels of letters, digits and ._- keep their plain file names
    for label in FIXTURE_MANIFEST:
        assert ingest._cache_path(label, tmp_path).name == f"{label}.json"


def test_cache_file_of_another_label_rejected(tmp_path):
    path = ingest.write_cache(ingest.generate_fixture("fixture-tempered-1", 100),
                              tmp_path)
    path.rename(tmp_path / "other.json")
    with pytest.raises(CacheParseError) as exc:
        ingest.read_cache("other", tmp_path)
    assert exc.value.field == "label"


def test_cache_write_is_atomic(tmp_path):
    rec = ingest.generate_fixture("fixture-tempered-1")
    ingest.write_cache(rec, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert not [n for n in names if n.endswith(".tmp")]
    assert names == ["fixture-tempered-1.json", "fixture-tempered-1.npz"]


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
    assert got == dataclasses.replace(cached, source="cache-fallback")


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


def test_validate_flags_non_finite_values():
    rec = ingest.generate_fixture("fixture-tempered-1", 1000)     # level 5
    lams = rec.lams.copy()
    lams[[3, 5, 7]] = np.nan, np.inf, -np.inf
    findings = ingest.validate(dataclasses.replace(rec, lams=lams))
    assert [(f.severity, f.kind, f.p) for f in findings] == [
        ("error", "non-finite", 11), ("error", "non-finite", 17),
        ("error", "non-finite", 23)]
    assert "a_p = inf at p = 17" in findings[1].message
    # a non-prime entry stays not-prime; a ramified one is still an error
    rec = CoeffRecord(label="nf", level=10, spectral_parameter=1.0,
                      ps=[1, 2, 3], lams=[np.nan, np.nan, 0.5],
                      fetched_at="x", source="fixture")
    assert [(f.severity, f.kind, f.p) for f in ingest.validate(rec)] == [
        ("error", "not-prime", 1), ("error", "non-finite", 2)]


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


def test_json_values_rejected_with_their_field():
    # each raised InvalidInputError from the record checks at the parent,
    # or (level 0) surfaced only later in to_form_meta
    base = _document([[2, 0.5], [3, 0.1]])
    for doc, field in (({**base, "level": 0}, "level"),
                       ({**base, "level": -3}, "level"),
                       (_document([[2, 0.5], [2 ** 63, 0.1]]), "coefficients"),
                       (_document([[3, 0.5], [3, 0.1]]), "coefficients"),
                       ({**base, "spectral_parameter": float("nan")},
                        "spectral_parameter"),
                       ({**base, "spectral_parameter": 10 ** 400},
                        "spectral_parameter")):
        with pytest.raises(CacheParseError) as exc:
            ingest._record_from_json_dict(doc)
        assert exc.value.field == field


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_record_rejects_non_finite_spectral_parameter(t):
    with pytest.raises(InvalidInputError, match="spectral_parameter must be finite"):
        CoeffRecord(label="x", level=5, spectral_parameter=t, ps=[2], lams=[0.1],
                    fetched_at="x", source="fixture")


def test_record_rejects_bad_level():
    for level in (0, -3, 2 ** 63):
        with pytest.raises(InvalidInputError, match="level must lie"):
            CoeffRecord(label="x", level=level, spectral_parameter=1.0, ps=[2],
                        lams=[0.1], fetched_at="x", source="fixture")


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


# sha256 of the cache files (compact JSON) written for each fixture at
# coverage 10^4
FIXTURE_CACHE_SHA256 = {
    "fixture-tempered-1": "7635f08bbe24abbc81872927e62b084074b518539f74350cbd3572dbb67e3a0c",
    "fixture-tempered-2": "7e08e83002488d3e84f6ff88f05a16e726007db9053a6031f1b62d29715aa249",
    "fixture-mixed-1": "4a6141956ca6df2893566b0437019e279b730889184e15f975b072408378258f",
    "fixture-mixed-2": "b2c20933030aa7f2f04a4602baca700f57f1fda7baaf160ecabdd7fb0b7b51d4",
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
    assert got == dataclasses.replace(rec, source="cache-fallback")


def test_fetch_malformed_remote_document_propagates(tmp_path, monkeypatch):
    _cache_remote_copy(tmp_path)

    def malformed(*_):
        raise CacheParseError("missing field 'level'", field="level")
    monkeypatch.setattr(ingest, "_fetch_remote", malformed)
    with pytest.raises(CacheParseError):
        ingest.fetch("remote-form-9", cache_dir=tmp_path,
                     endpoint="http://127.0.0.1:1/coeffs")


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


def test_fetch_remote_label_mismatch_not_cached(tmp_path, local_endpoint):
    url, bodies, _ = local_endpoint
    doc = ingest.generate_fixture("fixture-mixed-2", 1000).to_json_dict()
    doc.update(label="other-form", source="remote")
    bodies[0] = json.dumps(doc).encode()
    with pytest.raises(CacheParseError, match="other-form") as exc:
        ingest.fetch("asked-form", coverage=1000, cache_dir=tmp_path, endpoint=url)
    assert exc.value.field == "label"
    assert list(tmp_path.iterdir()) == []


def test_non_utf8_cache_file_is_parse_error(tmp_path):
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
    with pytest.raises(CacheParseError, match="not valid JSON"):
        ingest.read_cache("bad", tmp_path)


def _spy_on(monkeypatch, name):
    """Calls of ingest.<name>, which still runs."""
    real, calls = getattr(ingest, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(ingest, name, spy)
    return calls


def test_second_fixture_fetch_writes_nothing(tmp_path, monkeypatch):
    writes = _spy_on(monkeypatch, "_write_cache")
    first = ingest.fetch("fixture-mixed-1", cache_dir=tmp_path)
    path = tmp_path / "fixture-mixed-1.json"
    pinned = path.read_bytes()
    assert len(writes) == 1
    for _ in range(2):      # both read the index write_cache wrote
        assert ingest.fetch("fixture-mixed-1", cache_dir=tmp_path) == first
    assert len(writes) == 1 and path.read_bytes() == pinned
    assert (tmp_path / "fixture-mixed-1.npz").exists()


def _fixture_json(label="fixture-mixed-1", coverage=ingest.DEFAULT_COVERAGE):
    rec = dataclasses.replace(ingest.generate_fixture("fixture-mixed-1", coverage),
                              label=label)
    return json.dumps(rec.to_json_dict()).encode()


@pytest.mark.parametrize("content", [
    b"{not json", b"\xff\xfe{", _fixture_json(label="other"),
    _fixture_json(coverage=1000),
], ids=["corrupt", "non-utf8", "foreign-label", "other-coverage"])
def test_fixture_fetch_overwrites_bad_cache_file(tmp_path, content):
    path = tmp_path / "fixture-mixed-1.json"
    path.write_bytes(content)
    with contextlib.suppress(CacheParseError):   # index the file if it reads
        ingest.read_cache("fixture-mixed-1", tmp_path)
    rec = ingest.fetch("fixture-mixed-1", cache_dir=tmp_path)
    assert path.read_bytes() == ingest.write_cache(rec, tmp_path / "ref").read_bytes()
    assert ingest.read_cache("fixture-mixed-1", tmp_path) == rec


def _read_twice(label, cache_dir, monkeypatch):
    """read_cache by the JSON route, which writes the index, then by the
    index route, which writes nothing."""
    with monkeypatch.context() as patch:
        index_writes = _spy_on(patch, "_write_index")
        by_json = ingest.read_cache(label, cache_dir)
        assert len(index_writes) == 1
        by_index = ingest.read_cache(label, cache_dir)
        assert len(index_writes) == 1
    return by_json, by_index


def _assert_identical(a, b):
    for name in ingest._INDEX_FIELDS:
        assert type(getattr(a, name)) is type(getattr(b, name))
    assert (a.label, a.level, a.fetched_at, a.source) == (
        b.label, b.level, b.fetched_at, b.source)
    assert (np.float64(a.spectral_parameter).view(np.int64)
            == np.float64(b.spectral_parameter).view(np.int64))
    for x, y in ((a.ps, b.ps), (a.lams, b.lams)):
        assert x.dtype == y.dtype and np.array_equal(x.view(np.int64),
                                                     y.view(np.int64))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(label=st.text(max_size=8), level=st.integers(1, 2 ** 63 - 1),
       spectral=st.one_of(_finite, st.integers(-10 ** 6, 10 ** 6)),
       ps=st.lists(st.integers(1, 2 ** 63 - 1), unique=True, max_size=20).map(sorted),
       values=st.lists(st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70),
                                 st.sampled_from([-0.0, 0.0])), min_size=20),
       indent=st.sampled_from([None, 2]), text=st.text(max_size=8))
def test_index_route_matches_json_route(tmp_path, monkeypatch, label, level, spectral,
                                        ps, values, indent, text):
    doc = {"schema": 1, "label": label, "level": level,
           "spectral_parameter": spectral,
           "coefficients": [[p, a] for p, a in zip(ps, values)],
           "fetched_at": text, "source": text[::-1]}
    with tempfile.TemporaryDirectory(dir=tmp_path) as cache_dir:
        path = ingest._cache_path(label, cache_dir)
        path.write_text(json.dumps(doc, indent=indent))
        want = ingest._record_from_json_dict(json.loads(path.read_text()))
        by_json, by_index = _read_twice(label, cache_dir, monkeypatch)
        assert path.with_name(path.name[:-len(".json")] + ".npz").exists()
    _assert_identical(by_json, want)
    _assert_identical(by_index, want)


def _seed_json(rec, cache_dir):
    """The record's cache file as write_cache writes it, but with no index."""
    path = ingest._cache_path(rec.label, cache_dir)
    path.write_text(json.dumps(rec.to_json_dict(), sort_keys=True))
    return path


def _indexed_fixture(tmp_path, monkeypatch):
    rec = ingest.generate_fixture("fixture-tempered-1", 1000)
    path = _seed_json(rec, tmp_path)
    assert _read_twice(rec.label, tmp_path, monkeypatch) == (rec, rec)
    return rec, path, path.with_suffix(".npz")


def test_same_length_json_edit_makes_index_stale(tmp_path, monkeypatch):
    rec, path, _ = _indexed_fixture(tmp_path, monkeypatch)
    text = path.read_text()
    assert '"level": 5,' in text
    path.write_text(text.replace('"level": 5,', '"level": 7,'))
    assert ingest.read_cache(rec.label, tmp_path) == dataclasses.replace(rec, level=7)


def _flip_byte(data, i):
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def _saved(save, *args, **kwargs):
    buf = io.BytesIO()
    save(buf, *args, **kwargs)
    return buf.getvalue()


def _index(digest, header, **arrays):
    # well formed but for what arrays overrides, so each case meets its own check
    arrays = {"ps": np.array([2, 3]), "lams": np.array([0.1, 0.2]),
              "span": np.zeros(0, np.int64), **arrays}
    return _saved(np.savez, json_sha256=digest, header=header, **arrays)


def _span(*bounds, dtype=np.int64):
    return lambda good, digest, header: _index(digest, header,
                                               span=np.array(bounds, dtype))


@pytest.mark.parametrize("corrupt", [
    lambda good, digest, header: b"garbage",
    lambda good, digest, header: b"",
    lambda good, digest, header: good[:len(good) // 2],
    lambda good, digest, header: good[:-1],
    lambda good, digest, header: _flip_byte(good, len(good) // 2),
    lambda good, digest, header: _index(digest, header,
                                        ps=np.array([2, 3], dtype=object)),
    lambda good, digest, header: _index(digest, header,
                                        ps=np.array([2, 3], dtype=np.int32)),
    lambda good, digest, header: _index(digest, header, ps=np.array([3, 2])),
    lambda good, digest, header: _index(digest, "[1, 2]"),
    lambda good, digest, header: _index(
        digest, header.replace('"level": 5', '"level": true')),
    lambda good, digest, header: _saved(np.savez, json_sha256=digest, header=header),
    lambda good, digest, header: _saved(np.save, np.array([2, 3])),
    lambda good, digest, header: _saved(np.savez, json_sha256=digest, header=header,
                                        ps=np.array([2, 3]), lams=np.array([0.1, 0.2])),
    _span(0.0, 4.0, dtype=np.float64),
    _span(0, 4, 8),
    _span(-1, 4),
    _span(8, 4),
    _span(0, 10 ** 6),
], ids=["garbage", "empty", "half", "last-byte", "crc", "object-dtype", "int32",
        "unordered", "header-list", "header-bool", "no-arrays", "npy",
        "no-span", "span-float", "span-3", "span-negative", "span-reversed",
        "span-past-end"])
def test_bad_index_falls_back_to_json(tmp_path, monkeypatch, corrupt):
    rec, _, index = _indexed_fixture(tmp_path, monkeypatch)
    with np.load(index) as npz:
        digest, header = str(npz["json_sha256"]), str(npz["header"])
    assert '"level": 5' in header
    index.write_bytes(corrupt(index.read_bytes(), digest, header))
    assert ingest._read_index(index, digest) is None
    assert ingest.read_cache(rec.label, tmp_path) == rec
    assert ingest._read_index(index, digest) == rec      # rebuilt


@pytest.mark.parametrize("past_end", [0, 1])
def test_index_span_ends_within_the_json_file(tmp_path, monkeypatch, past_end):
    rec, path, index = _indexed_fixture(tmp_path, monkeypatch)
    with np.load(index) as npz:
        arrays = dict(npz)
    size = path.stat().st_size
    arrays["span"] = np.array([size - 1, size + past_end])
    index.write_bytes(_saved(np.savez, **arrays))
    loaded = ingest._read_index(index, str(arrays["json_sha256"]))
    assert (loaded is None) == bool(past_end)


def test_labels_get_distinct_index_files(tmp_path, monkeypatch):
    # "" and ".json" cache as ".json" and ".json.json"
    base = ingest.generate_fixture("fixture-tempered-1", 100)
    recs = [dataclasses.replace(base, label=label) for label in ("", ".json")]
    for rec in recs:
        _seed_json(rec, tmp_path)
    for rec in recs:
        assert _read_twice(rec.label, tmp_path, monkeypatch) == (rec, rec)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".json", ".json.json", ".json.npz", ".npz"]


def test_renamed_cache_and_index_still_rejected(tmp_path, monkeypatch):
    _, path, index = _indexed_fixture(tmp_path, monkeypatch)
    path.rename(tmp_path / "other.json")
    index.rename(tmp_path / "other.npz")
    with pytest.raises(CacheParseError) as exc:
        ingest.read_cache("other", tmp_path)
    assert exc.value.field == "label"


@pytest.mark.parametrize("target", [(np, "savez"), (ingest.os, "replace")])
def test_failed_index_write_leaves_result(tmp_path, monkeypatch, target):
    rec = ingest.generate_fixture("fixture-mixed-2", 1000)
    path = _seed_json(rec, tmp_path)

    def fail(*_, **__):
        raise OSError("disk full")
    monkeypatch.setattr(*target, fail)
    assert ingest.read_cache(rec.label, tmp_path) == rec
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_fixture_fetch_rewrites_file_that_differs_in_zero_sign(tmp_path, monkeypatch):
    # -0.0 == 0.0 elementwise, but the two write different JSON bytes
    rec = CoeffRecord(label="fixture-mixed-1", level=6, spectral_parameter=9.53,
                      ps=[5, 7], lams=[0.0, 0.5], fetched_at="x", source="fixture")
    monkeypatch.setattr(ingest, "generate_fixture", lambda *_: rec)
    path = ingest.write_cache(dataclasses.replace(rec, lams=[-0.0, 0.5]), tmp_path)
    assert ingest.read_cache(rec.label, tmp_path) == rec
    ingest.fetch(rec.label, cache_dir=tmp_path)
    assert path.read_bytes() == ingest.write_cache(rec, tmp_path / "ref").read_bytes()


def test_written_cache_reads_by_the_index(tmp_path, monkeypatch):
    rec = ingest.generate_fixture("fixture-mixed-1", 1000)
    path = ingest.write_cache(rec, tmp_path)
    index_writes = _spy_on(monkeypatch, "_write_index")
    _assert_identical(ingest.read_cache(rec.label, tmp_path), rec)
    assert index_writes == []
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert ingest._read_index(path.with_suffix(".npz"), digest) == rec


@pytest.mark.parametrize("target", ["savez", "replace"])
def test_failed_index_write_leaves_the_cache_file(tmp_path, monkeypatch, target):
    rec = ingest.generate_fixture("fixture-mixed-2", 1000)
    want = ingest.write_cache(rec, tmp_path / "ref").read_bytes()
    real_replace = ingest.os.replace

    def fail(*_, **__):
        raise OSError("disk full")

    def replace_json_only(src, dst):
        (fail if str(dst).endswith(".npz") else real_replace)(src, dst)
    if target == "savez":
        monkeypatch.setattr(np, "savez", fail)
    else:
        monkeypatch.setattr(ingest.os, "replace", replace_json_only)
    path = ingest.write_cache(rec, tmp_path / "c")
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    assert path.read_bytes() == want


_json_floats = st.one_of(
    st.floats(), st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-05, 1e22, 0.1,
                     float("nan"), float("inf"), float("-inf")]))


@given(label=st.text(max_size=8), level=st.integers(1, 2 ** 63 - 1),
       spectral=st.one_of(_finite, st.integers(-10 ** 6, 10 ** 6)),
       ps=st.lists(st.integers(1, 2 ** 63 - 1), unique=True, max_size=40).map(sorted),
       values=st.lists(_json_floats, min_size=40),
       source=st.one_of(st.sampled_from(["fixture", "remote", "cache-fallback"]),
                        st.text(max_size=4)),
       fetched_at=st.text(max_size=8), chunk=st.integers(1, 8))
def test_json_text_matches_reference_dump(label, level, spectral, ps, values, source,
                                          fetched_at, chunk):
    rec = CoeffRecord(label=label, level=level, spectral_parameter=spectral,
                      ps=np.array(ps, dtype=np.int64), lams=values[:len(ps)],
                      fetched_at=fetched_at, source=source)
    want = json.dumps(rec.to_json_dict(), sort_keys=True)
    assert rec.to_json_text() == want
    with pytest.MonkeyPatch.context() as patch:     # chunk boundaries in small records
        patch.setattr(ingest, "JSON_CHUNK", chunk)
        assert rec.to_json_text() == want


def _float_reprs(monkeypatch):
    """The floats ingest formats with repr: every a_p of a coefficient
    text that is formatted rather than copied."""
    calls = []

    def spy(obj):
        calls.append(obj)
        return builtins.repr(obj)
    monkeypatch.setattr(ingest, "repr", spy, raising=False)
    return calls


def _span_record(values=()):
    rec = ingest.generate_fixture("fixture-tempered-1", 1000)
    lams = rec.lams.copy()
    lams[:len(values)] = values     # in the first piece and in the last
    lams[lams.size - len(values):] = values
    return dataclasses.replace(rec, label="span-form", source="remote", lams=lams)


def _dumped(doc, **kwargs):
    return lambda rec, cache_dir: ingest._cache_path(rec.label, cache_dir).write_text(
        json.dumps(doc(rec), sort_keys=True, **kwargs))


def _with_integer_a_p(rec):
    doc = rec.to_json_dict()
    doc["coefficients"][-1][1] = 2      # loads as int, formats as 2.0
    return doc


def _edit_digit(rec):
    path = rec._json_span.path
    text = path.read_text()
    i = text.index('"level": 5,') + len('"level": ')
    path.write_text(text[:i] + "7" + text[i + 1:])


@pytest.mark.parametrize("write, values, spans", [
    (lambda rec, cache_dir: ingest.write_cache(rec, cache_dir), (), True),
    (_dumped(CoeffRecord.to_json_dict, indent=2), (), False),
    (_dumped(_with_integer_a_p), (), False),
    (_dumped(CoeffRecord.to_json_dict), (1e16, -0.0, np.nan, np.inf, -np.inf), True),
], ids=["canonical", "indented", "integer-a_p", "special-floats"])
def test_span_route_output_is_the_reference_dump(tmp_path, monkeypatch, write,
                                                 values, spans):
    # several pieces, so that a file can match the first and not a later one
    monkeypatch.setattr(ingest, "JSON_CHUNK", 16)
    written = _span_record(values)
    write(written, tmp_path)
    for route in ("json", "index"):
        rec = ingest.read_cache(written.label, tmp_path)
        assert (rec._json_span is not None) == spans, route
        with monkeypatch.context() as patch:
            reprs = _float_reprs(patch)
            assert rec.to_json_text() == json.dumps(rec.to_json_dict(), sort_keys=True)
        assert bool(reprs) != spans, route


@pytest.mark.parametrize("disturb", [
    _edit_digit,
    lambda rec: rec._json_span.path.unlink(),
    lambda rec: dataclasses.replace(rec, lams=-rec.lams),
], ids=["same-length-edit", "deleted", "new-lams"])
def test_span_route_formats_when_the_span_no_longer_fits(tmp_path, monkeypatch,
                                                         disturb):
    ingest.write_cache(_span_record(), tmp_path)
    rec = ingest.read_cache("span-form", tmp_path)
    assert rec._json_span is not None
    rec = disturb(rec) or rec
    reprs = _float_reprs(monkeypatch)
    assert rec.to_json_text() == json.dumps(rec.to_json_dict(), sort_keys=True)
    assert len(reprs) == rec.lams.size


def test_index_hit_formats_no_floats(tmp_path, monkeypatch):
    # fetch's cache-fallback record and a fixture's cached record keep the span
    monkeypatch.delenv(ingest.ENDPOINT_ENV, raising=False)
    written = _span_record()
    ingest.write_cache(written, tmp_path)
    ingest.fetch("fixture-mixed-1", coverage=1000, cache_dir=tmp_path)
    reprs = _float_reprs(monkeypatch)
    fallback = ingest.fetch("span-form", cache_dir=tmp_path)
    assert fallback.source == "cache-fallback"
    assert fallback.to_json_text() == json.dumps(fallback.to_json_dict(), sort_keys=True)
    fixture = ingest.fetch("fixture-mixed-1", coverage=1000, cache_dir=tmp_path)
    assert fixture.to_json_text() == json.dumps(fixture.to_json_dict(), sort_keys=True)
    assert reprs == []
    # the spy sees formatting
    assert written.to_json_text() == fallback.to_json_text().replace(
        '"cache-fallback"', '"remote"')
    assert len(reprs) == written.lams.size


def test_span_state_is_no_part_of_the_value(tmp_path):
    rec = ingest.generate_fixture("fixture-mixed-2", 1000)
    ingest.write_cache(rec, tmp_path)
    cached = ingest.read_cache(rec.label, tmp_path)
    assert cached._json_span is not None and rec._json_span is None
    assert cached == rec and "_json_span" not in repr(cached)


@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ps=st.lists(st.integers(1, 2 ** 63 - 1), unique=True, max_size=20).map(sorted),
       values=st.lists(_json_floats, min_size=20),
       dump=st.sampled_from([{}, {"sort_keys": True}, {"indent": 1}]),
       json_chunk=st.integers(1, 4), span_chunk=st.integers(1, 9))
def test_span_route_matches_reference_dump(tmp_path, monkeypatch, ps, values, dump,
                                           json_chunk, span_chunk):
    # chunk sizes small enough to split the texts of short records
    monkeypatch.setattr(ingest, "JSON_CHUNK", json_chunk)
    monkeypatch.setattr(ingest, "SPAN_CHUNK", span_chunk)
    doc = {"schema": 1, "label": "f", "level": 1, "spectral_parameter": 0.5,
           "coefficients": [[p, a] for p, a in zip(ps, values)],
           "fetched_at": "t", "source": "remote"}
    with tempfile.TemporaryDirectory(dir=tmp_path) as cache_dir:
        ingest._cache_path("f", cache_dir).write_text(json.dumps(doc, **dump))
        for _ in range(2):      # the JSON route, then the index route
            rec = ingest.read_cache("f", cache_dir)
            # an indented file holds the canonical text only of an empty list
            assert (rec._json_span is not None) == ("indent" not in dump or not ps)
            assert rec.to_json_text() == json.dumps(rec.to_json_dict(), sort_keys=True)
