"""Client and cache for Maass-form coefficient data.

Records carry (level, spectral parameter, Hecke eigenvalues a_p at
unramified primes as the read-only arrays ps and lams).  Built-in
deterministic fixtures let every consumer run without network access;
remote fetches hit an endpoint configured through the environment and
fall back to the local cache when the network is down.

A record's JSON text has one route, CoeffRecord.json_pieces, whose
pieces join to the sorted json.dumps of the record as a JSON object, byte
for byte (the tests' reference, oracles.record_json_dict).  The canonical
cache is one such document per record, written piece by piece and
atomically (temp file + rename) by write_cache, the only writer of cache
files, with a derived `.npz` index beside it: ps, lams, a header (the
document without its coefficients) and the sha256 of the JSON bytes.
read_cache loads the index with allow_pickle=False when that hash
matches and write_cache made it.  Otherwise (no index, or a stale,
malformed or older one) it parses and checks the JSON file and, when the
file holds the label asked for, rewrites it through write_cache as the
canonical document of the same record, unknown keys dropped, so the next
read takes the index.  A read-only cache is left as it is.

In a canonical file the coefficient list follows '{"coefficients": ' and
ends two bytes before the next '"' (it holds none).  cached_json_pieces,
which `maasslab fetch` prints, copies it when read_cache would take the
index and that holds the record's arrays byte for byte; fetch keeps a
fixture's file holding the generated record: warm fetches format no float.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import urllib.parse
import zipfile
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import satake, sieve
from .bounds import FormMeta, check_field, check_form_fields, fields_equal, positions
from .errors import CacheParseError, InvalidInputError, RemoteUnavailableError

SCHEMA_VERSION = 1
ENDPOINT_ENV = "MAASSLAB_ENDPOINT"
CACHE_DIR_ENV = "MAASSLAB_CACHE_DIR"
FIXTURE_TIMESTAMP = "2025-01-01T00:00:00Z"
DEFAULT_COVERAGE = 10 ** 4
# pairs per piece of CoeffRecord.json_pieces, which bounds the strings
# alive at once; on the density-scan benchmark 2^14 gave a peak RSS 1.2 MiB
# above that of 2^11 or 2^12
JSON_CHUNK = 1 << 12
# the start of every record's JSON text, and so of every canonical cache file
_JSON_HEAD = '{"coefficients": '
# json's names for the non-finite floats, keyed by float.__repr__
_NON_FINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class Finding:
    severity: str           # "error" | "warning" | "info"
    kind: str
    p: int | None
    message: str


@dataclass(frozen=True)
class CoeffRecord:
    """One form's coefficient data: eigenvalues lams at the primes ps."""

    label: str
    level: int
    spectral_parameter: float
    ps: np.ndarray = field(compare=False)
    lams: np.ndarray = field(compare=False)
    fetched_at: str
    source: str             # "fixture" | "remote" | "cache-fallback"

    __eq__ = fields_equal
    __post_init__ = check_form_fields

    def coverage(self) -> int:
        return int(self.ps[-1]) if self.ps.size else 0

    def to_form_meta(self) -> FormMeta:
        return FormMeta(level=self.level,
                        spectral_parameter=self.spectral_parameter,
                        ps=self.ps, lams=self.lams, label=self.label)

    def json_pieces(self):
        """The record as one sorted JSON document, in pieces: the head,
        the coefficient list in pieces, then the rest as one piece."""
        return _json_pieces(self, _coefficient_pieces(self.ps, self.lams))


def _json_pieces(record: CoeffRecord, coefficients):
    yield _JSON_HEAD
    yield from coefficients
    yield ", " + _header(record)[1:]    # "coefficients" sorts first


def _header(record: CoeffRecord) -> str:      # the document but its coefficients
    return json.dumps({"schema": SCHEMA_VERSION, **{
        name: getattr(record, name) for name in _INDEX_FIELDS}}, sort_keys=True)


def _coefficient_pieces(ps: np.ndarray, lams: np.ndarray):
    """The JSON text of [[p, a_p], ...] in pieces of at most JSON_CHUNK
    pairs, built without a list per pair: floats by float.__repr__, as
    json writes them."""
    if not ps.size:
        yield "[]"
        return
    for start in range(0, ps.size, JSON_CHUNK):
        chunk = lams[start:start + JSON_CHUNK]
        values = list(map(repr, chunk.tolist()))
        for i in np.flatnonzero(~np.isfinite(chunk)).tolist():
            values[i] = _NON_FINITE_JSON[values[i]]
        primes = map(str, ps[start:start + JSON_CHUNK].tolist())
        yield "], [" if start else "[["
        yield "], [".join(map(", ".join, zip(primes, values)))
    yield "]]"


# label -> generation parameters; "nontempered" maps prime -> deviation nu
FIXTURE_MANIFEST = {
    "fixture-tempered-1": {
        "level": 5, "spectral_parameter": 2.13, "nontempered": {}},
    "fixture-tempered-2": {
        "level": 7, "spectral_parameter": 5.44, "nontempered": {}},
    "fixture-mixed-1": {
        "level": 6, "spectral_parameter": 9.53,
        "nontempered": {11: 0.09, 101: 0.1, 997: 0.0625}},
    "fixture-mixed-2": {
        "level": 10, "spectral_parameter": 4.77,
        "nontempered": {11: 0.05, 101: 7.0 / 64.0, 499: 0.08}},
}


def generate_fixture(label: str, coverage: int = DEFAULT_COVERAGE) -> CoeffRecord:
    """Deterministic synthetic record for a manifest label.

    Tempered eigenvalues are Sato-Tate draws seeded by the label; the
    manifest's non-tempered primes get p^nu + p^{-nu} instead.  Primes
    dividing the level are omitted (ramified).
    """
    if label not in FIXTURE_MANIFEST:
        raise InvalidInputError(f"unknown fixture label {label!r}")
    entry = FIXTURE_MANIFEST[label]
    level = entry["level"]
    ps = sieve.primes_upto(coverage)
    ps = ps[level % ps != 0]
    rng = np.random.default_rng(zlib.crc32(label.encode("utf-8")))
    lams = 2.0 * np.cos(satake.sato_tate_angles(rng, ps.size))
    for p, nu in entry["nontempered"].items():
        lams[ps == p] = p ** nu + p ** (-nu)
    return CoeffRecord(label=label, level=level,
                       spectral_parameter=entry["spectral_parameter"],
                       ps=ps, lams=lams,
                       fetched_at=FIXTURE_TIMESTAMP, source="fixture")


def validate(record: CoeffRecord) -> list[Finding]:
    """Findings for a record: entries at non-primes, non-finite a_p and
    envelope violations are errors, coverage gaps warnings, ramified-prime
    entries informational."""
    findings: list[Finding] = []
    ps, lams = record.ps, record.lams
    ref = sieve.primes_upto(record.coverage())
    divides = record.level % ref == 0   # not level % ps: ps may hold 0
    not_prime = ~positions(ref, ps)[1]
    # NaN > envelope is False: a non-finite a_p needs its own finding
    non_finite = ~not_prime & ~np.isfinite(lams)
    ramified = positions(ref[divides], ps)[1]
    above = ~not_prime & ~non_finite & ~ramified
    envelope = satake.kim_sarnak_envelope(ps[above])
    above[above] = np.abs(lams[above]) > envelope + 1e-12
    for i in np.flatnonzero(not_prime | non_finite | ramified | above).tolist():
        p = int(ps[i])
        if not_prime[i]:
            findings.append(Finding("error", "not-prime", p,
                                    f"entry at p = {p}, which is not a prime"))
        elif non_finite[i]:
            findings.append(Finding("error", "non-finite", p,
                                    f"a_p = {float(lams[i])} at p = {p} is not finite"))
        elif ramified[i]:
            findings.append(Finding("info", "ramified", p,
                                    f"p = {p} divides the level; excluded from scans"))
        else:
            bound = satake.kim_sarnak_envelope(p)
            findings.append(Finding(
                "error", "envelope", p,
                f"|a_p| = {abs(float(lams[i]))} exceeds the bound {bound} at p = {p}"))
    findings.extend(Finding("warning", "gap", p, f"missing coefficient at p = {p}")
                    for p in ref[~divides & ~positions(ps, ref)[1]].tolist())
    return findings


def _cache_dir(cache_dir: str | os.PathLike | None) -> Path:
    d = Path(cache_dir if cache_dir is not None else os.environ.get(
        CACHE_DIR_ENV, Path.home() / ".cache" / "maasslab"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _cache_path(label: str, cache_dir) -> Path:
    # percent-escape every character outside [A-Za-z0-9._-], "%" included,
    # so that distinct labels get distinct files ("a/b" -> a%2Fb, "a_b" -> a_b)
    safe = urllib.parse.quote(label, safe="", errors="surrogatepass")
    return _cache_dir(cache_dir) / f"{safe.replace('~', '%7E')}.json"


def _replace_atomically(path: Path, mode: str, write) -> None:
    """Readers of path never observe a partial file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _index_path(path: Path) -> Path:
    return path.with_name(path.name.removesuffix(".json") + ".npz")


def write_cache(record: CoeffRecord, cache_dir=None) -> Path:
    """Atomic write of the record's JSON document, then of its index."""
    import hashlib      # here, so that `import maasslab` does not pay for it

    path = _cache_path(record.label, cache_dir)
    digest = hashlib.sha256()

    def write(fh):
        for piece in record.json_pieces():
            data = piece.encode()       # ASCII: json escapes the rest
            digest.update(data)
            fh.write(data)
    _replace_atomically(path, "wb", write)
    _write_index(_index_path(path), digest.hexdigest(), record)
    return path


def _record_from_json_dict(doc: dict) -> CoeffRecord:
    # exact types, not isinstance: JSON true/false load as bool, an int
    if not isinstance(doc, dict):
        raise CacheParseError("cache document is not an object", field=None)
    for key, types in (("schema", (int,)), ("label", (str,)), ("level", (int,)),
                       ("spectral_parameter", (int, float)),
                       ("coefficients", (list,)), ("fetched_at", (str,))):
        if key not in doc:
            raise CacheParseError(f"missing field {key!r}", field=key)
        if type(doc[key]) not in types:
            raise CacheParseError(
                f"field {key!r} has type {type(doc[key]).__name__}", field=key)
    if doc["schema"] != SCHEMA_VERSION:
        raise CacheParseError(
            f"schema version {doc['schema']} unsupported", field="schema")
    for item in doc["coefficients"]:
        if (not isinstance(item, list) or len(item) != 2
                or type(item[0]) is not int
                or type(item[1]) not in (int, float)):
            raise CacheParseError(
                f"bad coefficient entry {item!r}", field="coefficients")
    # the value checks are the record's own; a failure names its field
    try:
        for key in ("level", "spectral_parameter"):
            check_field(key, doc[key])
        key = "coefficients"
        pairs = doc["coefficients"]
        return CoeffRecord(
            label=doc["label"], level=doc["level"],
            spectral_parameter=float(doc["spectral_parameter"]),
            ps=[p for p, _ in pairs], lams=[a for _, a in pairs],
            fetched_at=doc["fetched_at"], source=doc.get("source", "remote"))
    except InvalidInputError as exc:
        raise CacheParseError(str(exc), field=key) from exc


_INDEX_FIELDS = ("label", "level", "spectral_parameter", "fetched_at", "source")


def _read_index(path: Path, digest: str) -> CoeffRecord | None:
    """The record in the index at path, or None unless it is well formed and
    a write_cache (header with the schema, or the version before: a span)
    made it from the JSON bytes with this sha256, not an older read_cache."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if str(npz["json_sha256"]) != digest:
                return None
            header = json.loads(str(npz["header"]))
            if "schema" not in header and not len(npz.get("span", ())):
                return None
            ps, lams = npz["ps"], npz["lams"]
        if ps.dtype != np.int64 or lams.dtype != np.float64:
            return None
        ps.flags.writeable = lams.flags.writeable = False   # frozen without a copy
        # the header passes the JSON route's own field checks
        doc = {"schema": SCHEMA_VERSION, **header, "coefficients": []}
        return replace(_record_from_json_dict(doc), ps=ps, lams=lams)
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            EOFError, zipfile.BadZipFile, CacheParseError):
        return None


def _write_index(path: Path, digest: str, record: CoeffRecord) -> None:
    with contextlib.suppress(OSError):     # no index: the next read rebuilds it
        _replace_atomically(path, "wb", lambda fh: np.savez(
            fh, json_sha256=digest, header=_header(record), ps=record.ps, lams=record.lams))


def read_cache(label: str, cache_dir=None) -> CoeffRecord | None:
    import hashlib      # here, so that `import maasslab` does not pay for it

    path = _cache_path(label, cache_dir)
    if not path.exists():
        return None
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    record = _read_index(_index_path(path), digest)
    if record is None:
        try:
            doc = json.loads(raw)
        except ValueError as exc:   # not JSON, or not UTF-8/16/32 text
            raise CacheParseError(f"cache file is not valid JSON: {exc}") from exc
        record = _record_from_json_dict(doc)
        del doc, raw    # the parsed pairs and the bytes go before the write
        if record.label == label:
            # the canonical file and its index, so the next read takes the index
            with contextlib.suppress(OSError):      # a read-only cache
                write_cache(record, cache_dir)
    if record.label != label:
        raise CacheParseError(f"cache file {path.name} holds label "
                              f"{record.label!r}, not {label!r}", field="label")
    return record


def _fetch_remote(label: str, coverage: int, endpoint: str) -> CoeffRecord:
    import http.client
    import urllib.request

    from datetime import datetime, timezone
    query = urllib.parse.urlencode({"label": label, "coverage": coverage})
    url = endpoint + ("&" if "?" in endpoint else "?") + query
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            body = resp.read()
    except http.client.HTTPException as exc:    # broken reply: a network failure
        raise ConnectionError(f"bad HTTP reply from {endpoint!r}: {exc}") from exc
    try:
        doc = json.loads(body)
    except ValueError as exc:
        raise CacheParseError(f"remote document is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc.setdefault("fetched_at",
                       datetime.now(timezone.utc).isoformat(timespec="seconds"))
        doc.setdefault("schema", SCHEMA_VERSION)
    record = _record_from_json_dict(doc)
    if record.label != label:
        raise CacheParseError(f"remote document holds label {record.label!r}, "
                              f"not {label!r}", field="label")
    return replace(record, source="remote")


def fetch(label: str, coverage: int = DEFAULT_COVERAGE, cache_dir=None,
          endpoint: str | None = None) -> CoeffRecord:
    """Return the record for a label, refreshing the cache.

    Only construction's checks have run (level, spectral parameter, ps
    strictly increasing int64): findings such as non-primes come from
    validate.  Fixture labels are generated locally.  Other labels need
    an endpoint (argument or environment); without one, or on network
    failure, the cached copy is returned with source "cache-fallback"
    when present, else RemoteUnavailableError is raised.
    """
    if coverage < 2:
        raise InvalidInputError(f"coverage must be >= 2, got {coverage}")
    if label in FIXTURE_MANIFEST:
        record = generate_fixture(label, coverage)
        try:        # a bad or different cache file is overwritten, not raised
            cached = read_cache(label, cache_dir)
        except (CacheParseError, OSError):
            cached = None
        if not (cached == record and _same_bytes(cached, record)):
            write_cache(record, cache_dir)
        return record
    endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
    reason = f"no endpoint configured ({ENDPOINT_ENV} unset)"
    if endpoint:
        try:
            record = _fetch_remote(label, coverage, endpoint)
        except OSError as exc:      # network failure: fall back to the cache
            reason = f"endpoint {endpoint!r} unreachable ({exc})"
        else:
            write_cache(record, cache_dir)
            return record
    cached = read_cache(label, cache_dir)
    if cached is not None:
        return replace(cached, source="cache-fallback")
    raise RemoteUnavailableError(
        f"{reason} and no cached record for {label!r}")


def _same_bytes(a: CoeffRecord, b: CoeffRecord) -> bool:
    # == holds -0.0 equal to 0.0; the JSON text does not
    return (np.array_equal(a.ps, b.ps)
            and np.array_equal(a.lams.view(np.int64), b.lams.view(np.int64)))


def cached_json_pieces(record: CoeffRecord, cache_dir=None):
    """record.json_pieces(), the coefficient list copied from the label's
    cache file when its index matches and holds the record's arrays."""
    import hashlib      # here, so that `import maasslab` does not pay for it

    path = _cache_path(record.label, cache_dir)
    with contextlib.suppress(OSError):
        raw = path.read_bytes()
        indexed = _read_index(_index_path(path), hashlib.sha256(raw).hexdigest())
        if indexed is not None and _same_bytes(indexed, record):
            start = len(_JSON_HEAD)     # decoded from a view, without copying the bytes
            text = str(memoryview(raw)[start:raw.index(b'"', start) - 2], "ascii")
            return _json_pieces(record, (text,))
    return record.json_pieces()
