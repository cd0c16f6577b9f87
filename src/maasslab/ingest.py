"""Client and cache for Maass-form coefficient data.

Records carry (level, spectral parameter, Hecke eigenvalues a_p at
unramified primes as the read-only arrays ps and lams).  Built-in
deterministic fixtures let every consumer run without network access;
remote fetches hit an endpoint configured through the environment and
fall back to the local cache when the network is down.

A record's JSON text has one route, CoeffRecord.json_pieces (joined:
to_json_text), byte for byte json.dumps of the reference to_json_dict.
The canonical cache is one such document per record, written piece by
piece and atomically (temp file + rename) by _write_cache, the only
writer of cache files.  It writes a derived `.npz` index beside it: ps,
lams, a metadata header, the sha256 of the JSON bytes and the span
[start, stop) of the bytes that are the canonical text of the
coefficient list, known from the pieces it wrote.  read_cache loads the
index with allow_pickle=False when that hash matches and the span lies
within the file.  Otherwise (no index, or a stale, malformed or
span-less one) it parses and checks the JSON file and, when the file
holds the label asked for, rewrites it through _write_cache: an
unsorted, indented, integer-text or older file becomes the canonical
document of the same record, unknown keys dropped, and the next read
takes the index.  Where the cache cannot be written (a read-only
directory), the record is returned without a span and formats the same
bytes.  A record read from the cache remembers its file, digest and
span: json_pieces copies the span from the file when the file still has
that digest and the record still has the arrays it was read with, and
formats the arrays otherwise.  fetch leaves a fixture's cache file alone
when it already holds the generated record, and returns a record it
writes with the span of the file just written, so that its coefficient
text is formatted once.
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
# json's names for the non-finite floats, keyed by float.__repr__
_NON_FINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class Finding:
    severity: str           # "error" | "warning" | "info"
    kind: str
    p: int | None
    message: str


@dataclass(frozen=True)
class _JsonSpan:
    """While the file at path has this sha256, its bytes [start, stop)
    are the canonical text of the coefficient list of the arrays ps and
    lams (held for their identity)."""

    path: Path
    digest: str
    start: int
    stop: int
    ps: np.ndarray
    lams: np.ndarray


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
    # where read_cache found the coefficient text; replace() carries it
    # over, and json_pieces checks that it still fits
    _json_span: _JsonSpan | None = field(default=None, repr=False, compare=False)

    __eq__ = fields_equal
    __post_init__ = check_form_fields

    def coverage(self) -> int:
        return int(self.ps[-1]) if self.ps.size else 0

    def to_form_meta(self) -> FormMeta:
        return FormMeta(level=self.level,
                        spectral_parameter=self.spectral_parameter,
                        ps=self.ps, lams=self.lams, label=self.label)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "level": self.level,
            "spectral_parameter": self.spectral_parameter,
            "coefficients": [[p, a] for p, a in
                             zip(self.ps.tolist(), self.lams.tolist())],
            "fetched_at": self.fetched_at,
            "source": self.source,
        }

    def to_json_text(self) -> str:
        """json.dumps(self.to_json_dict(), sort_keys=True)."""
        return "".join(self.json_pieces())

    def json_pieces(self):
        """to_json_text in order: the head, the coefficient list in
        pieces, then the rest as one piece ("coefficients" sorts first).
        The list is copied from the cache file the record was read from
        while that file is unchanged, and formatted from the arrays
        otherwise."""
        rest = json.dumps({"schema": SCHEMA_VERSION, **{
            name: getattr(self, name) for name in _INDEX_FIELDS}}, sort_keys=True)[1:]
        yield '{"coefficients": '
        yield from self._copied_coefficients() or _coefficient_pieces(self.ps, self.lams)
        yield ", " + rest

    def _copied_coefficients(self):
        """The coefficient text from the span of the cache file, as one
        piece, or None unless the record still has the arrays of the span
        and the file still has its sha256."""
        span = self._json_span
        if span is None or span.ps is not self.ps or span.lams is not self.lams:
            return None
        import hashlib      # here, so that `import maasslab` does not pay for it
        try:
            raw = span.path.read_bytes()
        except OSError:
            return None
        if hashlib.sha256(raw).hexdigest() != span.digest:
            return None
        # decoded from a view, without copying the span's bytes first
        return (str(memoryview(raw)[span.start:span.stop], "ascii"),)


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


def _with_span(record: CoeffRecord, path: Path, digest: str,
               span: tuple[int, int]) -> CoeffRecord:
    return replace(record, _json_span=_JsonSpan(path, digest, *span,
                                                 record.ps, record.lams))


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


def _fixture_seed(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


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
    rng = np.random.default_rng(_fixture_seed(label))
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
    return _write_cache(record, cache_dir)._json_span.path


def _write_cache(record: CoeffRecord, cache_dir) -> CoeffRecord:
    """write_cache, returning the record with the span of the file it
    wrote, as read_cache would read it back."""
    import hashlib      # here, so that `import maasslab` does not pay for it

    path = _cache_path(record.label, cache_dir)
    digest = hashlib.sha256()
    lengths = []

    def write(fh):
        for piece in record.json_pieces():
            data = piece.encode()       # ASCII: json escapes the rest
            digest.update(data)
            fh.write(data)
            lengths.append(len(data))
    _replace_atomically(path, "wb", write)
    # the coefficient text lies between the head and the rest
    span = (lengths[0], sum(lengths) - lengths[-1])
    _write_index(_index_path(path), digest.hexdigest(), record, span)
    return _with_span(record, path, digest.hexdigest(), span)


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
    """The record in the index at path, with the span of the JSON file
    beside it, or None unless the index exists, was made from the JSON
    bytes with this sha256 and is well formed (an index without a span,
    as earlier versions wrote, is not, nor is one whose span does not lie
    within the JSON file)."""
    json_path = path.with_name(path.name.removesuffix(".npz") + ".json")
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if str(npz["json_sha256"]) != digest:
                return None
            ps, lams, header = npz["ps"], npz["lams"], str(npz["header"])
            span = npz["span"]
        if (ps.dtype != np.int64 or lams.dtype != np.float64
                or span.dtype != np.int64 or span.shape != (2,)):
            return None
        span = tuple(span.tolist())
        if not 0 <= span[0] <= span[1] <= json_path.stat().st_size:
            return None
        # the header passes the JSON route's own field checks
        doc = {**json.loads(header), "schema": SCHEMA_VERSION, "coefficients": []}
        record = replace(_record_from_json_dict(doc), ps=ps, lams=lams)
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            EOFError, zipfile.BadZipFile, CacheParseError):
        return None
    return _with_span(record, json_path, digest, span)


def _write_index(path: Path, digest: str, record: CoeffRecord,
                 span: tuple[int, int]) -> None:
    header = json.dumps({name: getattr(record, name) for name in _INDEX_FIELDS})
    with contextlib.suppress(OSError):     # no index: the next read rebuilds it
        _replace_atomically(path, "wb", lambda fh: np.savez(
            fh, json_sha256=digest, header=header, ps=record.ps, lams=record.lams,
            span=np.array(span, dtype=np.int64)))


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
            try:        # the canonical file and its index, so the next read copies
                return _write_cache(record, cache_dir)
            except OSError:     # a read-only cache: the record formats the same bytes
                return record
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
        # == holds -0.0 equal to 0.0; the JSON bytes do not
        if cached == record and cached.lams.tobytes() == record.lams.tobytes():
            return cached       # the generated record, with its cache file's span
        return _write_cache(record, cache_dir)
    endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
    reason = f"no endpoint configured ({ENDPOINT_ENV} unset)"
    if endpoint:
        try:
            record = _fetch_remote(label, coverage, endpoint)
        except OSError as exc:      # network failure: fall back to the cache
            reason = f"endpoint {endpoint!r} unreachable ({exc})"
        else:
            return _write_cache(record, cache_dir)
    cached = read_cache(label, cache_dir)
    if cached is not None:
        return replace(cached, source="cache-fallback")
    raise RemoteUnavailableError(
        f"{reason} and no cached record for {label!r}")
