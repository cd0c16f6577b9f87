"""Client and cache for Maass-form coefficient data.

Records carry (level, spectral parameter, Hecke eigenvalues a_p at
unramified primes as the read-only arrays ps and lams).  Built-in
deterministic fixtures let every consumer run without network access;
remote fetches hit an endpoint configured through the environment and
fall back to the local cache when the network is down.  Cache files
are one JSON document per record, written atomically (temp file +
rename).

Cache files and the `fetch` payload are byte-for-byte the output of
json.dumps(sort_keys=True, indent=2); json_text produces it without
json's pure-Python indent encoder.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import satake, sieve
from .bounds import FormMeta, fields_equal, freeze_coefficients
from .errors import CacheParseError, InvalidInputError, RemoteUnavailableError

SCHEMA_VERSION = 1
ENDPOINT_ENV = "MAASSLAB_ENDPOINT"
CACHE_DIR_ENV = "MAASSLAB_CACHE_DIR"
FIXTURE_TIMESTAMP = "2025-01-01T00:00:00Z"
DEFAULT_COVERAGE = 10 ** 4
_PAIRS_SENTINEL = "@@maasslab-coefficient-pairs@@"


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
    source: str             # "remote" | "fixture"

    __eq__ = fields_equal
    __post_init__ = freeze_coefficients

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
    """Findings for a record: entries at non-primes and envelope
    violations are errors, coverage gaps warnings, ramified-prime entries
    informational."""
    findings: list[Finding] = []
    ps, lams = record.ps, record.lams
    ref = sieve.primes_upto(record.coverage())
    not_prime = ~np.isin(ps, ref, assume_unique=True)
    ramified = ~not_prime & (record.level % ps == 0)
    above = ~not_prime & ~ramified
    envelope, _ = satake.kim_sarnak_envelope(ps[above])
    above[above] = np.abs(lams[above]) > envelope + 1e-12
    for i in np.flatnonzero(not_prime | ramified | above).tolist():
        p = int(ps[i])
        if not_prime[i]:
            findings.append(Finding("error", "not-prime", p,
                                    f"entry at p = {p}, which is not a prime"))
        elif ramified[i]:
            findings.append(Finding("info", "ramified", p,
                                    f"p = {p} divides the level; excluded from scans"))
        else:
            bound, _ = satake.kim_sarnak_envelope(p)
            findings.append(Finding(
                "error", "envelope", p,
                f"|a_p| = {abs(float(lams[i]))} exceeds the bound {bound} at p = {p}"))
    missing = np.setdiff1d(ref[record.level % ref != 0], ps,
                           assume_unique=True)
    findings.extend(Finding("warning", "gap", p, f"missing coefficient at p = {p}")
                    for p in missing.tolist())
    return findings


def _cache_dir(cache_dir: str | os.PathLike | None) -> Path:
    if cache_dir is not None:
        d = Path(cache_dir)
    else:
        d = Path(os.environ.get(
            CACHE_DIR_ENV, Path.home() / ".cache" / "maasslab"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _cache_path(label: str, cache_dir) -> Path:
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in label)
    return _cache_dir(cache_dir) / f"{safe}.json"


def json_text(doc: dict, path: tuple[str, ...]) -> str:
    """json.dumps(doc, sort_keys=True, indent=2), character for character,
    with the list of coefficient pairs at doc[path[0]][path[1]]...
    rendered by json's C encoder.

    With indent set, json runs a pure-Python encoder over every element;
    here only the small document around the pairs takes that route.  The
    compact rendering of the pairs is re-indented at its joints: ","
    within and between pairs, and "],[" between pairs.  Numbers (NaN and
    Infinity included) render without either, so this is exact for a
    non-empty list of non-empty lists of numbers.  A list holding a
    string, an empty or a nested list, or a document in which the
    sentinel also occurs elsewhere, takes plain json.dumps.
    """
    def stub(node, keys):
        return ({**node, keys[0]: stub(node[keys[0]], keys[1:])} if keys
                else _PAIRS_SENTINEL)
    pairs = doc
    for key in path:
        pairs = pairs[key]
    compact = json.dumps(pairs, separators=(",", ":"))
    skeleton = json.dumps(stub(doc, path), sort_keys=True, indent=2)
    marker = json.dumps(_PAIRS_SENTINEL)
    # with every item a list, one "[" per item rules out nested lists
    if (not isinstance(pairs, list) or not all(type(p) is list for p in pairs)
            or '"' in compact or "[]" in compact
            or compact.count("[") != len(pairs) + 1
            or skeleton.count(marker) != 1):
        return json.dumps(doc, sort_keys=True, indent=2)
    outer = "\n" + "  " * (len(path) + 1)     # pair brackets
    inner = outer + "  "                       # numbers within a pair
    body = compact[2:-2].replace(",", "," + inner).replace(
        "]," + inner + "[", outer + "]," + outer + "[" + inner)
    rendered = ("[" + outer + "[" + inner + body + outer + "]"
                + outer[:-2] + "]")
    return skeleton.replace(marker, rendered, 1)


def write_cache(record: CoeffRecord, cache_dir=None) -> Path:
    """Atomic write: readers never observe a partial file."""
    path = _cache_path(record.label, cache_dir)
    payload = json_text(record.to_json_dict(), ("coefficients",))
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    ps, lams = [], []
    prev = 0
    for item in doc["coefficients"]:
        if (not isinstance(item, list) or len(item) != 2
                or type(item[0]) is not int
                or type(item[1]) not in (int, float)):
            raise CacheParseError(
                f"bad coefficient entry {item!r}", field="coefficients")
        p = item[0]
        if p <= prev:
            raise CacheParseError(
                f"primes not strictly increasing at {p}", field="coefficients")
        prev = p
        ps.append(p)
        lams.append(item[1])
    return CoeffRecord(
        label=doc["label"], level=doc["level"],
        spectral_parameter=float(doc["spectral_parameter"]),
        ps=ps, lams=lams, fetched_at=doc["fetched_at"],
        source=doc.get("source", "remote"))


def read_cache(label: str, cache_dir=None) -> CoeffRecord | None:
    path = _cache_path(label, cache_dir)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CacheParseError(f"cache file is not valid JSON: {exc}") from exc
    return _record_from_json_dict(doc)


def _fetch_remote(label: str, coverage: int, endpoint: str) -> CoeffRecord:
    import http.client
    import urllib.parse
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
    return replace(_record_from_json_dict(doc), source="remote")


def fetch(label: str, coverage: int = DEFAULT_COVERAGE, cache_dir=None,
          endpoint: str | None = None) -> CoeffRecord:
    """Return a validated record for a label, refreshing the cache.

    Fixture labels are generated locally.  Other labels need an endpoint
    (argument or environment); on network failure the cached copy is
    returned when present, else RemoteUnavailableError is raised.
    """
    if coverage < 2:
        raise InvalidInputError(f"coverage must be >= 2, got {coverage}")
    if label in FIXTURE_MANIFEST:
        record = generate_fixture(label, coverage)
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
        return cached
    raise RemoteUnavailableError(
        f"{reason} and no cached record for {label!r}")
