"""Work counters computed from a wrapped call's arguments and result.

Each entry maps "<module>.<function>" to (counter names, function of
the bound arguments, the result and the raised exception).  The
counters are summed per traced pass.  Reading a field that a later
version renames records nothing rather than failing.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _table_bytes(args, table, exc):
    return {} if table is None else {"sieve.table_bytes": _array_bytes(table)}


def _values_n(args, result, exc):
    return {"sieve.values_upto.n": int(args["t"])}


def _r_swept(args, result, exc):
    """Squarefree moduli r <= z the sweep has to cover (up to the
    witness r when a precondition fails)."""
    r_max = int(args["z"])
    witness = getattr(exc, "witness", None)
    if isinstance(witness, tuple) and len(witness) == 2:
        if witness[0] == "g":
            return {"sieve.lower_bound_check.r_swept": 0}
        r_max = int(witness[1])
    flags = np.asarray(args["table"].squarefree[1:r_max + 1])
    return {"sieve.lower_bound_check.r_swept": int(np.count_nonzero(flags))}


def _solve_nodes(args, sol, exc):
    segments = getattr(sol, "segments", None)
    if segments is None:
        return {}
    return {"dde.solve.nodes": int(sum(np.size(s) for s in segments))}


def _scan_sizes(args, report, exc):
    if report is None:
        return {}
    return {"density.exceptional_scan.primes": int(report.pi_X),
            "density.exceptional_scan.exceptional": int(report.exceptional_count)}


def _written_bytes(args, path, exc):
    return {} if path is None else {"ingest.write_cache.bytes": os.path.getsize(path)}


def _read_bytes(args, record, exc):
    cache_dir = args.get("cache_dir")
    if cache_dir is None:
        return {}
    path = Path(cache_dir) / f"{args['label']}.json"
    return {"ingest.read_cache.bytes": path.stat().st_size if path.exists() else 0}


def _findings(args, findings, exc):
    return {} if findings is None else {"ingest.validate.findings": len(findings)}


def _samples(args, result, exc):
    return {"satake.sample_coeff_triples.samples": int(args["count"])}


COUNTERS = {
    "sieve.build_table": (("sieve.table_bytes",), _table_bytes),
    "sieve.values_upto": (("sieve.values_upto.n",), _values_n),
    "sieve.lower_bound_check": (("sieve.lower_bound_check.r_swept",), _r_swept),
    "dde.solve": (("dde.solve.nodes",), _solve_nodes),
    "density.exceptional_scan": (("density.exceptional_scan.primes",
                                  "density.exceptional_scan.exceptional"), _scan_sizes),
    "ingest.write_cache": (("ingest.write_cache.bytes",), _written_bytes),
    "ingest.read_cache": (("ingest.read_cache.bytes",), _read_bytes),
    "ingest.validate": (("ingest.validate.findings",), _findings),
    "satake.sample_coeff_triples": (("satake.sample_coeff_triples.samples",), _samples),
}
