"""The command line's contract, as one table of cases.

A case runs its argvs in order through cli.main, stdout and stderr
captured, in one fresh temporary working directory after one of SETUPS.
Paths are relative, so the config echo reads the same on every run;
MAASSLAB_CACHE_DIR names a directory inside, and MAASSLAB_ENDPOINT is
unset.  Each argv must give the case's exit code, no warning, and:

- stderr empty if the case's err is, else one line that starts with err;
- output of the case's form: empty, one line of strict (no NaN or
  Infinity) sorted-key JSON, or a "# config: " line of such JSON, the
  form's CSV header and rows.  The output is the --out file of a run
  that exits 0, with stdout empty, else stdout;
- the case's sha256 of the output, where it pins one.

A case may also give the paths the directory holds after its last argv,
and a bound on the peak RSS in MiB; such a case runs each argv in a child
`python -m maasslab.cli`, whose peak os.wait4 reads (in KiB on Linux).
The README's CLI block is one more source of cases.

`python tests/cli_contract.py` runs every case and exits 1 on any miss;
tests/test_cli.py runs them under pytest.  Like oracles.py, this needs
only the stdlib, numpy and maasslab.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import maasslab
from maasslab import cli, ingest, satake
from oracles import record_json_dict

README = Path(__file__).resolve().parents[1] / "README.md"
# nested, so that a case can show a failed fetch makes none of its parents
CACHE_ENV = "env/a/b"
DDE = "u,sigma"
ASYMPTOTIC = "y,u,exact,predicted,rel_error"


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    argvs: tuple            # of argvs, each without the program name
    code: int = 0
    err: str = ""
    form: str = "json"      # "" (no output), "json", or a CSV header
    sha256: str | None = None
    setup: str | None = None
    files: tuple | None = None      # sorted paths in the working directory
    rss_mib: float | None = None


def case(name, *argvs, **fields) -> Case:
    """A Case whose argvs are given as strings of space-separated words."""
    return Case(name, tuple(tuple(argv.split()) for argv in argvs), **fields)


def _refusal(code, kind):
    """The fields of a refusal: the exit code, one stderr line that starts
    'error: <kind>: <message>', and no output."""
    return lambda message: dict(code=code, err=f"error: {kind}: {message}", form="")


invalid, resource = _refusal(2, "invalid-input"), _refusal(4, "resource-limit")


def _dump(label, **layout):
    """A cache file, not written by write_cache, of a remote record."""
    rec = dataclasses.replace(ingest.generate_fixture("fixture-mixed-2", 100000),
                              label=label, source="remote")
    _write(f"cache/{label}.json",
           json.dumps(record_json_dict(rec), sort_keys=True, **layout).encode())


def _write(path, data: bytes):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(data)


SETUPS = {
    None: lambda: None,
    "seeded": lambda: _dump("seeded-1"),
    "indented": lambda: _dump("indented-1", indent=2),
    "non-utf8": lambda: _write("cache/bad.json", b"\xff\xfe{"),
    "dir-for-file": lambda: os.makedirs("cache/x.json"),
    "file-for-dir": lambda: _write("file", b""),
}

SCAN = "density-report --scan-labels fixture-mixed-1,fixture-mixed-2"
REPORT = "sieve-verify --report asymptotic"
CAP = satake.MAX_SAMPLES

TABLE = [
    # the paper's outputs: the exponents 0.447374 and 0.778801, the zeros
    # 2.2352796 and e^(1/4), the density 43/44; and the conditional 118/119
    case("bound-two-forms", "bound --levels 5,7 --spectral 2.13,5.44",
         sha256="3fce4753ca8cfe02e3603f247e7cf2d001d078af75031efa798dc9de6b61885e"),
    case("bound-three-forms", "bound --levels 5,7,11 --spectral 2.13,5.44,9.5",
         sha256="df39c73c046c84fdf239a44ab14c0569528a5f9d1b7dde5cd28834178ca86d52"),
    case("bound-level-one", "bound --levels 1,1 --spectral 0,0",
         sha256="d00dcac6301129624daca5852fda82157bd6e3edccbcb75191fa8ba3ab6f8927"),
    case("first-zero-two-forms", "first-zero --chi0 2 --chi1 -2",
         "first-zero --chi0 2 --chi1 -2 --tol 1e-6",
         sha256="607700a196ae64f68ab33fef21a095dec3634f3f225166dfb86f59765120aa3c"),
    case("first-zero-three-forms-out", "first-zero --chi0 1 --chi1 -3 --out zero.json",
         sha256="97469588f278e82def627ad0dde4bb555d507b5599f6d9e542af2eb1ce1ce47a",
         files=("zero.json",)),
    # first_zero holds two unit segments and steps them in blocks
    case("first-zero-fine", "first-zero --chi0 2 --chi1 -2 --initial-step 1e-6 --tol 1e-9",
         sha256="75832c7353656af79c81c742b40b9cdee5d9f103f6d6ae36490e6fb05e62aa2b",
         rss_mib=110),
    case("density-paper", "density-report --m 2 --formula paper",
         sha256="201c3aa334284ae791cbaad84545ce1ca231d5ad76f8c065e732ac2a3237deff"),
    case("density-remark", "density-report --m 2 --formula remark",
         sha256="cc1ffae57c4ee9476e5174faa8466dcac6977230421f93ccde461f6b47a593d7"),
    case("density-m3-twice", "density-report --m 3", "density-report --m 3",
         sha256="5abf8b3335dae5ad11f4788a429b90db98a7cee29d2356ab60b1d72c533b3e4b"),

    # grids
    case("solve-dde", "solve-dde --chi0 2 --chi1 -2 --u-max 3 --step 1e-4 --stride 100",
         form=DDE,
         sha256="0368670d4723019be0f2f0a2ca87bef62f8069d6684c54d55dc8b9214c0c2666"),
    case("solve-dde-coarse",
         "solve-dde --chi0 2 --chi1 -2 --u-max 2 --step 1e-2 --stride 10", form=DDE,
         sha256="d765e9c2a9341aec21e4bb06dd48d0a3b8dcb0a6d5b0d7230eae092da670b298"),
    # no digest: numpy's array ** to the non-integer powers e0 and e0 + 1
    # gives other bytes under another SIMD dispatch
    case("solve-dde-non-integer-weights",
         "solve-dde --chi0 2.5 --chi1 -1.7 --u-max 4 --step 1e-3 --stride 10", form=DDE),
    case("asymptotic", f"{REPORT} --limit 100000 --y 100 --q 30", form=ASYMPTOTIC,
         sha256="add38a527db119de380067a2af57e3ef9aadbb921ec6289872668a82f49b4367"),
    case("asymptotic-q1", f"{REPORT} --limit 40000 --y 100 --u-grid 0.5,1.0 --q 1",
         form=ASYMPTOTIC,
         sha256="d85fd7a7ec26d65b28a13bc0622cce956a1775bacb9d175f490e55147997be39"),
    case("asymptotic-q30", f"{REPORT} --limit 1000 --y 10 --u-grid 0.5,1.0 --q 30",
         form=ASYMPTOTIC,
         sha256="61d0300d7c291faa69ab6370d33e7be4a577461bbaac1b2ef0fddb33693897fc"),
    # rows at t = 31, 1000 and 10^6, which test_sieve holds equal to the
    # sums of values_upto
    case("asymptotic-1e6", f"{REPORT} --limit 1000000 --y 1000 --u-grid 0.5,1.0,2.0 --q 30",
         form=ASYMPTOTIC,
         sha256="e189ad29b799a3ca0f773dbfdd7a957705ff7b23fcf504fe3ee49e46e0aa6998"),
    # no table and no value array, which would add 8 (t + 1) bytes: 126 MB
    # at t = 10^7.2, 800 MB at 10^8
    case("asymptotic-2e7",
         f"{REPORT} --limit 20000000 --y 10000 --u-grid 0.5,1.0,1.5,1.8 --q 30",
         form=ASYMPTOTIC, rss_mib=150,
         sha256="eff5ec4679728ee3841acf0ebba08ae69a578bff240fba83355b2179f98bd465"),
    case("asymptotic-1e8", f"{REPORT} --limit 100000000 --y 10000 --u-grid 2.0",
         form=ASYMPTOTIC, rss_mib=60,
         sha256="652e2b820ef7393216422a40feaa43e0fadb95394834faff87920358e4f40a0f"),

    # checks mode and the identity sweep: exit 0 is every check passed
    case("sieve-checks", "sieve-verify",
         sha256="ef953288d649c07bf35304f50269ffa0d008aba899f17c9c8af99ae921d86dab"),
    case("sieve-checks-seed-3", "sieve-verify --seed 3",
         sha256="5e12f43eee54a327efc4190628739ff0ae5498260c787013bf9c1d89df024e9e"),
    case("identity-check", "identity-check",
         sha256="25338d77b202e24a600ef1bd7f240368dc78f79674f53cd1d728b3bcb2f1ab76"),
    case("identity-check-20000", "identity-check --samples 20000",
         sha256="46cc7662f9a9f78c1ea5b3bf2ff98e5912471086501f7c3ad6d032dbc73e250c"),
    case("identity-check-odd", "identity-check --samples 7 --seed 7",
         sha256="69be599eacc7854453868807005f08a795d4a4a001aad91e8e0a8055b56330a2"),
    # sample_coeff_triples sums in chunks
    case("identity-check-1e6", "identity-check --samples 1000000", rss_mib=130,
         sha256="ac6aabf1b5f4d3f5c71dcdf9068bc340d527d27096b0c552803b85cfaacae036"),

    # fetch; a warm run copies the coefficient text from the cache file
    case("fetch", "fetch --label fixture-mixed-1 --coverage 10000 --cache-dir cache",
         sha256="56d511e71f46e4e01b7830c458caae3cfd3ccdfceb9c8514912c5c3c784a2172"),
    case("fetch-1e5", "fetch --label fixture-mixed-1 --coverage 100000 --cache-dir c",
         files=("c", "c/fixture-mixed-1.json", "c/fixture-mixed-1.npz"),
         sha256="2deb72500331b7cea5472f9291b5c0dec7c09a3cf9ae7cd5fcc27ca66c16cd58"),
    case("fetch-1e6", "fetch --label fixture-mixed-2 --coverage 1000000 --cache-dir big",
         sha256="4276574b6937d4a242da49d633c873349a163a044e556513cf8c32da8dd67bd6"),
    # cold, then warm; the bytes of fetch-1e6 but for the config's "out"
    case("fetch-1e6-out", *["fetch --label fixture-mixed-2 --coverage 1000000 "
                            "--cache-dir big --out out.json"] * 2,
         sha256="b5554caceed4f686b848bff0cf72de75dc764621206eacafea9ecc1e931ffce8"),
    # a plain dump, read by the JSON route and then by the index that read
    # wrote; an indented one, which the first read rewrites as write_cache
    # writes it
    case("fetch-seeded", *["fetch --label seeded-1 --cache-dir cache"] * 2,
         setup="seeded", files=("cache", "cache/seeded-1.json", "cache/seeded-1.npz"),
         sha256="c263520e2a58dd83f451dd3de25ab4ff9b92b8a0a02bb5ea27e7196475a8a55b"),
    case("fetch-indented", *["fetch --label indented-1 --cache-dir cache"] * 2,
         setup="indented",
         files=("cache", "cache/indented-1.json", "cache/indented-1.npz"),
         sha256="af9d51903b3bb3fc29d3773eaf42b0e4f1c65b0a609a5fc678c8c4038d78247a"),
    case("fetch-non-utf8", "fetch --label bad --cache-dir cache", setup="non-utf8",
         code=1, err="error: CacheParseError: cache file is not valid JSON", form=""),
    # a failed fetch creates no directory: not --cache-dir, not
    # MAASSLAB_CACHE_DIR, nor their parents
    *(case(name, argv, code=5, err="error: network-unavailable: no endpoint "
           "configured (MAASSLAB_ENDPOINT unset) and no cached record for 'nosuch'",
           form="", files=())
      for name, argv in (("fetch-unknown-label",
                          "fetch --label nosuch --cache-dir new/a/b"),
                         ("fetch-unknown-label-env", "fetch --label nosuch"))),
    case("fetch-cache-file-is-a-directory",
         "fetch --label x --coverage 100 --cache-dir cache", setup="dir-for-file",
         code=1, err="error: io: [Errno 21] Is a directory: 'cache/x.json'", form=""),
    # the read of a label that is not a fixture, then the write of one
    case("fetch-cache-dir-is-a-file", "fetch --label x --coverage 100 --cache-dir file",
         "fetch --label fixture-tempered-1 --coverage 100 --cache-dir file",
         setup="file-for-dir", code=1, err="error: io: [Errno ", form=""),
    case("fetch-out-dir-missing",
         "fetch --label fixture-tempered-1 --coverage 100 --out missing/out.json", code=1,
         err="error: io: [Errno 2] No such file or directory: 'missing/out.json'", form=""),

    # density scans
    case("density-scan", f"{SCAN} --x 100000 --coverage 100000 --cache-dir c",
         sha256="335ac0ebe1ab8a6c59e7b6cd3f1a2337d1fc5362b2a4fe6709e6faf0ffc30394"),
    case("density-scan-data-gap", f"{SCAN} --x 10000 --coverage 100 --cache-dir c",
         code=3, err="error: data-gap: missing coefficients at 2408 primes (first: "
         "[('fixture-mixed-1', 101), ", form=""),
    # refused before any record is fetched or cached
    case("density-scan-label-twice",
         "density-report --scan-labels fixture-mixed-1,fixture-mixed-1 --cache-dir c",
         files=(), **invalid("--scan-labels names 'fixture-mixed-1' twice; a family "
                             "needs distinct forms")),
    case("density-scan-nothing-to-scan", f"{SCAN} --x 3 --coverage 100 --cache-dir c",
         **invalid("every prime up to X = 3 divides one of the levels [6, 10]; "
                   "nothing to scan")),

    # other failures and refusals
    case("first-zero-no-sign-change", "first-zero --chi0 10 --chi1 -0.5", code=1,
         err="error: SignChangeNotFoundError: no sign change of sigma below u = 10 ",
         form=""),
    case("asymptotic-q-past-factoring-cap",
         f"{REPORT} --limit 1000 --y 10 --u-grid 0.5,1.0 --q 1000000000000000003",
         **resource("factoring 1000000000000000003 needs trial divisors above 10000000")),
    case("bound-nan-spectral", "bound --levels 5,7 --spectral nan,1",
         **invalid("spectral_parameter must be finite, got nan")),
    case("bound-base-overflows", "bound --levels 5,7 --spectral 1e308,1e308",
         **invalid("the base prod N_i (1 + |t_i|) overflows float64 for the levels "
                   "[5, 7] and spectral parameters [1e+308, 1e+308]")),
    case("identity-check-one-sample", "identity-check --samples 1",
         **invalid("--samples must be >= 2, got 1")),
    # 10^20 is past the largest array numpy can make; both are refused
    # before any draw
    *(case(f"identity-check-{n}-samples", f"identity-check --samples {n}",
           **resource(f"count {n // 2} exceeds the cap of {CAP} samples per draw"))
      for n in (10 ** 20, 2 * CAP + 2)),
    case("identity-check-negative-seed", "identity-check --samples 10 --seed -1",
         **invalid("--seed must be >= 0, got -1")),
    case("sieve-checks-negative-seed", "sieve-verify --seed -5",
         **invalid("--seed must be >= 0, got -5")),
    *(case(f"{argv.split()[0]}-power-overflows-{i}", argv,
           **invalid(f"u^(e0 + 1) overflows float64 on the grid up to u = {u} at chi0 = "))
      for i, (argv, u) in enumerate((("first-zero --chi0 1e300 --chi1 -1", 10),
                                     ("first-zero --chi0 700 --chi1 -1", 10),
                                     ("solve-dde --chi0 1e300 --chi1 -1 --u-max 2 "
                                      "--step 1e-2", 2)))),
]


def readme_cases() -> list[Case]:
    """Each `maasslab` line of the README's CLI block: exit 0, and the
    output form of its command."""
    text = README.read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        if line.startswith("maasslab "):
            argv = tuple(shlex.split(line)[1:])
            form = DDE if argv[0] == "solve-dde" else (
                ASYMPTOTIC if "asymptotic" in argv else "json")
            out.append(Case(f"README: {line}", (argv,), form=form))
    return out


def cases() -> list[Case]:
    return TABLE + readme_cases()


@contextlib.contextmanager
def _workdir():
    """A fresh temporary working directory and the environment of a case."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {ingest.CACHE_DIR_ENV: CACHE_ENV}):
        os.environ.pop(ingest.ENDPOINT_ENV, None)
        os.chdir(root)
        try:
            yield Path(root)
        finally:
            os.chdir(cwd)


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


# Linux counts in the peak that wait4 reports for a child the memory of the
# process it was spawned from (exec records the old image's high-water
# mark), so a small interpreter, not the runner, spawns the command and
# writes its exit code and peak in KiB to fd 3
_LAUNCHER = """\
import os, sys
argv = [sys.executable, "-m", "maasslab.cli", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
os.write(3, b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


def _in_child(argv):
    """Exit code, stdout, stderr and peak RSS in MiB of `python -m
    maasslab.cli` running argv, with the maasslab this process imported."""
    src = str(Path(maasslab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, \
            tempfile.TemporaryFile() as report:
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", _LAUNCHER, *argv], env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, f.fileno(), fd) for fd, f
                                           in ((1, out), (2, err), (3, report))])
        _, status = os.waitpid(pid, 0)
        out.seek(0)
        err.seek(0)
        report.seek(0)
        if status:
            raise RuntimeError(f"the launcher failed: {err.read().decode()}")
        code, kib = map(int, report.read().split())
        return code, out.read().decode(), err.read().decode(), kib / 1024


def _form_miss(form, text) -> str | None:
    """What keeps text from being output of the form, or None."""
    if form == "" or text == "":
        return None if form == text else f"output {text[:80]!r}, want the form {form!r}"
    *lines, end = text.split("\n")
    if end or (len(lines) != 1 if form == "json" else (
            len(lines) < 3 or lines[1] != form or not lines[0].startswith("# config: "))):
        return f"output starts {lines[:2]}, want the form {form!r}"

    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    doc = lines[0].removeprefix("# config: ")
    try:
        if doc == json.dumps(json.loads(doc, parse_constant=refuse), sort_keys=True):
            return None
    except ValueError:
        pass
    return f"{doc[:80]!r} is not strict sorted-key JSON"


def _argv_misses(case, argv) -> list[str]:
    if case.rss_mib is None:
        code, out, err, warned = _in_process(argv)
        misses = [f"warning: {w}" for w in warned]
    else:
        code, out, err, peak = _in_child(argv)
        misses = [] if peak < case.rss_mib else [
            f"peak RSS {peak:.1f} MiB, bound {case.rss_mib} MiB"]
    if code != case.code:
        misses.append(f"exit {code}, want {case.code}")
    # one line: its first newline ends it
    if not (err.startswith(case.err) and err.find("\n") == len(err) - 1 if case.err
            else err == ""):
        misses.append(f"stderr {err[:300]!r}, want one line starting {case.err!r}"
                      if case.err else f"stderr {err[:300]!r}, want none")
    if code == 0 and "--out" in argv:
        if out:
            misses.append("stdout not empty with --out")
        out = Path(argv[argv.index("--out") + 1]).read_text()
    if (miss := _form_miss(case.form, out)) is not None:
        misses.append(miss)
    digest = hashlib.sha256(out.encode()).hexdigest()
    if case.sha256 is not None and digest != case.sha256:
        misses.append(f"sha256 {digest}, want {case.sha256}")
    return misses


def run_case(case: Case) -> list[str]:
    """What the case's runs missed of it, each as one line; empty if none."""
    misses = []
    with _workdir() as root:
        SETUPS[case.setup]()
        for argv in case.argvs:
            misses += [f"{' '.join(argv)}: {m}" for m in _argv_misses(case, argv)]
        if case.files is not None:
            files = tuple(sorted(p.relative_to(root).as_posix() for p in root.rglob("*")))
            if files != case.files:
                misses.append(f"working directory holds {files}, want {case.files}")
    return misses


def main() -> int:
    all_cases, missed = cases(), 0
    for case in all_cases:
        misses = run_case(case)
        missed += bool(misses)
        print("MISS" if misses else "ok  ", case.name)
        for miss in misses:
            print("     ", miss)
    print(f"{len(all_cases)} cases, {missed} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
