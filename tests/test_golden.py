"""Golden artifacts: every command's CSV and summary.json against stored copies.

Each case runs ``thermoch`` in-process on a shipped config (or a one-line
edit of it) and compares every column of its CSV with the stored artifact
within 1e-12 of the column's scale (the largest magnitude in it), and every
float of its summary.json but the wall time within 1e-12 of itself.  Other
values compare exactly.  The 2-D ``square_semi`` input's artifacts must also
be byte-identical under one and two BLAS threads, in subprocesses.

The exact level: ``sha256.json`` holds the sha256 of every artifact (of
summary.json without the wall time, as stored) and the fingerprint of the
host that took them: NumPy's version, its OpenBLAS build and the OpenBLAS
core picked at load time.  On a host with that fingerprint every digest must
match; elsewhere, CI included, the exact test skips and names both.

Regenerate the stored artifacts, only when a change is meant to move them
(all cases, or the named ones), and then the digests of every case, which
also moves the exact level to this host:
    PYTHONPATH=src python tests/test_golden.py [case ...]
    PYTHONPATH=src python tests/test_golden.py --exact
"""

from __future__ import annotations

import csv
import ctypes
import gzip
import hashlib
import io as textio
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermoch import io_cli as io

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXACT = GOLDEN / "sha256.json"
RTOL = 1e-12

DEMO = "configs/demo.ini"
LOG = "configs/logarithmic.ini"
SQUARE = "tests/golden/square_semi.ini"
ELLIPTIC = "tests/golden/elliptic_2d.ini"
# name -> (argv before the output flags, {config: (source config, text, replacement)}, files)
CASES = {
    "simulate_demo": (["simulate", DEMO], {}, ("trajectory.csv", "summary.json")),
    "simulate_logarithmic": (["simulate", LOG], {}, ("trajectory.csv", "summary.json")),
    "simulate_benchmark": (["simulate", "configs/benchmark.ini"], {}, ("trajectory.csv", "summary.json")),
    "simulate_demo_backward_euler": (
        ["simulate", DEMO], {DEMO: (DEMO, "scheme = semi_implicit", "scheme = backward_euler")},
        ("trajectory.csv", "summary.json"),
    ),
    "simulate_square_semi": (["simulate", SQUARE], {}, ("trajectory.csv", "summary.json")),
    "simulate_square_semi_backward_euler": (
        ["simulate", SQUARE], {SQUARE: (SQUARE, "scheme = semi_implicit", "scheme = backward_euler")},
        ("trajectory.csv", "summary.json"),
    ),
    "converge_modes_demo": (["converge", "modes", DEMO], {}, ("convergence.csv", "summary.json")),
    "converge_eps_demo": (["converge", "eps", DEMO], {}, ("convergence.csv", "summary.json")),
    "converge_dt_benchmark": (
        ["converge", "dt", "configs/benchmark.ini"], {}, ("convergence.csv", "summary.json"),
    ),
    "depend_demo_f": (
        ["depend", DEMO, "demo_f.ini"], {"demo_f.ini": (DEMO, "f = 0.2 ; 0.5: -0.2", "f = 0.25 ; 0.4: -0.1")},
        ("dependence.csv", "summary.json"),
    ),
    "verify_elliptic_2d_seed0": (["verify", "elliptic", ELLIPTIC, "--seed", "0"], {}, ("summary.json",)),
    "verify_elliptic_2d_seed1": (["verify", "elliptic", ELLIPTIC, "--seed", "1"], {}, ("summary.json",)),
    "verify_potentials_logarithmic": (["verify", "potentials", LOG], {}, ("summary.json",)),
    "verify_potentials_demo": (["verify", "potentials", DEMO], {}, ("summary.json",)),
    "verify_potentials_double_obstacle": (
        ["verify", "potentials", LOG], {LOG: (LOG, "kind = logarithmic", "kind = double_obstacle")},
        ("summary.json",),
    ),
    "verify_spectral_demo": (["verify", "spectral", DEMO], {}, ("summary.json",)),
}


def run_case(name: str, workdir: Path) -> Path:
    """Run case ``name`` with its edited configs written to ``workdir``; returns its output directory."""
    argv, edits, _ = CASES[name]
    argv = list(argv)
    for config, (source, old, new) in edits.items():
        text = (ROOT / source).read_text(encoding="utf-8")
        assert old in text, f"{old!r} is not in {source}"
        path = workdir / Path(config).name
        path.write_text(text.replace(old, new), encoding="utf-8")
        argv[argv.index(config)] = str(path)
    argv = [str(ROOT / a) if a.endswith(".ini") and not Path(a).is_absolute() else a for a in argv]
    out = workdir / "out"
    assert io.main(argv + ["--output-dir", str(out), "--quiet"]) == 0
    return out


@pytest.fixture(scope="module")
def case_output(tmp_path_factory):
    """The output directory of case ``name``, which runs once per module."""
    outputs = {}

    def get(name: str) -> Path:
        if name not in outputs:
            outputs[name] = run_case(name, tmp_path_factory.mktemp(name))
        return outputs[name]

    return get


def _canonical_summary(data: bytes) -> str:
    """A summary.json without its wall time, as the golden copies store it."""
    summary = json.loads(data)
    del summary["wall_time_s"]
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _digest(out: Path, file: str) -> str:
    data = (out / file).read_bytes()
    return hashlib.sha256(_canonical_summary(data).encode() if file == "summary.json" else data).hexdigest()


def host_fingerprint() -> dict:
    """What fixes an artifact's bits besides the code: NumPy's version, the configuration of
    the OpenBLAS it was built with and the core whose kernels that OpenBLAS picked at load
    time (None where the library bundled with NumPy cannot be asked)."""
    core = None
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = (), ctypes.c_char_p
            core = corename().decode()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas configuration": blas.get("openblas configuration"),
            "openblas core": core}


def _machine() -> str:
    """The processor, for the record: the fingerprint decides where digests compare."""
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return f"{platform.machine()}, {models[0] if models else platform.processor()}, {os.cpu_count()} logical CPUs"


def _stored(name: str, file: str) -> str:
    path = GOLDEN / name / file
    if file == "trajectory.csv":
        return gzip.decompress(path.with_suffix(".csv.gz").read_bytes()).decode("utf-8")
    return path.read_text(encoding="utf-8")


def _table(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(textio.StringIO(text)))
    return rows[0], np.array([[float(x) if x else np.nan for x in r] for r in rows[1:]])


def _assert_columns_close(got: np.ndarray, expected: np.ndarray, header: list[str]) -> None:
    assert got.shape == expected.shape
    for j, key in enumerate(header):
        scale = np.nanmax(np.abs(expected[:, j]), initial=0.0)
        assert np.array_equal(np.isnan(got[:, j]), np.isnan(expected[:, j])), key
        err = np.nanmax(np.abs(got[:, j] - expected[:, j]), initial=0.0)
        assert err <= RTOL * scale, f"column {key}: {err:.3e} > {RTOL} * {scale:.3e}"


def _leaves(obj, prefix=""):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _leaves(value, f"{prefix}/{key}")
    else:
        yield prefix, obj


def _assert_summary_close(got: dict, expected: dict) -> None:
    got.pop("wall_time_s", None)
    got_leaves, exp_leaves = dict(_leaves(got)), dict(_leaves(expected))
    assert got_leaves.keys() == exp_leaves.keys()
    for key, value in exp_leaves.items():
        new = got_leaves[key]
        if isinstance(value, float):
            assert abs(new - value) <= RTOL * abs(value), f"{key}: {new} vs {value}"
        else:
            assert new == value, key


def _reject_constant(token: str):
    raise ValueError(f"summary.json holds the non-JSON token {token}")


@pytest.mark.parametrize("name", list(CASES))
def test_matches_golden(name, case_output):
    out = case_output(name)
    for file in CASES[name][2]:
        text = (out / file).read_text(encoding="utf-8")
        if file == "summary.json":  # strict JSON: no NaN or Infinity
            _assert_summary_close(json.loads(text, parse_constant=_reject_constant), json.loads(_stored(name, file)))
        else:
            header, got = _table(text)
            stored_header, expected = _table(_stored(name, file))
            assert header == stored_header
            _assert_columns_close(got, expected, header)


@pytest.mark.parametrize("name", list(CASES))
def test_matches_golden_exactly(name, case_output):
    stored = json.loads(EXACT.read_text(encoding="utf-8"))
    host = host_fingerprint()
    if host != stored["fingerprint"]:
        pytest.skip(f"the digests were taken on {stored['fingerprint']}; this host is {host}")
    expected = {f"{name}/{file}": stored["sha256"].get(f"{name}/{file}") for file in CASES[name][2]}
    got = {f"{name}/{file}": _digest(case_output(name), file) for file in CASES[name][2]}
    assert got == expected, "an artifact's bits moved; if that is meant, re-take the digests (module docstring)"


@pytest.mark.parametrize("scheme", ["semi_implicit", "backward_euler"])
def test_artifacts_do_not_depend_on_the_blas_thread_count(scheme, tmp_path):
    # The 16,384-point grid is large enough for OpenBLAS to split a dot over it
    # between two threads; the artifacts must not see the split.
    config = tmp_path / "square.ini"
    text = (ROOT / SQUARE).read_text(encoding="utf-8")
    config.write_text(text.replace("scheme = semi_implicit", f"scheme = {scheme}"), encoding="utf-8")
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        argv = [sys.executable, "-m", "thermoch", "simulate", str(config), "--output-dir", str(out), "--quiet"]
        subprocess.run(argv, env=env, check=True, timeout=120)
        summary = (out / "summary.json").read_text(encoding="utf-8").splitlines()
        artifacts.append(((out / "trajectory.csv").read_bytes(), [x for x in summary if '"wall_time_s":' not in x]))
    assert artifacts[0] == artifacts[1]
    assert len(artifacts[0][0].splitlines()) == 22 and f'"scheme": "{scheme}"' in "".join(artifacts[0][1])


def regenerate(workroot: Path, names: list[str]) -> None:
    for name in names:
        files = CASES[name][2]
        workdir = workroot / name
        workdir.mkdir(parents=True)
        out = run_case(name, workdir)
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for file in files:
            data = (out / file).read_bytes()
            if file == "summary.json":
                (GOLDEN / name / file).write_text(_canonical_summary(data))
            elif file == "trajectory.csv":
                (GOLDEN / name / (file + ".gz")).write_bytes(gzip.compress(data, mtime=0))
            else:
                (GOLDEN / name / file).write_bytes(data)


def take_digests(workroot: Path) -> None:
    """Run every case and write its artifacts' digests with this host's fingerprint."""
    digests = {}
    for name, (_, _, files) in CASES.items():
        (workroot / name).mkdir(parents=True)
        out = run_case(name, workroot / name)
        digests.update({f"{name}/{file}": _digest(out, file) for file in files})
    record = {"fingerprint": host_fingerprint(), "machine": _machine(), "sha256": digests}
    EXACT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["--exact"]:
            take_digests(Path(tmp))
        else:
            regenerate(Path(tmp), sys.argv[1:] or list(CASES))
