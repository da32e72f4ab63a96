import dataclasses
import gc
import json
import math
import os
import platform
import random
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import grid_coords
from thermoch import galerkin
from thermoch import io_cli as io
from thermoch import potentials
from thermoch import spectral as sp
from thermoch.errors import ConfigurationError

# Runs ``main`` in a fresh process and prints the process's minor page-fault
# count at each recorded time level.
FAULT_PROBE = """
import json, resource, sys
from thermoch import galerkin, io_cli

faults = []
simulate = galerkin.simulate

def counted(*args, observers=(), **kwargs):
    def count(k, level):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return simulate(*args, observers=(*observers, count), **kwargs)

galerkin.simulate = counted
code = io_cli.main(["simulate", sys.argv[1], "--output-dir", sys.argv[2], "--quiet"])
print(json.dumps(faults))
sys.exit(code)
"""

# Runs ``main`` in a fresh process under a 3 GiB address-space limit.
ADDRESS_SPACE_PROBE = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from thermoch import io_cli
sys.exit(io_cli.main(["simulate", sys.argv[1], "--output-dir", sys.argv[2], "--quiet"]))
"""

# Runs ``main`` in a fresh process and prints which of the modules that a
# command has no use for were imported, and the collector's freeze count.
IMPORT_PROBE = """
import gc, json, sys
from thermoch import io_cli
code = io_cli.main(sys.argv[1:])
loaded = [name for name in ("numpy.random", "locale", "argparse") if name in sys.modules]
print(json.dumps({"loaded": loaded, "frozen": gc.get_freeze_count()}))
sys.exit(code)
"""

MINIMAL = """
[data]
phi0 = 0.3
"""

FULL = """
# full demo
[domain]
dim = 1
lengths = 1.0
grid = 32
n_modes = 8

[physics]
gamma = 1.0
a = 0.0
b = 1.0
kappa1 = 1.0
kappa2 = 1.0
lambda = 2.0

[potential]
kind = regular
eps = 0.1

[data]
phi0 = 0.1 + 0.2*cos(1)
w0 = 0.0
w1 = 0.0
f = 0.0
g = 0.0

[time]
t_final = 0.2
dt = 0.01
scheme = semi_implicit

[output]
directory = out
"""


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run_import_probe(tmp_path, argv):
    """``IMPORT_PROBE``'s report on ``main(argv + configs + flags)`` in a fresh process."""
    cfg = write_config(tmp_path, FULL + "\n[experiment]\ntrials = 2\nsamples = 100\n")
    configs = [str(cfg)] * (2 if argv == ["depend"] else 1)
    env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv, *configs,
         "--output-dir", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestExpressions:
    def test_constant(self):
        domain = sp.BoxDomain((1.0,), 16)
        f = io.parse_field_expr("0.25", domain, "data.phi0")
        assert np.allclose(f.values, 0.25)

    def test_cosine_sum(self):
        domain = sp.BoxDomain((1.0,), 32)
        f = io.parse_field_expr("0.1 + 0.5*cos(1) - 0.2*cos(3)", domain, "data.phi0")
        x = domain.grid_axes()[0]
        expected = 0.1 + 0.5 * np.cos(np.pi * x) - 0.2 * np.cos(3 * np.pi * x)
        assert np.allclose(f.values, expected, atol=1e-14)

    def test_bare_cosine_and_negative_leading(self):
        domain = sp.BoxDomain((1.0,), 16)
        f = io.parse_field_expr("-0.5 + cos(2)", domain, "data.phi0")
        x = domain.grid_axes()[0]
        assert np.allclose(f.values, -0.5 + np.cos(2 * np.pi * x), atol=1e-14)

    def test_two_dimensional_modes(self):
        domain = sp.BoxDomain((1.0, 2.0), 16)
        f = io.parse_field_expr("0.3*cos(1,2)", domain, "data.phi0")
        xs, ys = grid_coords(domain)
        assert np.allclose(
            f.values, 0.3 * np.cos(np.pi * xs) * np.cos(np.pi * ys), atol=1e-14
        )

    def test_schedule(self):
        domain = sp.BoxDomain((1.0,), 16)
        src = io.parse_source_expr("0.5 ; 0.5: 0.2 + 0.1*cos(1)", domain, "data.f")
        assert src.times == (0.0, 0.5) and np.all(src.fields[0].values == 0.5)
        x = domain.grid_axes()[0]
        assert np.allclose(src.fields[1].values, 0.2 + 0.1 * np.cos(np.pi * x), atol=1e-14)

    @pytest.mark.parametrize(
        "bad",
        ["", "0.1 +", "cos()", "sin(1)", "0.1 0.2", "1 ; 0.5:", "x + 1"],
    )
    def test_malformed_rejected(self, bad):
        domain = sp.BoxDomain((1.0,), 16)
        with pytest.raises(ConfigurationError) as info:
            io.parse_source_expr(bad, domain, "data.f")
        assert str(info.value).startswith("data.f: ") and not any(tag in str(info.value) for tag in TAGS)

    # A cosine the domain cannot hold is a broken rule, one tagged line each; cos(64)
    # and cos(127) on a 64-point grid once ran as rounding and as cos(1).
    @pytest.mark.parametrize("text, lengths, lines", [
        ("cos(1,2)", (1.0,), ["(2.12) data.f term cos(1,2) needs one index per axis of a 1-d domain"]),
        ("0.1 + cos(1)", (1.0, 2.0), ["(2.12) data.f term cos(1) needs one index per axis of a 2-d domain"]),
        ("0.1*cos(9)", (1.0,), ["(2.11) data.f term cos(9) has a wavenumber above grid // 2 = 8"]),
        ("cos(8,0) - cos(0, 9) + cos(1,1,1)", (1.0, 2.0), [
            "(2.11) data.f term cos(0, 9) has a wavenumber above grid // 2 = 8",
            "(2.12) data.f term cos(1,1,1) needs one index per axis of a 2-d domain"]),
    ], ids=["cos(1,2)", "one-index-in-2d", "wavenumber", "two-terms"])
    def test_cosine_the_domain_cannot_hold_is_one_tagged_line(self, text, lengths, lines):
        with pytest.raises(ConfigurationError) as info:
            io.parse_source_expr(text, sp.BoxDomain(lengths, 16), "data.f")
        assert str(info.value).splitlines() == lines


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = io.parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.sections["physics"]["gamma"] == "1.0"
        assert cfg.sections["data"]["phi0"] == "0.3"
        assert cfg.scheme == "semi_implicit"
        assert cfg.data.params.gamma == 1.0

    def test_round_trip_equality(self, tmp_path):
        cfg = io.parse_config(write_config(tmp_path, FULL))
        again = io.config_from_sections(cfg.sections)
        assert cfg == again

    def test_gamma_zero_rejected(self, tmp_path):
        path = write_config(tmp_path, FULL.replace("gamma = 1.0", "gamma = 0"))
        with pytest.raises(ConfigurationError, match=r"\(2\.5\).*gamma"):
            io.parse_config(path)

    def test_logarithmic_amplitude_rejected(self, tmp_path):
        text = FULL.replace("kind = regular", "kind = logarithmic\nc1 = 2.0").replace(
            "phi0 = 0.1 + 0.2*cos(1)", "phi0 = 1.2"
        )
        with pytest.raises(ConfigurationError, match=r"\(2\.14\)"):
            io.parse_config(write_config(tmp_path, text))

    def test_source_band_rejected(self, tmp_path):
        text = FULL.replace("kind = regular", "kind = logarithmic\nc1 = 2.0").replace(
            "f = 0.0", "f = 5.0"
        )
        with pytest.raises(ConfigurationError, match=r"\(2\.14\)"):
            io.parse_config(write_config(tmp_path, text))

    def test_every_violation_carries_exactly_one_tag(self, tmp_path):
        bad = FULL.replace("gamma = 1.0", "gamma = -1").replace(
            "kappa1 = 1.0", "kappa1 = 0"
        ).replace("eps = 0.1", "eps = 2.0").replace("dt = 0.01", "dt = 0")
        with pytest.raises(ConfigurationError) as info:
            io.parse_config(write_config(tmp_path, bad))
        tags = ["(2.5)", "(2.11)", "(2.12)", "(2.13)", "(2.14)"]
        lines = str(info.value).splitlines()
        assert len(lines) >= 4
        for line in lines:
            assert sum(line.count(tag) for tag in tags) == 1, line

    @pytest.mark.parametrize(
        "section,key", [("physics", "mass"), ("experiment", "kind"), ("output", "formats")]
    )
    def test_unknown_key_is_parse_error(self, tmp_path, section, key):
        text = MINIMAL + f"\n[{section}]\n{key} = 1\n"
        with pytest.raises(ConfigurationError) as info:
            io.parse_config(write_config(tmp_path, text))
        assert str(info.value) == f"unknown key '{key}' in section [{section}]"

    def test_syntax_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigurationError, match="line"):
            io.parse_config(write_config(tmp_path, "[domain\ndim = 1\n"))

    def test_interpolation_error_is_parse_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="interpolation"):
            io.parse_config(write_config(tmp_path, "[data]\nphi0 = %(x)s\n"))

    def test_capacity_violation(self, tmp_path):
        text = FULL.replace("n_modes = 8", "n_modes = 20")
        with pytest.raises(ConfigurationError, match=r"\(2\.11\).*capacity"):
            io.parse_config(write_config(tmp_path, text))

    def test_unsupported_dimension_tagged(self, tmp_path):
        text = FULL.replace("dim = 1", "dim = 3").replace(
            "lengths = 1.0", "lengths = 1.0, 1.0, 1.0"
        )
        with pytest.raises(ConfigurationError, match=r"\(2\.12\).*dim"):
            io.parse_config(write_config(tmp_path, text))


TAGS = ("(2.5)", "(2.11)", "(2.12)", "(2.13)", "(2.14)")


def first_tag(tmp_path, *replacements):
    text = FULL
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(ConfigurationError) as info:
        io.parse_config(write_config(tmp_path, text))
    return str(info.value).split()[0]


# One corruption per rule, each with the tag its message carries.
RULES = [
    ("gamma", "(2.5)", [("gamma = 1.0", "gamma = 0")]),
    ("b", "(2.5)", [("b = 1.0", "b = -1")]),
    ("kappa1", "(2.5)", [("kappa1 = 1.0", "kappa1 = 0")]),
    ("kappa2", "(2.5)", [("kappa2 = 1.0", "kappa2 = 0")]),
    ("lambda", "(2.5)", [("lambda = 2.0", "lambda = 0")]),
    ("a-number", "(2.5)", [("a = 0.0", "a = zero")]),
    ("dim-range", "(2.12)", [("dim = 1", "dim = 3"), ("lengths = 1.0", "lengths = 1, 1, 1")]),
    ("dim-integer", "(2.12)", [("dim = 1", "dim = one")]),
    ("dim-alias", "(2.12)", [("dim = 1", "dim = 2")]),
    ("lengths", "(2.12)", [("lengths = 1.0", "lengths = -1.0")]),
    ("lengths-number", "(2.12)", [("lengths = 1.0", "lengths = 1.0,")]),
    ("grid", "(2.11)", [("grid = 32", "grid = 3"), ("n_modes = 8", "n_modes = 2")]),
    ("grid-integer", "(2.11)", [("grid = 32", "grid = 32.5")]),
    ("n_modes", "(2.11)", [("n_modes = 8", "n_modes = 0")]),
    ("capacity", "(2.11)", [("n_modes = 8", "n_modes = 18")]),
    ("kind", "(2.11)", [("kind = regular", "kind = quartic")]),
    ("c1", "(2.11)", [("kind = regular", "kind = logarithmic\nc1 = 1.0")]),
    ("c2", "(2.11)", [("kind = regular", "kind = double_obstacle\nc2 = 0")]),
    ("eps", "(2.11)", [("eps = 0.1", "eps = 1.0")]),
    ("t_final", "(2.11)", [("t_final = 0.2", "t_final = -1")]),
    ("dt", "(2.11)", [("dt = 0.01", "dt = 0")]),
    ("scheme", "(2.11)", [("scheme = semi_implicit", "scheme = leapfrog")]),
    ("source", "(2.13)", [("f = 0.0", "f = 1e400")]),
    ("switch-time", "(2.11)", [("f = 0.0", "f = 0.2 ; nan: -0.2")]),
    ("thermal-source", "(2.13)", [("g = 0.0", "g = 1e999")]),
    ("initial-w0", "(2.14)", [("w0 = 0.0", "w0 = 1e999")]),
    ("compatibility", "(2.14)", [("kind = regular", "kind = logarithmic\nc1 = 2.0"),
                                 ("phi0 = 0.1 + 0.2*cos(1)", "phi0 = 1.2")]),
]


@pytest.mark.parametrize("tag,replacements", [r[1:] for r in RULES], ids=[r[0] for r in RULES])
def test_each_rule_reports_its_tag(tmp_path, tag, replacements):
    assert first_tag(tmp_path, *replacements) == tag


@pytest.mark.parametrize(
    "old,new",
    [
        ("t_final = 0.2", "t_final = nan"),
        ("gamma = 1.0", "gamma = inf"),
        ("lengths = 1.0", "lengths = nan"),
        ("a = 0.0", "a = nan"),
        ("kind = regular", "kind = regular\nc1 = inf"),
        ("[output]", "[experiment]\ntrials = abc\n[output]"),
        ("[output]", "[experiment]\nsamples = -5\n[output]"),
        ("[output]", "[experiment]\nschedule = 0.1, x\n[output]"),
    ],
    ids=["t_final-nan", "gamma-inf", "lengths-nan", "a-nan", "c1-inf", "trials-abc",
         "samples-negative", "schedule-word"],
)
def test_non_finite_and_unchecked_input_exit_2(tmp_path, capsys, old, new):
    # A constant phi0 keeps a nan length out of the compatibility check.
    text = FULL.replace("phi0 = 0.1 + 0.2*cos(1)", "phi0 = 0.3")
    cfg = write_config(tmp_path, text.replace(old, new))
    assert io.main(["simulate", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines
    for line in lines:
        assert sum(line.count(tag) for tag in TAGS) == 1, line


# A bare float() let a nan switch time through (no switch ever came, and the
# run exited 0); w0, w1 and g = 1e999 were admitted and exited 3 after bisecting
# the first step to 3e-11; phi0 = 1e999 was reported as two (2.14) lines.
@pytest.mark.parametrize("old, new, line", [
    *(("f = 0.0", f"f = 0.2 ; {t}: -0.2", f"(2.11) data.f switch time must be a finite number, got '{t}'")
      for t in ("nan", "inf", "1e999", "-inf")),
    ("f = 0.0", "f = 0.2 ; 0.5: -0.2 ; 0.3: 0.1",
     "(2.11) a source's start times must be strictly increasing, got (0.0, 0.5, 0.3)"),
    ("g = 0.0", "g = 0.1: 0.2", "(2.11) a source's first segment must start at 0, got start times (0.1,)"),
    ("g = 0.0", "g = 0.2 ; 0.1", "(2.11) a source's start times must be strictly increasing, got (0.0, 0.0)"),
    ("g = 0.0", "g = 0.2 ; soon: -0.2", "(2.11) data.g switch time must be a finite number, got 'soon'"),
    ("phi0 = 0.1 + 0.2*cos(1)", "phi0 = 1e999", "(2.14) initial datum phi0 must be finite"),
    ("w0 = 0.0", "w0 = 1e999", "(2.14) initial datum w0 must be finite"),
    ("w1 = 0.0", "w1 = 1e999*cos(1)", "(2.14) initial datum w1 must be finite"),
    ("g = 0.0", "g = 0.1 ; 0.05: 1e999", "(2.13) source amplitude sup|g| must be finite"),
], ids=["switch-nan", "switch-inf", "switch-1e999", "switch--inf", "decreasing", "late-start", "two-at-zero",
        "switch-word", "phi0", "w0", "w1", "g"])
def test_bad_data_exits_2_with_one_tagged_line(tmp_path, capsys, old, new, line):
    cfg = write_config(tmp_path, FULL.replace(old, new))
    assert io.main(["simulate", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]


# A broken rule once hid every data and t_final line: the data and t_final
# were read only when every other object had built.
@pytest.mark.parametrize("old, new", [
    ("t_final = 0.2", "t_final = abc"),
    ("phi0 = 0.1 + 0.2*cos(1)", "phi0 = 0.1*cos(1,1)"),
    ("phi0 = 0.1 + 0.2*cos(1)", "phi0 = 0.1*sin(1)"),
    ("phi0 = 0.1 + 0.2*cos(1)", "phi0 = 0.1*cos(127)"),
], ids=["t_final", "index-count", "syntax", "wavenumber"])
def test_a_broken_rule_hides_no_data_or_t_final_line(tmp_path, capsys, old, new):
    def stderr_of(text):
        assert io.main(["simulate", str(write_config(tmp_path, text)), "--quiet"]) == 2
        return capsys.readouterr().err.splitlines()

    alone = stderr_of(FULL.replace(old, new))
    assert len(alone) == 1
    paired = stderr_of(FULL.replace(old, new).replace("gamma = 1.0", "gamma = -1"))
    assert paired == ["error: (2.5) gamma must be a positive constant, got -1.0", alone[0].removeprefix("error: ")]


# Each value is built once the values it reads are, so a broken rule hides only what
# reads it: each of these pairs once printed one of its lines alone, and the two data
# keys the same line twice.
@pytest.mark.parametrize("text, lines", [
    ("[domain]\ndim = x\ngrid = y\n", ["(2.12) domain.dim must be a finite integer, got 'x'",
                                         "(2.11) domain.grid must be a finite integer, got 'y'"]),
    ("[domain]\ngrid = 2\nn_modes = x\n", ["(2.11) domain.n_modes must be a finite integer, got 'x'",
                                            "(2.11) grid must be >= 4, got 2"]),
    ("[domain]\nn_modes = 100\n[data]\nphi0 = 0.1*sin(1)\n", [
        "(2.11) n_modes = 100 exceeds the capacity of 33 modes on a 64-point-per-axis grid",
        "data.phi0: cannot parse field expression at '...*sin(1)'"]),
    ("[potential]\nkind = nosuch\nc1 = zz\n", ["(2.11) potential.c1 must be a finite number, got 'zz'",
                                                "(2.11) unknown potential kind 'nosuch'"]),
    ("[time]\ndt = abc\nscheme = nosuch\n", [
        "(2.11) time.dt must be a finite number, got 'abc'",
        "(2.11) scheme must be one of ('semi_implicit', 'backward_euler'), got 'nosuch'"]),
    ("[data]\nphi0 = 0.1*cos(1,1)\nw0 = 0.2*cos(1,1)\n", [
        "(2.12) data.phi0 term cos(1,1) needs one index per axis of a 1-d domain",
        "(2.12) data.w0 term cos(1,1) needs one index per axis of a 1-d domain"]),
], ids=["dim-grid", "grid-n_modes", "n_modes-data", "kind-c1", "dt-scheme", "two-data-keys"])
def test_a_broken_rule_hides_only_what_reads_it(tmp_path, capsys, text, lines):
    assert io.main(["simulate", str(write_config(tmp_path, text)), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: " + lines[0], *lines[1:]]


def test_comma_list_items_are_echoed_stripped(tmp_path):
    text = "[domain]\nlengths = 1.0, x\n[experiment]\nschedule = 0.1,  y\n"
    with pytest.raises(ConfigurationError) as info:
        io.parse_config(write_config(tmp_path, text))
    assert str(info.value).splitlines() == ["(2.12) domain.lengths item 2 must be a finite number, got 'x'",
                                            "(2.11) experiment.schedule item 2 must be a finite number, got 'y'"]


# Each item of a list of several names its position; ``lengths = ,`` once printed one line twice.
@pytest.mark.parametrize("text, lines", [
    ("[domain]\nlengths = ,\n", ["(2.12) domain.lengths item 1 must be a finite number, got ''",
                                  "(2.12) domain.lengths item 2 must be a finite number, got ''"]),
    ("[experiment]\nschedule = 1, ,\n", ["(2.11) experiment.schedule item 2 must be a finite number, got ''",
                                         "(2.11) experiment.schedule item 3 must be a finite number, got ''"]),
    ("[domain]\nlengths = x\n", ["(2.12) domain.lengths must be a finite number, got 'x'"]),
], ids=["lengths", "schedule", "one-item"])
def test_comma_list_items_are_named_by_position(tmp_path, text, lines):
    with pytest.raises(ConfigurationError) as info:
        io.parse_config(write_config(tmp_path, text))
    assert str(info.value).splitlines() == lines


# int() and float() read digit-group underscores and non-ASCII digits, so ``grid = 6_4``
# and a full-width ``grid = ６４`` once ran as grid 64; every number now has one ASCII grammar.
@pytest.mark.parametrize("text, line", [
    ("[domain]\ngrid = 6_4\n", "(2.11) domain.grid must be a finite integer, got '6_4'"),
    ("[domain]\ngrid = \uff16\uff14\n", "(2.11) domain.grid must be a finite integer, got '\uff16\uff14'"),
    ("[physics]\ngamma = 1_0.5\n", "(2.5) physics.gamma must be a finite number, got '1_0.5'"),
    ("[data]\nf = 0.2 ; 0_5: -0.2\n", "(2.11) data.f switch time must be a finite number, got '0_5'"),
    ("[data]\nphi0 = \uff10.1\n", "data.phi0: cannot parse field expression at '...\uff10.1'"),
    ("[data]\nphi0 = 0.1*cos(\uff11)\n", "data.phi0: cannot parse field expression at '...*cos(\uff11)'"),
], ids=["grid-underscore", "grid-full-width", "gamma-underscore", "switch-underscore", "coef-full-width",
        "mode-full-width"])
def test_numbers_are_ascii(tmp_path, text, line):
    with pytest.raises(ConfigurationError) as info:
        io.parse_config(write_config(tmp_path, text))
    assert str(info.value).splitlines() == [line]


# An unknown section or key is one untagged line of the same pass: it hides no other line.
@pytest.mark.parametrize("text, lines", [
    ("[physics]\ngama = 1\nb = -1\n", ["unknown key 'gama' in section [physics]",
                                          "(2.5) b must be a positive constant, got -1.0"]),
    ("[physicz]\nb = -1\n[time]\nt_final = abc\n", ["unknown section [physicz]",
                                                       "(2.11) time.t_final must be a finite number, got 'abc'"]),
    ("[nosuch]\nx = 1\n[time]\nsteps = 3\n", ["unknown section [nosuch]", "unknown key 'steps' in section [time]"]),
], ids=["key", "section", "both"])
def test_unknown_names_join_the_pass(tmp_path, capsys, text, lines):
    assert io.main(["simulate", str(write_config(tmp_path, text)), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: " + lines[0], *lines[1:]]


def test_problem_data_rules_wait_only_for_its_parts(tmp_path):
    # dt is not a part of ProblemData, so its broken rule hides no ProblemData line.
    text = FULL.replace("dt = 0.01", "dt = 0").replace("t_final = 0.2", "t_final = -1")
    with pytest.raises(ConfigurationError) as info:
        io.parse_config(write_config(tmp_path, text))
    assert str(info.value).splitlines() == [
        "(2.11) dt must be positive, got 0.0",
        "(2.11) t_final must be >= 0, got -1.0",
    ]


def test_each_data_expression_parsed_once(tmp_path, monkeypatch):
    calls = []
    parse = io.parse_field_expr

    def counting(text, domain, key):
        calls.append(text)
        return parse(text, domain, key)

    monkeypatch.setattr(io, "parse_field_expr", counting)
    cfg = write_config(tmp_path, FULL.replace("f = 0.0", "f = 0.2 ; 0.1: -0.2"))
    assert io.main(["simulate", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(calls) == 3 + 2 + 1  # phi0, w0, w1, two f segments, one g segment


class TestSeededDraws:
    def test_uniforms_lie_in_the_unit_interval(self):
        u = io.uniforms(random.Random(0), 100_000)
        assert u.shape == (100_000,)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))  # 53 random bits each

    @pytest.mark.parametrize("draw", [io.uniforms, io.standard_normals])
    def test_same_seed_same_arrays(self, draw):
        first, second = draw(random.Random(5), 1000), draw(random.Random(5), 1000)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, draw(random.Random(6), 1000))

    def test_normal_moments(self):
        n = 100_000
        z = io.standard_normals(random.Random(3), n)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) <= 6.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 6.0 * math.sqrt(2.0 / n)

    def test_largest_seed_is_accepted(self, tmp_path):
        seed = 2**64 - 1
        cfg, out = write_config(tmp_path, FULL), tmp_path / "out"
        argv = ["verify", "spectral", str(cfg), "--output-dir", str(out), "--quiet"]
        assert io.main([*argv, "--seed", str(seed)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == seed
        with pytest.raises(SystemExit):
            io.main([*argv, "--seed", str(seed + 1)])


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = float(struct.unpack("<d", rng.bytes(8))[0])
            if not np.isfinite(x):
                continue
            assert float(io.format_float(x)) == x


class TestCli:
    def test_simulate_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, FULL)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert io.main(["simulate", str(cfg), "--output-dir", str(out1), "--quiet"]) == 0
        assert io.main(["simulate", str(cfg), "--output-dir", str(out2), "--quiet"]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        s1.pop("wall_time_s"), s2.pop("wall_time_s")
        assert s1 == s2
        assert s1["violations"] == []
        header = (out1 / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith(
            "t,mean_phi,mean_phi_exact,energy,dissipation_mu,dissipation_w,source_power"
        )

    def test_summary_echo_reparses(self, tmp_path):
        cfg_path = write_config(tmp_path, FULL)
        out = tmp_path / "echo"
        assert io.main(["simulate", str(cfg_path), "--output-dir", str(out), "--quiet"]) == 0
        echoed = json.loads((out / "summary.json").read_text())["config"]
        cfg = io.parse_config(cfg_path)
        assert io.config_from_sections(echoed) == cfg

    def test_validation_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, FULL.replace("gamma = 1.0", "gamma = 0"))
        assert io.main(["simulate", str(cfg), "--quiet"]) == 2

    def test_unknown_section_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FULL + "\n[nosuch]\nkey = 1\n")
        assert io.main(["simulate", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: unknown section [nosuch]\n"

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[domain]\ngrid = 64 \xff\n")
        assert io.main(["simulate", str(path), "--quiet"]) == 2
        assert f"{path}: not UTF-8 text at byte 19" in capsys.readouterr().err

    @pytest.mark.skipif(sys.platform != "linux", reason="needs an enforced RLIMIT_AS")
    def test_unallocatable_grid_exit_code(self, tmp_path):
        # The address-space limit is set before the run, so the 3.6 TiB
        # index array of a 10^12-point grid is refused, never allocated.
        cfg = write_config(tmp_path, "[domain]\ngrid = 1000000000000\n")
        env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", ADDRESS_SPACE_PROBE, str(cfg), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert "(2.11) the problem does not fit in memory" in done.stderr

    @pytest.mark.parametrize("scheme", galerkin.SCHEMES)
    def test_overflowing_dt_exit_code(self, tmp_path, scheme):
        # dt^2 overflows to inf, so the step operator of dt is not finite: a
        # validation error before any step.  In a subprocess, where a numpy
        # warning would reach stderr instead of failing the test.
        cfg = write_config(tmp_path, f"[time]\nt_final = 1e300\ndt = 1e299\nscheme = {scheme}\n")
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "thermoch", "simulate", str(cfg), "--output-dir", str(out), "--quiet"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr == "error: (2.11) dt = 1e+299 is too large: the step operator is not finite\n"
        assert not (out / "trajectory.csv").exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert io.main(["simulate", str(tmp_path / "absent.ini"), "--quiet"]) == 4

    def test_non_finite_step_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            galerkin, "_semi_implicit_phi", lambda ev, op, base: np.full_like(base, np.nan)
        )
        out = tmp_path / "nan"
        assert io.main(["simulate", str(write_config(tmp_path, FULL)), "--output-dir", str(out), "--quiet"]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_records"] == 1
        assert any("step failed" in v for v in summary["violations"])

    @pytest.mark.parametrize("target", ["potentials", "spectral", "elliptic"])
    def test_verify_targets(self, tmp_path, target):
        cfg = write_config(tmp_path, FULL)
        out = tmp_path / f"v_{target}"
        code = io.main(
            ["verify", target, str(cfg), "--output-dir", str(out), "--quiet", "--seed", "1"]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == []

    def test_verify_deterministic_for_fixed_seed(self, tmp_path):
        cfg = write_config(tmp_path, FULL)
        outs = []
        for name in ("va", "vb"):
            out = tmp_path / name
            assert io.main(
                ["verify", "elliptic", str(cfg), "--output-dir", str(out), "--quiet",
                 "--seed", "7"]
            ) == 0
            summary = json.loads((out / "summary.json").read_text())
            summary.pop("wall_time_s")
            outs.append(summary)
        assert outs[0] == outs[1]
        for key in ("newton_iterations", "krylov_iterations", "line_search_halvings"):
            count = outs[0]["metrics"][key]
            assert isinstance(count, int) and count > 0

    @pytest.mark.parametrize("config", ["demo.ini", "benchmark.ini"])
    def test_flat_slope_shift_keeps_the_line_search_short(self, tmp_path, config):
        # The regular graph is flat at the zero start of every solve, where the
        # shift sets the length of the mean-mode step; on the same seed-0 draws
        # a shift of 1e-10 times the Jacobian bound gives 431 (demo) and 476
        # (benchmark) halvings.
        cfg = Path(__file__).parents[1] / "configs" / config
        out = tmp_path / "ell"
        assert io.main(
            ["verify", "elliptic", str(cfg), "--output-dir", str(out), "--quiet", "--seed", "0"]
        ) == 0
        metrics = json.loads((out / "summary.json").read_text())["metrics"]
        assert (metrics["newton_iterations"], metrics["line_search_halvings"]) == {
            "demo.ini": (251, 70), "benchmark.ini": (252, 70)
        }[config]

    @pytest.mark.parametrize(
        "vary, schedule",
        [
            ("dt", "0.01, 0.02, 0.005"),
            ("dt", "0.01, 0.003"),
            ("dt", "0.01, 0"),
            ("dt", "0.01, -0.01"),
            ("modes", "8, 4"),
            ("modes", "4.7, 8"),
            ("eps", "0.5, 2.0"),
        ],
    )
    def test_converge_schedule_faults_exit_2(self, tmp_path, vary, schedule, monkeypatch):
        cfg = write_config(tmp_path, FULL + f"\n[experiment]\nschedule = {schedule}\n")

        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the schedule was checked")

        monkeypatch.setattr(galerkin, "project_initial_data", no_run)
        code = io.main(["converge", vary, str(cfg), "--output-dir", str(tmp_path / "c"), "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("vary, schedule", [("modes", "8"), ("eps", "0.1"), ("dt", "0.01")])
    def test_converge_one_entry_schedule_exits_2(self, tmp_path, vary, schedule, monkeypatch, capsys):
        # one entry compares nothing: it is rejected before any run
        cfg = write_config(tmp_path, FULL + f"\n[experiment]\nschedule = {schedule}\n")

        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the schedule was checked")

        monkeypatch.setattr(galerkin, "project_initial_data", no_run)
        code = io.main(["converge", vary, str(cfg), "--output-dir", str(tmp_path / "c"), "--quiet"])
        assert code == 2
        expected = f"error: (2.11) a schedule needs at least two entries, got [{float(schedule)}]\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "c" / "convergence.csv").exists()

    @pytest.mark.parametrize("schedule, lines", [
        ("8, 4.5", ["(2.11) a modes schedule must hold integers, got [8.0, 4.5]",
                    "(2.11) a modes schedule must increase to its last entry, the reference; got [8.0, 4.5]"]),
        ("8, 4", ["(2.11) a modes schedule must increase to its last entry, the reference; got [8.0, 4.0]"]),
    ], ids=["fractional-decreasing", "decreasing"])
    def test_converge_modes_schedule_reports_every_rule(self, tmp_path, capsys, schedule, lines):
        cfg = write_config(tmp_path, FULL + f"\n[experiment]\nschedule = {schedule}\n")
        code = io.main(["converge", "modes", str(cfg), "--output-dir", str(tmp_path / "c"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == "error: " + "\n".join(lines) + "\n"

    def test_verify_potentials_eps_schedule_fault_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, FULL + "\n[experiment]\nschedule = 0.5, 2.0\n")

        def no_solve(*args, **kwargs):
            raise AssertionError("a sample was regularized before the schedule was checked")

        monkeypatch.setattr(potentials, "regularize", no_solve)
        code = io.main(["verify", "potentials", str(cfg), "--output-dir", str(tmp_path / "v"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == "error: (2.11) eps must lie in (0, 1), got 2.0\n"

    def test_python_dash_m_entry_point(self):
        env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "thermoch", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == io.USAGE
        readme = (Path(io.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
        assert f"```\n{io.USAGE}```\n" in readme  # the README's command-line block is the help text

    @pytest.mark.parametrize(
        "argv",
        [["verify", "potentials"], ["verify", "spectral"], ["verify", "elliptic"],
         ["simulate"], ["converge", "dt"], ["depend"]],
        ids="-".join,
    )
    def test_command_never_imports_numpy_random(self, tmp_path, argv):
        # The seeded sweeps draw from random.Random: importing numpy.random
        # would add 11-18 ms to a ~40 ms verify elliptic process.
        assert "numpy.random" not in run_import_probe(tmp_path, argv)["loaded"]

    @pytest.mark.parametrize("argv", [["simulate"], ["verify", "elliptic"]], ids="-".join)
    def test_command_line_never_imports_locale_or_argparse(self, tmp_path, argv):
        # getopt reaches gettext, and through it locale, only to word an error.
        assert run_import_probe(tmp_path, argv) == {"loaded": [], "frozen": 0}

    @pytest.mark.parametrize(
        "argv,code",
        [(["simulate", "{cfg}"], 0), (["simulate", "{bad}"], 2),
         (["verify", "spectral", "{cfg}", "--seed", str(2**64)], 2), (["--help"], 0)],
        ids=["exit-0", "bad-config", "seed-2**64", "help"],
    )
    def test_main_leaves_nothing_frozen(self, tmp_path, monkeypatch, argv, code):
        # main freezes the heap it was called with; in-process callers keep their collector.
        cfg, bad = write_config(tmp_path, FULL), write_config(tmp_path, "[physics]\ngamma = 0\n", "bad.ini")
        frozen = []
        run_simulate = io.run_simulate
        monkeypatch.setattr(io, "run_simulate", lambda c: frozen.append(gc.get_freeze_count()) or run_simulate(c))
        argv = [a.format(cfg=cfg, bad=bad) for a in argv] + ["--output-dir", str(tmp_path / "out"), "--quiet"]
        try:
            result = io.main(argv)
        except SystemExit as exc:
            result = exc.code
        assert result == code
        assert gc.get_freeze_count() == 0
        # run_simulate ran, on the exit-0 line only, with the heap of the caller frozen.
        assert [n > 0 for n in frozen] == ([True] if argv[0] == "simulate" and code == 0 else [])

    @pytest.mark.parametrize(
        "argv,code,stream",
        [
            (["--quiet", "--output-dir", "{out}", "--seed", "3", "verify", "spectral", "{cfg}"], 0, None),
            (["verify", "spectral", "{cfg}", "--output-dir={out}", "--quiet"], 0, None),
            (["nosuch", "{cfg}"], 2, "err"),
            (["verify", "nosuch", "{cfg}"], 2, "err"),
            (["converge", "nosuch", "{cfg}"], 2, "err"),
            (["simulate"], 2, "err"),
            (["simulate", "{cfg}", "{cfg}"], 2, "err"),
            (["simulate", "{cfg}", "--nosuch"], 2, "err"),
            (["verify", "spectral", "{cfg}", "--seed", "-1"], 2, "err"),
            (["simulate", "{cfg}", "-h"], 0, "out"),
        ],
        ids=["flags-first", "output-dir-equals", "unknown-command", "verify-nosuch",
             "converge-nosuch", "missing-config", "extra-positional", "unknown-flag",
             "negative-seed", "help-after-command"],
    )
    def test_command_line_parity(self, tmp_path, capsys, argv, code, stream):
        cfg, out = write_config(tmp_path, FULL), tmp_path / "out"
        try:
            result = io.main([a.format(cfg=cfg, out=out) for a in argv])
        except SystemExit as exc:
            result = exc.code
        assert result == code
        captured = capsys.readouterr()
        if stream is None:
            assert json.loads((out / "summary.json").read_text())["experiment"] == "verify spectral"
        else:
            assert getattr(captured, stream).startswith("usage: thermoch")
        if stream == "err":
            assert "thermoch: error: " in captured.err

    @pytest.mark.skipif(
        sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="needs glibc"
    )
    def test_grid_temporaries_do_not_fault_in_every_level(self, tmp_path):
        # 128 x 128 grid arrays are 128 KiB each; a heap that gives them back
        # to the kernel after each level faults two of them (64 pages) in again.
        text = FULL.replace("dim = 1", "dim = 2").replace(
            "lengths = 1.0", "lengths = 1.0, 1.0"
        ).replace("grid = 32", "grid = 128").replace("n_modes = 8", "n_modes = 64").replace(
            "phi0 = 0.1 + 0.2*cos(1)", "phi0 = 0.1 + 0.3*cos(1,0) + 0.2*cos(2,3)"
        ).replace("t_final = 0.2", "t_final = 0.1")
        cfg = write_config(tmp_path, text)
        env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, str(cfg), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        faults = json.loads(done.stdout.splitlines()[-1])
        assert len(faults) == 11
        per_level = (faults[-1] - faults[0]) / (len(faults) - 1)
        assert per_level < 16, faults

    @pytest.mark.parametrize("error", [OSError, TypeError, AttributeError])
    def test_heap_setting_is_skipped_without_mallopt(self, monkeypatch, error):
        def missing(name):
            raise error("no mallopt here")

        monkeypatch.setattr(io.ctypes, "CDLL", missing)
        io._keep_freed_heap()

    def test_converge_writes_table(self, tmp_path):
        cfg = write_config(
            tmp_path,
            FULL + "\n[experiment]\nschedule = 4, 8\n",
        )
        out = tmp_path / "conv"
        assert io.main(["converge", "modes", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        table = (out / "convergence.csv").read_text().splitlines()
        assert table[0].split(",")[0] == "n"
        assert len(table) == 2  # one comparison row: 4 vs reference 8

    def test_depend_pair(self, tmp_path):
        cfg1 = write_config(tmp_path, FULL, "a.ini")
        cfg2 = write_config(tmp_path, FULL.replace("f = 0.0", "f = 0.05"), "b.ini")
        out = tmp_path / "dep"
        assert io.main(["depend", str(cfg1), str(cfg2), "--output-dir", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["lhs"] > 0.0
        assert (out / "dependence.csv").exists()

    @pytest.mark.parametrize("t_final, f2", [("0.2", "0.0"), ("0.0", "0.05")])
    def test_depend_without_a_source_change_writes_null(self, tmp_path, t_final, f2):
        # equal sources, or no time for them to act, leave no ratio: summary.json
        # holds strict JSON (no NaN token) and dependence.csv an empty cell
        text = FULL.replace("t_final = 0.2", f"t_final = {t_final}")
        cfg1 = write_config(tmp_path, text, "a.ini")
        cfg2 = write_config(tmp_path, text.replace("f = 0.0", f"f = {f2}"), "b.ini")
        out = tmp_path / "dep"
        assert io.main(["depend", str(cfg1), str(cfg2), "--output-dir", str(out), "--quiet"]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["empirical_K2"] is None and summary["lhs"] == 0.0
        header, row = (line.split(",") for line in (out / "dependence.csv").read_text().splitlines())
        assert row[header.index("empirical_K2")] == ""

    @pytest.mark.parametrize("section, key, old, new", [
        ("data", "phi0", "0.1 + 0.2*cos(1)", "0.3"),
        ("time", "dt", "0.01", "0.02"),
        ("time", "scheme", "semi_implicit", "backward_euler"),
        ("potential", "eps", "0.1", "0.2"),
        ("data", "w0", "0.0", "0.05"),
    ], ids=["phi0", "dt", "scheme", "eps", "w0"])
    def test_depend_requires_shared_initial_data(self, tmp_path, capsys, section, key, old, new):
        # The config pair's check is the only guard of these keys:
        # dependence_experiment takes one problem and a second pair of sources.
        cfg1 = write_config(tmp_path, FULL, "a.ini")
        cfg2 = write_config(tmp_path, FULL.replace(f"{key} = {old}", f"{key} = {new}"), "b.ini")
        out = tmp_path / "dep"
        code = io.main(["depend", str(cfg1), str(cfg2), "--output-dir", str(out), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: (2.11) dependence pair must share [{section}] {key}: '{old}' vs '{new}'"
        ]
        assert not (out / "summary.json").exists()

    def test_depend_reports_every_unshared_key(self, tmp_path, capsys):
        # [time] comes before [data], whatever the order in the file.
        cfg1 = write_config(tmp_path, FULL, "a.ini")
        text = FULL.replace("dt = 0.01", "dt = 0.02").replace("phi0 = 0.1 + 0.2*cos(1)", "phi0 = 0.3")
        cfg2 = write_config(tmp_path, text, "b.ini")
        out = tmp_path / "dep"
        assert io.main(["depend", str(cfg1), str(cfg2), "--output-dir", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: (2.11) dependence pair must share [time] dt: '0.01' vs '0.02'",
            "(2.11) dependence pair must share [data] phi0: '0.1 + 0.2*cos(1)' vs '0.3'",
        ]
        assert not (out / "summary.json").exists()

    def test_progress_line_without_quiet(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, FULL), tmp_path / "out"
        assert io.main(["verify", "spectral", str(cfg), "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out == f"verify spectral: ok -> {out}\n"

    def test_run_failure_preserves_partial_artifacts(self, tmp_path, monkeypatch):
        from thermoch import galerkin as gk
        from thermoch.errors import StepFailure

        cfg = write_config(tmp_path, FULL)
        original = gk.step
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) > 5:  # every step from t = 0.05 on, and its bisections
                raise StepFailure("forced")
            return original(*args)

        monkeypatch.setattr(gk, "step", failing)
        out = tmp_path / "partial"
        code = io.main(["simulate", str(cfg), "--output-dir", str(out), "--quiet"])
        assert code == 3
        rows = (out / "trajectory.csv").read_text().splitlines()
        # the header and exactly the levels before the failing step
        assert [float(r.split(",")[0]) for r in rows[1:]] == galerkin.record_times(0.01, 0.05)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_records"] == 6
        assert any("forced" in v for v in summary["violations"])
        # the monitors still ran on the partial trajectory
        assert summary["mean_law"]["max_error_discrete"] <= 1e-12
        assert math.isfinite(summary["energy_residual"])
        assert all(math.isfinite(v) for v in summary["realized_norms"].values())

    def test_bisected_step_warns_in_summary(self, tmp_path, monkeypatch):
        # The first step longer than 0.075 fails once, so level 1 is reached in two
        # halves: the summary says so, and the run still exits 0.
        from thermoch.errors import StepFailure

        cfg = write_config(tmp_path, FULL.replace("t_final = 0.2", "t_final = 0.4").replace("dt = 0.01", "dt = 0.1"))
        assert io.main(["simulate", str(cfg), "--output-dir", str(tmp_path / "plain"), "--quiet"]) == 0
        original, failed = galerkin.step, []

        def flaky(*args):
            if args[7].dt > 0.075 and not failed:
                failed.append(args[7].dt)
                raise StepFailure("forced")
            return original(*args)

        monkeypatch.setattr(galerkin, "step", flaky)
        assert io.main(["simulate", str(cfg), "--output-dir", str(tmp_path / "forced"), "--quiet"]) == 0
        plain, forced = (json.loads((tmp_path / d / "summary.json").read_text())["warnings"]
                         for d in ("plain", "forced"))
        assert not any("bisected" in w for w in plain)
        assert forced == plain + ["warning: 1 of 4 steps were bisected; the first reached level 1 in 2 substeps"]

    @pytest.mark.parametrize("t_final, dt", [(1e6, 1e-9), (1e300, 1e-10)])
    def test_step_count_no_array_holds_exit_code(self, tmp_path, capsys, t_final, dt):
        # 10^15 steps, and a count capped at 2**52: refused at once, before any level
        cfg = write_config(tmp_path, f"[time]\nt_final = {t_final}\ndt = {dt}\n")
        start = time.perf_counter()
        assert io.main(["simulate", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: (2.11) the problem does not fit in memory")

    @pytest.mark.parametrize("argv", [["depend", "{cfg}", "{cfg_f}"], ["converge", "eps", "{cfg}"]],
                             ids=["depend", "converge-eps"])
    def test_run_failure_inside_a_study_exits_3(self, tmp_path, monkeypatch, argv):
        # The forced failure comes part way through the second run, after the
        # first has written its levels: the study writes nothing.
        from thermoch import galerkin as gk
        from thermoch.errors import StepFailure

        paths = {"{cfg}": write_config(tmp_path, FULL + "\n[experiment]\nschedule = 0.2, 0.1\n"),
                 "{cfg_f}": write_config(tmp_path, FULL.replace("f = 0.0", "f = 0.1"), "f.ini")}
        original = gk.step
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) > 25:  # from the 26th step of the two 20-step runs on, and its bisections
                raise StepFailure("forced")
            return original(*args)

        monkeypatch.setattr(gk, "step", failing)
        out = tmp_path / "study"
        code = io.main([str(paths.get(a, a)) for a in argv] + ["--output-dir", str(out), "--quiet"])
        assert code == 3
        assert len(calls) > 25
        assert list(out.iterdir()) == []

    def test_verify_violations_exit_nonzero(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, FULL)
        monkeypatch.setattr(io, "spectral_suite", lambda basis, rng: (["forced"], {}))
        out = tmp_path / "vbad"
        code = io.main(["verify", "spectral", str(cfg), "--output-dir", str(out), "--quiet"])
        assert code == 3
        assert json.loads((out / "summary.json").read_text())["violations"] == ["forced"]

    @pytest.mark.parametrize("vary,schedule", [("eps", "0.2, 0.1"), ("dt", "0.02, 0.01")])
    def test_converge_other_axes(self, tmp_path, vary, schedule):
        cfg = write_config(tmp_path, FULL + f"\n[experiment]\nschedule = {schedule}\n")
        out = tmp_path / f"c_{vary}"
        assert io.main(["converge", vary, str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        assert (out / "convergence.csv").exists()

    def test_benchmark_csv_mean_column(self, tmp_path):
        # mean_phi column follows 0.3 exp(-t) to scheme order
        text = FULL.replace("phi0 = 0.1 + 0.2*cos(1)", "phi0 = 0.3").replace(
            "t_final = 0.2", "t_final = 1.0"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "bench"
        assert io.main(["simulate", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        t_col, mean_col = header.index("t"), header.index("mean_phi")
        for line in lines[1:]:
            cells = line.split(",")
            t, mean = float(cells[t_col]), float(cells[mean_col])
            assert abs(mean - 0.3 * np.exp(-t)) <= 3.0 * 0.01

    def test_two_dimensional_config(self, tmp_path):
        text = FULL.replace("dim = 1", "dim = 2").replace(
            "lengths = 1.0", "lengths = 1.0, 1.0"
        ).replace("grid = 32", "grid = 8").replace("n_modes = 8", "n_modes = 9").replace(
            "phi0 = 0.1 + 0.2*cos(1)", "phi0 = 0.1 + 0.2*cos(1,1)"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "two_d"
        assert io.main(["simulate", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == []


class TestSuiteViolations:
    """Each violation line of the verify suites, forced through ``main``: exit 3 and the exact line."""

    def verify(self, tmp_path, target, trials=None):
        text = FULL if trials is None else FULL + f"\n[experiment]\ntrials = {trials}\n"
        out = tmp_path / "v"
        assert io.main(["verify", target, str(write_config(tmp_path, text)), "--output-dir", str(out), "--quiet"]) == 3
        summary = json.loads((out / "summary.json").read_text())
        return summary["violations"], summary["metrics"]

    def test_nonzero_mean_operand_accepted(self, tmp_path, monkeypatch):
        original = sp.solve_poisson
        monkeypatch.setattr(sp, "solve_poisson", lambda psi, basis: original(np.r_[0.0, psi[1:]], basis))
        assert self.verify(tmp_path, "spectral")[0] == ["nonzero-mean operand was not rejected"]

    def test_orthonormality_residual(self, tmp_path, monkeypatch):
        original = sp.gram_matrix
        monkeypatch.setattr(sp, "gram_matrix", lambda basis: original(basis) + 2e-9 * np.eye(basis.n))
        violations, metrics = self.verify(tmp_path, "spectral")
        assert violations == [f"orthonormality residual {metrics['orthonormality']:.3e}"]
        assert metrics["orthonormality"] == pytest.approx(2e-9)

    def test_identity_residuals(self, tmp_path, monkeypatch):
        # A dual norm 1e-6 too large breaks both identities that read it, not the symmetry.
        original = sp.norm_Hm1_rows
        monkeypatch.setattr(sp, "norm_Hm1_rows", lambda c, basis: (1.0 + 1e-6) * original(c, basis))
        violations, metrics = self.verify(tmp_path, "spectral")
        assert violations == [f"{key} residual {metrics[key]:.3e}" for key in ("energy_identity", "time_identity")]

    def test_constant_data_gap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io.elliptic, "check_L6_bound", lambda problem, sol: (1.5, 1.0))
        assert self.verify(tmp_path, "elliptic", trials=0)[0] == ["constant-data 6-norms differ by 5.000e-01"]

    def test_six_norm_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io.elliptic, "check_L6_bound", lambda problem, sol: (2.5, 2.0))
        assert self.verify(tmp_path, "elliptic", trials=1)[0] == [
            "constant-data 6-norms differ by 5.000e-01", "6-norm bound violated: 2.5 > 2",
        ]

    def test_newton_starts_disagree(self, tmp_path, monkeypatch):
        original = io.elliptic.solve_elliptic

        def shifted(problem, start=None):
            sol = original(problem, start)
            return sol if start is None else dataclasses.replace(sol, u=sol.u + np.r_[1e-6, np.zeros(sol.u.size - 1)])

        monkeypatch.setattr(io.elliptic, "solve_elliptic", shifted)
        assert self.verify(tmp_path, "elliptic", trials=2)[0] == ["Newton starts disagree by 1.000e-06"] * 2

    @staticmethod
    def logarithmic(tmp_path, schedule):
        text = (Path(__file__).parents[1] / "configs" / "logarithmic.ini").read_text(encoding="utf-8")
        assert "schedule = 0.2, 0.1, 0.05, 0.025" in text
        return write_config(tmp_path, text.replace("schedule = 0.2, 0.1, 0.05, 0.025", f"schedule = {schedule}"))

    # yosida = (r - J) / eps rounds by about ulp(|r|) / eps, which each eps's checks admit;
    # these schedules once exited 3 on rounding alone.
    @pytest.mark.parametrize("schedule", ["1e-6", "1e-8", "1e-6, 1e-10"])
    def test_small_eps_rounding_is_no_violation(self, tmp_path, schedule):
        cfg = self.logarithmic(tmp_path, schedule)
        assert io.main(["verify", "potentials", str(cfg), "--output-dir", str(tmp_path / "v"), "--quiet"]) == 0

    def test_small_eps_resolvent_error_is_a_violation(self, tmp_path, monkeypatch):
        # An alternating 1e-13 error in J (kept in [-1, 1]), below the oracle's 1e-10, still
        # breaks the 1/eps Lipschitz bound at eps = 1e-6 by far more than the rounding it admits.
        kernel = potentials._logarithmic_resolvent

        def off(eps, r):
            return np.clip(kernel(eps, r) + 1e-13 * (-1.0) ** np.arange(r.size).reshape(r.shape), -1.0, 1.0)

        monkeypatch.setattr(potentials, "_logarithmic_resolvent", off)
        out = tmp_path / "v"
        cfg = self.logarithmic(tmp_path, "1e-6")
        assert io.main(["verify", "potentials", str(cfg), "--output-dir", str(out), "--quiet"]) == 3
        violations = json.loads((out / "summary.json").read_text())["violations"]
        assert any(line.startswith("yosida exceeds the 1/eps Lipschitz bound") for line in violations), violations

    def test_primitive_at_eps_1e_300_is_a_named_violation(self, tmp_path, capsys):
        # At eps = 1e-300 value^2 once overflowed; the primitive's own rounding is then the violation.
        out = tmp_path / "v"
        cfg = self.logarithmic(tmp_path, "1e-300")
        assert io.main(["verify", "potentials", str(cfg), "--output-dir", str(out), "--quiet"]) == 3
        (line,) = json.loads((out / "summary.json").read_text())["violations"]
        assert re.fullmatch(r"primitive leaves \[0, beta_hat\] \(defect [0-9.]+e\+2[0-9]{2}\)", line), line
        assert capsys.readouterr().err == ""


class TestWriters:
    def test_summary_writes_non_finite_floats_as_null(self, tmp_path):
        path = tmp_path / "summary.json"
        io.write_summary_json(path, {"a": math.nan, "b": [math.inf, 1.5, (-math.inf,)], "c": {"d": np.float64("nan")}})
        assert json.loads(path.read_text()) == {"a": None, "b": [None, 1.5, [None]], "c": {"d": None}}

    def test_huge_admitted_phi0_writes_strict_json(self, tmp_path):
        # The regular potential's D(beta) is R, so (2.14) admits phi0 = 1e100: the
        # sixth powers of xi (about 1e101) overflow a double, and the level-0 mean
        # sits on the (4.31) band edge to within the edge's rounding.
        text = (Path(__file__).parents[1] / "configs" / "demo.ini").read_text(encoding="utf-8")
        for key, value in (("phi0", "1e100"), ("t_final", "0.002")):
            text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line for line in text.splitlines())
        out = tmp_path / "huge"
        assert io.main(["simulate", str(write_config(tmp_path, text)), "--output-dir", str(out), "--quiet"]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["violations"] == []
        assert math.isfinite(summary["realized_norms"]["beta_L2_L6"])

    def test_table_column_union(self, tmp_path):
        rows = [{"a": 1.0}, {"a": 2.0, "b": 3.0}]
        path = tmp_path / "t.csv"
        io.write_table_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,"
