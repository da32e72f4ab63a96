"""Property tests of the config layer: the summary echo, data expressions, corrupted keys
and configs that break several rules at once."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoch import galerkin as gk
from thermoch import io_cli as io
from thermoch import spectral as sp
from thermoch.errors import ConfigurationError

TAGS = ("(2.5)", "(2.11)", "(2.12)", "(2.13)", "(2.14)")

fmt = io.format_float


@st.composite
def valid_sections(draw):
    """A valid config as sections of key -> text, with some keys left at their defaults.

    phi0 stays within 0.6 of zero and sup|f| / gamma within 0.3, so every
    potential admits the data.
    """
    dim = draw(st.integers(1, 2))
    grid = draw(st.integers(4, 12))
    positive = st.floats(0.1, 10.0)
    gamma = draw(positive)
    mode = ",".join(str(draw(st.integers(0, grid // 2))) for _ in range(dim))
    # Below 0.3 gamma whether gamma is written or left at its default 1.
    f_max = 0.3 * min(gamma, 1.0)
    f_segments = [fmt(f_max * draw(st.floats(-1.0, 1.0)))]
    if draw(st.booleans()):
        f_segments.append(f"0.5: {fmt(f_max * draw(st.floats(-1.0, 1.0)))}")
    sections = {
        "domain": {
            "dim": str(dim),
            "lengths": ", ".join(fmt(draw(positive)) for _ in range(dim)),
            "grid": str(grid),
            "n_modes": str(draw(st.integers(1, (grid // 2 + 1) ** dim))),
        },
        "physics": {
            "gamma": fmt(gamma),
            "a": fmt(draw(st.floats(-5.0, 5.0))),
            **{key: fmt(draw(positive)) for key in ("b", "kappa1", "kappa2", "lambda")},
        },
        "potential": {
            "kind": draw(st.sampled_from(["regular", "logarithmic", "double_obstacle"])),
            "c1": fmt(draw(st.floats(1.01, 5.0))),
            "c2": fmt(draw(st.floats(0.01, 5.0))),
            "eps": fmt(draw(st.floats(0.01, 0.99))),
        },
        "data": {
            "phi0": f"{fmt(draw(st.floats(-0.3, 0.3)))} + {fmt(draw(st.floats(0.0, 0.3)))}*cos({mode})",
            "f": " ; ".join(f_segments),
        },
        "time": {"t_final": "0.01", "dt": "0.01", "scheme": draw(st.sampled_from(gk.SCHEMES))},
        "experiment": {
            "trials": str(draw(st.integers(0, 50))),
            "schedule": ", ".join(fmt(draw(st.floats(0.01, 0.99))) for _ in range(draw(st.integers(0, 3)))),
        },
    }
    # Section and key names are case-insensitive, and every key but the
    # mutually constrained [domain] ones may be left at its default.
    return {
        draw(st.sampled_from([name, name.upper(), name.title()])): {
            draw(st.sampled_from([key, key.upper()])): value
            for key, value in items.items()
            if name == "domain" or draw(st.booleans())
        }
        for name, items in sections.items()
    }


def ini_text(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in items.items())
        for name, items in sections.items()
    )


@settings(max_examples=25, deadline=None)
@given(sections=valid_sections())
def test_summary_config_echo_reparses_to_equal_config(sections):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.ini"
        path.write_text(ini_text(sections), encoding="utf-8")
        out = Path(tmp) / "out"
        assert io.main(["simulate", str(path), "--output-dir", str(out), "--quiet"]) in (0, 3)
        echoed = json.loads((out / "summary.json").read_text())["config"]
        assert io.config_from_sections(echoed) == io.parse_config(path)


@st.composite
def expressions(draw):
    dim = draw(st.integers(1, 2))
    domain = sp.BoxDomain(tuple(draw(st.floats(0.1, 10.0)) for _ in range(dim)), draw(st.integers(4, 16)))
    amplitude = st.floats(-1e6, 1e6)
    mode = st.tuples(*[st.integers(0, 20)] * dim)
    return domain, draw(amplitude), draw(st.lists(st.tuples(mode, amplitude), max_size=5))


@settings(max_examples=100, deadline=None)
@given(case=expressions(), spaced=st.booleans())
def test_field_expression_round_trips(case, spaced):
    """A sum whose wavenumbers are all at most grid // 2 round-trips; each cosine with
    one above it is one tagged line."""
    domain, constant, terms = case
    gap = " " if spaced else ""
    text = fmt(constant)
    for mode, amp in terms:
        cos = f"cos({','.join(map(str, mode))})"
        written = cos if abs(amp) == 1.0 else f"{fmt(abs(amp))}{gap}*{gap}{cos}"
        text += f"{gap}{'-' if amp < 0 else '+'}{gap}{written}"
    cap = domain.grid_points_per_axis // 2
    unresolved = [
        f"(2.11) data.phi0 term cos({','.join(map(str, mode))}) has a wavenumber above grid // 2 = {cap}"
        for mode, _ in terms if max(mode) > cap
    ]
    if unresolved:
        with pytest.raises(ConfigurationError) as info:
            io.parse_field_expr(text, domain, "data.phi0")
        assert str(info.value).splitlines() == unresolved
    else:
        parsed = io.parse_field_expr(text, domain, "data.phi0")
        assert np.array_equal(parsed.values, sp.cosine_sum_field(domain, constant, terms).values)


@st.composite
def broken_configs(draw):
    """Sections that break several rules at once, each through its own key, and the tag
    of each line the pass must print (None for an expression's syntax error).

    A number that does not parse is always a line.  dim's rule waits for dim and the
    lengths; the ``BoxDomain`` rules for those and the grid; the data and the
    ``build_basis`` rules for the domain, so a broken domain hides their lines.  The
    kind's and the scheme's rules stand alone.  Every other key holds, and t_final, eps
    and dt break in ways read before ``ProblemData`` is built.
    """
    dim, grid = draw(st.integers(1, 2)), draw(st.integers(4, 16))
    sections = {
        "domain": {"dim": str(dim), "lengths": ", ".join(["1.0"] * dim), "grid": str(grid), "n_modes": "2"},
        "physics": {}, "potential": {}, "data": {}, "time": {},
    }
    tags = []

    def breaks(section, key, tag, values, shown=True):
        sections[section][key] = draw(values)
        if shown:
            tags.append(tag)

    # Each [domain] key breaks at one stage: "parse", "dim" (dim's rule), "domain" or "basis".
    capacity = (grid // 2 + 1) ** dim
    domain_rules = {
        "dim": ("(2.12)", [("parse", ["x", "1.5", ""]), ("dim", [str(3 - dim)])]),
        "lengths": ("(2.12)", [("parse", [", ".join(["1.0"] * (dim - 1) + [bad]) for bad in ("x", "nan", "")]),
                               ("domain", [", ".join(["-1.0"] + ["1.0"] * (dim - 1))])]),
        "grid": ("(2.11)", [("parse", ["y", "4.5", "1e3"]), ("domain", ["2", "0", "-3"])]),
        "n_modes": ("(2.11)", [("parse", ["x", "2.5"]), ("basis", ["0", str(capacity + 1), str(capacity + 100)])]),
    }
    stages = {}
    for key, (tag, choices) in domain_rules.items():
        choice = draw(st.sampled_from([None, *choices]))
        if choice is not None:
            stages[key] = choice[0]
            sections["domain"][key] = draw(st.sampled_from(choice[1]))
    parsed = {key for key in domain_rules if stages.get(key) != "parse"}
    dim_holds = {"dim", "lengths"} <= parsed and stages.get("dim") != "dim"
    shown = {"parse": True, "dim": {"dim", "lengths"} <= parsed, "domain": dim_holds and "grid" in parsed}
    domain_built = shown["domain"] and "domain" not in stages.values()
    shown["basis"] = domain_built
    tags += [domain_rules[key][0] for key, stage in stages.items() if shown[stage]]

    for key in draw(st.sets(st.sampled_from(["gamma", "b", "kappa1", "kappa2", "lambda"]))):
        breaks("physics", key, "(2.5)", st.sampled_from(["-1", "0", "-2.5"]))
    for section, key, values in [
        ("potential", "kind", ["nosuch", "", "Regular"]),
        ("potential", "eps", ["0", "1", "2.0", "-0.5", "nan"]),
        ("time", "dt", ["0", "-0.01", "abc"]),
        ("time", "scheme", ["nosuch", "", "euler"]),
        ("time", "t_final", ["abc", "nan", "inf", "1e400", ""]),
    ]:
        if draw(st.booleans()):
            breaks(section, key, "(2.11)", st.sampled_from(values))
    wrong_count = draw(st.sampled_from([n for n in (1, 2, 3) if n != dim]))
    expression_rules = [
        (None, st.sampled_from(["0.1*sin(1)", "0.1 +", "cos()", "0.1 0.2", "x + 1"])),  # syntax
        ("(2.12)", st.just(f"0.1*cos({','.join(['1'] * wrong_count)})")),  # index count
        ("(2.11)", st.integers(grid // 2 + 1, 1000).map(  # wavenumber
            lambda k: f"0.2 - 0.1*cos({','.join([str(k)] + ['0'] * (dim - 1))})")),
    ]
    switch_rule = ("(2.11)", st.sampled_from(["0.1 ; nan: 0.2", "0.1 ; soon: 0", "0.1 ; 0.5: 0.2 ; 0.3: 0", "0.1: 0.2"]))
    for key in ("phi0", "w0", "w1", "f", "g"):
        rule = draw(st.sampled_from([None, *expression_rules, *([switch_rule] if key in ("f", "g") else [])]))
        if rule is not None:
            breaks("data", key, *rule, shown=domain_built)
    return sections, tags


@settings(max_examples=100, deadline=None)
@given(case=broken_configs())
def test_each_broken_rule_is_one_line_in_one_pass(case):
    sections, tags = case
    if not tags:
        io.config_from_sections(sections)
        return
    syntax = None in tags
    with pytest.raises(io.ConfigParseError if syntax else ConfigurationError) as info:
        io.config_from_sections(sections)
    lines = str(info.value).splitlines()
    found = [[tag for tag in TAGS if tag in line] for line in lines]
    assert all(len(line_tags) <= 1 for line_tags in found), lines
    assert sorted(line_tags[0] if line_tags else "" for line_tags in found) == sorted(tag or "" for tag in tags)


KEYS = [(section, key) for section, items in io.DEFAULTS.items() for key in items]


@settings(max_examples=150, deadline=None)
@given(
    where=st.sampled_from(KEYS),
    value=st.sampled_from(["nan", "inf", "-1", "0", "", "abc", "1e400"]),
)
def test_corrupted_key_is_accepted_or_reported_with_one_tag_per_line(where, value):
    section, key = where
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        try:
            io.parse_config(path)
        except io.ConfigParseError:
            pass
        except ConfigurationError as exc:
            for line in str(exc).splitlines():
                assert sum(line.count(tag) for tag in TAGS) == 1, line


# Config lines that parse, lines that break the INI syntax or its
# interpolation, and bytes that are not UTF-8; every run they can make is short.
CONFIG_LINES = [
    b"[data]", b"[domain]", b"[time]", b"[potential]", b"[data", b"[nosuch]",
    b"phi0 = 0.3", b"phi0 = 0.1 + 0.2*cos(1)", b"phi0 = %(x)s", b"phi0 = 5%",
    b"grid = 8", b"grid = 1e400", b"n_modes = 4", b"t_final = 0.05", b"dt = 0.01",
    b"kind = logarithmic", b"eps = 2", b"= 1", b"phi0", b"\xff", b"\xc3", b"\x00",
]


@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(st.one_of(st.sampled_from(CONFIG_LINES), st.binary(max_size=12)), max_size=8)
)
def test_main_on_arbitrary_config_bytes_returns_a_documented_exit_code(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.ini"
        path.write_bytes(b"\n".join(lines))
        out = Path(tmp) / "out"
        assert io.main(["simulate", str(path), "--output-dir", str(out), "--quiet"]) in (0, 2, 3, 4)
