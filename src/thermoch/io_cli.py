"""Configuration parsing, experiment orchestration, deterministic output.

Config files are INI-style text (bracketed sections, ``key = value``, '#'
comments, UTF-8).  Data functions are restricted to a closed vocabulary:
constants, finite cosine-mode sums ``c0 + a*cos(k)`` (``cos(k1,k2)`` in 2-D),
and piecewise-constant-in-time schedules ``expr ; t1: expr ; ...``.

Validation failures carry exactly one assumption tag from {(2.5), (2.11),
(2.12), (2.13), (2.14)}; a-priori monitors name (4.31).  This module only
rejects values that are not finite numbers (the switch times of a schedule
among them) and a ``dim`` that disagrees with the lengths; every other rule
is stated once, by the constructor or check of the quantity it constrains.  ``config_from_sections`` builds each object a
config describes once, collecting the messages of the rules they break, and
the commands run on the objects it built.  The ``run_*`` drivers return a
command's summary payload; ``main`` writes every artifact and the summary
envelope into the output directory.  ``main`` parses its command line with
``getopt.gnu_getopt`` against ``COMMANDS``; ``USAGE`` is the whole help text.
getopt words only its errors through gettext, so a run never imports ``locale``.

All floating-point output is serialized with 17 significant digits so
repeated runs are byte-identical, also under another BLAS thread count
(summary.json additionally records wall time).  summary.json is strict JSON:
a non-finite float is written as null.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 I/O error.
A problem too large to allocate (a ``MemoryError``) is a (2.11) validation
error.
"""

from __future__ import annotations

import configparser
import ctypes
import gc
import getopt
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import analysis, elliptic, galerkin, potentials, spectral
from .errors import (
    ConfigurationError,
    MeanDomainError,
    NumericFailure,
    RunFailure,
    require,
)
from .galerkin import PhysicalParams, ProblemData, SourceTerm
from .potentials import PotentialSpec
from .spectral import BoxDomain, Field, SpectralBasis

DEFAULTS: dict[str, dict[str, str]] = {
    "domain": {"dim": "1", "lengths": "1.0", "grid": "64", "n_modes": "16"},
    "physics": {
        "gamma": "1.0",
        "a": "0.0",
        "b": "1.0",
        "kappa1": "1.0",
        "kappa2": "1.0",
        "lambda": "1.0",
    },
    "potential": {"kind": "regular", "c1": "2.0", "c2": "1.0", "eps": "0.1"},
    "data": {"phi0": "0.0", "w0": "0.0", "w1": "0.0", "f": "0.0", "g": "0.0"},
    "time": {"t_final": "1.0", "dt": "0.01", "scheme": "semi_implicit"},
    "experiment": {"schedule": "", "trials": "20", "samples": "10000"},
    "output": {"directory": "out"},
}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigParseError(ValueError):
    """Malformed config text or expression (distinct from tagged validation)."""


FLOAT_FORMAT = "%.17g"


def format_float(x: Optional[float]) -> str:
    return "" if x is None else FLOAT_FORMAT % float(x)


# ---------------------------------------------------------------------------
# data-expression vocabulary


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coef>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*
            (?:\*\s*cos\(\s*(?P<modes1>\d+(?:\s*,\s*\d+)*)\s*\))?
          | cos\(\s*(?P<modes2>\d+(?:\s*,\s*\d+)*)\s*\)
        )\s*""",
    re.VERBOSE,
)


def parse_field_expr(text: str, domain: BoxDomain) -> Field:
    """Parse ``c0 + a1*cos(k) + ...`` into a grid field."""
    text = text.strip()
    if not text:
        raise ConfigParseError("empty field expression")
    pos = 0
    constant = 0.0
    terms: list[tuple[tuple[int, ...], float]] = []
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ConfigParseError(f"cannot parse field expression at '...{text[pos:]}'")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        if m.group("sign") is None and not first:
            raise ConfigParseError(f"missing '+'/'-' between terms in '{text}'")
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        modes_txt = m.group("modes1") or m.group("modes2")
        if modes_txt is None:
            constant += sign * coef
        else:
            mode = tuple(int(k) for k in modes_txt.split(","))
            if len(mode) != domain.dim:
                raise ConfigParseError(
                    f"cos{mode} has {len(mode)} indices for a {domain.dim}-d domain"
                )
            terms.append((mode, sign * coef))
        pos = m.end()
        first = False
    return spectral.cosine_sum_field(domain, constant, terms)


def parse_source_expr(text: str, domain: BoxDomain, key: str) -> SourceTerm:
    """Parse a piecewise-constant-in-time schedule ``c0 ; t1: c1 ; ...`` of field
    expressions, whose switch times must be finite numbers (2.11), named ``key`` in messages."""
    segments = [seg.strip() for seg in text.split(";")]
    if not all(segments):
        raise ConfigParseError(f"empty schedule segment in '{text}'")
    starts = [seg.split(":", 1) if ":" in seg else ("0", seg) for seg in segments]
    times = _parse_numbers([(f"{key} switch time", t.strip()) for t, _ in starts], "(2.11)")
    return SourceTerm(tuple(times), tuple(parse_field_expr(expr, domain) for _, expr in starts))


# ---------------------------------------------------------------------------
# configuration


def _parse_numbers(items: Sequence[tuple[str, str]], tag: str, kind: type = float) -> list:
    """Parse ``(label, text)`` config values as finite numbers of ``kind``.

    Every text that is not one, including nan and inf, is reported at once:
    a ConfigurationError with one line under ``tag`` per bad value.
    """
    values, bad = [], []
    for label, text in items:
        try:
            values.append(kind(text))
            ok = kind is int or math.isfinite(values[-1])
        except ValueError:
            ok = False
        if not ok:
            noun = "integer" if kind is int else "number"
            bad.append(f"{tag} {label} must be a finite {noun}, got '{text}'")
    if bad:
        raise ConfigurationError("\n".join(bad))
    return values


@dataclass(frozen=True)
class RunConfig:
    """A config: its canonical sections and the objects built from them.

    Equality compares the sections only; ``summary.json`` echoes them.
    """

    sections: dict[str, dict[str, str]]
    data: ProblemData = field(compare=False)
    basis: SpectralBasis = field(compare=False)
    dt: float = field(compare=False)
    scheme: str = field(compare=False)
    trials: int = field(compare=False)  # random right-hand sides of ``verify elliptic``
    samples: int = field(compare=False)  # sample points of ``verify potentials``
    schedule: list[float] = field(compare=False)


def _canonical_sections(raw: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    merged = {section: dict(defaults) for section, defaults in DEFAULTS.items()}
    for section, items in raw.items():
        name = section.strip().lower()
        if name not in merged:
            raise ConfigParseError(f"unknown section [{section}]")
        for key, value in items.items():
            k = key.strip().lower()
            if k not in merged[name]:
                raise ConfigParseError(f"unknown key '{key}' in section [{section}]")
            merged[name][k] = value.strip()
    return {name: dict(sorted(merged[name].items())) for name in sorted(merged)}


def config_from_sections(raw: dict[str, dict[str, str]]) -> RunConfig:
    """Canonicalize ``raw`` and build every object it describes.

    Each object whose rule is broken contributes the tagged lines of its
    ConfigurationError, in the order built; the data expressions and the
    compatibility band are built only when every other object builds.
    Raises one ConfigurationError with all the lines.
    """
    sections = _canonical_sections(raw)
    messages: list[str] = []

    def build(make):
        try:
            return make()
        except ConfigurationError as exc:
            messages.extend(str(exc).splitlines())

    def numbers(section: str, keys: Sequence[str], tag: str, kind: type = float) -> list:
        return _parse_numbers([(f"{section}.{k}", sections[section][k]) for k in keys], tag, kind)

    def make_basis() -> SpectralBasis:
        (dim,) = numbers("domain", ("dim",), "(2.12)", int)
        lengths = _parse_numbers(
            [("domain.lengths", x) for x in sections["domain"]["lengths"].split(",")], "(2.12)"
        )
        grid, n_modes = numbers("domain", ("grid", "n_modes"), "(2.11)", int)
        # dim only restates the number of lengths; BoxDomain owns the rule on it.
        require((dim == len(lengths), f"(2.12) dim = {dim} but {len(lengths)} lengths given"))
        return spectral.build_basis(BoxDomain(tuple(lengths), grid), n_modes)

    def make_potential() -> PotentialSpec:
        c1, c2 = numbers("potential", ("c1", "c2"), "(2.11)")
        kind = sections["potential"]["kind"]
        if kind == "regular":
            return potentials.regular_potential()
        if kind == "logarithmic":
            return potentials.logarithmic_potential(c1)
        if kind == "double_obstacle":
            return potentials.double_obstacle_potential(c2)
        raise ConfigurationError(f"(2.11) unknown potential kind '{kind}'")

    def make_eps() -> float:
        (eps,) = numbers("potential", ("eps",), "(2.11)")
        require(potentials.eps_rule(eps))
        return eps

    def make_dt() -> float:
        (dt,) = numbers("time", ("dt",), "(2.11)")
        require(*galerkin.step_rules(dt, scheme))
        return dt

    def make_count(key: str, least: int) -> int:
        (count,) = numbers("experiment", (key,), "(2.11)", int)
        require((count >= least, f"(2.11) experiment.{key} must be >= {least}, got {count}"))
        return count

    def make_data() -> ProblemData:
        domain, text = basis.domain, sections["data"]
        return ProblemData(
            params=params,
            potential=potential,
            eps=eps,
            phi0=parse_field_expr(text["phi0"], domain),
            w0=parse_field_expr(text["w0"], domain),
            w1=parse_field_expr(text["w1"], domain),
            f=parse_source_expr(text["f"], domain, "data.f"),
            g=parse_source_expr(text["g"], domain, "data.g"),
            t_final=numbers("time", ("t_final",), "(2.11)")[0],
        )

    scheme = sections["time"]["scheme"]
    schedule_text = sections["experiment"]["schedule"].strip()
    params = build(lambda: PhysicalParams(
        *numbers("physics", ("gamma", "a", "b", "kappa1", "kappa2", "lambda"), "(2.5)")
    ))
    basis = build(make_basis)
    potential = build(make_potential)
    eps = build(make_eps)
    dt = build(make_dt)
    trials = build(lambda: make_count("trials", 0))
    samples = build(lambda: make_count("samples", 1))
    schedule = build(lambda: _parse_numbers(
        [("experiment.schedule", x) for x in schedule_text.split(",")] if schedule_text else [],
        "(2.11)",
    ))
    data = None if messages else build(make_data)
    if messages:
        raise ConfigurationError("\n".join(messages))
    return RunConfig(sections, data, basis, dt, scheme, trials, samples, schedule)


def parse_config(path: str | Path) -> RunConfig:
    """Read, canonicalize and validate a config file.

    Raises ConfigParseError (syntax, with line information where available)
    or ConfigurationError (tagged validation diagnostics).
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), comment_prefixes=("#",), strict=True
    )
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    try:
        parser.read_string(text, source=str(path))
        raw = {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.Error as exc:
        raise ConfigParseError(str(exc)) from exc
    return config_from_sections(raw)


# ---------------------------------------------------------------------------
# verification suites (randomized sweeps from a seeded random.Random, not numpy.random)

_SUITE_TOL = 1e-10  # the largest defect a potentials check admits
_BISECTION_ITERS = 120  # halvings of the bisection oracle
_SPECTRAL_VECTORS = 8  # random pairs of the spectral identities


def uniforms(rng: random.Random, k: int) -> np.ndarray:
    """``k`` uniforms on [0, 1), each of 53 random bits, from one ``randbytes`` call."""
    return (np.frombuffer(rng.randbytes(8 * k), "<u8") >> 11) * 2.0**-53


def standard_normals(rng: random.Random, k: int) -> np.ndarray:
    """``k`` standard normals by Box-Muller from ``2k`` uniforms of ``rng``."""
    u, v = uniforms(rng, 2 * k).reshape(2, k)
    return np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * np.pi * v)


def bisection_resolvent(spec: PotentialSpec, eps: float, r):
    """Independent pure-bisection oracle for the resolvent equation.

    On a bounded domain (c - w, c + w) it bisects in s over [-40, 40], with
    y = c + w tanh(s): a root at any distance from the ends is bracketed,
    down to the one-ulp spacing of y there, and tanh(+-40) is exactly +-1,
    so the roots the kernels saturate to +-1 are bracketed too.  An
    unbounded domain is bisected in y over [min(r, 0), max(r, 0)].
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    d_lo, d_hi = spec.domain
    bounded = np.isfinite(d_lo) and np.isfinite(d_hi)
    if bounded:
        c, w = 0.5 * (d_lo + d_hi), 0.5 * (d_hi - d_lo)
        lo, hi = np.full(r_arr.shape, -40.0), np.full(r_arr.shape, 40.0)
    else:
        lo, hi = np.minimum(r_arr, 0.0), np.maximum(r_arr, 0.0)

    def to_y(x):
        return c + w * np.tanh(x) if bounded else x

    def g(x):
        y = to_y(x)
        # beta is infinite at the ends of a bounded domain, where tanh saturates.
        with np.errstate(divide="ignore"):
            return y + eps * spec.beta_min_section(y) - r_arr

    g_lo, g_hi = g(lo), g(hi)
    x = np.where(g_lo >= 0.0, lo, np.where(g_hi <= 0.0, hi, 0.5 * (lo + hi)))
    active = (g_lo < 0.0) & (g_hi > 0.0)
    for _ in range(_BISECTION_ITERS):
        gx = g(x)
        lo = np.where(active & (gx < 0.0), x, lo)
        hi = np.where(active & (gx > 0.0), x, hi)
        x = np.where(active, 0.5 * (lo + hi), x)
    y = to_y(x)
    return y[0] if np.ndim(r) == 0 else y.reshape(np.shape(r))


def potentials_suite(
    spec: PotentialSpec,
    eps_values: Sequence[float],
    n_samples: int,
    rng: random.Random,
) -> tuple[list[str], dict[str, float]]:
    """At 0 and ``n_samples`` uniforms of ``rng``: monotone, 1/eps-Lipschitz, zero at 0,
    dominated by the minimal section, envelope sandwich, oracle agreement; and
    ``interior_bound_C0``, the least C0 >= 0 with yosida(r) r >= |yosida(r)| / 4 - C0.
    Every eps is checked against ``potentials.eps_rule`` before a sample is drawn."""
    require(*map(potentials.eps_rule, eps_values))
    checks = {
        "monotone_defect": "yosida not monotone",
        "lipschitz_excess": "yosida exceeds the 1/eps Lipschitz bound",
        "zero_at_zero": "yosida(0) != 0",
        "domination_excess": "|yosida| exceeds |beta_min_section| on the interior",
        "envelope_defect": "primitive leaves [0, beta_hat]",
        "oracle_gap": "resolvent disagrees with the bisection oracle",
    }
    d_lo, d_hi = spec.domain
    lo = d_lo - 1.5 if math.isfinite(d_lo) else -3.0
    hi = d_hi + 1.5 if math.isfinite(d_hi) else 3.0
    r = np.sort(np.concatenate([lo + (hi - lo) * uniforms(rng, n_samples), [0.0]]))
    zero, dr = int(np.searchsorted(r, 0.0)), np.diff(r)  # zero: the index of the sample r = 0
    interior = (r > d_lo + 1e-9) & (r < d_hi - 1e-9) if math.isfinite(d_hi) else np.ones(r.shape, bool)
    beta0, bh = np.abs(spec.beta_min_section(r[interior])), spec.beta_hat(r)

    metrics = dict.fromkeys([*checks, "interior_bound_C0"], 0.0)
    for eps in eps_values:
        reg = potentials.regularize(spec, eps, r)
        dy, prim = np.diff(reg.value), reg.primitive()
        found = {
            "monotone_defect": (-dy).max(initial=0.0),
            "lipschitz_excess": (np.abs(dy) - dr / eps).max(initial=0.0),
            "zero_at_zero": abs(reg.value[zero]),
            "domination_excess": (np.abs(reg.value[interior]) - beta0).max(initial=0.0),
            "envelope_defect": max(
                (-prim).max(initial=0.0), np.where(np.isfinite(bh), prim - bh, -np.inf).max(initial=0.0)
            ),
            "oracle_gap": np.abs(reg.j - bisection_resolvent(spec, eps, r)).max(),
            "interior_bound_C0": (0.25 * np.abs(reg.value) - reg.value * r).max(initial=0.0),
        }
        metrics = {key: max(metrics[key], float(value)) for key, value in found.items()}
    violations = [
        f"{text} (defect {metrics[key]:.3e})" for key, text in checks.items() if metrics[key] > _SUITE_TOL
    ]
    return violations, metrics


def spectral_suite(basis: SpectralBasis, rng: random.Random) -> tuple[list[str], dict[str, float]]:
    """Orthonormality of the sampled basis; inverse-Laplacian identities on normals of ``rng``."""
    violations: list[str] = []
    gram = spectral.gram_matrix(basis) - np.eye(basis.n)
    metrics = {"orthonormality": float(np.abs(gram).max()),
               "symmetry": 0.0, "energy_identity": 0.0, "time_identity": 0.0}

    def random_zero_mean():
        vals = standard_normals(rng, basis.n)
        vals[0] = 0.0
        norm = np.linalg.norm(vals)
        return vals / norm if norm > 0 else vals

    def dual_sq(c):
        return float(spectral.norm_Hm1_rows(c[None], basis)[0]) ** 2

    for _ in range(_SPECTRAL_VECTORS):
        psi, zeta = random_zero_mean(), random_zero_mean()
        n_psi, n_zeta = spectral.solve_poisson(psi, basis), spectral.solve_poisson(zeta, basis)
        metrics["symmetry"] = max(metrics["symmetry"], abs(float(psi @ n_zeta) - float(zeta @ n_psi)))
        metrics["energy_identity"] = max(metrics["energy_identity"], abs(float(psi @ n_psi) - dual_sq(psi)))

    # discrete path: telescoping midpoint quadrature of <v', N v> is exact
    path = [random_zero_mean() for _ in range(9)]
    acc = 0.0
    for a, b in zip(path, path[1:]):
        acc += float((b - a) @ spectral.solve_poisson(0.5 * (a + b), basis))
    metrics["time_identity"] = abs(acc - 0.5 * (dual_sq(path[-1]) - dual_sq(path[0])))

    try:
        spectral.solve_poisson(np.ones(basis.n), basis)
        violations.append("nonzero-mean operand was not rejected")
    except MeanDomainError:
        pass

    if metrics["orthonormality"] > 1e-10:
        violations.append(f"orthonormality residual {metrics['orthonormality']:.3e}")
    for key in ("symmetry", "energy_identity", "time_identity"):
        if metrics[key] > 1e-12:
            violations.append(f"{key} residual {metrics[key]:.3e}")
    return violations, metrics


def elliptic_suite(
    basis: SpectralBasis,
    spec: PotentialSpec,
    eps: float,
    rng: random.Random,
    trials: int,
) -> tuple[list[str], dict[str, float]]:
    """Constant-data equality; 6-norm bound and two-start agreement on ``trials``
    right-hand sides with normal coefficients from ``rng`` on the first min(n, 8) modes.

    The metrics also carry the Newton, Krylov and line-search counts summed
    over every solve.
    """
    violations: list[str] = []
    domain = basis.domain
    metrics = {"const_gap": 0.0, "l6_excess": 0.0, "start_gap": 0.0, "residual": 0.0}

    problem = elliptic.EllipticProblem(basis, spec, eps, spectral.constant_field(2.0, domain))
    sol = elliptic.solve_elliptic(problem)
    solves = [sol]
    lhs, rhs = elliptic.check_L6_bound(problem, sol)
    metrics["const_gap"] = abs(lhs - rhs)
    metrics["residual"] = sol.residual
    if metrics["const_gap"] > 1e-12 * max(1.0, rhs):
        violations.append(f"constant-data 6-norms differ by {metrics['const_gap']:.3e}")

    n_active = min(basis.n, 8)
    for _ in range(trials):
        vals = np.zeros(basis.n)
        vals[:n_active] = standard_normals(rng, n_active)
        h = Field(spectral.to_field(vals, basis), domain)
        problem = elliptic.EllipticProblem(basis, spec, eps, h)
        sol = elliptic.solve_elliptic(problem)
        metrics["residual"] = max(metrics["residual"], sol.residual)
        lhs, rhs = elliptic.check_L6_bound(problem, sol)
        excess = lhs - rhs * (1.0 + elliptic.L6_SLACK)
        metrics["l6_excess"] = max(metrics["l6_excess"], excess)
        if excess > 0.0:
            violations.append(f"6-norm bound violated: {lhs:.12g} > {rhs:.12g}")
        alt = elliptic.solve_elliptic(problem, start=spectral.project(h, basis))
        solves += [sol, alt]
        gap = float(np.linalg.norm(sol.u - alt.u))
        metrics["start_gap"] = max(metrics["start_gap"], gap)
        if gap > 1e-8:
            violations.append(f"Newton starts disagree by {gap:.3e}")
    metrics.update({key: sum(vars(s.counters)[key] for s in solves) for key in vars(sol.counters)})
    return violations, metrics


# ---------------------------------------------------------------------------
# artifact writers


def write_trajectory_csv(path: Path, trajectory: galerkin.Trajectory) -> None:
    """One row per recorded level: the record columns, each in ``FLOAT_FORMAT``."""
    record = trajectory.record
    row = ",".join([FLOAT_FORMAT] * len(record))
    lines = [",".join(record)] + [row % tuple(r) for r in np.column_stack(list(record.values())).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_table_csv(path: Path, rows: list[dict[str, float]]) -> None:
    """One column per key of any row, in order of first appearance; a missing or None value is empty."""
    keys = list(dict.fromkeys(k for row in rows for k in row))
    lines = [",".join(keys)] + [",".join(format_float(row.get(k)) for k in keys) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _finite_or_none(obj):
    """``obj`` with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite_or_none(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_summary_json(path: Path, payload: dict) -> None:
    """``payload`` as strict JSON: a non-finite float is written as null."""
    text = json.dumps(_finite_or_none(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# experiment drivers


def run_simulate(cfg: RunConfig) -> tuple[dict, galerkin.Trajectory, Optional[str]]:
    """The summary payload, the trajectory (partial after a numeric failure)
    and the failure's message, or None."""
    data, failure = cfg.data, None
    try:
        trajectory = galerkin.simulate(data, cfg.basis, cfg.dt, cfg.scheme)
    except RunFailure as exc:
        trajectory, failure = exc.trajectory, str(exc)
    violations, realized = analysis.apriori_monitor(trajectory, data)
    payload = {
        "n_records": len(trajectory),
        "violations": violations + ([failure] if failure else []),
        "realized_norms": realized,
        "mean_law": analysis.mean_law_check(trajectory, data),
        "energy_residual": analysis.energy_identity_residual(trajectory),
        "warnings": (
            ["warning: a <= 0 accepted although the positivity assumption lists it"]
            if data.params.a <= 0.0 else []
        ),
    }
    return payload, trajectory, failure


def run_verify(cfg: RunConfig, target: str, seed: int) -> dict:
    rng = random.Random(seed)
    if target == "potentials":
        eps_values = cfg.schedule or [0.5, 0.1, 0.02]
        violations, metrics = potentials_suite(cfg.data.potential, eps_values, cfg.samples, rng)
    elif target == "spectral":
        violations, metrics = spectral_suite(cfg.basis, rng)
    else:
        violations, metrics = elliptic_suite(cfg.basis, cfg.data.potential, cfg.data.eps, rng, cfg.trials)
    return {"violations": violations, "metrics": metrics, "seed": seed}


def run_converge(cfg: RunConfig, vary: str) -> dict:
    schedule = cfg.schedule or list(analysis.SCHEDULES[vary])
    rows = analysis.convergence_study(vary, schedule, cfg.data, cfg.basis, cfg.dt, cfg.scheme)
    return {"schedule": schedule, "rows": rows}


def run_depend(cfg1: RunConfig, cfg2: RunConfig) -> tuple[dict, dict[str, float]]:
    """The summary payload and the one row of ``dependence.csv``."""
    d1, d2 = cfg1.sections, cfg2.sections
    for section, keys in (
        ("domain", None), ("physics", None), ("potential", None), ("time", None),
        ("data", ("phi0", "w0", "w1")),
    ):
        for key in keys or d1[section]:
            if d1[section][key] != d2[section][key]:
                raise ConfigurationError(
                    f"(2.11) dependence pair must share [{section}] {key}: "
                    f"'{d1[section][key]}' vs '{d2[section][key]}'"
                )
    report = analysis.dependence_experiment(
        cfg1.data, cfg2.data.f, cfg2.data.g, cfg1.basis, cfg1.dt, cfg1.scheme
    )
    row = {"lhs": report["lhs"], "empirical_K2": report["empirical_K2"],
           **{f"lhs_{k}": v for k, v in report["lhs_components"].items()},
           **{f"rhs_{k}": v for k, v in report["rhs_components"].items()}}
    return {"config_pair": d2, **report}, row


# ---------------------------------------------------------------------------
# command line


USAGE = """\
usage: thermoch [-h] [--output-dir DIR] [--quiet] [--seed N] COMMAND ...

  simulate <config>                               run one simulation
  verify   potentials|spectral|elliptic <config>  randomized verification suite
  converge modes|eps|dt <config>                  refinement study
  depend   <config1> <config2>                    two-run dependence experiment

Flags go before or after the command:
  --output-dir DIR  override the config's [output] directory
  --quiet           suppress the progress line
  --seed N          seed of the verify sweeps, 0 <= N < 2**64 (default 0)
  -h, --help        print this help and exit
"""

# Each command's positional slots: the choices of a keyword, or None for a config path.
COMMANDS: dict[str, tuple[Optional[tuple[str, ...]], ...]] = {
    "simulate": (None,),
    "verify": (("potentials", "spectral", "elliptic"), None),
    "converge": (tuple(analysis.SCHEDULES), None),
    "depend": (None, None),
}


def parse_command_line(argv: Sequence[str]) -> tuple[str, Optional[str], list[str], dict[str, str]]:
    """``(command, keyword or None, config paths, flags)`` of ``argv``.  ``-h`` prints
    ``USAGE`` and exits 0; any other fault prints it and the error to stderr and exits 2."""
    try:
        opts, operands = getopt.gnu_getopt(argv, "h", ["help", "output-dir=", "quiet", "seed="])
        flags = dict(opts)
        if "-h" in flags or "--help" in flags:
            print(USAGE, end="")
            raise SystemExit(0)
        if not operands or operands[0] not in COMMANDS:
            raise getopt.GetoptError(f"the command must be one of {', '.join(COMMANDS)}")
        command, *operands = operands
        slots = COMMANDS[command]
        if len(operands) != len(slots):
            raise getopt.GetoptError(f"{command} takes {len(slots)} arguments, got {len(operands)}")
        for choices, operand in zip(slots, operands):
            if choices and operand not in choices:
                raise getopt.GetoptError(f"{command} takes one of {', '.join(choices)}, got '{operand}'")
        seed = flags.setdefault("--seed", "0")
        if not (seed.isdecimal() and int(seed) < 2**64):
            raise getopt.GetoptError(f"--seed must be an unsigned 64-bit integer, got '{seed}'")
    except getopt.GetoptError as exc:
        print(f"{USAGE}thermoch: error: {exc.msg}", file=sys.stderr)
        raise SystemExit(2) from None
    keyword = operands.pop(0) if slots[0] else None
    return command, keyword, operands, flags


def _keep_freed_heap() -> None:
    """Fix glibc's heap thresholds so that freed grid arrays stay in the process.

    A 128 x 128 grid array (128 KiB) is below the 256 KiB from which NumPy
    reuses temporaries, so every array expression on it allocates afresh.
    Under glibc's dynamic thresholds the heap top freed after each time level
    went back to the kernel and was faulted in again, page by page, on the
    next.  Best effort: skipped where the C library has no ``mallopt``.
    Called from ``main`` only, so library callers keep their allocator.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB, the 64-bit maximum
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: 64 MiB
    except (OSError, TypeError, AttributeError):
        pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: its artifacts and ``summary.json`` go to the output directory."""
    _keep_freed_heap()
    gc.freeze()  # keep collections off the objects alive at entry, the import-time heap, until main ends
    try:
        command, keyword, configs, flags = parse_command_line(sys.argv[1:] if argv is None else list(argv))
        cfg = parse_config(configs[0])
        outdir = Path(flags.get("--output-dir") or cfg.sections["output"]["directory"])
        outdir.mkdir(parents=True, exist_ok=True)
        cfg2 = parse_config(configs[1]) if command == "depend" else None
        started = time.perf_counter()
        code, failure = EXIT_OK, None
        experiment = f"{command} {keyword}" if keyword else command
        if command == "simulate":
            payload, trajectory, failure = run_simulate(cfg)
            write_trajectory_csv(outdir / "trajectory.csv", trajectory)
            progress = f"{len(trajectory)} records"
        elif command == "verify":
            payload = run_verify(cfg, keyword, int(flags["--seed"]))
            violations = payload["violations"]
            progress = f"{len(violations)} violations" if violations else "ok"
            code = EXIT_NUMERIC if violations else EXIT_OK
        elif command == "converge":
            payload = run_converge(cfg, keyword)
            write_table_csv(outdir / "convergence.csv", payload["rows"])
            progress = f"{len(payload['rows'])} rows"
        else:
            payload, row = run_depend(cfg, cfg2)
            write_table_csv(outdir / "dependence.csv", [row])
            progress = f"lhs = {payload['lhs']:.6g}"
        write_summary_json(outdir / "summary.json", {
            "config": cfg.sections, "experiment": experiment, **payload,
            "wall_time_s": time.perf_counter() - started,
        })
        if failure is not None:
            print(f"numeric failure: {failure}", file=sys.stderr)
            return EXIT_NUMERIC
        if "--quiet" not in flags:
            print(f"{experiment}: {progress} -> {outdir}")
        return code
    except (ConfigParseError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: (2.11) the problem does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
