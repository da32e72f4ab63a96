import json
import struct

import numpy as np
import pytest

from thermoch import galerkin
from thermoch import io_cli as io
from thermoch import spectral as sp
from thermoch.errors import ConfigurationError

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


class TestExpressions:
    def test_constant(self):
        domain = sp.BoxDomain((1.0,), 16)
        f = io.parse_field_expr("0.25", domain)
        assert np.allclose(f.values, 0.25)

    def test_cosine_sum(self):
        domain = sp.BoxDomain((1.0,), 32)
        f = io.parse_field_expr("0.1 + 0.5*cos(1) - 0.2*cos(3)", domain)
        x = domain.grid_axes()[0]
        expected = 0.1 + 0.5 * np.cos(np.pi * x) - 0.2 * np.cos(3 * np.pi * x)
        assert np.allclose(f.values, expected, atol=1e-14)

    def test_bare_cosine_and_negative_leading(self):
        domain = sp.BoxDomain((1.0,), 16)
        f = io.parse_field_expr("-0.5 + cos(2)", domain)
        x = domain.grid_axes()[0]
        assert np.allclose(f.values, -0.5 + np.cos(2 * np.pi * x), atol=1e-14)

    def test_two_dimensional_modes(self):
        domain = sp.BoxDomain((1.0, 2.0), 16)
        f = io.parse_field_expr("0.3*cos(1,2)", domain)
        xs, ys = domain.grid_coords()
        assert np.allclose(
            f.values, 0.3 * np.cos(np.pi * xs) * np.cos(np.pi * ys), atol=1e-14
        )

    def test_schedule(self):
        domain = sp.BoxDomain((1.0,), 16)
        src = io.parse_source_expr("0.5 ; 0.5: 0.2 + 0.1*cos(1)", domain)
        assert src.at(0.2).values[0] == 0.5
        x = domain.grid_axes()[0]
        assert np.allclose(src.at(0.7).values, 0.2 + 0.1 * np.cos(np.pi * x), atol=1e-14)

    @pytest.mark.parametrize(
        "bad",
        ["", "0.1 +", "cos()", "cos(1,2)", "sin(1)", "0.1 0.2", "1 ; 0.5:", "x + 1"],
    )
    def test_malformed_rejected(self, bad):
        domain = sp.BoxDomain((1.0,), 16)
        with pytest.raises(io.ConfigParseError):
            io.parse_source_expr(bad, domain)


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = io.parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.get("physics", "gamma") == "1.0"
        assert cfg.get("data", "phi0") == "0.3"
        assert cfg.scheme() == "semi_implicit"
        data = cfg.problem_data()
        assert data.params.gamma == 1.0

    def test_round_trip_equality(self, tmp_path):
        cfg = io.parse_config(write_config(tmp_path, FULL))
        again = io.config_from_sections(cfg.as_dict())
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
        with pytest.raises(io.ConfigParseError, match="unknown key"):
            io.parse_config(write_config(tmp_path, text))

    def test_syntax_error_reports_line(self, tmp_path):
        with pytest.raises(io.ConfigParseError, match="line"):
            io.parse_config(write_config(tmp_path, "[domain\ndim = 1\n"))

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

    def test_missing_file_exit_code(self, tmp_path):
        assert io.main(["simulate", str(tmp_path / "absent.ini"), "--quiet"]) == 4

    def test_non_finite_step_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            galerkin, "_semi_implicit_phi", lambda ev, dt, lam, diag, base: np.full_like(base, np.nan)
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

    def test_depend_requires_shared_initial_data(self, tmp_path):
        cfg1 = write_config(tmp_path, FULL, "a.ini")
        cfg2 = write_config(
            tmp_path, FULL.replace("phi0 = 0.1 + 0.2*cos(1)", "phi0 = 0.3"), "b.ini"
        )
        code = io.main(["depend", str(cfg1), str(cfg2), "--quiet"])
        assert code == 2

    def test_run_failure_preserves_partial_artifacts(self, tmp_path, monkeypatch):
        from thermoch import galerkin as gk
        from thermoch.errors import StepFailure

        cfg = write_config(tmp_path, FULL)
        original = gk.step

        def failing(ev, data, dt, scheme=gk.SEMI_IMPLICIT):
            if ev.state.t >= 0.05 - 1e-12:
                raise StepFailure("forced")
            return original(ev, data, dt, scheme)

        monkeypatch.setattr(gk, "step", failing)
        out = tmp_path / "partial"
        code = io.main(["simulate", str(cfg), "--output-dir", str(out), "--quiet"])
        assert code == 3
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 7  # header + records at t = 0 .. 0.05
        summary = json.loads((out / "summary.json").read_text())
        assert any("forced" in v for v in summary["violations"])

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


class TestWriters:
    def test_table_column_union(self, tmp_path):
        rows = [{"a": 1.0}, {"a": 2.0, "b": 3.0}]
        path = tmp_path / "t.csv"
        io.write_table_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,"
