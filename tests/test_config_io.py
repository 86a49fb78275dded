import re
import struct
import warnings

import numpy as np
import pytest

from mhdlab import cli
from mhdlab.config import evaluate_expression, parse_config
from mhdlab.errors import ConfigError, SnapshotError
from mhdlab.grid import Grid, ScalarField, VectorField, GalerkinBasis
from mhdlab.snapshot import MAGIC, VERSION, read_snapshot, write_snapshot
from mhdlab.solver import InitialData, initial_state
from mhdlab.tolerances import TOLERANCES, dump

MINIMAL = """
[grid]
nx = 16
ny = 16

[reg]
epsilon = 0.01
delta = 0.01

[time]
t_final = 0.05
dt = 0.005
"""


def with_value(section, key, value):
    """MINIMAL with `key = value` in [section], replacing any earlier value."""
    text = re.sub(rf"(?m)^{key} = .*\n", "", MINIMAL)
    if f"[{section}]" in text:
        return text.replace(f"[{section}]", f"[{section}]\n{key} = {value}")
    return text + f"\n[{section}]\n{key} = {value}\n"


class TestParseConfig:
    def test_minimal_file_fills_documented_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.nx == 16
        assert cfg.eos.gamma == pytest.approx(5.0 / 3.0)
        assert cfg.reg.Gamma == 8.0
        assert cfg.reg.n == 8
        assert cfg.schedule.snapshot_stride == 1
        assert cfg.initial_exprs["rho"] == "1"
        assert cfg.output_dir == "out"

    def test_gamma_cap_constraint(self):
        text = MINIMAL + "\n[eos]\ngamma = 1.6666666666666667\n"
        text = text.replace("[reg]", "[reg]\ngamma_cap = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("gamma_cap" in v and "max(4, 2*gamma)" in v
                   for v in err.value.violations)

    def test_unknown_key_named(self):
        text = MINIMAL.replace("nx = 16", "nx = 16\nfoo = 3")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("'foo'" in v for v in err.value.violations)

    def test_all_violations_reported(self):
        text = """
[grid]
nx = 12
ny = 16
[reg]
epsilon = -1
delta = 0.01
gamma_cap = 2
[time]
t_final = 0.1
dt = 0.01
[initial]
theta = -1
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        joined = "\n".join(err.value.violations)
        assert "powers of two" in joined
        assert "gamma_cap" in joined
        assert len(err.value.violations) >= 2

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_initial_field_rejected(self):
        text = MINIMAL + "\n[initial]\nrho = (x - 2)**0.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "rho must be strictly positive" in str(err.value)

    @pytest.mark.parametrize("line", [
        "rho = (x - 2)**0.5", "rho = 1/(x - x)", "ux = (x - 2)**0.5",
        "theta = 1/0", "b = 10.0**400",
    ])
    def test_invalid_values_raise_only_config_error(self, line):
        # no numpy warning reaches the user ahead of the rejection
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError):
                parse_config(MINIMAL + f"\n[initial]\n{line}\n")

    @pytest.mark.parametrize("section, key, value", [
        ("time", "t_final", "inf"),
        ("reg", "gamma_cap", "nan"), ("reg", "gamma_cap", "inf"),
        ("reg", "epsilon", "inf"), ("reg", "delta", "inf"),
        ("reg", "theta_bar", "inf"), ("eos", "mu0", "inf"), ("eos", "a", "inf"),
    ])
    def test_non_finite_parameter_rejected(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(with_value(section, key, value))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"[{section}]")

    def test_cfl_checked_at_load(self):
        text = MINIMAL + "\n[initial]\nux = 10*sin(pi*x)*sin(pi*y)\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("CFL" in v for v in err.value.violations)

    def test_build_initial_data(self):
        text = MINIMAL + """
[initial]
rho = 1 + 0.1*cos(pi*x)
b = 2 + 0.2*cos(pi*x)
theta = exp(0.05*cos(pi*y))
"""
        cfg = parse_config(text)
        init = cfg.build_initial_data()
        assert init.rho0.values.min() > 0.85
        assert init.c_star > 0


class TestExpressions:
    def test_basic_evaluation(self):
        g = Grid(16, 16, 1.0, 1.0)
        vals = evaluate_expression("1 + 0.5*cos(pi*x)*sin(pi*y)", g)
        expected = 1 + 0.5 * np.cos(np.pi * g.X) * np.sin(np.pi * g.Y)
        assert np.allclose(vals, expected, atol=1e-15)

    def test_constant_broadcast(self):
        g = Grid(16, 16)
        assert evaluate_expression("2", g).shape == g.shape

    def test_unknown_name_rejected(self):
        g = Grid(16, 16)
        with pytest.raises(ValueError):
            evaluate_expression("1 + q", g)

    def test_dunder_rejected(self):
        g = Grid(16, 16)
        with pytest.raises(ValueError):
            evaluate_expression("(1).__class__", g)


class TestSnapshot:
    def make_state(self, seed=0):
        g = Grid(16, 32, 1.5, 0.7)
        rng = np.random.default_rng(seed)
        basis = GalerkinBasis(g, 3)
        init = InitialData(
            ScalarField(g, 1.0 + 0.3 * rng.random(g.shape)),
            ScalarField(g, 2.0 + 0.3 * rng.random(g.shape)),
            ScalarField(g, 1.0 + 0.3 * rng.random(g.shape)),
            VectorField(g, rng.standard_normal(g.shape),
                        rng.standard_normal(g.shape)),
        )
        st = initial_state(init, basis)
        st.t = 0.375
        return st

    def test_round_trip_bit_exact(self, tmp_path):
        st = self.make_state()
        path = tmp_path / "state.mhdw"
        write_snapshot(st, path)
        back = read_snapshot(path)
        assert back.t == st.t
        assert back.grid == st.grid
        assert np.array_equal(back.rho.values, st.rho.values)
        assert np.array_equal(back.b.values, st.b.values)
        assert np.array_equal(back.theta.values, st.theta.values)
        assert np.array_equal(back.u.vx, st.u.vx)
        assert np.array_equal(back.u.vy, st.u.vy)

    def test_truncated_rejected(self, tmp_path):
        st = self.make_state()
        path = tmp_path / "state.mhdw"
        write_snapshot(st, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mhdw"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SnapshotError) as err:
            read_snapshot(path)
        assert "not a snapshot" in str(err.value)

    def test_wrong_version_rejected(self, tmp_path):
        st = self.make_state()
        path = tmp_path / "state.mhdw"
        write_snapshot(st, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            read_snapshot(path)


    @pytest.mark.parametrize(
        "header",
        [
            {"nx": 12}, {"nx": 0}, {"ny": 4},
            {"lx": 0.0}, {"lx": -1.0}, {"ly": float("nan")}, {"lx": float("inf")},
            {"t": float("nan")}, {"t": float("inf")},
            {"fill": float("nan")},
        ],
        ids=lambda h: ",".join(f"{k}={v}" for k, v in h.items()),
    )
    def test_malformed_header_or_payload_rejected(self, tmp_path, header):
        h = {"nx": 16, "ny": 16, "lx": 1.0, "ly": 1.0, "t": 0.0, "fill": 1.0}
        h.update(header)
        payload = np.full(5 * h["nx"] * h["ny"], h["fill"], dtype="<f8")
        path = tmp_path / "bad.mhdw"
        path.write_bytes(
            struct.pack("<4sIIIddd", MAGIC, VERSION, h["nx"], h["ny"], h["lx"],
                        h["ly"], h["t"])
            + payload.tobytes()
        )
        with pytest.raises(SnapshotError):
            read_snapshot(path)


class TestTolerances:
    def test_machine_readable_dump(self, tmp_path):
        import json

        path = tmp_path / "tol.json"
        dump(path)
        loaded = json.loads(path.read_text())
        assert loaded == TOLERANCES
        assert loaded["mms_spatial_order"] == 1.9


class TestCli:
    def test_run_on_equilibrium_config(self, tmp_path):
        cfg = tmp_path / "eq.ini"
        cfg.write_text(MINIMAL)
        code = cli.main(
            ["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        )
        assert code == 0
        csv_path = tmp_path / "out" / "diagnostics.csv"
        snaps = sorted((tmp_path / "out").glob("snap_*.mhdw"))
        assert len(snaps) == 11
        # equilibrium run keeps every balance residual at the noise floor
        import csv as csv_mod

        with open(csv_path) as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == 11
        for row in rows:
            assert abs(float(row["energy_balance_residual"])) <= 1e-10
            assert abs(float(row["entropy_balance_residual"])) <= 1e-10

    def test_outputs_deterministic(self, tmp_path):
        cfg = tmp_path / "eq.ini"
        cfg.write_text(MINIMAL + "\n[initial]\nrho = 1 + 0.05*cos(pi*x)\n"
                       "b = 2 + 0.1*cos(pi*x)\n")
        for d in ("a", "b"):
            assert cli.main(["run", "--config", str(cfg),
                             "--output-dir", str(tmp_path / d)]) == 0
        csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert csv_a == csv_b
        snap_a = (tmp_path / "a" / "snap_000010.mhdw").read_bytes()
        snap_b = (tmp_path / "b" / "snap_000010.mhdw").read_bytes()
        assert snap_a == snap_b

    def test_run_initial_from_snapshot(self, tmp_path):
        cfg = tmp_path / "eq.ini"
        cfg.write_text(MINIMAL)
        cli.main(["run", "--config", str(cfg),
                  "--output-dir", str(tmp_path / "out")])
        restart = MINIMAL + (
            f"\n[initial]\nsnapshot = {tmp_path / 'out' / 'snap_000010.mhdw'}\n"
        )
        cfg2 = tmp_path / "restart.ini"
        cfg2.write_text(restart)
        code = cli.main(["run", "--config", str(cfg2),
                         "--output-dir", str(tmp_path / "out2")])
        assert code == 0

    def test_sweep_precondition_exit_code(self, tmp_path):
        cfg = tmp_path / "eq.ini"
        cfg.write_text(MINIMAL)
        code = cli.main([
            "sweep", "--config", str(cfg), "--which", "epsilon",
            "--ladder", "0.1,0.05", "--output-dir", str(tmp_path / "out"),
        ])
        assert code != 0

    @pytest.mark.parametrize("which, ladder", [
        ("n", "4,x,8"),
        ("epsilon", "0.1,x,0.025"),
        ("epsilon", "inf,0.1,0.025"),
        ("n", "2,3.7,4"),
    ])
    def test_sweep_rejects_malformed_ladder(self, tmp_path, capsys, which, ladder):
        cfg = tmp_path / "eq.ini"
        cfg.write_text(MINIMAL)
        out_dir = tmp_path / "out"
        code = cli.main(["sweep", "--config", str(cfg), "--which", which,
                         "--ladder", ladder, "--output-dir", str(out_dir)])
        assert code == 2
        assert "ladder" in capsys.readouterr().out
        assert not out_dir.exists()

    def test_sweep_rejects_n_beyond_basis(self, tmp_path, capsys):
        cfg = tmp_path / "eq.ini"
        cfg.write_text(MINIMAL)  # 16x16 grid: at most 7*7 = 49 modes
        out_dir = tmp_path / "out"
        code = cli.main(["sweep", "--config", str(cfg), "--which", "n",
                         "--ladder", "2,4,50", "--output-dir", str(out_dir)])
        assert code == 2
        assert "n must lie in [1, 49]" in capsys.readouterr().out
        assert not out_dir.exists()

    def test_config_rejection_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MINIMAL + "\n[grid]\nfoo = 1\n")
        code = cli.main(["run", "--config", str(cfg)])
        assert code == 2

    def test_run_rejects_infinite_t_final(self, tmp_path, capsys):
        cfg = tmp_path / "inf.ini"
        cfg.write_text(with_value("time", "t_final", "inf"))
        code = cli.main(["run", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "t_final" in capsys.readouterr().out

    def test_check_passes(self, capsys):
        code = cli.main(["check", "--grid", "16", "--samples", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gibbs residual" in out
        assert "korn ratio" in out
        assert "poincare ratio" in out
        assert "coercivity" in out

    def test_mms_command_reports_orders(self, capsys):
        code = cli.main(["mms", "--grid-sizes", "16,32"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spatial orders" in out
        assert "temporal orders" in out
