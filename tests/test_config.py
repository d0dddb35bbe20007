"""Config file parsing, validation, and override precedence."""

import numpy as np
import pytest

from savfem.config import (
    CELL_BOX,
    SPHERE_BOX,
    ConfigError,
    RunConfig,
    load_config,
    parse_overrides,
)


class TestDefaults:
    def test_default_values(self):
        config = RunConfig()
        assert config.surface == "sphere"
        assert config.level == 3
        assert config.base_scale == 1
        assert config.geometry_divisions == 2
        assert config.epsilon == 0.05
        assert config.scheme == "bdf2"
        assert config.dt == 0.005
        assert config.c_shift == 1.0

    def test_sphere_box_geometry(self):
        config = RunConfig(surface="sphere")
        np.testing.assert_allclose(config.box(), SPHERE_BOX)
        ls = config.levelset()
        assert ls.evaluate(np.array([[1.0, 0.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_cell_box_geometry(self):
        config = RunConfig(surface="cell")
        np.testing.assert_allclose(config.box(), CELL_BOX)
        # (0, 1, 0) lies on the idealized cell surface
        assert config.levelset().evaluate(np.array([[0.0, 1.0, 0.0]]))[0] == pytest.approx(
            0.0, abs=1e-14
        )

    def test_derived_objects(self):
        config = RunConfig(epsilon=0.3, rho=2.0, solver_rel_tolerance=1e-9, tol=5e-4)
        assert config.physics().epsilon == 0.3
        assert config.physics().rho == 2.0
        assert config.solver_config().rel_tolerance == 1e-9
        assert config.controller().tol == 5e-4


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"surface": "torus"}, "surface"),
            ({"scheme": "rk4"}, "scheme"),
            ({"ic": "vortex"}, "ic"),
            ({"level": 0}, "level"),
            ({"base_scale": 0}, "base_scale"),
            ({"geometry_divisions": 3}, "geometry_divisions"),
            ({"dt": 0.0}, "positive"),
            ({"t_end": -1.0}, "positive"),
            ({"vtk_interval": -1}, "vtk_interval"),
        ],
    )
    def test_bad_values(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            RunConfig(**kwargs)


class TestParsing:
    def test_file_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
            # phase separation on the sphere
            surface = sphere
            level = 4        # refinement
            epsilon = 0.05
            seed = 7

            scheme = bdf1
            """
        )
        config = load_config(path)
        assert config.level == 4
        assert config.seed == 7
        assert config.scheme == "bdf1"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lewel = 4\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("surface sphere\n")
        with pytest.raises(ConfigError, match="run.cfg:1"):
            load_config(path)

    def test_type_coercion(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("level = 5\ndt = 1e-3\nrun_name = trial\n")
        config = load_config(path)
        assert config.level == 5 and isinstance(config.level, int)
        assert config.dt == pytest.approx(1e-3)
        assert config.run_name == "trial"

    def test_removed_solver_keys_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("solver = krylov\n")
        with pytest.raises(ConfigError, match="unknown config key 'solver'"):
            load_config(path)
        for key in ("solver_max_iterations", "preconditioner", "mobility", "mobility_constant"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                parse_overrides([f"{key}=1"])

    def test_bad_literal_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("level = four\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_no_file_gives_defaults(self):
        assert load_config(None) == RunConfig()


class TestOverrides:
    def test_override_wins_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("level = 3\nepsilon = 0.05\n")
        config = load_config(path, ["level=5", "seed = 11"])
        assert config.level == 5
        assert config.seed == 11
        assert config.epsilon == 0.05

    def test_parse_overrides_dict(self):
        out = parse_overrides(["dt=0.01", "scheme=bdf1"])
        assert out == {"dt": 0.01, "scheme": "bdf1"}

    def test_empty_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_overrides(["   "])

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_overrides(["cheese=cheddar"])


class TestOutputDir:
    def test_env_var_overrides_config(self, tmp_path, monkeypatch):
        config = RunConfig(output_dir="from_config")
        monkeypatch.setenv("SAVFEM_OUTPUT_DIR", str(tmp_path / "from_env"))
        assert config.resolved_output_dir() == tmp_path / "from_env"

    def test_config_value_without_env(self, monkeypatch):
        monkeypatch.delenv("SAVFEM_OUTPUT_DIR", raising=False)
        config = RunConfig(output_dir="from_config")
        assert str(config.resolved_output_dir()) == "from_config"
