import pytest

from nwavelab.config import DEFAULTS, Config, ConfigError, load_config


def test_defaults_load_clean():
    cfg = load_config()
    assert cfg.params.q == 1.5
    assert cfg.params.dx == 1.0 / 256.0
    assert cfg.datum_kind == "box"
    assert cfg.seed == 0
    assert cfg.raw["q"] == 1.5


def test_file_parsing(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text(
        "# a comment\n"
        "q = 1.25\n"
        "grid.dx = 0.0078125   # inline comment\n"
        "output.times = 0.5, 1.0, 2.0\n"
        "kernel.family = triangle\n"
        "\n"
    )
    cfg = load_config(str(f))
    assert cfg.params.q == 1.25
    assert cfg.params.dx == 0.0078125
    assert cfg.params.output_times == (0.5, 1.0, 2.0)
    assert cfg.params.kernel_family == "triangle"


def test_overrides_beat_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("q = 1.25\nseed = 7\n")
    cfg = load_config(str(f), overrides=["q=1.75"])
    assert cfg.params.q == 1.75
    assert cfg.seed == 7


def test_seed_argument_wins(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("seed = 7\n")
    assert load_config(str(f), overrides=["seed=9"], seed=11).seed == 11


def test_unknown_key_attributed_to_file_line(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("q = 1.5\nqq = 2\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(f))
    assert exc.value.origin.endswith("run.cfg:2")
    assert "unknown key" in str(exc.value)


def test_duplicate_key_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("q = 1.5\nq = 1.6\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(str(f))


def test_malformed_line_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(str(f))


def test_q_range_message_names_interval():
    with pytest.raises(ConfigError, match=r"q must lie in \(1, 2\], got 2.5") as exc:
        load_config(overrides=["q=2.5"])
    assert exc.value.origin == "--set"


def test_constraint_attributed_to_defining_origin(tmp_path):
    # the bad value came from the file even though --set touched other keys
    f = tmp_path / "run.cfg"
    f.write_text("cfl = 1.5\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(f), overrides=["q=1.3"])
    assert exc.value.origin.endswith("run.cfg:1")


def test_parse_type_errors():
    with pytest.raises(ConfigError, match="expected a number"):
        load_config(overrides=["q=fast"])
    with pytest.raises(ConfigError, match="expected an integer"):
        load_config(overrides=["seed=2.5"])
    with pytest.raises(ConfigError, match="number list"):
        load_config(overrides=["output.times=a,b"])
    with pytest.raises(ConfigError, match="key=value"):
        load_config(overrides=["q"])


def test_domain_checks():
    for bad, msg in [
        ("lambda=0.5", "lambda"),
        ("mu=-1", "mu"),
        ("cfl=0", "cfl"),
        ("kernel.family=cauchy", "kernel family"),
        ("datum.kind=blob", "datum kind"),
        ("study.kind=nope", "study kind"),
        ("output.times=2,1", "increasing"),
        ("tail.cap=0", "tail cap"),
        ("nwave.mass=0", "nonzero"),
    ]:
        with pytest.raises(ConfigError, match=msg):
            load_config(overrides=[bad])


def test_coarse_dx_flagged_against_kernel():
    with pytest.raises(ConfigError, match="too coarse"):
        load_config(overrides=["grid.dx=0.5"])


def test_kernel_errors_blame_their_own_key(tmp_path):
    # a coarse dx is grid.dx's fault even when lambda > 1 also rescales
    f = tmp_path / "run.cfg"
    f.write_text("grid.dx = 0.5\nlambda = 2\n")
    with pytest.raises(ConfigError, match="too coarse") as exc:
        load_config(str(f))
    assert exc.value.origin.endswith("run.cfg:1")
    assert "lambda" not in str(exc.value)
    # a buildable kernel rescaled below 9 cells is lambda's
    f.write_text("grid.dx = 0.25\nlambda = 200\n")
    with pytest.raises(ConfigError, match="lambda = 200") as exc:
        load_config(str(f))
    assert exc.value.origin.endswith("run.cfg:2")


def test_grid_must_tile():
    with pytest.raises(ConfigError):
        load_config(overrides=["grid.x_max=12.0001"])


def test_datum_params_follow_kind():
    cfg = load_config(overrides=["datum.kind=gaussian", "datum.sigma=0.5"])
    assert cfg.datum_params == {"mass": 1.0, "center": 0.0, "sigma": 0.5}
    u = cfg.make_datum()
    assert u.mass() == pytest.approx(1.0, abs=1e-12)


def test_raw_roundtrips_through_a_file(tmp_path):
    cfg = load_config(overrides=["q=1.75", "output.times=1,2,4"])
    f = tmp_path / "resolved.cfg"
    lines = []
    for k, v in sorted(cfg.raw.items()):
        text = ",".join(repr(float(x)) for x in v) if isinstance(v, tuple) else str(v)
        lines.append(f"{k} = {text}")
    f.write_text("\n".join(lines) + "\n")
    again = load_config(str(f))
    assert again.raw == cfg.raw


def test_shipped_sample_configs_parse():
    import glob
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    paths = sorted(glob.glob(os.path.join(root, "*.cfg")))
    assert len(paths) >= 3
    for path in paths:
        cfg = load_config(path)
        cfg.params.validate()
        assert cfg.make_datum().n == cfg.params.grid_n()
