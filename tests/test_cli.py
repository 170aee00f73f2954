import gc
import os
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_mzi_lab import (
    PRESET_NAMES,
    ConfigError,
    DitherProtocol,
    Dove,
    GuardError,
    Mirror,
    MirrorTable,
    TiltSet,
    TransverseField,
    TransverseGrid,
    default_beam,
    default_grid,
    detector_field_analytic,
    detector_field_numeric,
    field_before_F,
    make_gaussian,
    weak_value_report,
)
from nested_mzi_lab import cli, detection
from nested_mzi_lab.cli import (
    _KEY_TYPES,
    COMMANDS,
    main,
    parse_config,
    write_field_csv,
    write_series_csv,
)

from conftest import CORNERS, widest_scenario

FAST_CFG = (
    "freq_A=100.0 freq_B=128.0 freq_C=160.0 freq_E=264.0 freq_F=440.0\n"
    "sample_rate=4000.0 duration=0.25\n"
)


FLOAT_KEYS = sorted(key for key, kind in _KEY_TYPES.items() if kind is float)


def nan_series(scenario, protocol):
    series = np.zeros(protocol.sample_count)
    series[3] = np.nan
    return series


def nan_field(engine):
    """engine, with one nan in the amplitude of each field it returns."""

    def broken(scenario, tilts):
        field = engine(scenario, tilts)
        amplitude = field.amplitude.copy()
        amplitude[3] = np.nan
        return TransverseField(field.grid, amplitude, field.k)

    return broken


def nan_effective(scenario):
    report = weak_value_report(scenario)
    return replace(report, effective={**report.effective, Mirror.E: np.nan})


#: Per case: the command's arguments, the (module, name) pairs the CLI reads
#: its output through, and the stand-in that puts one nan into that output.
NON_FINITE_OUTPUTS = {
    "weak-values": (["weak-values"], [(cli, "weak_value_report")], nan_effective),
    "centroid-numeric": (
        ["centroid"], [(cli, "detector_field_numeric")], nan_field(detector_field_numeric)
    ),
    "centroid-analytic": (
        ["centroid", "--engine", "analytic", "--set", "alpha_E=5e-7"],
        [(cli, "detector_field_analytic")],
        nan_field(detector_field_analytic),
    ),
    "before-F": (["before-F"], [(cli, "field_before_F")], nan_field(field_before_F)),
    "dither": (["dither"], [(cli, "run_dither"), (detection, "run_dither")], nan_series),
    "photons": (["photons"], [(cli, "run_dither"), (detection, "run_dither")], nan_series),
}


def read_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or "," not in line or line.split(",")[0].isalpha() is None:
            continue
        rows.append(line.split(","))
    return rows[1:]  # drop header


def read_comments(path):
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            out[key] = value
    return out


class TestParseConfig:
    def test_preset_lookup(self):
        config = parse_config("preset=fig1c command=weak-values")
        assert config.scenario.dove is Dove.BEFORE
        assert config.command == "weak-values"

    def test_ordering_violation(self):
        with pytest.raises(ConfigError, match="z_E"):
            parse_config("command=centroid z_E=0.1 z_A=1.0")

    def test_empty_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("preset=fig1a")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="waistline"):
            parse_config("command=centroid waistline=3")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="z_E"):
            parse_config("command=centroid z_E=tall")

    def test_seed_required_for_photons(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("command=photons preset=fig1c")

    def test_engine_only_for_centroid(self):
        with pytest.raises(ConfigError, match="engine"):
            parse_config("command=dither engine=analytic")

    def test_later_keys_override_preset(self):
        config = parse_config("preset=fig1c command=centroid alpha_E=1e-6")
        assert config.tilts[Mirror.E] == 1e-6

    def test_round_trip(self):
        config = parse_config("preset=alt-port command=dither seed=5")
        again = parse_config(config.to_text())
        assert again.scenario == config.scenario
        assert again.tilts == config.tilts
        assert again.protocol == config.protocol
        assert (again.command, again.engine, again.seed) == (
            config.command,
            config.engine,
            config.seed,
        )


#: manifest_hash() of "preset=<p> command=<c> seed=7".  Any change to a key
#: name, the line order or a value's formatting changes these digests, and
#: manifests already written must keep reproducing their runs.
PINNED_MANIFEST_HASHES = {
    ("fig1a", "weak-values"): "622e57b48a167e10c59ff3cf124d6664693a1de861ceac19e8e673750b48800a",
    ("fig1a", "centroid"): "3a26282f52289d0040fca81241474d64836ea49d9fdbfc7ea0e90ba2c1b69a74",
    ("fig1a", "dither"): "c628617d4840e191e4a920ce87132caecbaea0257f2a6bde542cfb5cc08c40d0",
    ("fig1a", "photons"): "0a1f02b3541f67bf49bf414f387a36b1a1a9c477a2a19fefe853b3ff2e3e802b",
    ("fig1a", "before-F"): "385d67a95a67b4ccf5931b49ca38d70db53b040cc977729b2762b66e2cd23926",
    ("fig1b", "weak-values"): "ca84c7ece7bdce1d79babb84f4013a90a0df68da02a83248042eed15b86650db",
    ("fig1b", "centroid"): "e85508c5b9808b366ccec953cbe24c0b7d1411f34a1c82652688b26cf08889e6",
    ("fig1b", "dither"): "07374905c873aa78191a7f4c4f48566b6ee84920ef0ee7a31c21ec32762a8c15",
    ("fig1b", "photons"): "e9b0999dec5e20adee5593c3bf404b664445e219e4b10c7145e664b6b7335dfe",
    ("fig1b", "before-F"): "932b167145397ce7ac5b600c691841001c61d3a13fde10046b82850166e64aff",
    ("fig1c", "weak-values"): "8decaa8196f07a61f535cbb7e8747f3f24b43f4852c91de9440ccd0081af2e43",
    ("fig1c", "centroid"): "1af511d5ae46f717663942bc13b061a12de7da20aee0d5dabe4aeb60550c2d23",
    ("fig1c", "dither"): "672e7b861c1622a47ffe0280c9666d7cdc2062723dd4d78ccfdb341ce92a5845",
    ("fig1c", "photons"): "36fcf0a65c34d92f181f32ca3d593ba31bf3fca146e56aba7b41019466479b3d",
    ("fig1c", "before-F"): "864305f43790f7346eecd671e7a9fca2dec3c88923d6eb54ee605b7eba988625",
    ("dove-after", "weak-values"): "d862c760f126f4465ea76f5a352933277bfaf8ffb658be7498e46c7ea41f6dd8",
    ("dove-after", "centroid"): "b74460a44ec4a88b086d92f50ff2fe4e9e0b0cbdc1f517009284460b43d9a57e",
    ("dove-after", "dither"): "54dcedcb3b863d228531891cc24659fe7e89532fad11e22ef8a99960e4ddedf4",
    ("dove-after", "photons"): "6691298ca5371964ca05c9781b3b753979d62bf26b700ca1c067b16871742fc1",
    ("dove-after", "before-F"): "483011c6cdfb69c362662022b90e2bbefd4d0a7300ef6f2df720baf11adf8abe",
    ("alt-port", "weak-values"): "22ee5eff7d9b8573887104cac20d0bb7f7c37901f8ad2d41ebe480bf099e2dca",
    ("alt-port", "centroid"): "be34df1a19bb96d7f3bb9ab68aa9bb7008afe8b3eaf2f58bb07cd9712ad05beb",
    ("alt-port", "dither"): "9421bdd474c915b414449f4b72071fc8deeccc7632a216a9ab75cd7e882a09a6",
    ("alt-port", "photons"): "9af36882ff2d71408839c989c0600577a8654b568180845ce0711620de21afd0",
    ("alt-port", "before-F"): "2929d50f17bf03f24cfb901a8861b2e6009d4b57012ff8109f3b100d8f8fd935",
}

PINNED_FIG1C_DITHER = """\
command=dither
preset=fig1c
engine=numeric
z_A=1.0
z_B=1.0
z_C=1.0
z_E=1.5
z_F=0.5
path_length=2.0
wavelength=6.33e-07
w0=0.001
grid_n=1024
grid_half_width=0.016
dove=before
port=bright
alpha_A=0.0
alpha_B=0.0
alpha_C=0.0
alpha_E=5e-05
alpha_F=0.0
amp_A=1e-06
amp_B=1e-06
amp_C=1e-06
amp_E=1e-06
amp_F=1e-06
freq_A=307.0
freq_B=367.0
freq_C=433.0
freq_E=509.0
freq_F=577.0
sample_rate=10000.0
duration=1.0
photons_per_sample=100000
"""


class TestManifestFormat:
    def test_fig1c_dither_text(self):
        assert parse_config("preset=fig1c command=dither").to_text() == PINNED_FIG1C_DITHER

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_pinned_hash(self, preset, command):
        config = parse_config(f"preset={preset} command={command} seed=7")
        assert config.manifest_hash() == PINNED_MANIFEST_HASHES[(preset, command)]


class TestCliRuns:
    def test_weak_values_fig1c(self, tmp_path):
        out = tmp_path / "wv"
        assert main(["weak-values", "--preset", "fig1c", "--out", str(out)]) == 0
        text = (out / "weak_values.txt").read_text()
        assert "projector_E = 0+0j" in text
        assert "dove_enabled = true" in text
        rows = {r[0]: r for r in read_rows(out / "weak_values.csv")}
        assert float(rows["E"][3]) == pytest.approx(-2.0, abs=1e-2)
        assert float(rows["E"][1]) == 0.0
        assert (out / "manifest.txt").exists()

    def test_centroid_fig1a_walk_off(self, tmp_path):
        out = tmp_path / "cen"
        assert main(["centroid", "--preset", "fig1a", "--out", str(out)]) == 0
        rows = {r[0]: r for r in read_rows(out / "centroid.csv")}
        assert float(rows["numeric"][1]) == pytest.approx(1.0 * 50e-6, rel=1e-2)

    def test_dither_fig1b_has_no_e_peak(self, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "dither"
        code = main(
            ["dither", "--preset", "fig1b", "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        notes = read_comments(out / "spectrum.csv")
        assert notes["peaks_over_5x_floor"] == "A,B,C"
        series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=2)
        assert series.shape == (1000, 2)

    def test_photons_command(self, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CFG + "photons_per_sample=100000\n")
        out = tmp_path / "photons"
        code = main(
            [
                "photons", "--preset", "fig1c", "--config", str(cfg),
                "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        notes = read_comments(out / "empirical_spectrum.csv")
        assert "E" in notes["peaks_over_5x_floor"]

    def test_before_f_power_ratio(self, tmp_path):
        out = tmp_path / "bf"
        code = main(
            ["before-F", "--preset", "fig1b", "--out", str(out), "--set", "alpha_E=1e-6"]
        )
        assert code == 0
        notes = read_comments(out / "before_f.csv")
        assert float(notes["power_ratio"]) < 1e-6

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_both_engines_run_at_the_preset_tilt(self, tmp_path, preset):
        # 50 urad is k alpha w0 = 0.5, past the first-order regime; the fold is exact there.
        args = ["centroid", "--preset", preset, "--engine", "both", "--out", str(tmp_path)]
        assert main(args) == 0
        rows = {r[0]: [float(v) for v in r[1:]] for r in read_rows(tmp_path / "centroid.csv")}
        centroid, split, power = rows["analytic"]
        assert centroid == pytest.approx(rows["numeric"][0], rel=1e-9, abs=1e-15)  # 1e-12 w0
        assert split == pytest.approx(rows["numeric"][1], rel=1e-9, abs=1e-12)
        assert power == pytest.approx(rows["numeric"][2], rel=1e-12)

    @pytest.mark.parametrize("command", ["centroid", "dither", "before-F"])
    def test_byte_identical_reruns(self, tmp_path, command):
        # A cold run (no axis text cached) and a hot rerun in the same process.
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = [command, "--preset", "fig1c", "--seed", "3"]
        cli._axis_block.cache_clear()
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert len(names) >= 2 and names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_rerun_from_manifest_reproduces(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["centroid", "--preset", "dove-after", "--out", str(out_a)]) == 0
        assert main(
            ["centroid", "--config", str(out_a / "manifest.txt"), "--out", str(out_b)]
        ) == 0
        assert (out_a / "centroid.csv").read_bytes() == (out_b / "centroid.csv").read_bytes()

    def test_outputs_carry_manifest_hash(self, tmp_path):
        out = tmp_path / "cen"
        assert main(["centroid", "--preset", "fig1a", "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        digest = [
            line.split("=", 1)[1]
            for line in manifest.splitlines()
            if line.startswith("# manifest_sha256=")
        ][0]
        first_line = (out / "centroid.csv").read_text().splitlines()[0]
        assert first_line == f"# manifest_sha256={digest}"

    def test_a_run_makes_its_manifest_text_and_hash_once(self, monkeypatch, tmp_path):
        made, hashed = [], []
        to_text, sha256 = cli.RunConfig.to_text, cli.hashlib.sha256
        monkeypatch.setattr(cli.RunConfig, "to_text", lambda c: made.append(1) or to_text(c))
        monkeypatch.setattr(cli.hashlib, "sha256", lambda b: hashed.append(1) or sha256(b))
        out = tmp_path / "wv"
        assert main(["weak-values", "--preset", "fig1c", "--out", str(out)]) == 0
        assert (len(made), len(hashed)) == (1, 1)
        manifest = (out / "manifest.txt").read_text()
        digest = sha256(manifest.split("\n", 3)[3].encode()).hexdigest()
        assert f"# manifest_sha256={digest}\n" in manifest
        assert (out / "weak_values.txt").read_text().startswith(f"# manifest_sha256={digest}\n")


class TestFlagsBeatSet:
    """A flag and a --set of the same key: the flag's value runs and reaches the manifest."""

    @pytest.mark.parametrize(
        "args, pair, line",
        [
            (["centroid", "--preset", "fig1a"], "preset=fig1c", "preset=fig1a"),
            (
                ["centroid", "--preset", "fig1a", "--set", "alpha_A=5e-7", "--engine", "analytic"],
                "engine=numeric",
                "engine=analytic",
            ),
            (
                ["photons", "--preset", "fig1c", "--set", "sample_rate=2400", "--seed", "5"],
                "seed=3",
                "seed=5",
            ),
            (["centroid", "--preset", "fig1a"], "command=weak-values", "command=centroid"),
        ],
        ids=["preset", "engine", "seed", "command"],
    )
    def test_flag_wins(self, tmp_path, args, pair, line):
        alone, overridden = tmp_path / "alone", tmp_path / "overridden"
        assert main([*args, "--out", str(alone)]) == 0
        assert main([*args, "--set", pair, "--out", str(overridden)]) == 0
        assert line in (overridden / "manifest.txt").read_text().splitlines()
        names = sorted(p.name for p in alone.iterdir())
        assert names == sorted(p.name for p in overridden.iterdir())
        for name in names:
            assert (alone / name).read_bytes() == (overridden / name).read_bytes()

    def test_out_flag_wins(self, tmp_path):
        flag, pair = tmp_path / "flag", tmp_path / "pair"
        args = ["centroid", "--preset", "fig1a", "--set", f"out={pair}", "--out", str(flag)]
        assert main(args) == 0
        assert (flag / "manifest.txt").exists()
        assert not pair.exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ["--preset", "fig9z"],
            ["--preset", "fig1c", "--set", "dove=sideways"],
            ["--preset", "fig1c", "--set", "port=dark"],
            # A flag is the same key=value as --set: one config line, not argparse's usage.
            ["--preset", "fig1c", "--engine", "bogus"],
            ["--preset", "fig1c", "--seed", "abc"],
            # A malformed command line is the same one line, and main returns 2.
            ["--bogus", "1"],
            ["--seed"],
        ],
        ids=" ".join,
    )
    def test_config_error_is_2(self, tmp_path, capsys, args):
        assert main(["centroid", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error category=config")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["dither", "--set", "foo"], "expected key=value, got 'foo'"),
            (["fly"], "unknown command 'fly'; expected one of"),
            (["photons", "--seed", "7", "--set", "photons_per_sample=0"],
             "photons_per_sample must be >= 1"),
        ],
        ids=["no equals sign", "unknown command", "no photons per sample"],
    )
    def test_refused_config_text_is_2(self, tmp_path, capsys, args, message):
        assert main([*args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error category=config message={message}")
        assert "\n" not in err.strip()
        assert list(tmp_path.iterdir()) == []

    def test_missing_command_is_2(self, tmp_path):
        assert main(["--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("config", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, config):
        (tmp_path / "directory").mkdir()
        (tmp_path / "not_utf8").write_bytes(b"command=centroid\xff\n")
        args = ["--config", str(tmp_path / config), "--out", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error category=config message=cannot read config")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("spelling", ["--out ''", "--set out=", "out= in --config"])
    def test_empty_out_is_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch, spelling):
        config = tmp_path / "run.txt"
        config.write_text("command=centroid\npreset=fig1a\nout=\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        args = {
            "--out ''": ["centroid", "--preset", "fig1a", "--out", ""],
            "--set out=": ["centroid", "--preset", "fig1a", "--set", "out="],
            "out= in --config": ["--config", str(config)],
        }[spelling]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error category=config message=out directory missing\n"
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("out", ["file", "file/below"])
    def test_out_over_a_file_is_2(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        assert main(["centroid", "--preset", "fig1a", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error category=config message=cannot make out directory")
        assert "\n" not in err.strip()

    def test_dither_amplitude_past_the_paraxial_guard_names_its_key(self, tmp_path, capsys):
        args = ["dither", "--preset", "fig1c", "--set", "amp_A=2e-3", "--out", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error category=config")
        assert "amp_A = 0.002 rad" in err
        assert list(tmp_path.iterdir()) == []  # refused by the protocol, before run writes

    @pytest.mark.parametrize("engine, code", [("numeric", 3), ("both", 3), ("analytic", 0)])
    def test_numeric_spectrum_at_the_band_edge_is_3(self, tmp_path, capsys, engine, code):
        # The widest grid with three ramps added up on one path: the numeric engine's
        # spectrum reaches its band edge, where its field would be wrong; the fold is exact.
        beam = default_beam()
        tilts = TiltSet((2.0 / (beam.k * beam.w0) * CORNERS[0]).tolist())
        values = cli._run_values(widest_scenario(), tilts, detection.default_protocol())
        config = tmp_path / "corner.cfg"
        config.write_text("".join(f"{k}={getattr(v, 'value', v)}\n" for k, v in values.items()))
        args = ["centroid", "--config", str(config), "--engine", engine]
        assert main([*args, "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error category=guard message=spectrum edge")
            assert "\n" not in err.strip()
        else:
            assert err == ""
            assert (tmp_path / "out" / "centroid.csv").exists()

    def test_dither_walk_off_past_the_regime_is_3(self, tmp_path, capsys):
        # Long arms at the default dither amplitudes: each k alpha w0 is in the regime,
        # but the walk-offs z_j alpha_j add up past a tenth of the waist.
        lengths = {"z_A": 30, "z_B": 30, "z_C": 30, "z_E": 40, "z_F": 20, "path_length": 45}
        sets = [arg for key, value in lengths.items() for arg in ("--set", f"{key}={value}")]
        assert main(["dither", *sets, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "error category=guard message=summed walk-off 0.00015 m exceeds 0.1 of the waist"
        )
        assert "\n" not in err.strip()

    def test_dither_crest_past_the_regime_is_3(self, tmp_path, capsys):
        # The moment series' radius rests on the crest check, which stays.
        args = ["dither", "--preset", "fig1c", "--set", "amp_E=5e-5", "--out", str(tmp_path)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error category=guard message=k*alpha*w0 = 0.496 exceeds")
        assert "\n" not in err.strip()

    def test_dither_beam_past_the_series_reach_is_3(self, tmp_path, capsys):
        # 300 Rayleigh ranges: too wide at the detector for the series at the run's own radius.
        sets = ["path_length=1489.4", "grid_n=16384", "grid_half_width=1.6"]
        args = ["dither", "--preset", "fig1c", *(a for s in sets for a in ("--set", s))]
        assert main([*args, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error category=guard message=the dither series' rounding gain")
        assert "\n" not in err.strip()
        assert [path.name for path in tmp_path.iterdir()] == ["manifest.txt"]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_is_2(self, tmp_path, capsys, key, value):
        args = ["centroid", "--preset", "fig1a", "--set", f"{key}={value}"]
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error category=config")

    @pytest.mark.parametrize(
        "args",
        [
            # Together these pass every ordering check of the scenario.
            ["centroid", "--preset", "fig1a", "--set", "z_E=inf", "--set", "path_length=inf"],
            # Finite inputs whose products overflow: k = 2*pi/wavelength, the
            # sample count and a cycle count.
            ["centroid", "--preset", "fig1c", "--set", "wavelength=1e-320"],
            ["weak-values", "--preset", "fig1c", "--set", "wavelength=1e-320"],
            ["centroid", "--preset", "fig1c", "--set", "sample_rate=1e300",
             "--set", "duration=1e300"],
            ["centroid", "--preset", "fig1c", "--set", "freq_A=1e300", "--set", "duration=1e10"],
            # 0 whole cycles: the harmonic test divided by the subnormal frequency.
            ["centroid", "--preset", "fig1a", "--set", "freq_A=1e-320"],
            # 1e13 samples x 1024 grid points: over the dither work bound.
            ["dither", "--preset", "fig1c", "--set", "duration=1e9"],
            ["photons", "--preset", "fig1c", "--seed", "1", "--set", "duration=1e9"],
        ],
        ids=" ".join,
    )
    def test_infinite_or_overflowing_input_is_2(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error category=config")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            # Refused before the dither run: numpy's generator takes neither a
            # negative seed nor a count beyond 64 bits.
            ["photons", "--preset", "fig1c", "--seed", "-1", "--set", "sample_rate=2400"],
            ["photons", "--preset", "fig1c", "--seed", "1", "--set", "sample_rate=2400",
             "--set", "photons_per_sample=100000000000000000000"],
            ["photons", "--preset", "fig1c", "--seed", "-1"],
            ["photons", "--preset", "fig1c", "--seed", "7",
             "--set", "photons_per_sample=9223372036854775808"],
            # A dither amplitude past the paraxial guard, for every command that builds one.
            ["centroid", "--preset", "fig1c", "--set", "amp_A=2e-3"],
            # 1e7 samples x 65,536 grid points: over the dither work bound.
            ["dither", "--preset", "fig1c", "--set", "duration=1000", "--set", "grid_n=65536"],
            # The spacing overflows; x**2 overflows; the waist falls between samples.
            ["centroid", "--preset", "fig1a", "--set", "grid_half_width=1e308"],
            ["centroid", "--preset", "fig1a", "--set", "grid_half_width=1e300"],
            ["centroid", "--preset", "fig1a", "--set", "grid_half_width=10"],
            # Sampled finely enough, but w0**2 and x**2 overflow.
            ["centroid", "--preset", "fig1a", "--set", "w0=1e200",
             "--set", "grid_half_width=1e202"],
            # 2 * alpha_step * z_F underflows to 0 in the finite difference.
            ["weak-values", "--preset", "dove-after", "--set", "z_F=5e-324"],
            ["weak-values", "--set", "z_F=5e-324"],
            # It does not underflow, but the centroid's rounding over it reads 2e286.
            ["weak-values", "--preset", "alt-port", "--set", "z_F=1e-300"],
            # Far over the grid bound; refused before anything is allocated.
            ["centroid", "--preset", "fig1a", "--set", f"grid_n={2**40}"],
        ],
        ids=" ".join,
    )
    # pytest would otherwise capture a stray warning that the CLI prints to stderr
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_input_is_2(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error category=config")
        assert "\n" not in err.strip()
        assert list(tmp_path.iterdir()) == []  # parse_config refuses it: no manifest either

    @pytest.mark.parametrize(
        "args",
        [
            # finite geometry whose transfer function overflows to nan
            ["--set", "z_E=1e308", "--set", "path_length=1.7e308"],
            # the fold reaches the grid edge
            ["--engine", "analytic", "--set", "alpha_E=1e-7", "--set", "path_length=17"],
        ],
        ids=" ".join,
    )
    # pytest would otherwise capture a stray warning that the CLI prints to stderr
    @pytest.mark.filterwarnings("error")
    def test_guard_error_is_3(self, tmp_path, capsys, args):
        code = main(["centroid", "--preset", "fig1c", *args, "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error category=guard")
        assert "\n" not in err.strip()


    @pytest.mark.parametrize("case", sorted(NON_FINITE_OUTPUTS))
    def test_non_finite_output_is_3(self, tmp_path, capsys, monkeypatch, case):
        args, targets, broken = NON_FINITE_OUTPUTS[case]
        for module, name in targets:
            monkeypatch.setattr(module, name, broken)
        args = [*args, "--preset", "fig1c", "--seed", "1", "--set", "sample_rate=2400"]
        assert main(args + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error category=guard")
        assert "\n" not in err.strip()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.txt"]


class TestWriters:
    def test_field_csv_round_trip(self, tmp_path):
        field = make_gaussian(default_beam(), default_grid())
        path = tmp_path / "field.csv"
        write_field_csv(path, field, ["note=1"])
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        assert data.shape == (field.grid.n, 3)
        assert np.allclose(data[:, 0], field.grid.xs)
        assert np.allclose(data[:, 1] + 1j * data[:, 2], field.amplitude)

    @pytest.mark.parametrize("note", ["power=nan", "power=inf", "power=-inf"])
    def test_non_finite_comment_is_refused(self, tmp_path, note):
        field = make_gaussian(default_beam(), default_grid())
        path = tmp_path / "field.csv"
        with pytest.raises(GuardError, match="field.csv would hold non-finite values"):
            write_field_csv(path, field, ["note=1", note])
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_refused(self, tmp_path, fast_protocol, bad):
        series = np.zeros(fast_protocol.sample_count)
        series[-1] = bad
        path = tmp_path / "series.csv"
        with pytest.raises(GuardError, match="series.csv would hold non-finite values"):
            write_series_csv(path, fast_protocol, series)
        assert not path.exists()

    def test_unequal_columns_are_refused(self, tmp_path, fast_protocol):
        rows = fast_protocol.sample_count
        path = tmp_path / "series.csv"
        message = rf"series\.csv: columns differ in length \[{rows - 1}, {rows}\]"
        with pytest.raises(ValueError, match=message):
            write_series_csv(path, fast_protocol, np.zeros(rows - 1))
        assert not path.exists()


def whole_column_rows(*columns) -> list[str]:
    """The data rows as a whole-column writer writes them: each column made a list
    at once, every value written as %r."""
    cells = [np.asarray(c).tolist() for c in columns]
    return [",".join("%r" % v for v in row) for row in zip(*cells)]


def written_rows(path) -> list[str]:
    """The rows after the header (no comments are passed), as a list: a mismatch
    reports its first differing row, not a diff of two whole files."""
    return path.read_text().splitlines()[1:]


def random_columns(seed: int, rows: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((count, rows))


#: Frequencies whole at both durations drawn below (0.25 and 0.5 s), under a quarter
#: of every sample rate drawn.
AXIS_FREQS = MirrorTable((100.0, 128.0, 160.0, 264.0, 440.0))
#: Row counts at and around the block edges, drawn as the short protocol's sample count.
EDGE_ROWS = [1023, 1024, 1025, 3 * 1024 + 1]


def protocol(sample_rate: float, duration: float) -> DitherProtocol:
    return DitherProtocol(frequencies=AXIS_FREQS, sample_rate=sample_rate, duration=duration)


@st.composite
def axis_runs(draw):
    """Fields and series whose axes collide on every part of the cache key, in drawn order.

    From k: (4k Hz, 0.25 s) has k rows; (4k Hz, 0.5 s) has the same rate and 2k rows;
    (8k Hz, 0.25 s) has those 2k rows at another rate.  Two grids share n but not
    their half width, and a third has the first one's spacing at twice its n.
    """
    k = draw(st.sampled_from(EDGE_ROWS) | st.integers(441, 3000))
    n = draw(st.sampled_from([256, 1024, 2048, 4096]))
    widths = draw(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=2, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    runs = [protocol(4.0 * k, 0.25), protocol(4.0 * k, 0.5), protocol(8.0 * k, 0.25)]
    for grid in (TransverseGrid(n, widths[0]), TransverseGrid(n, widths[1]),
                 TransverseGrid(2 * n, 2 * widths[0])):
        re, im = random_columns(seed, grid.n, 2)
        runs.append(TransverseField(grid, re + 1j * im, 1e7))
    return draw(st.permutations(runs)), seed


def write_and_expect(path, run, seed) -> list[str]:
    """Write run (a protocol's random series, or a field) to path; the rows expected."""
    if isinstance(run, DitherProtocol):
        series = random_columns(seed, run.sample_count, 1)[0]
        write_series_csv(path, run, series)
        return whole_column_rows(run.times(), series)
    write_field_csv(path, run)
    return whole_column_rows(run.grid.xs, run.amplitude.real, run.amplitude.imag)


class TestAxisBlocks:
    """The axis text cache against the whole-column writer, byte for byte."""

    @settings(max_examples=30, deadline=None)
    @given(drawn=axis_runs())
    def test_cached_axes_write_the_whole_column_bytes(self, drawn):
        runs, seed = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = FsPath(tmp) / "run.csv"
            for run in runs:
                expected = write_and_expect(path, run, seed)
                assert written_rows(path) == expected

    @pytest.mark.parametrize("rows", [1, *EDGE_ROWS])
    def test_block_edges(self, tmp_path, rows):
        path, rate = tmp_path / "series.csv", 3000.0
        series = random_columns(rows, rows, 1)[0]
        for _ in range(2):  # cold, then from the cache
            cli._write_csv(path, [], "t,signal", cli._Axis(rate, None, rows), series)
            assert written_rows(path) == whole_column_rows(np.arange(rows) / rate, series)

    def test_evicted_blocks_are_written_again(self, tmp_path):
        # 70 blocks of t, then a field's 64 blocks of x, then the t axis again: more
        # distinct blocks than the cache holds, so each pass evicts the last one's.
        long = protocol(4.0 * 70 * 1024, 0.25)
        field = make_gaussian(default_beam(), TransverseGrid(65536, 0.123))
        cli._axis_block.cache_clear()
        for run in (long, field, long):
            expected = write_and_expect(tmp_path / "run.csv", run, 5)
            assert written_rows(tmp_path / "run.csv") == expected
        info = cli._axis_block.cache_info()
        assert info.currsize == info.maxsize == cli._AXIS_BLOCKS
        assert info.misses == 70 + 64 + 70 and info.hits == 0


#: The stated bound on the axis cache's retained memory (cli._AXIS_BLOCKS).
AXIS_CACHE_BYTES = 6 * 2**20


def traced(write) -> tuple[int, int]:
    """(peak, retained) bytes that write() allocates, traced from a cold axis cache."""
    cli._axis_block.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, retained - start


class TestWriterMemory:
    @pytest.mark.parametrize("rows", [2**18])
    def test_transient_peak_does_not_grow_with_the_rows(self, rows):
        # A whole-column writer peaks at about 88 bytes a row (22 MiB at 2**18 rows);
        # block by block, the peak is the full axis cache and one block of each column.
        run = protocol(float(rows), 1.0)
        series = random_columns(rows, rows, 1)[0]
        peak, retained = traced(lambda: write_series_csv(FsPath(os.devnull), run, series))
        assert peak < AXIS_CACHE_BYTES + 2**20
        assert retained < AXIS_CACHE_BYTES

    def test_axis_cache_retains_its_bound(self):
        # Near the bound's worst case of 24 characters a row: every kept block is a block of
        # this grid's x axis, 20 characters a row in the median and 23 at most.
        grid = TransverseGrid(65536, 0.0123)
        block = cli._CSV_BLOCK

        def fill():
            for start in range(0, cli._AXIS_BLOCKS * block, block):
                cli._axis_block(grid.spacing, grid.n // 2, start, start + block)

        _, retained = traced(fill)
        assert cli._axis_block.cache_parameters()["maxsize"] == cli._AXIS_BLOCKS
        assert cli._axis_block.cache_info().currsize == cli._AXIS_BLOCKS
        assert retained < AXIS_CACHE_BYTES
