import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mfvc import cli
from mfvc.cli import CliConfig, load_config, read_raw_video, run, write_raw_video
from mfvc.tensor import ConfigError
from mfvc.video import synth_sequence


class TestConfigFile:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == CliConfig()

    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "# comment\n"
            "gop_size = 12\n"
            "rate_index = 2  # inline comment\n"
            "use_spm = false\n"
            "lambda_set = 8, 64, 256\n"
            "distortion = ms-ssim\n"
        )
        cfg = load_config(path)
        assert cfg.gop_size == 12
        assert cfg.rate_index == 2
        assert cfg.use_spm is False
        assert cfg.lambda_set == (8, 64, 256)
        assert cfg.distortion == "ms-ssim"

    def test_duplicate_key_names_key(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("gop_size = 10\ngop_size = 12\n")
        with pytest.raises(ConfigError, match="duplicate key 'gop_size'"):
            load_config(path)

    def test_unknown_key_has_line_number(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("gop_size = 10\nwibble = 3\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'wibble'"):
            load_config(path)

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "d.cfg"
        path.write_text("gop_size = soon\n")
        with pytest.raises(ConfigError, match="gop_size"):
            load_config(path)


class TestFlags:
    def test_every_field_has_a_flag(self, monkeypatch):
        # Every field but the subcommand is reachable as --field-name, or
        # --no-x for a use_x switch; set each one away from its default.
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "eval", lambda cfg: seen.append(cfg) or 0)
        argv, expected = ["eval"], {"command": "eval"}
        other = {"distortion": "ms-ssim", "synth": "zoom"}
        for f in fields(CliConfig):
            if f.name == "command":
                continue
            flag = "--" + f.name.replace("_", "-")
            if f.default is True:
                argv.append("--no-" + f.name.removeprefix("use_").replace("_", "-"))
                expected[f.name] = False
            elif isinstance(f.default, int):
                argv += [flag, str(f.default + 1)]
                expected[f.name] = f.default + 1
            elif isinstance(f.default, tuple):
                argv += [flag, "3, 0.5"]
                expected[f.name] = (3, 0.5)
            else:
                argv += [flag, other.get(f.name, f"{f.name}.bin")]
                expected[f.name] = other.get(f.name, f"{f.name}.bin")
        assert run(argv) == 0
        assert seen == [CliConfig(**expected)]
        assert all(getattr(seen[0], f.name) != f.default for f in fields(CliConfig))

    @pytest.mark.parametrize("flag,value", [("--distortion", "psnr"), ("--lambda-set", "a,b"), ("--width", "x")])
    def test_bad_flag_value_exits_2(self, flag, value, capsys):
        assert run(["compress", flag, value]) == 2
        assert flag in capsys.readouterr().err


class TestRawIo:
    def test_roundtrip(self, tmp_path):
        frames = synth_sequence("translate", 3, 8, 10, seed=0)
        path = tmp_path / "v.rgb"
        write_raw_video(path, frames)
        assert path.stat().st_size == 3 * 8 * 10 * 3
        back = read_raw_video(path, 10, 8, 3)
        np.testing.assert_array_equal(back, frames)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.rgb"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(ConfigError, match="frames"):
            read_raw_video(path, 10, 8, 3)


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """A fast, tiny training run shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("models")
    ae_path = root / "ae.mfvcw"
    stem_path = root / "stem.mfvcw"
    common = [
        "--synth", "translate", "--width", "16", "--height", "16", "--frames", "14",
        "--latent-channels", "4", "--patch-h", "16", "--patch-w", "16",
        "--lambda-set", "8,64", "--lr-values", "1e-3", "--lr-boundaries", "",
        "--total-iters", "8", "--batch-size", "2", "--seed", "3",
    ]
    assert run(["train-image", "--output", str(ae_path)] + common) == 0
    assert run(["train-stem", "--weights", str(ae_path), "--output", str(stem_path)] + common) == 0
    return ae_path, stem_path


class TestCommands:
    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self):
        assert run(["compress", "--wibble", "1"]) == 2

    def test_missing_input_exits_2(self, trained_models, tmp_path, capsys):
        ae, stem = trained_models
        code = run(["compress", "--weights", str(ae), "--stem-weights", str(stem),
                    "--output", str(tmp_path / "o.mfvc")])
        assert code == 2
        assert "input" in capsys.readouterr().err

    def test_compress_decompress_eval_pipeline(self, trained_models, tmp_path, capsys):
        ae, stem = trained_models
        video = synth_sequence("translate", 6, 16, 16, seed=4, shift=0)
        raw = tmp_path / "in.rgb"
        write_raw_video(raw, video)
        bitstream = tmp_path / "out.mfvc"
        decoded = tmp_path / "out.rgb"
        report = tmp_path / "eval.csv"

        dims = ["--width", "16", "--height", "16", "--frames", "6"]
        assert run(["compress", "--input", str(raw), *dims, "--gop-size", "3",
                    "--weights", str(ae), "--stem-weights", str(stem),
                    "--output", str(bitstream)]) == 0
        assert run(["decompress", "--input", str(bitstream), "--weights", str(ae),
                    "--stem-weights", str(stem), "--output", str(decoded)]) == 0
        capsys.readouterr()
        assert run(["eval", "--input", str(bitstream), "--original", str(raw),
                    "--weights", str(ae), "--stem-weights", str(stem),
                    "--csv", str(report)]) == 0
        bpp = 8 * bitstream.stat().st_size / (16 * 16 * 6)
        assert capsys.readouterr().out.startswith(f"6 frames, {bpp:.4f} bpp, mean PSNR ")

        lines = report.read_text().strip().splitlines()
        assert lines[0] == "frame_index,frame_type,bits,bpp,psnr,ms_ssim"
        assert len(lines) == 7
        # Static input: every decoded frame is identical, so per-frame PSNR
        # is constant across GOP positions.
        psnrs = {line.split(",")[4] for line in lines[1:]}
        assert len(psnrs) == 1

    def test_decompress_wrong_weights_exits_1(self, trained_models, tmp_path, capsys):
        ae, stem = trained_models
        video = synth_sequence("translate", 2, 16, 16, seed=5)
        raw = tmp_path / "in.rgb"
        write_raw_video(raw, video)
        bitstream = tmp_path / "out.mfvc"
        assert run(["compress", "--input", str(raw), "--width", "16", "--height", "16",
                    "--frames", "2", "--weights", str(ae), "--stem-weights", str(stem),
                    "--output", str(bitstream)]) == 0

        other = tmp_path / "other.mfvcw"
        common = [
            "--synth", "translate", "--width", "16", "--height", "16", "--frames", "4",
            "--latent-channels", "4", "--patch-h", "16", "--patch-w", "16",
            "--lambda-set", "8,64", "--lr-values", "1e-3", "--lr-boundaries", "",
            "--total-iters", "1", "--batch-size", "1", "--seed", "9",
        ]
        assert run(["train-image", "--output", str(other)] + common) == 0
        code = run(["decompress", "--input", str(bitstream), "--weights", str(other),
                    "--stem-weights", str(stem), "--output", str(tmp_path / "x.rgb")])
        assert code == 1
        assert "digest" in capsys.readouterr().err

    def test_decompress_rate_index_outside_lambda_set_exits_1(self, trained_models, tmp_path, capsys):
        # A stream error, not a usage error: the flags are fine, the header
        # names a rate the weights do not have.
        ae, stem = trained_models
        raw = tmp_path / "in.rgb"
        write_raw_video(raw, synth_sequence("translate", 2, 16, 16, seed=5))
        bitstream = tmp_path / "out.mfvc"
        assert run(["compress", "--input", str(raw), "--width", "16", "--height", "16",
                    "--frames", "2", "--weights", str(ae), "--stem-weights", str(stem),
                    "--output", str(bitstream)]) == 0
        blob = bytearray(bitstream.read_bytes())
        blob[18] = 9  # rate index; the weights' lambda set has two entries
        bitstream.write_bytes(bytes(blob))
        code = run(["decompress", "--input", str(bitstream), "--weights", str(ae),
                    "--stem-weights", str(stem), "--output", str(tmp_path / "x.rgb")])
        assert code == 1
        assert "rate index 9" in capsys.readouterr().err

    def test_missing_file_exits_1(self, trained_models, tmp_path, capsys):
        ae, stem = trained_models
        code = run(["decompress", "--input", str(tmp_path / "nope.mfvc"),
                    "--weights", str(ae), "--stem-weights", str(stem),
                    "--output", str(tmp_path / "x.rgb")])
        assert code == 1
        assert "nope.mfvc" in capsys.readouterr().err

    def test_truncated_weights_exits_1(self, trained_models, tmp_path, capsys):
        ae, stem = trained_models
        cut = tmp_path / "cut.mfvcw"
        cut.write_bytes(ae.read_bytes()[:40])
        code = run(["decompress", "--input", str(tmp_path / "any.mfvc"),
                    "--weights", str(cut), "--stem-weights", str(stem),
                    "--output", str(tmp_path / "x.rgb")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err

    def test_ablate_prints_table(self, trained_models, capsys):
        ae, stem = trained_models
        code = run(["ablate", "--synth", "translate", "--width", "16", "--height", "16",
                    "--frames", "4", "--gop-size", "4", "--seed", "6",
                    "--weights", str(ae), "--stem-weights", str(stem)])
        assert code == 0
        out = capsys.readouterr().out
        assert "anchor" in out
        for name in ("full", "w/o SPM", "w/o TPM", "w/o SPM & TPM", "w/o Residual"):
            assert name in out

    def test_heatmap_writes_csv_and_pgm(self, trained_models, tmp_path):
        ae, stem = trained_models
        prefix = tmp_path / "hm"
        code = run(["heatmap", "--synth", "translate", "--width", "16", "--height", "16",
                    "--frames", "3", "--frame-index", "2", "--seed", "7",
                    "--weights", str(ae), "--stem-weights", str(stem),
                    "--output", str(prefix)])
        assert code == 0
        assert (tmp_path / "hm.csv").exists()
        pgm = (tmp_path / "hm.pgm").read_bytes()
        assert pgm.startswith(b"P5\n16 16\n255\n")

    def test_config_file_with_flag_override(self, trained_models, tmp_path):
        ae, stem = trained_models
        video = synth_sequence("translate", 4, 16, 16, seed=8)
        raw = tmp_path / "in.rgb"
        write_raw_video(raw, video)
        cfg = tmp_path / "job.cfg"
        cfg.write_text(
            f"input = {raw}\nwidth = 16\nheight = 16\nframes = 4\n"
            f"gop_size = 2\nweights = {ae}\nstem_weights = {stem}\n"
        )
        out1 = tmp_path / "a.mfvc"
        out2 = tmp_path / "b.mfvc"
        assert run(["compress", "--config", str(cfg), "--output", str(out1)]) == 0
        assert run(["compress", "--config", str(cfg), "--output", str(out2), "--gop-size", "4"]) == 0
        from mfvc.video import VideoBitstream

        h1 = VideoBitstream.from_bytes(out1.read_bytes()).header
        h2 = VideoBitstream.from_bytes(out2.read_bytes()).header
        assert h1.gop_size == 2
        assert h2.gop_size == 4


class TestImports:
    def test_runtime_loads_no_scipy(self):
        # NumPy is the only runtime dependency; a fresh interpreter shows what importing loads
        code = "import sys, mfvc, mfvc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
