"""Command-line contract: exit codes, formats, determinism."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_sample, make_params, zero_params

from seps import cli
from seps.bank import FeatureBank, SynthConfig, read_bank, write_bank
from seps.errors import RANGES
from seps.objective import ObjectiveConfig
from seps.trainer import TrainConfig, init_params, save_checkpoint


def write_separable_bank(path, n=3, dim=12):
    samples = [basis_sample(dim=dim, relevant=(2 * i, 2 * i + 1),
                            distractor=(dim - 2, dim - 1), sample_id=f"b{i}")
               for i in range(n)]
    write_bank(FeatureBank(dim=dim, samples=samples), path)


def write_zero_checkpoint(path, dim=12, n_keep=2, k_top=2, beta=0.25):
    params = zero_params(make_params(dim=dim, n_keep=n_keep, k_top=k_top))
    params.selection.beta = beta
    save_checkpoint(path, params)
    return params


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic_files(tmp_path):
    a, b = tmp_path / "a.sepb", tmp_path / "b.sepb"
    args = ["--samples", "16", "--dim", "8", "--n-patches", "6", "--n-relevant", "2",
            "--concepts", "8", "--seed", "7"]
    assert cli.main(["gen", "--out", str(a)] + args) == 0
    assert cli.main(["gen", "--out", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_out(capsys):
    assert cli.main(["gen", "--samples", "4"]) == 2
    assert "--out" in capsys.readouterr().err


def test_gen_output_passes_bank_invariants(tmp_path):
    out = tmp_path / "g.sepb"
    assert cli.main(["gen", "--out", str(out), "--samples", "5", "--dim", "6",
                     "--n-patches", "5", "--n-relevant", "2", "--concepts", "6"]) == 0
    bank = read_bank(out)  # validates on read
    assert len(bank.samples) == 5


def test_gen_unwritable_path(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.sepb"
    assert cli.main(["gen", "--out", str(missing_dir), "--samples", "4",
                     "--dim", "6", "--n-patches", "5", "--n-relevant", "2",
                     "--concepts", "6"]) == 2


@pytest.mark.parametrize("flag", ["--dim", "--n-patches", "--samples"])
def test_gen_rejects_zero_size_before_writing(flag, tmp_path, capsys):
    out = tmp_path / "x.sepb"
    assert cli.main(["gen", "--out", str(out), flag, "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_out_of_memory_exits_two(tmp_path, monkeypatch, capsys):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "generate_synthetic", exhausted)
    out = tmp_path / "x.sepb"
    assert cli.main(["gen", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["unknown-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# config file


def test_config_file_and_flag_precedence(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment line\nsamples = 6\ndim = 8\nn_patches = 5\n"
                    "n_relevant = 2\nconcepts = 8\nseed = 1\n")
    out = tmp_path / "c.sepb"
    assert cli.main(["gen", "--config", str(conf), "--out", str(out),
                     "--samples", "9"]) == 0
    assert "9 samples" in capsys.readouterr().out  # flag overrides file


def test_config_rejects_unknown_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("no_such_knob = 4\n")
    assert cli.main(["gen", "--config", str(conf), "--out", str(tmp_path / "x")]) == 2


def test_config_rejects_invalid_value(tmp_path):
    out = tmp_path / "x.sepb"
    for flag, value in (("--beta", "0.9"), ("--n-keep", "-5"), ("--head-hidden", "-1"),
                        ("--grad-check-every", "-1")):
        assert cli.main(["gen", "--out", str(out), flag, value]) == 2, flag
        assert not out.exists()


# every config key, as flag and file key, with its default
PINNED_DEFAULTS = {
    "dim": 32, "n_patches": 16, "lr": 1e-4, "weight_decay": 1e-2, "batch_size": 8,
    "epochs": 20, "margin": 0.2, "rho": 0.5, "lambda1": 1.0, "lambda2": 1.0,
    "beta": 0.2, "tau": 1.0, "k_top": 8, "n_keep": 0, "head_hidden": 0, "seed": 0,
    "grad_check_every": 0, "samples": 64, "n_relevant": 4, "n_sparse_words": 2,
    "n_dense_words": 4, "concepts": 256, "noise_sigma": 0.1, "folds": 1,
    "bank": "", "val_bank": "", "checkpoint": "", "out": "", "history": "",
}
FIELD_OF_KEY = {"samples": "n_samples", "n_relevant": "n_relevant_patches",
                "concepts": "concept_count"}


def flat_config(cfg: cli.RunConfig) -> dict:
    """Each key's value, read from every place the key lands."""
    out = {}
    for key in PINNED_DEFAULTS:
        name = FIELD_OF_KEY.get(key, key)
        values = {getattr(part, name) for part in (cfg, cfg.train, cfg.synth)
                  if hasattr(part, name)}
        assert len(values) == 1, key
        out[key] = values.pop()
    return out


def test_config_keys_and_defaults_are_pinned(tmp_path):
    assert len(PINNED_DEFAULTS) == 29
    assert list(cli.KEY_TYPES) == list(PINNED_DEFAULTS)
    parser = cli._build_parser()
    assert flat_config(cli.build_config(parser.parse_args(["gen"]))) == PINNED_DEFAULTS
    # each key round-trips through a config file and through its flag
    conf = tmp_path / "all.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in PINNED_DEFAULTS.items()))
    from_file = cli.build_config(parser.parse_args(["gen", "--config", str(conf)]))
    assert flat_config(from_file) == PINNED_DEFAULTS
    flags = [arg for k, v in PINNED_DEFAULTS.items()
             for arg in (f"--{k.replace('_', '-')}", str(v))]
    assert flat_config(cli.build_config(parser.parse_args(["gen"] + flags))) == PINNED_DEFAULTS


def test_every_numeric_config_field_has_a_range():
    for cls in (TrainConfig, ObjectiveConfig, SynthConfig, cli.RunConfig):
        for name, kind in get_type_hints(cls).items():
            if kind in (int, float):
                assert name in RANGES, f"{cls.__name__}.{name}"


# each probe exits 2 before any step, with its key, its range and the value
# as given in the message; the last five lie in range as float64 but not as
# the float32 that a checkpoint or bank stores
RANGE_PROBES = {
    "train --margin nan": "margin must be > 0", "train --margin inf": "margin must be > 0",
    "train --lambda1 nan": "lambda1 must be >= 0", "train --lambda1 inf": "lambda1 must be >= 0",
    "train --lambda2 nan": "lambda2 must be >= 0", "train --tau nan": "tau must be > 0",
    "train --lr nan": "lr must be >= 0", "train --lr inf": "lr must be >= 0",
    "train --weight-decay nan": "weight_decay must be >= 0",
    "train --beta nan": "beta must lie in [0, 0.5]", "train --rho nan": "rho must lie in (0, 1]",
    "train --seed -3": "seed must be >= 0", "train --noise-sigma nan": "noise_sigma must be >= 0",
    "gen --noise-sigma nan": "noise_sigma must be >= 0", "gen --seed -1": "seed must be >= 0",
    "train --rho 5e-324": "rho must lie in (0, 1] as float32",
    "train --rho 1e-46": "rho must lie in (0, 1] as float32",
    "train --tau 5e-324": "tau must be > 0 as float32",
    "train --tau 1e+300": "tau must be > 0 as float32",
    "gen --noise-sigma 1e+300": "noise_sigma overflows the float32 features",
}


@pytest.mark.parametrize("probe", RANGE_PROBES)
def test_out_of_range_value_is_a_usage_error_naming_its_key(probe, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [*probe.split(), "--bank", str(tmp_path / "none.sepb"), "--out", str(out)]
    for previous in (None, b"previous"):
        if previous:
            out.write_bytes(previous)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {RANGE_PROBES[probe]}, got {argv[2]}\n"
        assert (out.read_bytes() == previous) if previous else not out.exists()


# ---------------------------------------------------------------------------
# train


def train_args(bank, out, **extra):
    args = ["train", "--bank", str(bank), "--out", str(out), "--epochs", "2",
            "--batch-size", "4", "--k-top", "2", "--n-keep", "3", "--seed", "5"]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


@pytest.fixture
def small_bank_file(tmp_path):
    path = tmp_path / "train.sepb"
    assert cli.main(["gen", "--out", str(path), "--samples", "8", "--dim", "8",
                     "--n-patches", "6", "--n-relevant", "2", "--concepts", "8",
                     "--seed", "3"]) == 0
    return path


def test_train_zero_lr_keeps_init_checkpoint(tmp_path, small_bank_file):
    out = tmp_path / "zero.ckpt"
    assert cli.main(train_args(small_bank_file, out, lr="0")) == 0
    init_path = tmp_path / "init.ckpt"
    cfg = TrainConfig(dim=8, n_patches=6, k_top=2, n_keep=3, batch_size=4,
                      epochs=2, seed=5, lr=0.0)
    save_checkpoint(init_path, init_params(cfg))
    assert out.read_bytes() == init_path.read_bytes()


def test_train_seeded_runs_match(tmp_path, small_bank_file, capsys):
    out_a, hist_a = tmp_path / "a.ckpt", tmp_path / "a.hist"
    out_b, hist_b = tmp_path / "b.ckpt", tmp_path / "b.hist"
    assert cli.main(train_args(small_bank_file, out_a, history=hist_a)) == 0
    assert cli.main(train_args(small_bank_file, out_b, history=hist_b)) == 0
    assert hist_a.read_bytes() == hist_b.read_bytes()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_history_includes_validation_column(tmp_path, small_bank_file, capsys):
    out = tmp_path / "v.ckpt"
    args = train_args(small_bank_file, out, val_bank=small_bank_file)
    assert cli.main(args) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "," in l]
    assert all(len(line.split(",")) == 5 for line in lines)


def test_train_divergence_exits_three(tmp_path, small_bank_file, capsys):
    # lr*weight_decay > 2 multiplies weights by -999 per step, so the run
    # overflows quickly; the CLI maps the numerical failure to exit 3 and
    # the checkpoint from the last completed epoch survives
    out = tmp_path / "d.ckpt"
    rc = cli.main(train_args(small_bank_file, out, lr="1000", weight_decay="1.0",
                             epochs="200"))
    assert rc == 3
    assert "error" in capsys.readouterr().err
    assert out.exists()


def test_train_overflowing_step_exits_three_with_one_line(tmp_path, small_bank_file, capsys):
    out = tmp_path / "o.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(train_args(small_bank_file, out, lr="1e300")) == 3
    assert capsys.readouterr().err == "error: divergence detected\n"


@pytest.mark.parametrize("flag", ["--tau=1e-45", "--beta=5e-324"])
def test_value_that_float32_keeps_in_range_trains_and_evaluates(flag, tmp_path,
                                                                 small_bank_file):
    out = tmp_path / "m.ckpt"
    assert cli.main([*train_args(small_bank_file, out), flag]) == 0
    assert cli.main(["eval", "--bank", str(small_bank_file), "--checkpoint", str(out)]) == 0


@pytest.mark.parametrize("flags", [["--dim", "6"], ["--samples", "1"]],
                         ids=["wrong_dim", "one_sample"])
def test_train_unusable_val_bank_exits_two_with_output_untouched(
        flags, tmp_path, small_bank_file, capsys):
    val = tmp_path / "val.sepb"
    assert cli.main(["gen", "--out", str(val), "--samples", "8", "--dim", "8",
                     "--n-patches", "6", "--n-relevant", "2", "--concepts", "8",
                     "--seed", "4", *flags]) == 0
    out = tmp_path / "kept.ckpt"
    out.write_bytes(b"previous checkpoint")
    capsys.readouterr()
    assert cli.main(train_args(small_bank_file, out, val_bank=val)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert out.read_bytes() == b"previous checkpoint"


def test_train_missing_bank_exits_two(tmp_path):
    assert cli.main(["train", "--bank", str(tmp_path / "none.sepb"),
                     "--out", str(tmp_path / "x.ckpt")]) == 2


# every numeric key against every edge value, on each command that writes
# or reads a file; argparse itself refuses an int key's "nan" or "1e300"
EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "5e-324")
NUMERIC_KEYS = sorted(key for key, kind in cli.KEY_TYPES.items() if kind in (int, float))


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    bank, ckpt = root / "b.sepb", root / "c.sepc"
    shape = ["--samples", "8", "--dim", "8", "--n-patches", "6", "--n-relevant", "2",
             "--concepts", "8"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--out", str(bank), *shape]) == 0
        assert cli.main(["train", "--bank", str(bank), "--out", str(ckpt), "--epochs", "1",
                         "--batch-size", "4", "--k-top", "2"]) == 0
    return root, bank, ckpt, shape


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(("gen", "train", "eval")), key=st.sampled_from(NUMERIC_KEYS),
       value=st.sampled_from(EDGE_VALUES), existing=st.booleans())
def test_any_edge_value_exits_cleanly(contract_files, command, key, value, existing):
    root, bank, ckpt, shape = contract_files
    out, history = root / "out", root / "history"
    for path in (out, history):
        path.unlink(missing_ok=True)
    if existing:
        out.write_bytes(b"previous")
    argv = {"gen": ["gen", "--out", str(out), *shape],
            "train": ["train", "--bank", str(bank), "--out", str(out), "--history",
                      str(history), "--epochs", "1", "--batch-size", "4", "--k-top", "2"],
            "eval": ["eval", "--bank", str(bank), "--checkpoint", str(ckpt)]}[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print past the error line
        try:
            code = cli.main([*argv, f"--{key.replace('_', '-')}={value}"])
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error: " in err.getvalue()
        assert (out.read_bytes() == b"previous") if existing else not out.exists()
        assert not history.exists()


# ---------------------------------------------------------------------------
# eval / score / inspect


@pytest.fixture
def separable_setup(tmp_path):
    bank = tmp_path / "sep.sepb"
    ckpt = tmp_path / "sep.ckpt"
    write_separable_bank(bank)
    write_zero_checkpoint(ckpt)
    return bank, ckpt


def test_eval_perfect_bank_scores_600(separable_setup, capsys):
    bank, ckpt = separable_setup
    assert cli.main(["eval", "--bank", str(bank), "--checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    machine = out.strip().splitlines()[-1]
    fields = machine.split(",")
    assert len(fields) == 7
    assert fields[6] == "600.0000"


def test_eval_output_deterministic(separable_setup, capsys):
    bank, ckpt = separable_setup
    cli.main(["eval", "--bank", str(bank), "--checkpoint", str(ckpt)])
    first = capsys.readouterr().out
    cli.main(["eval", "--bank", str(bank), "--checkpoint", str(ckpt)])
    assert capsys.readouterr().out == first


def test_eval_dim_mismatch_exits_two(tmp_path, separable_setup):
    bank, _ = separable_setup
    other = tmp_path / "other.ckpt"
    write_zero_checkpoint(other, dim=8)
    assert cli.main(["eval", "--bank", str(bank), "--checkpoint", str(other)]) == 2


def test_score_prints_total_and_components(separable_setup, capsys):
    bank, ckpt = separable_setup
    assert cli.main(["score", "--bank", str(bank), "--checkpoint", str(ckpt),
                     "--image", "b0", "--caption", "b0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("S(b0,b0) = ")
    assert len(out) == 5
    total = float(out[0].split("=")[1])
    parts = [float(line.split("=")[1]) for line in out[1:]]
    assert total == pytest.approx(sum(parts), abs=1e-9)


def test_inspect_has_nine_columns_and_matches_mask(separable_setup, capsys):
    bank, ckpt = separable_setup
    assert cli.main(["inspect", "--bank", str(bank), "--checkpoint", str(ckpt),
                     "--sample", "b1"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(lines) == 4
    for line in lines:
        cols = line.split()
        assert len(cols) == 9
        keep_sparse = cols[7][0]
        assert keep_sparse == cols[8]  # kept set equals ground truth


def test_inspect_prints_a_sample_whose_branches_keep_nothing(tmp_path, capsys):
    # beta=0 leaves only the predicted score, and pred.b2 = -50 drives it to ~0
    bank, ckpt = tmp_path / "sep.sepb", tmp_path / "empty.ckpt"
    write_separable_bank(bank)
    params = zero_params(make_params(dim=12, n_keep=2, k_top=2, beta=0.0))
    params.selection.pred_b2.data = np.asarray(-50.0)
    save_checkpoint(ckpt, params)
    assert cli.main(["inspect", "--bank", str(bank), "--checkpoint", str(ckpt),
                     "--sample", "b1"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(lines) == 4
    for line in lines:
        cols = line.split()
        assert len(cols) == 9 and cols[7] == "00"


def test_inspect_deterministic(separable_setup, capsys):
    bank, ckpt = separable_setup
    cli.main(["inspect", "--bank", str(bank), "--checkpoint", str(ckpt),
              "--sample", "b0"])
    first = capsys.readouterr().out
    cli.main(["inspect", "--bank", str(bank), "--checkpoint", str(ckpt),
              "--sample", "b0"])
    assert capsys.readouterr().out == first


def test_inspect_unknown_sample_exits_two(separable_setup, capsys):
    bank, ckpt = separable_setup
    assert cli.main(["inspect", "--bank", str(bank), "--checkpoint", str(ckpt),
                     "--sample", "nope"]) == 2
    assert "unknown sample id" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["seps", "seps.cli"])
def test_python_dash_m_runs_without_runtime_warning(module):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "default", "-m", module, "--help"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "usage:" in run.stdout
    assert "RuntimeWarning" not in run.stderr, run.stderr


# ---------------------------------------------------------------------------
# golden run

# SHA-256 of each artefact of test_golden_run_is_byte_identical
GOLDEN_DIGESTS = {
    "stdout": "e63882de8f587dc2a9e08ffaae012259e6466b1ca9375af072a8e489b3523afd",
    "h0.csv": "f65fa8b7b268f07479e34f2b3282db9478596f412304040e4182a5e6b1c9e425",
    "h0.sepc": "a68735cbee47c0335692ae80fa417eac421bb0cd325ef56e6d3c390bc4b8715d",
    "h3.csv": "1fb20e4a3749c2ffb1a99b70c8d15a30b26d374d6c5a796ca505e14255cce39f",
    "h3.sepc": "a8e737afb69fcbcbc496bf12ef88a4303fc47d9a9eeaf9f6abc11f768ffde73c",
    "train.sepb": "b6e2d190ca21db10641ba73828c4b91f0261057561fdfa9c5c2c888545bdc888",
    "val.sepb": "7597606e9a0ed878ccedacc803807741c07cbe79898f233a9a81d14ce0dcba90",
}


def test_golden_run_is_byte_identical(tmp_path, monkeypatch, capsys):
    """A seeded gen -> train -> eval/score/inspect run, pinned byte for byte:
    the stdout of every command, both histories, both banks and both
    checkpoints.  Training reads a validation bank, audits gradients every
    second step, and runs once with linear and once with hidden heads.  The
    digests were taken with one numpy and BLAS build; a change of either may
    move them with no fault in this code."""
    monkeypatch.chdir(tmp_path)  # relative paths keep stdout free of tmp_path
    shape = ["--dim", "8", "--n-patches", "6", "--n-relevant", "2", "--concepts", "8"]
    commands = [["gen", "--out", "train.sepb", "--samples", "12", "--seed", "3", *shape],
                ["gen", "--out", "val.sepb", "--samples", "4", "--seed", "4", *shape]]
    for hidden in ("0", "3"):
        commands.append(["train", "--bank", "train.sepb", "--val-bank", "val.sepb",
                         "--out", f"h{hidden}.sepc", "--history", f"h{hidden}.csv",
                         "--epochs", "3", "--batch-size", "4", "--lr", "1e-2",
                         "--k-top", "2", "--n-keep", "3", "--grad-check-every", "2",
                         "--head-hidden", hidden, "--seed", "5"])
    for hidden in ("0", "3"):
        model = ["--bank", "val.sepb", "--checkpoint", f"h{hidden}.sepc"]
        commands += [["eval", *model, "--folds", "2"],
                     ["score", *model, "--image", "s00000", "--caption", "s00001"],
                     ["inspect", *model, "--sample", "s00002"]]
    stdout = hashlib.sha256()
    for args in commands:
        assert cli.main(args) == 0, args
        stdout.update(capsys.readouterr().out.encode())
    digests = {"stdout": stdout.hexdigest()} | {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN_DIGESTS
