"""Seeded inputs: deterministic, seed 0 is the reference device, only non-geometric keys move."""

from dataclasses import fields

from foilfem.experiments import ExperimentConfig, load_config

from perfbench import inputs


def test_seed_zero_is_the_reference_device():
    assert inputs.make_config(0) == ExperimentConfig()
    assert inputs.config_hash(inputs.make_config(0)) == ExperimentConfig().config_hash()


def test_same_seed_same_inputs():
    assert inputs.make_config(7) == inputs.make_config(7)
    assert inputs.config_file_text(7) == inputs.config_file_text(7)
    assert inputs.make_config(7) != inputs.make_config(8)


def test_only_varied_keys_move_and_within_spread():
    base = ExperimentConfig()
    for seed in range(1, 30):
        cfg = inputs.make_config(seed)
        for f in fields(base):
            old, new = getattr(base, f.name), getattr(cfg, f.name)
            if f.name in inputs.VARIED_KEYS:
                assert 0.8 * old <= new <= 1.2 * old
            else:
                assert new == old, f.name


def test_config_file_round_trips(tmp_path):
    for seed in (0, 3):
        path = tmp_path / f"seed{seed}.cfg"
        path.write_text(inputs.config_file_text(seed))
        assert load_config(path) == inputs.make_config(seed)
