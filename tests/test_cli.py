"""The `python -m repro` CLI: list, dry-run, and a tiny end-to-end run."""

import pytest

from repro.__main__ import main


def test_list_groups(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fedavg" in out and "centralized" in out and "resnet18" in out


def test_dry_run_prints_composed_config(capsys):
    assert main(["--dry-run", "algorithm=fedprox", "algorithm.mu=0.42"]) == 0
    out = capsys.readouterr().out
    assert "FedProx" in out
    assert "0.42" in out


def test_dry_run_with_group_reselect(capsys):
    assert main(["--dry-run", "topology=ring"]) == 0
    assert "RingTopology" in capsys.readouterr().out


def test_end_to_end_tiny_run(capsys, fresh_port):
    rc = main([
        "model=mlp",
        "datamodule=blobs",
        "datamodule.train_size=96",
        "datamodule.test_size=32",
        "topology.num_clients=2",
        f"topology.inner_comm.master_port={fresh_port}",
        "global_rounds=1",
        "algorithm.lr=0.05",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert "comm[inner]" in out


def test_bad_override_fails_loudly():
    with pytest.raises(Exception):
        main(["--dry-run", "no_such_key=1"])
    # the second worker command is gone (`repro worker <url>` serves every
    # scheme): `node` is just a malformed override now
    with pytest.raises(Exception, match="node"):
        main(["node", "tcp://127.0.0.1:7070"])


TINY = [
    "model=mlp",
    "datamodule=blobs",
    "datamodule.train_size=96",
    "datamodule.test_size=32",
    "topology.num_clients=2",
    "global_rounds=1",
    "algorithm.lr=0.05",
]


def test_print_config_dumps_resolved_spec(capsys):
    assert main(["--print-config", *TINY]) == 0
    out = capsys.readouterr().out
    from repro.experiment import ExperimentSpec

    spec = ExperimentSpec.from_yaml(out)
    assert spec.train.global_rounds == 1
    assert spec.data.dataset["_target_"] == "repro.data.registry.blobs"


def test_run_spec_file_end_to_end(capsys, tmp_path, fresh_port):
    assert main(["--print-config", *TINY,
                 f"topology.inner_comm.master_port={fresh_port}"]) == 0
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(capsys.readouterr().out)
    save_dir = tmp_path / "run"
    rc = main(["run", str(spec_path), "--save", str(save_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "summary:" in out and "comm[inner]" in out
    from repro.experiment import ExperimentSpec, RunResult

    loaded = RunResult.load(str(save_dir))
    assert loaded.spec == ExperimentSpec.load(str(spec_path))
    assert len(loaded.history) == 1


def test_removed_mode_override_names_the_replacement():
    from repro.experiment import SpecError

    with pytest.raises(SpecError, match="'mode' was removed.*name a scheduler"):
        main([*TINY, "+mode=async"])
    # without the '+' the composer stops it first: the key is not in the config
    with pytest.raises(Exception, match="'mode' does not exist"):
        main([*TINY, "mode=async"])


def test_outer_compression_reaches_the_cross_site_link_only(capsys, tmp_path, fresh_port):
    """§3.4.5 from the command line: an ``outer_compression`` node lands in
    ``plugins.outer_compressor`` and survives ``--print-config`` / ``run``."""
    from repro.experiment import ExperimentSpec

    args = [*[a for a in TINY if not a.startswith("topology.")],
            "topology=hierarchical",
            f"topology.inner_comm.master_port={fresh_port}",
            f"topology.outer_comm.master_port={fresh_port + 1000}",
            "+outer_compression={_target_: repro.compression.TopK, ratio: 10}"]
    assert main(["--print-config", *args]) == 0
    dumped = capsys.readouterr().out
    spec = ExperimentSpec.from_yaml(dumped)
    assert spec.plugins.compressor is None
    assert spec.plugins.outer_compressor == {"_target_": "repro.compression.TopK", "ratio": 10}
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(dumped)
    assert main(["run", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "comm[outer]" in out and "comm[inner]" in out


def test_run_mode_needs_exactly_one_file():
    with pytest.raises(SystemExit):
        main(["run"])


def test_async_cli_prints_scheduler_summary(capsys, fresh_port):
    rc = main([*TINY, f"topology.inner_comm.master_port={fresh_port}",
               "scheduler=fedasync"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheduler: fedasync" in out
    assert "updates applied" in out
