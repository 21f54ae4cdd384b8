"""Config-family contracts: round-trips, unknown-key rejection, CLI parity."""

import dataclasses

import pytest

from repro.serving import (
    BuildConfig,
    CacheConfig,
    FleetConfig,
    ServingConfig,
    WorkloadConfig,
)
from repro.serving.cli import FLAGS, build_parser, config_from_args, main


def nondefault_serving_config() -> ServingConfig:
    """A config exercising every field with a non-default value."""
    return ServingConfig(
        artifact_path="/tmp/x.artifact",
        graph_spec="er:n=40,p=0.1,seed=2",
        save_artifact=False,
        workers=3,
        partitioner="hash_pair",
        batch_size=32,
        kind="distance",
        start_method="spawn",
        warm_timeout=60.0,
        reply_timeout=90.0,
        build=BuildConfig(k=4, epsilon=0.5, seed=7, mode="budget",
                          build_workers=2),
        cache=CacheConfig(capacity=512),
        workload=WorkloadConfig(name="bursty", num_queries=250, seed=9,
                                params={"skew": 1.5, "burst_length": 20}),
    )


class TestRoundTrips:
    @pytest.mark.parametrize("config", [
        BuildConfig(),
        BuildConfig(k=5, epsilon=1.0, seed=3, mode="spd", build_workers=3),
        CacheConfig(),
        CacheConfig(capacity=0),
        CacheConfig(capacity=7),
        WorkloadConfig(),
        WorkloadConfig(name="locality", num_queries=10, seed=1,
                       params={"hop_radius": 3, "bias": 0.5}),
        ServingConfig(),
    ])
    def test_from_dict_of_to_dict_is_identity(self, config):
        assert type(config).from_dict(config.to_dict()) == config

    def test_full_nondefault_round_trip(self):
        config = nondefault_serving_config()
        assert ServingConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("make", [ServingConfig,
                                      nondefault_serving_config])
    def test_to_dict_is_every_field_with_nested_to_dicts(self, make):
        """``to_dict`` is derived from the dataclass fields, so a new
        field cannot be forgotten; the nested configs serialise
        themselves."""
        config = make()
        record = config.to_dict()
        assert list(record) == [f.name for f in dataclasses.fields(config)]
        for name, value in record.items():
            field = getattr(config, name)
            assert value == (field.to_dict() if name in ("build", "cache",
                                                         "workload")
                             else field), name

    def test_to_dict_is_json_safe(self):
        import json

        config = nondefault_serving_config()
        rehydrated = ServingConfig.from_dict(
            json.loads(json.dumps(config.to_dict())))
        assert rehydrated == config


class TestUnknownKeys:
    @pytest.mark.parametrize("cls", [BuildConfig, CacheConfig,
                                     WorkloadConfig, ServingConfig])
    def test_top_level_unknown_key_rejected(self, cls):
        data = cls().to_dict()
        data["no_such_option"] = 1
        with pytest.raises(ValueError, match="no_such_option"):
            cls.from_dict(data)

    def test_nested_unknown_key_rejected(self):
        data = ServingConfig().to_dict()
        data["cache"]["eviction"] = "lfu"
        with pytest.raises(ValueError, match="eviction"):
            ServingConfig.from_dict(data)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="expects a dict"):
            BuildConfig.from_dict("k=3")

    def test_removed_cache_spellings_fail_loudly(self):
        """The cache options PR 20 removed are typos now, not aliases: a
        stored config or a command line that names one fails at once."""
        known = r"known keys: \['capacity'\]"
        with pytest.raises(ValueError, match="hot_set.*" + known):
            CacheConfig.from_dict({"hot_set": "online"})
        with pytest.raises(ValueError, match="policy.*" + known):
            ServingConfig.from_dict({"cache": {"policy": "lfu"}})
        with pytest.raises(SystemExit) as exit_info:
            main(["--graph", "er:n=30,p=0.2", "--hot-set", "online"])
        assert exit_info.value.code == 2

    def test_engine_is_not_a_serving_setting(self):
        """Serving builds with ``batched`` only: the engine is neither a
        ``BuildConfig`` key nor a flag."""
        with pytest.raises(ValueError, match="engine"):
            BuildConfig.from_dict({"engine": "logical"})
        with pytest.raises(SystemExit) as exit_info:
            main(["--graph", "er:n=30,p=0.2", "--engine", "logical"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("key", ["min_workers", "max_workers"])
    def test_fleet_worker_bounds_are_not_settings(self, key, capsys):
        """The fleet keeps its initial worker count: a stored
        ``serving_config`` that names a scaling bound is refused with the
        known-key list, and so is the flag that set it."""
        refusal = rf"unknown ServingConfig key\(s\) \['{key}'\]"
        with pytest.raises(ValueError, match=refusal):
            ServingConfig.from_dict({"workers": 3, "fleet": True, key: 2})
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            main(["--graph", "er:n=30,p=0.2", "--workers", "3", "--fleet",
                  flag, "2"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            BuildConfig(k=0)
        with pytest.raises(ValueError, match="epsilon"):
            BuildConfig(epsilon=0)
        with pytest.raises(ValueError, match="capacity"):
            CacheConfig(capacity=-1)
        with pytest.raises(ValueError, match="num_queries"):
            WorkloadConfig(num_queries=-1)
        with pytest.raises(ValueError, match="workers"):
            ServingConfig(workers=0)
        with pytest.raises(ValueError, match="batch_size"):
            ServingConfig(batch_size=0)
        with pytest.raises(ValueError, match="kind"):
            ServingConfig(kind="latency")
        with pytest.raises(ValueError, match="build must be"):
            ServingConfig(build={"k": 3})

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            BuildConfig().k = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServingConfig().workers = 2

    def test_workload_seed_inherits_build_seed(self):
        config = ServingConfig(build=BuildConfig(seed=11))
        assert config.workload_seed() == 11
        pinned = ServingConfig(build=BuildConfig(seed=11),
                               workload=WorkloadConfig(seed=4))
        assert pinned.workload_seed() == 4


class TestCliParity:
    """Every ``repro-serve`` flag maps onto a config field (satellite)."""

    def test_mapped_config_fields_exist(self):
        config = ServingConfig()
        for flag in FLAGS:
            dest, path = flag.dest, flag.path
            if path is None:      # presentation-only / runtime-derived flags
                continue
            node = config
            for part in path.split("."):
                if isinstance(node, dict):
                    # Free-form params bucket: shape-specific keys live
                    # here by design; reaching a dict is a valid terminal.
                    break
                assert hasattr(node, part), (
                    f"flag --{dest.replace('_', '-')} maps to {path!r} "
                    f"but {part!r} is not a config field")
                node = getattr(node, part)

    def test_parsed_flags_land_in_config(self):
        parser = build_parser()
        args = parser.parse_args([
            "--graph", "grid:rows=4,cols=4", "--artifact", "/tmp/a.artifact",
            "--k", "4", "--epsilon", "0.5", "--mode", "budget", "--seed", "6",
            "--workload", "bursty", "--queries", "77",
            "--skew", "1.7", "--burst-length", "15", "--burst-rate", "0.1",
            "--burst-intensity", "0.5", "--drift-period", "50",
            "--batch-size", "16", "--cache-size", "99",
            "--kind", "distance", "--workers", "2",
            "--partitioner", "hash_pair"])
        config = config_from_args(args, parser)
        assert config.graph_spec == "grid:rows=4,cols=4"
        assert config.artifact_path == "/tmp/a.artifact"
        assert config.build == BuildConfig(k=4, epsilon=0.5, seed=6,
                                           mode="budget")
        assert config.workload.name == "bursty"
        assert config.workload.num_queries == 77
        assert config.workload.params == {"skew": 1.7, "burst_length": 15,
                                          "burst_rate": 0.1,
                                          "burst_intensity": 0.5,
                                          "drift_period": 50}
        assert config.batch_size == 16
        assert config.kind == "distance"
        assert config.cache.capacity == 99
        assert config.workers == 2
        assert config.partitioner == "hash_pair"
        # No flag default can drift from its dataclass field: flags left
        # unset land on exactly the config's own defaults.
        spec = "grid:rows=4,cols=4"
        assert (config_from_args(parser.parse_args(["--graph", spec]), parser)
                == ServingConfig(graph_spec=spec))

    @pytest.mark.parametrize("bad_argv", [
        ["--workload", "zipf", "--burst-length", "5"],
        ["--workload", "uniform", "--drift-period", "10"],
        ["--workload", "bursty", "--hop-radius", "2"],
    ])
    def test_inapplicable_bursty_flags_rejected(self, bad_argv):
        parser = build_parser()
        args = parser.parse_args(["--graph", "grid:rows=4,cols=4"] + bad_argv)
        with pytest.raises(SystemExit):
            config_from_args(args, parser)

    def test_fleet_flags_land_in_the_fleet_config(self):
        parser = build_parser()
        args = parser.parse_args([
            "--graph", "grid:rows=4,cols=4", "--artifact", "/tmp/a.artifact",
            "--workers", "3", "--fleet", "--heartbeat-interval", "0.2",
            "--respawn-limit", "7"])
        config = config_from_args(args, parser)
        assert config.partitioner == "hash_source"
        assert config.fleet_config() == FleetConfig(heartbeat_interval=0.2,
                                                    respawn_limit=7)

    @pytest.mark.parametrize("argv, message", [
        (["--workers", "1", "--fleet"], "requires workers >= 2"),
        (["--workers", "3", "--fleet", "--partitioner", "round_robin"],
         "--fleet routes by source hash"),
    ])
    def test_fleet_flag_refusals(self, argv, message, capsys):
        parser = build_parser()
        args = parser.parse_args(["--graph", "grid:rows=4,cols=4",
                                  "--artifact", "/tmp/a.artifact"] + argv)
        with pytest.raises(SystemExit) as exit_info:
            config_from_args(args, parser)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
