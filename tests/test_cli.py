import json
import os
from pathlib import Path

import numpy as np
import pytest

from channelrank import cli
from channelrank.cli import _load_world_dir, _parse_bind, main
from channelrank.core import ChannelId, TruncationConfig
from channelrank.dataset import build_dataset, read_dataset
from channelrank.evaluation import (
    AblationConfig,
    ModelRanker,
    build_eval_groups,
    evaluate_variant,
)
from channelrank.features import LookbackConfig
from channelrank.gbdt.model import TrainParams
from channelrank.gbdt.serialize import load_model
from channelrank.synthgen import WorldConfig, filter_and_split
from tests.test_serialize import with_trees

DATA = Path(__file__).parent / "data"

WORLD_FLAGS = [
    "--queries", "30", "--items", "300", "--n-per-channel", "8",
    "--sessions-mean", "25", "--seed", "5",
]


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    rc = main(["generate", *WORLD_FLAGS, "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def dataset_path(world_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    data = out / "train.csv"
    rc = main([
        "build-dataset",
        "--events", str(world_dir / "events.tsv"),
        "--lists-dir", str(world_dir),
        "--catalog", str(world_dir / "catalog.tsv"),
        "--n-per-channel", "8",
        "--item-features-out", str(out / "item_features.tsv"),
        "--out", str(data),
    ])
    assert rc == 0
    return data


@pytest.fixture(scope="module")
def model_path(dataset_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.frm"
    rc = main([
        "train", "--data", str(dataset_path), "--out", str(out),
        "--trees", "20", "--depth", "4", "--shrinkage", "0.2", "--seed", "3",
    ])
    assert rc == 0
    return out


class TestUsageErrors:
    def test_train_without_data_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--out", "x.frm"])
        assert err.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--nope"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "cmd",
        ["generate", "build-dataset", "train", "evaluate", "ablate", "fuse",
         "serve", "bench"],
    )
    def test_help_exits_zero(self, cmd):
        with pytest.raises(SystemExit) as err:
            main([cmd, "--help"])
        assert err.value.code == 0

    def test_runtime_error_exits_one(self, capsys):
        rc = main(["evaluate", "--data", "/nonexistent.csv", "--model", "/m.frm"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestDefaults:
    """Each subcommand's defaults are the library's, not a copy of them."""

    def test_train_defaults_are_train_params(self):
        args = cli.build_parser().parse_args(["train", "--data", "d.csv", "--out", "m.frm"])
        assert cli._train_params(args) == TrainParams()

    def test_build_dataset_defaults_are_lookback_and_world(self):
        args = cli.build_parser().parse_args([
            "build-dataset", "--events", "e", "--lists-dir", "l", "--catalog", "c", "--out", "o",
        ])
        assert cli._lookback(args) == LookbackConfig()
        assert args.n_per_channel == WorldConfig().per_channel_n

    def test_ablate_defaults_are_ablation_config(self):
        args = cli.build_parser().parse_args(["ablate"])
        ablation = AblationConfig()
        assert (args.wi_seeds, args.threads) == (ablation.wi_seeds, ablation.n_threads)


class TestPipeline:
    def test_generate_emits_expected_files(self, world_dir):
        weeks = [f"channel_lists_w{week}.tsv" for week in range(5)]
        assert sorted(os.listdir(world_dir)) == sorted(["events.tsv", "catalog.tsv", *weeks])

    def test_build_dataset_output_loads(self, dataset_path):
        data = read_dataset(str(dataset_path))
        assert len(data.X) > 0
        assert data.labels.max() <= 4.0

    def test_train_and_evaluate(self, dataset_path, model_path, tmp_path, capsys):
        report = tmp_path / "eval.json"
        rc = main([
            "evaluate", "--data", str(dataset_path), "--model", str(model_path),
            "--json", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["week"] == 4
        assert 0.0 <= payload["mean_ndcg"] <= 1.0

    def test_evaluate_prints_the_ablation_ndcg(self, tmp_path):
        # On this world GroupedNdcg's bincount sums, which evaluate used to print,
        # read 0.800838210883369 and the ablation's ndcg_at_k 0.8008382108833692.
        world, data_path, model_path, report = (
            tmp_path / "world", tmp_path / "data.csv", tmp_path / "model.frm", tmp_path / "r.json"
        )
        assert main(["generate", *WORLD_FLAGS, "--seed", "1", "--out", str(world)]) == 0
        events, lists, catalog, channels = _load_world_dir(
            str(world / "events.tsv"), str(world), str(world / "catalog.tsv")
        )
        assert main([
            "build-dataset", "--events", str(world / "events.tsv"), "--lists-dir", str(world),
            "--catalog", str(world / "catalog.tsv"), "--n-per-channel", "8", "--out", str(data_path),
        ]) == 0
        assert main([
            "train", "--data", str(data_path), "--out", str(model_path),
            "--trees", "20", "--depth", "4", "--shrinkage", "0.2", "--seed", "3",
        ]) == 0
        assert main([
            "evaluate", "--data", str(data_path), "--model", str(model_path), "--json", str(report),
        ]) == 0
        split = filter_and_split(events, max(lists) + 1)
        data = build_dataset(
            events, lists, catalog, channels, split.all_keys(),
            TruncationConfig.uniform(channels, 8), train_weeks=split.train_weeks,
        )
        groups = build_eval_groups(data, lists, split.test)
        model = ModelRanker("m", load_model(str(model_path)), np.arange(len(data.schema)))
        payload = json.loads(report.read_text())
        assert payload["groups"] == len(groups)
        assert payload["mean_ndcg"] == evaluate_variant(model, groups).mean_ndcg

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_evaluate_k_below_one_exits_one_before_reading(self, capsys, k):
        capsys.readouterr()
        rc = main(["evaluate", "--data", "/nonexistent.csv", "--model", "/m.frm", "--k", k])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: k must be >= 1, got {k}"]

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_evaluate_k_below_one_exits_one(self, dataset_path, model_path, capsys, k):
        capsys.readouterr()
        rc = main(["evaluate", "--data", str(dataset_path), "--model", str(model_path),
                   "--k", k])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: k must be >= 1, got {k}"]
        assert "ndcg@" not in captured.out

    def test_evaluate_self_referencing_model_exits_one(
        self, dataset_path, model_path, tmp_path, capsys
    ):
        bad = tmp_path / "loop.frm"
        loop = [["A", 0, 0.25, True, 0, 2, 1.0], ["L", 0.5, 3], ["L", -0.5, 3]]
        bad.write_bytes(with_trees(load_model(str(model_path)), [loop]))
        rc = main(["evaluate", "--data", str(dataset_path), "--model", str(bad)])
        assert rc == 1
        assert "left child of node 0" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["train", "evaluate"])
    def test_interleaved_groups_exit_one(self, dataset_path, model_path, tmp_path, capsys, cmd):
        def key(line):
            fields = line.split(",")
            return fields[0], fields[2]  # query_id, week

        lines = dataset_path.read_text().splitlines()
        other = next(line for line in lines[2:] if key(line) != key(lines[1]))
        # Rows run q1, q1, q2, q1: the first group is split in two.
        data = tmp_path / "interleaved.csv"
        data.write_text("\n".join([lines[0], lines[1], lines[1], other, lines[1]]) + "\n")
        (tmp_path / "interleaved.csv.schema.json").write_text(
            (dataset_path.parent / "train.csv.schema.json").read_text()
        )
        out = tmp_path / "m.frm"
        args = {
            "train": ["train", "--data", str(data), "--out", str(out), "--trees", "2"],
            "evaluate": ["evaluate", "--data", str(data), "--model", str(model_path)],
        }[cmd]
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "interleaved.csv" in err[0] and "contiguous" in err[0]
        assert repr(key(lines[1])[0]) in err[0]
        assert not out.exists()

    def test_fuse_rrf(self, world_dir, tmp_path, capsys):
        out = tmp_path / "fused.tsv"
        rc = main([
            "fuse", "--lists", str(world_dir / "channel_lists_w0.tsv"),
            "--method", "rrf", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_fuse_wi_with_weights(self, world_dir, tmp_path):
        out = tmp_path / "fused_wi.tsv"
        rc = main([
            "fuse", "--lists", str(world_dir / "channel_lists_w0.tsv"),
            "--method", "wi", "--seed", "9",
            "--weight", "lexical=0.7", "--weight", "semantic=0.3",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().strip()

    def test_fuse_wi_matches_golden_output(self, tmp_path, monkeypatch):
        # 12 queries, some missing a channel; seasonal gets weight 0 and is
        # flushed. The golden file was written by the per-query interleaver
        # that the one batched call over the file replaced.
        calls = []
        batch = cli.weighted_interleave_batch

        def counting_batch(*args):
            calls.append(len(args[0]))
            return batch(*args)

        monkeypatch.setattr(cli, "weighted_interleave_batch", counting_batch)
        out = tmp_path / "fused.tsv"
        rc = main([
            "fuse", "--lists", str(DATA / "fuse_lists.tsv"), "--method", "wi", "--seed", "9",
            "--weight", "lexical=0.7", "--weight", "semantic=0.3", "--weight", "trending=1",
            "--out", str(out),
        ])
        assert rc == 0
        assert calls == [12]
        assert out.read_text() == (DATA / "fuse_wi_seed9.tsv").read_text()

    def test_fuse_wi_empty_lists_file(self, tmp_path, capsys):
        lists = tmp_path / "lists.tsv"
        lists.write_text("")
        capsys.readouterr()
        assert main(["fuse", "--lists", str(lists), "--method", "wi"]) == 0
        assert capsys.readouterr().out == "\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "rrf", "--k-rrf", "nan"], "k_rrf must be positive and finite, got nan"),
            (["--method", "wi", "--weight", "bogus=abc"], "unknown channel 'bogus' in --weight"),
            (["--method", "wi", "--weight", "bogus"], "--weight expects name=value, got 'bogus'"),
        ],
        ids=["rrf-nan", "wi-unknown-channel", "wi-no-value"],
    )
    def test_fuse_empty_lists_file_still_checks_flags(self, tmp_path, capsys, flags, message):
        # With no query to fuse, these flags used to go unread and fuse exited 0.
        lists = tmp_path / "lists.tsv"
        lists.write_text("")
        capsys.readouterr()
        assert main(["fuse", "--lists", str(lists), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {message}"]
        assert captured.out == ""

    def test_fuse_weight_for_a_channel_some_queries_lack(self, tmp_path, capsys):
        # q1 has no semantic list; its weight still applies to q2.
        lists = tmp_path / "lists.tsv"
        lists.write_text("q1\tlexical\ti1\t0.9\nq2\tlexical\ti1\t0.8\nq2\tsemantic\ti2\t0.7\n")
        capsys.readouterr()
        assert main(["fuse", "--lists", str(lists), "--method", "wi",
                     "--weight", "semantic=2"]) == 0
        assert capsys.readouterr().out == "q1\ti1\t1\nq2\ti2\t1\nq2\ti1\t2\n"

    def test_fuse_bad_weight_flag_exits_one(self, world_dir, capsys):
        rc = main([
            "fuse", "--lists", str(world_dir / "channel_lists_w0.tsv"),
            "--method", "wi", "--weight", "bogus",
        ])
        assert rc == 1
        assert "name=value" in capsys.readouterr().err

    def test_fuse_unparsable_weight_exits_one_naming_the_flag(self, world_dir, capsys):
        capsys.readouterr()
        rc = main([
            "fuse", "--lists", str(world_dir / "channel_lists_w0.tsv"),
            "--method", "wi", "--weight", "lexical=abc",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            "error: --weight 'lexical=abc': 'abc' is not a number"
        ]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--method", "wi", "--weight", "lexical=inf"], "non-finite weight"),
            (["--method", "wi", "--weight", "lexical=nan", "--weight", "semantic=1"],
             "non-finite weight"),
            (["--method", "wi", "--weight", "lexical=1e308", "--weight", "semantic=1e308"],
             "sum"),
            (["--method", "rrf", "--k-rrf", "nan"], "k_rrf"),
            (["--method", "rrf", "--k-rrf", "inf"], "k_rrf"),
        ],
    )
    def test_fuse_non_finite_input_exits_one(self, world_dir, capsys, flags, reason):
        capsys.readouterr()
        rc = main(["fuse", "--lists", str(world_dir / "channel_lists_w0.tsv"), *flags])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and reason in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("columns", [1, -1])
    def test_train_bad_validation_matrix_exits_one(
        self, dataset_path, tmp_path, capsys, monkeypatch, columns
    ):
        # A validation matrix one column wider or narrower than the schema.
        fit = cli.train

        def reshape_valid(*args, valid, **kwargs):
            Xv = valid[0]
            Xv = np.hstack([Xv, Xv[:, :1]]) if columns > 0 else Xv[:, :-1]
            return fit(*args, valid=(Xv, *valid[1:]), **kwargs)

        monkeypatch.setattr(cli, "train", reshape_valid)
        out = tmp_path / "m.frm"
        capsys.readouterr()
        rc = main(["train", "--data", str(dataset_path), "--out", str(out), "--trees", "2"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: validation feature matrix")
        assert not out.exists()

    @pytest.mark.parametrize("l2", ["nan", "inf", "-1"])
    def test_train_bad_l2_exits_one(self, dataset_path, tmp_path, capsys, l2):
        out = tmp_path / "m.frm"
        capsys.readouterr()
        rc = main(["train", "--data", str(dataset_path), "--out", str(out), "--trees", "2",
                   "--l2", l2])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: l2 must be finite and >= 0")
        assert captured.out == ""
        assert not out.exists()

    @staticmethod
    def _negative_label_file(dataset_path, tmp_path):
        lines = dataset_path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = "-1"  # the label column of the first training row
        data = tmp_path / "negative.csv"
        data.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
        (tmp_path / "negative.csv.schema.json").write_text(
            (dataset_path.parent / "train.csv.schema.json").read_text()
        )
        return data

    def test_train_negative_label_exits_one(self, dataset_path, tmp_path, capsys):
        data = self._negative_label_file(dataset_path, tmp_path)
        out = tmp_path / "m.frm"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(out), "--trees", "2"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {data}:2: label -1.0 is negative"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train", "train-oblique"])
    def test_negative_seed_exits_one_before_any_output(
        self, command, dataset_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        if command == "generate":
            args = ["generate", "--out", str(out), "--queries", "4", "--items", "60"]
        else:
            args = ["train", "--data", str(dataset_path), "--out", str(out), "--trees", "2"]
            args += ["--oblique"] if command == "train-oblique" else []
        capsys.readouterr()
        assert main([*args, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == ["error: seed must be >= 0, got -1"]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--half-life", "nan"], "--half-life nan: decay_half_life must be finite and > 0, got nan"),
            (["--half-life", "inf"], "--half-life inf: decay_half_life must be finite and > 0, got inf"),
            (["--half-life", "0"], "--half-life 0.0: decay_half_life must be finite and > 0, got 0.0"),
            (["--windows", "1,,4"], "--windows '1,,4': invalid literal for int() with base 10: ''"),
            (["--windows", "4,1"], "--windows '4,1': windows must be strictly increasing"),
        ],
    )
    def test_build_dataset_bad_lookback_flag_exits_one_naming_it(
        self, world_dir, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "data.csv"
        items = tmp_path / "items.tsv"
        capsys.readouterr()
        rc = main([
            "build-dataset", "--events", str(world_dir / "events.tsv"),
            "--lists-dir", str(world_dir), "--catalog", str(world_dir / "catalog.tsv"),
            "--item-features-out", str(items), "--out", str(out), *flags,
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {message}"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_build_dataset_week_past_int32_exits_one_naming_the_line(
        self, world_dir, tmp_path, capsys
    ):
        events = tmp_path / "events.tsv"
        lines = (world_dir / "events.tsv").read_text().splitlines(keepends=True)[:3]
        lines.append("10.0\t99999999999999999999\ts1\tq00000\ti00000\tclick\n")
        events.write_text("".join(lines))
        out = tmp_path / "data.csv"
        capsys.readouterr()
        rc = main([
            "build-dataset", "--events", str(events), "--lists-dir", str(world_dir),
            "--catalog", str(world_dir / "catalog.tsv"), "--out", str(out),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            f"error: {events}:4: week 99999999999999999999 is above 2147483647"
        ]
        assert captured.out == ""
        assert not out.exists()

    def test_build_dataset_event_week_without_lists_exits_one(self, tmp_path, capsys):
        # Without week 5's lists the split covers weeks 0-4; week 5's events
        # used to alias onto the next query and end in an IndexError.
        world = tmp_path / "world"
        assert main(["generate", *WORLD_FLAGS, "--weeks", "6", "--out", str(world)]) == 0
        (world / "channel_lists_w5.tsv").unlink()
        out = tmp_path / "data.csv"
        capsys.readouterr()
        rc = main([
            "build-dataset", "--events", str(world / "events.tsv"), "--lists-dir", str(world),
            "--catalog", str(world / "catalog.tsv"), "--out", str(out),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            "error: largest event week 5 is not below num_weeks=5"
        ]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sessions-mean", "nan"], "sessions_mean must be finite and > 0, got nan"),
            (["--sessions-mean", "-3"], "sessions_mean must be finite and > 0, got -3.0"),
            (["--queries", "0"], "num_queries must be >= 1, got 0"),
            (["--channels", "0"], "num_channels must be >= 1, got 0"),
            (["--n-per-channel", "0"], "per_channel_n must be >= 1, got 0"),
            (["--channel-concentration", "nan"],
             "channel_utility_concentration must be finite and >= 0, got nan"),
        ],
    )
    def test_generate_bad_world_flag_exits_one_naming_field(
        self, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["generate", "--out", str(out), "--queries", "4", "--items", "60", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {message}"]
        assert captured.out == ""
        assert not out.exists()

    def test_evaluate_negative_label_exits_one(self, dataset_path, model_path, tmp_path, capsys):
        data = self._negative_label_file(dataset_path, tmp_path)
        capsys.readouterr()
        assert main(["evaluate", "--data", str(data), "--model", str(model_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {data}:2: label -1.0 is negative"]
        assert "ndcg@" not in captured.out

    def test_fuse_duplicate_item_names_line(self, tmp_path, capsys):
        lists = tmp_path / "lists.tsv"
        lists.write_text("q1\tlexical\ti1\t0.9\nq1\tlexical\ti1\t0.5\n")
        capsys.readouterr()
        assert main(["fuse", "--lists", str(lists)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {lists}:2: duplicate item 'i1' for query 'q1' channel 'lexical'"]

    @pytest.mark.parametrize(
        "sidecar",
        ["{}", "[1]", '{"columns": [{"name": "a", "group": "item"}]}', "{"],
        ids=["no-columns", "list", "no-kind", "not-json"],
    )
    @pytest.mark.parametrize("cmd", ["train", "evaluate"])
    def test_bad_schema_sidecar_exits_one(
        self, dataset_path, model_path, tmp_path, capsys, cmd, sidecar
    ):
        data = tmp_path / "data.csv"
        data.write_bytes(dataset_path.read_bytes())
        (tmp_path / "data.csv.schema.json").write_text(sidecar)
        flags = ["--model", str(model_path)]
        if cmd == "train":
            flags = ["--out", str(tmp_path / "m.frm")]
        capsys.readouterr()
        rc = main([cmd, "--data", str(data), *flags])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {data}.schema.json: malformed feature schema")

    def test_bench_with_item_sidecar(self, model_path, dataset_path, tmp_path, capsys):
        items = dataset_path.parent / "item_features.tsv"
        report = tmp_path / "bench.json"
        rc = main([
            "bench", "--model", str(model_path), "--items", str(items),
            "--requests", "30", "--pool", "24", "--json", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["p50_ms"] <= payload["p95_ms"] <= payload["p99_ms"]

    def test_ablate_small_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "ablation"
        rc = main([
            "ablate", "--config", "small", "--seed", "6", "--wi-seeds", "5",
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        payload = json.loads((out_dir / "ablation_report.json").read_text())
        assert [v["name"] for v in payload["variants"]] == [
            "WI", "UR", "UR+EF", "UR+EF+CL",
        ]
        stdout = capsys.readouterr().out
        assert "UR+EF+CL" in stdout

    def test_ablate_zero_wi_seeds_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_world(cfg):
            raise AssertionError("generate ran")

        monkeypatch.setattr(cli.synthgen, "generate", no_world)
        out_dir = tmp_path / "ablation"
        capsys.readouterr()
        rc = main(["ablate", "--config", "small", "--wi-seeds", "0", "--out-dir", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: wi_seeds must be >= 1, got 0"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_ablate_threads_below_one_exits_one_before_any_work(
        self, tmp_path, capsys, monkeypatch, threads
    ):
        def no_world(cfg):
            raise AssertionError("generate ran")

        monkeypatch.setattr(cli.synthgen, "generate", no_world)
        out_dir = tmp_path / "ablation"
        capsys.readouterr()
        rc = main(["ablate", "--config", "small", "--threads", threads, "--out-dir", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: n_threads must be >= 1, got {threads}"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_train_threads_below_one_exits_one_before_reading(self, tmp_path, capsys, threads):
        out = tmp_path / "model.frm"
        capsys.readouterr()
        rc = main(["train", "--data", str(tmp_path / "missing.tsv"), "--out", str(out),
                   "--threads", threads])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: n_threads must be >= 1, got {threads}"]
        assert not out.exists()

    @pytest.mark.parametrize("pool", ["0", "-5"])
    def test_bench_pool_below_one_exits_one(self, model_path, capsys, monkeypatch, pool):
        monkeypatch.setattr(cli, "bench", None)  # must fail before benchmarking
        capsys.readouterr()
        assert main(["bench", "--model", str(model_path), "--pool", pool]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --pool must be >= 1, got {pool}"]

    @pytest.mark.parametrize("requests", ["0", "-3"])
    def test_bench_requests_below_one_exits_one_before_reading(self, tmp_path, capsys, requests):
        capsys.readouterr()
        rc = main(["bench", "--model", str(tmp_path / "missing.frm"), "--requests", requests])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --requests must be >= 1, got {requests}"]

    @pytest.mark.parametrize("cmd", ["serve", "bench"])
    def test_zero_pool_cap_exits_one(self, model_path, capsys, monkeypatch, cmd):
        monkeypatch.setenv("CHANNELRANK_POOL_CAP", "0")
        monkeypatch.setattr(cli, "make_server", None)  # serve must fail before binding
        capsys.readouterr()
        assert main([cmd, "--model", str(model_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: pool_cap must be >= 1, got 0"]

    def test_unparsable_pool_cap_exits_one_naming_the_variable(
        self, model_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("CHANNELRANK_POOL_CAP", "abc")
        monkeypatch.setattr(cli, "bench", None)  # must fail before benchmarking
        capsys.readouterr()
        assert main(["bench", "--model", str(model_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: CHANNELRANK_POOL_CAP 'abc' is not an integer"]

    @pytest.mark.parametrize(
        "cmd, env, flags, error",
        [
            ("bench", "abc", [], "CHANNELRANK_POOL_CAP 'abc' is not an integer"),
            ("serve", None, ["--pool-cap", "0"], "pool_cap must be >= 1, got 0"),
        ],
        ids=["bench-env-abc", "serve-flag-0"],
    )
    def test_bad_pool_cap_reported_before_the_model_loads(
        self, tmp_path, capsys, monkeypatch, cmd, env, flags, error
    ):
        if env is None:
            monkeypatch.delenv("CHANNELRANK_POOL_CAP", raising=False)
        else:
            monkeypatch.setenv("CHANNELRANK_POOL_CAP", env)
        monkeypatch.setattr(cli, "make_server", None)  # serve must fail before binding
        capsys.readouterr()
        assert main([cmd, "--model", str(tmp_path / "missing.frm"), *flags]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {error}"]


def _probe_world(root, weeks):
    """``q1`` served only by ``lexical``, ``q2`` by ``lexical`` and ``semantic``."""
    (root / "events.tsv").write_text("10.0\t0\ts1\tq1\ti1\timpression\n")
    (root / "catalog.tsv").write_text("i1\t9.5\t0\t0\ni2\t3.0\t1\t0\n")
    for week in weeks:
        (root / f"channel_lists_w{week}.tsv").write_text(
            "q1\tlexical\ti1\t0.9\n"
            "q2\tlexical\ti1\t0.8\n"
            "q2\tsemantic\ti2\t0.7\n"
        )
    return [str(root / "events.tsv"), str(root), str(root / "catalog.tsv")]


class TestLoadWorldDir:
    @pytest.mark.parametrize("weeks", [(0, 1), (0,)])
    def test_channels_are_the_union_over_every_file(self, tmp_path, weeks):
        _, lists_by_week, _, channels = _load_world_dir(*_probe_world(tmp_path, weeks))
        lexical, semantic = ChannelId(0, "lexical"), ChannelId(1, "semantic")
        assert channels == (lexical, semantic)
        assert sorted(lists_by_week) == list(weeks)
        for lists in lists_by_week.values():
            assert [cl.channel for cl in lists["q1"]] == [lexical]
            assert [cl.channel for cl in lists["q2"]] == [lexical, semantic]

    def test_each_file_is_opened_once(self, tmp_path, monkeypatch):
        paths = _probe_world(tmp_path, (0, 1))
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        _load_world_dir(*paths)
        monkeypatch.undo()
        assert sorted(opened) == [
            "catalog.tsv", "channel_lists_w0.tsv", "channel_lists_w1.tsv", "events.tsv",
        ]


class TestServeBind:
    @pytest.mark.parametrize(
        "bind, expected",
        [
            ("127.0.0.1:8351", ("127.0.0.1", 8351)),
            ("0.0.0.0", ("0.0.0.0", 8351)),
            ("0.0.0.0:", ("0.0.0.0", 8351)),
            (":9000", ("127.0.0.1", 9000)),
            ("", ("127.0.0.1", 8351)),
            ("localhost:65535", ("localhost", 65535)),
        ],
    )
    def test_defaults_fill_missing_parts(self, bind, expected):
        assert _parse_bind(bind) == expected

    @pytest.mark.parametrize("port", ["http", "0", "65536", "-1", "+80", " 80", "8_0", "1:2"])
    def test_bad_port_rejected(self, port):
        with pytest.raises(ValueError, match="port must be an integer in 1..65535"):
            _parse_bind(f"127.0.0.1:{port}")

    @pytest.mark.parametrize(
        "bind, banner",
        [("0.0.0.0", "http://0.0.0.0:8351"), (":9000", "http://127.0.0.1:9000")],
    )
    def test_banner_shows_the_bound_address(self, model_path, capsys, monkeypatch, bind, banner):
        bound = []

        class Server:
            def serve_forever(self):
                raise KeyboardInterrupt

            def server_close(self):
                pass

        def fake_make_server(service, host, port):
            bound.append((host, port))
            return Server()

        monkeypatch.setattr(cli, "make_server", fake_make_server)
        monkeypatch.setenv("CHANNELRANK_BIND", bind)
        capsys.readouterr()
        assert main(["serve", "--model", str(model_path)]) == 0
        assert bound == [_parse_bind(bind)]
        assert capsys.readouterr().out.strip().endswith(f"on {banner}")

    def test_bad_bind_exits_one_before_loading(self, tmp_path, capsys):
        capsys.readouterr()
        rc = main(["serve", "--model", str(tmp_path / "missing.frm"), "--bind", ":port"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: bind address ':port': port must be an integer in 1..65535"]
