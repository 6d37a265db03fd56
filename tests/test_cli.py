import dataclasses
import errno
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

import modcmaes
from modcmaes import cli, evaluation
from modcmaes.benchmarks import make_problem
from modcmaes.cli import (
    CachedEvaluator,
    main,
    rank_aggregate,
    rank_table,
    report_activation,
    report_convergence,
)
from modcmaes.configuration import decode
from modcmaes.core import RunRecord
from modcmaes.evaluation import CACHE_HEADER, ResultsCache
from modcmaes.metaga import GARunTrace, TraceEntry


def _run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--function", "sphere", "--dim", "2", "--budget", "400"]


@pytest.mark.parametrize("argv", [
    ["run", "--config", "00000000000", "--budget", "0"],
    ["bruteforce", "--budget", "-3"],
    ["ga", "--budget", "400", "--ga-budget", "0", "--out", "traces"],
    ["run", "--config", "00000000000", "--runs", "0"],
    ["ga", "--budget", "400", "--ga-lambda", "0", "--out", "traces"],
    ["bruteforce", "--free", "12"],
    ["bruteforce", "--free", "a"],
    ["run", "--config", "00000000000", "--runs", "1", "--budget", "1",
     "--jobs", "0"],
    ["bruteforce", "--free", "1", "--runs", "1", "--budget", "1",
     "--jobs", "-3"],
    ["ga", "--budget", "400", "--ga-runs", "0", "--out", "traces"],
    ["bruteforce", "--free", ""],
    ["bruteforce", "--free", ","],
])
def test_budget_below_one_rejected(argv, tmp_path, capsys):
    cache = str(tmp_path / "cache.tsv")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--function", "sphere", "--dim", "2",
              "--cache", cache])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(cache)


@pytest.mark.parametrize("argv", [
    ["run", "--config", "00000000000", "--seed", "-1"],
    ["ga", "--seed", "-3", "--out", "traces"],
])
def test_negative_seed_rejected(argv, tmp_path, capsys):
    cache = str(tmp_path / "cache.tsv")
    with pytest.raises(SystemExit) as exc:
        main([*argv, *BASE, "--cache", cache])
    assert exc.value.code == 2
    assert "--seed: must be >= 0, got " in capsys.readouterr().err
    assert not os.path.exists(cache)


def test_ga_budget_below_lambda_rejected(tmp_path, capsys):
    cache, out_dir = str(tmp_path / "cache.tsv"), str(tmp_path / "traces")
    with pytest.raises(SystemExit) as exc:
        main(["ga", *BASE, "--cache", cache, "--out", out_dir,
              "--ga-budget", "1", "--ga-lambda", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: --ga-budget must be >= --ga-lambda, got 1 < 2\n")
    assert not os.path.exists(cache) and not os.path.exists(out_dir)


def test_target_option_is_gone(tmp_path, capsys):
    """The target is the problem's; there is no option to set another."""
    cache = str(tmp_path / "cache.tsv")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "00000000000", *BASE, "--runs", "4",
              "--target", "1e2", "--cache", cache])
    assert exc.value.code == 2
    assert "unrecognized arguments: --target 1e2" in capsys.readouterr().err
    assert not os.path.exists(cache)


def test_report_rank_takes_no_jobs(tmp_path, capsys):
    """report-rank never runs an ES run, so it has no pool to size."""
    with pytest.raises(SystemExit) as exc:
        main(["report-rank", *BASE, "--cache", str(tmp_path / "cache.tsv"),
              "--traces", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --jobs 2" in err


class TestMissingFiles:
    """A file that cannot be opened ends the command with exit 2 and one
    stderr line naming it, as malformed input does."""

    def test_missing_winners_file(self, tmp_path, capsys):
        path = str(tmp_path / "missing.tsv")
        code, out, err = _run_cli(
            ["report-activation", "--winners", path], capsys)
        assert (code, out) == (2, "")
        assert err == f"{path}: {os.strerror(errno.ENOENT)}\n"

    def test_cache_in_missing_directory(self, tmp_path, capsys):
        path = str(tmp_path / "no-such-dir" / "c.tsv")
        code, out, err = _run_cli(
            ["run", "--config", "00000000000", *BASE, "--runs", "2",
             "--cache", path], capsys)
        assert (code, out) == (2, "")
        assert err == f"{path}: {os.strerror(errno.ENOENT)}\n"

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "00000000000"],
        ["bruteforce", "--free", "1"],
        ["ga", "--free", "1", "--ga-budget", "2", "--ga-lambda", "2"],
    ])
    def test_cache_in_missing_directory_runs_nothing(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        runs = []

        def counted(*args):
            runs.append(args)
            return run(*args)

        run = evaluation.run
        monkeypatch.setattr(evaluation, "run", counted)
        path = str(tmp_path / "no-such-dir" / "c.tsv")
        out_dir = tmp_path / "traces"
        if argv[0] == "ga":
            argv = [*argv, "--out", str(out_dir)]
        code, out, err = _run_cli(
            [*argv, *BASE, "--runs", "2", "--cache", path], capsys)
        assert (code, out, len(runs)) == (2, "", 0)
        assert err == f"{path}: {os.strerror(errno.ENOENT)}\n"
        assert not out_dir.exists()

    def test_report_rank_names_a_cache_in_missing_directory(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "no-such-dir" / "c.tsv")
        code, out, err = _run_cli(
            ["report-rank", *BASE, "--free", "1", "--cache", path,
             "--traces", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"{path}: {os.strerror(errno.ENOENT)}\n"

    def test_an_error_naming_no_file_propagates(self, monkeypatch):
        def broken(args):
            raise OSError("no file involved")

        monkeypatch.setattr(cli, "cmd_suite", broken)
        with pytest.raises(OSError, match="no file involved"):
            main(["suite"])


# The four records that `run --config 00000000000 --function sphere --dim 2
# --runs 4 --budget 50 --target 1e2` wrote while the option existed: each
# "hit" a target of 100, none the problem's 1e-8.
FOREIGN_TARGET_CACHE = CACHE_HEADER + (
    "00000000000\tsphere\t2\t0\t6\t1.1631502592902836\t1\n"
    "00000000000\tsphere\t2\t1\t6\t19.819945907733246\t2\n"
    "00000000000\tsphere\t2\t2\t6\t1.4717331259803998\t1\n"
    "00000000000\tsphere\t2\t3\t6\t56.81501363666213\t1\n"
)


class TestForeignTargetRecords:
    def _cache(self, tmp_path):
        path = str(tmp_path / "cache.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(FOREIGN_TARGET_CACHE)
        return path

    def test_evaluator_refuses_them(self, tmp_path):
        path = self._cache(tmp_path)
        with pytest.raises(evaluation.MalformedInputError) as exc:
            CachedEvaluator(make_problem("sphere", 2), ResultsCache(path),
                            n_runs=4, budget=50)
        assert str(exc.value) == (
            f"{path}: 00000000000 seed 0 has best_error 1.1631502592902836 "
            "and hit_index 1, so it was written at a target other than 1e-08")

    def test_a_miss_below_the_target_is_refused_too(self, tmp_path):
        path = str(tmp_path / "cache.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CACHE_HEADER + "00000000000\tsphere\t2\t5\t50\t1e-09\tNA\n")
        with pytest.raises(evaluation.MalformedInputError,
                           match="seed 5 has best_error 1e-09 and hit_index NA"):
            CachedEvaluator(make_problem("sphere", 2), ResultsCache(path))

    def test_other_problems_records_are_not_checked(self, tmp_path):
        path = self._cache(tmp_path)
        ev = CachedEvaluator(make_problem("sphere", 3), ResultsCache(path),
                             n_runs=4)
        assert ev.missing_seeds("00000000000") == [0, 1, 2, 3]

    def test_run_exits_2_and_keeps_the_bytes(self, tmp_path, capsys):
        path = self._cache(tmp_path)
        code, out, err = _run_cli(
            ["run", "--config", "00000000000", *BASE, "--runs", "4",
             "--cache", path], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"{path}: 00000000000 seed 0 ")
        assert err.count("\n") == 1
        with open(path, "rb") as fh:
            assert fh.read() == FOREIGN_TARGET_CACHE.encode()


class TestCmdRun:
    def test_appends_one_line_per_run(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        code, out, _ = _run_cli(
            ["run", "--config", "00000000000", *BASE,
             "--runs", "4", "--seed", "1", "--cache", cache],
            capsys,
        )
        assert code == 0
        with open(cache) as fh:
            header, *lines = fh.read().strip().split("\n")
        assert header + "\n" == CACHE_HEADER
        assert len(lines) == 4
        seeds = [int(l.split("\t")[3]) for l in lines]
        assert seeds == [1, 2, 3, 4]

    def test_bad_config_exit_and_position(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "0000000000X", *BASE, "--cache", cache])
        assert exc.value.code == 2
        assert "position 11" in capsys.readouterr().err
        assert not os.path.exists(cache)

    def test_malformed_cache_line_exits_2(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        argv = ["run", "--config", "00000000000", *BASE, "--runs", "2",
                "--cache", cache]
        _run_cli(argv, capsys)
        with open(cache, "a", encoding="utf-8") as fh:
            fh.write("00000000000\tsphere\t2\t7\n")
        size = os.path.getsize(cache)
        code, out, err = _run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"{cache}:4: ") and err.count("\n") == 1
        assert os.path.getsize(cache) == size

    def test_headerless_cache_exits_2(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        record = "00000000000\tsphere\t2\t0\t300\t0.5\tNA\n"
        with open(cache, "w", encoding="utf-8") as fh:
            fh.write(record)  # a cache written before the header existed
        code, out, err = _run_cli(
            ["run", "--config", "00000000000", *BASE, "--runs", "2",
             "--cache", cache], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"{cache}:1: ") and err.count("\n") == 1
        with open(cache, encoding="utf-8") as fh:
            assert fh.read() == record

    def test_rerun_identical_output_no_new_lines(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        argv = ["run", "--config", "00000000000", *BASE,
                "--runs", "3", "--seed", "5", "--cache", cache]
        code1, out1, _ = _run_cli(argv, capsys)
        size1 = os.path.getsize(cache)
        code2, out2, _ = _run_cli(argv, capsys)
        size2 = os.path.getsize(cache)
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        assert size1 == size2

    def test_summary_reports_ert_and_fce(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        code, out, _ = _run_cli(
            ["run", "--config", "00000000000", "--function", "sphere",
             "--dim", "2", "--runs", "2", "--budget", "2000",
             "--seed", "0", "--cache", cache],
            capsys,
        )
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split("\t"), row.split("\t")))
        assert fields["config"] == "00000000000"
        assert fields["n"] == "2"
        assert fields["ert"] != "NA"  # sphere in 2-D is solved


class TestCmdBruteforce:
    def test_reduced_space_sweeps_eight(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        code, out, _ = _run_cli(
            ["bruteforce", *BASE, "--runs", "2", "--seed", "0",
             "--cache", cache, "--free", "1,2,3"],
            capsys,
        )
        assert code == 0
        stats = dict(l.split("\t") for l in out.strip().split("\n"))
        assert stats["configs"] == "8"
        assert stats["executed"] == "8"
        cache_obj = ResultsCache(cache)
        configs = {r.config for r in cache_obj.records()}
        assert len(configs) == 8
        assert len(cache_obj.records()) == 16

    def test_full_space_sweep_counts_4608(self, tmp_path, capsys):
        # Minimal budget keeps the full enumeration affordable; the
        # point is the coverage count, not solver quality.
        cache = str(tmp_path / "cache.tsv")
        code, out, _ = _run_cli(
            ["bruteforce", "--function", "sphere", "--dim", "2",
             "--runs", "1", "--budget", "1", "--seed", "0",
             "--cache", cache],
            capsys,
        )
        assert code == 0
        stats = dict(l.split("\t") for l in out.strip().split("\n"))
        assert stats["configs"] == "4608"
        assert stats["executed"] == "4608"
        assert len({r.config for r in ResultsCache(cache).records()}) == 4608

    def test_resume_skips_complete_configs(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        problem = make_problem("sphere", 2)
        evaluator = CachedEvaluator(
            problem, ResultsCache(cache), n_runs=2, budget=400, base_seed=0
        )
        # Simulate a sweep killed after five of the eight configurations.
        from modcmaes.configuration import enumerate_all, encode

        for i, cfg in enumerate(enumerate_all({0, 1, 2})):
            if i == 5:
                break
            evaluator(encode(cfg))
        code, out, _ = _run_cli(
            ["bruteforce", *BASE, "--runs", "2", "--seed", "0",
             "--cache", cache, "--free", "1,2,3"],
            capsys,
        )
        stats = dict(l.split("\t") for l in out.strip().split("\n"))
        assert stats["configs"] == "8"
        assert stats["executed"] == "3"
        assert stats["skipped"] == "5"

    def test_one_pool_per_sweep(self, tmp_path, capsys, monkeypatch):
        built = []
        init = ProcessPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        code, out, _ = _run_cli(
            ["bruteforce", *BASE, "--runs", "2", "--seed", "0",
             "--cache", str(tmp_path / "cache.tsv"), "--free", "1,2",
             "--jobs", "2"],
            capsys,
        )
        assert code == 0
        assert "executed\t4" in out
        assert built == [2]

    def test_refused_cache_builds_no_pool(self, tmp_path, capsys, monkeypatch):
        """The evaluator reads and checks the cache before it builds its
        pool, so a refused cache starts no worker."""
        built = []
        init = ProcessPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        bad = tmp_path / "bad.tsv"
        bad.write_text("#modcmaes results cache\tengine_version=2\n")
        code, out, err = _run_cli(
            ["run", "--config", "00000000000", *BASE, "--runs", "2",
             "--jobs", "2", "--cache", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"{bad}:1: results cache of engine version 2;")
        assert built == []

    def test_pool_wider_than_runs(self, tmp_path, capsys, monkeypatch):
        """The runs of several structures share the stream, so a sweep
        with --runs 1 still gets all --jobs workers."""
        argv = ["bruteforce", *BASE, "--runs", "1", "--seed", "0",
                "--free", "1,2,3"]
        _run_cli(argv + ["--cache", str(tmp_path / "serial.tsv")], capsys)
        built = []
        init = ProcessPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        code, out, _ = _run_cli(
            argv + ["--cache", str(tmp_path / "pool.tsv"), "--jobs", "2"],
            capsys,
        )
        assert code == 0
        assert built == [2]
        assert ((tmp_path / "pool.tsv").read_bytes()
                == (tmp_path / "serial.tsv").read_bytes())

    def test_jobs_invariance_with_ragged_chunks(self, tmp_path, capsys):
        """A resumed sweep whose structures miss different seeds gives the
        same bytes and counts with one, two or three workers."""
        problem = make_problem("sphere", 2)
        start = str(tmp_path / "start.tsv")
        for n_runs, base_seed, cfgs in (
                (2, 0, ["00000000000", "10000000000", "01000000000"]),
                (1, 3, ["01000000000", "11000000000", "00100000000"]),
                (5, 0, ["10100000000"])):
            ev = CachedEvaluator(problem, ResultsCache(start), n_runs=n_runs,
                                 budget=400, base_seed=base_seed)
            for cfg in cfgs:
                ev(cfg)
        seen = set()
        for jobs in ("1", "2", "3"):
            cache = tmp_path / f"jobs{jobs}.tsv"
            cache.write_bytes((tmp_path / "start.tsv").read_bytes())
            code, out, _ = _run_cli(
                ["bruteforce", *BASE, "--runs", "5", "--seed", "0",
                 "--free", "1,2,3", "--jobs", jobs, "--cache", str(cache)],
                capsys,
            )
            assert code == 0
            assert out == "configs\t8\nexecuted\t7\nskipped\t1\n"
            seen.add((out, cache.read_bytes()))
        assert len(seen) == 1
        records = ResultsCache(str(tmp_path / "jobs3.tsv")).records()
        assert len({(r.config, r.seed) for r in records}) == len(records) == 40


class TestCmdGa:
    def test_traces_written_per_run(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        out_dir = str(tmp_path / "traces")
        code, out, _ = _run_cli(
            ["ga", *BASE, "--runs", "2", "--seed", "0", "--cache", cache,
             "--out", out_dir, "--ga-runs", "2", "--ga-budget", "24",
             "--ga-lambda", "12", "--free", "1,2,3"],
            capsys,
        )
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["trace_000.tsv", "trace_001.tsv"]
        lines = out.strip().split("\n")
        assert len(lines) == 3  # header + 2 runs

    def test_earlier_traces_are_removed(self, tmp_path, capsys):
        """After a longer search, a shorter one into the same --out leaves
        only its own traces there; other files stay."""
        cache = str(tmp_path / "cache.tsv")
        out_dir = tmp_path / "traces"
        os.makedirs(out_dir)
        (out_dir / "notes.txt").write_text("kept\n")
        argv = ["ga", *BASE, "--runs", "2", "--seed", "0", "--cache", cache,
                "--out", str(out_dir), "--free", "1,2,3"]
        code, _, _ = _run_cli(argv + ["--ga-runs", "3", "--ga-budget", "24"],
                              capsys)
        assert code == 0 and len(os.listdir(out_dir)) == 4
        code, _, _ = _run_cli(argv + ["--ga-runs", "1", "--ga-budget", "12"],
                              capsys)
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["notes.txt", "trace_000.tsv"]
        code, out, _ = _run_cli(
            ["report-convergence", "--traces", str(out_dir)], capsys)
        assert code == 0 and len(out.splitlines()) == 2

    def test_refused_cache_leaves_out_untouched(self, tmp_path, capsys):
        """A cache of another engine version ends the command before it
        prints or removes an earlier command's traces."""
        out_dir = tmp_path / "traces"
        argv = ["ga", *BASE, "--runs", "2", "--seed", "0", "--out",
                str(out_dir), "--free", "1,2,3", "--ga-budget", "12"]
        code, _, _ = _run_cli(
            argv + ["--cache", str(tmp_path / "c.tsv"), "--ga-runs", "2"],
            capsys)
        assert code == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(before) == ["trace_000.tsv", "trace_001.tsv"]
        bad = tmp_path / "bad.tsv"
        bad.write_text("#modcmaes results cache\tengine_version=2\n")
        code, out, err = _run_cli(argv + ["--cache", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"{bad}:1: results cache of engine version 2;")
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_out_that_is_a_file_ends_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "traces"
        out.write_text("not a directory\n")
        cache = tmp_path / "c.tsv"
        code, stdout, err = _run_cli(
            ["ga", *BASE, "--runs", "2", "--seed", "0", "--free", "1,2,3",
             "--ga-runs", "2", "--ga-budget", "12", "--cache", str(cache),
             "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"{out}: ")
        assert not cache.exists()

    def test_a_raising_search_leaves_out_untouched(
        self, tmp_path, capsys, monkeypatch
    ):
        """The traces are written once the last GA run has ended, so a
        search that raises keeps the last finished command's traces."""
        out_dir = tmp_path / "traces"
        argv = ["ga", *BASE, "--runs", "2", "--seed", "0", "--out",
                str(out_dir), "--free", "1,2,3", "--ga-budget", "12",
                "--cache", str(tmp_path / "c.tsv")]
        code, _, _ = _run_cli(argv + ["--ga-runs", "2"], capsys)
        assert code == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(before) == ["trace_000.tsv", "trace_001.tsv"]
        calls = []
        ga_run = cli.ga_run

        def failing_ga_run(*args, **kwargs):
            calls.append(kwargs["seed"])
            if len(calls) == 2:
                raise RuntimeError("search down")
            return ga_run(*args, **kwargs)

        monkeypatch.setattr(cli, "ga_run", failing_ga_run)
        with pytest.raises(RuntimeError, match="search down"):
            main(argv + ["--ga-runs", "3", "--seed", "7"])
        assert calls == [7, 8]
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_failures_reported_on_stderr_only(
        self, tmp_path, capsys, monkeypatch
    ):
        argv = ["ga", *BASE, "--runs", "2", "--seed", "0", "--ga-runs", "2",
                "--ga-budget", "24", "--ga-lambda", "12", "--free", "1,2,3"]
        _, clean_out, clean_err = _run_cli(
            argv + ["--cache", str(tmp_path / "a.tsv"),
                    "--out", str(tmp_path / "a")],
            capsys,
        )
        assert clean_err == ""
        run = evaluation.run

        def flaky_run(cfg_str, *args, **kwargs):
            if cfg_str == "11100000000":
                raise RuntimeError("engine down")
            return run(cfg_str, *args, **kwargs)

        monkeypatch.setattr(evaluation, "run", flaky_run)
        code, out, err = _run_cli(
            argv + ["--cache", str(tmp_path / "b.tsv"),
                    "--out", str(tmp_path / "b")],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == len(clean_out.splitlines())
        lines = err.strip().split("\n")
        for line in lines:
            assert line.startswith("ga run ")
            assert line.endswith(" of 24 structure evaluations failed; "
                                 "first: RuntimeError: engine down")
        records = ResultsCache(str(tmp_path / "b.tsv")).records()
        assert all(r.config != "11100000000" for r in records)

    def test_failures_counted_through_the_pool(
        self, tmp_path, capsys, monkeypatch
    ):
        """Pool workers inherit a run that raises for one structure; the
        GA counts each of its evaluations as failed, as it does serially."""
        run = evaluation.run

        def flaky_run(cfg_str, *args, **kwargs):
            if cfg_str == "11100000000":
                raise RuntimeError("engine down")
            return run(cfg_str, *args, **kwargs)

        monkeypatch.setattr(evaluation, "run", flaky_run)
        outputs = []
        for jobs in ("1", "2"):
            code, out, err = _run_cli(
                ["ga", *BASE, "--runs", "2", "--seed", "0", "--ga-runs", "2",
                 "--ga-budget", "24", "--ga-lambda", "12", "--free", "1,2,3",
                 "--jobs", jobs, "--cache", str(tmp_path / f"{jobs}.tsv"),
                 "--out", str(tmp_path / jobs)],
                capsys,
            )
            assert code == 0
            outputs.append((out, err, (tmp_path / f"{jobs}.tsv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert "structure evaluations failed; first: RuntimeError: engine down" \
            in outputs[1][1]

    def test_traces_only_reference_cached_configs(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        out_dir = str(tmp_path / "traces")
        _run_cli(
            ["ga", *BASE, "--runs", "2", "--seed", "3", "--cache", cache,
             "--out", out_dir, "--ga-runs", "1", "--ga-budget", "36",
             "--ga-lambda", "12", "--free", "1,2,3"],
            capsys,
        )
        cached = {r.config for r in ResultsCache(cache).records()}
        with open(os.path.join(out_dir, "trace_000.tsv")) as fh:
            next(fh)
            for line in fh:
                cfg = line.split("\t")[1]
                assert cfg in cached


class TestRankReport:
    def test_rank_of_identical_best_is_one(self):
        bf = [(100.0, 1e-8), (200.0, 1e-8), (None, 0.5)]
        assert rank_aggregate(bf, (100.0, 1e-8)) == 1

    def test_rank_counts_strictly_better(self):
        bf = [(100.0, 1e-8), (200.0, 1e-8), (None, 0.5)]
        assert rank_aggregate(bf, (150.0, 1e-8)) == 2
        assert rank_aggregate(bf, (None, 1.0)) == 4

    def test_synthetic_eight_config_space(self):
        # Hand enumeration: fitnesses 10,20,...,80 by ERT.
        bf = [(10.0 * (i + 1), 1e-8) for i in range(8)]
        for i in range(8):
            rank = rank_aggregate(bf, (10.0 * (i + 1), 1e-8))
            assert rank == i + 1

    def test_rank_table_cumulative(self):
        rows = rank_table([1, 2, 2, 4, 10, 30])
        table = dict(rows)
        assert table["1"] == pytest.approx(100.0 / 6)
        assert table["2"] == pytest.approx(50.0)
        assert table["4-5"] == pytest.approx(400.0 / 6)
        assert table["18+"] == 100.0
        pcts = [pct for _, pct in rows]
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))

    def test_report_rank_cli_happy_path(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        out_dir = str(tmp_path / "traces")
        _run_cli(
            ["bruteforce", *BASE, "--runs", "2", "--seed", "0",
             "--cache", cache, "--free", "1,2,3"],
            capsys,
        )
        _run_cli(
            ["ga", *BASE, "--runs", "2", "--seed", "0", "--cache", cache,
             "--out", out_dir, "--ga-runs", "2", "--ga-budget", "48",
             "--ga-lambda", "12", "--free", "1,2,3"],
            capsys,
        )
        code, out, _ = _run_cli(
            ["report-rank", *BASE, "--runs", "2", "--seed", "0",
             "--cache", cache, "--traces", out_dir, "--free", "1,2,3"],
            capsys,
        )
        assert code == 0
        assert "rank\t" in out
        rank = int(out.split("rank\t")[1].split("\n")[0])
        assert 1 <= rank <= 8

    def test_report_rank_refuses_incomplete_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.tsv")
        out_dir = str(tmp_path / "traces")
        os.makedirs(out_dir)
        with open(os.path.join(out_dir, "trace_000.tsv"), "w") as fh:
            fh.write("generation\tbest_config\tert\tfce\n1\t00000000000\tNA\t1.0\n")
        code, out, err = _run_cli(
            ["report-rank", *BASE, "--runs", "2", "--seed", "0",
             "--cache", cache, "--traces", out_dir, "--free", "1,2,3"],
            capsys,
        )
        assert code == 3
        assert "8 configurations missing" in err

    def _warm(self, tmp_path, capsys, best_configs):
        """A cache swept over genes 1-3, and one hand-written trace per
        GA best structure."""
        cache = str(tmp_path / "cache.tsv")
        _run_cli(
            ["bruteforce", *BASE, "--runs", "2", "--seed", "0",
             "--cache", cache, "--free", "1,2,3"],
            capsys,
        )
        out_dir = tmp_path / "traces"
        os.makedirs(out_dir)
        for i, cfg in enumerate(best_configs):
            (out_dir / f"trace_{i:03d}.tsv").write_text(
                f"generation\tbest_config\tert\tfce\n1\t{cfg}\tNA\t1.0\n")
        return cache, str(out_dir)

    def _rank(self, cache, out_dir, free, capsys):
        return _run_cli(
            ["report-rank", *BASE, "--runs", "2", "--seed", "0",
             "--cache", cache, "--traces", out_dir, "--free", free],
            capsys,
        )

    def test_report_rank_reads_without_executing(
        self, tmp_path, capsys, monkeypatch
    ):
        cache, out_dir = self._warm(tmp_path, capsys, ["01100000000"])
        with open(cache, "rb") as fh:
            before = fh.read()

        def no_run(*args, **kwargs):
            raise AssertionError("report-rank executed a run")

        def no_call(self, cfg):
            raise AssertionError("report-rank called the evaluator")

        monkeypatch.setattr(evaluation, "run", no_run)
        monkeypatch.setattr(CachedEvaluator, "__call__", no_call)
        code, out, err = self._rank(cache, out_dir, "1,2,3", capsys)
        assert (code, err) == (0, "")
        assert "rank\t" in out
        with open(cache, "rb") as fh:
            assert fh.read() == before

    def test_report_rank_uses_cached_ga_best_outside_space(
        self, tmp_path, capsys
    ):
        # The GA searched genes 1-3; the ranking space is genes 1-2 only.
        cache, out_dir = self._warm(tmp_path, capsys, ["01100000000"])
        code, out, err = self._rank(cache, out_dir, "1,2", capsys)
        assert (code, err) == (0, "")
        ev = CachedEvaluator(make_problem("sphere", 2), ResultsCache(cache),
                             n_runs=2, base_seed=0)
        best = ev.cached("01100000000")
        bf = [ev.cached(c) for c in
              ("00000000000", "10000000000", "01000000000", "11000000000")]
        fields = dict(line.split("\t") for line in out.splitlines()[:3])
        assert fields["ga_aggregate_fce"] == repr(best.fce)
        rank = rank_aggregate([(s.ert, s.fce) for s in bf], (best.ert, best.fce))
        assert fields["rank"] == str(rank)

    def test_report_rank_rejects_malformed_trace(self, tmp_path, capsys):
        cache, out_dir = self._warm(tmp_path, capsys, ["01100000000"])
        path = os.path.join(out_dir, "trace_000.tsv")
        with open(path, "a") as fh:
            fh.write("2\t01100000000\tNA\n")
        code, out, err = self._rank(cache, out_dir, "1,2,3", capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"{path}:3: ") and err.count("\n") == 1

    def test_report_rank_rejects_trace_without_generations(
        self, tmp_path, capsys
    ):
        cache, out_dir = self._warm(tmp_path, capsys, ["01100000000"])
        path = os.path.join(out_dir, "trace_000.tsv")
        with open(path, "w") as fh:
            fh.write("generation\tbest_config\tert\tfce\n")
        code, out, err = self._rank(cache, out_dir, "1,2,3", capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"{path}:2: ") and err.count("\n") == 1

    def test_report_rank_rejects_invalid_ga_best(self, tmp_path, capsys):
        # A complete cache: the trace is at fault, not the cache.
        cache, out_dir = self._warm(tmp_path, capsys, ["0000000000X"])
        code, out, err = self._rank(cache, out_dir, "1,2,3", capsys)
        path = os.path.join(out_dir, "trace_000.tsv")
        assert (code, out) == (2, "")
        assert err.startswith(f"{path}:2: ") and err.count("\n") == 1

    def test_report_rank_refuses_uncached_ga_best(self, tmp_path, capsys):
        cache, out_dir = self._warm(
            tmp_path, capsys, ["01100000000", "00010000000"])
        size = os.path.getsize(cache)
        code, out, err = self._rank(cache, out_dir, "1,2,3", capsys)
        assert (code, out) == (3, "")
        assert err.startswith("cache incomplete: 1 ")
        assert os.path.getsize(cache) == size


class TestActivationReport:
    def test_cli_reads_concatenated_ga_outputs(self, tmp_path, capsys):
        """Winners of several problems, one ``ga`` stdout each, joined by
        ``cat``: each repeated header line is skipped."""
        outputs = []
        for function in ("sphere", "discus"):
            code, out, _ = _run_cli(
                ["ga", "--function", function, "--dim", "2", "--runs", "2",
                 "--budget", "200", "--seed", "0", "--free", "1,2,3",
                 "--ga-runs", "2", "--ga-budget", "12",
                 "--cache", str(tmp_path / "c.tsv"),
                 "--out", str(tmp_path / function)], capsys)
            assert code == 0
            outputs.append(out)
        winners = tmp_path / "winners.tsv"
        winners.write_text("".join(outputs))
        code, out, err = _run_cli(
            ["report-activation", "--winners", str(winners)], capsys)
        assert (code, err) == (0, "")
        header = out.split("\n")[0].split("\t")
        assert header == ["module", "high_conditioning_unimodal", "separable"]

    def test_fifty_percent_single_module(self):
        winners = [
            (decode("10000000000"), "separable"),
            (decode("00000000000"), "separable"),
        ]
        groups, table = report_activation(winners)
        assert groups == ["separable"]
        assert table["active_update"] == ["50.0"]
        assert table["elitism"] == ["0.0"]
        assert table["base_sampler"] == ["0.0/0.0"]

    def test_all_default_is_all_zero(self):
        winners = [(decode("00000000000"), "g")] * 4
        _, table = report_activation(winners)
        for name, row in table.items():
            assert row[0] in ("0.0", "0.0/0.0")

    def test_ternary_split_partition(self):
        winners = [
            (decode("00000000010"), "g"),
            (decode("00000000020"), "g"),
            (decode("00000000000"), "g"),
            (decode("00000000010"), "g"),
        ]
        _, table = report_activation(winners)
        sobol_pct, halton_pct = map(float, table["base_sampler"][0].split("/"))
        assert sobol_pct == 50.0
        assert halton_pct == 25.0
        assert sobol_pct + halton_pct <= 100.0

    def test_empty_winners_rejected(self):
        with pytest.raises(ValueError):
            report_activation([])

    @pytest.mark.parametrize("row", [
        "0\t0\tsphere\t2\t0000000000X\tNA\t1.0",
        "0\t0\tsphere\t2\t000\tNA\t1.0",
        "0\t0\tsphere",
    ], ids=["bad-gene", "short-config", "short-row"])
    def test_cli_malformed_row_names_file_and_line(self, tmp_path, capsys, row):
        winners = tmp_path / "winners.tsv"
        winners.write_text(
            "run\tga_seed\tfunction_id\tdimension\tbest_config\tert\tfce\n"
            "0\t0\tsphere\t2\t10000000000\tNA\t1.0\n"
            f"{row}\n"
        )
        code, out, err = _run_cli(
            ["report-activation", "--winners", str(winners)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"{winners}:3: ") and err.count("\n") == 1

    def test_cli_header_only_names_file_and_line(self, tmp_path, capsys):
        winners = tmp_path / "winners.tsv"
        winners.write_text(
            "run\tga_seed\tfunction_id\tdimension\tbest_config\tert\tfce\n"
        )
        code, out, err = _run_cli(
            ["report-activation", "--winners", str(winners)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"{winners}:2: ") and err.count("\n") == 1

    def test_cli_non_ascii_digit_names_file_and_line(self, tmp_path, capsys):
        winners = tmp_path / "winners.tsv"
        winners.write_text(
            "run\tga_seed\tfunction_id\tdimension\tbest_config\tert\tfce\n"
            "0\t0\tsphere\t2\t0000000000\u00b2\tNA\t1.0\n",
            encoding="utf-8",
        )
        code, out, err = _run_cli(
            ["report-activation", "--winners", str(winners)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"{winners}:2: ") and err.count("\n") == 1

    def test_cli_group_by_dimension(self, tmp_path, capsys):
        winners = tmp_path / "winners.tsv"
        winners.write_text(
            "run\tga_seed\tfunction_id\tdimension\tbest_config\tert\tfce\n"
            "0\t0\tsphere\t2\t10000000000\tNA\t1.0\n"
            "1\t1\tsphere\t10\t00000000000\tNA\t1.0\n"
            "2\t2\tsphere\t5\t00000000000\tNA\t1.0\n"
            "3\t3\tsphere\t20\t10000000000\tNA\t1.0\n"
        )
        code, out, _ = _run_cli(
            ["report-activation", "--winners", str(winners),
             "--group-by", "dimension"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split("\t") == ["module", "2", "5", "10", "20"]
        assert lines[1].split("\t") == [
            "active_update", "100.0", "0.0", "0.0", "100.0"]

    def test_cli_group_by_bad_dimension_names_file_and_line(
            self, tmp_path, capsys):
        winners = tmp_path / "winners.tsv"
        winners.write_text(
            "run\tga_seed\tfunction_id\tdimension\tbest_config\tert\tfce\n"
            "0\t0\tsphere\tten\t10000000000\tNA\t1.0\n"
        )
        code, out, err = _run_cli(
            ["report-activation", "--winners", str(winners),
             "--group-by", "dimension"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"{winners}:2: ") and err.count("\n") == 1


class TestConvergenceReport:
    def _trace(self, erts, fces):
        t = GARunTrace()
        for g, (e, f) in enumerate(zip(erts, fces), start=1):
            t.entries.append(
                TraceEntry(generation=g, best_config="00000000000", ert=e, fce=f)
            )
        return t

    def test_single_trace_equals_itself(self):
        t = self._trace([None, 100.0, 90.0], [2.0, 1.0, 1.5])
        rows = report_convergence([t])
        assert rows == [(1, None, 2.0), (2, 100.0, 1.0), (3, 90.0, 1.5)]

    def test_fce_may_rise_while_ert_falls(self):
        # Once ERT exists the comparison ignores FCE, which may rise.
        t = self._trace([None, 100.0, 80.0], [1.0, 1.2, 1.4])
        rows = report_convergence([t])
        assert rows[2][1] < rows[1][1]
        assert rows[2][2] > rows[1][2]

    def test_averages_across_traces(self):
        a = self._trace([100.0, 80.0], [1.0, 1.0])
        b = self._trace([None, 40.0], [3.0, 2.0])
        rows = report_convergence([a, b])
        assert rows[0] == (1, 100.0, 2.0)
        assert rows[1] == (2, 60.0, 1.5)

    def test_rows_cover_the_longest_trace_in_any_order(self):
        # The shorter trace comes first, as its file name would sort.
        short = self._trace([None, 40.0], [3.0, 2.0])
        long = self._trace([100.0, 80.0, 60.0], [1.0, 1.0, 0.5])
        rows = report_convergence([short, long])
        assert rows == [(1, 100.0, 2.0), (2, 60.0, 1.5), (3, 60.0, 0.5)]
        assert report_convergence([long, short]) == rows

    def test_generation_count_matches_budget(self):
        t = self._trace([None] * 20, [1.0] * 20)
        assert len(report_convergence([t])) == 240 // 12

    def test_cli_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        os.makedirs(out_dir)
        t = self._trace([None, 50.0], [2.0, 1.0])
        (out_dir / "trace_000.tsv").write_text(t.to_lines())
        code, out, _ = _run_cli(
            ["report-convergence", "--traces", str(out_dir)], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "generation\tmean_ert\tmean_fce"
        assert lines[1].startswith("1\tNA\t")

    @pytest.mark.parametrize("text, line", [
        ("gen\tconfig\n1\t00000000000\tNA\t1.0\n", 1),
        ("generation\tbest_config\tert\tfce\n1\t00000000000\tNA\n", 2),
        ("generation\tbest_config\tert\tfce\n1\t00000000000\tNA\tx\n", 2),
        ("generation\tbest_config\tert\tfce\n1\t00000000000\tNA\t1.0\n"
         "two\t00000000000\tNA\t1.0\n", 3),
        ("generation\tbest_config\tert\tfce\n", 2),
    ], ids=["header", "three-fields", "non-numeric-fce", "non-numeric-generation",
            "no-generation"])
    def test_malformed_trace_names_file_and_line(
        self, tmp_path, capsys, text, line
    ):
        path = tmp_path / "trace_000.tsv"
        path.write_text(text)
        code, out, err = _run_cli(
            ["report-convergence", "--traces", str(tmp_path)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"{path}:{line}: ") and err.count("\n") == 1

    def test_missing_traces_directory(self, tmp_path, capsys):
        code, out, err = _run_cli(
            ["report-convergence", "--traces", str(tmp_path / "nope")], capsys
        )
        assert (code, out) == (3, "")
        assert "no trace files found" in err


class TestSuiteCommand:
    def test_manifest_emitted(self, capsys):
        code, out, _ = _run_cli(["suite"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "function_id\tdimension\tsubgroup\tseed"
        assert len(lines) == 51

    def test_manifest_bytes_pinned(self, capsys):
        # Every function, dimension, subgroup and instance seed, in order.
        _, out, _ = _run_cli(["suite"], capsys)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e2fadb3b8d2b7e62e5b78b895048f0f897533d870a41db0ba90847c25cfbaf17")


class TestCachedEvaluator:
    def test_one_class_under_every_name(self):
        """perfbench reaches the evaluator through ``modcmaes.cli``."""
        assert (cli.CachedEvaluator is evaluation.CachedEvaluator
                is modcmaes.CachedEvaluator)

    def test_duplicate_lookup_runs_nothing(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "c.tsv"))
        problem = make_problem("sphere", 2)
        ev = CachedEvaluator(problem, cache, n_runs=2, budget=300, base_seed=0)
        ev("00000000000")
        assert ev.runs_executed == 2
        ev("00000000000")
        assert ev.runs_executed == 2  # cache hit, zero new runs

    def test_fresh_evaluator_reads_existing_cache(self, tmp_path):
        path = str(tmp_path / "c.tsv")
        problem = make_problem("sphere", 2)
        first = CachedEvaluator(
            problem, ResultsCache(path), n_runs=2, budget=300, base_seed=0
        )
        s1 = first("00000000000")
        second = CachedEvaluator(
            problem, ResultsCache(path), n_runs=2, budget=300, base_seed=0
        )
        s2 = second("00000000000")
        assert second.runs_executed == 0
        assert s1.fce == s2.fce
        assert s1.ert == s2.ert

    def test_repeat_lookup_returns_memoized_summary(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "c.tsv")
        problem = make_problem("sphere", 2)
        CachedEvaluator(problem, ResultsCache(path), n_runs=3, budget=300,
                        base_seed=5)("01000000000")
        calls = {"summarize": 0, "missing_seeds": 0}
        summarize, missing_seeds = (evaluation.summarize,
                                  CachedEvaluator.missing_seeds)

        def counted_summarize(runs):
            calls["summarize"] += 1
            return summarize(runs)

        def counted_missing_seeds(self, cfg_str):
            calls["missing_seeds"] += 1
            return missing_seeds(self, cfg_str)

        monkeypatch.setattr(evaluation, "summarize", counted_summarize)
        monkeypatch.setattr(
            CachedEvaluator, "missing_seeds", counted_missing_seeds)
        ev = CachedEvaluator(problem, ResultsCache(path), n_runs=3,
                             budget=300, base_seed=5)
        first = ev(decode("01000000000"))
        assert calls == {"summarize": 1, "missing_seeds": 1}
        assert ev(decode("01000000000")) is first  # an equal vector
        assert ev("01000000000") is first  # its string
        assert calls == {"summarize": 1, "missing_seeds": 1}
        assert ev.runs_executed == 0

        by_seed = {r.seed: r for r in ResultsCache(path).records()}
        fresh = summarize([by_seed[s] for s in (5, 6, 7)])
        for f in dataclasses.fields(fresh):
            assert getattr(first, f.name) == getattr(fresh, f.name), f.name
        assert isinstance(first.runs, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.fce = 0.0

    def test_serves_only_its_own_problem_from_a_shared_cache(self, tmp_path):
        def rec(fid, dim, cfg, seed, err):
            return RunRecord(config=cfg, function_id=fid, dimension=dim,
                             seed=seed, evaluations_used=100,
                             best_error=err, hit_index=None)

        own = [rec("sphere", 2, "00000000000", s, 1.0 + s) for s in (0, 1)]
        others = [
            rec(fid, dim, cfg, s, 9.0)
            for fid, dim in (("sphere", 3), ("rastrigin_separable", 2))
            for cfg in ("00000000000", "10000000000")
            for s in (0, 1)
        ]
        cache = ResultsCache(str(tmp_path / "c.tsv"))
        cache.append(own + others)
        ev = CachedEvaluator(make_problem("sphere", 2), cache, n_runs=2)
        assert ev.budget == 1000 * 2
        assert list(ev.cached("00000000000").runs) == own
        assert ev.cached("10000000000") is None
        assert ev.missing_seeds("10000000000") == [0, 1]
        assert ev("00000000000") is ev.cached("00000000000")
        assert ev.runs_executed == 0
