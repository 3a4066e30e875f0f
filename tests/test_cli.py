"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_figure1_geometry(self, capsys):
        assert main(["info", "--N", "64", "--B", "2", "--D", "8", "--M", "32"]) == 0
        out = capsys.readouterr().out
        assert "stripe  0" in out and "D7" in out
        assert "n=6 b=1 d=3 m=5 s=2" in out

    def test_default_geometry(self, capsys):
        assert main(["info"]) == 0
        assert "one pass" in capsys.readouterr().out


class TestBounds:
    def test_table_printed(self, capsys):
        assert main(["bounds", "--rank-gamma", "2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3" in out and "Theorem 21" in out
        assert "Delta_max" in out

    def test_default_rank(self, capsys):
        assert main(["bounds"]) == 0
        assert "rank gamma" in capsys.readouterr().out

    def test_invalid_geometry_is_clean_error(self, capsys):
        assert main(["bounds", "--N", "100"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    @pytest.mark.parametrize(
        "perm",
        [
            "identity",
            "transpose",
            "bit-reversal",
            "vector-reversal",
            "gray",
            "gray-inverse",
            "permuted-gray",
            "shuffle",
            "random-bmmc",
            "random-bpc",
            "random-mrc",
            "random-mld",
        ],
    )
    def test_all_named_permutations_verify(self, perm, capsys):
        code = main(["run", "--perm", perm, "--N", "1024", "--B", "4", "--D", "2", "--M", "64"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "verified=True" in out

    def test_random_via_general(self, capsys):
        code = main(
            ["run", "--perm", "random", "--N", "1024", "--B", "4", "--D", "2", "--M", "64"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "method=general" in out

    def test_forced_method(self, capsys):
        code = main(["run", "--perm", "gray", "--method", "general"])
        out = capsys.readouterr().out
        assert code == 0 and "method=general" in out

    def test_distribution_method(self, capsys):
        code = main(
            ["run", "--perm", "random-bmmc", "--method", "distribution", "--M", "256"]
        )
        out = capsys.readouterr().out
        assert code == 0 and "method=distribution" in out

    def test_trace_output(self, capsys):
        code = main(["run", "--perm", "gray", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "parallelism efficiency" in out

    def test_timeline_output(self, capsys):
        code = main(["run", "--perm", "gray", "--timeline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "disk  0 |" in out

    def test_rank_gamma_control(self, capsys):
        code = main(["run", "--perm", "random-bmmc", "--rank-gamma", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank_gamma: 0.00" in out


class TestServe:
    GEO = ["--N", "1024", "--B", "8", "--D", "4", "--M", "128"]

    def test_synthetic_mix_concurrent(self, capsys):
        code = main(
            ["serve", "--workers", "4", "--count", "12", "--repeat", "2", *self.GEO]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "served 24 requests" in out
        assert "plan cache:" in out and "hits" in out
        assert "0 failed, 0 unverified" in out

    def test_sequential_reference_mode(self, capsys):
        code = main(["serve", "--workers", "1", "--count", "6", *self.GEO])
        out = capsys.readouterr().out
        assert code == 0
        assert "on 1 worker(s)" in out
        assert "plan cache:" not in out  # sequential mode serves uncached

    def test_requests_file(self, capsys, tmp_path):
        path = tmp_path / "reqs.jsonl"
        path.write_text(
            '{"perm": "gray"}\n{"perm": "bit-reversal", "method": "bmmc"}\n'
        )
        code = main(
            ["serve", "--workers", "2", "--requests", str(path), "--verbose", *self.GEO]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "served 2 requests" in out
        assert "gray" in out and "bit-reversal" in out

    def test_failing_request_sets_exit_code(self, capsys, tmp_path):
        path = tmp_path / "reqs.jsonl"
        # distribution cannot fit this geometry's memory budget
        path.write_text('{"perm": "transpose", "method": "distribution"}\n')
        code = main(
            ["serve", "--workers", "2", "--requests", str(path),
             "--N", "2048", "--B", "8", "--D", "8", "--M", "64"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "1 failed" in captured.out
        assert "FAILED" in captured.err

    def test_missing_or_malformed_request_file_is_clean_error(self, capsys, tmp_path):
        assert main(["serve", "--requests", str(tmp_path / "nope.jsonl"), *self.GEO]) == 2
        assert "cannot load" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["serve", "--requests", str(bad), *self.GEO]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_empty_request_file_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["serve", "--requests", str(path), *self.GEO])
        assert code == 2
        assert "no requests" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["serve", "--count", "1", "--retries", "2"], id="--retries"),
            pytest.param(
                ["serve", "--count", "1", "--breaker-threshold", "3"],
                id="--breaker-threshold",
            ),
            pytest.param(
                ["serve", "--count", "1", "--breaker-cooldown", "5"],
                id="--breaker-cooldown",
            ),
            pytest.param(["serve", "--count", "1", "--no-optimize"], id="--no-optimize"),
            pytest.param(["run", "--engine", "fast", "--optimize"], id="run--optimize"),
        ],
    )
    def test_removed_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDetect:
    def test_positive(self, capsys):
        assert main(["detect", "--perm", "permuted-gray"]) == 0
        out = capsys.readouterr().out
        assert "BMMC: yes" in out and "bound" in out

    def test_tampered(self, capsys):
        assert main(["detect", "--perm", "gray", "--tamper"]) == 0
        out = capsys.readouterr().out
        assert "BMMC: no" in out

    def test_random_vector(self, capsys):
        assert main(["detect", "--perm", "random"]) == 0
        assert "BMMC: no" in capsys.readouterr().out


class TestFactor:
    def test_structure_printed(self, capsys):
        assert main(["factor", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "P^-1" in out and "F" in out
        assert "recomposition check: OK" in out
        assert "eq. 17" in out

    def test_explicit_permutation_rejected(self, capsys):
        assert main(["factor", "--perm", "random"]) == 1
        assert "requires a BMMC" in capsys.readouterr().err

    def test_mrc_degenerate(self, capsys):
        assert main(["factor", "--perm", "random-mrc"]) == 0
        out = capsys.readouterr().out
        assert "1 passes" in out or "merged one-pass factors (1" in out


class TestServeHttp:
    GEO = ["--N", "1024", "--B", "8", "--D", "4", "--M", "128"]

    def _boot(self, tmp_path, extra=()):
        """Start `serve --http` on an ephemeral port in a thread; return
        (frontend, stop_event, thread)."""
        import threading

        from repro.cli import build_parser, serve_http

        args = build_parser().parse_args(
            ["serve", "--http", "127.0.0.1:0", "--workers", "2",
             "--stats-json", str(tmp_path / "stats.json"), *self.GEO, *extra]
        )
        stop = threading.Event()
        ready, box = threading.Event(), {}

        def on_ready(frontend):
            box["frontend"] = frontend
            ready.set()

        thread = threading.Thread(
            target=serve_http, args=(args, stop), kwargs={"ready": on_ready}
        )
        thread.start()
        assert ready.wait(10.0)
        return box["frontend"], stop, thread

    def test_serves_requests_and_drains_on_shutdown(self, capsys, tmp_path):
        import json

        from repro.serve.loadgen import http_json

        frontend, stop, thread = self._boot(tmp_path)
        try:
            status, body = http_json(
                "POST", frontend.url, "/permutations", {"perm": "transpose"}
            )
            assert status == 200 and body["ok"] is True
            status, _ = http_json("GET", frontend.url, "/healthz")
            assert status == 200
        finally:
            stop.set()
            thread.join(15.0)
        assert not thread.is_alive()
        out = capsys.readouterr().out
        assert "listening on http://127.0.0.1:" in out
        assert "shutting down" in out
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["submitted"] == 1
        assert stats["closed"] is True

    def test_warmup_spec_runs_at_boot(self, capsys, tmp_path):
        import json

        from repro.serve.loadgen import http_json

        spec = tmp_path / "warm.json"
        spec.write_text(json.dumps({"mix": {"count": 4}}))
        frontend, stop, thread = self._boot(
            tmp_path, extra=["--warmup", str(spec)]
        )
        try:
            _, stats = http_json("GET", frontend.url, "/stats")
            assert stats["submitted"] == 4  # warmup went through the service
            assert stats["cache"]["size"] > 0
        finally:
            stop.set()
            thread.join(15.0)
        assert "warmup: 4/4 ok" in capsys.readouterr().out

    def test_loadgen_cli_end_to_end(self, capsys, tmp_path):
        import json

        frontend, stop, thread = self._boot(tmp_path)
        try:
            code = main(
                ["loadgen", "--url", frontend.url, "--count", "8",
                 "--concurrency", "4", "--json", str(tmp_path / "bench.json")]
            )
        finally:
            stop.set()
            thread.join(15.0)
        out = capsys.readouterr().out
        assert code == 0
        assert "peak concurrency 4" in out
        assert "/metrics reconciles exactly against /stats" in out
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["statuses"] == {"200": 8}
        assert report["reconciled"] is True

    def test_bad_http_address_is_clean_error(self, capsys):
        assert main(["serve", "--http", "nonsense", *self.GEO]) == 2
        assert "--http wants HOST:PORT" in capsys.readouterr().err

    def test_missing_warmup_file_is_clean_error(self, capsys, tmp_path):
        code = main(
            ["serve", "--http", "127.0.0.1:0",
             "--warmup", str(tmp_path / "nope.json"), *self.GEO]
        )
        assert code == 2
        assert "cannot load" in capsys.readouterr().err


class TestWorkloadCli:
    GEO = ["--N", "1024", "--B", "8", "--D", "4", "--M", "128"]

    def test_gen_info_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "skewed.jsonl"
        code = main(
            ["workload", "gen", "--out", str(path), "--count", "10",
             "--arrival", "poisson", "--popularity", "zipf",
             "--zipf-alpha", "1.5", "--key-space", "5", *self.GEO]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert path.exists()
        assert "10 events" in out and f"trace written to {path}" in out
        assert main(["workload", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "generator spec:" in out and "popularity: zipf" in out

    def test_gen_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["workload", "gen", "--count", "8", "--seed", "3",
                "--arrival", "bursty", *self.GEO]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        # identical but for the name derived from the output file
        assert a.read_text().replace('"a"', '"x"') == b.read_text().replace(
            '"b"', '"x"'
        )

    def test_info_on_garbage_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["workload", "info", str(bad)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_serve_replay(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(
            ["workload", "gen", "--out", str(path), "--count", "6", *self.GEO]
        ) == 0
        capsys.readouterr()
        code = main(
            ["serve", "--replay", str(path), "--workers", "2",
             "--as-fast-as-possible"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "served 6 requests" in out
        assert "replayed 't'" in out and "6/6 ok" in out
        assert "workload digest" in out

    def test_serve_replay_uses_trace_geometry(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(
            ["workload", "gen", "--out", str(path), "--count", "4", *self.GEO]
        ) == 0
        capsys.readouterr()
        # no geometry flags on the serve side: the trace header's wins
        code = main(["serve", "--replay", str(path), "--as-fast-as-possible"])
        out = capsys.readouterr().out
        assert code == 0
        assert "N=1024" in out

    def test_record_then_replay_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "session.jsonl"
        code = main(
            ["serve", "--workers", "2", "--count", "6",
             "--record", str(path), *self.GEO]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"recorded 6 requests" in out and str(path) in out
        code = main(
            ["serve", "--replay", str(path), "--workers", "2",
             "--as-fast-as-possible"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "6/6 ok" in out

    def test_replay_and_requests_are_mutually_exclusive(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        reqs = tmp_path / "r.jsonl"
        reqs.write_text('{"perm": "gray"}\n')
        assert main(
            ["serve", "--replay", str(trace), "--requests", str(reqs), *self.GEO]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_replay_missing_trace_is_clean_error(self, capsys, tmp_path):
        assert main(
            ["serve", "--replay", str(tmp_path / "nope.jsonl"), *self.GEO]
        ) == 2
        assert "cannot load" in capsys.readouterr().err


class TestLoadgenTrace:
    GEO = ["--N", "1024", "--B", "8", "--D", "4", "--M", "128"]

    def _boot(self, tmp_path, extra=()):
        import threading

        from repro.cli import build_parser, serve_http

        args = build_parser().parse_args(
            ["serve", "--http", "127.0.0.1:0", "--workers", "2",
             *self.GEO, *extra]
        )
        stop = threading.Event()
        ready, box = threading.Event(), {}

        def on_ready(frontend):
            box["frontend"] = frontend
            ready.set()

        thread = threading.Thread(
            target=serve_http, args=(args, stop), kwargs={"ready": on_ready}
        )
        thread.start()
        assert ready.wait(10.0)
        return box["frontend"], stop, thread

    def test_loadgen_replays_a_trace_over_http(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(
            ["workload", "gen", "--out", str(path), "--count", "6",
             "--rate", "500", *self.GEO]
        ) == 0
        capsys.readouterr()
        frontend, stop, thread = self._boot(tmp_path)
        try:
            code = main(
                ["loadgen", "--url", frontend.url, "--trace", str(path),
                 "--concurrency", "4"]
            )
        finally:
            stop.set()
            thread.join(15.0)
        out = capsys.readouterr().out
        assert code == 0
        assert "6 requests" in out and "paced replay" in out
        assert "trace 't'" in out
        assert "/metrics reconciles exactly against /stats" in out

    def test_http_record_writes_a_trace(self, capsys, tmp_path):
        from repro.serve.loadgen import http_json
        from repro.serve.workload import WorkloadTrace

        path = tmp_path / "recorded.jsonl"
        frontend, stop, thread = self._boot(
            tmp_path, extra=["--record", str(path)]
        )
        try:
            status, config = http_json("GET", frontend.url, "/config")
            assert status == 200 and config["recording"] is True
            for _ in range(3):
                status, body = http_json(
                    "POST", frontend.url, "/permutations", {"perm": "transpose"}
                )
                assert status == 200 and body["ok"] is True
        finally:
            stop.set()
            thread.join(15.0)
        out = capsys.readouterr().out
        assert "recorded 3 requests" in out
        trace = WorkloadTrace.load(path)
        assert len(trace) == 3
        assert all(e.request.perm == "transpose" for e in trace)
