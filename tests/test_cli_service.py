"""The ``python -m repro serve`` / ``client`` subcommands.

The serve command is exercised for real: a background thread runs
``repro serve`` on an ephemeral loopback port while the main thread drives
``repro client`` invocations against it, including the deterministic load
generator with its accuracy check.
"""

import io
import json
import re
import threading
import time

import pytest

from repro.cli import build_parser, main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 9421
        assert args.max_queue_jobs == 256
        assert args.default_deadline_ms == 5000.0

    def test_serve_rejects_retired_and_invalid_options(self):
        with pytest.raises(SystemExit):  # every connection speaks both wires
            build_parser().parse_args(["serve", "--wire", "ndjson"])
        with pytest.raises(SystemExit):  # shards stay in the server's process
            build_parser().parse_args(["serve", "--executor", "processes"])
        with pytest.raises(SystemExit):  # --workers alone picks the threads
            build_parser().parse_args(["serve", "--executor", "thread"])
        with pytest.raises(SystemExit, match="drain_timeout_s"):
            _run(["serve", "--port", "0", "--drain-timeout", "0"])

    def test_client_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["client", "ping"]).client_command == "ping"
        args = parser.parse_args(
            ["client", "--port", "7", "query", "--phi", "0.5", "0.9"]
        )
        assert args.port == 7 and args.phi == [0.5, 0.9]
        args = parser.parse_args(["client", "insert", "1", "2", "7/2"])
        assert args.values == ["1", "2", "7/2"]
        args = parser.parse_args(
            ["client", "load", "--clients", "3", "--check-epsilon", "0.05"]
        )
        assert args.clients == 3 and args.check_epsilon == 0.05

    def test_client_insert_rejects_values_plus_generate(self):
        with pytest.raises(SystemExit):
            _run(
                [
                    "client", "--port", "1", "insert", "5",
                    "--generate", "10",
                ]
            )


@pytest.fixture(scope="class")
def live_server(tmp_path_factory):
    """``repro serve`` on an ephemeral port, drained at fixture teardown."""
    checkpoint = str(tmp_path_factory.mktemp("serve") / "serve.jsonl")
    out = io.StringIO()
    done = threading.Event()

    def target():
        try:
            main(
                [
                    "serve", "--port", "0", "--shards", "2",
                    "--epsilon", "0.02", "--serve-for", "60",
                    "--checkpoint", checkpoint,
                ],
                out=out,
            )
        finally:
            done.set()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    port = None
    for _ in range(200):
        match = re.search(r"on 127\.0\.0\.1:(\d+)", out.getvalue())
        if match:
            port = match.group(1)
            break
        time.sleep(0.02)
    assert port, f"server never came up: {out.getvalue()!r}"
    yield {"port": port, "checkpoint": checkpoint, "out": out, "done": done}


class TestServeAndClient:
    def test_full_session_against_a_live_server(self, live_server):
        port = live_server["port"]

        code, text = _run(["client", "--port", port, "ping"])
        assert code == 0
        assert json.loads(text)["ok"] is True

        code, text = _run(
            ["client", "--port", port, "insert", "--generate", "3000", "--seed", "5"]
        )
        assert code == 0
        assert json.loads(text)["items"] == 3000

        code, text = _run(
            ["client", "--port", port, "query", "--phi", "0.5"]
        )
        assert code == 0
        response = json.loads(text)
        assert response["n"] == 3000
        assert response["results"][0]["phi"] == 0.5

        code, text = _run(["client", "--port", port, "rank", "--value", "500000000"])
        assert code == 0
        assert json.loads(text)["results"][0]["rank"] > 0

        code, text = _run(["client", "--port", port, "stats"])
        assert code == 0
        stats = json.loads(text)
        assert stats["engine"]["items_ingested"] == 3000
        assert stats["service"]["draining"] is False

        code, text = _run(["client", "--port", port, "metrics"])
        assert code == 0
        assert "# TYPE service_requests_total counter" in text
        assert "engine_latency_ns" in text

        code, text = _run(
            [
                "client", "--port", port, "load",
                "--clients", "4", "--ops", "10", "--seed", "3",
            ]
        )
        assert code == 0
        report = json.loads(text)
        assert report["ops"] == 40
        assert report["ok"] + sum(report["errors"].values()) == 40


class TestLoadAccuracyCheck:
    def test_load_check_epsilon_against_a_fresh_server(self):
        out = io.StringIO()
        done = threading.Event()

        def target():
            try:
                main(
                    [
                        "serve", "--port", "0", "--shards", "2",
                        "--epsilon", "0.02", "--serve-for", "30",
                    ],
                    out=out,
                )
            finally:
                done.set()

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        port = None
        for _ in range(200):
            match = re.search(r"on 127\.0\.0\.1:(\d+)", out.getvalue())
            if match:
                port = match.group(1)
                break
            time.sleep(0.02)
        assert port, "server never came up"

        code, text = _run(
            [
                "client", "--port", port, "load",
                "--clients", "8", "--ops", "15", "--seed", "1",
                "--check-epsilon", "0.02",
            ]
        )
        assert code == 0
        report = json.loads(text)
        assert report["accuracy_ok"] is True
        assert report["max_rank_error"] <= 0.02
